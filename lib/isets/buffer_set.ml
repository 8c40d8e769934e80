open Model

type op = Buf_read | Buf_write of Value.t

module Make (C : sig
  val capacity : int
  val multi_assignment : bool
end) =
struct
  let () = if C.capacity < 1 then invalid_arg "Buffer_set.Make: capacity < 1"

  let capacity = C.capacity

  (* Newest-first list of the ≤ ℓ most recent writes. *)
  type cell = Value.t list

  type nonrec op = op
  type result = Value.t

  let name =
    let base = Printf.sprintf "{%d-buffer-read(), %d-buffer-write(x)}" capacity capacity in
    if C.multi_assignment then base ^ " + multiple assignment" else base

  let init = []

  let to_vector newest_first =
    let v = Array.make capacity Value.Bot in
    List.iteri (fun i x -> v.(capacity - 1 - i) <- x) newest_first;
    v

  let apply op c =
    match op with
    | Buf_read -> (c, Value.Vec (to_vector c))
    | Buf_write x ->
      let c' = x :: (if List.length c >= capacity then List.filteri (fun i _ -> i < capacity - 1) c else c) in
      (c', Value.Unit)

  let trivial = function Buf_read -> true | Buf_write _ -> false

  (* writes of distinct values leave the buffer in a different newest-first
     order, so only equal-value write pairs (and read pairs) commute *)
  let commutes a b =
    match (a, b) with
    | Buf_read, Buf_read -> true
    | Buf_write x, Buf_write y -> Value.equal x y
    | _ -> false

  let multi_assignment = C.multi_assignment

  let equal_cell a b = List.length a = List.length b && List.for_all2 Value.equal a b

  let hash_cell c =
    List.fold_left (fun acc x -> (acc * 0x100000001b3) lxor Value.hash x) (List.length c) c

  let hash_result = Value.hash
  let observe_result = Value.observe_int

  let pp_cell ppf c =
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") Value.pp)
      c

  let pp_result = Value.pp

  let pp_op ppf = function
    | Buf_read -> Format.fprintf ppf "%d-buffer-read()" capacity
    | Buf_write v -> Format.fprintf ppf "%d-buffer-write(%a)" capacity Value.pp v

  (* every newest-first stack over {0,1} up to min(capacity,2) deep: small
     but hits the truncation boundary when capacity ≤ 2 *)
  let sample_cells =
    Iset.memo (fun () ->
        let vals = [ Value.Int 0; Value.Int 1 ] in
        let depth1 = List.map (fun v -> [ v ]) vals in
        let depth2 =
          if capacity < 2 then []
          else List.concat_map (fun v -> List.map (fun w -> [ v; w ]) vals) vals
        in
        ([] :: depth1) @ depth2)

  let sample_ops =
    Iset.memo (fun () ->
        [ Buf_read; Buf_write (Value.Int 0); Buf_write (Value.Int 1) ])

  let read loc =
    Proc.map
      (function
        | Value.Vec v -> v
        | v -> Value.reject "buffer read returned" v)
      (Proc.access loc Buf_read)

  let write loc v = Proc.map ignore (Proc.access loc (Buf_write v))

  let write_many assignments =
    Proc.map ignore
      (Proc.multi_access (List.map (fun (loc, v) -> (loc, Buf_write v)) assignments))
end
