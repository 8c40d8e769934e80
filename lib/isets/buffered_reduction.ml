open Model

module type SPEC = sig
  type op
  type result

  val name : string
  val ell : int
  val nontrivial : op -> bool
  val nontrivial_result : op -> result
  val trivial_result : op -> op list -> result
  val encode_op : op -> Value.t
  val decode_op : Value.t -> op
end

module Make (S : SPEC) = struct
  let bad_read = S.name ^ ": bad buffer read"

  let apply ~loc op =
    if S.nontrivial op then
      Proc.map
        (fun _ -> S.nontrivial_result op)
        (Proc.access loc (Buffer_set.Buf_write (S.encode_op op)))
    else
      Proc.map
        (function
          | Value.Vec slots ->
            let recent =
              Array.to_list slots
              |> List.filter_map (function
                   | Value.Bot -> None
                   | v -> Some (S.decode_op v))
            in
            S.trivial_result op recent
          | v -> Value.reject bad_read v)
        (Proc.access loc Buffer_set.Buf_read)
end

module Rw_spec = struct
  type op = Rw.op
  type result = Value.t

  let name = "{read(), write(x)} via 1-buffers"
  let ell = 1
  let nontrivial = function Rw.Write _ -> true | Rw.Read -> false
  let nontrivial_result _ = Value.Unit

  let trivial_result _ = function
    | [] -> Value.Bot
    | recent -> (
      match List.nth recent (List.length recent - 1) with
      | Rw.Write v -> v
      | Rw.Read -> assert false)

  let encode_op = function
    | Rw.Write v -> v
    | Rw.Read -> invalid_arg "Rw_spec.encode_op: trivial instruction"

  let decode_op v = Rw.Write v
end

module W1_spec = struct
  type op = Bits.op
  type result = Value.t

  let name = "{read(), write(1)} via 1-buffers"
  let ell = 1

  let nontrivial = function
    | Bits.Write1 -> true
    | Bits.Read -> false
    | Bits.Write0 | Bits.Tas | Bits.Reset ->
      invalid_arg "W1_spec: instruction outside {read, write(1)}"

  let nontrivial_result _ = Value.Unit

  (* the location reads 1 iff the last (indeed, any) non-trivial
     instruction was a write(1) *)
  let trivial_result _ = function
    | [] -> Value.Int 0
    | _ :: _ -> Value.Int 1

  let encode_op = function
    | Bits.Write1 -> Value.Int 1
    | _ -> invalid_arg "W1_spec.encode_op"

  let decode_op _ = Bits.Write1
end
