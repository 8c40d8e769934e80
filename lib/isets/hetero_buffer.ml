open Model

type op = Buf_read of int | Buf_write of int * Value.t

type cell = int * Value.t list
type result = Value.t

let name = "{l(r)-buffer-read(), l(r)-buffer-write(x)} (heterogeneous)"
let init = (0, [])

let pp_op ppf = function
  | Buf_read c -> Format.fprintf ppf "%d-buffer-read()" c
  | Buf_write (c, v) -> Format.fprintf ppf "%d-buffer-write(%a)" c Value.pp v

let capacity_of op = match op with Buf_read c | Buf_write (c, _) -> c

let check_capacity op (stored, entries) =
  let c = capacity_of op in
  if c < 1 then Format.kasprintf invalid_arg "hetero buffer: capacity %d < 1" c;
  if stored <> 0 && stored <> c then
    Format.kasprintf invalid_arg
      "hetero buffer: location has capacity %d but %a declares %d" stored pp_op op c;
  (c, entries)

let to_vector ~capacity newest_first =
  let v = Array.make capacity Value.Bot in
  List.iteri (fun i x -> v.(capacity - 1 - i) <- x) newest_first;
  v

let apply op cell =
  let c, entries = check_capacity op cell in
  match op with
  | Buf_read _ -> ((c, entries), Value.Vec (to_vector ~capacity:c entries))
  | Buf_write (_, x) ->
    let entries =
      x :: (if List.length entries >= c then List.filteri (fun i _ -> i < c - 1) entries
            else entries)
    in
    ((c, entries), Value.Unit)

let trivial = function Buf_read _ -> true | Buf_write _ -> false

(* Mismatched declared capacities raise in [apply], so we additionally require
   agreeing capacities before declaring a pair independent. *)
let commutes a b =
  match (a, b) with
  | Buf_read c1, Buf_read c2 -> c1 = c2
  | Buf_write (c1, x), Buf_write (c2, y) -> c1 = c2 && Value.equal x y
  | _ -> false

let multi_assignment = false

let equal_cell (c1, e1) (c2, e2) =
  c1 = c2 && List.length e1 = List.length e2 && List.for_all2 Value.equal e1 e2

let hash_cell (c, entries) =
  List.fold_left
    (fun acc x -> (acc * 0x100000001b3) lxor Value.hash x)
    ((c * 0x100000001b3) lxor List.length entries)
    entries

let hash_result = Value.hash
let observe_result = Value.observe_int

let pp_cell ppf (c, entries) =
  Format.fprintf ppf "cap=%d [%a]" c
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") Value.pp)
    entries

let pp_result = Value.pp

(* Cells of capacities 1 and 2 plus the untouched cell; ops declare the same
   two capacities, so the linter's apply calls on mismatched (op, cell) pairs
   raise and are skipped as inapplicable. *)
let sample_cells =
  Iset.memo (fun () ->
      [ init; (1, [ Value.Int 0 ]); (2, [ Value.Int 1 ]); (2, [ Value.Int 0; Value.Int 1 ]) ])

let sample_ops =
  Iset.memo (fun () ->
      [ Buf_read 1; Buf_write (1, Value.Int 0); Buf_write (1, Value.Int 1);
        Buf_read 2; Buf_write (2, Value.Int 0) ])

let read ~capacities loc =
  Proc.map
    (function
      | Value.Vec v -> v
      | v -> Value.reject "hetero buffer read returned" v)
    (Proc.access loc (Buf_read (capacities loc)))

let write ~capacities loc v =
  Proc.map ignore (Proc.access loc (Buf_write (capacities loc, v)))
