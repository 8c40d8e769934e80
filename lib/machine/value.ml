type t =
  | Bot
  | Unit
  | Int of int
  | Big of Bignum.t
  | Pair of t * t
  | Vec of t array
  | Tag of int * int * t

let rec compare a b =
  match a, b with
  | Bot, Bot -> 0
  | Bot, _ -> -1
  | _, Bot -> 1
  | Unit, Unit -> 0
  | Unit, _ -> -1
  | _, Unit -> 1
  | Int x, Int y -> Stdlib.compare x y
  (* Mixed representations of the same number must compare equal; the
     [compare_int] fast path avoids allocating a bignum per comparison. *)
  | Int x, Big y -> -Bignum.compare_int y x
  | Big x, Int y -> Bignum.compare_int x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Big x, Big y -> Bignum.compare x y
  | Big _, _ -> -1
  | _, Big _ -> 1
  | Pair (x1, x2), Pair (y1, y2) ->
    let c = compare x1 y1 in
    if c <> 0 then c else compare x2 y2
  | Pair _, _ -> -1
  | _, Pair _ -> 1
  | Vec x, Vec y ->
    let lx = Array.length x and ly = Array.length y in
    if lx <> ly then Stdlib.compare lx ly
    else begin
      let rec go i =
        if i >= lx then 0
        else begin
          let c = compare x.(i) y.(i) in
          if c <> 0 then c else go (i + 1)
        end
      in
      go 0
    end
  | Vec _, _ -> -1
  | _, Vec _ -> 1
  | Tag (p1, s1, v1), Tag (p2, s2, v2) ->
    let c = Stdlib.compare (p1, s1) (p2, s2) in
    if c <> 0 then c else compare v1 v2

let equal a b = compare a b = 0

(* A multiplicative mix (64-bit FNV prime) with an avalanche shift:
   [h * 31 + x] loses high bits under composition, which matters now that
   hashes key the model checker's transposition table. *)
let mix acc h =
  let x = (acc * 0x100000001b3) lxor h in
  x lxor (x lsr 29)

let rec hash = function
  | Bot -> 3
  | Unit -> 5
  (* Int and Big compare equal on equal numbers, so they must hash alike;
     hash_of_int is the no-allocation fast path of the shared digit fold. *)
  | Int i -> Bignum.hash_of_int i
  | Big b -> Bignum.hash b
  | Pair (a, b) -> mix (mix 11 (hash a)) (hash b)
  | Vec v -> Array.fold_left (fun acc x -> mix acc (hash x)) 7 v
  | Tag (p, s, v) -> mix (mix (mix 13 p) s) (hash v)

let rec pp ppf = function
  | Bot -> Format.pp_print_string ppf "⊥"
  | Unit -> Format.pp_print_string ppf "()"
  | Int i -> Format.pp_print_int ppf i
  | Big b -> Bignum.pp ppf b
  | Pair (a, b) -> Format.fprintf ppf "(%a,@ %a)" pp a pp b
  | Vec v ->
    Format.fprintf ppf "[|%a|]"
      (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") pp)
      (Array.to_seq v)
  | Tag (p, s, v) -> Format.fprintf ppf "%a@@%d.%d" pp v p s

(* Guards reject sampled values by the ten thousand during CFG builds, so
   the scalars skip [Format]: with no break hint to place, [pp] prints them
   as these literals, and the message is the one [Format] would build. *)
let reject prefix = function
  | Int i -> invalid_arg (prefix ^ " " ^ string_of_int i)
  | Bot -> invalid_arg (prefix ^ " ⊥")
  | Unit -> invalid_arg (prefix ^ " ()")
  | v -> Format.kasprintf invalid_arg "%s %a" prefix pp v

let to_int_exn = function
  | Int i -> i
  | v -> reject "Value.to_int_exn:" v

let to_big_exn = function
  | Big b -> b
  | Int i -> Bignum.of_int i
  | v -> reject "Value.to_big_exn:" v

let untag = function
  | Tag (_, _, v) -> v
  | v -> v

let rec observe_int = function
  | Int i -> Some i
  | Big b -> Bignum.to_int b
  | Tag (_, _, v) -> observe_int v
  | Bot | Unit | Pair _ | Vec _ -> None
