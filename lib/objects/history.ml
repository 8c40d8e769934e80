open Model
open Proc.Syntax

let tag ~pid ~seq payload = Value.Tag (pid, seq, payload)

let entry_exn = function
  | Value.Pair (Value.Vec h, x) -> (h, x)
  | v -> Value.reject "History: malformed buffer entry" v

(* Reconstruct the full history from one ℓ-buffer-read result (the proof of
   Lemma 6.1).  [slots] is oldest-to-newest with ⊥ padding in front. *)
let reconstruct slots =
  let entries =
    Array.to_list slots
    |> List.filter_map (function Value.Bot -> None | v -> Some (entry_exn v))
  in
  match entries with
  | [] -> []
  | (_, x1) :: _ ->
    let tail = List.map snd entries in
    if List.length entries < Array.length slots then
      (* Fewer than ℓ writes ever: the buffer holds the whole history. *)
      tail
    else begin
      (* Buffer full: splice the longest recorded history with the last ℓ
         elements.  If it contains x1 we cut it just before x1; otherwise
         (ℓ concurrent appends, Figure 1) it already ends where x1 starts. *)
      let longest =
        List.fold_left
          (fun best (h, _) -> if Array.length h > Array.length best then h else best)
          [||] entries
      in
      let prefix =
        match Array.to_list longest with
        | l when List.exists (Value.equal x1) l ->
          let rec before = function
            | [] -> []
            | y :: _ when Value.equal y x1 -> []
            | y :: rest -> y :: before rest
          in
          before l
        | l -> l
      in
      prefix @ tail
    end

let get ~loc =
  let+ slots = Isets.Buffer_set.(Proc.access loc Buf_read) in
  match slots with
  | Value.Vec v -> reconstruct v
  | v -> Value.reject "History.get: buffer read returned" v

let append ~loc ~elt =
  let* h = get ~loc in
  Proc.map ignore
    (Proc.access loc (Isets.Buffer_set.Buf_write (Value.Pair (Value.Vec (Array.of_list h), elt))))
