open Model
open Proc.Syntax

(* Registers are 1-buffers with multiple assignment enabled: a register
   machine whose processes may atomically write several locations. *)
module R = Isets.Buffer_set.Make (struct
  let capacity = 1
  let multi_assignment = true
end)

let read loc =
  let+ slots = R.read loc in
  slots.(0)

let writer_of = function
  | Value.Tag (pid, _, _) -> pid
  | v -> Value.reject "assignment protocol: untagged value" v

let value_of v = Value.to_int_exn (Value.untag v)

let two_process : Proto.t =
  (module struct
    module I = R

    let name = "2-register-assignment"
    let locations ~n:_ = Some 3

    (* Locations 0 and 1 are the processes' own registers; 2 is shared.
       The later of the two atomic assignments leaves its tag in the
       shared register. *)
    let proc ~n ~pid ~input =
      if n <> 2 then invalid_arg "two_process: exactly two processes";
      if pid < 0 || pid > 1 then invalid_arg "two_process: pid";
      let mine = Value.Tag (pid, 0, Value.Int input) in
      let* () = R.write_many [ (pid, mine); (2, mine) ] in
      let* other = read (1 - pid) in
      match other with
      | Value.Bot -> Proc.return input  (* the other has not moved: I am first *)
      | other ->
        let* shared = read 2 in
        if writer_of shared = pid then
          (* my assignment came last, so the other was first *)
          Proc.return (value_of other)
        else Proc.return input
  end)

let earliest_writer : Proto.t =
  (module struct
    module I = R

    let name = "earliest-writer-assignment"

    let locations ~n = Some (n + (n * (n - 1) / 2))

    (* Layout: location p (p < n) is process p's own register; the register
       shared by i < j sits at n + index(i, j) in the triangular packing. *)
    let pair_loc ~n i j =
      let i, j = if i < j then (i, j) else (j, i) in
      n + (i * (2 * n - i - 1) / 2) + (j - i - 1)

    let proc ~n ~pid ~input =
      let mine = Value.Tag (pid, 0, Value.Int input) in
      let assignments =
        (pid, mine)
        :: List.filter_map
             (fun q -> if q = pid then None else Some (pair_loc ~n pid q, mine))
             (List.init n (fun q -> q))
      in
      let* () =
        Proc.map ignore
          (Proc.multi_access
             (List.map (fun (l, v) -> (l, Isets.Buffer_set.Buf_write v)) assignments))
      in
      (* Stable snapshot of every register, then decide the earliest
         writer: the writer w such that every pairwise register it shares
         with another writer says the other wrote later. *)
      let total = n + (n * (n - 1) / 2) in
      let collect =
        let rec go l acc =
          if l >= total then Proc.return (Array.of_list (List.rev acc))
          else
            let* v = read l in
            go (l + 1) (v :: acc)
        in
        go 0 []
      in
      let* snap =
        Objects.Snapshot.double_collect
          ~equal:(fun a b -> Array.for_all2 Value.equal a b)
          collect
      in
      let writers =
        List.filter (fun p -> not (Value.equal snap.(p) Value.Bot)) (List.init n (fun p -> p))
      in
      let earliest w =
        List.for_all
          (fun q ->
            q = w
            || Value.equal snap.(q) Value.Bot
            || writer_of snap.(pair_loc ~n w q) = q)
          (List.init n (fun q -> q))
      in
      match List.find_opt earliest writers with
      | Some w -> Proc.return (value_of snap.(w))
      | None -> invalid_arg "earliest_writer: no earliest writer in a stable snapshot"
  end)
