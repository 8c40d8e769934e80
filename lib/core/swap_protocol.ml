open Model
open Proc.Syntax

let laps_value laps = Value.Vec (Array.map (fun l -> Value.Int l) laps)

let laps_of_value ~n v =
  match Value.untag v with
  | Value.Bot -> Array.make n 0
  | Value.Vec a -> Array.map Value.to_int_exn a
  | v -> Value.reject "Swap_protocol: malformed location" v

(* Locations X_1 … X_{n−1} are indices 0 … n−2.  The scan compares raw
   (tagged) values, so two collects are equal only if no swap intervened. *)
let scan ~n =
  let collect =
    let rec go j acc =
      if j >= n - 1 then Proc.return (Array.of_list (List.rev acc))
      else
        let* v = Isets.Swap.read j in
        go (j + 1) (v :: acc)
    in
    go 0 []
  in
  Objects.Snapshot.double_collect ~equal:(fun a b -> Array.for_all2 Value.equal a b) collect

type state = {
  laps : int array;          (* ℓ_v: this process's view of v's lap *)
  last_swap : int array;     (* laps carried by the last swap's result *)
  seq : int;
}

let protocol : Proto.t =
  (module struct
    module I = Isets.Swap

    let name = "swap-read"
    let locations ~n = Some (Stdlib.max 1 (n - 1))

    let proc ~n ~pid ~input =
      let init_laps = Array.init n (fun v -> if v = input then 1 else 0) in
      let st = { laps = init_laps; last_swap = Array.make n 0; seq = 0 } in
      Proc.rec_loop st (fun st ->
        let* a = scan ~n in
        let views = Array.map (laps_of_value ~n) a in
        let laps =
          Array.init n (fun v ->
              Array.fold_left
                (fun acc view -> Stdlib.max acc view.(v))
                (Stdlib.max st.laps.(v) st.last_swap.(v))
                views)
        in
        let lstar = Array.fold_left Stdlib.max 0 laps in
        let vstar =
          let rec find v = if laps.(v) = lstar then v else find (v + 1) in
          find 0
        in
        let all_match laps = Array.for_all (fun view -> view = laps) views in
        if all_match laps then begin
          let two_ahead =
            let ok = ref true in
            Array.iteri (fun v l -> if v <> vstar && lstar < l + 2 then ok := false) laps;
            !ok
          in
          if two_ahead then Proc.return (Either.Right vstar)
          else begin
            (* v* completes lap ℓ*: move it to the next lap and publish. *)
            let laps = Array.copy laps in
            laps.(vstar) <- laps.(vstar) + 1;
            let* s = Isets.Swap.swap 0 (Value.Tag (pid, st.seq, laps_value laps)) in
            Proc.return
              (Either.Left { laps; last_swap = laps_of_value ~n s; seq = st.seq + 1 })
          end
        end
        else begin
          let j =
            let rec find j = if views.(j) <> laps then j else find (j + 1) in
            find 0
          in
          let* s = Isets.Swap.swap j (Value.Tag (pid, st.seq, laps_value laps)) in
          Proc.return (Either.Left { laps; last_swap = laps_of_value ~n s; seq = st.seq + 1 })
        end)
  end)
