open Model
open Proc.Syntax

let counts_of_value ~components v =
  match Value.untag v with
  | Value.Bot -> Array.make components 0
  | Value.Vec a -> Array.map Value.to_int_exn a
  | v -> Value.reject "Rw_counter: malformed register" v

let make ~components ~n ~base ~pid : (Isets.Rw.op, Value.t) Counter.t =
  (module struct
    type op = Isets.Rw.op
    type res = Value.t

    type state = { own : int array; seq : int }

    let components = components
    let init = { own = Array.make components 0; seq = 0 }

    let increment st v =
      let own = Array.copy st.own in
      own.(v) <- own.(v) + 1;
      let value = Value.Tag (pid, st.seq, Value.Vec (Array.map (fun c -> Value.Int c) own)) in
      let* () = Isets.Rw.write (base + pid) value in
      Proc.return { own; seq = st.seq + 1 }

    let decrement = None

    let collect =
      let rec go i acc =
        if i >= n then Proc.return (Array.of_list (List.rev acc))
        else
          let* v = Isets.Rw.read (base + i) in
          go (i + 1) (v :: acc)
      in
      go 0 []

    let scan st =
      let* values =
        Snapshot.double_collect ~equal:(fun a b -> Array.for_all2 Value.equal a b) collect
      in
      let totals = Array.make components 0 in
      Array.iter
        (fun v ->
          Array.iteri
            (fun i c -> if i < components then totals.(i) <- totals.(i) + c)
            (counts_of_value ~components v))
        values;
      Proc.return (st, Array.map Bignum.of_int totals)
  end)
