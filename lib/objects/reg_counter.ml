open Model
open Proc.Syntax

type ('op, 'res) regs = {
  write : pid:int -> seq:int -> Value.t -> ('op, 'res, unit) Proc.t;
  collect : ('op, 'res, Value.t array * int) Proc.t;
}

let counts_value counts = Value.Vec (Array.map (fun c -> Value.Int c) counts)

let counts_of_value = function
  | Value.Bot -> None
  | Value.Vec v -> Some (Array.map Value.to_int_exn v)
  | v -> Value.reject "Reg_counter: malformed register" v

let make (type op res) ~components ~(regs : (op, res) regs) ~pid : (op, res) Counter.t =
  (module struct
    type nonrec op = op
    type nonrec res = res

    type state = { own : int array; seq : int }

    let components = components
    let init = { own = Array.make components 0; seq = 0 }

    let increment st v =
      let own = Array.copy st.own in
      own.(v) <- own.(v) + 1;
      let* () = regs.write ~pid ~seq:st.seq (counts_value own) in
      Proc.return { own; seq = st.seq + 1 }

    let decrement = None

    let scan st =
      let* values, _version =
        Snapshot.double_collect
          ~equal:(fun (a, va) (b, vb) -> va = vb && Array.for_all2 Value.equal a b)
          regs.collect
      in
      let totals = Array.make components 0 in
      Array.iter
        (fun v ->
          match counts_of_value v with
          | None -> ()
          | Some counts ->
            Array.iteri (fun i c -> if i < components then totals.(i) <- totals.(i) + c) counts)
        values;
      Proc.return (st, Array.map Bignum.of_int totals)
  end)
