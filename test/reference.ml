(* Reference implementations the tests compare the model checker against:
   a hard-coded consensus checker (agreement and validity over the
   decisions each configuration holds, plus solo probes) and the unmemoized
   bivalence walk.  Both are plain naive walks of every schedule on the
   persistent machine, kept deliberately simple and independent of
   [Observer], [Transposition] and [Machine.Scratch]. *)

type violation = {
  kind : string;
  message : string;
  schedule : int list;
  probe : int option;
}

exception Found of violation

(* Agreement, then validity, over a decision set sorted by pid: the lowest
   pid's decision is the reference value. *)
let check_decisions ~inputs decisions =
  match decisions with
  | [] -> None
  | (_, first) :: _ ->
    (match List.find_opt (fun (_, v) -> v <> first) decisions with
     | Some (pid, v) ->
       Some
         ( "agreement",
           Printf.sprintf "agreement: process %d decided %d but %d was also decided" pid v
             first )
     | None ->
       if Array.exists (fun i -> i = first) inputs then None
       else
         Some ("validity", Printf.sprintf "validity: %d decided but never proposed" first))

(* Walk every schedule to [depth] in the order of [Explore]'s naive engine:
   check the decisions the configuration holds, run its solo probes, step
   each running process, then crash–recover each crashable one while the
   budget lasts.  A probe runs [pid] solo (it must decide), then every other
   running process solo once each, and checks the complete decision set.
   Returns the first violation found, with its unshrunk schedule. *)
let check ?(probe = `Leaves) ?(solo_fuel = 100_000) ?(crashes = 0)
    (module P : Consensus.Proto.S) ~inputs ~depth =
  let module M = Model.Machine.Make (P.I) in
  let n = Array.length inputs in
  let fail path probe (kind, message) =
    raise (Found { kind; message; schedule = List.rev path; probe })
  in
  let probe_chain cfg pid =
    match M.run_solo ~fuel:solo_fuel ~pid cfg with
    | _, None ->
      Some
        ( "obstruction-freedom",
          Printf.sprintf
            "obstruction-freedom: process %d did not decide solo within %d steps" pid
            solo_fuel )
    | cfg, Some _ ->
      let cfg =
        List.fold_left
          (fun cfg q -> fst (M.run_solo ~fuel:solo_fuel ~pid:q cfg))
          cfg (M.running cfg)
      in
      (match M.running cfg with
       | q :: _ ->
         Some
           ( "termination",
             Printf.sprintf "termination: process %d still undecided after solo runs" q )
       | [] -> check_decisions ~inputs (M.decisions cfg))
  in
  let rec visit cfg d path =
    Option.iter (fail path None) (check_decisions ~inputs (M.decisions cfg));
    let running = M.running cfg in
    if running <> [] then begin
      if (match probe with `Never -> false | `Leaves -> d <= 0 | `Everywhere -> true) then
        List.iter
          (fun pid -> Option.iter (fail path (Some pid)) (probe_chain cfg pid))
          running;
      if d > 0 then
        List.iter (fun pid -> visit (M.step cfg pid) (d - 1) (pid :: path)) running
    end;
    if d > 0 && M.crashes cfg < crashes then
      List.iter
        (fun pid ->
          visit (M.crash_recover cfg pid) (d - 1) (Explore.crash_code pid :: path))
        (M.crashable cfg)
  in
  let root =
    M.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid))
  in
  match visit root depth [] with () -> None | exception Found v -> Some v

(* Every value some solo continuation decides from some configuration
   reachable within [depth] steps, by the unmemoized walk of every
   schedule: the reference for [Explore.decidable_values]. *)
let decidable_values_naive ?(solo_fuel = 100_000) (module P : Consensus.Proto.S) ~inputs
    ~depth =
  let module M = Model.Machine.Make (P.I) in
  let n = Array.length inputs in
  let seen = Hashtbl.create 7 in
  let exception Stuck of string in
  let rec go cfg d =
    List.iter (fun (_, v) -> Hashtbl.replace seen v ()) (M.decisions cfg);
    match M.running cfg with
    | [] -> ()
    | running ->
      List.iter
        (fun pid ->
          match M.run_solo ~fuel:solo_fuel ~pid cfg with
          | _, Some v -> Hashtbl.replace seen v ()
          | _, None ->
            raise
              (Stuck
                 (Printf.sprintf "process %d did not decide solo within %d steps" pid
                    solo_fuel)))
        running;
      if d > 0 then List.iter (fun pid -> go (M.step cfg pid) (d - 1)) running
  in
  let cfg =
    M.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid))
  in
  match go cfg depth with
  | () -> Ok (List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) seen []))
  | exception Stuck msg -> Error msg
