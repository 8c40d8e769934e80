(* Reference implementations the tests compare the model checker against:
   a hard-coded consensus checker (agreement and validity over the
   decisions each configuration holds, plus solo probes), the unmemoized
   bivalence walk, the claim-list transposition table, and the symmetry
   certifier orders [Analysis.Symmetry] no longer runs.  The two walks
   are plain naive walks of every schedule on the persistent machine, kept
   deliberately simple and independent of [Observer], [Transposition] and
   [Machine.Scratch]. *)

(* The transposition table as one [Hashtbl] of claim lists, the layout
   [Transposition] had before its flat open-addressed shards: the same
   Hit / Visit / Partial rules, newest-first claims capped at [max_claims]
   — the differential reference for the flat table.  Sharding splits keys,
   not semantics, so the reference needs none. *)
module Claim_table = struct
  type plan = Transposition.plan = Hit | Visit | Partial of int

  (* (lane_a, lane_b) -> claims [(depth, sleep); ...], newest first; no
     claim dominates another *)
  type t = (int * int, (int * int) list) Hashtbl.t

  let max_claims = 4
  let create () : t = Hashtbl.create 1024

  (* [covers (d1, s1) (d2, s2)]: a pass at depth [d1] from sleep set [s1]
     explores a superset of what a pass at depth [d2] from sleep set [s2]
     would. *)
  let covers (d1, s1) (d2, s2) = d1 >= d2 && s1 land lnot s2 = 0

  let plan t a b ~depth ~sleep =
    let key = (a, b) in
    let claims = Option.value (Hashtbl.find_opt t key) ~default:[] in
    if List.exists (fun c -> covers c (depth, sleep)) claims then Hit
    else begin
      (* prior passes deep enough to cover this revisit's subtrees *)
      let applicable = List.filter (fun (d', _) -> d' >= depth) claims in
      let claim, result =
        match applicable with
        | [] -> ((depth, sleep), Visit)
        | _ ->
          (* a transition needs (re-)exploration only if every adequate
             prior pass had it asleep *)
          let inter = List.fold_left (fun m (_, s') -> m land s') (-1) applicable in
          ((depth, sleep land inter), Partial inter)
      in
      let kept = List.filter (fun c -> not (covers claim c)) claims in
      let kept =
        (* cap the list; dropping the oldest surviving claim is sound *)
        if List.length kept >= max_claims then
          List.filteri (fun i _ -> i < max_claims - 1) kept
        else kept
      in
      Hashtbl.replace t key (claim :: kept);
      result
    end

  let stats = Hashtbl.length
end

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

(* Lockstep unfolding alone, over every pid pair at every sampled input: the
   reference the CFG route is checked against. *)
let certify_lockstep ?(depth = Analysis.Symmetry.default_depth)
    ?(budget = Analysis.Symmetry.default_budget) ?(inputs = [ 0; 1 ])
    (module P : Consensus.Proto.S) ~n =
  Analysis.Symmetry.(certify_pairs (module P) ~n ~depth ~budget (all_pair_inputs ~n inputs))

(* The certifier order [Symmetry] ran before it tried lockstep first: the
   CFG route, then lockstep under the full budget when the CFG cannot
   conclude.  The differential reference for [Symmetry.certify_staged]. *)
let certify_cfg_first ~depth (module P : Consensus.Proto.S) ~n pair_inputs =
  let open Analysis.Symmetry in
  match certify_cfg_pairs (module P) ~n ~depth pair_inputs with
  | (Certified_symmetric _ | Asymmetric _) as v -> v
  | Unknown _ -> certify_pairs (module P) ~n ~depth ~budget:default_budget pair_inputs
