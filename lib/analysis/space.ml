(* Space-claim lint: check each protocol's declared [locations ~n] (its
   contribution to Table 1's upper bounds) against the locations it actually
   touches.

   Three evidence sources, in decreasing order of conviction:

   - {b Concrete runs} ([Driver.run] under a portfolio of schedules, plus the
     solo runs of [Driver.run_solo_each]): every location touched is touched
     on a real execution, so an overrun is an [Error].
   - {b Bounded exhaustive exploration}: a depth-limited BFS over all
     interleavings ({!Model.Machine.Make} directly, deduplicated on
     fingerprint × footprint so the dedup never hides a larger footprint).
     Also concretely reachable, so an overrun is an [Error].
   - {b Symbolic unfolding} of the process code, collecting every location
     named in any [Step] when continuations are fed all sampled results.
     Branches may be infeasible (no concrete schedule produces that result
     vector), so an overrun here is only a [Warning].

   When the symbolic unfolding terminates {e completely} within budget yet
   names fewer locations than declared, the declared bound is loose and an
   [Info] diagnostic says so. *)

let default_unfold_depth = 6
let default_explore_depth = 6
let default_fuel = 20_000
let node_budget = 60_000
let width_cap = 256

(* All 0/1 input vectors of length n: every protocol in the registry accepts
   binary inputs, and Table 1 is stated for (binary) consensus. *)
let binary_inputs n =
  let rec go k =
    if k = 0 then [ [] ] else List.concat_map (fun v -> [ 0 :: v; 1 :: v ]) (go (k - 1))
  in
  List.map Array.of_list (go n)

let finding sev ~rule ~subject fmt = Report.finding sev ~rule ~subject fmt

let concrete_check out (module P : Consensus.Proto.S) ~n ~declared ~fuel =
  let scheds =
    [ ("sequential", Model.Sched.sequential); ("round-robin", Model.Sched.round_robin) ]
    @ List.map
        (fun seed -> (Printf.sprintf "random(seed=%d)" seed, Model.Sched.random ~seed))
        [ 1; 2; 3 ]
    @ List.map
        (fun seed ->
          ( Printf.sprintf "random-then-sequential(seed=%d)" seed,
            Model.Sched.random_then_sequential ~seed ~prefix:(4 * n) ))
        [ 11; 12 ]
  in
  List.iter
    (fun inputs ->
      let describe_inputs =
        String.concat "," (List.map string_of_int (Array.to_list inputs))
      in
      let check_report sname (r : Consensus.Driver.report) =
        if r.locations_used > declared then
          out
            (finding Error ~rule:"space-claim-violated" ~subject:P.name
               "run (%s, inputs %s) touched %d locations but locations ~n:%d declares %d"
               sname describe_inputs r.locations_used n declared)
      in
      List.iter
        (fun (sname, sched) ->
          match Consensus.Driver.run ~fuel (module P) ~inputs ~sched with
          | r -> check_report sname r
          | exception e ->
            out
              (finding Warning ~rule:"space-run-raised" ~subject:P.name
                 "run (%s, inputs %s) raised %s" sname describe_inputs
                 (Printexc.to_string e)))
        scheds;
      match Consensus.Driver.run_solo_each ~fuel (module P) ~inputs with
      | reports ->
        List.iteri
          (fun pid r -> check_report (Printf.sprintf "solo pid %d" pid) r)
          reports
      | exception e ->
        out
          (finding Warning ~rule:"space-run-raised" ~subject:P.name
             "solo runs (inputs %s) raised %s" describe_inputs (Printexc.to_string e)))
    (binary_inputs n)

let explore_check out (module P : Consensus.Proto.S) ~n ~declared ~depth =
  let module M = Model.Machine.Make (P.I) in
  List.iter
    (fun inputs ->
      let worst = ref 0 in
      let seen = Hashtbl.create 1024 in
      let rec go d cfg =
        let used = M.locations_used cfg in
        if used > !worst then worst := used;
        if d > 0 then
          List.iter
            (fun pid ->
              let cfg' = M.step cfg pid in
              (* key on fingerprint × footprint: two configurations can share
                 a fingerprint (a cell rewritten to init fingerprints as
                 untouched) while differing in how many locations they have
                 touched, and this walk exists to maximize the footprint *)
              let key = (M.fingerprint cfg', M.locations_used cfg') in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                go (d - 1) cfg'
              end)
            (M.running cfg)
      in
      (match
         M.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid))
       with
       | cfg0 -> (try go depth cfg0 with
         | e ->
           out
             (finding Warning ~rule:"space-run-raised" ~subject:P.name
                "bounded exploration raised %s" (Printexc.to_string e)))
       | exception e ->
         out
           (finding Warning ~rule:"space-run-raised" ~subject:P.name
              "machine construction raised %s" (Printexc.to_string e)));
      if !worst > declared then
        out
          (finding Error ~rule:"space-claim-violated" ~subject:P.name
             "exhaustive exploration to depth %d (inputs %s) touched %d locations but \
              locations ~n:%d declares %d"
             depth
             (String.concat "," (List.map string_of_int (Array.to_list inputs)))
             !worst n declared))
    (binary_inputs n)

(* Symbolically unfold one process, feeding continuations every sampled
   result, and collect the set of locations named.  Returns the set and
   [None] when the unfolding was complete, or [Some reason] for the first
   budget cap that cut a branch off.  A continuation that raises is a
   guarded infeasible branch with nothing beyond it to collect: it leaves
   the unfolding complete. *)
let symbolic_footprint (module P : Consensus.Proto.S) ~n ~depth =
  let module I = P.I in
  let module Pr = Cfg.Print (I) in
  let locs = Hashtbl.create 16 in
  (* [None] while complete; the first budget cap to fire records why the
     unfolding is partial — a clean report must not mean "gave up quietly" *)
  let truncated = ref None in
  let trunc fmt = Printf.ksprintf (fun r -> if !truncated = None then truncated := Some r) fmt in
  let nodes = ref 0 in
  let rec go d (t : (I.op, I.result, int) Model.Proc.t) =
    incr nodes;
    if !nodes > node_budget then trunc "node budget exhausted at %d nodes" node_budget
    else
      match t with
      | Model.Proc.Done _ -> ()
      | Step ([], _) -> ()
      | Step (accesses, k) ->
        List.iter (fun (loc, _) -> Hashtbl.replace locs loc ()) accesses;
        if d = 0 then trunc "unfold depth cap reached"
        else begin
          let vectors =
            List.fold_left
              (fun acc l ->
                match acc with
                | None -> None
                | Some acc ->
                  let acc' =
                    List.concat_map (fun pre -> List.map (fun x -> pre @ [ x ]) l) acc
                  in
                  if List.length acc' > width_cap then None else Some acc')
              (Some [ [] ])
              (List.map (fun (_, op) -> Pr.sampled op) accesses)
          in
          match vectors with
          | None -> trunc "result branching exceeds width cap %d" width_cap
          | Some vectors ->
            (* an op none of the sampled cells accepts leaves no vectors *)
            if vectors = [] then trunc "an op admits no sampled result";
            List.iter
              (fun rs ->
                match k rs with
                | t' -> go (d - 1) t'
                | exception _ ->
                  (* guarded infeasible branch: nothing beyond it to collect *)
                  ())
              vectors
        end
  in
  List.iter
    (fun input ->
      for pid = 0 to n - 1 do
        match P.proc ~n ~pid ~input with
        | t -> go depth t
        | exception e -> trunc "proc construction raised %s" (Printexc.to_string e)
      done)
    [ 0; 1 ];
  ( Hashtbl.fold (fun loc () acc -> loc :: acc) locs [] |> List.sort compare,
    !truncated )

let symbolic_check out (module P : Consensus.Proto.S) ~n ~declared ~depth =
  let footprint, truncated = symbolic_footprint (module P) ~n ~depth in
  let used = List.length footprint in
  if used > declared then
    out
      (finding Warning ~rule:"space-claim-symbolic" ~subject:P.name
         "symbolic unfolding to depth %d names %d locations but locations ~n:%d declares \
          %d (some branches may be infeasible)"
         depth used n declared)
  else if truncated = None && used < declared then
    out
      (finding Info ~rule:"space-claim-loose" ~subject:P.name
         "complete symbolic unfolding names only %d locations but locations ~n:%d \
          declares %d"
         used n declared);
  match truncated with
  | Some reason ->
    out
      (finding Info ~rule:"analysis-truncated" ~subject:P.name
         "symbolic unfolding at n=%d is partial (%s): its evidence covers only the \
          explored prefix"
         n reason)
  | None -> ()

(* [cfg] layers the {!Absint} passes on top of the three evidence tiers:
   the certified whole-program footprint bound, dead-branch detection and
   the decision-reachability hint.  Off by default — the CFG build is a
   heavier analysis than the classic tiers and has its own CLI surface
   ([lint --cfg], [analyze]). *)
let lint ?(unfold_depth = default_unfold_depth) ?(explore_depth = default_explore_depth)
    ?(fuel = default_fuel) ?(cfg = false) (module P : Consensus.Proto.S) ~n =
  let acc = ref [] in
  let out f = acc := f :: !acc in
  (match P.locations ~n with
   | None ->
     out
       (finding Info ~rule:"space-unbounded" ~subject:P.name
          "locations ~n:%d is declared unbounded; space claims not checked" n)
   | Some declared ->
     if declared < 0 then
       out
         (finding Error ~rule:"space-claim-negative" ~subject:P.name
            "locations ~n:%d declares %d" n declared)
     else begin
       concrete_check out (module P) ~n ~declared ~fuel;
       explore_check out (module P) ~n ~declared ~depth:explore_depth;
       symbolic_check out (module P) ~n ~declared ~depth:unfold_depth;
       if cfg then
         match Absint.analyze (module P : Consensus.Proto.S) ~n with
         | a -> List.iter out (Absint.lint_findings ~declared a)
         | exception e ->
           out
             (finding Warning ~rule:"space-run-raised" ~subject:P.name
                "cfg analysis raised %s" (Printexc.to_string e))
     end);
  List.rev !acc
