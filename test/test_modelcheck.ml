(* Tests for the bounded model checker: exhaustive verification of the
   cheap protocols, bivalence detection (Lemma 6.4), and the checker's
   ability to catch deliberately broken protocols. *)

(* [Explore.decidable_values] with its verdict flattened to a result, the
   shape of [Reference.decidable_values_naive]'s *)
let decidable_values ?solo_fuel ?reduce proto ~inputs ~depth =
  match Explore.decidable_values ?solo_fuel ?reduce proto ~inputs ~depth with
  | Explore.Completed vs -> Ok vs
  | Explore.Falsified f -> Error (Explore.failure_message f)
  | Explore.Timed_out _ -> Error "timed out"

let ok_stats = function
  | Explore.Completed (s : Explore.stats) -> s
  | Explore.Falsified f ->
    Alcotest.fail ("unexpected violation: " ^ Explore.failure_message f)
  | Explore.Timed_out _ -> Alcotest.fail "unexpected timeout (no deadline given)"

(* 1. Exhaustive verification of one-shot protocols (complete tree). *)
let test_exhaustive_one_shot () =
  let s =
    ok_stats
      (Explore.run ~probe:`Everywhere Consensus.Cas_protocol.protocol
         ~inputs:[| 0; 1 |] ~depth:6)
  in
  Alcotest.(check bool) "cas n=2 complete" false s.truncated;
  let s =
    ok_stats
      (Explore.run ~probe:`Everywhere Consensus.Cas_protocol.protocol
         ~inputs:[| 0; 1; 2 |] ~depth:8)
  in
  Alcotest.(check bool) "cas n=3 complete" false s.truncated;
  let s =
    ok_stats
      (Explore.run ~probe:`Everywhere Consensus.Intro_protocols.faa2_tas
         ~inputs:[| 0; 1 |] ~depth:6)
  in
  Alcotest.(check bool) "faa2+tas n=2 complete" false s.truncated;
  let s =
    ok_stats
      (Explore.run ~probe:`Everywhere Consensus.Intro_protocols.faa2_tas
         ~inputs:[| 1; 0; 1; 0 |] ~depth:10)
  in
  Alcotest.(check bool) "faa2+tas n=4 complete" false s.truncated;
  let s =
    ok_stats
      (Explore.run ~probe:`Everywhere Consensus.Intro_protocols.decmul
         ~inputs:[| 0; 1; 1 |] ~depth:12)
  in
  Alcotest.(check bool) "dec+mul n=3 complete" false s.truncated;
  (* the 2-process multiple-assignment protocol, for all four input pairs *)
  List.iter
    (fun inputs ->
      let s =
        ok_stats
          (Explore.run ~probe:`Everywhere Consensus.Assignment_protocol.two_process
             ~inputs ~depth:8)
      in
      Alcotest.(check bool) "2-assignment complete" false s.truncated)
    [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ]

(* 2. Deep bounded exploration of the loop-based protocols. *)
let test_bounded_loop_protocols () =
  let protos =
    [
      ("maxreg", Consensus.Maxreg_protocol.protocol, 14);
      ("arith-mul", Consensus.Arith_protocols.mul, 14);
      ("arith-add", Consensus.Arith_protocols.add, 14);
      ("swap", Consensus.Swap_protocol.protocol, 14);
      ("rw", Consensus.Rw_protocol.protocol, 12);
      ("buffers-2", Consensus.Buffers_protocol.protocol ~capacity:2, 12);
      ( "increment-binary",
        Consensus.Increment_protocol.binary ~flavour:Isets.Incr.Increment_only,
        13 );
      ("tug-of-war-binary", Consensus.Tugofwar_protocol.binary, 14);
      ( "tracks-tas",
        Consensus.Tracks_protocol.protocol ~flavour:Isets.Bits.Tas_only,
        12 );
    ]
  in
  List.iter
    (fun (name, proto, depth) ->
      let s = ok_stats (Explore.run ~probe:`Leaves proto ~inputs:[| 0; 1 |] ~depth) in
      Alcotest.(check bool) (name ^ ": explored some tree") true (s.configs > 100))
    protos

(* 3. Three processes, shallower. *)
let test_three_process_exploration () =
  List.iter
    (fun (name, proto) ->
      let s =
        ok_stats (Explore.run ~probe:`Leaves proto ~inputs:[| 2; 0; 1 |] ~depth:8)
      in
      Alcotest.(check bool) (name ^ " 3 procs") true (s.configs > 0))
    [
      ("maxreg", Consensus.Maxreg_protocol.protocol);
      ("swap", Consensus.Swap_protocol.protocol);
      ("arith-mul", Consensus.Arith_protocols.mul);
      ("buffers-3", Consensus.Buffers_protocol.protocol ~capacity:3);
    ]

(* 4. Lemma 6.4: from the initial configuration with mixed inputs, both
   values are decidable — bivalence. *)
let test_initial_bivalence () =
  List.iter
    (fun (name, proto) ->
      match decidable_values proto ~inputs:[| 0; 1 |] ~depth:4 with
      | Ok vs ->
        Alcotest.(check (list int)) (name ^ ": initially bivalent") [ 0; 1 ] vs
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    [
      ("maxreg", Consensus.Maxreg_protocol.protocol);
      ("swap", Consensus.Swap_protocol.protocol);
      ("cas", Consensus.Cas_protocol.protocol);
      ("arith-add", Consensus.Arith_protocols.add);
      ("increment-binary", Consensus.Increment_protocol.binary ~flavour:Isets.Incr.Increment_only);
    ]

(* 5. With unanimous inputs only that value is decidable (validity). *)
let test_unanimous_univalence () =
  List.iter
    (fun v ->
      match
        decidable_values Consensus.Maxreg_protocol.protocol
          ~inputs:[| v; v |] ~depth:5
      with
      | Ok vs -> Alcotest.(check (list int)) "only the unanimous value" [ v ] vs
      | Error e -> Alcotest.fail e)
    [ 0; 1 ]

(* 6. Broken protocols are caught. *)
let broken_disagree : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "broken-disagree"
    let locations ~n:_ = Some 0
    let proc ~n:_ ~pid ~input:_ = Model.Proc.return pid
  end)

let broken_invalid : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "broken-invalid"
    let locations ~n:_ = Some 0
    let proc ~n:_ ~pid:_ ~input:_ = Model.Proc.return 7
  end)

let broken_nonterminating : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "broken-spin"
    let locations ~n:_ = Some 1

    (* Waits forever for another process's write: not obstruction-free. *)
    let proc ~n:_ ~pid ~input =
      let open Model.Proc.Syntax in
      if pid = 0 then
        Model.Proc.rec_loop () (fun () ->
            let* v = Isets.Rw.read 0 in
            match v with
            | Model.Value.Int w -> Model.Proc.return (Either.Right w)
            | _ -> Model.Proc.return (Either.Left ()))
      else
        let* () = Isets.Rw.write 0 (Model.Value.Int input) in
        Model.Proc.return input
  end)

let expect_violation name outcome =
  match outcome with
  | Explore.Falsified _ -> ()
  | Explore.Completed (_ : Explore.stats) | Explore.Timed_out _ ->
    Alcotest.fail (name ^ ": violation not detected")

let test_catches_broken () =
  expect_violation "disagree"
    (Explore.run broken_disagree ~inputs:[| 0; 1 |] ~depth:3);
  expect_violation "invalid"
    (Explore.run broken_invalid ~inputs:[| 0; 1 |] ~depth:3);
  expect_violation "non-terminating (obstruction-freedom probe)"
    (Explore.run ~probe:`Everywhere ~solo_fuel:1_000 broken_nonterminating
       ~inputs:[| 0; 1 |] ~depth:2)

(* 7. An agreement bug only reachable through a specific interleaving: the
   naive single-max-register victim.  The checker must find the schedule. *)
let test_finds_interleaving_bug () =
  let victim : Consensus.Proto.t =
    let (module V) = Lowerbound.Victims.naive_maxreg in
    (module V)
  in
  expect_violation "naive maxreg victim"
    (Explore.run ~probe:`Everywhere victim ~inputs:[| 0; 1 |] ~depth:6)

(* 8. Stats are sane on a complete exploration: cas n=2 has a known tree. *)
let test_stats_shape () =
  let s =
    ok_stats
      (Explore.run ~probe:`Never Consensus.Cas_protocol.protocol
         ~inputs:[| 0; 1 |] ~depth:10)
  in
  (* Each process takes exactly one step: configs = 1 root + 2 + 2 = 5. *)
  Alcotest.(check int) "cas n=2 tree size" 5 s.configs;
  Alcotest.(check int) "no probes when `Never" 0 s.probes;
  Alcotest.(check bool) "complete" false s.truncated

(* 9. Differential: the three engines decide the same verdict.  Stats may
   differ by design (memo visits fewer configurations), so we compare the
   outcome class: Ok, or the violation kind (message prefix up to ':'). *)
let engines = [ ("naive", `Naive); ("memo", `Memo); ("parallel-2", `Parallel 2) ]

let outcome_class = function
  | Explore.Completed (_ : Explore.stats) -> "ok"
  | Explore.Falsified (f : Explore.failure) ->
    "violation:" ^ Explore.kind_name f.Explore.witness.Explore.kind
  | Explore.Timed_out _ -> "timeout"

let check_engines_agree ?solo_fuel name proto inputs depth =
  let verdict engine =
    outcome_class
      (Explore.run ~probe:`Everywhere ?solo_fuel ~engine proto ~inputs ~depth)
  in
  let reference = verdict `Naive in
  List.iter
    (fun (ename, engine) ->
      Alcotest.(check string) (Printf.sprintf "%s: %s vs naive" name ename) reference
        (verdict engine))
    engines;
  reference

let test_engines_agree_correct () =
  List.iter
    (fun (name, proto, inputs, depth) ->
      let verdict = check_engines_agree name proto inputs depth in
      Alcotest.(check string) (name ^ ": verdict is ok") "ok" verdict)
    [
      ("cas n=2", Consensus.Cas_protocol.protocol, [| 0; 1 |], 6);
      ("cas n=3", Consensus.Cas_protocol.protocol, [| 0; 1; 2 |], 8);
      ("rw", Consensus.Rw_protocol.protocol, [| 0; 1 |], 7);
      ("maxreg", Consensus.Maxreg_protocol.protocol, [| 0; 1 |], 7);
      ("swap", Consensus.Swap_protocol.protocol, [| 0; 1 |], 7);
      ("arith-add", Consensus.Arith_protocols.add, [| 0; 1 |], 7);
      ("faa2+tas", Consensus.Intro_protocols.faa2_tas, [| 0; 1 |], 6);
    ]

let test_engines_agree_broken () =
  let maxreg_victim : Consensus.Proto.t =
    let (module V) = Lowerbound.Victims.naive_maxreg in
    (module V)
  in
  let fai_victim : Consensus.Proto.t =
    let (module V) = Lowerbound.Victims.naive_fai in
    (module V)
  in
  List.iter
    (fun (name, proto, inputs, depth, solo_fuel) ->
      let verdict = check_engines_agree ~solo_fuel name proto inputs depth in
      Alcotest.(check bool)
        (name ^ ": all engines report a violation")
        true
        (String.length verdict >= 9 && String.sub verdict 0 9 = "violation"))
    [
      ("disagree", broken_disagree, [| 0; 1 |], 3, 100_000);
      ("invalid", broken_invalid, [| 0; 1 |], 3, 100_000);
      ("spin", broken_nonterminating, [| 0; 1 |], 2, 1_000);
      ("naive-maxreg victim", maxreg_victim, [| 0; 1 |], 6, 100_000);
      ("naive-fai victim", fai_victim, [| 0; 1 |], 8, 100_000);
    ]

(* 10. The transposition table earns its keep: on read/write consensus with
   three processes, commuting steps collapse and memo visits strictly fewer
   configurations than naive while actually hitting the table. *)
let test_memo_dedups () =
  let inputs = [| 0; 1; 2 |] and depth = 8 in
  let run engine =
    match Explore.run ~probe:`Leaves ~engine Consensus.Rw_protocol.protocol ~inputs ~depth with
    | Explore.Completed s -> s
    | Explore.Falsified f ->
      Alcotest.fail ("unexpected violation: " ^ Explore.failure_message f)
    | Explore.Timed_out _ -> Alcotest.fail "unexpected timeout (no deadline given)"
  in
  let naive = run `Naive and memo = run `Memo in
  Alcotest.(check bool) "memo hits the table" true (memo.Explore.dedup_hits > 0);
  Alcotest.(check bool) "memo visits fewer configs" true
    (memo.Explore.configs < naive.Explore.configs);
  Alcotest.(check int) "naive never hits the table" 0 naive.Explore.dedup_hits

(* [P] with [f ~step] called as each step of each process takes effect;
   [step] counts that process's steps from 1 *)
let tapped (module P : Consensus.Proto.S) f : Consensus.Proto.t =
  (module struct
    include P

    let proc ~n ~pid ~input =
      let rec tap step = function
        | Model.Proc.Done _ as d -> d
        | Model.Proc.Step (ops, k) ->
          Model.Proc.Step
            ( ops,
              fun rs ->
                f ~step;
                tap (step + 1) (k rs) )
      in
      tap 1 (P.proc ~n ~pid ~input)
  end)

(* 10b. A protocol that raises mid-walk: under [`Parallel 2] the exception
   reaches the caller, whether it fires in the BFS prefix (a process's
   third step) or in the pool's workers (its sixth: the prefix stops at
   four levels), and a campaign task records it as a crash, as under
   [`Memo]. *)
let test_parallel_reraises () =
  let rw = Option.get (Hierarchy.find "rw") in
  List.iter
    (fun bad ->
      let protocol =
        tapped rw.protocol (fun ~step -> if step = bad then failwith "tapped step")
      in
      Alcotest.check_raises
        (Printf.sprintf "parallel-2 re-raises (step %d)" bad)
        (Failure "tapped step")
        (fun () ->
          ignore (Explore.run ~engine:(`Parallel 2) protocol ~inputs:[| 0; 1 |] ~depth:10));
      List.iter
        (fun (ename, engine) ->
          let task =
            Campaign.Task.check ~engine ~reduce:Explore.no_reduction ~depth:10
              { rw with protocol } ~n:2
          in
          match (Campaign.Task.run task).Campaign.Record.status with
          | Campaign.Record.Crash msg ->
            Alcotest.(check string)
              (Printf.sprintf "%s task crash (step %d)" ename bad)
              (Printexc.to_string (Failure "tapped step"))
              msg
          | s ->
            Alcotest.failf "%s task (step %d): %s" ename bad (Campaign.Record.status_name s))
        [ ("memo", `Memo); ("parallel-2", `Parallel 2) ])
    [ 3; 6 ]

(* 10c. Which domains run an exploration: [`Parallel 1] runs on the caller
   alone, and [`Parallel 2] on the caller and at most one helper.  rw at
   n = 2, depth 10 leaves a non-empty frontier after the BFS prefix. *)
let test_parallel_domains () =
  let seen = Atomic.make [] in
  let rec note () =
    let id = (Domain.self () :> int) and l = Atomic.get seen in
    if (not (List.mem id l)) && not (Atomic.compare_and_set seen l (id :: l)) then note ()
  in
  let protocol = tapped Consensus.Rw_protocol.protocol (fun ~step:_ -> note ()) in
  let ids k =
    Atomic.set seen [];
    ignore (ok_stats (Explore.run ~engine:(`Parallel k) protocol ~inputs:[| 0; 1 |] ~depth:10));
    Atomic.get seen
  in
  let caller = (Domain.self () :> int) in
  Alcotest.(check (list int)) "parallel-1 steps only on the caller" [ caller ] (ids 1);
  let two = ids 2 in
  Alcotest.(check bool) "parallel-2 steps on at most two domains" true (List.length two <= 2);
  Alcotest.(check bool) "parallel-2 steps on the caller" true (List.mem caller two)

(* 11. Witnesses: every engine's reported counterexample replays to the
   same violation kind, and shrinking only ever removes steps. *)
let test_witness_replay_all_engines () =
  let maxreg_victim : Consensus.Proto.t =
    let (module V) = Lowerbound.Victims.naive_maxreg in
    (module V)
  in
  let cases =
    [
      ("disagree", broken_disagree, [| 0; 1 |], 3, 100_000);
      ("invalid", broken_invalid, [| 0; 1 |], 3, 100_000);
      ("spin", broken_nonterminating, [| 0; 1 |], 2, 1_000);
      ("naive-maxreg", maxreg_victim, [| 0; 1 |], 6, 100_000);
    ]
  in
  List.iter
    (fun (name, proto, inputs, depth, solo_fuel) ->
      List.iter
        (fun (ename, engine) ->
          let label what = Printf.sprintf "%s/%s: %s" name ename what in
          match Explore.run ~probe:`Everywhere ~solo_fuel ~engine proto ~inputs ~depth with
          | Explore.Completed _ | Explore.Timed_out _ ->
            Alcotest.fail (label "violation not detected")
          | Explore.Falsified f ->
            let w = f.Explore.witness and o = f.Explore.original in
            Alcotest.(check bool) (label "original replays") true f.Explore.reproduced;
            Alcotest.(check bool)
              (label "shrunk schedule no longer than found")
              true
              (List.length w.Explore.schedule <= List.length o.Explore.schedule);
            Alcotest.(check string)
              (label "shrinking preserves the kind")
              (Explore.kind_name o.Explore.kind)
              (Explore.kind_name w.Explore.kind);
            Alcotest.(check bool) (label "trace regenerated") true (f.Explore.trace <> None);
            (match Explore.replay ~solo_fuel proto ~inputs w with
             | Error e -> Alcotest.fail (label ("replay rejected the witness: " ^ e))
             | Ok r ->
               (match r.Explore.violation with
                | None -> Alcotest.fail (label "shrunk witness replayed clean")
                | Some (k, _) ->
                  Alcotest.(check string)
                    (label "replay raises the same kind")
                    (Explore.kind_name w.Explore.kind)
                    (Explore.kind_name k))))
        engines)
    cases

(* 12. Regression: the probe's finish loop used to retry every still-running
   process forever; with a process that only its peer can release, probing
   any configuration livelocked.  It must now give up after one bounded
   solo run per process and report a termination violation. *)
let broken_peer_spin : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "broken-peer-spin"
    let locations ~n:_ = Some 2

    (* p0 decides immediately (so the obstruction-freedom probes pass);
       everyone else spins on a location nobody ever writes. *)
    let proc ~n:_ ~pid ~input =
      let open Model.Proc.Syntax in
      if pid = 0 then
        let* () = Isets.Rw.write 0 (Model.Value.Int input) in
        Model.Proc.return input
      else
        Model.Proc.rec_loop () (fun () ->
            let* v = Isets.Rw.read 1 in
            match v with
            | Model.Value.Int w -> Model.Proc.return (Either.Right w)
            | _ -> Model.Proc.return (Either.Left ()))
  end)

let test_probe_finish_bounded () =
  List.iter
    (fun (ename, engine) ->
      match
        Explore.run ~probe:`Everywhere ~solo_fuel:500 ~engine broken_peer_spin
          ~inputs:[| 0; 1 |] ~depth:2
      with
      | Explore.Completed _ | Explore.Timed_out _ ->
        Alcotest.fail (ename ^ ": violation not detected")
      | Explore.Falsified f ->
        Alcotest.(check string)
          (ename ^ ": reported as non-termination")
          "termination"
          (Explore.kind_name f.Explore.witness.Explore.kind))
    engines

(* 12b. Regression: replay's contract says [Error _] for a witness naming a
   process that cannot be probed, but probing an already-decided (or
   out-of-range) pid used to be silently absorbed, replaying "clean" instead
   of rejecting the witness. *)
let test_replay_rejects_unprobeable () =
  (* broken_nonterminating's p1 decides on its first step, so after
     schedule [1] probing p1 contradicts the contract *)
  let witness probe schedule =
    { Explore.kind = "obstruction-freedom"; message = "x"; schedule; probe }
  in
  let expect_error name w =
    match Explore.replay broken_nonterminating ~inputs:[| 0; 1 |] w with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ ": unprobeable witness accepted")
  in
  expect_error "decided pid" (witness (Some 1) [ 1 ]);
  expect_error "out of range" (witness (Some 5) []);
  expect_error "negative" (witness (Some (-1)) []);
  (* sanity: the same schedule without the bogus probe still replays *)
  match Explore.replay broken_nonterminating ~inputs:[| 0; 1 |] (witness None [ 1 ]) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("probe-free witness rejected: " ^ e)

(* 13. Differential: the memoized decidable-values walk equals the original
   naive one — same value sets, same verdict on broken protocols. *)
let test_decidable_memo_differential () =
  let cases =
    [
      ("maxreg 0/1", Consensus.Maxreg_protocol.protocol, [| 0; 1 |], 4);
      ("maxreg unanimous", Consensus.Maxreg_protocol.protocol, [| 1; 1 |], 5);
      ("swap", Consensus.Swap_protocol.protocol, [| 0; 1 |], 4);
      ("cas", Consensus.Cas_protocol.protocol, [| 0; 1 |], 4);
      ("rw n=3", Consensus.Rw_protocol.protocol, [| 0; 1; 2 |], 4);
    ]
  in
  List.iter
    (fun (name, proto, inputs, depth) ->
      let memo = decidable_values proto ~inputs ~depth in
      let naive = Reference.decidable_values_naive proto ~inputs ~depth in
      match (memo, naive) with
      | Ok m, Ok n -> Alcotest.(check (list int)) (name ^ ": same value set") n m
      | Error e, _ -> Alcotest.fail (name ^ ": memoized walk failed: " ^ e)
      | _, Error e -> Alcotest.fail (name ^ ": naive walk failed: " ^ e))
    cases;
  let memo =
    decidable_values ~solo_fuel:200 broken_nonterminating ~inputs:[| 0; 1 |]
      ~depth:2
  in
  let naive =
    Reference.decidable_values_naive ~solo_fuel:200 broken_nonterminating
      ~inputs:[| 0; 1 |] ~depth:2
  in
  (match (memo, naive) with
   | Error _, Error _ -> ()
   | _ -> Alcotest.fail "spin: both walks must report the solo failure")

(* 14. Iterative deepening completes on a finite tree and reports it. *)
let test_deepen_completes () =
  match
    Explore.deepen ~budget:10.0 Consensus.Cas_protocol.protocol ~inputs:[| 0; 1 |]
      ~max_depth:10
  with
  | Explore.Completed r ->
    Alcotest.(check bool) "complete" true r.Explore.complete;
    (* each process takes exactly one step, so depth 2 finishes the tree *)
    Alcotest.(check int) "depth reached" 2 r.Explore.depth_reached
  | Explore.Falsified f -> Alcotest.fail (Explore.failure_message f)
  | Explore.Timed_out _ -> Alcotest.fail "deepen timed out within a 10 s budget"

(* 15. Reduction soundness, differentially.  The commutativity half (sleep
   sets) preserves the verdict for EVERY protocol; the symmetry half only
   for pid-symmetric ones, so it is exercised on those alone.  Every
   (protocol, inputs, reduction, engine) cell must match the plain Naive
   verdict — same outcome class AND same decidable-value set. *)
let reductions =
  [
    ("none", Explore.no_reduction);
    ("commute", { Explore.commute = true; symmetric = false });
    ("symmetric", { Explore.commute = false; symmetric = true });
    ("full", Explore.full_reduction);
  ]

let symmetric_cases =
  [
    ("cas unanimous", Consensus.Cas_protocol.protocol, [| 1; 1; 1 |], 6);
    ("cas mixed", Consensus.Cas_protocol.protocol, [| 0; 1; 1 |], 6);
    ("maxreg unanimous", Consensus.Maxreg_protocol.protocol, [| 1; 1; 1 |], 6);
    ("maxreg mixed", Consensus.Maxreg_protocol.protocol, [| 0; 1; 1 |], 6);
    ("arith-add mixed", Consensus.Arith_protocols.add, [| 0; 1; 1 |], 6);
    ("tug-of-war mixed", Consensus.Tugofwar_protocol.binary, [| 0; 1; 1 |], 6);
  ]

let recoverable =
  match Observer.of_names [ "recoverable-agreement"; "recoverable-validity" ] with
  | Ok set -> set
  | Error e -> failwith e

(* commute is sound for pid-dependent protocols too — including broken ones,
   where the violation must survive the pruning — for multi-assignment
   steps (earliest-writer), and under a crash budget: (name, protocol,
   inputs, depth, crashes, observers) *)
let commute_only_cases =
  [
    ("rw", Consensus.Rw_protocol.protocol, [| 0; 1 |], 7, 0, []);
    ("swap", Consensus.Swap_protocol.protocol, [| 0; 1 |], 7, 0, []);
    ("disagree", broken_disagree, [| 0; 1 |], 3, 0, []);
    ("invalid", broken_invalid, [| 0; 1 |], 3, 0, []);
    ("earliest-writer", Consensus.Assignment_protocol.earliest_writer, [| 0; 1; 2 |], 7, 0, []);
    ("rc-cas crashes=2", Recovery.cas_durable, [| 0; 1 |], 7, 2, recoverable);
    ("rc-tas-naive crashes=1", Recovery.tas_naive, [| 0; 1 |], 8, 1, recoverable);
  ]

let test_reduce_differential () =
  let verdict ?(reduce = Explore.no_reduction) ?crashes ?observers engine proto inputs
      depth =
    outcome_class
      (Explore.run ~probe:`Everywhere ~engine ~reduce ?crashes ?observers proto ~inputs
         ~depth)
  in
  List.iter
    (fun (name, proto, inputs, depth) ->
      let reference = verdict `Naive proto inputs depth in
      List.iter
        (fun (rname, reduce) ->
          List.iter
            (fun (ename, engine) ->
              Alcotest.(check string)
                (Printf.sprintf "%s: %s/%s vs plain naive" name ename rname)
                reference
                (verdict ~reduce engine proto inputs depth))
            engines)
        reductions)
    symmetric_cases;
  List.iter
    (fun (name, proto, inputs, depth, crashes, observers) ->
      let reference = verdict ~crashes ~observers `Naive proto inputs depth in
      let reduce = { Explore.commute = true; symmetric = false } in
      List.iter
        (fun (ename, engine) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s/commute vs plain naive" name ename)
            reference
            (verdict ~reduce ~crashes ~observers engine proto inputs depth))
        engines)
    commute_only_cases

(* 16. Reduction preserves the decidable-value sets (bivalence analysis),
   not just the ok/violation verdict. *)
let test_reduce_decidable_values () =
  let cases =
    [
      ("maxreg unanimous", Consensus.Maxreg_protocol.protocol, [| 1; 1 |], 5);
      ("maxreg mixed", Consensus.Maxreg_protocol.protocol, [| 0; 1 |], 4);
      ("cas mixed", Consensus.Cas_protocol.protocol, [| 0; 1 |], 4);
      ("arith-add n=3", Consensus.Arith_protocols.add, [| 1; 1; 1 |], 5);
    ]
  in
  List.iter
    (fun (name, proto, inputs, depth) ->
      let reference = Reference.decidable_values_naive proto ~inputs ~depth in
      List.iter
        (fun (rname, reduce) ->
          match (decidable_values ~reduce proto ~inputs ~depth, reference) with
          | Ok got, Ok want ->
            Alcotest.(check (list int))
              (Printf.sprintf "%s: %s value set" name rname)
              want got
          | Error e, _ ->
            Alcotest.fail (Printf.sprintf "%s: %s walk failed: %s" name rname e)
          | _, Error e -> Alcotest.fail (name ^ ": naive walk failed: " ^ e))
        reductions)
    cases

(* 17. The reduction earns its keep: under unanimous inputs symmetry
   collapses the transposition table by >= 3x on arith-add, and sleep sets
   actually prune transitions (the counter moves) while staying silent when
   the reduction is off. *)
let test_reduce_effectiveness () =
  let proto = Consensus.Arith_protocols.add and inputs = [| 1; 1; 1 |] and depth = 8 in
  let run reduce =
    match Explore.run ~probe:`Leaves ~engine:`Memo ~reduce proto ~inputs ~depth with
    | Explore.Completed s -> s
    | Explore.Falsified f ->
      Alcotest.fail ("unexpected violation: " ^ Explore.failure_message f)
    | Explore.Timed_out _ -> Alcotest.fail "unexpected timeout (no deadline given)"
  in
  let plain = run Explore.no_reduction in
  let full = run Explore.full_reduction in
  let commute = run { Explore.commute = true; symmetric = false } in
  Alcotest.(check bool)
    "symmetry collapses the table >= 3x" true
    (plain.Explore.configs >= 3 * full.Explore.configs);
  Alcotest.(check bool)
    "sleep sets prune transitions" true
    (commute.Explore.sleep_pruned > 0);
  Alcotest.(check int) "no sleep pruning when off" 0 plain.Explore.sleep_pruned

(* 18. Failing runs report their exploration effort and keep engine time
   separate from witness diagnosis time. *)
let test_failure_reports_stats () =
  List.iter
    (fun (ename, engine) ->
      match
        Explore.run ~probe:`Everywhere ~solo_fuel:1_000 ~engine broken_disagree
          ~inputs:[| 0; 1 |] ~depth:3
      with
      | Explore.Completed _ | Explore.Timed_out _ ->
        Alcotest.fail (ename ^ ": violation not detected")
      | Explore.Falsified f ->
        Alcotest.(check bool)
          (ename ^ ": engine stats attached") true
          (f.Explore.stats.Explore.configs > 0);
        Alcotest.(check bool)
          (ename ^ ": engine time non-negative") true
          (f.Explore.stats.Explore.elapsed >= 0.);
        Alcotest.(check bool)
          (ename ^ ": diagnosis time non-negative") true
          (f.Explore.diagnosis_elapsed >= 0.))
    engines

(* 19. Deadlines: an already-expired budget times out every engine
   immediately — with the partial counters attached — while a generous one
   leaves verdicts unchanged, including on broken protocols. *)
let test_deadline_times_out () =
  List.iter
    (fun (ename, engine) ->
      match
        Explore.run ~engine ~deadline:(-1.0) Consensus.Maxreg_protocol.protocol
          ~inputs:[| 0; 1 |] ~depth:10
      with
      | Explore.Timed_out t ->
        Alcotest.(check (float 0.0)) (ename ^ ": deadline echoed") (-1.0) t.Explore.deadline;
        Alcotest.(check bool)
          (ename ^ ": partial stats are partial")
          true
          (t.Explore.partial.Explore.configs <= 1)
      | Explore.Completed _ -> Alcotest.fail (ename ^ ": expired deadline completed")
      | Explore.Falsified f -> Alcotest.fail (ename ^ ": " ^ Explore.failure_message f))
    engines;
  (match
     Explore.decidable_values ~deadline:(-1.0) Consensus.Maxreg_protocol.protocol
       ~inputs:[| 0; 1 |] ~depth:4
   with
   | Explore.Timed_out _ -> ()
   | _ -> Alcotest.fail "decidable_values ignored the expired deadline")

let test_deadline_generous_is_invisible () =
  List.iter
    (fun (ename, engine) ->
      let s =
        ok_stats
          (Explore.run ~probe:`Everywhere ~engine ~deadline:3600.0
             Consensus.Cas_protocol.protocol ~inputs:[| 0; 1 |] ~depth:6)
      in
      Alcotest.(check bool) (ename ^ ": complete under deadline") false s.truncated)
    engines;
  expect_violation "disagree under deadline"
    (Explore.run ~deadline:3600.0 broken_disagree ~inputs:[| 0; 1 |] ~depth:3)

(* 20. A solo fuel below 1 is refused up front: no probe can decide within
   zero steps, so such a run used to report every correct protocol as an
   obstruction-freedom violation. *)
let test_solo_fuel_positive () =
  let proto = Consensus.Rw_protocol.protocol and inputs = [| 0; 1 |] in
  List.iter
    (fun fuel ->
      List.iter
        (fun (ename, engine) ->
          Alcotest.check_raises
            (Printf.sprintf "run %s solo_fuel %d" ename fuel)
            (Invalid_argument "Explore.run: solo_fuel < 1")
            (fun () -> ignore (Explore.run ~solo_fuel:fuel ~engine proto ~inputs ~depth:2)))
        engines;
      Alcotest.check_raises
        (Printf.sprintf "decidable_values solo_fuel %d" fuel)
        (Invalid_argument "Explore.decidable_values: solo_fuel < 1")
        (fun () -> ignore (Explore.decidable_values ~solo_fuel:fuel proto ~inputs ~depth:2));
      Alcotest.check_raises
        (Printf.sprintf "deepen solo_fuel %d" fuel)
        (Invalid_argument "Explore.deepen: solo_fuel < 1")
        (fun () -> ignore (Explore.deepen ~solo_fuel:fuel proto ~inputs ~max_depth:2)))
    [ 0; -1 ];
  ignore (ok_stats (Explore.run ~solo_fuel:1 Consensus.Cas_protocol.protocol ~inputs ~depth:2))

(* 21. The sleep-set filter's counts, pinned: commute memo runs on inputs
   0..n-1 must reproduce every configuration, dedup hit and slept
   transition, from single-access rows, the multi-assignment
   earliest-writer (probed everywhere) and rc-cas under a crash budget. *)
let test_sleep_counts_pinned () =
  let commute = { Explore.commute = true; symmetric = false } in
  let row id =
    match Hierarchy.find id with
    | Some r -> r.protocol
    | None -> Alcotest.failf "row %s missing" id
  in
  let pinned name ?(probe = `Never) ?crashes ?observers proto ~n ~depth want =
    let s =
      ok_stats
        (Explore.run ~engine:`Memo ~probe ~reduce:commute ?crashes ?observers proto
           ~inputs:(Array.init n Fun.id) ~depth)
    in
    Alcotest.(check (triple int int int))
      (name ^ ": configs, dedup hits, sleep-pruned")
      want
      (s.configs, s.dedup_hits, s.sleep_pruned)
  in
  pinned "rw n=4 d=12" (row "rw") ~n:4 ~depth:12 (20_206, 0, 25_035);
  pinned "max-register n=4 d=12" (row "max-register") ~n:4 ~depth:12 (22_394, 8_276, 27_833);
  pinned "add n=4 d=8" (row "add") ~n:4 ~depth:8 (13_841, 76, 3_540);
  pinned "buffer-2 n=4 d=10" (row "buffer-2") ~n:4 ~depth:10 (9_356, 0, 8_053);
  pinned "rc-cas n=3 d=10 crashes=2" (row "rc-cas") ~n:3 ~depth:10 ~crashes:2
    ~observers:recoverable (4_565, 5_260, 1_953);
  pinned "earliest-writer n=3 d=7" ~probe:`Everywhere
    Consensus.Assignment_protocol.earliest_writer ~n:3 ~depth:7 (707, 0, 425)

(* 22. Pid sets are int bitmasks, so a run takes at most
   [Explore.max_processes] processes.  At the cap every pid still steps:
   depth 1 visits the root and one child per process, none of them slept.
   One more is refused by every entry point before anything runs. *)
let test_process_cap () =
  let proto = Consensus.Cas_protocol.protocol in
  let n = Explore.max_processes in
  let inputs = Array.init n (fun pid -> pid mod 2) in
  List.iter
    (fun (ename, engine) ->
      let s = ok_stats (Explore.run ~engine ~probe:`Never proto ~inputs ~depth:1) in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s at n = %d: configs, sleep-pruned" ename n)
        (n + 1, 0)
        (s.configs, s.sleep_pruned))
    engines;
  let wide = Array.make (n + 1) 0 in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: %d processes accepted" what (n + 1)
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (ename, engine) ->
      refused ("run " ^ ename) (fun () ->
          Explore.run ~engine ~probe:`Never proto ~inputs:wide ~depth:1))
    engines;
  refused "decidable_values" (fun () ->
      Explore.decidable_values proto ~inputs:wide ~depth:1);
  refused "deepen" (fun () -> Explore.deepen proto ~inputs:wide ~max_depth:1);
  refused "replay" (fun () ->
      Explore.replay proto ~inputs:wide
        { Explore.kind = "agreement"; message = "agreement:"; schedule = [ 0 ];
          probe = None })

let () =
  Alcotest.run "modelcheck"
    [
      ( "exploration",
        [
          Alcotest.test_case "exhaustive one-shot" `Quick test_exhaustive_one_shot;
          Alcotest.test_case "bounded loop protocols" `Quick test_bounded_loop_protocols;
          Alcotest.test_case "three processes" `Quick test_three_process_exploration;
          Alcotest.test_case "stats shape" `Quick test_stats_shape;
          Alcotest.test_case "solo fuel must be positive" `Quick test_solo_fuel_positive;
          Alcotest.test_case "process cap at the word size" `Quick test_process_cap;
        ] );
      ( "bivalence",
        [
          Alcotest.test_case "initial bivalence (Lemma 6.4)" `Quick test_initial_bivalence;
          Alcotest.test_case "unanimous univalence" `Quick test_unanimous_univalence;
        ] );
      ( "violations",
        [
          Alcotest.test_case "catches broken protocols" `Quick test_catches_broken;
          Alcotest.test_case "finds interleaving bug" `Quick test_finds_interleaving_bug;
        ] );
      ( "engines",
        [
          Alcotest.test_case "engines agree (correct protocols)" `Quick
            test_engines_agree_correct;
          Alcotest.test_case "engines agree (broken protocols)" `Quick
            test_engines_agree_broken;
          Alcotest.test_case "memo dedups" `Quick test_memo_dedups;
          Alcotest.test_case "parallel re-raises" `Quick test_parallel_reraises;
          Alcotest.test_case "parallel domains" `Quick test_parallel_domains;
          Alcotest.test_case "deepen completes" `Quick test_deepen_completes;
        ] );
      ( "witnesses",
        [
          Alcotest.test_case "witness replays under every engine" `Quick
            test_witness_replay_all_engines;
          Alcotest.test_case "probe finish loop is bounded" `Quick
            test_probe_finish_bounded;
          Alcotest.test_case "replay rejects unprobeable probe pids" `Quick
            test_replay_rejects_unprobeable;
          Alcotest.test_case "decidable_values memo differential" `Quick
            test_decidable_memo_differential;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "reduced runs match plain naive" `Quick
            test_reduce_differential;
          Alcotest.test_case "reduction preserves decidable values" `Quick
            test_reduce_decidable_values;
          Alcotest.test_case "reduction effectiveness" `Quick test_reduce_effectiveness;
          Alcotest.test_case "failures carry stats" `Quick test_failure_reports_stats;
          Alcotest.test_case "sleep-set counts pinned" `Quick test_sleep_counts_pinned;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "expired deadline times out" `Quick test_deadline_times_out;
          Alcotest.test_case "generous deadline is invisible" `Quick
            test_deadline_generous_is_invisible;
        ] );
    ]
