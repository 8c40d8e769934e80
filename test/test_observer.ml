(* Tests for the observer subsystem: the differential pin of the default
   observer set against the reference checker in [Reference], the engine ×
   reduction agreement matrix, the combinators, the registry, the
   reduction-soundness gate, and the allocation behaviour of the runtime. *)

let engines = [ ("naive", `Naive); ("memo", `Memo); ("parallel-2", `Parallel 2) ]

(* ------------------------------------------------- violating fixtures -- *)

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

(* Not obstruction-free: p0 waits forever for p1's write. *)
let broken_nonterminating : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "broken-spin"
    let locations ~n:_ = Some 1

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

(* p0 spins on a location nobody ever writes: decides under no schedule, so
   a fairly scheduled p0 exceeds any patience — the lockout witness. *)
let spin_forever : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "spin-forever"
    let locations ~n:_ = Some 1

    let proc ~n:_ ~pid ~input =
      let open Model.Proc.Syntax in
      if pid = 0 then
        Model.Proc.rec_loop () (fun () ->
            let* v = Isets.Rw.read 0 in
            match v with
            | Model.Value.Int w -> Model.Proc.return (Either.Right w)
            | _ -> Model.Proc.return (Either.Left ()))
      else Model.Proc.return input
  end)

(* A read observes 5 and a later read of the same location observes 3 on the
   solo schedule — the maxreg-monotonic witness.  Unanimous inputs keep the
   consensus properties themselves clean. *)
let decreasing_writes : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "decreasing-writes"
    let locations ~n:_ = Some 1

    let proc ~n:_ ~pid:_ ~input =
      let open Model.Proc.Syntax in
      let* () = Isets.Rw.write 0 (Model.Value.Int 5) in
      let* _ = Isets.Rw.read 0 in
      let* () = Isets.Rw.write 0 (Model.Value.Int 3) in
      let* _ = Isets.Rw.read 0 in
      Model.Proc.return input
  end)

let outcome_string = function
  | Explore.Completed (_ : Explore.stats) -> "ok"
  | Explore.Falsified f ->
    "violation:" ^ Explore.kind_name f.Explore.witness.Explore.kind
  | Explore.Timed_out _ -> "timeout"

let run ?(probe = `Leaves) ?(solo_fuel = 100_000) ?(engine = `Naive)
    ?(reduce = Explore.no_reduction) ?(crashes = 0) ?(observers = []) ?(shrink = false)
    proto ~inputs ~depth =
  Explore.run ~probe ~solo_fuel ~engine ~reduce ~crashes ~observers ~shrink proto ~inputs
    ~depth

(* 1. The acceptance pin: over the full registry, the broken fixtures and
   the recovery rows under one crash, the default checker (no observers,
   which means [Observer.defaults]) renders the reference checker's
   verdict, including the witness kind, on all three engines — and on the
   naive engine, whose walk order is the reference's, the exact unshrunk
   witness. *)
let test_legacy_differential () =
  let registry =
    List.map
      (fun (row : Hierarchy.row) ->
        let n = 3 in
        let inputs =
          if row.binary_only then Array.init n (fun i -> i land 1)
          else Array.init n (fun i -> i mod n)
        in
        (row.id, row.protocol, inputs, 8, `Leaves, 100_000, 0))
      (Hierarchy.rows ~ells:[ 1; 2 ] ())
  in
  let fixtures =
    [
      ("broken-disagree", broken_disagree, [| 0; 1 |], 3, `Leaves, 100_000, 0);
      ("broken-invalid", broken_invalid, [| 0; 1 |], 3, `Leaves, 100_000, 0);
      ("broken-spin", broken_nonterminating, [| 0; 1 |], 2, `Everywhere, 1_000, 0);
      ("rc-tas-naive", Recovery.tas_naive, [| 0; 1 |], 10, `Leaves, 100_000, 1);
      ("rc-cas", Recovery.cas_durable, [| 0; 1 |], 12, `Leaves, 100_000, 1);
    ]
  in
  List.iter
    (fun (name, proto, inputs, depth, probe, solo_fuel, crashes) ->
      let reference = Reference.check ~probe ~solo_fuel ~crashes proto ~inputs ~depth in
      let expected =
        match reference with None -> "ok" | Some v -> "violation:" ^ v.Reference.kind
      in
      List.iter
        (fun (ename, engine) ->
          let out = run ~probe ~solo_fuel ~engine ~crashes proto ~inputs ~depth in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s: default checker == reference" name ename)
            expected (outcome_string out);
          match (engine, out, reference) with
          | `Naive, Explore.Falsified f, Some v ->
            let w = f.Explore.original in
            Alcotest.(check string) (name ^ ": witness message") v.message w.message;
            Alcotest.(check (list int))
              (name ^ ": witness schedule") v.schedule w.schedule;
            Alcotest.(check (option int)) (name ^ ": witness probe") v.probe w.probe
          | _ -> ())
        engines)
    (registry @ fixtures)

(* 2. Each built-in observer renders one verdict across engines × its sound
   reductions, on a clean protocol and on the protocol built to violate it.
   Symmetric reduction is exercised only where the protocol certifies
   pid-symmetric AND the observer permits it. *)
let matrix_cases =
  (* (label, proto, inputs, depth, probe, solo_fuel, symmetric_certifiable) *)
  [
    ("cas", Consensus.Cas_protocol.protocol, [| 0; 1; 1 |], 6, `Leaves, 100_000, true);
    ("disagree", broken_disagree, [| 0; 1 |], 3, `Leaves, 100_000, false);
    ("invalid", broken_invalid, [| 0; 1 |], 3, `Leaves, 100_000, false);
    ("spin", broken_nonterminating, [| 0; 1 |], 2, `Everywhere, 1_000, false);
    ("lockout-victim", spin_forever, [| 0; 1 |], 6, `Leaves, 1_000, false);
    ("decreasing", decreasing_writes, [| 0; 0 |], 8, `Leaves, 100_000, false);
  ]

let test_engine_matrix () =
  let observers =
    [
      Observer.agreement;
      Observer.validity;
      Observer.solo_termination;
      Observer.lockout ~fair_bound:2 ~patience:4 ();
      Observer.maxreg_monotonic;
    ]
  in
  List.iter
    (fun obs ->
      let (module O : Observer.S) = obs in
      let reductions =
        [ ("none", Explore.no_reduction) ]
        @ (if O.commute_safe then
             [ ("commute", { Explore.commute = true; symmetric = false }) ]
           else [])
        @
        if O.symmetric_safe then
          [ ("symmetric", { Explore.commute = false; symmetric = true }) ]
        else []
      in
      List.iter
        (fun (cname, proto, inputs, depth, probe, solo_fuel, certifiable) ->
          let reference =
            outcome_string
              (run ~probe ~solo_fuel ~observers:[ obs ] proto ~inputs ~depth)
          in
          List.iter
            (fun (ename, engine) ->
              List.iter
                (fun (rname, reduce) ->
                  if rname <> "symmetric" || certifiable then
                    Alcotest.(check string)
                      (Printf.sprintf "%s on %s: %s/%s" O.name cname ename rname)
                      reference
                      (outcome_string
                         (run ~probe ~solo_fuel ~engine ~reduce ~observers:[ obs ] proto
                            ~inputs ~depth)))
                reductions)
            engines)
        matrix_cases)
    observers

(* 3. Each purpose-built violation trips exactly its observer, with the
   advertised witness kind. *)
let expect_kind name kind outcome =
  match outcome with
  | Explore.Falsified f ->
    Alcotest.(check string)
      (name ^ ": witness kind")
      kind
      (Explore.kind_name f.Explore.witness.Explore.kind)
  | Explore.Completed _ | Explore.Timed_out _ ->
    Alcotest.fail (name ^ ": violation not detected")

let test_builtin_violations () =
  expect_kind "agreement" "agreement"
    (run ~observers:[ Observer.agreement ] broken_disagree ~inputs:[| 0; 1 |] ~depth:3);
  expect_kind "validity" "validity"
    (run ~observers:[ Observer.validity ] broken_invalid ~inputs:[| 0; 1 |] ~depth:3);
  expect_kind "solo-termination" "obstruction-freedom"
    (run ~probe:`Everywhere ~solo_fuel:1_000
       ~observers:[ Observer.solo_termination ]
       broken_nonterminating ~inputs:[| 0; 1 |] ~depth:2);
  expect_kind "lockout" "lockout"
    (run
       ~observers:[ Observer.lockout ~fair_bound:2 ~patience:4 () ]
       spin_forever ~inputs:[| 0; 1 |] ~depth:6);
  expect_kind "maxreg-monotonic" "maxreg-monotonic"
    (run
       ~observers:[ Observer.maxreg_monotonic ]
       decreasing_writes ~inputs:[| 0; 0 |] ~depth:8);
  (* and all of them stay quiet on a correct protocol *)
  match
    run ~probe:`Everywhere
      ~observers:
        (Observer.defaults
        @ [ Observer.lockout (); Observer.maxreg_monotonic ])
      Consensus.Cas_protocol.protocol ~inputs:[| 0; 1 |] ~depth:6
  with
  | Explore.Completed _ -> ()
  | Explore.Falsified f ->
    Alcotest.fail ("cas clean: " ^ f.Explore.witness.Explore.message)
  | Explore.Timed_out _ -> Alcotest.fail "cas clean: timeout"

(* 4. Combinators. *)
let test_combinators () =
  (* [all] reports the first member's violation in list order *)
  expect_kind "all" "agreement"
    (run
       ~observers:[ Observer.all [ Observer.agreement; Observer.validity ] ]
       broken_disagree ~inputs:[| 0; 1 |] ~depth:3);
  (* [named] renames the witness kind *)
  expect_kind "named" "no-split-brain"
    (run
       ~observers:[ Observer.named "no-split-brain" Observer.agreement ]
       broken_disagree ~inputs:[| 0; 1 |] ~depth:3);
  (* [per_pid] routes each pid's events to its own copy: a per-pid agreement
     observer never sees two decisions, so the disagreement vanishes —
     evidence the routing is really per-process *)
  (match
     run
       ~observers:[ Observer.per_pid Observer.agreement ]
       broken_disagree ~inputs:[| 0; 1 |] ~depth:3
   with
  | Explore.Completed _ -> ()
  | Explore.Falsified _ | Explore.Timed_out _ ->
    Alcotest.fail "per_pid agreement saw a cross-pid decision");
  (* a per-pid validity copy still catches its own pid's invalid decision,
     and prefixes the message with the pid *)
  match
    run
      ~observers:[ Observer.per_pid Observer.validity ]
      broken_invalid ~inputs:[| 0; 1 |] ~depth:3
  with
  | Explore.Falsified f ->
    let msg = f.Explore.witness.Explore.message in
    Alcotest.(check bool)
      "per_pid message names the pid" true
      (String.length msg >= 1 && msg.[0] = 'p')
  | Explore.Completed _ | Explore.Timed_out _ ->
    Alcotest.fail "per_pid validity missed the violation"

(* 5. Registry. *)
let test_registry () =
  List.iter
    (fun (name, _) ->
      match Observer.of_name name with
      | Ok o -> Alcotest.(check string) "registry name" name (Observer.name o)
      | Error e -> Alcotest.fail e)
    Observer.known;
  (match Observer.of_name "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown observer resolved");
  match Observer.of_names [ "default"; "lockout" ] with
  | Error e -> Alcotest.fail e
  | Ok os ->
    Alcotest.(check (list string))
      "default expands in place"
      [ "agreement"; "validity"; "solo-termination"; "lockout" ]
      (List.map Observer.name os)

(* 6. The reduction gate: an observer that declares a reduction unsafe
   refuses to run under it (unless forced), BEFORE any exploration. *)
let test_reduction_gate () =
  let lockout = Observer.lockout () in
  let commute = { Explore.commute = true; symmetric = false } in
  (match
     run ~reduce:commute ~observers:[ lockout ] Consensus.Cas_protocol.protocol
       ~inputs:[| 0; 1 |] ~depth:4
   with
  | exception Explore.Observer_unsafe_reduction { observer; reduction } ->
    Alcotest.(check string) "gate names the observer" "lockout" observer;
    Alcotest.(check string) "gate names the reduction" "commute" reduction
  | _ -> Alcotest.fail "lockout ran under the commute reduction");
  (* per_pid is never symmetric-safe, whatever it wraps *)
  (match
     Explore.run ~reduce:{ Explore.commute = false; symmetric = true }
       ~observers:[ Observer.per_pid Observer.validity ]
       Consensus.Cas_protocol.protocol ~inputs:[| 1; 1 |] ~depth:4
   with
  | exception Explore.Observer_unsafe_reduction { reduction; _ } ->
    Alcotest.(check string) "per_pid symmetric refused" "symmetric" reduction
  | _ -> Alcotest.fail "per_pid ran under the symmetric reduction");
  (* force overrides the gate, mirroring the symmetry certifier's escape
     hatch *)
  match
    Explore.run ~force:true ~reduce:commute ~observers:[ lockout ]
      Consensus.Cas_protocol.protocol ~inputs:[| 0; 1 |] ~depth:4
  with
  | Explore.Completed _ | Explore.Falsified _ | Explore.Timed_out _ -> ()

(* 7. Witnesses found by observers replay — through the observer-aware
   replay path — to the same kind, and deepen threads observers too. *)
let test_observer_witness_replays () =
  List.iter
    (fun (ename, engine) ->
      match
        run ~engine ~observers:Observer.defaults ~shrink:true broken_disagree
          ~inputs:[| 0; 1 |] ~depth:3
      with
      | Explore.Falsified f ->
        Alcotest.(check bool)
          (ename ^ ": witness reproduced") true f.Explore.reproduced;
        (match
           Explore.replay ~observers:Observer.defaults broken_disagree
             ~inputs:[| 0; 1 |] f.Explore.witness
         with
        | Error e -> Alcotest.fail (ename ^ ": replay rejected the witness: " ^ e)
        | Ok r ->
          (match r.Explore.violation with
          | Some (k, _) ->
            Alcotest.(check string)
              (ename ^ ": replay kind") "agreement" (Explore.kind_name k)
          | None -> Alcotest.fail (ename ^ ": observer replay found no violation")))
      | Explore.Completed _ | Explore.Timed_out _ ->
        Alcotest.fail (ename ^ ": violation not detected"))
    engines;
  match
    Explore.deepen ~observers:Observer.defaults Consensus.Cas_protocol.protocol
      ~inputs:[| 0; 1 |] ~max_depth:6
  with
  | Explore.Completed r -> Alcotest.(check bool) "deepen complete" true r.Explore.complete
  | Explore.Falsified _ | Explore.Timed_out _ ->
    Alcotest.fail "deepen with observers failed on cas"

(* 8. Agreement judges the decisions the configuration holds: a decision
   lost to a crash stops counting, and a conflict names the lowest pid
   holding a value other than the lowest pid's, whatever the order the
   decisions were made in.  Recoverable agreement still sees the flip. *)
let test_agreement_held_decisions () =
  let verdict ?(n = 3) set events =
    let o = Observer.Run.make set ~n ~inputs:(Array.init n Fun.id) in
    Observer.Run.verdict (List.fold_left (fun o f -> f o) o events)
  in
  let decide pid value o = Observer.Run.decide o ~pid ~value in
  let crash pid o = Observer.Run.crash o ~pid in
  let message = function Some (_, _, m) -> m | None -> "ok" in
  let conflict = "agreement: process 1 decided 0 but 1 was also decided" in
  Alcotest.(check string) "p0 first" conflict
    (message (verdict [ Observer.agreement ] [ decide 0 1; decide 1 0 ]));
  Alcotest.(check string) "p1 first" conflict
    (message (verdict [ Observer.agreement ] [ decide 1 0; decide 0 1 ]));
  Alcotest.(check string) "p2 first"
    "agreement: process 2 decided 1 but 0 was also decided"
    (message (verdict [ Observer.agreement ] [ decide 1 0; decide 2 1 ]));
  Alcotest.(check string) "a lost decision stops counting" "ok"
    (message (verdict [ Observer.agreement ] [ decide 0 1; crash 0; decide 1 0 ]));
  Alcotest.(check string) "a crash of an undecided process changes nothing" conflict
    (message (verdict [ Observer.agreement ] [ decide 0 1; crash 1; decide 1 0 ]));
  Alcotest.(check bool) "recoverable agreement remembers it" true
    (verdict [ Observer.recoverable_agreement ] [ decide 0 1; crash 0; decide 1 0 ]
    <> None);
  (* the holders are a bitmask: the highest pid a run may have holds a bit *)
  let top = Explore.max_processes - 1 in
  Alcotest.(check string) "the highest pid holds its decision"
    (Printf.sprintf "agreement: process %d decided 0 but 1 was also decided" top)
    (message
       (verdict ~n:Explore.max_processes [ Observer.agreement ]
          [ decide top 0; decide 0 1 ]))

(* 9. [Run] allocates nothing for an event no member reacts to, and reads
   its cached digest and verdict for free — the engines do all three at
   every step and configuration.  Wall time cannot resolve this, so it is
   counted in minor words. *)
let test_unchanged_members_allocate_nothing () =
  let o = Observer.Run.make Observer.defaults ~n:3 ~inputs:[| 0; 1; 2 |] in
  let cur = ref o in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    cur := Observer.Run.step (Observer.Run.crash !cur ~pid:(i mod 3)) ~pid:(i mod 3);
    ignore (Sys.opaque_identity (Observer.Run.digest !cur));
    ignore (Sys.opaque_identity (Observer.Run.verdict !cur))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "no state changed" true (!cur == o);
  if words >= 100. then
    Alcotest.failf "%.0f minor words allocated by 20000 unobserved events" words

let () =
  Alcotest.run "observer"
    [
      ( "differential",
        [
          Alcotest.test_case "defaults == legacy over the registry" `Quick
            test_legacy_differential;
          Alcotest.test_case "engine x reduction matrix" `Quick test_engine_matrix;
        ] );
      ( "violations",
        [
          Alcotest.test_case "each builtin trips on its violation" `Quick
            test_builtin_violations;
          Alcotest.test_case "observer witnesses replay" `Quick
            test_observer_witness_replays;
          Alcotest.test_case "agreement judges held decisions" `Quick
            test_agreement_held_decisions;
        ] );
      ( "combinators",
        [
          Alcotest.test_case "all/named/per_pid" `Quick test_combinators;
          Alcotest.test_case "registry round-trip" `Quick test_registry;
        ] );
      ( "soundness",
        [ Alcotest.test_case "reduction gate" `Quick test_reduction_gate ] );
      ( "runtime",
        [
          Alcotest.test_case "unchanged members allocate nothing" `Quick
            test_unchanged_members_allocate_nothing;
        ] );
    ]
