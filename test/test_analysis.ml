(* Tests for the static-analysis subsystem (lib/analysis): iset contract
   checking, pid-symmetry certification, space-claim linting, the mutant
   selftest corpus, and the soundness gate the certifier puts in front of
   the symmetric state-space reduction. *)

open Analysis

let sym = { Explore.commute = false; symmetric = true }

(* 1. The mutant corpus selftest: the clean base lints clean and every
   deliberately broken iset/protocol trips exactly its expected rule. *)
let test_selftest () =
  let findings = Lint.selftest () in
  let escaped =
    List.filter (fun f -> f.Report.severity = Report.Error) findings
  in
  List.iter (fun f -> Format.eprintf "%a@." Report.pp_finding f) escaped;
  Alcotest.(check int) "no mutant escapes the linter" 0 (List.length escaped);
  Alcotest.(check bool) "selftest reports each catch" true
    (List.length findings >= List.length Mutants.iset_mutants
                             + List.length Mutants.proto_mutants)

(* 2. Every registered hierarchy row lints without errors: iset contracts
   hold, space claims are respected, symmetry verdicts are classifiable. *)
let test_registry_lints_clean () =
  let findings = Lint.run ~ns:[ 2 ] () in
  let bad =
    List.filter (fun f -> f.Report.severity <> Report.Info) findings
  in
  List.iter (fun f -> Format.eprintf "%a@." Report.pp_finding f) bad;
  Alcotest.(check int) "registry: no errors or warnings" 0 (List.length bad)

(* 3. Symmetry verdicts on known protocols: the paper's upper-bound
   protocols treat equal-input processes identically; the rw and swap
   protocols index per-process registers by pid. *)
let test_symmetry_verdicts () =
  let certified_protos =
    [
      ("cas", Consensus.Cas_protocol.protocol);
      ("maxreg", Consensus.Maxreg_protocol.protocol);
      ("arith-add", Consensus.Arith_protocols.add);
      ("tug-of-war", Consensus.Tugofwar_protocol.binary);
      ("faa2+tas", Consensus.Intro_protocols.faa2_tas);
    ]
  in
  List.iter
    (fun (name, proto) ->
      let v = Symmetry.certify proto ~n:2 in
      Alcotest.(check bool)
        (Format.asprintf "%s certifies (%a)" name Symmetry.pp_verdict v)
        true (Symmetry.certified v))
    certified_protos;
  let asymmetric_protos =
    [
      ("rw", Consensus.Rw_protocol.protocol);
      ("swap", Consensus.Swap_protocol.protocol);
    ]
  in
  List.iter
    (fun (name, proto) ->
      match Symmetry.certify proto ~n:2 with
      | Symmetry.Asymmetric _ -> ()
      | v ->
        Alcotest.failf "%s: expected Asymmetric, got %a" name Symmetry.pp_verdict v)
    asymmetric_protos

(* 4. The certifier on the hand-built mutants: pid-dependent accesses and
   pid-dependent decisions both produce a concrete witness; the uniform
   control certifies. *)
let test_symmetry_mutants () =
  (match Symmetry.certify Mutants.asymmetric_access ~n:2 with
   | Symmetry.Asymmetric w ->
     Alcotest.(check bool) "witness names distinct pids" true (w.pid_a <> w.pid_b)
   | v -> Alcotest.failf "asymmetric access: got %a" Symmetry.pp_verdict v);
  (match Symmetry.certify Mutants.asymmetric_decision ~n:2 with
   | Symmetry.Asymmetric _ -> ()
   | v -> Alcotest.failf "asymmetric decision: got %a" Symmetry.pp_verdict v);
  Alcotest.(check bool) "uniform control certifies" true
    (Symmetry.certified (Symmetry.certify Mutants.symmetric_control ~n:2))

(* 5. The soundness gate: symmetric reduction on an uncertified protocol is
   refused with the verdict attached, runs under [~force:true], and runs
   silently for a certified protocol.  Equal inputs make the certification
   non-vacuous (the reduction only conflates equal-input processes, so
   all-distinct inputs certify trivially). *)
let test_gate_refuses_uncertified () =
  let rw = Consensus.Rw_protocol.protocol in
  (match
     Explore.run ~engine:`Memo ~reduce:sym rw ~inputs:[| 0; 0 |] ~depth:4
   with
   | exception Explore.Uncertified_symmetry { protocol; verdict } ->
     Alcotest.(check string) "names the protocol" "read-write-registers" protocol;
     (match verdict with
      | Symmetry.Asymmetric _ -> ()
      | v -> Alcotest.failf "gate verdict: got %a" Symmetry.pp_verdict v)
   | Explore.Completed _ | Explore.Falsified _ | Explore.Timed_out _ ->
     Alcotest.fail "gate did not fire on rw with equal inputs");
  (* decidable_values goes through the same gate *)
  (match Explore.decidable_values ~reduce:sym rw ~inputs:[| 0; 0 |] ~depth:4 with
   | exception Explore.Uncertified_symmetry _ -> ()
   | _ -> Alcotest.fail "decidable_values gate did not fire");
  (* --force suppresses the refusal but still reports the verdict *)
  let notified = ref None in
  (match
     Explore.run ~engine:`Memo ~reduce:sym ~force:true
       ~notify_symmetry:(fun v -> notified := Some v)
       rw ~inputs:[| 0; 0 |] ~depth:4
   with
   | Explore.Completed _ -> ()
   | Explore.Falsified f -> Alcotest.failf "forced run failed: %s" (Explore.failure_message f)
   | Explore.Timed_out _ -> Alcotest.fail "forced run timed out without a deadline"
   | exception Explore.Uncertified_symmetry _ ->
     Alcotest.fail "gate fired despite ~force:true");
  (match !notified with
   | Some (Symmetry.Asymmetric _) -> ()
   | Some v -> Alcotest.failf "notified verdict: %a" Symmetry.pp_verdict v
   | None -> Alcotest.fail "notify_symmetry was not called")

let test_gate_passes_certified () =
  let notified = ref None in
  match
    Explore.run ~engine:`Memo ~reduce:sym
      ~notify_symmetry:(fun v -> notified := Some v)
      Consensus.Cas_protocol.protocol ~inputs:[| 0; 0 |] ~depth:6
  with
  | Explore.Completed _ ->
    Alcotest.(check bool) "verdict is a certificate" true
      (match !notified with Some v -> Symmetry.certified v | None -> false)
  | Explore.Falsified f -> Alcotest.failf "cas failed: %s" (Explore.failure_message f)
  | Explore.Timed_out _ -> Alcotest.fail "cas timed out without a deadline"
  | exception Explore.Uncertified_symmetry { verdict; _ } ->
    Alcotest.failf "gate refused certified cas: %a" Symmetry.pp_verdict verdict

(* 6. Differential: on certified protocols the symmetric reduction changes
   only the amount of work, never the verdict or the decidable-value set —
   across all three engines. *)
let test_certified_reduction_differential () =
  let protos =
    [
      ("cas", Consensus.Cas_protocol.protocol, 6);
      ("faa2+tas", Consensus.Intro_protocols.faa2_tas, 6);
      ("tug-of-war", Consensus.Tugofwar_protocol.binary, 8);
    ]
  in
  let engines = [ ("naive", `Naive); ("memo", `Memo); ("parallel", `Parallel 2) ] in
  List.iter
    (fun (name, proto, depth) ->
      List.iter
        (fun inputs ->
          let completed = function Explore.Completed _ -> true | _ -> false in
          let plain =
            Explore.run ~engine:`Naive proto ~inputs ~depth |> completed
          in
          List.iter
            (fun (ename, engine) ->
              let reduced =
                Explore.run ~engine ~reduce:Explore.full_reduction proto ~inputs
                  ~depth
                |> completed
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s: reduced verdict matches plain" name ename)
                plain reduced)
            engines;
          let values = function
            | Explore.Completed vs -> vs
            | _ -> Alcotest.fail "decidable_values did not complete"
          in
          let plain_vs = values (Explore.decidable_values proto ~inputs ~depth) in
          let reduced_vs =
            values
              (Explore.decidable_values ~reduce:Explore.full_reduction proto
                 ~inputs ~depth)
          in
          Alcotest.(check (list int))
            (name ^ ": reduction preserves decidable values")
            plain_vs reduced_vs)
        [ [| 0; 0 |]; [| 0; 1 |] ])
    protos

(* 7. Contract checker: spot-check two real isets and the report renderer. *)
let test_contracts_and_report () =
  let findings = Lint.lint_iset (module Isets.Cas) in
  Alcotest.(check int) "cas iset: clean" 0 (Report.errors findings);
  let findings = Lint.lint_iset (module Isets.Maxreg) in
  Alcotest.(check int) "maxreg iset: clean" 0 (Report.errors findings);
  (* mutants produce machine-readable findings; JSON survives round-trip
     characters (quotes in op printers etc.) *)
  let (module Bad : Model.Iset.S) = (List.hd Mutants.iset_mutants).iset in
  let bad = Lint.lint_iset (module Bad) in
  Alcotest.(check bool) "mutant produces errors" true (Report.errors bad > 0);
  let json = Report.json_of_findings bad in
  Alcotest.(check bool) "json is an array" true
    (String.length json >= 2 && json.[0] = '[' && json.[String.length json - 1] = ']')

(* 8. Space lint: the overrun mutant is an Error, the symbolic-only overrun
   is a Warning (never observed concretely), and a sound protocol is quiet. *)
let test_space_lint () =
  let rules sev fs =
    List.filter_map
      (fun f -> if f.Report.severity = sev then Some f.Report.rule else None)
      fs
  in
  let overrun =
    List.find (fun (m : Mutants.proto_mutant) -> m.expected_rule = "space-claim-violated")
      Mutants.proto_mutants
  in
  let fs = Space.lint overrun.proto ~n:2 in
  Alcotest.(check bool) "overrun mutant: error" true
    (List.mem "space-claim-violated" (rules Report.Error fs));
  let fs = Space.lint Mutants.symmetric_control ~n:2 in
  Alcotest.(check int) "control protocol: no errors" 0 (Report.errors fs)

(* 9. CFG extraction terminates on every registry protocol: the symbolic
   unfolding either closes into a finite step graph (retry loops become
   back-edges) or reports why it was truncated — it never diverges or
   raises.  Untruncated builds must have unfolded a root for every
   (pid, input) in the sampled grid. *)
let test_cfg_terminates () =
  List.iter
    (fun (row : Hierarchy.row) ->
      let (module P : Consensus.Proto.S) = row.protocol in
      let cfg = Cfg.of_proto (module P) ~n:2 in
      Alcotest.(check bool) (row.id ^ ": cfg has nodes") true
        (Cfg.node_count cfg >= 1);
      if cfg.Cfg.truncated = None then
        List.iter
          (fun pid ->
            List.iter
              (fun input ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: root for pid %d input %d" row.id pid input)
                  true
                  (List.mem_assoc (pid, input) cfg.Cfg.roots))
              [ 0; 1 ])
          [ 0; 1 ])
    (Hierarchy.rows ())

(* Concrete worst-case footprint: the schedule portfolio plus a bounded
   exhaustive walk, both counting distinct locations touched.  This is the
   ground truth the abstract footprint must dominate. *)
let concrete_worst_footprint (module P : Consensus.Proto.S) ~inputs ~depth =
  let worst = ref 0 in
  let note used = if used > !worst then worst := used in
  let scheds =
    [ Model.Sched.sequential; Model.Sched.round_robin;
      Model.Sched.random ~seed:1; Model.Sched.random ~seed:2 ]
  in
  List.iter
    (fun sched ->
      match Consensus.Driver.run ~fuel:20_000 (module P) ~inputs ~sched with
      | r -> note r.Consensus.Driver.locations_used
      | exception _ -> ())
    scheds;
  let module M = Model.Machine.Make (P.I) in
  let n = Array.length inputs in
  let seen = Hashtbl.create 1024 in
  let rec go d cfg =
    note (M.locations_used cfg);
    if d > 0 then
      List.iter
        (fun pid ->
          let cfg' = M.step cfg pid in
          let key = (M.fingerprint cfg', M.locations_used cfg') in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            go (d - 1) cfg'
          end)
        (M.running cfg)
  in
  (match M.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid)) with
   | cfg0 -> (try go depth cfg0 with _ -> ())
   | exception _ -> ());
  !worst

(* 10. Registry-wide footprint domination differential: wherever the
   abstract interpretation completes (no truncation, converged, no Top),
   its certified feasible footprint dominates every concretely observed
   footprint, and the feasible footprint is a subset of the
   may-footprint. *)
let test_footprint_domination () =
  let complete = ref 0 in
  List.iter
    (fun (row : Hierarchy.row) ->
      let (module P : Consensus.Proto.S) = row.protocol in
      (* reduced work budget: rows that complete do so well within it, and
         rows that would truncate at the default budget truncate cheaply
         instead of burning a million feeds to report the same verdict *)
      let a =
        Absint.analyze_uncached ~work_budget:200_000 ~inputs:[ 0; 1 ]
          (module P) ~n:2
      in
      List.iter
        (fun loc ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: feasible loc %d is in may-footprint" row.id loc)
            true
            (List.mem loc a.Absint.footprint_all))
        a.Absint.footprint_feasible;
      if a.Absint.complete then begin
        incr complete;
        let bound = List.length a.Absint.footprint_feasible in
        List.iter
          (fun inputs ->
            let worst = concrete_worst_footprint (module P) ~inputs ~depth:6 in
            Alcotest.(check bool)
              (Printf.sprintf "%s (inputs %d,%d): certified bound %d >= concrete %d"
                 row.id inputs.(0) inputs.(1) bound worst)
              true (worst <= bound))
          [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ]
      end)
    (Hierarchy.rows ());
  Alcotest.(check bool) "several rows analyze to completion" true (!complete >= 3)

(* 11. CFG-vs-lockstep differential: wherever both certifiers are decisive
   on a registry row, their verdict constructors agree — the CFG route may
   say Unknown (truncated build falls back to lockstep in [certify]), but
   it must never contradict the reference unfolding. *)
let test_cfg_lockstep_agreement () =
  let compared = ref 0 in
  List.iter
    (fun (row : Hierarchy.row) ->
      let (module P : Consensus.Proto.S) = row.protocol in
      match Reference.certify_lockstep (module P) ~n:2 with
      | Symmetry.Unknown _ -> ()
      | lock -> (
        let pair_inputs = Symmetry.all_pair_inputs ~n:2 [ 0; 1 ] in
        match
          Symmetry.certify_cfg_pairs (module P) ~n:2
            ~depth:Symmetry.default_depth pair_inputs
        with
        | Symmetry.Unknown _ -> ()
        | cfg ->
          incr compared;
          let same =
            match (lock, cfg) with
            | Symmetry.Certified_symmetric _, Symmetry.Certified_symmetric _
            | Symmetry.Asymmetric _, Symmetry.Asymmetric _ ->
              true
            | _ -> false
          in
          Alcotest.(check bool)
            (Format.asprintf "%s: cfg (%a) agrees with lockstep (%a)" row.id
               Symmetry.pp_verdict cfg Symmetry.pp_verdict lock)
            true same))
    (Hierarchy.rows ());
  Alcotest.(check bool) "both certifiers decisive on several rows" true
    (!compared >= 5)

(* 12. Deep-depth regression: the loop-bearing upper-bound protocols that
   used to exhaust the lockstep unfolding budget at depth 12 now certify
   through the CFG route (equal roots hold through any depth). *)
let test_deep_certification () =
  List.iter
    (fun id ->
      match Hierarchy.find id with
      | None -> Alcotest.failf "registry row %s missing" id
      | Some row -> (
        let (module P : Consensus.Proto.S) = row.protocol in
        match Symmetry.certify (module P) ~n:2 ~depth:12 with
        | Symmetry.Certified_symmetric _ -> ()
        | v -> Alcotest.failf "%s at depth 12: %a" id Symmetry.pp_verdict v))
    [ "increment"; "fetch-incr"; "max-register"; "fetch-add"; "fetch-multiply" ]

(* 12b. The certifier order, differentially: [Symmetry.certify_staged]
   (lockstep under a small budget, then the CFG, then lockstep under the
   full budget) prints the verdict the CFG-first order printed.  Through
   [certify], lint's entry point, on every registry row (the rc- rows
   included) at lint's depth and inputs; through [certify_for_run], the
   exploration gate, on the retry-loop rows at depth 12 with equal inputs,
   where the CFG stage certifies at n = 2 and increment and fetch-incr fail
   every stage at n = 3. *)
let test_certifier_order () =
  let show = Format.asprintf "%a" Symmetry.pp_verdict in
  let agree entry ~depth (row : Hierarchy.row) ~n pairs got =
    let (module P : Consensus.Proto.S) = row.protocol in
    Alcotest.(check string)
      (Printf.sprintf "%s n=%d depth %d: %s" row.id n depth entry)
      (show (Reference.certify_cfg_first ~depth (module P) ~n pairs))
      (show got)
  in
  List.iter
    (fun (row : Hierarchy.row) ->
      List.iter
        (fun n ->
          agree "certify" ~depth:Symmetry.default_depth row ~n
            (Symmetry.all_pair_inputs ~n [ 0; 1 ])
            (Symmetry.certify row.protocol ~n))
        [ 2; 3 ])
    (Hierarchy.rows ~recovery:true ());
  List.iter
    (fun id ->
      match Hierarchy.find id with
      | None -> Alcotest.failf "registry row %s missing" id
      | Some row ->
        List.iter
          (fun n ->
            let inputs = Array.make n 0 in
            agree "certify_for_run" ~depth:12 row ~n (Symmetry.equal_input_pairs inputs)
              (Symmetry.certify_for_run ~depth:12 row.protocol ~inputs))
          [ 2; 3 ])
    [ "increment"; "fetch-incr"; "max-register"; "fetch-add"; "fetch-multiply"; "inc-dec" ]

(* 12c. No machine has fewer than one process: lint refuses such an n
   before analysing anything, with the message the CLI prints. *)
let test_lint_refuses_empty_machine () =
  List.iter
    (fun ns ->
      match Lint.run ~ns () with
      | exception Invalid_argument msg ->
        Alcotest.(check (option string)) "the CLI's message" (Lint.ns_error ns) (Some msg)
      | fs -> Alcotest.failf "lint accepted ns with n < 1 (%d findings)" (List.length fs))
    [ [ 0 ]; [ 2; -1 ] ];
  Alcotest.(check (option string)) "n >= 1 passes" None (Lint.ns_error [ 1; 2; 3 ])

(* 13. The analysis output, pinned: the exact [Absint] summary on rows that
   cover every outcome of [Cfg.Make.build] — complete, complete with a dead
   branch, deepened signatures over Top locations, the node budget, no
   stable quotient, and the work budget — and on the two rows whose feeds
   raise most (buffer-2, where 82 % of the feeds are rejected history
   entries, and swap).  For those two the distinct [Raises] payloads of the
   sampled-alphabet graph under the same budget are pinned as well.  A
   faster build must produce the same graphs. *)
let test_absint_pinned () =
  let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  let summary (a : Absint.t) =
    Printf.sprintf
      "%d/%d/%d sig %d work %d truncated %s converged %b tops [%s] complete %b dead %d \
       undecided %d"
      a.nodes a.edges a.retro_edges a.sig_depth a.work
      (Option.value a.truncated ~default:"-")
      a.converged
      (String.concat "," (List.map string_of_int a.tops))
      a.complete a.dead_nodes a.undecided_nodes
  in
  List.iter
    (fun (id, n, work_budget, want, feasible) ->
      match Hierarchy.find id with
      | None -> Alcotest.failf "registry row %s missing" id
      | Some row ->
        let a = Absint.analyze_uncached ?work_budget ~inputs:[ 0; 1 ] row.protocol ~n in
        let label = Printf.sprintf "%s n=%d" id n in
        Alcotest.(check string) (label ^ " summary") want (summary a);
        Alcotest.(check (list int)) (label ^ " feasible footprint") feasible
          a.footprint_feasible)
    [
      ( "write01", 2, None,
        "34/66/2 sig 1 work 602 truncated - converged true tops [] complete true dead 0 \
         undecided 34",
        range 0 31 );
      ( "cas", 2, None,
        "5/8/0 sig 1 work 40 truncated - converged true tops [] complete true dead 1 \
         undecided 0",
        [ 0 ] );
      ( "inc-dec", 3, None,
        "25/63/12 sig 3 work 9020 truncated - converged true tops [2,3] complete false \
         dead 8 undecided 1",
        range 0 3 );
      ( "tas", 3, None,
        "4000/7822/3492 sig 1 work 47952 truncated node budget exhausted at 4000 nodes \
         converged true tops [] complete false dead 81 undecided 3919",
        range 0 4 @ List.filter (fun l -> l mod 3 <> 2) (range 6 255) );
      ( "increment", 3, None,
        "104/382/270 sig 4 work 165865 truncated no stable quotient up to signature \
         depth 4 converged true tops [2,3,4,5] complete false dead 0 undecided 1",
        range 0 5 );
      ( "max-register", 2, Some 50_000,
        "42/86/45 sig 3 work 50001 truncated work budget exceeded at 50000 feeds \
         converged true tops [] complete false dead 5 undecided 37",
        [ 0; 1 ] );
      ( "buffer-2", 2, None,
        "4000/21972/0 sig 3 work 88306 truncated node budget exhausted at 4000 nodes \
         converged true tops [0] complete false dead 0 undecided 4000",
        [ 0 ] );
      ( "swap", 2, Some 200_000,
        "982/3880/967 sig 2 work 200001 truncated work budget exceeded at 200000 feeds \
         converged true tops [0] complete false dead 0 undecided 982",
        [ 0 ] );
    ];
  let raises (g : Cfg.t) =
    Array.fold_left
      (fun acc (nd : Cfg.node) ->
        Array.fold_left
          (fun acc (e : Cfg.edge) ->
            match e.target with
            | Cfg.Raises m when not (List.mem m acc) -> m :: acc
            | _ -> acc)
          acc nd.edges)
      [] g.nodes
    |> List.sort compare
  in
  let rejected prefix vs =
    List.map (fun v -> Printf.sprintf "Invalid_argument(\"%s %s\")" prefix v) vs
  in
  List.iter
    (fun (id, n, work_budget, want) ->
      match Hierarchy.find id with
      | None -> Alcotest.failf "registry row %s missing" id
      | Some row ->
        Alcotest.(check (list string))
          (Printf.sprintf "%s n=%d raises" id n)
          want
          (raises (Cfg.of_proto ?work_budget row.protocol ~n)))
    [
      ("buffer-2", 2, None, rejected "History: malformed buffer entry" [ "0"; "1" ]);
      ( "swap", 2, Some 200_000,
        rejected "Swap_protocol: malformed location" [ "0"; "1"; "2" ] );
    ]

(* 14. The memoized printer prints what [Format.asprintf] prints — asked
   twice, so the second answer comes from its table — on every sampled op
   and cell of each registry instruction set and on what [apply] makes of
   them, and its sampled alphabet is the first-seen printed-distinct
   results of [apply] over the sampled cells.  Its [exn_str] prints what
   [Printexc.to_string] prints, asked twice, on what each registry row's
   root continuations raise on sampled results, and on exceptions it must
   not serve from its table: one carrying a closure, and floats [compare]
   equates but [Printexc] prints apart. *)
exception Carries_closure of (int -> int)
exception Carries_float of float

let test_print_agrees () =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (row : Hierarchy.row) ->
      let (module P : Consensus.Proto.S) = row.protocol in
      let module I = P.I in
      if not (Hashtbl.mem seen I.name) then begin
        Hashtbl.add seen I.name ();
        let module Pr = Cfg.Print (I) in
        let check what pp str x =
          let want = Format.asprintf "%a" pp x in
          for _ = 1 to 2 do
            Alcotest.(check string) (Printf.sprintf "%s: %s" I.name what) want (str x)
          done
        in
        let cells = I.sample_cells () in
        List.iter (check "cell" I.pp_cell Pr.cell_str) cells;
        List.iter
          (fun op ->
            check "op" I.pp_op Pr.op_str op;
            let printed = ref [] in
            List.iter
              (fun c ->
                match I.apply op c with
                | c', r ->
                  check "result" I.pp_result Pr.res_str r;
                  check "cell" I.pp_cell Pr.cell_str c';
                  let s = Format.asprintf "%a" I.pp_result r in
                  if not (List.mem s !printed) then printed := s :: !printed
                | exception _ -> ())
              cells;
            Alcotest.(check (list string))
              (Printf.sprintf "%s: sampled alphabet of %s" I.name (Pr.op_str op))
              (List.rev !printed)
              (List.map Pr.res_str (Pr.sampled op)))
          (I.sample_ops ())
      end)
    (Hierarchy.rows ~recovery:true ());
  let raised = ref [] in
  List.iter
    (fun (row : Hierarchy.row) ->
      let (module P : Consensus.Proto.S) = row.protocol in
      let module Pr = Cfg.Print (P.I) in
      let exns = ref [] in
      List.iter
        (fun input ->
          for pid = 0 to 1 do
            match P.proc ~n:2 ~pid ~input with
            | Model.Proc.Step ((_ :: _ as accs), k) ->
              let vectors =
                List.fold_left
                  (fun acc (_, op) ->
                    List.concat_map
                      (fun pre -> List.map (fun r -> pre @ [ r ]) (Pr.sampled op))
                      acc)
                  [ [] ] accs
              in
              List.iter
                (fun rs -> match k rs with _ -> () | exception e -> exns := e :: !exns)
                vectors
            | _ | (exception _) -> ()
          done)
        [ 0; 1 ];
      let exns = List.rev !exns in
      List.iter
        (fun e ->
          let want = Printexc.to_string e in
          for _ = 1 to 2 do
            Alcotest.(check string) (row.id ^ ": exn_str") want (Pr.exn_str e)
          done)
        (exns @ [ Carries_closure succ; Carries_float 0.; Carries_float (-0.) ]);
      raised := List.map Printexc.to_string exns @ !raised)
    (Hierarchy.rows ~recovery:true ());
  Alcotest.(check bool) "root continuations reject some sampled result" true
    (List.exists
       (fun m -> m = {|Invalid_argument("History: malformed buffer entry 1")|})
       !raised)

(* 15. [Cfg.Make.relabel] is the rebuild it skips: a graph built under one
   set of feasibility flags and relabelled under another equals the graph
   built under the other, in every node term, edge label, target and flag,
   root, truncation, signature depth and work count; every registry row,
   recovery rows included, at n = 2 and 3.  The flags are seeded hashes of
   (location, op, result), so they move on many edges.  An alphabet with
   one read result reordered or dropped must make [relabel] refuse. *)
let test_relabel_equals_rebuild () =
  let moved = ref 0 in
  List.iter
    (fun (row : Hierarchy.row) ->
      let (module P : Consensus.Proto.S) = row.protocol in
      let module C = Cfg.Make (P) in
      let flagged seed loc op =
        List.map
          (fun r -> (r, Hashtbl.hash (seed, loc, C.op_str op, C.res_str r) land 1 = 0))
          (C.sampled op)
      in
      List.iter
        (fun n ->
          let label what = Printf.sprintf "%s n=%d: %s" row.id n what in
          let build results =
            C.build ~work_budget:20_000 ~results ~n ~inputs:[ 0; 1 ] ()
          in
          let a = build (flagged 1) and b = build (flagged 2) in
          match C.relabel a ~results:(flagged 2) with
          | None -> Alcotest.failf "%s" (label "relabel refused the same result lists")
          | Some r ->
            let nodes f (g : C.graph) = Array.map f g.cfg.nodes in
            let terms = nodes (fun nd -> nd.Cfg.term) in
            let edges = nodes (fun nd -> nd.Cfg.edges) in
            Alcotest.(check bool) (label "node terms") true (terms r = terms b);
            Alcotest.(check bool) (label "edges") true (edges r = edges b);
            Alcotest.(check bool) (label "roots") true (r.cfg.roots = b.cfg.roots);
            Alcotest.(check (option string)) (label "truncation") b.cfg.truncated
              r.cfg.truncated;
            Alcotest.(check int) (label "signature depth") b.cfg.sig_depth
              r.cfg.sig_depth;
            Alcotest.(check int) (label "work") b.cfg.work r.cfg.work;
            Array.iter2
              (fun (x : Cfg.node) (y : Cfg.node) ->
                Array.iter2
                  (fun (e : Cfg.edge) (e' : Cfg.edge) ->
                    if e.feasible <> e'.feasible then incr moved)
                  x.edges y.edges)
              a.cfg.nodes r.cfg.nodes;
            (* the same flags, with one read alphabet reordered or cut short *)
            let key =
              match List.find_opt (fun (_, rs) -> List.length rs >= 2) a.alphabets with
              | Some (key, _) -> key
              | None -> Alcotest.failf "%s" (label "no alphabet lists two results")
            in
            List.iter
              (fun (what, edit) ->
                let results loc op =
                  let rs = flagged 2 loc op in
                  if (loc, op) = key then edit rs else rs
                in
                Alcotest.(check bool) (label ("refuses " ^ what)) true
                  (C.relabel a ~results = None))
              [ ("a reordered alphabet", List.rev); ("a dropped result", List.tl) ])
        [ 2; 3 ])
    (Hierarchy.rows ~recovery:true ());
  Alcotest.(check bool) "the flags moved on some edge" true (!moved > 0)

let () =
  Alcotest.run "analysis"
    [
      ( "selftest",
        [
          Alcotest.test_case "mutant corpus selftest" `Quick test_selftest;
          Alcotest.test_case "registry lints clean" `Slow test_registry_lints_clean;
          Alcotest.test_case "refuses n below 1" `Quick test_lint_refuses_empty_machine;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "verdicts on known protocols" `Quick
            test_symmetry_verdicts;
          Alcotest.test_case "verdicts on mutants" `Quick test_symmetry_mutants;
        ] );
      ( "gate",
        [
          Alcotest.test_case "refuses uncertified" `Quick test_gate_refuses_uncertified;
          Alcotest.test_case "passes certified" `Quick test_gate_passes_certified;
          Alcotest.test_case "certified reduction differential" `Quick
            test_certified_reduction_differential;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "real isets and report JSON" `Quick
            test_contracts_and_report;
          Alcotest.test_case "space lint severities" `Quick test_space_lint;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "extraction terminates registry-wide" `Quick
            test_cfg_terminates;
          Alcotest.test_case "footprint domination differential" `Slow
            test_footprint_domination;
          Alcotest.test_case "cfg-vs-lockstep verdict agreement" `Slow
            test_cfg_lockstep_agreement;
          Alcotest.test_case "deep-depth certification" `Quick
            test_deep_certification;
          Alcotest.test_case "certifier order matches CFG-first" `Quick
            test_certifier_order;
          Alcotest.test_case "analysis summaries pinned" `Quick test_absint_pinned;
          Alcotest.test_case "memoized printer agrees with Format" `Quick
            test_print_agrees;
          Alcotest.test_case "relabel equals rebuild" `Quick test_relabel_equals_rebuild;
        ] );
    ]
