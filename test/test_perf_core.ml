(* Differential tests for the raw-speed pass over the exploration core:
   the maintained flat fingerprint vs the reference fold, the Scratch probe
   workspace vs the persistent machine, the flat transposition table vs the
   claim-list reference and under concurrent domains, the machine's
   per-process words vs the recorded trace, the symmetry cache under
   concurrent domains, and the Bignum small-operand fast paths. *)

(* ------------------------------------------------------------------ *)
(* Fingerprint partition agreement.

   The flat (incrementally maintained) fingerprint and the from-scratch
   reference fold produce different *values* by design; what must coincide
   is the partition they induce over reachable configurations: two configs
   get equal flat fingerprints iff they get equal slow fingerprints.  We
   enumerate the schedule tree of every registry protocol and check both
   directions, for the plain and the canonical (pid-symmetric) variants —
   and the crash-bearing trees of the recovery rows, where recovery epochs
   enter both fingerprints. *)

let check_partition name pairs =
  let by_flat = Hashtbl.create 97 and by_slow = Hashtbl.create 97 in
  List.iter
    (fun (f, s) ->
      (match Hashtbl.find_opt by_flat f with
      | Some s' ->
        if s' <> s then
          Alcotest.failf "%s: one flat fp maps to slow fps %d and %d" name s' s
      | None -> Hashtbl.add by_flat f s);
      match Hashtbl.find_opt by_slow s with
      | Some f' ->
        if f' <> f then Alcotest.failf "%s: slow fp %d maps to two flat fps" name s
      | None -> Hashtbl.add by_slow s f)
    pairs

(* All (flat, slow, canonical-flat, canonical-slow) fingerprint quadruples of
   configurations reachable within [depth] steps and [crashes]
   crash–recoveries, capped at [cap] configs. *)
let fingerprint_quads ?(crashes = 0) (module P : Consensus.Proto.S) ~inputs ~depth ~cap =
  let module M = Model.Machine.Make (P.I) in
  let n = Array.length inputs in
  let root =
    M.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid))
  in
  let out = ref [] and count = ref 0 in
  let rec go d cfg =
    if !count < cap then begin
      incr count;
      out :=
        ( M.fingerprint cfg,
          M.slow_fingerprint cfg,
          M.canonical_fingerprint ~inputs cfg,
          M.slow_canonical_fingerprint ~inputs cfg )
        :: !out;
      if d > 0 then begin
        List.iter (fun pid -> go (d - 1) (M.step cfg pid)) (M.running cfg);
        if M.crashes cfg < crashes then
          List.iter (fun pid -> go (d - 1) (M.crash_recover cfg pid)) (M.crashable cfg)
      end
    end
  in
  go depth root;
  !out

let test_fingerprint_partition_registry () =
  let check_row ?crashes ~depth ~cap (row : Hierarchy.row) =
    List.iter
      (fun inputs ->
        let quads = fingerprint_quads ?crashes row.protocol ~inputs ~depth ~cap in
        Alcotest.(check bool)
          (row.id ^ ": enumerated some configurations")
          true
          (List.length quads > 1);
        check_partition (row.id ^ " plain") (List.map (fun (f, s, _, _) -> (f, s)) quads);
        check_partition (row.id ^ " canonical")
          (List.map (fun (_, _, f, s) -> (f, s)) quads))
      (* duplicate inputs make the canonical quotient non-trivial *)
      [ [| 0; 1 |]; [| 1; 1 |] ]
  in
  List.iter (check_row ~depth:4 ~cap:400) (Hierarchy.rows ());
  List.iter
    (fun (row : Hierarchy.row) ->
      if String.starts_with ~prefix:"rc-" row.id then
        check_row ~crashes:2 ~depth:8 ~cap:3000 row)
    (Hierarchy.rows ~recovery:true ())

(* Init-write aliasing: a location explicitly holding the initial value and
   an untouched location must fingerprint identically — in both the flat and
   the fold implementation.  The test instruction set's [Write x] returns the
   old cell, so "read loc 5" and "write 0 to loc 5" observe the same result
   (0) and leave behaviourally identical configurations that differ only in
   whether loc 5 is materialized in the memory map. *)
module Alias_cell = struct
  type cell = int
  type op = Read | Write of int
  type result = int

  let name = "{read, write} (aliasing test)"
  let init = 0
  let apply op c = match op with Read -> (c, c) | Write x -> (x, c)
  let trivial = function Read -> true | Write _ -> false
  let commutes a b = trivial a && trivial b
  let multi_assignment = false
  let equal_cell = Int.equal
  let hash_cell c = c
  let hash_result r = r
  let observe_result r = Some r
  let pp_cell = Format.pp_print_int

  let pp_op ppf = function
    | Read -> Format.pp_print_string ppf "read"
    | Write x -> Format.fprintf ppf "write %d" x

  let pp_result = Format.pp_print_int
  let sample_cells = Model.Iset.memo (fun () -> [ 0; 1; 2 ])
  let sample_ops = Model.Iset.memo (fun () -> [ Read; Write 0; Write 1 ])
end

module AM = Model.Machine.Make (Alias_cell)

let alias_cfg op =
  let root =
    AM.make ~record_trace:false ~n:1 (fun _ ->
        Model.Proc.Step ([ (5, op) ], fun _ -> Model.Proc.Done 0))
  in
  AM.step root 0

let test_init_write_aliasing () =
  let a = alias_cfg Alias_cell.Read in
  let b = alias_cfg (Alias_cell.Write 0) in
  Alcotest.(check bool)
    "flat conflates untouched and explicitly-init" true
    (AM.fingerprint a = AM.fingerprint b);
  Alcotest.(check bool)
    "fold conflates untouched and explicitly-init" true
    (AM.slow_fingerprint a = AM.slow_fingerprint b);
  (* and a genuinely different write is not conflated by either *)
  let c = alias_cfg (Alias_cell.Write 1) in
  Alcotest.(check bool) "flat separates a real write" false
    (AM.fingerprint a = AM.fingerprint c);
  Alcotest.(check bool) "fold separates a real write" false
    (AM.slow_fingerprint a = AM.slow_fingerprint c)

(* ------------------------------------------------------------------ *)
(* Scratch probe workspace vs the persistent machine.

   Every probe the checker runs is: solo-run one process, then solo-run each
   remaining running process once, then read the decisions.  The mutable
   workspace must agree with the persistent machine on decisions, the
   running set, and the decision list at every reachable configuration. *)

let scratch_differential (module P : Consensus.Proto.S) ~inputs ~depth ~cap name =
  let module M = Model.Machine.Make (P.I) in
  let n = Array.length inputs in
  let root =
    M.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid))
  in
  let fuel = 2000 in
  let count = ref 0 in
  let rec go d cfg =
    if !count < cap then begin
      incr count;
      List.iter
        (fun pid ->
          (* single solo run *)
          let pc, pdec = M.run_solo ~fuel ~pid cfg in
          let s = M.Scratch.of_config cfg in
          let sdec = M.Scratch.run_solo ~fuel ~pid s in
          Alcotest.(check (option int))
            (Printf.sprintf "%s: solo decision of pid %d" name pid)
            pdec sdec;
          (* full probe chain: finish every remaining process solo *)
          let pc =
            List.fold_left (fun c q -> fst (M.run_solo ~fuel ~pid:q c)) pc (M.running pc)
          in
          List.iter
            (fun q -> ignore (M.Scratch.run_solo ~fuel ~pid:q s))
            (M.Scratch.running s);
          Alcotest.(check (list int))
            (name ^ ": running set after probe chain")
            (M.running pc) (M.Scratch.running s);
          Alcotest.(check (list (pair int int)))
            (name ^ ": decisions after probe chain")
            (M.decisions pc)
            (M.Scratch.decisions s))
        (M.running cfg);
      if d > 0 then List.iter (fun pid -> go (d - 1) (M.step cfg pid)) (M.running cfg)
    end
  in
  go depth root

let test_scratch_vs_persistent () =
  List.iter
    (fun (row : Hierarchy.row) ->
      scratch_differential row.protocol ~inputs:[| 0; 1 |] ~depth:3 ~cap:60 row.id)
    (Hierarchy.rows ())

(* Process 0 spins until location 0 holds a number, then decides it. *)
let spinner =
  let open Model.Proc.Syntax in
  Model.Proc.rec_loop () (fun () ->
      let* v = Isets.Rw.read 0 in
      match v with
      | Model.Value.Int w -> Model.Proc.return (Either.Right w)
      | _ -> Model.Proc.return (Either.Left ()))

(* The spinner beside a process that writes its input to location 0: the
   spinner solo never decides (a stuck probe), but decides once the writer
   has run. *)
let spin : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "spin"
    let locations ~n:_ = Some 1

    let proc ~n:_ ~pid ~input =
      let open Model.Proc.Syntax in
      if pid = 0 then spinner
      else
        let* () = Isets.Rw.write 0 (Model.Value.Int input) in
        Model.Proc.return input
  end)

(* Two spinners beside a process that decides after one read and writes
   nothing, so both spinners are left running after it (a starved probe,
   whose straggler is the lower one), and a blocked process that never
   runs at all. *)
let starve : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "starve"
    let locations ~n:_ = Some 2

    let proc ~n:_ ~pid ~input =
      let open Model.Proc.Syntax in
      match pid with
      | 1 ->
        let* _ = Isets.Rw.read 1 in
        Model.Proc.return input
      | 2 -> Model.Proc.loop_forever ()
      | _ -> spinner
  end)

(* A process that never decides (spins waiting for a write that cannot
   arrive solo) must be classified identically by both implementations. *)
let test_scratch_undecided () =
  let (module P : Consensus.Proto.S) = spin in
  let module M = Model.Machine.Make (P.I) in
  let root = M.make ~record_trace:false ~n:2 (fun pid -> P.proc ~n:2 ~pid ~input:pid) in
  let _, pdec = M.run_solo ~fuel:500 ~pid:0 root in
  let s = M.Scratch.of_config root in
  let sdec = M.Scratch.run_solo ~fuel:500 ~pid:0 s in
  Alcotest.(check (option int)) "spinner undecided in both" pdec sdec;
  Alcotest.(check (option int)) "spinner ran out of fuel" None sdec

(* The leg table vs the Scratch chain.

   A memo walk (each configuration once) visits every configuration within
   [depth] steps — and [crashes] crash–recoveries — and at each one probes
   every running pid through one leg table per protocol, so later probes hit
   the legs of earlier ones, miss, and re-run pending hit legs to reach a
   miss.  Chain outcome and solo decision must equal the Scratch chain's,
   the probe chain the engine ran before the leg table.  Returns the steps
   the table ran and the steps the same chains take run in full. *)
let legs_differential ?(crashes = 0) (module P : Consensus.Proto.S) ~inputs ~depth ~fuel
    name =
  let module M = Model.Machine.Make (P.I) in
  let n = Array.length inputs in
  let root =
    M.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid))
  in
  let legs = M.Legs.create () in
  let show = function
    | `Stuck -> "stuck"
    | `Starved q -> Printf.sprintf "starved p%d" q
    | `Decided ds ->
      "decided "
      ^ String.concat "," (List.map (fun (p, v) -> Printf.sprintf "p%d=%d" p v) ds)
  in
  let scratch_steps = ref 0 in
  let scratch_chain cfg pid =
    let pc, _ = M.run_solo ~fuel ~pid cfg in
    let pc =
      if M.decision pc pid = None then pc
      else List.fold_left (fun c q -> fst (M.run_solo ~fuel ~pid:q c)) pc (M.running pc)
    in
    scratch_steps := !scratch_steps + M.steps pc - M.steps cfg;
    let s = M.Scratch.of_config cfg in
    match M.Scratch.run_solo ~fuel ~pid s with
    | None -> `Stuck
    | Some _ ->
      List.iter (fun q -> ignore (M.Scratch.run_solo ~fuel ~pid:q s)) (M.Scratch.running s);
      (match M.Scratch.running s with
       | q :: _ -> `Starved q
       | [] -> `Decided (M.Scratch.decisions s))
  in
  let seen = Hashtbl.create 97 in
  let rec go d cfg =
    if not (Hashtbl.mem seen (M.fingerprint_words cfg)) then begin
      Hashtbl.add seen (M.fingerprint_words cfg) ();
      List.iter
        (fun pid ->
          let what = Printf.sprintf "%s: p%d after %d steps" name pid (M.steps cfg) in
          let solo () =
            Alcotest.(check (option int)) (what ^ ", solo decision")
              (M.Scratch.run_solo ~fuel ~pid (M.Scratch.of_config cfg))
              (M.Legs.solo legs ~fuel cfg pid)
          in
          (* alternate the order so that solo runs miss too *)
          if Hashtbl.length seen mod 2 = 0 then solo ();
          Alcotest.(check string) (what ^ ", probe chain")
            (show (scratch_chain cfg pid))
            (show (M.Legs.probe legs ~fuel cfg pid));
          solo ())
        (M.running cfg);
      if d > 0 then begin
        List.iter (fun pid -> go (d - 1) (M.step cfg pid)) (M.running cfg);
        if M.crashes cfg < crashes then
          List.iter (fun pid -> go (d - 1) (M.crash_recover cfg pid)) (M.crashable cfg)
      end
    end
  in
  go depth root;
  (M.Legs.steps legs, !scratch_steps)

let test_legs_vs_scratch () =
  let inputs (row : Hierarchy.row) n =
    Array.init n (fun i -> if row.binary_only then i land 1 else i)
  in
  let runs =
    List.concat_map
      (fun (row : Hierarchy.row) ->
        [ (row.id ^ " n=2", row.protocol, inputs row 2, 6, 0);
          (row.id ^ " n=3", row.protocol, inputs row 3, 4, 0) ])
      (Hierarchy.rows ())
    @ List.filter_map
        (fun (row : Hierarchy.row) ->
          if String.starts_with ~prefix:"rc-" row.id then
            Some (row.id ^ " n=2 crashes=2", row.protocol, inputs row 2, 8, 2)
          else None)
        (Hierarchy.rows ~recovery:true ())
    @ [ ("earliest-writer n=3", Consensus.Assignment_protocol.earliest_writer,
         [| 0; 1; 2 |], 3, 0);
        ("spin", spin, [| 0; 1 |], 3, 0);
        ("starve", starve, [| 0; 1; 2; 3 |], 3, 0) ]
  in
  List.iter
    (fun (name, proto, inputs, depth, crashes) ->
      let ran, full = legs_differential ~crashes proto ~inputs ~depth ~fuel:300 name in
      if ran >= full then
        Alcotest.failf "%s: the leg table ran %d solo steps, the full chains %d" name ran full)
    runs

(* ------------------------------------------------------------------ *)
(* Engine differential: verdicts, witness schedules and decidable-value
   sets must agree across engines and reductions, and with the references
   in [Reference]. *)

let verdict_kind = function
  | Explore.Completed _ -> "completed"
  | Explore.Timed_out _ -> "timeout"
  | Explore.Falsified (f : Explore.failure) -> f.witness.kind

(* rw's writes embed the writer's pid, so it is *not* pid-symmetric and the
   symmetric reduction rightly refuses it — only the certified protocols get
   the [full] reduction in the matrix. *)
let reductions_for ~symmetric_ok =
  [
    ("none", Explore.no_reduction);
    ("commute", { Explore.commute = true; symmetric = false });
  ]
  @ if symmetric_ok then [ ("full", Explore.full_reduction) ] else []

let test_engine_differential () =
  let protos =
    [
      ("rw", Consensus.Rw_protocol.protocol, [| 0; 1; 1 |], 6, false);
      ("maxreg", Consensus.Maxreg_protocol.protocol, [| 0; 1; 1 |], 6, true);
      ("cas", Consensus.Cas_protocol.protocol, [| 1; 1; 1 |], 8, true);
      ("arith-add", Consensus.Arith_protocols.add, [| 0; 1 |], 8, true);
    ]
  in
  List.iter
    (fun (name, proto, inputs, depth, symmetric_ok) ->
      let reference =
        verdict_kind (Explore.run ~probe:`Leaves ~engine:`Naive proto ~inputs ~depth)
      in
      List.iter
        (fun (ename, engine) ->
          List.iter
            (fun (rname, reduce) ->
              let v =
                verdict_kind
                  (Explore.run ~probe:`Leaves ~engine ~reduce proto ~inputs ~depth)
              in
              Alcotest.(check string)
                (Printf.sprintf "%s: %s/%s verdict" name ename rname)
                reference v)
            (reductions_for ~symmetric_ok))
        [ ("naive", `Naive); ("memo", `Memo); ("parallel-2", `Parallel 2) ])
    protos

(* A broken protocol: the memo engine finds the agreement violation, and the
   shrunk witness schedule replays to it. *)
let broken_disagree : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "broken-disagree"
    let locations ~n:_ = Some 0
    let proc ~n:_ ~pid ~input:_ = Model.Proc.return pid
  end)

let test_witness_replays () =
  let fail_of = function
    | Explore.Falsified (f : Explore.failure) -> f
    | _ -> Alcotest.fail "expected a violation"
  in
  let f =
    fail_of (Explore.run ~engine:`Memo broken_disagree ~inputs:[| 0; 1 |] ~depth:3)
  in
  Alcotest.(check string) "violation kind" "agreement" f.witness.kind;
  match Explore.replay broken_disagree ~inputs:[| 0; 1 |] f.witness with
  | Ok r ->
    Alcotest.(check bool) "witness replays to a violation" true (r.violation <> None)
  | Error e -> Alcotest.failf "replay failed: %s" e

let test_decidable_values_differential () =
  List.iter
    (fun (name, proto, inputs, depth, symmetric_ok) ->
      let values = function
        | Explore.Completed vs -> List.sort_uniq compare vs
        | _ -> Alcotest.fail (name ^ ": decidable_values did not complete")
      in
      let reference =
        match Reference.decidable_values_naive proto ~inputs ~depth with
        | Ok vs -> vs
        | Error e -> Alcotest.fail (name ^ ": reference walk failed: " ^ e)
      in
      Alcotest.(check bool) (name ^ ": bivalent") true (List.length reference >= 2);
      List.iter
        (fun (rname, reduce) ->
          let vs = values (Explore.decidable_values ~reduce proto ~inputs ~depth) in
          Alcotest.(check (list int))
            (Printf.sprintf "%s: %s decidable set" name rname)
            reference vs)
        (reductions_for ~symmetric_ok))
    [
      ("rw", Consensus.Rw_protocol.protocol, [| 0; 1; 1 |], 5, false);
      ("maxreg", Consensus.Maxreg_protocol.protocol, [| 0; 1; 1 |], 5, true);
    ]

(* A commute-reduced run pays only for its walk: the sleep-set filter asks
   the instruction set about the ops the walk meets and keeps nothing per
   run, so where the reduction prunes nothing the reduced run visits the
   same configurations as the unreduced one and allocates about as much.
   These runs take well under a millisecond, so any per-run pre-pass over
   the protocol (building its CFG, say) would dominate them: it shows here
   as an allocation ratio of 10^3 or more, and under a short deadline as a
   run that times out before its first configuration. *)
let test_commute_pays_for_its_walk () =
  let commute = { Explore.commute = true; symmetric = false } in
  let protocol id =
    match Hierarchy.find id with
    | Some r -> r.protocol
    | None -> Alcotest.failf "row %s missing" id
  in
  let configs name = function
    | Explore.Completed s -> s.Explore.configs
    | v -> Alcotest.failf "%s: %s, expected completed" name (verdict_kind v)
  in
  let measured run =
    ignore (run ());
    let w0 = Gc.minor_words () in
    let v = run () in
    (v, Gc.minor_words () -. w0)
  in
  List.iter
    (fun id ->
      let run reduce () =
        Explore.run ~engine:`Memo ~reduce (protocol id) ~inputs:[| 0; 1 |] ~depth:2
      in
      let plain, plain_words = measured (run Explore.no_reduction) in
      let reduced, reduced_words = measured (run commute) in
      Alcotest.(check int)
        (id ^ ": same configurations with and without commute")
        (configs id plain) (configs id reduced);
      if reduced_words > 2. *. plain_words then
        Alcotest.failf "%s: commute run allocated %.0f minor words, unreduced %.0f" id
          reduced_words plain_words)
    [ "swap"; "set-bit"; "tas" ];
  let v =
    Explore.run ~engine:`Memo ~deadline:0.1 ~reduce:commute (protocol "swap")
      ~inputs:[| 0; 1 |] ~depth:6
  in
  Alcotest.(check int) "swap n=2 d=6 commute completes within 0.1 s" 47
    (configs "swap deadline" v)

(* What a commute memo walk allocates per visited configuration, measured
   like the test above (the second of two runs, on one domain): rw n = 4
   d = 12 without probes.  The successor configuration, its history words,
   the schedule cell and the table's claim are the floor; the sibling loop
   itself allocates nothing — no running list, no closure, no option per
   independence query.  With the interned commutation matrix of earlier
   versions this read 212 words; the bound leaves room for the GC's
   accounting to drift, not for that design to return. *)
let test_commute_words_per_config () =
  let proto =
    match Hierarchy.find "rw" with
    | Some r -> r.protocol
    | None -> Alcotest.fail "row rw missing"
  in
  let run () =
    Explore.run ~engine:`Memo ~probe:`Never
      ~reduce:{ Explore.commute = true; symmetric = false }
      proto ~inputs:[| 0; 1; 2; 3 |] ~depth:12
  in
  ignore (run ());
  let w0 = Gc.minor_words () in
  let v = run () in
  let words = Gc.minor_words () -. w0 in
  match v with
  | Explore.Completed s ->
    let per_config = words /. float_of_int s.Explore.configs in
    if per_config > 170. then
      Alcotest.failf "rw n=4 d=12 commute memo: %.0f minor words per configuration (> 170)"
        per_config
  | v -> Alcotest.failf "rw n=4 d=12 commute memo: %s, expected completed" (verdict_kind v)

(* [probe_steps] counts the solo steps the probes actually ran.  Before
   the leg table, the probes of the memo run below executed 809,919 solo
   steps (their chains' lengths summed); the table reuses the legs sibling
   leaves share, so the run executes well under a quarter of that, with
   the same configurations and probes.  Under [`Parallel 2] every probe
   runs in a worker, so a count that dropped the workers' tables would
   read zero. *)
let test_probe_steps_counted () =
  let run engine =
    match
      Explore.run ~probe:`Leaves ~engine Consensus.Rw_protocol.protocol
        ~inputs:[| 0; 1; 2; 3 |] ~depth:10
    with
    | Explore.Completed s -> s
    | v -> Alcotest.failf "rw n=4 d=10: %s, expected completed" (verdict_kind v)
  in
  let s = run `Memo in
  Alcotest.(check int) "configs" 6157 s.configs;
  Alcotest.(check int) "probes" 11584 s.probes;
  if s.probe_steps <= 0 || 4 * s.probe_steps >= 809_919 then
    Alcotest.failf "memo ran %d probe steps, want 1 .. %d" s.probe_steps (809_919 / 4);
  let p = run (`Parallel 2) in
  Alcotest.(check int) "parallel probes" 11584 p.probes;
  if p.probe_steps <= 0 then
    Alcotest.failf "parallel-2 counted %d probe steps" p.probe_steps

(* ------------------------------------------------------------------ *)
(* Sharded transposition table. *)

let test_transposition_plan_semantics () =
  let t = Transposition.create ~concurrent:false () in
  Alcotest.(check int) "sequential table has one shard" 1 (Transposition.shard_count t);
  (* first sight explores in full *)
  (match Transposition.plan t 42 99 ~depth:5 ~sleep:0 with
  | Transposition.Visit -> ()
  | _ -> Alcotest.fail "first visit must be Visit");
  (* covered revisit: same key, shallower, superset sleep *)
  (match Transposition.plan t 42 99 ~depth:5 ~sleep:0 with
  | Transposition.Hit -> ()
  | _ -> Alcotest.fail "exact revisit must be Hit");
  (match Transposition.plan t 42 99 ~depth:3 ~sleep:0b101 with
  | Transposition.Hit -> ()
  | _ -> Alcotest.fail "shallower revisit with more sleep must be Hit");
  (* deeper revisit was not covered *)
  (match Transposition.plan t 42 99 ~depth:7 ~sleep:0 with
  | Transposition.Visit -> ()
  | _ -> Alcotest.fail "deeper revisit must be Visit");
  (* incomparable sleep set at a covered depth: re-explore only the
     transitions every adequate prior pass had asleep *)
  let t2 = Transposition.create ~concurrent:false () in
  (match Transposition.plan t2 1 2 ~depth:4 ~sleep:0b011 with
  | Transposition.Visit -> ()
  | _ -> Alcotest.fail "fresh key must be Visit");
  (match Transposition.plan t2 1 2 ~depth:4 ~sleep:0b110 with
  | Transposition.Partial inter -> Alcotest.(check int) "intersection" 0b011 inter
  | _ -> Alcotest.fail "incomparable sleep must be Partial");
  (* distinct lane-b under equal lane-a is a distinct key *)
  (match Transposition.plan t2 1 3 ~depth:4 ~sleep:0b011 with
  | Transposition.Visit -> ()
  | _ -> Alcotest.fail "distinct key must be Visit");
  Alcotest.(check int) "two keys claimed" 2 (Transposition.stats t2)

let test_transposition_concurrent_stress () =
  let t = Transposition.create ~shards:16 ~concurrent:true () in
  Alcotest.(check int) "requested shard count" 16 (Transposition.shard_count t);
  let domains = 4 and keys = 2000 in
  let visits = Array.init domains (fun _ -> Array.make keys 0) in
  let spawned =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            (* every domain races over every key; exactly one domain may win
               the Visit for each *)
            for k = 0 to keys - 1 do
              match Transposition.plan t k (k * 31) ~depth:6 ~sleep:0 with
              | Transposition.Visit -> visits.(d).(k) <- visits.(d).(k) + 1
              | Transposition.Hit -> ()
              | Transposition.Partial _ ->
                Alcotest.fail "equal sleep sets can never yield Partial"
            done))
  in
  Array.iter Domain.join spawned;
  for k = 0 to keys - 1 do
    let total = Array.fold_left (fun acc v -> acc + v.(k)) 0 visits in
    if total <> 1 then
      Alcotest.failf "key %d claimed %d Visits (want exactly 1)" k total
  done;
  Alcotest.(check int) "every key claimed once" keys (Transposition.stats t)

(* The flat table against the claim-list reference ([Reference.Claim_table],
   the layout it replaced), on seeded plan traffic.  Keys come from a small
   pool in which most keys share their low lane bits — one shard, one home
   slot until the table has grown past those bits, so probe chains run
   long — plus the all-zero lanes; a key's share of the traffic shrinks as
   the pool opens up, so keys collect several claims while the table
   doubles.  Depths 0–20 and sleep sets over 6 pids make incomparable
   claims common, which exercises the spill pool and the four-claim cap. *)
let test_transposition_vs_claim_lists () =
  let run ?shards ~concurrent seed =
    let rng = Random.State.make [| seed |] in
    let pool_size = 4000 in
    let shared_low = 0x2a5 in
    let keys =
      Array.init pool_size (fun i ->
          if i = 0 then (0, 0)
          else if i mod 4 = 0 then (Random.State.bits rng, Random.State.bits rng)
          else
            ( (Random.State.bits rng lsl 12) lor shared_low,
              (Random.State.bits rng lsl 10) lor shared_low ))
    in
    let t = Transposition.create ?shards ~concurrent () in
    let r = Reference.Claim_table.create () in
    let calls = 100_000 in
    let hits = ref 0 and visits = ref 0 and partials = ref 0 in
    for i = 1 to calls do
      let a, b = keys.(Random.State.int rng (min pool_size (1 + (i / 20)))) in
      let depth = Random.State.int rng 21 and sleep = Random.State.int rng 64 in
      let got = Transposition.plan t a b ~depth ~sleep in
      let want = Reference.Claim_table.plan r a b ~depth ~sleep in
      if got <> want then
        Alcotest.failf "seed %d call %d: key (%d, %d) depth %d sleep %d: plans differ" seed
          i a b depth sleep;
      match got with
      | Transposition.Hit -> incr hits
      | Visit -> incr visits
      | Partial _ -> incr partials
    done;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: keys claimed" seed)
      (Reference.Claim_table.stats r) (Transposition.stats t);
    (* the traffic reached every rule and grew the table well past its
       first few doublings *)
    List.iter
      (fun (what, k) ->
        if k < 1000 then Alcotest.failf "seed %d: only %d %s plans" seed k what)
      [ ("Hit", !hits); ("Visit", !visits); ("Partial", !partials) ];
    if Transposition.stats t < 3000 then
      Alcotest.failf "seed %d: only %d keys claimed" seed (Transposition.stats t)
  in
  run ~concurrent:false 1;
  run ~concurrent:false 2;
  run ~concurrent:true 3;
  run ~shards:4 ~concurrent:true 4

(* Claims pack depth and sleep set into one int, so input that does not fit
   is refused before anything is explored. *)
let test_claim_range_guard () =
  let proto = Consensus.Rw_protocol.protocol in
  let commute = { Explore.commute = true; symmetric = false } in
  let wide = Array.make (Transposition.max_sleep_pids + 1) 0 in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "run: commute over too many processes" (fun () ->
      Explore.run ~engine:`Memo ~probe:`Never ~reduce:commute proto ~inputs:wide ~depth:0);
  refused "decidable_values: commute over too many processes" (fun () ->
      Explore.decidable_values ~reduce:commute proto ~inputs:wide ~depth:0);
  refused "deepen: commute over too many processes" (fun () ->
      Explore.deepen ~reduce:commute proto ~inputs:wide ~max_depth:1);
  let inputs = [| 0; 1 |] and deep = Transposition.max_depth + 1 in
  refused "run: depth past the depth field" (fun () ->
      Explore.run ~engine:`Memo proto ~inputs ~depth:deep);
  refused "run: negative depth" (fun () -> Explore.run ~engine:`Memo proto ~inputs ~depth:(-1));
  refused "decidable_values: depth past the depth field" (fun () ->
      Explore.decidable_values proto ~inputs ~depth:deep);
  refused "deepen: max_depth past the depth field" (fun () ->
      Explore.deepen proto ~inputs ~max_depth:deep);
  (* what fits runs: the widest commute run, and any n without commute *)
  let fits what v =
    match v with
    | Explore.Completed _ -> ()
    | _ -> Alcotest.failf "%s: did not complete" what
  in
  fits "commute at the sleep field's width"
    (Explore.run ~engine:`Memo ~probe:`Never ~reduce:commute proto
       ~inputs:(Array.make Transposition.max_sleep_pids 0) ~depth:1);
  fits "no commute past the sleep field's width"
    (Explore.run ~engine:`Memo ~probe:`Never proto ~inputs:wide ~depth:1)

(* ------------------------------------------------------------------ *)
(* The machine's per-process words and memory-derived space accounting,
   against values recomputed from the recorded trace: seeded random crashy
   schedules over every registry row (the multiple-assignment buffer rows
   included) at n = 2 and 3.  At every configuration of a schedule,
   [locations_used] and [max_location] must match the locations its steps
   accessed, [steps_of] and [epoch] its steps and crashes per process,
   [crashable] the processes that stepped since their last crash, and
   [fingerprint_words] must draw the same partition as
   [slow_fingerprint]. *)
let test_lean_step_vs_trace () =
  let schedule (row : Hierarchy.row) n seed =
    let (module P : Consensus.Proto.S) = row.protocol in
    let module M = Model.Machine.Make (P.I) in
    let rng = Random.State.make [| seed; n; Hashtbl.hash row.id |] in
    let pick l = List.nth l (Random.State.int rng (List.length l)) in
    let inputs =
      Array.init n (fun i -> if row.binary_only then Random.State.int rng 2 else i)
    in
    let name = Printf.sprintf "%s n=%d seed %d" row.id n seed in
    let check cfg =
      let locs = Hashtbl.create 8 in
      let steps = Array.make n 0 and epochs = Array.make n 0 and since = Array.make n 0 in
      List.iter
        (function
          | M.Step { pid; accesses } ->
            List.iter (fun (loc, _, _) -> Hashtbl.replace locs loc ()) accesses;
            steps.(pid) <- steps.(pid) + 1;
            since.(pid) <- since.(pid) + 1
          | M.Crash { pid; _ } ->
            epochs.(pid) <- epochs.(pid) + 1;
            since.(pid) <- 0)
        (M.trace cfg);
      let locs = Hashtbl.fold (fun l () acc -> l :: acc) locs [] in
      Alcotest.(check int) (name ^ ": locations_used") (List.length locs) (M.locations_used cfg);
      Alcotest.(check (option int))
        (name ^ ": max_location")
        (List.fold_left (fun m l -> Some (max l (Option.value m ~default:l))) None locs)
        (M.max_location cfg);
      for pid = 0 to n - 1 do
        Alcotest.(check int) (Printf.sprintf "%s: steps_of %d" name pid) steps.(pid)
          (M.steps_of cfg pid);
        Alcotest.(check int) (Printf.sprintf "%s: epoch %d" name pid) epochs.(pid)
          (M.epoch cfg pid)
      done;
      Alcotest.(check (list int))
        (name ^ ": crashable")
        (List.filter (fun pid -> since.(pid) > 0) (List.init n Fun.id))
        (M.crashable cfg);
      (M.fingerprint_words cfg, M.slow_fingerprint cfg)
    in
    (* up to 60 events; a crash one time in six, or whenever nothing runs *)
    let rec go k cfg acc =
      let running = M.running cfg and crashable = M.crashable cfg in
      let next =
        if crashable <> [] && (running = [] || Random.State.int rng 6 = 0) then
          Some (M.crash_recover cfg (pick crashable))
        else if running <> [] then Some (M.step cfg (pick running))
        else None
      in
      match next with
      | Some cfg when k > 0 -> go (k - 1) cfg (check cfg :: acc)
      | _ -> acc
    in
    let root = M.make ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid)) in
    go 60 root [ check root ]
  in
  List.iter
    (fun (row : Hierarchy.row) ->
      List.iter
        (fun n ->
          (* equal trace prefixes give equal configurations, so pairs recur
             across the schedules *)
          check_partition
            (Printf.sprintf "%s n=%d" row.id n)
            (List.concat_map (schedule row n) [ 1; 2; 3; 4 ]))
        [ 2; 3 ])
    (Hierarchy.rows ~recovery:true ())

(* ------------------------------------------------------------------ *)
(* Sharded symmetry cache under concurrent certification. *)

let test_symmetry_cache_concurrent () =
  Analysis.Symmetry.reset_run_cache ();
  let protos =
    [
      Consensus.Tugofwar_protocol.protocol;
      Consensus.Maxreg_protocol.protocol;
      Consensus.Cas_protocol.protocol;
      Consensus.Arith_protocols.add;
    ]
  in
  let certify () =
    List.map
      (fun p ->
        Analysis.Symmetry.certified
          (Analysis.Symmetry.certify_for_run p ~inputs:[| 1; 1; 1 |]))
      protos
  in
  let spawned = Array.init 4 (fun _ -> Domain.spawn certify) in
  let results = Array.map Domain.join spawned in
  Array.iter
    (fun r ->
      Alcotest.(check (list bool))
        "all protocols certify from every domain"
        [ true; true; true; true ]
        r)
    results;
  (* the cache survives a reset: recertification still works *)
  Analysis.Symmetry.reset_run_cache ();
  Alcotest.(check (list bool))
    "recertifies after reset"
    [ true; true; true; true ]
    (certify ())

(* ------------------------------------------------------------------ *)
(* Bignum small-operand fast paths, differentially against the general
   multi-limb code. *)

let interesting =
  [
    0; 1; -1; 2; -2; 7; -7; 0x7fffffff; -0x7fffffff; 0x80000000; -0x80000000;
    (1 lsl 62) - 1; -((1 lsl 62) - 1); 1 lsl 62; max_int; min_int + 1; min_int;
  ]

let test_compare_int_grid () =
  List.iter
    (fun x ->
      let bx = Bignum.of_int x in
      List.iter
        (fun y ->
          let want = Bignum.compare bx (Bignum.of_int y) in
          Alcotest.(check int)
            (Printf.sprintf "compare_int %d %d" x y)
            want
            (Bignum.compare_int bx y);
          Alcotest.(check bool)
            (Printf.sprintf "equal_int %d %d" x y)
            (want = 0) (Bignum.equal_int bx y))
        interesting;
      (* also against a value the int grid cannot reach *)
      let huge = Bignum.pow (Bignum.of_int 2) 200 in
      Alcotest.(check bool) "huge > every int" true (Bignum.compare_int huge x > 0);
      Alcotest.(check bool) "-huge < every int" true
        (Bignum.compare_int (Bignum.neg huge) x < 0))
    interesting

(* Route the same arithmetic through the multi-limb path by shifting the
   operands far above one limb, and check the results agree. *)
let test_small_arith_fast_paths () =
  let shift = Bignum.pow (Bignum.of_int 2) 120 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ba = Bignum.of_int a and bb = Bignum.of_int b in
          (* add: (a·2^120 + b·2^120) / 2^120 = a + b *)
          let fast = Bignum.add ba bb in
          let slow, rem =
            Bignum.divmod (Bignum.add (Bignum.mul ba shift) (Bignum.mul bb shift)) shift
          in
          Alcotest.(check bool) "exact division" true (Bignum.is_zero rem);
          Alcotest.(check bool)
            (Printf.sprintf "add %d %d" a b)
            true (Bignum.equal fast slow);
          (* mul: (a·2^120 · b) / 2^120 = a·b *)
          let fast = Bignum.mul ba bb in
          let slow, rem = Bignum.divmod (Bignum.mul (Bignum.mul ba shift) bb) shift in
          Alcotest.(check bool) "exact division" true (Bignum.is_zero rem);
          Alcotest.(check bool)
            (Printf.sprintf "mul %d %d" a b)
            true (Bignum.equal fast slow))
        [ 0; 1; -1; 3; -3; 0x7fffffff; -0x40000001 ])
    [ 0; 1; -1; 5; -5; 0x7fffffff; -0x7fffffff ]

let test_divmod_small_fast_path () =
  List.iter
    (fun x ->
      let bx = Bignum.of_int x in
      List.iter
        (fun d ->
          let q, r = Bignum.divmod_small bx d in
          let q', r' = Bignum.divmod bx (Bignum.of_int d) in
          Alcotest.(check bool)
            (Printf.sprintf "divmod_small %d %d quotient" x d)
            true (Bignum.equal q q');
          Alcotest.(check bool)
            (Printf.sprintf "divmod_small %d %d remainder" x d)
            true
            (Bignum.equal (Bignum.of_int r) r'))
        [ 1; 2; 3; 7; 1000; 0x7fffffff ])
    [ 0; 1; -1; 17; -17; 0x7ffffffe; -0x7ffffffe; (1 lsl 61) + 5; -((1 lsl 61) + 5) ]

let test_to_int_valuation_fast_paths () =
  List.iter
    (fun x ->
      Alcotest.(check (option int))
        (Printf.sprintf "to_int (of_int %d)" x)
        (Some x)
        (Bignum.to_int (Bignum.of_int x)))
    interesting;
  (* 2-limb to_int: values needing both limbs *)
  let v = (123 lsl 31) lor 456 in
  Alcotest.(check (option int)) "two-limb to_int" (Some v) (Bignum.to_int (Bignum.of_int v));
  Alcotest.(check (option int))
    "huge value does not fit"
    None
    (Bignum.to_int (Bignum.pow (Bignum.of_int 2) 200));
  (* valuation p-adic on one-limb values, against the definition *)
  List.iter
    (fun (m, p, k) ->
      let x = Bignum.mul (Bignum.of_int m) (Bignum.pow (Bignum.of_int p) k) in
      let got_k, rest = Bignum.valuation x p in
      Alcotest.(check int) (Printf.sprintf "valuation %d^%d·%d" p k m) k got_k;
      Alcotest.(check bool) "cofactor" true (Bignum.equal rest (Bignum.of_int m)))
    [ (1, 2, 0); (3, 2, 5); (-3, 2, 5); (7, 5, 3); (-1, 3, 9); (11, 7, 0) ]

let () =
  Alcotest.run "perf_core"
    [
      ( "fingerprints",
        [
          Alcotest.test_case "registry partition agreement" `Slow
            test_fingerprint_partition_registry;
          Alcotest.test_case "init-write aliasing" `Quick test_init_write_aliasing;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "probe differential over registry" `Slow
            test_scratch_vs_persistent;
          Alcotest.test_case "undecided classification" `Quick test_scratch_undecided;
          Alcotest.test_case "leg table vs scratch chain" `Quick test_legs_vs_scratch;
        ] );
      ( "engines",
        [
          Alcotest.test_case "verdicts across engines x reductions" `Slow
            test_engine_differential;
          Alcotest.test_case "memo witness replays" `Quick test_witness_replays;
          Alcotest.test_case "decidable-value sets vs naive reference" `Slow
            test_decidable_values_differential;
          Alcotest.test_case "commute run pays only for its walk" `Quick
            test_commute_pays_for_its_walk;
          Alcotest.test_case "commute memo words per configuration" `Quick
            test_commute_words_per_config;
          Alcotest.test_case "probe steps counted" `Quick test_probe_steps_counted;
        ] );
      ( "transposition",
        [
          Alcotest.test_case "claim-list plan semantics" `Quick
            test_transposition_plan_semantics;
          Alcotest.test_case "concurrent visit uniqueness" `Quick
            test_transposition_concurrent_stress;
          Alcotest.test_case "flat table vs claim lists" `Quick
            test_transposition_vs_claim_lists;
          Alcotest.test_case "claim range guard" `Quick test_claim_range_guard;
        ] );
      ( "machine",
        [ Alcotest.test_case "lean step vs trace" `Quick test_lean_step_vs_trace ] );
      ( "symmetry-cache",
        [
          Alcotest.test_case "concurrent certification" `Quick
            test_symmetry_cache_concurrent;
        ] );
      ( "bignum-fast-paths",
        [
          Alcotest.test_case "compare_int grid" `Quick test_compare_int_grid;
          Alcotest.test_case "add/mul vs multi-limb" `Quick test_small_arith_fast_paths;
          Alcotest.test_case "divmod_small" `Quick test_divmod_small_fast_path;
          Alcotest.test_case "to_int and valuation" `Quick
            test_to_int_valuation_fast_paths;
        ] );
    ]
