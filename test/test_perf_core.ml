(* Differential tests for the raw-speed pass over the exploration core:
   the maintained flat fingerprint vs the reference fold, the Scratch probe
   workspace vs the persistent machine, the sharded transposition table and
   symmetry cache under concurrent domains, op interning, and the Bignum
   small-operand fast paths. *)

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
          Alcotest.failf "%s: flat fp %d maps to slow fps %d and %d" name f s' s
      | None -> Hashtbl.add by_flat f s);
      match Hashtbl.find_opt by_slow s with
      | Some f' ->
        if f' <> f then
          Alcotest.failf "%s: slow fp %d maps to flat fps %d and %d" name s f' f
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

(* A commute-reduced run pays only for its walk: the sleep-set filter's
   commutation matrix fills from the ops the walk meets, so where the
   reduction prunes nothing the reduced run visits the same configurations
   as the unreduced one and allocates about as much.  These runs take well
   under a millisecond, so any per-run pre-pass over the protocol (building
   its CFG, say) would dominate them: it shows here as an allocation ratio
   of 10^3 or more, and under a short deadline as a run that times out
   before its first configuration. *)
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
(* Interning. *)

let test_intern_poly () =
  let module I = Model.Intern.Poly (struct
    type t = string * int
  end) in
  let t = I.create () in
  Alcotest.(check int) "empty" 0 (I.size t);
  let a = I.id t ("read", 0) in
  let b = I.id t ("write", 1) in
  let a' = I.id t ("read", 0) in
  Alcotest.(check int) "ids dense from zero" 0 a;
  Alcotest.(check int) "second key gets next id" 1 b;
  Alcotest.(check int) "re-interning is stable" a a';
  Alcotest.(check int) "size counts distinct keys" 2 (I.size t);
  Alcotest.(check (pair string int)) "value roundtrips" ("write", 1) (I.value t b);
  Alcotest.check_raises "unassigned id raises"
    (Invalid_argument "Intern.value: unknown id") (fun () -> ignore (I.value t 9))

let test_intern_custom_hash () =
  (* equality coarser than (=): ids must follow the custom equality *)
  let module I = Model.Intern.Make (struct
    type t = int

    let equal a b = a land 0xff = b land 0xff
    let hash x = x land 0xff
  end) in
  let t = I.create ~size:4 () in
  let a = I.id t 0x101 in
  let b = I.id t 0x201 in
  Alcotest.(check int) "custom equality conflates" a b;
  Alcotest.(check int) "one key interned" 1 (I.size t)

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
          Alcotest.test_case "probe steps counted" `Quick test_probe_steps_counted;
        ] );
      ( "transposition",
        [
          Alcotest.test_case "claim-list plan semantics" `Quick
            test_transposition_plan_semantics;
          Alcotest.test_case "concurrent visit uniqueness" `Quick
            test_transposition_concurrent_stress;
        ] );
      ( "symmetry-cache",
        [
          Alcotest.test_case "concurrent certification" `Quick
            test_symmetry_cache_concurrent;
        ] );
      ( "intern",
        [
          Alcotest.test_case "poly table basics" `Quick test_intern_poly;
          Alcotest.test_case "custom equality" `Quick test_intern_custom_hash;
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
