(* One repetition of a benchmark workload, or one pass of layer
   micro-measurements, per process: every repetition pays exactly the cold
   start a CLI call pays (module initialisation, empty analysis caches,
   empty heap, fresh store directory).  [run.py] builds this executable,
   spawns it repeatedly and aggregates the repetitions into medians.

     bench.exe rep WORKLOAD --seed N [--rep I] [--trace] [--tiny] [--spawn-time T]
                   [--scratch DIR]
     bench.exe layers WORKLOAD --seed N [--tiny]
     bench.exe ref

   Each prints one JSON object as its last line of standard output.  [ref]
   times the fixed reference search that measures the host's speed (see
   [reference_search]).

   Workloads:
   - [mc-liveness]: what [modelcheck] does by default — memo engine, leaf
     probes, the built-in checker, no reduction — on five Table-1 rows at
     n = 4.  Solo probes dominate.
   - [mc-safety]: probe-free deep safety checks with the commutativity
     reduction at n = 4, plus crash-budget runs of the two recovery rows
     under the recoverable observers (rc-cas certified, rc-tas-naive
     falsified with a witness that must replay).
   - [static]: registry lint (contracts, symmetry certification, space
     claims) over a row subset, then CFG abstract interpretation on rows
     that cover a retry loop, a buffer row and complete certificates.
   - [campaign]: a cold two-domain campaign over the Table-1 grid into a
     fresh store, then reading everything back and a warm rerun that must
     execute nothing.

   The seed draws every task's input vector (a permutation of the row's
   input pattern — see [inputs]) and the task order; the library only ever
   sees the generated inputs.  [static] takes no inputs (see
   [static_rep]).  Every task's verdict is checked against the
   expectation recorded here; a mismatch is a failure. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------ tracing -- *)

(* Spans around the calls this file makes into each layer.  Kept in memory
   and summarised at exit: total and self time per span name, where self
   time is the span's duration minus the time its child spans cover.  With
   tracing off [span] is a plain call. *)
module Trace = struct
  type frame = { start : float; mutable children : float }

  let on = ref false
  let stack : frame list ref = ref []
  let totals : (string, float) Hashtbl.t = Hashtbl.create 32
  let selfs : (string, float) Hashtbl.t = Hashtbl.create 32

  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

  let span name f =
    if not !on then f ()
    else begin
      let fr = { start = now (); children = 0. } in
      stack := fr :: !stack;
      let finish () =
        let dur = now () -. fr.start in
        stack := List.tl !stack;
        (match !stack with p :: _ -> p.children <- p.children +. dur | [] -> ());
        add totals name dur;
        add selfs name (dur -. fr.children)
      in
      Fun.protect ~finally:finish f
    end

  let total name = Option.value ~default:0. (Hashtbl.find_opt totals name)
end

(* Named per-layer values of this process, in insertion order. *)
let metrics : (string * float) list ref = ref []
let metric name v = metrics := (name, v) :: !metrics

(* ------------------------------------------------------------ helpers -- *)

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let shuffled rng l =
  let a = Array.of_list l in
  shuffle rng a;
  Array.to_list a

(* A task's inputs: a seeded permutation of the row's input pattern
   (0 … n-1, or alternating bits for binary-only rows).  The pattern is
   fixed because a free draw with duplicates changes a task's work by up to
   20× (max-register n=4 d=14: 0000 explores 7k configurations, 0123 71k),
   which no affordable run length averages out; permuting it leaves every
   exploration count of the rows below unchanged. *)
let inputs rng (row : Hierarchy.row) n =
  let a = Array.init n (fun i -> if row.binary_only then i land 1 else i) in
  shuffle rng a;
  a

(* Each repetition of a run draws its own inputs, so a run's medians average
   over several draws of its seed. *)
let rep_index = ref 0
let rng_for ~seed workload = Random.State.make [| seed; !rep_index; Hashtbl.hash workload |]

let find_row rows id =
  match List.find_opt (fun (r : Hierarchy.row) -> r.id = id) rows with
  | Some r -> r
  | None -> failwith ("unknown registry row " ^ id)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec du path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc f -> acc + du (Filename.concat path f)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* ---------------------------------------------------------- task results *)

type result = {
  name : string;
  seconds : float;  (** time to verdict *)
  ok : bool;
  counts : (int * int * int * int) option;  (** configs, probes, dedup, sleep-pruned *)
}

let failures : string list ref = ref []

(* Exploration counts that differ from the recorded ones: visible, not
   failures — a reduction may legitimately change them. *)
let count_changes : string list ref = ref []

let judge ?counts name seconds ok why =
  if not ok then failures := (name ^ ": " ^ why) :: !failures;
  { name; seconds; ok; counts }

(* ------------------------------------------------------- model checking -- *)

type expect = Completes | Falsifies of string  (** violation kind *)

type check = {
  row : string;
  n : int;
  depth : int;
  probe : Explore.probe_policy;
  commute : bool;
  crashes : int;
  observe : string list;  (** observer names; [[]] is the built-in checker *)
  expect : expect;
  counts : (int * int * int option * int option) option;
      (** recorded configs, probes, dedup hits, sleep-pruned; [None] dedup
          and sleep counts depend on the input permutation (the sleep sets
          of max-register and add under [commute] do) *)
}

let live ?counts ~n row depth =
  { row; n; depth; probe = `Leaves; commute = false; crashes = 0; observe = [];
    expect = Completes; counts }

let safe ?counts ?(crashes = 0) ?(observe = []) ?(expect = Completes) ~n row depth =
  { row; n; depth; probe = `Never; commute = true; crashes; observe; expect; counts }

let recoverable = [ "recoverable-agreement"; "recoverable-validity" ]

let checks ~tiny = function
  | "mc-liveness" when tiny ->
    [ live ~n:3 "rw" 6; live ~n:3 "swap" 6; live ~n:3 "max-register" 6;
      live ~n:3 "add" 5; live ~n:3 "buffer-2" 6 ]
  | "mc-liveness" ->
    [
      live ~n:4 "rw" 10 ~counts:(6157, 11584, Some 6888, Some 0);
      live ~n:4 "swap" 11 ~counts:(1997, 3008, Some 2984, Some 0);
      live ~n:4 "max-register" 12 ~counts:(22394, 39414, Some 27744, Some 0);
      live ~n:4 "add" 8 ~counts:(13841, 37904, Some 3616, Some 0);
      live ~n:4 "buffer-2" 9 ~counts:(4352, 9328, Some 3729, Some 0);
    ]
  | "mc-safety" when tiny ->
    [ safe ~n:3 "rw" 8; safe ~n:3 "max-register" 8; safe ~n:3 "add" 6;
      safe ~n:3 "buffer-2" 8;
      safe ~n:2 "rc-cas" 8 ~crashes:1 ~observe:recoverable;
      safe ~n:2 "rc-tas-naive" 8 ~crashes:1 ~observe:recoverable
        ~expect:(Falsifies "recoverable-agreement") ]
  | "mc-safety" ->
    [
      safe ~n:4 "rw" 15 ~counts:(98635, 0, Some 0, Some 139630);
      safe ~n:4 "max-register" 15 ~counts:(127654, 0, None, None);
      safe ~n:4 "add" 10 ~counts:(136231, 0, None, None);
      safe ~n:4 "buffer-2" 13 ~counts:(85238, 0, Some 0, Some 81147);
      safe ~n:4 "rc-cas" 13 ~crashes:2 ~observe:recoverable
        ~counts:(62784, 0, Some 117633, Some 50727);
      safe ~n:4 "rc-tas-naive" 12 ~crashes:2 ~observe:recoverable
        ~counts:(68, 0, Some 36, Some 0)
        ~expect:(Falsifies "recoverable-agreement");
    ]
  | w -> failwith ("no model-checking tasks in workload " ^ w)

let observers_of (c : check) =
  match Observer.of_names c.observe with Ok l -> l | Error e -> failwith e

let explore ?(engine = `Memo) (c : check) (row : Hierarchy.row) ~inputs =
  Explore.run ~probe:c.probe ~engine
    ~reduce:{ Explore.commute = c.commute; symmetric = false }
    ~crashes:c.crashes ~observers:(observers_of c) row.protocol ~inputs ~depth:c.depth

let task_name (c : check) =
  Printf.sprintf "%s n=%d d=%d%s" c.row c.n c.depth
    (if c.crashes > 0 then Printf.sprintf " crashes=%d" c.crashes else "")

(* Exploration totals of one repetition, for the traced per-layer view. *)
let configs = ref 0
let probes = ref 0
let dedup = ref 0
let sleep_pruned = ref 0
let engine_s = ref 0.

let note_stats (c : check) name (s : Explore.stats) =
  configs := !configs + s.configs;
  probes := !probes + s.probes;
  dedup := !dedup + s.dedup_hits;
  sleep_pruned := !sleep_pruned + s.sleep_pruned;
  engine_s := !engine_s +. s.elapsed;
  let pinned want got = Option.fold ~none:true ~some:(( = ) got) want in
  (match c.counts with
  | Some (cf, pr, dd, sl)
    when not
           (cf = s.configs && pr = s.probes && pinned dd s.dedup_hits
          && pinned sl s.sleep_pruned) ->
    let show = Option.fold ~none:"*" ~some:string_of_int in
    count_changes :=
      Printf.sprintf "%s: counts (%d, %d, %d, %d), recorded (%d, %d, %s, %s)" name
        s.configs s.probes s.dedup_hits s.sleep_pruned cf pr (show dd) (show sl)
      :: !count_changes
  | _ -> ());
  (s.configs, s.probes, s.dedup_hits, s.sleep_pruned)

let run_check (c : check) row ~inputs =
  let name = task_name c in
  let t0 = now () in
  let v = Trace.span "explore" (fun () -> explore c row ~inputs) in
  let seconds = now () -. t0 in
  match (v, c.expect) with
  | Explore.Completed s, Completes ->
    judge ~counts:(note_stats c name s) name seconds true ""
  | Explore.Falsified f, Falsifies kind ->
    let counts = note_stats c name f.stats in
    let w = f.witness in
    let replays =
      match
        Trace.span "witness.replay" (fun () ->
            Explore.replay ~observers:(observers_of c) row.protocol ~inputs w)
      with
      | Ok { violation = Some (k, _); _ } -> k = w.kind
      | Ok { violation = None; _ } | Error _ -> false
    in
    metric "witness.shrink_s" f.diagnosis_elapsed;
    metric "witness.shrink_attempts" (float f.shrink_attempts);
    metric "witness.schedule_found" (float (List.length f.original.schedule));
    metric "witness.schedule_shrunk" (float (List.length w.schedule));
    let got = Explore.kind_name w.kind in
    judge ~counts name seconds
      (got = kind && f.reproduced && replays)
      (Printf.sprintf "falsified as %s (expected %s), reproduced %b, shrunk witness replays %b"
         got kind f.reproduced replays)
  | Explore.Completed _, Falsifies k -> judge name seconds false ("completed; expected " ^ k)
  | Explore.Falsified f, Completes ->
    judge name seconds false ("falsified: " ^ Explore.failure_message f)
  | Explore.Timed_out _, _ -> judge name seconds false "timed out"

let mc_rep ~tiny ~seed workload =
  let rows = Hierarchy.rows ~recovery:true () in
  let rng = rng_for ~seed workload in
  let plan =
    List.map
      (fun (c : check) ->
        let row = find_row rows c.row in
        (c, row, inputs rng row c.n))
      (checks ~tiny workload)
  in
  let plan = shuffled rng plan in
  let t_first = now () in
  let results = List.map (fun (c, row, inputs) -> run_check c row ~inputs) plan in
  metric "explore.configs" (float !configs);
  metric "explore.probes" (float !probes);
  metric "explore.dedup_hits" (float !dedup);
  metric "explore.sleep_pruned" (float !sleep_pruned);
  metric "explore.engine_s" !engine_s;
  (t_first, results)

(* --------------------------------------------------------------- static -- *)

type symmetry = Symmetric | Asymmetric

let lint_rows ~tiny =
  if tiny then [ ("cas", Symmetric); ("add", Symmetric); ("write01", Symmetric) ]
  else
    [
      ("tas", Symmetric); ("max-register", Symmetric); ("increment", Symmetric);
      ("fetch-multiply", Symmetric); ("inc-dec", Symmetric); ("cas", Symmetric);
      ("add", Symmetric); ("write01", Symmetric); ("rc-cas", Asymmetric);
      ("rc-tas-naive", Asymmetric);
    ]

(* Rows for the CFG abstract interpretation: a retry loop (increment), a
   buffer row whose graph hits the node cap (buffer-2), and two rows the
   analysis certifies completely.  max-register, swap, tas, rw, buffer-1
   and multi-1 each take 1–40 s on a 2-core Xeon, too long to repeat. *)
let absint_rows ~tiny =
  if tiny then [ ("write01", Symmetric); ("tas-reset", Symmetric) ]
  else
    [ ("increment", Symmetric); ("buffer-2", Asymmetric); ("tas-reset", Symmetric);
      ("write01", Symmetric) ]

let static_ns = [ 2 ]
let certified = ref 0

let certify_row (module P : Consensus.Proto.S) ~n want =
  let v = Trace.span "analysis.symmetry" (fun () -> Analysis.Symmetry.certify (module P) ~n) in
  incr certified;
  let got =
    match v with
    | Analysis.Symmetry.Certified_symmetric _ -> Some Symmetric
    | Asymmetric _ -> Some Asymmetric
    | Unknown _ -> None
  in
  if got <> Some want then
    failures :=
      Format.asprintf "%s n=%d: symmetry %a" P.name n Analysis.Symmetry.pp_verdict v
      :: !failures;
  (v, got = Some want)

(* The analyses take no input vectors, and the task order stays fixed: a
   seeded order moved the heap peak by ±20% through GC pacing alone.  So
   the seed does not change this workload. *)
let static_rep ~tiny =
  let rows = Hierarchy.rows ~recovery:true () in
  let lint = List.map (fun (id, w) -> (find_row rows id, w)) (lint_rows ~tiny) in
  let absint = List.map (fun (id, w) -> (find_row rows id, w)) (absint_rows ~tiny) in
  let seen_isets = Hashtbl.create 16 in
  let nodes = ref 0 and work = ref 0 in
  let t_first = now () in
  (* [Analysis.Lint.lint_rows], one row at a time so each row is a task *)
  let lint_one ((row : Hierarchy.row), want) =
    let (module P : Consensus.Proto.S) = row.protocol in
    let t0 = now () in
    let iset =
      Trace.span "analysis.contracts" (fun () ->
          if Hashtbl.mem seen_isets P.I.name then []
          else begin
            Hashtbl.add seen_isets P.I.name ();
            Analysis.Lint.lint_iset (module P.I)
          end)
    in
    let findings, sym_ok =
      List.fold_left
        (fun (acc, ok) n ->
          let v, good = certify_row (module P) ~n want in
          let space = Trace.span "analysis.space" (fun () -> Analysis.Space.lint (module P) ~n) in
          ((Analysis.Lint.symmetry_finding (module P) ~n v :: space) @ acc, ok && good))
        (iset @ Analysis.Lint.crash_symmetry_finding row, true)
        static_ns
    in
    let errors = Analysis.Report.errors findings in
    judge ("lint " ^ row.id) (now () -. t0)
      (errors = 0 && sym_ok)
      (Printf.sprintf "%d lint errors, symmetry verdict as recorded: %b" errors sym_ok)
  in
  (* what [analyze] does per row *)
  let analyze_one ((row : Hierarchy.row), want) =
    let (module P : Consensus.Proto.S) = row.protocol in
    let t0 = now () in
    let a = Trace.span "analysis.absint" (fun () -> Analysis.Absint.analyze (module P) ~n:2) in
    let findings = Analysis.Absint.lint_findings ?declared:(P.locations ~n:2) a in
    let _, sym_ok = certify_row (module P) ~n:2 want in
    nodes := !nodes + a.nodes;
    work := !work + a.work;
    let errors = Analysis.Report.errors findings in
    judge ("analyze " ^ row.id) (now () -. t0)
      (errors = 0 && sym_ok)
      (Printf.sprintf "%d analysis errors, symmetry verdict as recorded: %b" errors sym_ok)
  in
  let results = List.map lint_one lint @ List.map analyze_one absint in
  metric "analysis.cfg_nodes" (float !nodes);
  metric "analysis.absint_work" (float !work);
  metric "analysis.symmetry_computed" (float !certified);
  (t_first, results)

(* ------------------------------------------------------------- campaign -- *)

(* Stress seeds stay the spec's own: half the grid is stress tasks, and
   seeding their schedules moved the median task time by half.  The grid
   keeps the spec's commute-only reduction, as [campaign run] does by
   default, so [Executor.run]'s symmetry precertification finds no task to
   certify and the analysis layer stays out of this workload. *)
let campaign_spec ~tiny =
  if tiny then { Campaign.Spec.smoke with include_rows = [ "cas"; "add"; "rw"; "swap" ] }
  else { Campaign.Spec.default with ns = [ 2; 3 ]; depths = [ 6; 8 ] }

let campaign_rep ~tiny ~seed ~scratch =
  let open Campaign in
  let rng = rng_for ~seed "campaign" in
  let dir = Filename.concat scratch (Printf.sprintf "store-%d" (Unix.getpid ())) in
  rm_rf dir;
  let tasks =
    Trace.span "campaign.task_build" (fun () ->
        match Spec.tasks (campaign_spec ~tiny) with
        | Error e -> failwith e
        | Ok tasks ->
          shuffled rng
            (List.map (fun (t : Task.t) -> { t with inputs = inputs rng t.row t.n }) tasks))
  in
  let total = List.length tasks in
  (* rows with identical observable behaviour share a task fingerprint: both
     copies execute, the store keeps one record *)
  let distinct = List.length (List.sort_uniq compare (List.map Task.fingerprint tasks)) in
  let store = Trace.span "store.create" (fun () -> Store.open_ ~dir ()) in
  let started = Array.make total infinity and finished = Array.make total neg_infinity in
  let on_event = function
    | Executor.Task_started { index; _ } -> started.(index) <- now ()
    | Executor.Task_finished { index; cached = false; _ } -> finished.(index) <- now ()
    | _ -> ()
  in
  let domains = 2 in
  let cold =
    Trace.span "campaign.executor" (fun () -> Executor.run ~domains ~on_event ~store tasks)
  in
  let t_first = Array.fold_left min infinity started in
  (* a task's time to verdict is its record's [elapsed], the check or
     stress run itself: writing the record and the telemetry line after it
     costs file-system latency, which drifted threefold across back-to-back
     runs on an ext4 disk; that cost is in [wall_s] and [store.*] *)
  let results =
    List.map2
      (fun t (r : Record.t) ->
        judge (Task.describe t) r.elapsed (r.status = Record.Verified)
          ("status " ^ Record.status_name r.status))
      tasks cold.records
  in
  let last_finish = Array.fold_left max neg_infinity finished in
  Store.close store;
  (* read everything back, as [campaign report] / [campaign status] do *)
  let st = Trace.span "store.open" (fun () -> Store.open_ ~dir ()) in
  let report = Trace.span "report.make" (fun () -> Report.make (Store.records st)) in
  let status = Trace.span "status.fold" (fun () -> Status.load ~dir) in
  let warm =
    Trace.span "campaign.resume" (fun () -> Executor.run ~domains ~store:st tasks)
  in
  let unexpected = List.length (Report.unexpected report) in
  let executions, duplicated =
    match status with Ok s -> (s.executions, s.duplicated) | Error _ -> (-1, -1)
  in
  let readback =
    judge "campaign readback" (now () -. last_finish)
      (cold.executed = total && unexpected = 0
       && Store.count st = distinct && executions = total
       && duplicated = total - distinct && warm.executed = 0)
      (Printf.sprintf
         "cold executed %d/%d, %d unexpected, %d/%d stored, status %d executions %d \
          duplicated, warm rerun executed %d"
         cold.executed total unexpected (Store.count st) distinct executions duplicated
         warm.executed)
  in
  let t_end = now () in
  Store.close st;
  let busy = ref 0. in
  Array.iteri (fun i f -> busy := !busy +. (f -. started.(i))) finished;
  metric "executor.busy_frac" (!busy /. (float domains *. (last_finish -. t_first)));
  metric "explore.configs"
    (float (List.fold_left (fun acc (r : Record.t) -> acc + r.configs) 0 cold.records));
  if !Trace.on then begin
    (* per-record costs, outside the timed section *)
    let recs = Store.records st in
    let per_record f =
      let t0 = now () in
      List.iter f recs;
      (now () -. t0) /. float (List.length recs)
    in
    let encoded = List.map (fun r -> Json.to_string (Record.to_json r)) recs in
    metric "json.encode_us" (1e6 *. per_record (fun r -> ignore (Json.to_string (Record.to_json r))));
    let t0 = now () in
    List.iter (fun s -> ignore (Result.bind (Json.of_string s) Record.of_json)) encoded;
    metric "json.decode_us" (1e6 *. (now () -. t0) /. float (List.length encoded));
    let st = Store.open_ ~dir () in
    metric "store.find_us" (1e6 *. per_record (fun r -> ignore (Store.find st r.Record.task)));
    Store.close st;
    metric "store.bytes_written" (float (du dir));
    let dir2 = dir ^ "-put" in
    rm_rf dir2;
    let st2 = Store.open_ ~dir:dir2 () in
    let puts =
      List.map
        (fun r ->
          let t0 = now () in
          Store.put st2 r;
          now () -. t0)
        recs
    in
    metric "store.put_ms" (1e3 *. median puts);
    Store.close st2;
    rm_rf dir2
  end;
  rm_rf dir;
  (t_first, t_end, results @ [ readback ])

(* -------------------------------------------------------------- layers -- *)

(* Time [batch] (which returns how many operations it performed) until at
   least [min_s] seconds have passed; seconds per operation. *)
let per_op ?(min_s = 0.05) batch =
  let t0 = now () in
  let ops = ref 0 in
  while now () -. t0 < min_s || !ops = 0 do
    ops := !ops + batch ()
  done;
  (now () -. t0) /. float !ops

(* (seconds, operations) accumulated across rows, so a layer figure is a
   weighted mean over the workload's rows. *)
let acc : (string, float * float) Hashtbl.t = Hashtbl.create 16

let accumulate name ~per ~ops =
  let s, o = Option.value ~default:(0., 0.) (Hashtbl.find_opt acc name) in
  Hashtbl.replace acc name (s +. (per *. ops), o +. ops)

let mean name =
  match Hashtbl.find_opt acc name with Some (s, o) when o > 0. -> s /. o | _ -> 0.

let solo_fuel = 100_000
let sample_cap = 2048

(* Drive one row's machine through the public API on configurations a
   bench-side memo walk reaches: the walk plans every configuration into a
   transposition table exactly as the memo engine does (sleep sets aside),
   and the recorded plan sequence is replayed to time the table alone. *)
let layer_row ~tiny rng (c : check) (row : Hierarchy.row) ~inputs =
  let (module P : Consensus.Proto.S) = row.protocol in
  let module M = Model.Machine.Make (P.I) in
  let n = c.n in
  let root = M.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid)) in
  let cap = if tiny then 2_000 else 40_000 in
  let table = Transposition.create ~concurrent:false () in
  let visited = ref [] and leaves = ref [] and count = ref 0 and plans = ref [] in
  let rec walk cfg d =
    if !count < cap then begin
      let a, b = M.fingerprint_words cfg in
      plans := (a, b, d) :: !plans;
      match Transposition.plan table a b ~depth:d ~sleep:0 with
      | Transposition.Hit -> ()
      | Visit | Partial _ ->
        incr count;
        visited := cfg :: !visited;
        if d = 0 then leaves := cfg :: !leaves
        else List.iter (fun pid -> walk (M.step cfg pid) (d - 1)) (M.running cfg)
    end
  in
  walk root c.depth;
  let sample l =
    let a = Array.of_list l in
    shuffle rng a;
    Array.sub a 0 (min sample_cap (Array.length a))
  in
  let cfgs = sample !visited in
  let leaves = if !leaves = [] then cfgs else sample !leaves in
  let ncfg = float (Array.length cfgs) in
  let steps = Array.fold_left (fun k cfg -> k + M.running_count cfg) 0 cfgs in
  accumulate "machine.step_ns" ~ops:(float steps)
    ~per:
      (per_op (fun () ->
           Array.iter
             (fun cfg -> List.iter (fun p -> ignore (Sys.opaque_identity (M.step cfg p))) (M.running cfg))
             cfgs;
           steps));
  accumulate "machine.fingerprint_ns" ~ops:ncfg
    ~per:
      (per_op (fun () ->
           Array.iter (fun cfg -> ignore (Sys.opaque_identity (M.fingerprint_words cfg))) cfgs;
           Array.length cfgs));
  accumulate "machine.canonical_fingerprint_ns" ~ops:ncfg
    ~per:
      (per_op (fun () ->
           Array.iter
             (fun cfg -> ignore (Sys.opaque_identity (M.canonical_fingerprint_words ~inputs cfg)))
             cfgs;
           Array.length cfgs));
  let crashable = Array.fold_left (fun k cfg -> k + List.length (M.crashable cfg)) 0 cfgs in
  if crashable > 0 then
    accumulate "machine.crash_recover_ns" ~ops:(float crashable)
      ~per:
        (per_op (fun () ->
             Array.iter
               (fun cfg ->
                 List.iter (fun p -> ignore (Sys.opaque_identity (M.crash_recover cfg p))) (M.crashable cfg))
               cfgs;
             crashable));
  (* the engine's solo-probe chain: the probed pid solo, then every other
     running pid solo once *)
  let probe cfg pid =
    let s = M.Scratch.of_config cfg in
    (match M.Scratch.run_solo ~fuel:solo_fuel ~pid s with
     | None -> ()
     | Some _ -> List.iter (fun q -> ignore (M.Scratch.run_solo ~fuel:solo_fuel ~pid:q s)) (M.Scratch.running s));
    ignore (Sys.opaque_identity (M.Scratch.decisions s))
  in
  let chain_steps cfg pid =
    let c1, _ = M.run_solo ~fuel:solo_fuel ~pid cfg in
    let c2 = List.fold_left (fun cfg q -> fst (M.run_solo ~fuel:solo_fuel ~pid:q cfg)) c1 (M.running c1) in
    M.steps c2 - M.steps cfg
  in
  let nprobes = Array.fold_left (fun k cfg -> k + M.running_count cfg) 0 leaves in
  if nprobes > 0 then begin
    let solo = Array.fold_left (fun k cfg -> List.fold_left (fun k p -> k + chain_steps cfg p) k (M.running cfg)) 0 leaves in
    accumulate "machine.solo_steps_per_probe" ~ops:(float nprobes) ~per:(float solo /. float nprobes);
    accumulate "machine.probe_us" ~ops:(float nprobes)
      ~per:
        (1e6
        *. per_op (fun () ->
               Array.iter (fun cfg -> List.iter (probe cfg) (M.running cfg)) leaves;
               nprobes))
  end;
  (* observer advance over seeded random walks: step, decide, verdict, digest *)
  let observers = match c.observe with [] -> Observer.defaults | _ -> observers_of c in
  let events = ref [] in
  for _ = 1 to if tiny then 20 else 200 do
    let cfg = ref root in
    for _ = 1 to c.depth do
      match M.running !cfg with
      | [] -> ()
      | running ->
        let pid = List.nth running (Random.State.int rng (List.length running)) in
        let next = M.step !cfg pid in
        events := (pid, M.decision next pid) :: !events;
        cfg := next
    done
  done;
  let events = Array.of_list !events in
  let o0 = Observer.Run.make observers ~n ~inputs in
  accumulate "observer.advance_ns" ~ops:(float (Array.length events))
    ~per:
      (per_op (fun () ->
           ignore
             (Array.fold_left
                (fun o (pid, dec) ->
                  let o = Observer.Run.step o ~pid in
                  let o = match dec with Some value -> Observer.Run.decide o ~pid ~value | None -> o in
                  ignore (Sys.opaque_identity (Observer.Run.verdict o));
                  ignore (Sys.opaque_identity (Observer.Run.digest o));
                  o)
                o0 events);
           Array.length events));
  (* the transposition table alone, on the walk's plan sequence *)
  let plans = Array.of_list (List.rev !plans) in
  let np = Array.length plans in
  let replay t lo step =
    let i = ref lo in
    while !i < np do
      let a, b, d = plans.(!i) in
      ignore (Sys.opaque_identity (Transposition.plan t a b ~depth:d ~sleep:0));
      i := !i + step
    done
  in
  accumulate "transposition.plan_ns" ~ops:(float np)
    ~per:
      (per_op (fun () ->
           replay (Transposition.create ~concurrent:false ()) 0 1;
           np));
  accumulate "transposition.plan_ns_2dom" ~ops:(float np)
    ~per:
      (2.
      *. per_op (fun () ->
             let t = Transposition.create ~concurrent:true () in
             let d = Domain.spawn (fun () -> replay t 1 2) in
             replay t 0 2;
             Domain.join d;
             np));
  accumulate "transposition.entries" ~ops:1. ~per:(float (Transposition.stats table))

let layers ~tiny ~seed workload =
  match workload with
  | "mc-liveness" | "mc-safety" ->
    let rows = Hierarchy.rows ~recovery:true () in
    let rng = rng_for ~seed workload in
    let plan =
      List.map
        (fun (c : check) ->
          let row = find_row rows c.row in
          (c, row, inputs rng row c.n))
        (checks ~tiny workload)
    in
    List.iter (fun (c, row, inputs) -> layer_row ~tiny rng c row ~inputs) plan;
    List.iter
      (fun name -> metric name (1e9 *. mean name))
      [ "machine.step_ns"; "machine.fingerprint_ns"; "machine.canonical_fingerprint_ns";
        "machine.crash_recover_ns"; "observer.advance_ns"; "transposition.plan_ns";
        "transposition.plan_ns_2dom" ];
    metric "machine.probe_us" (mean "machine.probe_us");
    metric "machine.solo_steps_per_probe" (mean "machine.solo_steps_per_probe");
    metric "transposition.entries"
      (match Hashtbl.find_opt acc "transposition.entries" with Some (s, _) -> s | None -> 0.);
    if workload = "mc-liveness" then begin
      (* the same explorations rerun back to back in this process: on
         [`Parallel 2] next to memo, and without probes, whose engine time
         against memo's gives the share of engine time probes take *)
      let memo_total = ref 0. and par_total = ref 0. in
      let memo_engine = ref 0. and unprobed_engine = ref 0. in
      List.iter
        (fun ((c : check), row, inputs) ->
          let timed ?(c = c) engine =
            let t0 = now () in
            let v = explore ~engine c row ~inputs in
            let wall = now () -. t0 in
            match v with
            | Explore.Completed s -> (wall, s.elapsed)
            | _ ->
              failures :=
                (task_name c ^ " did not complete on " ^ Campaign.Task.engine_name engine)
                :: !failures;
              (wall, wall)
          in
          let m, m_engine = timed `Memo in
          let _, unprobed = timed ~c:{ c with probe = `Never } `Memo in
          let p, _ = timed (`Parallel 2) in
          memo_total := !memo_total +. m;
          par_total := !par_total +. p;
          memo_engine := !memo_engine +. m_engine;
          unprobed_engine := !unprobed_engine +. unprobed;
          metric ("explore.parallel2_speedup." ^ c.row) (m /. p))
        plan;
      metric "explore.memo_rerun_s" !memo_total;
      metric "explore.parallel2_s" !par_total;
      metric "explore.parallel2_speedup" (!memo_total /. !par_total);
      metric "probe.share" ((!memo_engine -. !unprobed_engine) /. !memo_engine)
    end;
    List.length plan
  | _ -> 0

(* --------------------------------------------------- reference search -- *)

(* This host's speed drifts by a third within minutes, and every timing
   above drifts with it, process start-up included.  [reference_search] is
   a fixed workload of the same kind as an exploration — a memoised
   depth-first search that allocates a small configuration per step, hashes
   it and looks it up in a hash table of 152k entries — written here and
   not taken from the library, so that no change to the library moves it.
   [run.py] times it in a process of its own after every repetition and
   states the run's timings at a fixed reference speed. *)
let reference_search () =
  let n = 4 and depth = 20 in
  let seen : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let rec go pcs mem d =
    let key = Hashtbl.hash (pcs, mem) in
    match Hashtbl.find_opt seen key with
    | Some d' when d' >= d -> ()
    | _ ->
      Hashtbl.replace seen key d;
      if d > 0 then
        for p = 0 to n - 1 do
          let pcs' = Array.copy pcs in
          pcs'.(p) <- pcs.(p) + 1;
          let mem' = Array.copy mem in
          let cell = (pcs.(p) + p) land 1 in
          mem'.(cell) <- ((mem.(cell) * 5) + p + 1) land 15;
          go pcs' mem' (d - 1)
        done
  in
  go (Array.make n 0) (Array.make 2 0) depth;
  Hashtbl.length seen

let reference_states = 151954

(* ---------------------------------------------------------------- main -- *)

let json_of_metrics l =
  Campaign.Json.Obj (List.rev_map (fun (k, v) -> (k, Campaign.Json.Float v)) l)

let strings l = Campaign.Json.List (List.rev_map (fun s -> Campaign.Json.String s) l)

let () =
  let args = Array.to_list Sys.argv in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let flag name = List.mem name args in
  let mode, workload =
    match args with
    | [ _; "ref" ] -> ("ref", "")
    | _ :: m :: w :: _ -> (m, w)
    | _ ->
      prerr_endline "usage: bench.exe (rep|layers) WORKLOAD --seed N [--trace] [--tiny] | bench.exe ref";
      exit 2
  in
  let seed = Option.fold ~none:0 ~some:int_of_string (opt "--seed" args) in
  let tiny = flag "--tiny" in
  let spawn = Option.fold ~none:(now ()) ~some:float_of_string (opt "--spawn-time" args) in
  let scratch = Option.value ~default:"." (opt "--scratch" args) in
  rep_index := Option.fold ~none:0 ~some:int_of_string (opt "--rep" args);
  Trace.on := flag "--trace";
  let open Campaign.Json in
  match mode with
  | "rep" ->
    (* the whole repetition, timed apart from the span machinery, so the
       span self-times can be checked against it *)
    let t_rep = now () in
    let t_first, t_end, results =
      Trace.span "rep" (fun () ->
          match workload with
          | "mc-liveness" | "mc-safety" ->
            let t_first, results = mc_rep ~tiny ~seed workload in
            (t_first, now (), results)
          | "static" ->
            let t_first, results = static_rep ~tiny in
            (t_first, now (), results)
          | "campaign" -> campaign_rep ~tiny ~seed ~scratch
          | w ->
            prerr_endline ("unknown workload " ^ w);
            exit 2)
    in
    let rep_s = now () -. t_rep in
    let gc = Gc.quick_stat () in
    let word = float (Sys.word_size / 8) in
    let totals = Hashtbl.fold (fun k v l -> (k, v) :: l) Trace.totals [] in
    let selfs = Hashtbl.fold (fun k v l -> (k, v) :: l) Trace.selfs [] in
    List.iter
      (fun (name, span) -> metric name (Trace.total span))
      [ ("analysis.contracts_s", "analysis.contracts"); ("analysis.symmetry_s", "analysis.symmetry");
        ("analysis.space_s", "analysis.space"); ("analysis.absint_s", "analysis.absint");
        ("witness.replay_s", "witness.replay"); ("campaign.task_build_s", "campaign.task_build");
        ("store.open_s", "store.open");
        ("report.make_s", "report.make"); ("status.fold_s", "status.fold");
        ("campaign.resume_s", "campaign.resume") ];
    metric "gc.minor_collections" (float gc.minor_collections);
    metric "gc.major_collections" (float gc.major_collections);
    metric "process.cpu_s" (Sys.time ());
    print_endline
      (to_string
         (Obj
            [
              ("setup_s", Float (t_first -. spawn));
              ("wall_s", Float (t_end -. t_first));
              ("rep_s", Float rep_s);
              ( "tasks",
                List
                  (List.map
                     (fun r ->
                       Obj
                         ([ ("name", String r.name); ("s", Float r.seconds); ("ok", Bool r.ok) ]
                         @
                         match r.counts with
                         | Some (c, p, d, s) -> [ ("counts", List [ Int c; Int p; Int d; Int s ]) ]
                         | None -> []))
                     results) );
              ("heap_peak_mb", Float (float gc.top_heap_words *. word /. 1e6));
              ("attempted", Int (List.length results));
              ("failed", Int (List.length (List.filter (fun r -> not r.ok) results)));
              ("failures", strings !failures);
              ("count_changes", strings !count_changes);
              ("metrics", json_of_metrics !metrics);
              ("span_total", json_of_metrics totals);
              ("span_self", json_of_metrics selfs);
              ("ocaml", String Sys.ocaml_version);
              ("recommended_domains", Int (Domain.recommended_domain_count ()));
            ]))
  | "ref" ->
    let t0 = now () in
    let states = reference_search () in
    let ref_s = now () -. t0 in
    if states <> reference_states then begin
      Printf.eprintf "reference search reached %d states, not %d\n" states reference_states;
      exit 1
    end;
    print_endline (to_string (Obj [ ("ref_s", Float ref_s) ]))
  | "layers" ->
    let attempted = layers ~tiny ~seed workload in
    print_endline
      (to_string
         (Obj
            [
              ("attempted", Int attempted);
              ("failed", Int (List.length !failures));
              ("failures", strings !failures);
              ("metrics", json_of_metrics !metrics);
            ]))
  | m ->
    prerr_endline ("unknown mode " ^ m);
    exit 2
