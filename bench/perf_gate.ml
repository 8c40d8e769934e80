(* CI perf-smoke gate.

   Reads the bench JSON a full (non-smoke) run just wrote, plus the files
   committed in the tree (copied aside before the run overwrites them), and
   fails (exit 1) when:

   - a record differs.  Every naive and memo MC row, every RED row and,
     with --campaign, every CAMP record must equal the committed record of
     the same task fingerprint in everything but [elapsed] — status,
     counters, truncation and extras — and neither file may hold a
     fingerprint the other lacks.  Outside the parallel engine exploration
     is deterministic and the bench stores no timing ratio, so this is
     exact equality: a change that moves one count fails here.  Parallel
     MC rows race, and are left out;
   - a RED row explored more configurations under a reduction (commute /
     symmetric / full) than the plain memoized engine on the same (row,
     inputs): the reductions must dominate plain memo;
   - a memoized MC row's rate, configs / elapsed, fell below the committed
     baseline's slowest memoized rate for that row divided by
     [floor_divisor] (CI machines are noisy and the committed rates come
     from another box, so only an order-of-magnitude collapse trips this);
   - with --crash: the crash bench reports an unexpected verdict — the
     non-recoverable TAS row must be falsified under every positive
     budget and the recoverable CAS row certified;
   - with --campaign: the cold run's [cold_elapsed] exceeds [floor_divisor]
     times the committed one;
   - with --lint: a fresh full BENCH_lint.json disagrees with the committed
     one — every certify verdict, the lint finding, error and warning
     counts, the selftest counts and every analyze row must be equal: what
     `analyze --json` prints of the analysis (nodes, edges, back-edges,
     work, signature depth, truncation, convergence, completeness, Top
     locations, both footprints, dead and undecided nodes, decisions, the
     issued ops' count and digest, each finding's severity, rule and
     detail) and its CFG builds.  [lint_elapsed_s] and [analyze_elapsed_s]
     must stay within [floor_divisor] times the committed ones.

   A missing, malformed or smoke input exits 2.

   Usage: perf_gate --baseline <committed MC json> \
                    --current <fresh MC json> \
                    --reduce-baseline <committed RED json> \
                    --reduce <fresh RED json> \
                    [--crash <fresh CRASH json>] \
                    [--campaign-baseline <committed CAMP json> \
                     --campaign <fresh CAMP json>] \
                    [--lint-baseline <committed LINT json> \
                     --lint <fresh LINT json>] *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf-gate: " ^ s); exit 2) fmt

(* An order-of-magnitude guard, not a tight bound: CI boxes are noisy and
   the committed timings come from another box. *)
let floor_divisor = 8.0

let failures = ref 0
let fail fmt = Printf.ksprintf (fun s -> incr failures; print_endline ("FAIL " ^ s)) fmt

let read_json path =
  let ic = try open_in path with Sys_error e -> die "cannot open %s: %s" path e in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Campaign.Json.of_string s with
  | Ok j -> j
  | Error e -> die "%s: %s" path e

let records key json =
  match Campaign.Json.(get_list (member key json)) with
  | None -> die "no %S array in bench json" key
  | Some l ->
    List.map
      (fun j ->
        match Campaign.Record.of_json j with
        | Ok r -> r
        | Error e -> die "bench record: %s" e)
      l

let inputs (r : Campaign.Record.t) =
  match List.assoc_opt "inputs" r.extra with
  | Some (Campaign.Json.String s) -> s
  | _ -> "-"

(* ------------------------------------------------ record comparator -- *)

(* [keep]'s records under [key] in the committed and the fresh file, by
   task fingerprint in both directions: equal in everything but [elapsed]. *)
let check_records what ~key ~keep ~baseline current =
  if Campaign.Json.(get_bool (member "smoke" current)) <> Some false then
    die "the %s record check needs a full (non-smoke) run" what;
  let by_task json =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (r : Campaign.Record.t) -> if keep r then Hashtbl.replace tbl r.task r)
      (records key json);
    tbl
  in
  let base = by_task baseline and fresh = by_task current in
  let untimed r =
    Campaign.Json.to_string (Campaign.Record.to_json { r with Campaign.Record.elapsed = 0. })
  in
  let label (r : Campaign.Record.t) =
    Printf.sprintf "%s %s n=%d d=%d %s/%s %s" r.task r.row r.n r.depth r.engine r.reduce
      (inputs r)
  in
  let before = !failures in
  Hashtbl.iter
    (fun task r ->
      match Hashtbl.find_opt fresh task with
      | None -> fail "%s %s: missing from the fresh run" what (label r)
      | Some r' ->
        if untimed r <> untimed r' then
          fail "%s %s differs:\n  committed %s\n  fresh     %s" what (label r) (untimed r)
            (untimed r'))
    base;
  Hashtbl.iter
    (fun task r ->
      if not (Hashtbl.mem base task) then
        fail "%s %s: not in the committed run" what (label r))
    fresh;
  if !failures = before then
    Printf.printf "ok   %d %s records = committed baseline, all but elapsed\n"
      (Hashtbl.length base) what

(* --------------------------------------------------- RED domination -- *)

let check_reduction_domination red =
  let rows = records "rows" red in
  let plain = Hashtbl.create 16 in
  List.iter
    (fun (r : Campaign.Record.t) ->
      if r.reduce = "none" then Hashtbl.replace plain (r.row, inputs r) r.configs)
    rows;
  List.iter
    (fun (r : Campaign.Record.t) ->
      if r.reduce <> "none" then
        match Hashtbl.find_opt plain (r.row, inputs r) with
        | None -> die "RED row %s/%s has no plain-memo counterpart" r.row (inputs r)
        | Some p when r.configs > p ->
          fail "%-13s %-9s %-10s explored %d configs > plain memo's %d" r.row (inputs r)
            r.reduce r.configs p
        | Some p ->
          Printf.printf "ok   %-13s %-9s %-10s %d <= %d\n" r.row (inputs r) r.reduce
            r.configs p)
    rows

(* ------------------------------------------------- MC throughput floor -- *)

let memo_rates json =
  List.filter_map
    (fun (r : Campaign.Record.t) ->
      if r.engine = "memo" then Some (r.row, float_of_int r.configs /. r.elapsed) else None)
    (records "rows" json)

let check_throughput_floor ~baseline current =
  let base = memo_rates baseline in
  List.iter
    (fun (row, rate) ->
      (* the slowest committed memoized rate for this row, across the
         baseline grid's (n, depth) points *)
      match List.filter_map (fun (r, v) -> if r = row then Some v else None) base with
      | [] ->
        Printf.printf "ok   %-13s memo %.0f cfg/s (no committed baseline row)\n" row rate
      | rates ->
        let floor = List.fold_left Float.min infinity rates /. floor_divisor in
        if rate < floor then
          fail "%-13s memo %.0f cfg/s below floor %.0f (baseline/%.0f)" row rate floor
            floor_divisor
        else Printf.printf "ok   %-13s memo %.0f cfg/s >= floor %.0f\n" row rate floor)
    (memo_rates current)

(* ------------------------------------------------------------ ceilings -- *)

let check_ceiling key ~baseline current =
  let elapsed j =
    match Campaign.Json.(get_float (member key j)) with
    | Some t -> t
    | None -> die "no %S in bench json" key
  in
  let committed = elapsed baseline and fresh = elapsed current in
  let ceiling = committed *. floor_divisor in
  if fresh > ceiling then
    fail "%s %.3f s > %.3f s (committed %.3f s x %.0f)" key fresh ceiling committed
      floor_divisor
  else
    Printf.printf "ok   %s %.3f s <= %.3f s (committed %.3f s x %.0f)\n" key fresh ceiling
      committed floor_divisor

(* ----------------------------------------------------- lint identity -- *)

let check_lint ~baseline current =
  let field f j = Campaign.Json.(to_string (member f j)) in
  if field "ns" current <> field "ns" baseline then
    die "the lint check needs a full LINT run (ns %s, committed %s)" (field "ns" current)
      (field "ns" baseline);
  let table name j =
    match Campaign.Json.(get_list (member name j)) with
    | Some l -> l
    | None -> die "no %S array in lint bench json" name
  in
  (* row by row, each named by its [keys], then field by field *)
  let same_table name ~keys fields =
    let committed = table name baseline and fresh = table name current in
    if List.length committed <> List.length fresh then
      fail "%s has %d rows, committed %d" name (List.length fresh) (List.length committed)
    else begin
      let before = !failures in
      List.iter2
        (fun c f ->
          let label = String.concat " " (List.map (fun k -> field k f) keys) in
          List.iter
            (fun k ->
              if field k c <> field k f then
                fail "%s %s: %s differs\n  committed %s\n  fresh     %s" name label k
                  (field k c) (field k f))
            (keys @ fields))
        committed fresh;
      if !failures = before then
        Printf.printf "ok   %d %s rows = committed baseline\n" (List.length fresh) name
    end
  in
  same_table "certify" ~keys:[ "row" ] [ "verdict" ];
  same_table "analyze" ~keys:[ "row"; "n" ]
    [
      "nodes"; "edges"; "retro_edges"; "work"; "sig_depth"; "truncated"; "converged";
      "complete"; "tops"; "footprint_all"; "footprint_feasible"; "dead_nodes";
      "undecided_nodes"; "decisions"; "ops_count"; "ops_digest"; "findings"; "builds";
    ];
  List.iter
    (fun key ->
      let committed = field key baseline and fresh = field key current in
      if fresh <> committed then fail "%s = %s, committed %s" key fresh committed
      else Printf.printf "ok   %s = %s\n" key fresh)
    [
      "lint_findings"; "lint_errors"; "lint_warnings"; "selftest_findings";
      "selftest_escapes";
    ];
  List.iter
    (fun key -> check_ceiling key ~baseline current)
    [ "lint_elapsed_s"; "analyze_elapsed_s" ]

let () =
  let baseline = ref "" and current = ref "" and crash = ref "" in
  let reduce_baseline = ref "" and reduce = ref "" in
  let campaign_baseline = ref "" and campaign = ref "" in
  let lint_baseline = ref "" and lint = ref "" in
  let rec parse = function
    | "--baseline" :: v :: rest -> baseline := v; parse rest
    | "--current" :: v :: rest -> current := v; parse rest
    | "--reduce-baseline" :: v :: rest -> reduce_baseline := v; parse rest
    | "--reduce" :: v :: rest -> reduce := v; parse rest
    | "--crash" :: v :: rest -> crash := v; parse rest
    | "--campaign-baseline" :: v :: rest -> campaign_baseline := v; parse rest
    | "--campaign" :: v :: rest -> campaign := v; parse rest
    | "--lint-baseline" :: v :: rest -> lint_baseline := v; parse rest
    | "--lint" :: v :: rest -> lint := v; parse rest
    | [] -> ()
    | a :: _ -> die "unknown argument %s" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !baseline = "" || !current = "" || !reduce_baseline = "" || !reduce = "" then
    die
      "usage: perf_gate --baseline <mc.json> --current <mc.json> --reduce-baseline \
       <red.json> --reduce <red.json> [--crash <crash.json>] [--campaign-baseline \
       <camp.json> --campaign <camp.json>] [--lint-baseline <lint.json> --lint <lint.json>]";
  if (!campaign_baseline = "") <> (!campaign = "") then
    die "--campaign-baseline and --campaign go together";
  if (!lint_baseline = "") <> (!lint = "") then die "--lint-baseline and --lint go together";
  let mc_baseline = read_json !baseline and mc = read_json !current in
  let red = read_json !reduce in
  print_endline "== exact records (naive and memo MC rows, RED rows vs committed) ==";
  check_records "MC" ~key:"rows"
    ~keep:(fun r -> r.engine = "naive" || r.engine = "memo")
    ~baseline:mc_baseline mc;
  check_records "RED" ~key:"rows" ~keep:(fun _ -> true) ~baseline:(read_json !reduce_baseline)
    red;
  print_endline "== reduction domination (RED rows) ==";
  check_reduction_domination red;
  print_endline "== memoized throughput floor (MC rows) ==";
  check_throughput_floor ~baseline:mc_baseline mc;
  if !crash <> "" then begin
    print_endline "== crash-point enumeration (CRASH verdicts) ==";
    match Campaign.Json.(get_int (member "unexpected" (read_json !crash))) with
    | Some 0 -> print_endline "ok   crash bench: 0 unexpected verdicts"
    | Some k -> fail "crash bench reported %d unexpected verdict(s)" k
    | None -> die "no \"unexpected\" in crash bench json"
  end;
  if !campaign <> "" then begin
    print_endline "== campaign records and cold time (CAMP vs committed baseline) ==";
    let baseline = read_json !campaign_baseline and current = read_json !campaign in
    check_records "CAMP" ~key:"records" ~keep:(fun _ -> true) ~baseline current;
    check_ceiling "cold_elapsed" ~baseline current
  end;
  if !lint <> "" then begin
    print_endline "== lint identity and pass times (LINT vs committed baseline) ==";
    check_lint ~baseline:(read_json !lint_baseline) (read_json !lint)
  end;
  if !failures > 0 then begin
    Printf.printf "perf-gate: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "perf-gate: all checks passed"
