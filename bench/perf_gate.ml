(* CI perf-smoke gate.

   Reads the BENCH_modelcheck.json / BENCH_reduce.json a full (non-smoke)
   bench run just wrote, plus the ones committed in the tree (copied aside
   before the run overwrites them), and fails (exit 1) when:

   - any naive or memo MC row, or any RED row, differs from the committed
     row of the same task fingerprint in its configs, probes, dedup hits
     or sleep-pruned count, or either file has a row the other lacks.
     Outside the parallel engine exploration is deterministic, so this is
     exact equality: a table or machine change that moves one count, even
     one that keeps the reductions dominant, fails here.  Parallel rows
     race, and keep the throughput floor only;
   - any RED row explored *more* configurations under a reduction
     (commute / symmetric / full) than the plain memoized engine did on the
     same (protocol, inputs) — the reductions must dominate plain memo;
   - any memoized MC row's configs/sec fell below the committed baseline's
     slowest memoized rate for that protocol divided by a generous factor
     (CI machines are noisy and the committed rates come from another
     box, so only an order-of-magnitude collapse trips this);
   - with --crash: any crash-free identity row of a fresh BENCH_crash.json
     disagrees with the committed baseline — the crash subsystem's
     zero-budget lane must leave every (protocol, n, depth) configuration
     count bit-identical to the pre-crash baselines, and each row's
     in-run identity bit (explicit ~crashes:0 vs no argument at all) must
     hold.  Unlike the throughput floor this is exact equality: the
     exploration is deterministic, so a single extra configuration means
     the crash budget leaked into crash-free search.
   - with --campaign: a fresh full (non-smoke) BENCH_campaign.json
     disagrees with the committed one — every task fingerprint must carry
     the same record apart from [elapsed] (status, counters, stress
     extras), and the cold run's [cold_elapsed] must stay within
     [floor_divisor] times the committed one.  Unlike the MC floor this
     times a whole campaign, reduced tasks included.
   - with --lint: a fresh full (non-smoke) BENCH_lint.json disagrees with
     the committed one — every certify verdict, the lint finding, error
     and warning counts, the selftest counts, [store_recomputed] and every
     analyze row (nodes, edges, work, signature depth, truncation) must be
     equal, and [lint_elapsed_s] and [analyze_elapsed_s] must stay within
     [floor_divisor] times the committed ones.

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

let read_json path =
  let ic = try open_in path with Sys_error e -> die "cannot open %s: %s" path e in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Campaign.Json.of_string s with
  | Ok j -> j
  | Error e -> die "%s: %s" path e

let rows json =
  match Campaign.Json.(get_list (member "rows" json)) with
  | Some l -> l
  | None -> die "no \"rows\" array in bench json"

let str name j = Campaign.Json.(get_string (member name j)) |> Option.value ~default:""
let int name j = Campaign.Json.(get_int (member name j)) |> Option.value ~default:0

let extra_float name j =
  Campaign.Json.(get_float (member name (member "extra" j)))

(* ------------------------------------------------------ exact counts -- *)

let counters = [ "configs"; "probes"; "dedup_hits"; "sleep_pruned" ]

(* [what]'s rows that [keep] selects, by task fingerprint, in the committed
   and the fresh file: the same fingerprints, with equal counters. *)
let check_exact_counts what ~keep ~baseline current =
  if Campaign.Json.(get_bool (member "smoke" current)) <> Some false then
    die "the exact %s count check needs a full (non-smoke) run" what;
  let by_task json =
    let tbl = Hashtbl.create 32 in
    List.iter (fun r -> if keep r then Hashtbl.replace tbl (str "task" r) r) (rows json);
    tbl
  in
  let base = by_task baseline and fresh = by_task current in
  let label r =
    Printf.sprintf "%s n=%d d=%d %s/%s%s" (str "row" r) (int "n" r) (int "depth" r)
      (str "engine" r) (str "reduce" r)
      (match Campaign.Json.(get_string (member "inputs" (member "extra" r))) with
       | Some s -> " " ^ s
       | None -> "")
  in
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr failures; print_endline ("FAIL " ^ s)) fmt in
  Hashtbl.iter
    (fun task r ->
      match Hashtbl.find_opt fresh task with
      | None -> fail "%s %s: missing from the fresh run" what (label r)
      | Some r' ->
        List.iter
          (fun c ->
            if int c r' <> int c r then
              fail "%s %s: %s %d, committed %d" what (label r) c (int c r') (int c r))
          counters)
    base;
  Hashtbl.iter
    (fun task r ->
      if not (Hashtbl.mem base task) then
        fail "%s %s: not in the committed run" what (label r))
    fresh;
  if !failures = 0 then
    Printf.printf "ok   %d %s rows: %s = committed baseline\n" (Hashtbl.length base) what
      (String.concat ", " counters);
  !failures

(* --------------------------------------------------- RED domination -- *)

let check_reduction_domination red_json =
  let rows = rows red_json in
  (* plain-memo configs per (protocol row, input set) *)
  let base = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if str "reduce" r = "none" then
        let inputs =
          match Campaign.Json.(get_string (member "inputs" (member "extra" r))) with
          | Some s -> s
          | None -> "?"
        in
        Hashtbl.replace base (str "row" r, inputs) (int "configs" r))
    rows;
  let failures = ref 0 in
  List.iter
    (fun r ->
      let reduce = str "reduce" r in
      if reduce <> "none" then begin
        let inputs =
          match Campaign.Json.(get_string (member "inputs" (member "extra" r))) with
          | Some s -> s
          | None -> "?"
        in
        let row = str "row" r in
        match Hashtbl.find_opt base (row, inputs) with
        | None -> die "RED row %s/%s has no plain-memo counterpart" row inputs
        | Some plain ->
          let configs = int "configs" r in
          if configs > plain then begin
            incr failures;
            Printf.printf
              "FAIL %-11s %-9s %-10s explored %d configs > plain memo's %d\n" row
              inputs reduce configs plain
          end
          else
            Printf.printf "ok   %-11s %-9s %-10s %d <= %d\n" row inputs reduce configs
              plain
      end)
    rows;
  !failures

(* ------------------------------------------------- MC throughput floor -- *)

let memo_rates json =
  List.filter_map
    (fun r ->
      if str "engine" r = "memo" then
        match extra_float "configs_per_sec" r with
        | Some rate -> Some (str "row" r, rate)
        | None -> None
      else None)
    (rows json)

let check_throughput_floor ~baseline ~current =
  let base = memo_rates baseline in
  let floor_of row =
    (* slowest committed memoized rate for this protocol, across the
       baseline grid's (n, depth) points *)
    match List.filter_map (fun (r, v) -> if r = row then Some v else None) base with
    | [] -> None
    | rates -> Some (List.fold_left Float.min infinity rates /. floor_divisor)
  in
  let failures = ref 0 in
  List.iter
    (fun (row, rate) ->
      match floor_of row with
      | None -> Printf.printf "ok   %-11s memo %.0f cfg/s (no committed baseline row)\n" row rate
      | Some floor ->
        if rate < floor then begin
          incr failures;
          Printf.printf "FAIL %-11s memo %.0f cfg/s below floor %.0f (baseline/%.0f)\n"
            row rate floor floor_divisor
        end
        else Printf.printf "ok   %-11s memo %.0f cfg/s >= floor %.0f\n" row rate floor)
    (memo_rates current);
  !failures

(* ---------------------------------------------- crash-free identity -- *)

let extra_bool name j = Campaign.Json.(get_bool (member name (member "extra" j)))

let check_crash_free_identity ~baseline crash_json =
  (* committed memo configs per (protocol row, n, depth) *)
  let base = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if str "engine" r = "memo" then
        Hashtbl.replace base (str "row" r, int "n" r, int "depth" r) (int "configs" r))
    (rows baseline);
  let free =
    match Campaign.Json.(get_list (member "crash_free" crash_json)) with
    | Some l -> l
    | None -> die "no \"crash_free\" array in crash bench json"
  in
  let failures = ref 0 in
  List.iter
    (fun r ->
      let row = str "row" r and n = int "n" r and depth = int "depth" r in
      let configs = int "configs" r in
      (match extra_bool "identical_without_crash_arg" r with
       | Some true -> ()
       | _ ->
         incr failures;
         Printf.printf "FAIL %-11s n=%d d=%d ~crashes:0 differs from no crash argument\n"
           row n depth);
      match Hashtbl.find_opt base (row, n, depth) with
      | None -> die "crash-free row %s n=%d d=%d has no committed baseline row" row n depth
      | Some committed ->
        if configs <> committed then begin
          incr failures;
          Printf.printf "FAIL %-11s n=%d d=%d explored %d configs, baseline has %d\n" row
            n depth configs committed
        end
        else Printf.printf "ok   %-11s n=%d d=%d %d configs = committed baseline\n" row n
            depth configs)
    free;
  (match Campaign.Json.(get_int (member "unexpected" crash_json)) with
   | Some 0 | None -> ()
   | Some k ->
     incr failures;
     Printf.printf "FAIL crash bench reported %d unexpected verdict(s)\n" k);
  !failures

(* ------------------------------------------------ campaign identity -- *)

let records_by_task json =
  let records =
    match Campaign.Json.(get_list (member "records" json)) with
    | Some l -> l
    | None -> die "no \"records\" array in campaign bench json"
  in
  let by_task = Hashtbl.create 64 in
  List.iter
    (fun j ->
      match Campaign.Record.of_json j with
      | Ok r -> Hashtbl.replace by_task r.Campaign.Record.task r
      | Error e -> die "campaign bench record: %s" e)
    records;
  by_task

let check_campaign ~baseline current =
  if Campaign.Json.(get_bool (member "smoke" current)) <> Some false then
    die "the campaign check needs a full (non-smoke) CAMP run";
  let base = records_by_task baseline and fresh = records_by_task current in
  let untimed r =
    Campaign.Json.to_string
      (Campaign.Record.to_json { r with Campaign.Record.elapsed = 0. })
  in
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun s -> incr failures; print_endline ("FAIL " ^ s)) fmt
  in
  Hashtbl.iter
    (fun task r ->
      match Hashtbl.find_opt fresh task with
      | None ->
        fail "task %s (%s n=%d) missing from the fresh run" task r.Campaign.Record.row r.n
      | Some r' ->
        if untimed r <> untimed r' then
          fail "task %s differs:\n  committed %s\n  fresh     %s" task (untimed r)
            (untimed r'))
    base;
  Hashtbl.iter
    (fun task r ->
      if not (Hashtbl.mem base task) then
        fail "task %s (%s n=%d) is not in the committed run" task r.Campaign.Record.row r.n)
    fresh;
  if !failures = 0 then
    Printf.printf "ok   %d task fingerprints: status and counts = committed baseline\n"
      (Hashtbl.length base);
  let elapsed j =
    match Campaign.Json.(get_float (member "cold_elapsed" j)) with
    | Some t -> t
    | None -> die "no \"cold_elapsed\" in campaign bench json"
  in
  let committed = elapsed baseline and cold = elapsed current in
  let ceiling = committed *. floor_divisor in
  if cold > ceiling then
    fail "cold campaign took %.3f s > %.3f s (committed %.3f s x %.0f)" cold ceiling
      committed floor_divisor
  else
    Printf.printf "ok   cold campaign %.3f s <= %.3f s (committed %.3f s x %.0f)\n" cold
      ceiling committed floor_divisor;
  !failures

(* ----------------------------------------------------- lint identity -- *)

let check_lint ~baseline current =
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun s -> incr failures; print_endline ("FAIL " ^ s)) fmt
  in
  let field f j = Campaign.Json.(to_string (member f j)) in
  if field "ns" current <> field "ns" baseline then
    die "the lint check needs a full LINT run (ns %s, committed %s)" (field "ns" current)
      (field "ns" baseline);
  (* one line per row of a table, over the given fields *)
  let table name fields j =
    match Campaign.Json.(get_list (member name j)) with
    | Some l -> List.map (fun r -> String.concat " " (List.map (fun f -> field f r) fields)) l
    | None -> die "no %S array in lint bench json" name
  in
  let same_table name fields =
    let committed = table name fields baseline and fresh = table name fields current in
    if List.length committed <> List.length fresh then
      fail "%s has %d rows, committed %d" name (List.length fresh) (List.length committed)
    else if committed = fresh then
      Printf.printf "ok   %d %s rows = committed baseline\n" (List.length fresh) name
    else
      List.iter2
        (fun c f -> if c <> f then fail "%s row differs:\n  committed %s\n  fresh     %s" name c f)
        committed fresh
  in
  same_table "certify" [ "row"; "verdict" ];
  same_table "analyze" [ "row"; "n"; "nodes"; "edges"; "work"; "sig_depth"; "truncated" ];
  List.iter
    (fun key ->
      let committed = int key baseline and fresh = int key current in
      if fresh <> committed then fail "%s = %d, committed %d" key fresh committed
      else Printf.printf "ok   %s = %d\n" key fresh)
    [
      "lint_findings"; "lint_errors"; "lint_warnings"; "selftest_findings";
      "selftest_escapes"; "store_recomputed";
    ];
  List.iter
    (fun key ->
      let elapsed j =
        match Campaign.Json.(get_float (member key j)) with
        | Some t -> t
        | None -> die "no %S in lint bench json" key
      in
      let committed = elapsed baseline and fresh = elapsed current in
      let ceiling = committed *. floor_divisor in
      if fresh > ceiling then
        fail "%s %.3f s > %.3f s (committed %.3f s x %.0f)" key fresh ceiling committed
          floor_divisor
      else
        Printf.printf "ok   %s %.3f s <= %.3f s (committed %.3f s x %.0f)\n" key fresh
          ceiling committed floor_divisor)
    [ "lint_elapsed_s"; "analyze_elapsed_s" ];
  !failures

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
  print_endline "== exact counts (naive and memo MC rows, RED rows vs committed) ==";
  let f0_mc =
    check_exact_counts "MC"
      ~keep:(fun r -> List.mem (str "engine" r) [ "naive"; "memo" ])
      ~baseline:(read_json !baseline) (read_json !current)
  in
  let f0_red =
    check_exact_counts "RED" ~keep:(fun _ -> true) ~baseline:(read_json !reduce_baseline)
      (read_json !reduce)
  in
  print_endline "== reduction domination (RED rows) ==";
  let f1 = check_reduction_domination (read_json !reduce) in
  print_endline "== memoized throughput floor (MC rows) ==";
  let f2 =
    check_throughput_floor ~baseline:(read_json !baseline) ~current:(read_json !current)
  in
  let f3 =
    if !crash = "" then 0
    else begin
      print_endline "== crash-free identity (CRASH rows vs committed baseline) ==";
      check_crash_free_identity ~baseline:(read_json !baseline) (read_json !crash)
    end
  in
  let f4 =
    if !campaign = "" then 0
    else begin
      print_endline "== campaign identity and cold time (CAMP vs committed baseline) ==";
      check_campaign ~baseline:(read_json !campaign_baseline) (read_json !campaign)
    end
  in
  let f5 =
    if !lint = "" then 0
    else begin
      print_endline "== lint identity and pass times (LINT vs committed baseline) ==";
      check_lint ~baseline:(read_json !lint_baseline) (read_json !lint)
    end
  in
  let failures = f0_mc + f0_red + f1 + f2 + f3 + f4 + f5 in
  if failures > 0 then begin
    Printf.printf "perf-gate: %d failure(s)\n" failures;
    exit 1
  end;
  print_endline "perf-gate: all checks passed"
