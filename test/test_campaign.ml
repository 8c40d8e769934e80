(* The campaign subsystem: JSON round-trips, the shared record schema, task
   fingerprints, the persistent store, and the resumable executor. *)

let temp_dir () =
  let dir = Filename.temp_file "test_campaign" "" in
  Sys.remove dir;
  dir

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let list_claims dir =
  match Sys.readdir (Filename.concat dir "claims") with
  | entries -> List.sort compare (Array.to_list entries)
  | exception Sys_error _ -> []

let write_raw path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let age_file path seconds =
  let past = Unix.gettimeofday () -. seconds in
  Unix.utimes path past past

(* --- json -------------------------------------------------------------- *)

let sample_json =
  Campaign.Json.(
    Obj
      [
        ("null", Null);
        ("bool", Bool true);
        ("int", Int (-42));
        ("float", Float 1.5);
        ("big", Float 6.02214076e23);
        (* prints as bare digits under %.17g: must not come back as an Int *)
        ("integral", Float 9007199254740992.);
        ("string", String "with \"quotes\", a \\ backslash,\n a newline and \t tab");
        ("control", String "bell \007 and escape \027 go through \\u");
        ("list", List [ Int 1; Int 2; List []; Obj [] ]);
        ("nested", Obj [ ("inner", List [ Bool false; Null ]) ]);
      ])

let test_json_roundtrip () =
  List.iter
    (fun to_string ->
      match Campaign.Json.of_string (to_string sample_json) with
      | Ok j -> Alcotest.(check bool) "round-trips" true (j = sample_json)
      | Error e -> Alcotest.fail e)
    [ Campaign.Json.to_string; Campaign.Json.to_string_pretty ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Campaign.Json.of_string s with
      | Ok _ -> Alcotest.failf "parsed %S?!" s
      | Error _ -> ())
    [
      "";
      "{";
      "[1,]";
      "{\"a\" 1}";
      "nul";
      "\"unterminated";
      "{} trailing";
      (* \u escapes: non-hex, OCaml-isms int_of_string would accept, truncated *)
      "\"\\uZZZZ\"";
      "\"\\u00_7\"";
      "\"\\u-001\"";
      "\"\\u12\"";
    ]

let test_json_accessors () =
  let j = sample_json in
  Alcotest.(check (option int)) "int" (Some (-42))
    (Campaign.Json.get_int (Campaign.Json.member "int" j));
  Alcotest.(check (option bool)) "bool" (Some true)
    (Campaign.Json.get_bool (Campaign.Json.member "bool" j));
  Alcotest.(check (option (float 1e-9))) "int promotes to float" (Some (-42.0))
    (Campaign.Json.get_float (Campaign.Json.member "int" j));
  Alcotest.(check bool) "absent member is Null" true
    (Campaign.Json.member "no-such-key" j = Campaign.Json.Null)

let test_json_nonfinite () =
  (* JSON has no literals for these; [to_string] must still emit something
     [of_string] accepts (a sentinel string), and [get_float] must map the
     sentinel back to the original float. *)
  let reparse f =
    let rendered = Campaign.Json.to_string (Campaign.Json.Float f) in
    match Campaign.Json.of_string rendered with
    | Error e -> Alcotest.failf "Float %h rendered as unparsable %S: %s" f rendered e
    | Ok j -> j
  in
  let numeric_view f =
    match Campaign.Json.get_float (reparse f) with
    | Some v -> v
    | None -> Alcotest.failf "Float %h lost its numeric view across a round-trip" f
  in
  Alcotest.(check bool) "nan survives" true (Float.is_nan (numeric_view Float.nan));
  Alcotest.(check (float 0.0)) "infinity survives" Float.infinity
    (numeric_view Float.infinity);
  Alcotest.(check (float 0.0)) "-infinity survives" Float.neg_infinity
    (numeric_view Float.neg_infinity);
  (* -0.0 is finite: it must stay a real JSON number, sign included *)
  (match reparse (-0.0) with
   | Campaign.Json.Float v ->
     Alcotest.(check bool) "negative zero keeps its sign" true
       (1.0 /. v = Float.neg_infinity)
   | j -> Alcotest.failf "-0.0 re-parsed as %s" (Campaign.Json.to_string j));
  (* the original bug: a whole record with a non-finite elapsed must
     round-trip through the store's serialization instead of corrupting *)
  let r =
    Campaign.Record.make ~task:"0123456789abcdef" ~kind:"check" ~row:"cas"
      ~protocol:"cas-consensus" ~n:3 ~depth:6 ~engine:"memo" ~reduce:"commute"
      ~status:Campaign.Record.Timeout ~configs:0 ~probes:0 ~dedup_hits:0
      ~sleep_pruned:0 ~truncated:true ~elapsed:Float.nan ()
  in
  match Campaign.Record.of_json (Campaign.Record.to_json r) with
  | Error e -> Alcotest.fail ("record with nan elapsed: " ^ e)
  | Ok r' ->
    Alcotest.(check bool) "nan elapsed survives a record round-trip" true
      (Float.is_nan r'.Campaign.Record.elapsed)

(* --- record ------------------------------------------------------------ *)

let record ?(status = Campaign.Record.Verified) ?(task = "0123456789abcdef") () =
  Campaign.Record.make ~task ~kind:"check" ~row:"cas" ~protocol:"cas-consensus" ~n:3
    ~depth:6 ~engine:"memo" ~reduce:"commute" ~status ~configs:120 ~probes:14
    ~dedup_hits:9 ~sleep_pruned:2 ~truncated:true ~elapsed:0.125
    ~extra:[ ("seed", Campaign.Json.Int 7) ]
    ()

let statuses =
  [
    Campaign.Record.Verified;
    Campaign.Record.Violation
      { kind = "agreement"; message = "p0=1 p1=0"; schedule = [ 0; 1; 1 ]; probe = Some 1 };
    Campaign.Record.Violation
      { kind = "validity"; message = "decided 9"; schedule = []; probe = None };
    Campaign.Record.Timeout;
    Campaign.Record.Crash "Stack_overflow";
  ]

let test_record_roundtrip () =
  List.iter
    (fun status ->
      let r = record ~status () in
      match Campaign.Record.of_json (Campaign.Record.to_json r) with
      | Ok r' -> Alcotest.(check bool) "round-trips" true (r = r')
      | Error e -> Alcotest.fail e)
    statuses

let test_record_rejects_garbage () =
  List.iter
    (fun j ->
      match Campaign.Record.of_json j with
      | Ok _ -> Alcotest.fail "accepted a non-record?!"
      | Error _ -> ())
    [
      Campaign.Json.Null;
      Campaign.Json.Obj [ ("task", Campaign.Json.String "x") ];
      Campaign.Json.Obj [ ("status", Campaign.Json.String "verified") ];
    ]

let test_record_same_verdict () =
  let r = record () in
  Alcotest.(check bool) "timing and counters are not part of the verdict" true
    (Campaign.Record.same_verdict r
       {
         r with
         Campaign.Record.configs = 1;
         probes = 0;
         dedup_hits = 0;
         sleep_pruned = 0;
         truncated = false;
         elapsed = 99.0;
         extra = [];
       });
  Alcotest.(check bool) "a status difference is a verdict difference" false
    (Campaign.Record.same_verdict r
       { r with Campaign.Record.status = Campaign.Record.Timeout });
  Alcotest.(check bool) "different tasks never share a verdict" false
    (Campaign.Record.same_verdict r (record ~task:"fedcba9876543210" ()))

let test_record_observers () =
  let make observers =
    Campaign.Record.make ~task:"0123456789abcdef" ~kind:"check" ~row:"cas"
      ~protocol:"cas-consensus" ~n:3 ~depth:6 ~engine:"memo" ~reduce:"commute"
      ~observers ~status:Campaign.Record.Verified ~configs:120 ~probes:14
      ~dedup_hits:9 ~sleep_pruned:2 ~truncated:false ~elapsed:0.125 ()
  in
  let observed = make [ "agreement"; "validity" ] in
  (match Campaign.Record.of_json (Campaign.Record.to_json observed) with
   | Ok r' -> Alcotest.(check bool) "observed record round-trips" true (observed = r')
   | Error e -> Alcotest.fail e);
  (* a record written before the observer field existed has no "observers"
     member: it must parse (as the empty set) and re-serialize byte-for-byte *)
  let legacy = make [] in
  let legacy_json = Campaign.Record.to_json legacy in
  Alcotest.(check bool) "empty observer set is omitted from the JSON" true
    (Campaign.Json.member "observers" legacy_json = Campaign.Json.Null);
  (match Campaign.Record.of_json legacy_json with
   | Ok r' ->
     Alcotest.(check (list string)) "absent field parses as no observers" []
       r'.Campaign.Record.observers;
     Alcotest.(check string) "pre-observer records re-serialize unchanged"
       (Campaign.Json.to_string legacy_json)
       (Campaign.Json.to_string (Campaign.Record.to_json r'))
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "the observer set is part of the verdict" false
    (Campaign.Record.same_verdict observed legacy);
  match
    Campaign.Record.of_json
      (Campaign.Json.Obj
         (List.map
            (fun (k, v) ->
              if k = "observers" then (k, Campaign.Json.List [ Campaign.Json.Int 3 ])
              else (k, v))
            (match Campaign.Record.to_json observed with
             | Campaign.Json.Obj fields -> fields
             | _ -> Alcotest.fail "record JSON is not an object")))
  with
  | Ok _ -> Alcotest.fail "accepted a non-string observer name"
  | Error _ -> ()

(* --- tasks and fingerprints -------------------------------------------- *)

let row id =
  match Hierarchy.find ~ells:[ 1; 2 ] id with
  | Some r -> r
  | None -> Alcotest.failf "registry row %s missing" id

let commute = { Explore.commute = true; symmetric = false }

let test_fingerprint_stable_and_distinct () =
  let task = Campaign.Task.check ~engine:`Memo ~reduce:commute ~depth:4 (row "cas") ~n:2 in
  let fp = Campaign.Task.fingerprint task in
  Alcotest.(check string) "deterministic" fp (Campaign.Task.fingerprint task);
  Alcotest.(check int) "16 hex chars" 16 (String.length fp);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digit" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    fp;
  let fingerprints =
    List.map Campaign.Task.fingerprint
      [
        task;
        Campaign.Task.check ~engine:`Naive ~reduce:commute ~depth:4 (row "cas") ~n:2;
        Campaign.Task.check ~engine:`Memo ~reduce:commute ~depth:5 (row "cas") ~n:2;
        Campaign.Task.check ~engine:`Memo ~reduce:commute ~depth:4 (row "cas") ~n:3;
        Campaign.Task.check ~engine:`Memo ~reduce:commute ~depth:4 (row "swap") ~n:2;
        Campaign.Task.stress ~seed:1 ~prefix:64 ~max_burst:4 (row "cas") ~n:2;
        Campaign.Task.stress ~seed:2 ~prefix:64 ~max_burst:4 (row "cas") ~n:2;
      ]
  in
  Alcotest.(check int) "all distinct"
    (List.length fingerprints)
    (List.length (List.sort_uniq compare fingerprints))

let test_spec_expansion () =
  let spec =
    {
      Campaign.Spec.smoke with
      Campaign.Spec.include_rows = [ "cas"; "swap" ];
      ns = [ 2; 3 ];
      depths = [ 3; 4 ];
      stress_seeds = [ 1 ];
    }
  in
  match Campaign.Spec.tasks spec with
  | Error e -> Alcotest.fail e
  | Ok tasks ->
    (* 2 rows x 2 ns x (2 depths x 1 engine x 1 reduction + 1 stress seed) *)
    Alcotest.(check int) "grid size" 12 (List.length tasks);
    (match Campaign.Spec.tasks { spec with Campaign.Spec.include_rows = [ "no-such" ] } with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "accepted an unknown row id");
    (match Campaign.Spec.tasks { spec with Campaign.Spec.ns = [] } with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "accepted an empty n grid")

let test_observed_tasks () =
  let check ?observe () =
    Campaign.Task.check ?observe ~engine:`Memo
      ~reduce:{ Explore.commute = true; symmetric = false }
      ~depth:3
      (match Hierarchy.find ~ells:[ 1; 2 ] "cas" with
       | Some r -> r
       | None -> Alcotest.fail "cas row missing")
      ~n:2
  in
  let plain = check () in
  let observed = check ~observe:[ "agreement"; "validity" ] () in
  (* the observer set is part of the content address: an observed run must
     never be answered from an unobserved run's cached record *)
  Alcotest.(check bool) "observer set changes the fingerprint" false
    (Campaign.Task.fingerprint plain = Campaign.Task.fingerprint observed);
  Alcotest.(check string) "no observers leaves the legacy fingerprint alone"
    (Campaign.Task.fingerprint plain)
    (Campaign.Task.fingerprint (check ~observe:[] ()));
  let r = Campaign.Task.run observed in
  Alcotest.(check (list string)) "record carries the observer names"
    [ "agreement"; "validity" ] r.Campaign.Record.observers;
  (match r.Campaign.Record.status with
   | Campaign.Record.Verified -> ()
   | _ -> Alcotest.fail "observed cas check should verify");
  (* unknown names resolve at run time into a Crash record, not an exception *)
  (match (Campaign.Task.run (check ~observe:[ "no-such-monitor" ] ())).Campaign.Record.status with
   | Campaign.Record.Crash _ -> ()
   | _ -> Alcotest.fail "unknown observer name should crash the task");
  (* specs canonicalize names before building tasks, so "default" and its
     expansion fingerprint identically *)
  let spec observe =
    {
      Campaign.Spec.smoke with
      Campaign.Spec.include_rows = [ "cas" ];
      ns = [ 2 ];
      depths = [ 3 ];
      stress_seeds = [];
      observe;
    }
  in
  let fingerprints observe =
    match Campaign.Spec.tasks (spec observe) with
    | Ok tasks -> List.map Campaign.Task.fingerprint tasks
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "\"default\" expands before fingerprinting"
    (fingerprints [ "agreement"; "validity"; "solo-termination" ])
    (fingerprints [ "default" ]);
  match Campaign.Spec.tasks (spec [ "no-such-monitor" ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "spec accepted an unknown observer name"

let test_crash_tasks () =
  let check ?crashes () =
    Campaign.Task.check ?crashes ~engine:`Memo ~reduce:commute ~depth:4 (row "cas") ~n:2
  in
  let plain = check () in
  (* an explicit zero budget is the historical fingerprint: crash-free grids
     keep addressing the store entries they wrote before the crash subsystem *)
  Alcotest.(check string) "crashes=0 keeps the legacy fingerprint"
    (Campaign.Task.fingerprint plain)
    (Campaign.Task.fingerprint (check ~crashes:0 ()));
  Alcotest.(check bool) "a positive budget changes the fingerprint" false
    (Campaign.Task.fingerprint plain = Campaign.Task.fingerprint (check ~crashes:1 ()));
  let mk crashes =
    Campaign.Record.make ~task:"0123456789abcdef" ~kind:"check" ~row:"rc-cas"
      ~protocol:"rc-cas" ~n:2 ~depth:14 ~engine:"memo" ~reduce:"none" ~crashes
      ~status:Campaign.Record.Verified ()
  in
  Alcotest.(check bool) "crash-free records omit the field" true
    (Campaign.Json.member "crashes" (Campaign.Record.to_json (mk 0)) = Campaign.Json.Null);
  (match Campaign.Record.of_json (Campaign.Record.to_json (mk 1)) with
   | Ok r -> Alcotest.(check int) "crash budget round-trips" 1 r.Campaign.Record.crashes
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "the crash budget is part of the verdict" false
    (Campaign.Record.same_verdict (mk 0) (mk 1));
  (* specs: the recovery rows are visible exactly when the budget is positive *)
  let spec crashes =
    {
      Campaign.Spec.smoke with
      Campaign.Spec.include_rows = [ "rc-cas" ];
      ns = [ 2 ];
      depths = [ 14 ];
      stress_seeds = [];
      crashes;
    }
  in
  (match Campaign.Spec.tasks (spec 0) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "crash-free spec admitted a recovery row");
  match Campaign.Spec.tasks (spec 1) with
  | Ok [ t ] ->
    let r = Campaign.Task.run t in
    Alcotest.(check int) "record carries the crash budget" 1 r.Campaign.Record.crashes;
    (match r.Campaign.Record.status with
     | Campaign.Record.Verified -> ()
     | s -> Alcotest.failf "rc-cas crash check: %s" (Campaign.Record.status_name s))
  | Ok ts -> Alcotest.failf "expected 1 task, got %d" (List.length ts)
  | Error e -> Alcotest.fail e

let test_spec_refuses_out_of_range () =
  let spec =
    {
      Campaign.Spec.smoke with
      Campaign.Spec.include_rows = [ "rw" ];
      ns = [ 2 ];
      depths = [ 2 ];
      reduces = [ Explore.no_reduction ];
      stress_seeds = [];
    }
  in
  let expect what ok spec =
    match Campaign.Spec.tasks spec with
    | Ok _ when not ok -> Alcotest.failf "%s: accepted, so every task would crash" what
    | Error e when ok -> Alcotest.failf "%s: refused (%s)" what e
    | _ -> ()
  in
  expect "n = 0" false { spec with ns = [ 0 ] };
  expect "depth -1" false { spec with depths = [ -1 ] };
  expect "depth past the table" false { spec with depths = [ Transposition.max_depth + 1 ] };
  expect "commute over 40 processes" false { spec with ns = [ 40 ]; reduces = [ commute ] };
  expect "a check past the pid mask" false
    { spec with ns = [ Explore.max_processes + 1 ] };
  expect "negative crash budget" false { spec with crashes = -1 };
  expect "solo fuel 0" false { spec with solo_fuel = 0 };
  (* the limits themselves, and what they do not apply to, still expand *)
  expect "commute over 31 processes" true { spec with ns = [ 31 ]; reduces = [ commute ] };
  expect "40 processes without commute" true { spec with ns = [ 40 ] };
  expect "a check at the pid mask's width" true
    { spec with ns = [ Explore.max_processes ] };
  expect "stress only: the reductions are unused" true
    { spec with ns = [ 40 ]; depths = []; reduces = [ commute ]; stress_seeds = [ 1 ] };
  expect "stress only: no pid mask" true
    { spec with ns = [ Explore.max_processes + 1 ]; depths = []; stress_seeds = [ 1 ] };
  expect "depth 0" true { spec with depths = [ 0 ] }

(* --- store ------------------------------------------------------------- *)

let test_store_roundtrip_and_reopen () =
  let dir = temp_dir () in
  let store = Campaign.Store.open_ ~dir () in
  Alcotest.(check int) "fresh store empty" 0 (Campaign.Store.count store);
  let r1 = record ~task:"aaaaaaaaaaaaaaaa" () in
  let r2 = record ~task:"bbbbbbbbbbbbbbbb" ~status:Campaign.Record.Timeout () in
  Campaign.Store.put store r1;
  Campaign.Store.put store r2;
  Alcotest.(check bool) "mem" true (Campaign.Store.mem store "aaaaaaaaaaaaaaaa");
  Alcotest.(check bool) "find" true (Campaign.Store.find store "bbbbbbbbbbbbbbbb" = Some r2);
  (* a second handle on the same directory recovers both records *)
  let store' = Campaign.Store.open_ ~dir () in
  Alcotest.(check int) "reopened count" 2 (Campaign.Store.count store');
  Alcotest.(check bool) "reopened record" true
    (Campaign.Store.find store' "aaaaaaaaaaaaaaaa" = Some r1);
  (* overwrite wins *)
  let r1' = { r1 with Campaign.Record.elapsed = 9.0 } in
  Campaign.Store.put store' r1';
  Alcotest.(check bool) "overwritten" true
    (Campaign.Store.find store' "aaaaaaaaaaaaaaaa" = Some r1')

let test_store_skips_corrupt_files () =
  let dir = temp_dir () in
  let store = Campaign.Store.open_ ~dir () in
  Campaign.Store.put store (record ~task:"cccccccccccccccc" ());
  let write name contents =
    let oc = open_out (Filename.concat (Filename.concat dir "results") name) in
    output_string oc contents;
    close_out oc
  in
  write "not-json.json" "{ this is not json";
  write "not-a-record.json" "{\"hello\": 1}";
  write "bad-escape.json" "{\"task\": \"\\uZZZZ\"}";
  let store' = Campaign.Store.open_ ~dir () in
  Alcotest.(check int) "only the valid record" 1 (Campaign.Store.count store');
  Alcotest.(check bool) "valid record survives" true
    (Campaign.Store.mem store' "cccccccccccccccc")

let test_store_claim_protocol () =
  let dir = temp_dir () in
  let store = Campaign.Store.open_ ~dir () in
  let task = "aaaaaaaaaaaaaaaa" in
  (match Campaign.Store.claim store task with
   | `Claimed -> ()
   | `Done _ | `Lost -> Alcotest.fail "fresh claim should win");
  Alcotest.(check (list string)) "lease files on disk"
    [ Printf.sprintf "%s.%d" task (Unix.getpid ()); task ^ ".lease" ]
    (list_claims dir);
  (* re-claiming one's own live lease is idempotent, not a deadlock *)
  (match Campaign.Store.claim store task with
   | `Claimed -> ()
   | `Done _ | `Lost -> Alcotest.fail "the holder must be able to re-claim");
  Campaign.Store.put store (record ~task ());
  Alcotest.(check (list string)) "put releases the lease" [] (list_claims dir);
  match Campaign.Store.claim store task with
  | `Done r -> Alcotest.(check string) "claim short-circuits to the record" task
                 r.Campaign.Record.task
  | `Claimed | `Lost -> Alcotest.fail "a completed task must claim as Done"

let test_store_claim_release () =
  let dir = temp_dir () in
  let store = Campaign.Store.open_ ~dir () in
  let task = "bbbbbbbbbbbbbbbb" in
  (match Campaign.Store.claim store task with
   | `Claimed -> ()
   | `Done _ | `Lost -> Alcotest.fail "fresh claim should win");
  Campaign.Store.release store task;
  Alcotest.(check (list string)) "release clears claims/" [] (list_claims dir);
  match Campaign.Store.claim store task with
  | `Claimed -> ()
  | `Done _ | `Lost -> Alcotest.fail "a released task must be claimable again"

(* The domains of one process share its pid, hence its lease file: while
   one of them holds a task, a claim from another must lose, as a claim
   from another process would.  Two tasks with one fingerprint in a
   two-domain [run_shared] otherwise both execute. *)
let test_store_claim_between_domains () =
  let dir = temp_dir () in
  let store = Campaign.Store.open_ ~dir () in
  let task = "eeeeeeeeeeeeeeee" in
  let elsewhere () = Domain.join (Domain.spawn (fun () -> Campaign.Store.claim store task)) in
  (match Campaign.Store.claim store task with
   | `Claimed -> ()
   | `Done _ | `Lost -> Alcotest.fail "fresh claim should win");
  (match elsewhere () with
   | `Lost -> ()
   | `Claimed | `Done _ -> Alcotest.fail "another domain must lose a held task");
  Campaign.Store.put store (record ~task ());
  match elsewhere () with
  | `Done r ->
    Alcotest.(check string) "then it reads the holder's record" task r.Campaign.Record.task
  | `Claimed | `Lost -> Alcotest.fail "a completed task must claim as Done"

let test_store_claim_foreign_lease () =
  let dir = temp_dir () in
  let store = Campaign.Store.open_ ~dir () in
  let task = "cccccccccccccccc" in
  (* a live lease from some other writer: a distinct inode, fresh mtime *)
  let lock = Filename.concat (Filename.concat dir "claims") (task ^ ".lease") in
  write_raw lock "99999\n";
  (match Campaign.Store.claim store task with
   | `Lost -> ()
   | `Claimed | `Done _ -> Alcotest.fail "a live foreign lease must not be stolen");
  (* the loser withdraws its own pid file; the foreign lease survives *)
  Alcotest.(check (list string)) "only the foreign lease remains"
    [ task ^ ".lease" ] (list_claims dir);
  (* once the holder is presumed dead (mtime beyond the ttl), break the lease *)
  age_file lock 3600.0;
  match Campaign.Store.claim store task with
  | `Claimed -> ()
  | `Done _ | `Lost -> Alcotest.fail "an expired lease must be re-claimable"

let test_store_sweeps_stale_debris () =
  let dir = temp_dir () in
  ignore (Campaign.Store.open_ ~dir ());
  let results = Filename.concat dir "results" in
  let record_path = Filename.concat results "dddddddddddddddd.json" in
  write_raw record_path
    (Campaign.Json.to_string
       (Campaign.Record.to_json (record ~task:"dddddddddddddddd" ())));
  age_file record_path 7200.0;
  let stale_tmp = Filename.concat results "eeeeeeeeeeeeeeee.json.tmp.424242.7" in
  write_raw stale_tmp "{ truncated by a crashed wri";
  age_file stale_tmp 7200.0;
  let fresh_tmp = Filename.concat results "ffffffffffffffff.json.tmp.424242.8" in
  write_raw fresh_tmp "{ a live writer is mid-put";
  let stale_claim =
    Filename.concat (Filename.concat dir "claims") "dddddddddddddddd.lease"
  in
  write_raw stale_claim "424242\n";
  age_file stale_claim 7200.0;
  let store = Campaign.Store.open_ ~dir () in
  Alcotest.(check bool) "stale tmp swept" false (Sys.file_exists stale_tmp);
  Alcotest.(check bool) "fresh tmp kept" true (Sys.file_exists fresh_tmp);
  Alcotest.(check bool) "stale claim swept" false (Sys.file_exists stale_claim);
  Alcotest.(check bool) "old records are never swept" true
    (Campaign.Store.mem store "dddddddddddddddd")

let test_store_put_race_two_handles () =
  let dir = temp_dir () in
  let a = Campaign.Store.open_ ~dir () in
  let b = Campaign.Store.open_ ~dir () in
  let task = "0000000000000000" in
  (* two handles share a pid but must never share a tmp name: hammer the same
     final path from two domains and require a whole record at the end *)
  let hammer store =
    Domain.spawn (fun () ->
        for i = 1 to 40 do
          Campaign.Store.put store
            { (record ~task ()) with Campaign.Record.elapsed = float_of_int i }
        done)
  in
  let d1 = hammer a and d2 = hammer b in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check (list string)) "one whole record file, no tmp debris"
    [ task ^ ".json" ]
    (List.sort compare (Array.to_list (Sys.readdir (Filename.concat dir "results"))));
  let store = Campaign.Store.open_ ~dir () in
  match Campaign.Store.find store task with
  | Some r -> Alcotest.(check string) "record parses whole" task r.Campaign.Record.task
  | None -> Alcotest.fail "record lost in the race"

let test_store_find_rescans_disk () =
  let dir = temp_dir () in
  let a = Campaign.Store.open_ ~dir () in
  let b = Campaign.Store.open_ ~dir () in
  let task = "1111111111111111" in
  Alcotest.(check bool) "b starts empty" false (Campaign.Store.mem b task);
  Campaign.Store.put a (record ~task ());
  (* b's in-memory index missed it; the on-miss disk probe must reconcile *)
  Alcotest.(check bool) "b sees a's record without reopening" true
    (Campaign.Store.mem b task)

let test_store_event_lines_stay_whole () =
  let dir = temp_dir () in
  let store = Campaign.Store.open_ ~dir () in
  let payload = String.make 64 'x' in
  let writers =
    Array.init 4 (fun w ->
        Domain.spawn (fun () ->
            for i = 1 to 25 do
              Campaign.Store.log_event store
                (Campaign.Json.Obj
                   [
                     ("event", Campaign.Json.String "noise");
                     ("writer", Campaign.Json.Int w);
                     ("i", Campaign.Json.Int i);
                     ("pad", Campaign.Json.String payload);
                   ])
            done))
  in
  Array.iter Domain.join writers;
  Campaign.Store.close store;
  let lines = read_lines (Filename.concat dir "events.jsonl") in
  Alcotest.(check int) "one line per event" 100 (List.length lines);
  List.iter
    (fun line ->
      match Campaign.Json.of_string line with
      | Error e -> Alcotest.failf "interleaved or torn line %S: %s" line e
      | Ok j ->
        Alcotest.(check (option int)) "stamped with the writer pid"
          (Some (Unix.getpid ()))
          (Campaign.Json.get_int (Campaign.Json.member "pid" j));
        Alcotest.(check bool) "stamped with a timestamp" true
          (Campaign.Json.get_float (Campaign.Json.member "ts" j) <> None))
    lines

(* --- executor ---------------------------------------------------------- *)

let smoke_tasks () =
  let spec =
    {
      Campaign.Spec.smoke with
      Campaign.Spec.include_rows = [ "cas"; "swap"; "max-register" ];
      depths = [ 3 ];
    }
  in
  match Campaign.Spec.tasks spec with
  | Ok tasks -> tasks
  | Error e -> Alcotest.fail e

let test_executor_runs_and_verifies () =
  let dir = temp_dir () in
  let store = Campaign.Store.open_ ~dir () in
  let tasks = smoke_tasks () in
  let o = Campaign.Executor.run ~store tasks in
  Alcotest.(check int) "total" (List.length tasks) o.Campaign.Executor.total;
  Alcotest.(check int) "all executed" (List.length tasks) o.Campaign.Executor.executed;
  Alcotest.(check int) "none cached" 0 o.Campaign.Executor.cached;
  Alcotest.(check int) "records for every task" (List.length tasks)
    (List.length o.Campaign.Executor.records);
  List.iter
    (fun (r : Campaign.Record.t) ->
      Alcotest.(check string) "verified"
        "verified"
        (Campaign.Record.status_name r.Campaign.Record.status))
    o.Campaign.Executor.records;
  (* the report covers every requested row with a verified cell *)
  let report = Campaign.Report.make o.Campaign.Executor.records in
  Alcotest.(check int) "nothing unexpected" 0
    (List.length (Campaign.Report.unexpected report));
  let rendered = Campaign.Report.render report in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (id ^ " appears in the rendering")
        true (contains rendered id))
    [ "cas"; "swap"; "max-register" ]

let test_executor_resumes_after_interrupt () =
  let dir = temp_dir () in
  let tasks = smoke_tasks () in
  let total = List.length tasks in
  (* first run: stop after 4 completed tasks — an interrupted campaign *)
  let finished = ref 0 in
  let on_event = function
    | Campaign.Executor.Task_finished _ -> incr finished
    | _ -> ()
  in
  let store = Campaign.Store.open_ ~dir () in
  let first =
    Campaign.Executor.run ~store ~stop:(fun () -> !finished >= 4) ~on_event tasks
  in
  Alcotest.(check int) "first run executed 4" 4 first.Campaign.Executor.executed;
  Alcotest.(check int) "first run aborted the rest" (total - 4)
    first.Campaign.Executor.aborted;
  (* second run against the same directory: picks up exactly the remainder *)
  let store' = Campaign.Store.open_ ~dir () in
  let second = Campaign.Executor.run ~store:store' tasks in
  Alcotest.(check int) "second run skips completed tasks" 4
    second.Campaign.Executor.cached;
  Alcotest.(check int) "second run executes the remainder" (total - 4)
    second.Campaign.Executor.executed;
  Alcotest.(check int) "nothing aborted" 0 second.Campaign.Executor.aborted;
  Alcotest.(check int) "full record set" total
    (List.length second.Campaign.Executor.records);
  (* third run: everything cached, nothing executed *)
  let third = Campaign.Executor.run ~store:(Campaign.Store.open_ ~dir ()) tasks in
  Alcotest.(check int) "third run all cached" total third.Campaign.Executor.cached;
  Alcotest.(check int) "third run executes nothing" 0 third.Campaign.Executor.executed

let test_executor_honours_deadline () =
  let dir = temp_dir () in
  let store = Campaign.Store.open_ ~dir () in
  (* a negative deadline expires at the first check: verdict must be a
     timeout record, not a hang and not a crash *)
  let task =
    Campaign.Task.check ~deadline:(-1.0) ~engine:`Memo ~reduce:commute ~depth:8
      (row "swap") ~n:3
  in
  let o = Campaign.Executor.run ~store [ task ] in
  match o.Campaign.Executor.records with
  | [ r ] ->
    Alcotest.(check string) "timeout verdict" "timeout"
      (Campaign.Record.status_name r.Campaign.Record.status)
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs)

let test_executor_isolates_crashes () =
  let dir = temp_dir () in
  let store = Campaign.Store.open_ ~dir () in
  let broken : Consensus.Proto.t =
    (module struct
      module I = Isets.Rw

      let name = "deliberately-broken"
      let locations ~n:_ = Some 1
      let proc ~n:_ ~pid:_ ~input:_ = failwith "boom"
    end)
  in
  let broken_row =
    { (row "cas") with Hierarchy.id = "broken"; protocol = broken }
  in
  let tasks =
    [
      Campaign.Task.check ~engine:`Memo ~reduce:commute ~depth:3 broken_row ~n:2;
      Campaign.Task.check ~engine:`Memo ~reduce:commute ~depth:3 (row "cas") ~n:2;
    ]
  in
  let o = Campaign.Executor.run ~store tasks in
  Alcotest.(check int) "both tasks ran" 2 o.Campaign.Executor.executed;
  match o.Campaign.Executor.records with
  | [ r_broken; r_ok ] ->
    Alcotest.(check string) "crash captured" "crash"
      (Campaign.Record.status_name r_broken.Campaign.Record.status);
    Alcotest.(check string) "sweep continued past it" "verified"
      (Campaign.Record.status_name r_ok.Campaign.Record.status)
  | rs -> Alcotest.failf "expected two records, got %d" (List.length rs)

let test_executor_logs_events () =
  let dir = temp_dir () in
  let store = Campaign.Store.open_ ~dir () in
  let tasks = [ Campaign.Task.check ~engine:`Memo ~reduce:commute ~depth:3 (row "cas") ~n:2 ] in
  ignore (Campaign.Executor.run ~store tasks);
  let ic = open_in (Filename.concat dir "events.jsonl") in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let events =
    List.rev_map
      (fun line ->
        match Campaign.Json.of_string line with
        | Ok j -> Option.get (Campaign.Json.get_string (Campaign.Json.member "event" j))
        | Error e -> Alcotest.failf "unparseable event line %S: %s" line e)
      !lines
  in
  Alcotest.(check (list string)) "telemetry sequence"
    [ "campaign_started"; "task_started"; "task_finished"; "campaign_finished" ]
    events

(* A raising [on_event] stops the whole pool: the exception reaches the
   caller, the other worker starts no further task, and no helper is left
   running to emit events after [run] has raised — whichever of the two
   workers raised first. *)
let test_executor_raise_stops_every_worker () =
  let store = Campaign.Store.open_ ~dir:(temp_dir ()) () in
  let tasks =
    List.concat_map
      (fun id ->
        List.map
          (fun depth -> Campaign.Task.check ~engine:`Memo ~reduce:commute ~depth (row id) ~n:2)
          [ 3; 4; 5; 6; 7; 8; 9; 10 ])
      [ "cas"; "swap"; "max-register"; "rw"; "add" ]
  in
  let events = Atomic.make 0 and started = Atomic.make 0 and raised = Atomic.make false in
  let on_event ev =
    Atomic.incr events;
    match ev with
    | Campaign.Executor.Task_started _ -> Atomic.incr started
    | Campaign.Executor.Task_finished { cached = false; _ }
      when Atomic.compare_and_set raised false true ->
      raise Exit
    | _ -> ()
  in
  Alcotest.check_raises "on_event's exception reaches the caller" Exit (fun () ->
      ignore (Campaign.Executor.run ~domains:2 ~on_event ~store tasks));
  let after_return = Atomic.get events in
  Unix.sleepf 0.05;
  Alcotest.(check int) "no event after run raised" after_return (Atomic.get events);
  Alcotest.(check bool)
    (Printf.sprintf "started %d of %d tasks" (Atomic.get started) (List.length tasks))
    true
    (Atomic.get started < List.length tasks)

let test_run_shared_executes_then_dedupes () =
  let dir = temp_dir () in
  let tasks = smoke_tasks () in
  let total = List.length tasks in
  let store = Campaign.Store.open_ ~dir () in
  let first = Campaign.Executor.run_shared ~store tasks in
  Alcotest.(check int) "first run executes everything" total
    first.Campaign.Executor.executed;
  Alcotest.(check int) "nothing cached" 0 first.Campaign.Executor.cached;
  Alcotest.(check int) "nothing aborted" 0 first.Campaign.Executor.aborted;
  Alcotest.(check (list string)) "no leases left behind" [] (list_claims dir);
  (* a second worker over the same directory replays from the store *)
  let store' = Campaign.Store.open_ ~dir () in
  let second = Campaign.Executor.run_shared ~store:store' tasks in
  Alcotest.(check int) "rerun executes nothing" 0 second.Campaign.Executor.executed;
  Alcotest.(check int) "rerun fully cached" total second.Campaign.Executor.cached;
  (* `campaign report` over the store renders exactly what the run returned *)
  Alcotest.(check string) "report over the store matches the run's records"
    (Campaign.Report.render (Campaign.Report.make first.Campaign.Executor.records))
    (Campaign.Report.render (Campaign.Report.of_store store'))

let test_run_shared_breaks_expired_leases () =
  let dir = temp_dir () in
  let task =
    Campaign.Task.check ~engine:`Memo ~reduce:commute ~depth:3 (row "cas") ~n:2
  in
  let fp = Campaign.Task.fingerprint task in
  let store = Campaign.Store.open_ ~lease_ttl:0.2 ~dir () in
  (* a crashed worker's lease: live at first sight, expired shortly after *)
  write_raw (Filename.concat (Filename.concat dir "claims") (fp ^ ".lease"))
    "99999\n";
  let yielded = ref 0 in
  let on_event = function
    | Campaign.Executor.Task_yielded _ -> incr yielded
    | _ -> ()
  in
  let o = Campaign.Executor.run_shared ~store ~on_event ~poll_interval:0.02 [ task ] in
  Alcotest.(check bool) "the live lease was honoured first" true (!yielded >= 1);
  Alcotest.(check int) "executed here once the lease expired" 1
    o.Campaign.Executor.executed;
  Alcotest.(check int) "nothing aborted" 0 o.Campaign.Executor.aborted;
  Alcotest.(check (list string)) "claims dir clean afterwards" [] (list_claims dir)

let test_run_shared_drain_bounded_by_timeout () =
  let dir = temp_dir () in
  let task =
    Campaign.Task.check ~engine:`Memo ~reduce:commute ~depth:3 (row "cas") ~n:2
  in
  let fp = Campaign.Task.fingerprint task in
  let store = Campaign.Store.open_ ~lease_ttl:0.2 ~dir () in
  (* a foreign lease whose mtime sits an hour in the future — clock skew on a
     shared filesystem.  Its age never exceeds the ttl, so before the drain
     bound existed [run_shared] would honour it forever and spin. *)
  let lease = Filename.concat (Filename.concat dir "claims") (fp ^ ".lease") in
  write_raw lease "99999\n";
  let future = Unix.gettimeofday () +. 3600.0 in
  Unix.utimes lease future future;
  let started = Unix.gettimeofday () in
  let o =
    Campaign.Executor.run_shared ~store ~poll_interval:0.02 ~drain_timeout:0.3
      [ task ]
  in
  let elapsed = Unix.gettimeofday () -. started in
  Alcotest.(check int) "executed after the drain bound broke the stuck lease" 1
    o.Campaign.Executor.executed;
  Alcotest.(check int) "nothing aborted" 0 o.Campaign.Executor.aborted;
  Alcotest.(check bool)
    (Printf.sprintf "returned promptly (%.1fs)" elapsed)
    true (elapsed < 30.0);
  Alcotest.(check (list string)) "claims dir clean afterwards" [] (list_claims dir)

(* A directory written before symmetry certificates left the store: its
   results/ and events.jsonl come from a real run, and certs/ holds a
   certificate plus a temp file of the age the store used to sweep.  The
   store opens it, indexes every record, reruns nothing, reports the same,
   and leaves certs/ as it was. *)
let test_store_opens_older_layout () =
  let dir = temp_dir () in
  let symmetric = { Explore.commute = false; symmetric = true } in
  let tasks =
    [
      Campaign.Task.check ~engine:`Memo ~reduce:symmetric ~depth:4
        (row "intro-faa2-tas") ~n:3;
      Campaign.Task.check ~engine:`Memo ~reduce:commute ~depth:4 (row "cas") ~n:2;
    ]
  in
  let first = Campaign.Executor.run ~store:(Campaign.Store.open_ ~dir ()) tasks in
  let certs = Filename.concat dir "certs" in
  Unix.mkdir certs 0o755;
  write_raw
    (Filename.concat certs "0123456789abcdef.json")
    "{\n  \"kind\": \"certified\",\n  \"depth\": 5,\n  \"pairs\": 1\n}\n";
  let leftover = Filename.concat certs "fedcba9876543210.json.tmp.424242.3" in
  write_raw leftover "{ \"kind\": \"certi";
  age_file leftover 7200.0;
  let snapshot () =
    Sys.readdir certs |> Array.to_list |> List.sort compare
    |> List.map (fun f ->
           let ic = open_in_bin (Filename.concat certs f) in
           let contents = really_input_string ic (in_channel_length ic) in
           close_in ic;
           (f, contents))
  in
  let before = snapshot () in
  Alcotest.(check bool) "events.jsonl written" true
    (Sys.file_exists (Filename.concat dir "events.jsonl"));
  let store = Campaign.Store.open_ ~dir () in
  Alcotest.(check int) "every record indexed" (List.length tasks)
    (Campaign.Store.count store);
  let rerun = Campaign.Executor.run ~store tasks in
  Alcotest.(check int) "rerun executes nothing" 0 rerun.Campaign.Executor.executed;
  let csv (o : Campaign.Executor.outcome) =
    Campaign.Report.to_csv (Campaign.Report.make o.records)
  in
  Alcotest.(check string) "same report" (csv first) (csv rerun);
  Alcotest.(check (list (pair string string))) "certs/ left as it was" before
    (snapshot ())

(* Worker domains certify symmetric tasks on first use, through the
   sharded in-process cache: two domains store what one does.  The binary
   rows at n = 3 hold an equal-input pair, so their certificates are real
   work; rw with two equal inputs is pid-dependent and must be refused. *)
let test_executor_domains_certify_alike () =
  let symmetric = { Explore.commute = false; symmetric = true } in
  let reduces = [ symmetric; Explore.full_reduction ] in
  let check reduce id = Campaign.Task.check ~engine:`Memo ~reduce ~depth:4 (row id) ~n:3 in
  let tasks =
    List.concat_map
      (fun id -> List.map (fun reduce -> check reduce id) reduces)
      [ "tas"; "write1"; "write01"; "tas-reset"; "intro-faa2-tas"; "intro-dec-mul" ]
    @ List.map
        (fun reduce -> { (check reduce "rw") with Campaign.Task.inputs = [| 0; 0; 1 |] })
        reduces
  in
  let run domains =
    Analysis.Symmetry.reset_run_cache ();
    let store = Campaign.Store.open_ ~dir:(temp_dir ()) () in
    let o = Campaign.Executor.run ~domains ~store tasks in
    Alcotest.(check int) "all executed" (List.length tasks) o.Campaign.Executor.executed;
    o.Campaign.Executor.records
  in
  let show (r : Campaign.Record.t) =
    Campaign.Json.to_string (Campaign.Record.to_json { r with elapsed = 0.0 })
  in
  let two = run 2 in
  Alcotest.(check (list string)) "two domains store what one does"
    (List.map show (run 1)) (List.map show two);
  List.iter
    (fun (r : Campaign.Record.t) ->
      if r.row = "rw" then
        match r.status with
        | Campaign.Record.Crash msg when contains msg "symmetric reduction refused" -> ()
        | _ -> Alcotest.failf "rw with equal inputs: %s" (show r))
    two

(* --- status ------------------------------------------------------------ *)

let test_status_folds_multiwriter_log () =
  let lines =
    [
      {|{"event": "campaign_started", "total": 2, "cached": 0, "pid": 11, "ts": 10.0}|};
      {|{"event": "task_started", "index": 0, "task": "t1", "pid": 11, "ts": 10.5}|};
      {|{"event": "task_finished", "task": "t1", "cached": false, "configs": 40, "elapsed": 1.5, "pid": 11, "ts": 12.0}|};
      {|{"event": "task_yielded", "index": 1, "task": "t2", "pid": 11, "ts": 12.1}|};
      {|{"event": "task_finished", "task": "t2", "cached": false, "configs": 10, "elapsed": 0.5, "pid": 22, "ts": 12.5}|};
      {|{"event": "task_finished", "task": "t2", "cached": true, "pid": 11, "ts": 13.0}|};
      {|{"event": "task_finished", "task": "t2", "cached": false, "configs": 10, "elapsed": 0.4, "pid": 33, "ts": 13.5}|};
      (* a line predating the multi-writer schema: no pid, folds under pid 0 *)
      {|{"event": "campaign_finished", "executed": 1}|};
      "this line is not json";
      "";
    ]
  in
  let s = Campaign.Status.of_lines lines in
  Alcotest.(check int) "workers (three pids plus legacy)" 4
    (List.length s.Campaign.Status.workers);
  Alcotest.(check int) "events" 8 s.Campaign.Status.events;
  Alcotest.(check int) "malformed lines skipped, not fatal" 1
    s.Campaign.Status.malformed;
  Alcotest.(check int) "tasks finished" 2 s.Campaign.Status.tasks_finished;
  Alcotest.(check int) "executions" 3 s.Campaign.Status.executions;
  Alcotest.(check int) "t2 ran twice: one duplicated" 1 s.Campaign.Status.duplicated;
  let w11 =
    List.find (fun w -> w.Campaign.Status.pid = 11) s.Campaign.Status.workers
  in
  Alcotest.(check int) "pid 11 runs" 1 w11.Campaign.Status.runs;
  Alcotest.(check int) "pid 11 claimed" 1 w11.Campaign.Status.claimed;
  Alcotest.(check int) "pid 11 executed" 1 w11.Campaign.Status.executed;
  Alcotest.(check int) "pid 11 cached" 1 w11.Campaign.Status.cached;
  Alcotest.(check int) "pid 11 yielded" 1 w11.Campaign.Status.yielded;
  Alcotest.(check int) "pid 11 configs" 40 w11.Campaign.Status.configs;
  Alcotest.(check (float 1e-9)) "pid 11 span" 3.0 (Campaign.Status.worker_span w11);
  Alcotest.(check (float 1e-9)) "fleet span" 3.5 s.Campaign.Status.span;
  let rendered = Campaign.Status.render s in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " rendered") true (contains rendered needle))
    [ "pid 11"; "pid 22"; "(no pid)"; "3 execution(s)"; "1 duplicated" ]

let test_status_of_live_run () =
  let dir = temp_dir () in
  let store = Campaign.Store.open_ ~dir () in
  let tasks = smoke_tasks () in
  ignore (Campaign.Executor.run_shared ~store tasks);
  Campaign.Store.close store;
  match Campaign.Status.load ~dir with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check int) "one worker" 1 (List.length s.Campaign.Status.workers);
    Alcotest.(check int) "no malformed telemetry" 0 s.Campaign.Status.malformed;
    Alcotest.(check int) "every task finished" (List.length tasks)
      s.Campaign.Status.tasks_finished;
    Alcotest.(check int) "one execution per task" (List.length tasks)
      s.Campaign.Status.executions;
    Alcotest.(check int) "no duplicated executions" 0 s.Campaign.Status.duplicated

(* --- report ------------------------------------------------------------ *)

let test_report_worst_status_wins () =
  let rs =
    [
      record ~task:"1111111111111111" ();
      record ~task:"2222222222222222" ~status:Campaign.Record.Timeout ();
      record ~task:"3333333333333333"
        ~status:
          (Campaign.Record.Violation
             { kind = "agreement"; message = "boom"; schedule = [ 0 ]; probe = None })
        ();
    ]
  in
  let report = Campaign.Report.make rs in
  (match Campaign.Report.cells report with
   | [ c ] ->
     Alcotest.(check string) "violation dominates" "violation:agreement"
       (Campaign.Record.status_name c.Campaign.Report.status);
     Alcotest.(check int) "verified count" 1 c.Campaign.Report.verified;
     Alcotest.(check int) "total count" 3 c.Campaign.Report.total
   | cs -> Alcotest.failf "expected one cell, got %d" (List.length cs));
  Alcotest.(check int) "two unexpected records" 2
    (List.length (Campaign.Report.unexpected report));
  (* csv: a header plus one line per record *)
  let csv = Campaign.Report.to_csv report in
  Alcotest.(check int) "csv lines" 4
    (List.length (String.split_on_char '\n' (String.trim csv)))

(* --- parser fuzzing ------------------------------------------------------ *)

(* The store reads result files that a killed worker may have truncated
   and a bad disk may have flipped bytes in, so the decoders must answer
   [Error], never raise, on any input.  Inputs: arbitrary bytes, strings
   over JSON's own alphabet, and truncated or byte-flipped encodings of
   real records. *)

let gen_str = QCheck2.Gen.(string_size (int_range 0 12))

let gen_finite_float =
  QCheck2.Gen.(
    oneof
      [
        float_range (-1e6) 1e6;
        (* large integral values sit on the printer's Int/Float boundary *)
        map Float.of_int int;
        map2 Float.ldexp (float_range 0.5 1.) (int_range (-1074) 1023);
      ])

(* Finite floats only: a non-finite float inside [extra] comes back as its
   string sentinel ([Json.to_string]), so it has no exact round-trip. *)
let gen_json =
  QCheck2.Gen.(
    sized_size (int_range 0 16)
    @@ fix (fun self size ->
           let leaf =
             oneof
               [
                 pure Campaign.Json.Null;
                 map (fun b -> Campaign.Json.Bool b) bool;
                 map (fun i -> Campaign.Json.Int i) int;
                 map (fun f -> Campaign.Json.Float f) gen_finite_float;
                 map (fun s -> Campaign.Json.String s) gen_str;
               ]
           in
           if size <= 1 then leaf
           else
             let items g = list_size (int_range 0 3) g in
             frequency
               [
                 (3, leaf);
                 (1, map (fun l -> Campaign.Json.List l) (items (self (size / 4))));
                 ( 1,
                   map
                     (fun l -> Campaign.Json.Obj l)
                     (items (pair gen_str (self (size / 4)))) );
               ]))

(* Every status, arbitrary bytes in the strings, and any float — NaN and the
   infinities included — as [elapsed]. *)
let gen_record =
  QCheck2.Gen.(
    let status =
      oneof
        [
          pure Campaign.Record.Verified;
          pure Campaign.Record.Timeout;
          map (fun m -> Campaign.Record.Crash m) gen_str;
          (let+ kind = gen_str
           and+ message = gen_str
           and+ schedule = list_size (int_range 0 8) int
           and+ probe = opt int in
           Campaign.Record.Violation { kind; message; schedule; probe });
        ]
    in
    let+ (task, kind, row, protocol), (n, depth, engine, reduce) =
      pair (quad gen_str gen_str gen_str gen_str) (quad int int gen_str gen_str)
    and+ observers = list_size (int_range 0 3) gen_str
    and+ crashes = small_nat
    and+ status = status
    and+ configs, probes, dedup_hits, sleep_pruned = quad int int int int
    and+ truncated = bool
    and+ elapsed = float
    and+ extra = list_size (int_range 0 3) (pair gen_str gen_json) in
    Campaign.Record.make ~task ~kind ~row ~protocol ~n ~depth ~engine ~reduce ~observers
      ~crashes ~status ~configs ~probes ~dedup_hits ~sleep_pruned ~truncated ~elapsed
      ~extra ())

let gen_untrusted =
  QCheck2.Gen.(
    let encoding =
      oneof
        [
          map (fun r -> Campaign.Json.to_string (Campaign.Record.to_json r)) gen_record;
          map
            (fun r -> Campaign.Json.to_string_pretty (Campaign.Record.to_json r))
            gen_record;
        ]
    in
    let truncated =
      let* s = encoding in
      let+ k = int_range 0 (String.length s) in
      String.sub s 0 k
    in
    let flipped =
      let* s = encoding in
      let+ i = int_range 0 (String.length s - 1) and+ c = char in
      String.mapi (fun j d -> if j = i then c else d) s
    in
    oneof
      [
        string;
        string_of
          (oneofl (List.of_seq (String.to_seq "{}[]\":,\\/-+.0123456789eEnultrfasNI \n")));
        truncated;
        flipped;
      ])

let prop_parsers_never_raise =
  QCheck2.Test.make ~name:"decoders never raise on untrusted bytes" ~count:3000
    ~print:(Printf.sprintf "%S") gen_untrusted (fun s ->
      let total name f x =
        match f x with
        | _ -> true
        | exception e ->
          QCheck2.Test.fail_reportf "%s raised %s" name (Printexc.to_string e)
      in
      total "Json.of_string" Campaign.Json.of_string s
      && (match Campaign.Json.of_string s with
          | Ok j -> total "Record.of_json" Campaign.Record.of_json j
          | Error _ -> true))

(* [compare], not [=], so a NaN [elapsed] counts as equal to itself.  Both
   the in-memory tree and the bytes the store writes must round-trip. *)
let prop_record_roundtrip =
  QCheck2.Test.make ~name:"records round-trip through their JSON" ~count:1000
    ~print:(fun r -> Campaign.Json.to_string (Campaign.Record.to_json r))
    gen_record (fun r ->
      let json = Campaign.Record.to_json r in
      let same = function Ok r' -> compare r r' = 0 | Error _ -> false in
      same (Campaign.Record.of_json json)
      && List.for_all
           (fun print ->
             same
               (Result.bind (Campaign.Json.of_string (print json)) Campaign.Record.of_json))
           [ Campaign.Json.to_string; Campaign.Json.to_string_pretty ])

(* [campaign status] folds an [events.jsonl] that killed workers may have
   torn mid-line and bad disks may have flipped bytes in.  The log here is
   a real one (a small shared run's), made on first use; its lines are
   kept whole, torn, byte-flipped, nested deep or replaced by arbitrary
   bytes. *)
let real_event_lines =
  lazy
    (let dir = temp_dir () in
     let store = Campaign.Store.open_ ~dir () in
     ignore (Campaign.Executor.run_shared ~store (smoke_tasks ()));
     Campaign.Store.close store;
     read_lines (Filename.concat dir "events.jsonl"))

(* A proper non-empty prefix of a real line: an object left unclosed. *)
let gen_torn_line =
  QCheck2.Gen.(
    delay (fun () ->
        let* line = oneofl (Lazy.force real_event_lines) in
        let+ k = int_range 1 (String.length line - 1) in
        String.sub line 0 k))

let gen_event_line =
  QCheck2.Gen.(
    delay (fun () ->
        let* line = oneofl (Lazy.force real_event_lines) in
        oneof
          [
            pure line;
            gen_torn_line;
            (let+ i = int_range 0 (String.length line - 1) and+ c = char in
             String.mapi (fun j d -> if j = i then c else d) line);
            (let+ depth = int_range 1 10_000 in
             String.make depth '[' ^ String.make depth ']');
            string;
            pure "";
          ]))

let prop_status_folds_damaged_logs =
  QCheck2.Test.make ~name:"status folds damaged telemetry" ~count:1000
    ~print:QCheck2.Print.(pair (list string) string)
    QCheck2.Gen.(pair (list_size (int_range 0 20) gen_event_line) gen_torn_line)
    (fun (lines, torn) ->
      let fold lines =
        match Campaign.Status.of_lines lines with
        | s -> s
        | exception e ->
          QCheck2.Test.fail_reportf "of_lines raised %s" (Printexc.to_string e)
      in
      let s = fold lines in
      let non_blank = List.filter (fun l -> String.trim l <> "") lines in
      s.Campaign.Status.events + s.malformed = List.length non_blank
      (* a torn last line costs one malformed and nothing else *)
      && compare (fold (lines @ [ torn ])) { s with malformed = s.malformed + 1 } = 0)

let () =
  Alcotest.run "campaign"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "non-finite floats round-trip" `Quick
            test_json_nonfinite;
        ] );
      ( "record",
        [
          Alcotest.test_case "round-trip all statuses" `Quick test_record_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_record_rejects_garbage;
          Alcotest.test_case "same verdict ignores timing" `Quick
            test_record_same_verdict;
          Alcotest.test_case "observer field round-trips and back-compats" `Quick
            test_record_observers;
        ] );
      ( "task",
        [
          Alcotest.test_case "fingerprints stable and distinct" `Quick
            test_fingerprint_stable_and_distinct;
          Alcotest.test_case "spec expansion" `Quick test_spec_expansion;
          Alcotest.test_case "observed tasks" `Quick test_observed_tasks;
          Alcotest.test_case "crash budgets in tasks, records and specs" `Quick
            test_crash_tasks;
          Alcotest.test_case "spec refuses values no task could run" `Quick
            test_spec_refuses_out_of_range;
        ] );
      ( "store",
        [
          Alcotest.test_case "round-trip and reopen" `Quick test_store_roundtrip_and_reopen;
          Alcotest.test_case "skips corrupt files" `Quick test_store_skips_corrupt_files;
          Alcotest.test_case "claim protocol" `Quick test_store_claim_protocol;
          Alcotest.test_case "claim release" `Quick test_store_claim_release;
          Alcotest.test_case "one writer's domains arbitrate" `Quick
            test_store_claim_between_domains;
          Alcotest.test_case "foreign leases: honoured then broken" `Quick
            test_store_claim_foreign_lease;
          Alcotest.test_case "sweeps stale debris at open" `Quick
            test_store_sweeps_stale_debris;
          Alcotest.test_case "put race between two handles" `Quick
            test_store_put_race_two_handles;
          Alcotest.test_case "find rescans the disk" `Quick
            test_store_find_rescans_disk;
          Alcotest.test_case "event lines stay whole" `Quick
            test_store_event_lines_stay_whole;
          Alcotest.test_case "opens a directory with a certs/ layout" `Quick
            test_store_opens_older_layout;
        ] );
      ( "executor",
        [
          Alcotest.test_case "runs and verifies" `Quick test_executor_runs_and_verifies;
          Alcotest.test_case "resumes after interrupt" `Quick
            test_executor_resumes_after_interrupt;
          Alcotest.test_case "honours deadlines" `Quick test_executor_honours_deadline;
          Alcotest.test_case "isolates crashes" `Quick test_executor_isolates_crashes;
          Alcotest.test_case "logs telemetry events" `Quick test_executor_logs_events;
          Alcotest.test_case "a raise stops every worker" `Quick
            test_executor_raise_stops_every_worker;
          Alcotest.test_case "shared mode executes then dedupes" `Quick
            test_run_shared_executes_then_dedupes;
          Alcotest.test_case "shared mode breaks expired leases" `Quick
            test_run_shared_breaks_expired_leases;
          Alcotest.test_case "shared mode drain is bounded under clock skew"
            `Quick test_run_shared_drain_bounded_by_timeout;
          Alcotest.test_case "two domains certify like one" `Quick
            test_executor_domains_certify_alike;
        ] );
      ( "status",
        [
          Alcotest.test_case "folds a multi-writer log" `Quick
            test_status_folds_multiwriter_log;
          Alcotest.test_case "folds a live run's telemetry" `Quick
            test_status_of_live_run;
        ] );
      ( "report",
        [
          Alcotest.test_case "worst status wins" `Quick test_report_worst_status_wins;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_parsers_never_raise;
            prop_record_roundtrip;
            prop_status_folds_damaged_logs;
          ] );
    ]
