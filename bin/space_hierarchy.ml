(* Command-line driver: reproduce Table 1, run individual protocols, model
   check them, and run the lower-bound adversaries. *)

open Cmdliner

let ells_arg =
  let doc = "Buffer capacities to instantiate the ℓ-buffer rows at." in
  Arg.(value & opt (list int) [ 1; 2; 3 ] & info [ "ells" ] ~docv:"L1,L2,…" ~doc)

let ns_arg =
  let doc = "Process counts to measure at." in
  Arg.(value & opt (list int) [ 2; 3; 5; 8; 12 ] & info [ "ns" ] ~docv:"N1,N2,…" ~doc)

let table_cmd =
  let run ells ns csv =
    print_string
      (if csv then Hierarchy.render_csv ~ells ~ns () else Hierarchy.render ~ells ~ns ())
  in
  let csv_arg =
    let doc = "Emit machine-readable CSV instead of the aligned table." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Reproduce Table 1: paper bounds vs measured locations.")
    Term.(const run $ ells_arg $ ns_arg $ csv_arg)

let row_arg =
  let doc = "Row identifier (see `table`); e.g. swap, max-register, buffer-2." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ROW" ~doc)

let n_arg =
  let doc = "Number of processes." in
  Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random-scheduler seed." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)

let with_row ells id f =
  match Hierarchy.find ~ells id with
  | None -> `Error (false, Printf.sprintf "unknown row %S (try `table`)" id)
  | Some row -> f row

let run_cmd =
  let run ells id n seed prefix =
    with_row ells id (fun row ->
        match Hierarchy.measure ~seed ~prefix row ~n with
        | Error e -> `Error (false, e)
        | Ok m ->
          Printf.printf
            "%s  n=%d  decided=%d  locations=%d (allocated %s)  steps=%d\n"
            row.iset m.n m.decision m.measured
            (match m.allocated with None -> "unbounded" | Some a -> string_of_int a)
            m.steps;
          `Ok ())
  in
  let prefix_arg =
    let doc = "Adversarial random steps before the sequential finish." in
    Arg.(value & opt int 200 & info [ "prefix" ] ~docv:"STEPS" ~doc)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run one row's consensus protocol under an adversarial schedule.")
    Term.(ret (const run $ ells_arg $ row_arg $ n_arg $ seed_arg $ prefix_arg))

let modelcheck_cmd =
  let run ells id n depth everywhere engine domains trace no_shrink reduce force timeout
      observe crashes =
    with_row ells id (fun row ->
        let inputs =
          if row.binary_only then Array.init n (fun i -> i land 1)
          else Array.init n (fun i -> i mod n)
        in
        let probe = if everywhere then `Everywhere else `Leaves in
        let engine =
          match engine with
          | "naive" -> Ok `Naive
          | "memo" -> Ok `Memo
          | "parallel" -> Ok (`Parallel domains)
          | e -> Error (Printf.sprintf "unknown engine %S (naive|memo|parallel)" e)
        in
        let reduce =
          match reduce with
          | "none" -> Ok Explore.no_reduction
          | "commute" -> Ok { Explore.commute = true; symmetric = false }
          | "symmetric" -> Ok { Explore.commute = false; symmetric = true }
          | "full" -> Ok Explore.full_reduction
          | r -> Error (Printf.sprintf "unknown reduction %S (none|commute|symmetric|full)" r)
        in
        let notify_symmetry verdict =
          Format.printf "symmetry certificate: %a%s@." Analysis.Symmetry.pp_verdict
            verdict
            (if force && not (Analysis.Symmetry.certified verdict) then
               " — proceeding anyway (--force; reduction may be unsound)"
             else "")
        in
        match (engine, reduce, Observer.of_names observe) with
        | Error e, _, _ | _, Error e, _ | _, _, Error e -> `Error (false, e)
        | _ when crashes < 0 -> `Error (false, "--crashes must be non-negative")
        | Ok engine, Ok reduce, Ok observers ->
          (match
             Explore.run ~probe ~engine ~shrink:(not no_shrink) ~reduce ~crashes ~force
               ~observers ~notify_symmetry ?deadline:timeout row.protocol ~inputs ~depth
           with
           | exception Explore.Observer_unsafe_reduction { observer; reduction } ->
             `Error
               ( false,
                 Printf.sprintf
                   "observer %s is not sound under the %s reduction — drop the \
                    reduction or the observer (or --force to run anyway, at your own \
                    risk)"
                   observer reduction )
           | exception Explore.Uncertified_symmetry { protocol; verdict } ->
             `Error
               ( false,
                 Format.asprintf
                   "symmetric reduction refused for %s: %a@.(use --force to run the \
                    reduction anyway, at your own risk)"
                   protocol Analysis.Symmetry.pp_verdict verdict )
           | Explore.Completed s ->
             Printf.printf
               "%s: OK%s — %d configurations, %d probes, %d dedup hits, %d sleep-pruned, \
                %.3f s%s\n"
               row.iset
               (if crashes > 0 then
                  Printf.sprintf " under every placement of <= %d crash(es)" crashes
                else "")
               s.Explore.configs s.Explore.probes s.Explore.dedup_hits
               s.Explore.sleep_pruned s.Explore.elapsed
               (if s.Explore.truncated then Printf.sprintf " (truncated at depth %d)" depth
                else "");
             `Ok ()
           | Explore.Timed_out t ->
             `Error
               ( false,
                 Printf.sprintf
                   "%s: TIMEOUT — wall-clock budget of %.3gs expired after %d \
                    configurations and %d probes (%.3f s); raise --timeout or lower \
                    --depth"
                   row.iset t.Explore.deadline t.Explore.partial.Explore.configs
                   t.Explore.partial.Explore.probes t.Explore.partial.Explore.elapsed )
           | Explore.Falsified f ->
             let w = f.Explore.witness in
             let b = Buffer.create 256 in
             Buffer.add_string b ("violation: " ^ w.Explore.message ^ "\n");
             Buffer.add_string b
               (Printf.sprintf "  kind: %s\n" w.Explore.kind);
             let orig = List.length f.Explore.original.Explore.schedule in
             let now = List.length w.Explore.schedule in
             Buffer.add_string b
               (Printf.sprintf "  schedule (%d step%s%s): [%s]%s\n" now
                  (if now = 1 then "" else "s")
                  (if now < orig then Printf.sprintf ", shrunk from %d" orig else "")
                  (String.concat "; "
                     (List.map Explore.pp_schedule_entry w.Explore.schedule))
                  (match w.Explore.probe with
                   | Some p -> Printf.sprintf " then p%d solo" p
                   | None -> ""));
             Buffer.add_string b
               (Printf.sprintf "  replay reproduces: %b\n" f.Explore.reproduced);
             if trace then begin
               match f.Explore.trace with
               | Some t ->
                 Buffer.add_string b "  event trace of the replay:\n";
                 String.split_on_char '\n' t
                 |> List.iter (fun line ->
                        if line <> "" then Buffer.add_string b ("  " ^ line ^ "\n"))
               | None -> Buffer.add_string b "  (no trace: replay did not reproduce)\n"
             end;
             `Error (false, String.trim (Buffer.contents b))))
  in
  let depth_arg =
    let doc = "Exhaustive exploration depth (all schedules)." in
    Arg.(value & opt int 10 & info [ "depth" ] ~docv:"D" ~doc)
  in
  let everywhere_arg =
    let doc = "Probe obstruction-freedom at every configuration (slower)." in
    Arg.(value & flag & info [ "everywhere" ] ~doc)
  in
  let engine_arg =
    let doc = "Exploration engine: naive, memo, or parallel." in
    Arg.(value & opt string "memo" & info [ "engine" ] ~docv:"ENGINE" ~doc)
  in
  let domains_arg =
    let doc = "Worker domains for --engine=parallel." in
    Arg.(value & opt int 2 & info [ "domains" ] ~docv:"K" ~doc)
  in
  let trace_arg =
    let doc = "On a violation, print the replayed event trace of the witness." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let no_shrink_arg =
    let doc = "Report the witness exactly as found, without delta-debugging it." in
    Arg.(value & flag & info [ "no-shrink" ] ~doc)
  in
  let reduce_arg =
    let doc =
      "State-space reduction: none, commute (sleep-set commutativity, sound for every \
       protocol), symmetric (process-symmetry fingerprints, sound only for \
       pid-symmetric protocols), or full (both).  Symmetric reduction is gated on the \
       pid-symmetry certifier (see the lint command): the run prints the certificate \
       verdict and refuses uncertified protocols unless --force is given."
    in
    Arg.(value & opt string "none" & info [ "reduce" ] ~docv:"REDUCTION" ~doc)
  in
  let force_arg =
    let doc =
      "Run a symmetric reduction even when the certifier does not certify the protocol \
       pid-symmetric.  The exploration may then conflate configurations the protocol \
       distinguishes and miss violations — use only to experiment with what the \
       (unsound) reduction would prune."
    in
    Arg.(value & flag & info [ "force" ] ~doc)
  in
  let timeout_arg =
    let doc =
      "Wall-clock budget in seconds; an expired run exits non-zero reporting the \
       partial statistics instead of exploring unbounded."
    in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let observe_arg =
    let doc =
      "The observers to check: agreement, validity, solo-termination, lockout, \
       maxreg-monotonic, recoverable-agreement, recoverable-validity, or `default' \
       (the first three).  Empty (the default) checks `default'.  Observers marked \
       unsafe under the chosen --reduce refuse to run unless --force is given."
    in
    Arg.(value & opt (list string) [] & info [ "observe" ] ~docv:"OBS1,…" ~doc)
  in
  let crashes_arg =
    let doc =
      "Crash budget for exhaustive crash-point enumeration (Golab's crash-recovery \
       model): every placement of at most this many crash-recover transitions is \
       explored — a crashed process loses its program state, keeps shared memory, and \
       restarts from the protocol root.  Crash entries render as †pN in witness \
       schedules and CRASH events in --trace.  0 (the default) is the historical \
       crash-free check, bit-identical to a build without the crash subsystem.  The \
       recovery rows (rc-tas-naive, rc-cas) exist to be checked under this flag."
    in
    Arg.(value & opt int 0 & info [ "crashes" ] ~docv:"BUDGET" ~doc)
  in
  Cmd.v
    (Cmd.info "modelcheck"
       ~doc:"Exhaustively explore all schedules of a row's protocol up to a depth.")
    Term.(
      ret
        (const run $ ells_arg $ row_arg $ n_arg $ depth_arg $ everywhere_arg $ engine_arg
       $ domains_arg $ trace_arg $ no_shrink_arg $ reduce_arg $ force_arg $ timeout_arg
       $ observe_arg $ crashes_arg))

let lint_cmd =
  let run ells ns ids strict json cfg selftest mutants recovery =
    let findings =
      if selftest then Ok (Analysis.Lint.selftest ())
      else if mutants then
        Ok
          (List.concat_map
             (fun (m : Analysis.Mutants.iset_mutant) -> Analysis.Lint.lint_iset m.iset)
             Analysis.Mutants.iset_mutants
          @ List.concat_map
              (fun (m : Analysis.Mutants.proto_mutant) ->
                Analysis.Lint.lint_protocol ~cfg ~ns m.proto)
              Analysis.Mutants.proto_mutants)
      else
        match Analysis.Lint.run ~ells ~recovery ~ns ~cfg ~ids () with
        | fs -> Ok fs
        | exception Invalid_argument msg -> Error msg
    in
    match findings with
    | Error msg -> `Error (false, msg)
    | Ok findings ->
      let errors = Analysis.Report.errors findings in
      let warnings = Analysis.Report.warnings findings in
      if json then print_endline (Analysis.Report.json_of_findings findings)
      else begin
        List.iter (fun f -> Format.printf "%a@." Analysis.Report.pp_finding f) findings;
        Printf.printf "%d finding%s: %d error%s, %d warning%s\n" (List.length findings)
          (if List.length findings = 1 then "" else "s")
          errors
          (if errors = 1 then "" else "s")
          warnings
          (if warnings = 1 then "" else "s")
      end;
      if strict && errors > 0 then
        `Error (false, Printf.sprintf "lint --strict: %d error finding(s)" errors)
      else `Ok ()
  in
  let lint_ns_arg =
    let doc = "Process counts to certify and space-check protocols at." in
    Arg.(value & opt (list int) [ 2; 3 ] & info [ "ns" ] ~docv:"N1,N2,…" ~doc)
  in
  let rows_arg =
    let doc = "Rows to lint (default: all registered rows); e.g. cas max-register." in
    Arg.(value & pos_all string [] & info [] ~docv:"ROW…" ~doc)
  in
  let strict_arg =
    let doc = "Exit non-zero if any Error-severity finding is reported." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let json_arg =
    let doc = "Emit the findings as a JSON array instead of aligned text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let cfg_arg =
    let doc =
      "Layer the CFG/abstract-interpretation passes on top of the classic evidence \
       tiers: certified whole-program footprint bounds, dead-branch detection and \
       decision-reachability (see also the analyze command)."
    in
    Arg.(value & flag & info [ "cfg" ] ~doc)
  in
  let selftest_arg =
    let doc =
      "Lint the mutant regression corpus and check every deliberately broken \
       instruction set and protocol trips its expected rule; an escaped mutant is an \
       Error."
    in
    Arg.(value & flag & info [ "selftest" ] ~doc)
  in
  let mutants_arg =
    let doc =
      "Lint the mutant corpus as if it were real code (expected to fail --strict) — \
       demonstrates what each rule's report looks like."
    in
    Arg.(value & flag & info [ "mutants" ] ~doc)
  in
  let recovery_arg =
    let doc =
      "Also lint the crash-recovery rows (rc- prefix).  Each gets the \
       crash-symmetry rule: symmetry certificates cover crash-free executions only, \
       so the pid-symmetric reduction must not be combined with a positive \
       --crashes budget on these rows."
    in
    Arg.(value & flag & info [ "recovery" ] ~doc)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse instruction sets and protocols: property-check each \
          iset's declared commutativity/triviality/hashing contracts, certify each \
          protocol pid-symmetric (or not) by symbolic unfolding, and check declared \
          Table-1 space claims against concrete, exhaustive and symbolic footprints.")
    Term.(
      ret
        (const run $ ells_arg $ lint_ns_arg $ rows_arg $ strict_arg $ json_arg $ cfg_arg
       $ selftest_arg $ mutants_arg $ recovery_arg))

let analyze_cmd =
  let run ells ns ids json strict =
    let rows = Hierarchy.rows ~ells () in
    let bad =
      List.filter
        (fun id -> not (List.exists (fun (r : Hierarchy.row) -> r.id = id) rows))
        ids
    in
    if bad <> [] then
      `Error
        (false, Printf.sprintf "unknown row id(s): %s" (String.concat ", " bad))
    else begin
      let rows =
        if ids = [] then rows
        else List.filter (fun (r : Hierarchy.row) -> List.mem r.id ids) rows
      in
      let failures = ref 0 in
      let entries =
        List.concat_map
          (fun (row : Hierarchy.row) ->
            List.map
              (fun n ->
                let (module P : Consensus.Proto.S) = row.protocol in
                let a = Analysis.Absint.analyze (module P : Consensus.Proto.S) ~n in
                let verdict =
                  Analysis.Symmetry.certify (module P : Consensus.Proto.S) ~n
                in
                (match verdict with
                 | Analysis.Symmetry.Unknown _ -> incr failures
                 | _ -> ());
                let findings =
                  Analysis.Absint.lint_findings ?declared:(P.locations ~n) a
                in
                if Analysis.Report.errors findings > 0 then incr failures;
                (row, n, a, verdict, findings))
              ns)
          rows
      in
      if json then begin
        let open Campaign.Json in
        let ints xs = List (List.map (fun i -> Int i) xs) in
        print_endline
          (to_string_pretty
             (List
                (List.map
                   (fun ((row : Hierarchy.row), n, (a : Analysis.Absint.t), verdict,
                         findings) ->
                     Obj
                       [
                         ("row", String row.id);
                         ("protocol", String a.Analysis.Absint.name);
                         ("n", Int n);
                         ("nodes", Int a.Analysis.Absint.nodes);
                         ("edges", Int a.Analysis.Absint.edges);
                         ("retro_edges", Int a.Analysis.Absint.retro_edges);
                         ("sig_depth", Int a.Analysis.Absint.sig_depth);
                         ("work", Int a.Analysis.Absint.work);
                         ( "truncated",
                           match a.Analysis.Absint.truncated with
                           | None -> Null
                           | Some r -> String r );
                         ("converged", Bool a.Analysis.Absint.converged);
                         ("complete", Bool a.Analysis.Absint.complete);
                         ("footprint_all", ints a.Analysis.Absint.footprint_all);
                         ("footprint_feasible", ints a.Analysis.Absint.footprint_feasible);
                         ("dead_nodes", Int a.Analysis.Absint.dead_nodes);
                         ("undecided_nodes", Int a.Analysis.Absint.undecided_nodes);
                         ("decisions", ints a.Analysis.Absint.decisions);
                         ( "ops",
                           List
                             (List.map (fun s -> String s) a.Analysis.Absint.ops) );
                         ( "symmetry",
                           String
                             (match verdict with
                              | Analysis.Symmetry.Certified_symmetric _ -> "certified"
                              | Analysis.Symmetry.Asymmetric _ -> "asymmetric"
                              | Analysis.Symmetry.Unknown _ -> "unknown") );
                         ( "symmetry_detail",
                           String
                             (Format.asprintf "%a" Analysis.Symmetry.pp_verdict verdict)
                         );
                         ( "findings",
                           List
                             (List.map
                                (fun (f : Analysis.Report.finding) ->
                                  Obj
                                    [
                                      ( "severity",
                                        String
                                          (Analysis.Report.severity_name f.severity) );
                                      ("rule", String f.rule);
                                      ("detail", String f.detail);
                                    ])
                                findings) );
                       ])
                   entries)))
      end
      else
        List.iter
          (fun ((row : Hierarchy.row), n, (a : Analysis.Absint.t), verdict, findings) ->
            Printf.printf
              "%-28s n=%d  %4d nodes  %4d edges  %2d back-edges  %s  footprint %d (%s)%s\n"
              row.id n a.Analysis.Absint.nodes a.Analysis.Absint.edges
              a.Analysis.Absint.retro_edges
              (if a.Analysis.Absint.complete then "certified"
               else
                 Printf.sprintf "partial (%s)"
                   (match a.Analysis.Absint.truncated with
                    | Some r -> r
                    | None ->
                      if not a.Analysis.Absint.converged then "no fixpoint"
                      else "value closure unbounded"))
              (List.length a.Analysis.Absint.footprint_feasible)
              (String.concat "," (List.map string_of_int a.Analysis.Absint.footprint_feasible))
              (if a.Analysis.Absint.dead_nodes > 0 then
                 Printf.sprintf "  %d dead" a.Analysis.Absint.dead_nodes
               else "");
            Format.printf "  symmetry: %a@." Analysis.Symmetry.pp_verdict verdict;
            List.iter
              (fun f -> Format.printf "  %a@." Analysis.Report.pp_finding f)
              findings)
          entries;
      if strict && !failures > 0 then
        `Error
          ( false,
            Printf.sprintf
              "analyze --strict: %d row(s) with Unknown symmetry or Error findings"
              !failures )
      else `Ok ()
    end
  in
  let analyze_ns_arg =
    let doc = "Process counts to analyze at." in
    Arg.(value & opt (list int) [ 2; 3 ] & info [ "ns" ] ~docv:"N1,N2,…" ~doc)
  in
  let rows_arg =
    let doc = "Rows to analyze (default: all registered rows)." in
    Arg.(value & pos_all string [] & info [] ~docv:"ROW…" ~doc)
  in
  let json_arg =
    let doc = "Emit the per-row summaries as a JSON array." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let strict_arg =
    let doc =
      "Exit non-zero if any row's symmetry verdict is Unknown or any CFG finding is \
       an Error."
    in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Extract each row's control-flow graph by symbolic unfolding with node \
          hashing (retry loops become back-edges) and run the abstract-interpretation \
          passes over it: certified whole-program footprint bounds, dead-branch and \
          decision-reachability detection, issued-op summaries and the CFG \
          pid-symmetry certificate.")
    Term.(
      ret (const run $ ells_arg $ analyze_ns_arg $ rows_arg $ json_arg $ strict_arg))

let growth_cmd =
  let run rounds n =
    let inputs = Array.init (Stdlib.max 3 n) (fun i -> i land 1) in
    match
      Lowerbound.Growth.run
        (Consensus.Tracks_protocol.protocol_typed ~flavour:Isets.Bits.Tas_only)
        ~rounds ~inputs
    with
    | Ok progress ->
      print_endline "Lemma 9.1 adversary vs the test-and-set tracks protocol:";
      List.iter
        (fun (p : Lowerbound.Growth.progress) ->
          Printf.printf "  round %2d: %d locations set, %d touched\n" p.round p.ones
            p.touched)
        progress;
      `Ok ()
    | Error e -> `Error (false, e)
  in
  let rounds_arg =
    let doc = "Adversary rounds (each sets at least one fresh location)." in
    Arg.(value & opt int 8 & info [ "rounds" ] ~docv:"R" ~doc)
  in
  Cmd.v
    (Cmd.info "growth"
       ~doc:
         "Run the Lemma 9.1 adversary: drive a read/test-and-set protocol to \
          use ever more locations.")
    Term.(ret (const run $ rounds_arg $ n_arg))

let adversary_cmd =
  let run which =
    match which with
    | "maxreg" ->
      (match Lowerbound.Interleave.run Lowerbound.Victims.naive_maxreg ~n:2 with
       | Lowerbound.Interleave.Agreement_violated { p_decision; q_decision; steps; _ } ->
         Printf.printf
           "Theorem 4.1 adversary vs a single-max-register protocol:\n\
           \  interleaved both solo runs in %d steps; decisions %d and %d — \
            agreement violated.\n"
           steps p_decision q_decision;
         `Ok ()
       | Protocol_error e -> `Error (false, e))
    | "fai" ->
      (match Lowerbound.Fai_adversary.run Lowerbound.Victims.naive_fai ~n:2 with
       | Lowerbound.Fai_adversary.Agreement_violated { p_decision; q_decision; _ } ->
         Printf.printf
           "Theorem 5.1 adversary vs a single read/write/fetch-and-increment \
            location:\n\
           \  decisions %d and %d — agreement violated.\n"
           p_decision q_decision;
         `Ok ()
       | Protocol_error e -> `Error (false, e))
    | other -> `Error (false, Printf.sprintf "unknown adversary %S (maxreg|fai)" other)
  in
  let which_arg =
    let doc = "Which impossibility proof to execute: maxreg (Thm 4.1) or fai (Thm 5.1)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WHICH" ~doc)
  in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:"Execute an impossibility proof's adversary against a candidate protocol.")
    Term.(ret (const run $ which_arg))

let witness_cmd =
  let run ells id n depth =
    with_row ells id (fun row ->
        let inputs = Array.init n (fun i -> i mod n) in
        match Lowerbound.Covering_witness.witness ~search_depth:depth row.protocol ~inputs with
        | Ok (r : Lowerbound.Covering_witness.report) ->
          Printf.printf
            "Lemma 6.5 on %s (n=%d):\n\
            \  bivalent pair Q = {p%d, p%d} after %d setup steps\n\
            \  coverers R = [%s] covering L = [%s]\n\
            \  a %d-step Q-only execution leaves Q covering fresh location %d\n\
            \  bivalent after the block write to L: %b\n"
            row.iset n (fst r.bivalent_pair) (snd r.bivalent_pair) r.setup_steps
            (String.concat "," (List.map string_of_int r.coverers))
            (String.concat "," (List.map string_of_int r.covered))
            r.xi_steps r.fresh_location r.still_bivalent_after_block_write;
          `Ok ()
        | Error e -> `Error (false, e))
  in
  let depth_arg =
    let doc = "Search depth for the bivalence and ξ searches." in
    Arg.(value & opt int 8 & info [ "depth" ] ~docv:"D" ~doc)
  in
  Cmd.v
    (Cmd.info "witness"
       ~doc:
         "Exhibit the Lemma 6.5 covering step concretely on a row's protocol \
          (bivalent pair, coverers, block write, fresh location).")
    Term.(ret (const run $ ells_arg $ row_arg $ n_arg $ depth_arg))

let synth_cmd =
  let run machine depth =
    let show (type c) (m : c Synth.machine) =
      match Synth.search m ~depth with
      | Synth.Found p ->
        assert (Synth.check m p);
        Printf.printf "%s: FOUND a wait-free 2-process protocol at depth %d\n" m.name
          depth;
        Format.printf "  p0 input 0: @[%a@]@." (Synth.pp_tree ~ops:m.ops) p.t00;
        Format.printf "  p0 input 1: @[%a@]@." (Synth.pp_tree ~ops:m.ops) p.t01;
        Format.printf "  p1 input 0: @[%a@]@." (Synth.pp_tree ~ops:m.ops) p.t10;
        Format.printf "  p1 input 1: @[%a@]@." (Synth.pp_tree ~ops:m.ops) p.t11;
        `Ok ()
      | Synth.Impossible_within_depth ->
        Printf.printf
          "%s: no 2-process binary consensus protocol exists with at most %d \
           instructions per process (exhaustive search)\n"
          m.name depth;
        `Ok ()
    in
    match machine with
    | "cas" -> show Synth.cas_cell
    | "swap" -> show Synth.swap_cell
    | "tas" -> show Synth.tas_bit
    | "rw01" -> show Synth.rw01_bit
    | other -> `Error (false, Printf.sprintf "unknown machine %S (cas|swap|tas|rw01)" other)
  in
  let machine_arg =
    let doc = "One-location machine to synthesise over: cas, swap, tas or rw01." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MACHINE" ~doc)
  in
  let depth_arg =
    let doc = "Maximum instructions per process (3 is expensive for rw01)." in
    Arg.(value & opt int 2 & info [ "depth" ] ~docv:"D" ~doc)
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Exhaustively synthesise (or refute) a wait-free 2-process binary \
          consensus protocol on a one-location machine.")
    Term.(ret (const run $ machine_arg $ depth_arg))

let campaign_cmd =
  let build_spec rows exclude ells ns depths engines reduces timeout solo_fuel observe
      crashes stress_seeds stress_prefix stress_burst smoke =
    let base = if smoke then Campaign.Spec.smoke else Campaign.Spec.default in
    let ( |? ) opt default = Option.value opt ~default in
    let parse_all f l =
      List.fold_right
        (fun x acc ->
          match (f x, acc) with
          | Ok v, Ok acc -> Ok (v :: acc)
          | (Error _ as e), _ | _, (Error _ as e) -> e)
        l (Ok [])
    in
    let engines =
      match engines with
      | None -> Ok base.Campaign.Spec.engines
      | Some es -> parse_all Campaign.Spec.engine_of_string es
    in
    let reduces =
      match reduces with
      | None -> Ok base.Campaign.Spec.reduces
      | Some rs -> parse_all Campaign.Spec.reduction_of_string rs
    in
    match (engines, reduces) with
    | Error e, _ | _, Error e -> Error e
    | _ when crashes < 0 -> Error "--crashes must be non-negative"
    | _ when Option.fold ~none:false ~some:(fun f -> f < 1) solo_fuel ->
      Error "--solo-fuel must be at least 1"
    | Ok engines, Ok reduces ->
      Ok
        {
          base with
          Campaign.Spec.include_rows = rows;
          exclude_rows = exclude;
          ells = ells |? base.Campaign.Spec.ells;
          ns = ns |? base.Campaign.Spec.ns;
          depths = depths |? base.Campaign.Spec.depths;
          engines;
          reduces;
          solo_fuel = solo_fuel |? base.Campaign.Spec.solo_fuel;
          observe = observe |? base.Campaign.Spec.observe;
          crashes;
          deadline =
            (match timeout with
             | Some t -> if t > 0.0 then Some t else None
             | None -> base.Campaign.Spec.deadline);
          stress_seeds = stress_seeds |? base.Campaign.Spec.stress_seeds;
          stress_prefix = stress_prefix |? base.Campaign.Spec.stress_prefix;
          stress_max_burst = stress_burst |? base.Campaign.Spec.stress_max_burst;
        }
  in
  let progress ~quiet ~dir ~total ev =
    if not quiet then
      match ev with
      | Campaign.Executor.Campaign_started { total; cached } ->
        Printf.printf "campaign: %d task(s), %d already in %s\n%!" total cached dir
      | Campaign.Executor.Task_started _ -> ()
      | Campaign.Executor.Task_yielded { index; task } ->
        Printf.printf "[%3d/%d] %-9s %s (another worker holds the lease)\n%!"
          (index + 1) total "yielded" (Campaign.Task.describe task)
      | Campaign.Executor.Task_finished { index; task; record; cached } ->
        Printf.printf "[%3d/%d] %-9s %s (%.2fs)%s\n%!" (index + 1) total
          (Campaign.Record.status_name record.Campaign.Record.status)
          (Campaign.Task.describe task) record.Campaign.Record.elapsed
          (if cached then " [cached]" else "")
      | Campaign.Executor.Campaign_finished o ->
        Printf.printf
          "campaign finished: %d executed, %d cached, %d aborted (%.2fs)\n%!"
          o.Campaign.Executor.executed o.Campaign.Executor.cached
          o.Campaign.Executor.aborted o.Campaign.Executor.elapsed
  in
  let write_file path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  let finish_with_report ~json_file ~csv_file ~fail_on_unexpected report =
    print_newline ();
    print_string (Campaign.Report.render report);
    Option.iter
      (fun p ->
        write_file p (Campaign.Json.to_string_pretty (Campaign.Report.to_json report)))
      json_file;
    Option.iter (fun p -> write_file p (Campaign.Report.to_csv report)) csv_file;
    match Campaign.Report.unexpected report with
    | [] -> `Ok ()
    | bad when fail_on_unexpected ->
      List.iter (fun r -> Format.eprintf "unexpected: %a@." Campaign.Record.pp r) bad;
      `Error (false, Printf.sprintf "%d task(s) did not verify" (List.length bad))
    | _ -> `Ok ()
  in
  let run spec domains dir fresh dry_run json_file csv_file quiet fail_on_unexpected =
    match spec with
    | Error e -> `Error (false, e)
    | Ok spec ->
      (match Campaign.Spec.tasks spec with
       | Error e -> `Error (false, e)
       | Ok tasks when dry_run ->
         List.iter
           (fun t ->
             Printf.printf "%s  %s\n" (Campaign.Task.fingerprint t)
               (Campaign.Task.describe t))
           tasks;
         Printf.printf "%d task(s) — dry run, nothing executed\n" (List.length tasks);
         `Ok ()
       | Ok tasks ->
         let store = Campaign.Store.open_ ~dir () in
         let on_event = progress ~quiet ~dir ~total:(List.length tasks) in
         let outcome =
           Campaign.Executor.run ~domains ~use_cache:(not fresh) ~on_event ~store tasks
         in
         finish_with_report ~json_file ~csv_file ~fail_on_unexpected
           (Campaign.Report.make outcome.Campaign.Executor.records))
  in
  let worker spec domains dir lease_ttl quiet fail_on_unexpected =
    match spec with
    | Error e -> `Error (false, e)
    | Ok spec ->
      (match Campaign.Spec.tasks spec with
       | Error e -> `Error (false, e)
       | Ok tasks ->
         if not quiet then
           Printf.printf "worker %d: claiming tasks from %s\n%!" (Unix.getpid ()) dir;
         let store = Campaign.Store.open_ ~lease_ttl ~dir () in
         let on_event = progress ~quiet ~dir ~total:(List.length tasks) in
         let outcome = Campaign.Executor.run_shared ~domains ~on_event ~store tasks in
         finish_with_report ~json_file:None ~csv_file:None ~fail_on_unexpected
           (Campaign.Report.make outcome.Campaign.Executor.records))
  in
  let status dir as_json watch =
    let show () =
      match Campaign.Status.load ~dir with
      | Error e -> Error e
      | Ok s ->
        if as_json then
          print_endline (Campaign.Json.to_string_pretty (Campaign.Status.to_json s))
        else print_string (Campaign.Status.render s);
        Ok ()
    in
    match watch with
    | None -> (match show () with Ok () -> `Ok () | Error e -> `Error (false, e))
    | Some period when period <= 0.0 -> `Error (false, "--watch period must be positive")
    | Some period ->
      (* live refresh: redraw from each writer's telemetry until interrupted.
         A transient load error (e.g. a worker mid-write, or no telemetry
         yet) is displayed and retried rather than aborting the watch. *)
      let rec loop () =
        print_string "\027[2J\027[H";
        (match show () with
         | Ok () -> ()
         | Error e -> Printf.printf "status unavailable: %s\n" e);
        Printf.printf "\n[watching %s every %gs — Ctrl-C to stop]\n%!" dir period;
        Unix.sleepf period;
        loop ()
      in
      loop ()
  in
  let report dir json_file csv_file fail_on_unexpected =
    let store = Campaign.Store.open_ ~dir () in
    if Campaign.Store.count store = 0 then
      `Error (false, Printf.sprintf "no campaign records under %s" dir)
    else
      finish_with_report ~json_file ~csv_file ~fail_on_unexpected
        (Campaign.Report.of_store store)
  in
  let rows_arg =
    let doc = "Rows to include (default: every registered row); e.g. cas buffer-2." in
    Arg.(value & pos_all string [] & info [] ~docv:"ROW…" ~doc)
  in
  let exclude_arg =
    let doc = "Rows to exclude from the grid." in
    Arg.(value & opt (list string) [] & info [ "exclude" ] ~docv:"ROW,…" ~doc)
  in
  let opt_ints name docv doc =
    Arg.(value & opt (some (list int)) None & info [ name ] ~docv ~doc)
  in
  let ells_arg = opt_ints "ells" "L1,…" "Buffer capacities for the ℓ-buffer rows." in
  let ns_arg = opt_ints "ns" "N1,…" "Process counts in the grid." in
  let depths_arg = opt_ints "depths" "D1,…" "Exploration depths in the grid." in
  let engines_arg =
    let doc = "Engines in the grid: naive, memo, parallel or parallel-<k>." in
    Arg.(value & opt (some (list string)) None & info [ "engines" ] ~docv:"E1,…" ~doc)
  in
  let reduces_arg =
    let doc = "Reductions in the grid: none, commute, symmetric, full." in
    Arg.(value & opt (some (list string)) None & info [ "reduce" ] ~docv:"R1,…" ~doc)
  in
  let timeout_arg =
    let doc =
      "Per-task wall-clock budget in seconds for check tasks (0 disables); an \
       expired task records a timeout verdict and the sweep continues."
    in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let solo_fuel_arg =
    let doc = "Solo-probe fuel for check tasks." in
    Arg.(value & opt (some int) None & info [ "solo-fuel" ] ~docv:"FUEL" ~doc)
  in
  let observe_arg =
    let doc =
      "Observer names applied to every check task (see `modelcheck --observe'); \
       empty (the default) checks `default'.  A non-empty observer set is part of \
       each task's fingerprint, so sweeps with different sets coexist in one \
       store."
    in
    Arg.(value & opt (some (list string)) None & info [ "observe" ] ~docv:"OBS1,…" ~doc)
  in
  let crashes_spec_arg =
    let doc =
      "Crash budget applied to every check task (see `modelcheck --crashes'); 0 (the \
       default) keeps the historical crash-free grid and its store keys.  A positive \
       budget also admits the recovery rows (rc- prefix) into the grid."
    in
    Arg.(value & opt int 0 & info [ "crashes" ] ~docv:"BUDGET" ~doc)
  in
  let stress_seeds_arg =
    let doc = "Stress-run seeds (one stress task per row, n and seed)." in
    Arg.(value & opt (some (list int)) None & info [ "stress-seeds" ] ~docv:"S1,…" ~doc)
  in
  let stress_prefix_arg =
    let doc = "Adversarial random steps before each stress run's sequential finish." in
    Arg.(value & opt (some int) None & info [ "stress-prefix" ] ~docv:"STEPS" ~doc)
  in
  let stress_burst_arg =
    let doc = "Maximum burst length of the stress runs' bursty-random adversary." in
    Arg.(value & opt (some int) None & info [ "stress-burst" ] ~docv:"B" ~doc)
  in
  let domains_arg =
    let doc = "Worker domains executing tasks concurrently." in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"K" ~doc)
  in
  let dir_arg =
    let doc =
      "Campaign store directory: results land in DIR/results, claim leases in \
       DIR/claims, telemetry in DIR/events.jsonl.  Re-running with the same \
       directory resumes, skipping every task already recorded.  Any number of \
       `worker' processes may share one directory."
    in
    Arg.(value & opt string "_campaign" & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let smoke_arg =
    let doc =
      "Use the CI smoke preset (every registry row, n=2, depth 4, one stress seed) \
       as the base grid; other flags still override it."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let fresh_arg =
    let doc = "Ignore stored results: re-run and overwrite every task." in
    Arg.(value & flag & info [ "fresh" ] ~doc)
  in
  let dry_run_arg =
    let doc = "Print the expanded task list with fingerprints and exit." in
    Arg.(value & flag & info [ "dry-run" ] ~doc)
  in
  let json_arg =
    let doc = "Write the JSON report (grid + every record) to this file." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let csv_arg =
    let doc = "Write the per-record CSV report to this file." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress per-task progress lines (the report still prints)." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let fail_arg =
    let doc = "Exit non-zero if any task's verdict is not `verified'." in
    Arg.(value & flag & info [ "fail-on-unexpected" ] ~doc)
  in
  let lease_ttl_arg =
    let doc =
      "Seconds after which another worker's claim lease counts as crashed and \
       its task may be re-claimed.  Must exceed the slowest task's runtime, or \
       live tasks get duplicated (harmlessly — verdicts are deterministic)."
    in
    Arg.(value & opt float 120.0 & info [ "lease-ttl" ] ~docv:"SECONDS" ~doc)
  in
  let status_json_arg =
    let doc = "Emit the aggregated status as JSON instead of the aligned table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let spec_term =
    Term.(
      const build_spec $ rows_arg $ exclude_arg $ ells_arg $ ns_arg $ depths_arg
      $ engines_arg $ reduces_arg $ timeout_arg $ solo_fuel_arg $ observe_arg
      $ crashes_spec_arg $ stress_seeds_arg $ stress_prefix_arg $ stress_burst_arg
      $ smoke_arg)
  in
  let run_term =
    Term.(
      ret
        (const run $ spec_term $ domains_arg $ dir_arg $ fresh_arg $ dry_run_arg
       $ json_arg $ csv_arg $ quiet_arg $ fail_arg))
  in
  let worker_term =
    Term.(
      ret
        (const worker $ spec_term $ domains_arg $ dir_arg $ lease_ttl_arg $ quiet_arg
       $ fail_arg))
  in
  let watch_arg =
    let doc =
      "Refresh the status display every SECONDS (clearing the screen between \
       redraws) instead of printing once — a live dashboard for a running worker \
       fleet.  Stop with Ctrl-C."
    in
    Arg.(value & opt (some float) None & info [ "watch" ] ~docv:"SECONDS" ~doc)
  in
  let status_term = Term.(ret (const status $ dir_arg $ status_json_arg $ watch_arg)) in
  let report_term =
    Term.(ret (const report $ dir_arg $ json_arg $ csv_arg $ fail_arg))
  in
  Cmd.group
    ~default:run_term
    (Cmd.info "campaign"
       ~doc:
         "Run a persistent, resumable verification campaign over the Table-1 \
          matrix: expand a rows × n × depth × engine × reduction grid (plus \
          seeded stress runs) into content-addressed tasks, execute them over a \
          domain pool with per-task deadlines and crash isolation, store every \
          verdict on disk, and render the verified slice of Table 1.  Killing a \
          campaign loses nothing: re-running with the same --dir resumes where \
          it stopped.  Subcommands: `worker' joins a fleet of processes sharing \
          one --dir through claim leases, `status' aggregates every writer's \
          telemetry, `report' renders the store without executing anything.")
    [
      Cmd.v
        (Cmd.info "run"
           ~doc:
             "Run a campaign as the directory's only writer (the default when \
              no subcommand is given).")
        run_term;
      Cmd.v
        (Cmd.info "worker"
           ~doc:
             "Run a campaign as one worker of a fleet: N processes sharing one \
              --dir claim pending tasks through lease files instead of \
              partitioning statically; claim losers re-read the winner's record \
              instead of re-executing, and a crashed worker's tasks are \
              re-claimed after --lease-ttl.")
        worker_term;
      Cmd.v
        (Cmd.info "status"
           ~doc:
             "Fold every writer's events.jsonl telemetry into per-worker \
              progress and throughput: tasks claimed / executed / cached / \
              yielded, configurations per second, duplicated executions.")
        status_term;
      Cmd.v
        (Cmd.info "report"
           ~doc:
             "Render the Table-1 report from the records already in --dir \
              without executing anything — the aggregation step after a worker \
              fleet finishes.")
        report_term;
    ]

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "space_hierarchy" ~version:"1.0.0"
             ~doc:
               "The space hierarchy for multiprocessor synchronization \
                (Ellen–Gelashvili–Shavit–Zhu, PODC 2016), executable.")
          [
            table_cmd;
            run_cmd;
            modelcheck_cmd;
            campaign_cmd;
            lint_cmd;
            analyze_cmd;
            growth_cmd;
            adversary_cmd;
            synth_cmd;
            witness_cmd;
          ]))
