(* Lint orchestration: run every analysis over the registered hierarchy rows
   (or a selection) and over the mutant corpus ([selftest]).

   A protocol row yields three analysis passes:
   - [Contracts.lint_iset] over its instruction set (deduplicated across rows
     sharing an instruction set);
   - [Symmetry.certify] at each requested [n] — the verdict is reported as a
     finding ([Info] either way: being pid-dependent is a legitimate design,
     the verdict only gates the symmetric state-space reduction);
   - [Space.lint] at each requested [n] against the protocol's own
     [locations ~n] declaration. *)

let symmetry_finding (module P : Consensus.Proto.S) ~n verdict =
  let open Report in
  match (verdict : Symmetry.verdict) with
  | Symmetry.Certified_symmetric { depth; pairs } ->
    finding Info ~rule:"symmetry-certified" ~subject:P.name
      "pid-symmetric at n=%d (depth %d, %d pair runs); symmetric reduction admissible" n
      depth pairs
  | Asymmetric w ->
    finding Info ~rule:"symmetry-asymmetric" ~subject:P.name
      "pid-dependent at n=%d (%s); symmetric reduction will be refused" n
      (Format.asprintf "%a" Symmetry.pp_witness w)
  | Unknown reason ->
    finding Warning ~rule:"symmetry-unknown" ~subject:P.name
      "could not classify at n=%d: %s; symmetric reduction will be refused" n reason

let lint_iset = Contracts.lint_iset

let lint_protocol ?depth ?cfg ?(ns = [ 2; 3 ]) (module P : Consensus.Proto.S) =
  List.concat_map
    (fun n ->
      let verdict = Symmetry.certify ?depth (module P : Consensus.Proto.S) ~n in
      symmetry_finding (module P) ~n verdict :: Space.lint ?cfg (module P) ~n)
    ns

(* Crash–recovery rows (the [rc-] registry prefix): the symmetry certifier
   only ever unfolds crash-free executions, so its verdict says nothing
   about runs with crash–recover transitions — a crash resets one process
   to the protocol root while the others keep their program state, and a
   pid-swapped configuration need not have a pid-swapped crash successor
   unless the per-process recovery cells are laid out pid-uniformly.  The
   quotient is therefore unsound under a positive crash budget, whatever
   the crash-free certificate says; warn so crash campaigns never request
   the symmetric reduction on these rows. *)
let crash_symmetry_finding (row : Hierarchy.row) =
  let open Report in
  if String.length row.id >= 3 && String.sub row.id 0 3 = "rc-" then
    let (module P : Consensus.Proto.S) = row.protocol in
    [
      finding Warning ~rule:"crash-symmetry" ~subject:P.name
        "crash-recovery row %s: symmetry certificates cover crash-free executions \
         only; the pid-symmetric quotient is unsound under a positive crash budget \
         unless the recovery-cell layout is pid-uniform — use reduce none/commute \
         with --crashes"
        row.id;
    ]
  else []

(* Rows sharing an instruction set (the two ∞ rows both use flavours of
   [Bits], say) produce one contract pass per distinct [I.name]. *)
let lint_rows ?depth ?cfg ?ns rows =
  let seen_isets = Hashtbl.create 16 in
  List.concat_map
    (fun (row : Hierarchy.row) ->
      let (module P : Consensus.Proto.S) = row.protocol in
      let iset_findings =
        if Hashtbl.mem seen_isets P.I.name then []
        else begin
          Hashtbl.add seen_isets P.I.name ();
          lint_iset (module P.I)
        end
      in
      iset_findings
      @ crash_symmetry_finding row
      @ lint_protocol ?depth ?cfg ?ns row.protocol)
    rows

(* [Machine.make] refuses n < 1, while the analyses would certify and
   space-check an empty pid set vacuously: [run] and the CLI refuse such an
   n before analysing anything. *)
let ns_error ns =
  List.find_opt (fun n -> n < 1) ns
  |> Option.map (Printf.sprintf "n = %d: a machine needs at least 1 process")

let run ?ells ?(recovery = false) ?depth ?cfg ?ns ?(ids = []) () =
  Option.iter invalid_arg (Option.bind ns ns_error);
  let rows = Hierarchy.rows ?ells ~recovery () in
  let rows =
    if ids = [] then rows
    else begin
      List.iter
        (fun id ->
          if not (List.exists (fun (r : Hierarchy.row) -> r.id = id) rows) then
            Format.kasprintf invalid_arg "lint: unknown row id %S" id)
        ids;
      List.filter (fun (r : Hierarchy.row) -> List.mem r.id ids) rows
    end
  in
  lint_rows ?depth ?cfg ?ns rows

(* --- selftest over the mutant corpus ----------------------------------- *)

let selftest () =
  let open Report in
  let acc = ref [] in
  let out f = acc := f :: !acc in
  (* the clean base iset must lint without errors… *)
  let (module Clean : Model.Iset.S) = Mutants.sound_iset in
  let base = lint_iset (module Clean) in
  if errors base > 0 then
    List.iter
      (fun f ->
        if f.severity = Error then
          out
            (finding Error ~rule:"selftest-clean-base-flagged" ~subject:Clean.name
               "sound base iset tripped %s: %s" f.rule f.detail))
      base
  else
    out
      (finding Info ~rule:"selftest-clean-base" ~subject:Clean.name
         "sound base iset lints clean");
  (* …and every mutant must trip its expected rule *)
  List.iter
    (fun (m : Mutants.iset_mutant) ->
      let (module I : Model.Iset.S) = m.iset in
      let fs = lint_iset (module I) in
      let hit = List.exists (fun f -> f.rule = m.expected_rule && f.severity = Error) fs in
      if hit then
        out
          (finding Info ~rule:"selftest-mutant-caught" ~subject:I.name
             "mutant %S tripped %s as expected" m.label m.expected_rule)
      else
        out
          (finding Error ~rule:"selftest-mutant-escaped" ~subject:I.name
             "mutant %S did NOT trip %s (fired: %s)" m.label m.expected_rule
             (String.concat ", " (List.map (fun f -> f.rule) fs))))
    Mutants.iset_mutants;
  List.iter
    (fun (m : Mutants.proto_mutant) ->
      let (module P : Consensus.Proto.S) = m.proto in
      let fs = Space.lint ~cfg:true (module P) ~n:2 in
      let hit =
        List.exists
          (fun f -> f.rule = m.expected_rule && f.severity = m.expected_severity)
          fs
      in
      if hit then
        out
          (finding Info ~rule:"selftest-mutant-caught" ~subject:P.name
             "mutant %S tripped %s as expected" m.label m.expected_rule)
      else
        out
          (finding Error ~rule:"selftest-mutant-escaped" ~subject:P.name
             "mutant %S did NOT trip %s (fired: %s)" m.label m.expected_rule
             (String.concat ", " (List.map (fun f -> f.rule) fs))))
    Mutants.proto_mutants;
  (* the certifier must reject both asymmetric mutants and accept the
     uniform control *)
  let expect_verdict label proto pred describe =
    let (module P : Consensus.Proto.S) = proto in
    let v = Symmetry.certify (module P : Consensus.Proto.S) ~n:2 in
    if pred v then
      out
        (finding Info ~rule:"selftest-mutant-caught" ~subject:P.name
           "certifier returned %s for %S as expected" describe label)
    else
      out
        (finding Error ~rule:"selftest-mutant-escaped" ~subject:P.name
           "certifier returned %s for %S, expected %s"
           (Format.asprintf "%a" Symmetry.pp_verdict v)
           label describe)
  in
  expect_verdict "pid-dependent access" Mutants.asymmetric_access
    (function Symmetry.Asymmetric _ -> true | _ -> false)
    "Asymmetric";
  expect_verdict "pid-dependent decision" Mutants.asymmetric_decision
    (function Symmetry.Asymmetric _ -> true | _ -> false)
    "Asymmetric";
  expect_verdict "uniform control" Mutants.symmetric_control Symmetry.certified
    "Certified_symmetric";
  expect_verdict "asymmetric retry loop" Mutants.asymmetric_retry_loop
    (function Symmetry.Asymmetric _ -> true | _ -> false)
    "Asymmetric";
  List.rev !acc
