(* Tests for the Table 1 driver: every row runs, measures exactly its
   formula (within it, for the few rows whose count depends on the
   schedule), and the rendered table is complete. *)

let rows = Hierarchy.rows ()

let test_row_inventory () =
  let ids = List.map (fun (r : Hierarchy.row) -> r.id) rows in
  List.iter
    (fun id ->
      Alcotest.(check bool) ("row " ^ id ^ " present") true (List.mem id ids))
    [
      "tas"; "write1"; "write01"; "rw"; "tas-reset"; "swap"; "buffer-1"; "buffer-2";
      "buffer-3"; "multi-1"; "multi-2"; "multi-3"; "increment"; "fetch-incr";
      "max-register"; "cas"; "set-bit"; "add"; "multiply"; "fetch-add";
      "fetch-multiply"; "intro-faa2-tas"; "intro-dec-mul";
    ];
  Alcotest.(check bool) "at least the 12 Table 1 rows plus extras" true
    (List.length rows >= 20);
  (* ids unique *)
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_find () =
  (match Hierarchy.find "swap" with
   | Some r -> Alcotest.(check string) "found swap" "{read(), swap(x)}" r.iset
   | None -> Alcotest.fail "swap row missing");
  Alcotest.(check bool) "unknown id" true (Hierarchy.find "no-such-row" = None);
  match Hierarchy.find ~ells:[ 7 ] "buffer-7" with
  | Some r ->
    Alcotest.(check (option int)) "ceil(20/7)" (Some 3) (r.upper ~n:20)
  | None -> Alcotest.fail "custom ell row missing"

(* Rows whose measured count depends on the schedule, so only [<=] the
   formula holds: write01 n=4 touches 134 of 136 locations with seed 2 but
   132 with seed 7, and inc-dec n=6 touches 7 of 7 with seed 2 but 6 with
   seed 7.  Every other finite row touches exactly its formula. *)
let schedule_dependent = [ "write01"; "tas-reset"; "inc-dec" ]

let test_measure_all_rows () =
  let ids = List.map (fun (r : Hierarchy.row) -> r.id) rows in
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " is a registry row") true (List.mem id ids))
    schedule_dependent;
  List.iter
    (fun (row : Hierarchy.row) ->
      List.iter
        (fun n ->
          match Hierarchy.measure ~seed:2 ~prefix:120 row ~n with
          | Error e -> Alcotest.fail (Printf.sprintf "%s n=%d: %s" row.id n e)
          | Ok m ->
            Alcotest.(check bool)
              (Printf.sprintf "%s n=%d measured>0" row.id n)
              true (m.measured > 0);
            (match m.allocated with
             | Some a when List.mem row.id schedule_dependent ->
               Alcotest.(check bool)
                 (Printf.sprintf "%s n=%d: %d <= allocated %d" row.id n m.measured a)
                 true (m.measured <= a)
             | Some a ->
               Alcotest.(check int)
                 (Printf.sprintf "%s n=%d: measured = formula" row.id n)
                 a m.measured
             | None -> ()))
        [ 2; 3; 4; 6 ])
    rows

let test_upper_formulas () =
  let upper id n =
    match Hierarchy.find id with
    | Some r -> r.upper ~n
    | None -> Alcotest.fail ("missing row " ^ id)
  in
  Alcotest.(check (option int)) "rw is n" (Some 9) (upper "rw" 9);
  Alcotest.(check (option int)) "swap is n-1" (Some 8) (upper "swap" 9);
  Alcotest.(check (option int)) "buffer-2 is ceil(n/2)" (Some 5) (upper "buffer-2" 9);
  Alcotest.(check (option int)) "buffer-3 is ceil(n/3)" (Some 3) (upper "buffer-3" 9);
  Alcotest.(check (option int)) "maxreg is 2" (Some 2) (upper "max-register" 9);
  Alcotest.(check (option int)) "cas is 1" (Some 1) (upper "cas" 9);
  Alcotest.(check (option int)) "tas unbounded" None (upper "tas" 9);
  Alcotest.(check (option int)) "increment O(log n): n=9 -> 4 rounds -> 14"
    (Some 14) (upper "increment" 9)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_render () =
  let table = Hierarchy.render ~ells:[ 2 ] ~ns:[ 2; 3 ] () in
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "table mentions %S" fragment)
        true
        (contains ~needle:fragment table))
    [ "swap"; "max"; "compare-and-swap"; "2-buffer-read" ];
  Alcotest.(check bool) "no measurement errors in the table" false
    (contains ~needle:"ERR" table)

let test_render_csv () =
  let csv = Hierarchy.render_csv ~ells:[ 2 ] ~ns:[ 2; 4 ] () in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (match lines with
   | header :: _ ->
     Alcotest.(check string) "header"
       "id,iset,paper_lower,paper_upper,n,measured,allocated,steps" header
   | [] -> Alcotest.fail "empty csv");
  let rows = Hierarchy.rows ~ells:[ 2 ] () in
  Alcotest.(check int) "one line per (row, n) plus header"
    ((List.length rows * 2) + 1)
    (List.length lines);
  Alcotest.(check bool) "mentions cas" true
    (List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "cas,") lines);
  Alcotest.(check bool) "no errors" true
    (not (List.exists (fun l -> contains ~needle:",error," l) lines))

let () =
  Alcotest.run "hierarchy"
    [
      ( "hierarchy",
        [
          Alcotest.test_case "row inventory" `Quick test_row_inventory;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "measure all rows" `Quick test_measure_all_rows;
          Alcotest.test_case "upper formulas" `Quick test_upper_formulas;
          Alcotest.test_case "render" `Quick test_render;
          Alcotest.test_case "render csv" `Quick test_render_csv;
        ] );
    ]
