(* Tests for the universal memory value type. *)

open Model

let v_int i = Value.Int i
let v_big i = Value.Big (Bignum.of_int i)

let test_equal () =
  Alcotest.(check bool) "bot = bot" true (Value.equal Value.Bot Value.Bot);
  Alcotest.(check bool) "int = int" true (Value.equal (v_int 3) (v_int 3));
  Alcotest.(check bool) "int <> int" false (Value.equal (v_int 3) (v_int 4));
  Alcotest.(check bool) "int = big (numeric)" true (Value.equal (v_int 3) (v_big 3));
  Alcotest.(check bool)
    "pairs" true
    (Value.equal (Value.Pair (v_int 1, Value.Bot)) (Value.Pair (v_int 1, Value.Bot)));
  Alcotest.(check bool)
    "vectors" true
    (Value.equal (Value.Vec [| v_int 1; v_int 2 |]) (Value.Vec [| v_int 1; v_int 2 |]));
  Alcotest.(check bool)
    "vector length matters" false
    (Value.equal (Value.Vec [| v_int 1 |]) (Value.Vec [| v_int 1; v_int 2 |]));
  Alcotest.(check bool)
    "tags distinguish writers" false
    (Value.equal (Value.Tag (0, 1, v_int 5)) (Value.Tag (1, 1, v_int 5)));
  Alcotest.(check bool)
    "tags distinguish sequence numbers" false
    (Value.equal (Value.Tag (0, 1, v_int 5)) (Value.Tag (0, 2, v_int 5)))

let test_compare_total_order () =
  let samples =
    [
      Value.Bot;
      Value.Unit;
      v_int (-1);
      v_int 0;
      v_int 7;
      v_big 7;
      Value.Pair (v_int 1, v_int 2);
      Value.Vec [| v_int 1 |];
      Value.Vec [| v_int 1; v_int 2 |];
      Value.Tag (0, 0, v_int 1);
      Value.Tag (2, 5, Value.Bot);
    ]
  in
  (* reflexive, antisymmetric, transitive on the sample set *)
  List.iter
    (fun a ->
      Alcotest.(check int) "reflexive" 0 (Value.compare a a);
      List.iter
        (fun c_ ->
          let ab = Value.compare a c_ and ba = Value.compare c_ a in
          Alcotest.(check bool) "antisymmetric" true (compare ab 0 = compare 0 ba))
        samples)
    samples;
  List.iter
    (fun a ->
      List.iter
        (fun bv ->
          List.iter
            (fun c ->
              if Value.compare a bv <= 0 && Value.compare bv c <= 0 then
                Alcotest.(check bool) "transitive" true (Value.compare a c <= 0))
            samples)
        samples)
    samples

let test_accessors () =
  Alcotest.(check int) "to_int_exn" 9 (Value.to_int_exn (v_int 9));
  Alcotest.check_raises "to_int_exn on Bot" (Invalid_argument "Value.to_int_exn: ⊥")
    (fun () -> ignore (Value.to_int_exn Value.Bot));
  Alcotest.(check string)
    "to_big_exn on Int" "12"
    (Bignum.to_string (Value.to_big_exn (v_int 12)));
  Alcotest.(check string)
    "to_big_exn on Big" "-3"
    (Bignum.to_string (Value.to_big_exn (v_big (-3))));
  Alcotest.(check bool)
    "untag strips" true
    (Value.equal (v_int 4) (Value.untag (Value.Tag (1, 2, v_int 4))));
  Alcotest.(check bool) "untag id" true (Value.equal (v_int 4) (Value.untag (v_int 4)))

let test_pp () =
  let s v = Format.asprintf "%a" Value.pp v in
  Alcotest.(check string) "bot" "⊥" (s Value.Bot);
  Alcotest.(check string) "int" "42" (s (v_int 42));
  Alcotest.(check string) "tag" "5@1.2" (s (Value.Tag (1, 2, v_int 5)));
  Alcotest.(check bool) "vec printable" true (String.length (s (Value.Vec [| v_int 1 |])) > 0)

let test_hash () =
  let vals = [ Value.Bot; Value.Unit; v_int 5; Value.Tag (1, 2, v_int 5) ] in
  List.iter
    (fun v -> Alcotest.(check int) "hash self-consistent" (Value.hash v) (Value.hash v))
    vals;
  Alcotest.(check bool)
    "equal values, equal hashes" true
    (Value.hash (Value.Vec [| v_int 1; v_int 2 |])
    = Value.hash (Value.Vec [| v_int 1; v_int 2 |]))

(* --- qcheck: order laws on random value trees --------------------------- *)

let value_gen =
  let open QCheck2.Gen in
  sized_size (int_range 0 4) (fun n ->
      fix
        (fun self n ->
          if n = 0 then
            oneof
              [
                pure Value.Bot;
                pure Value.Unit;
                map (fun i -> Value.Int i) (int_range (-5) 5);
                map (fun i -> Value.Big (Bignum.of_int i)) (int_range (-5) 5);
              ]
          else
            oneof
              [
                map (fun i -> Value.Int i) (int_range (-5) 5);
                map2 (fun a b -> Value.Pair (a, b)) (self (n / 2)) (self (n / 2));
                map (fun l -> Value.Vec (Array.of_list l))
                  (list_size (int_range 0 3) (self (n / 2)));
                map3 (fun p s v -> Value.Tag (p, s, v)) (int_range 0 3) (int_range 0 3)
                  (self (n / 2));
              ])
        n)

let prop_compare_reflexive =
  QCheck2.Test.make ~name:"compare is reflexive" ~count:300 value_gen (fun v ->
      Value.compare v v = 0 && Value.equal v v)

let prop_compare_antisymmetric =
  QCheck2.Test.make ~name:"compare is antisymmetric" ~count:300
    (QCheck2.Gen.pair value_gen value_gen)
    (fun (a, b) -> compare (Value.compare a b) 0 = compare 0 (Value.compare b a))

let prop_compare_transitive =
  QCheck2.Test.make ~name:"compare is transitive" ~count:300
    (QCheck2.Gen.triple value_gen value_gen value_gen)
    (fun (a, b, c) ->
      let sorted = List.sort Value.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] -> Value.compare x y <= 0 && Value.compare y z <= 0 && Value.compare x z <= 0
      | _ -> false)

(* Int and Big representations of the same number are equal, so they must
   hash identically (this property caught a real bug). *)
let prop_equal_hash =
  QCheck2.Test.make ~name:"equal values hash equally (Int vs Big)" ~count:300
    (QCheck2.Gen.int_range (-1000) 1000)
    (fun i ->
      Value.equal (Value.Int i) (Value.Big (Bignum.of_int i))
      && Value.hash (Value.Int i) = Value.hash (Value.Big (Bignum.of_int i)))

(* --- guard messages ------------------------------------------------------ *)

(* The prefixes the library's guards pass to [Value.reject]. *)
let guard_prefixes =
  [
    "History: malformed buffer entry"; "History.get: buffer read returned";
    "Rw_counter: malformed register"; "Reg_counter: malformed register";
    "Swap_protocol: malformed location"; "assignment protocol: untagged value";
    "buffer read returned"; "hetero buffer read returned";
    Isets.Buffered_reduction.Rw_spec.name ^ ": bad buffer read"; "Value.to_int_exn:";
    "Value.to_big_exn:";
  ]

(* Values of every shape, nested [Pair]/[Vec]/[Tag] ones often wider than
   [Format]'s 78-column margin, so [pp]'s break hints fire. *)
let wide_value_gen =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        pure Value.Bot;
        pure Value.Unit;
        map (fun i -> Value.Int i) int;
        map (fun i -> Value.Big (Bignum.of_int i)) int;
        map
          (fun d -> Value.Big (Bignum.of_string d))
          (string_size ~gen:numeral (int_range 19 40));
      ]
  in
  sized_size (int_range 0 40) (fun n ->
      fix
        (fun self n ->
          if n = 0 then scalar
          else
            frequency
              [
                (1, scalar);
                (2, map2 (fun a b -> Value.Pair (a, b)) (self (n / 2)) (self (n / 2)));
                ( 2,
                  map (fun l -> Value.Vec (Array.of_list l))
                    (list_size (int_range 0 6) (self (n / 3))) );
                (1, map3 (fun p s v -> Value.Tag (p, s, v)) nat nat (self (n - 1)));
              ])
        n)

let rejection f =
  match f () with
  | _ -> None
  | exception Invalid_argument m -> Some m

(* [reject p v] raises the message [Format] builds from ["%s %a"], which is
   the message each guard's literal-prefix format built before it called
   [reject]. *)
let prop_reject_is_format =
  QCheck2.Test.make ~name:"reject prints what Format prints" ~count:2000
    ~print:(fun (p, v) -> Format.asprintf "%S %a" p Value.pp v)
    QCheck2.Gen.(pair (oneofl guard_prefixes) wide_value_gen)
    (fun (p, v) ->
      let want = Format.kasprintf Fun.id "%s %a" p Value.pp v in
      let literal = Scanf.format_from_string (p ^ " %a") "%a" in
      rejection (fun () -> Value.reject p v) = Some want
      && Format.asprintf literal Value.pp v = want)

let test_wide_values_break () =
  let values =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 20 |]) ~n:500 wide_value_gen
  in
  let broken =
    List.filter
      (fun v -> String.contains (Format.asprintf "History: %a" Value.pp v) '\n')
      values
  in
  Alcotest.(check bool) "some generated values line-break" true (List.length broken > 100)

(* Feed every step of [t] the result [v] until a guard rejects it. *)
let rec drive fuel (t : (_, Value.t, _) Proc.t) v =
  match t with
  | Proc.Step (accs, k) when fuel > 0 -> drive (fuel - 1) (k (List.map (fun _ -> v) accs)) v
  | _ -> ()

(* Run pid 0 of [p] at n = 2, answering each access with the result its
   sampled cells give that prints as [want] (the first one if none does),
   until a guard rejects one. *)
let drive_protocol (p : Consensus.Proto.t) want =
  let (module P) = p in
  let answer (_, op) =
    let rs =
      List.filter_map
        (fun c -> try Some (snd (P.I.apply op c)) with _ -> None)
        (P.I.sample_cells ())
    in
    let printed r = Format.asprintf "%a" P.I.pp_result r in
    match List.find_opt (fun r -> printed r = want) rs with
    | Some r -> r
    | None -> List.hd rs
  in
  let rec go fuel = function
    | Proc.Step (accs, k) when fuel > 0 -> go (fuel - 1) (k (List.map answer accs))
    | _ -> ()
  in
  go 16 (P.proc ~n:2 ~pid:0 ~input:0)

(* One case per guard that calls [reject]: it raises the message its
   literal-prefix format built before. *)
let test_guard_messages () =
  let module B2 = Isets.Buffer_set.Make (struct
    let capacity = 2
    let multi_assignment = false
  end) in
  let module Rw_spec = Isets.Buffered_reduction.Rw_spec in
  let module Red = Isets.Buffered_reduction.Make (Rw_spec) in
  let pair = Value.Pair (Value.Int 1, Value.Bot) in
  let tagged = Value.Tag (1, 2, Value.Int 3) in
  let wide = Value.Vec (Array.init 30 (fun i -> Value.Pair (Value.Int i, Value.Unit))) in
  let cases =
    [
      ( "History entry",
        "History: malformed buffer entry 1",
        fun () -> drive 4 (Objects.History.get ~loc:0) (Value.Vec [| Value.Int 1 |]) );
      ( "History.get",
        Format.asprintf "History.get: buffer read returned %a" Value.pp Value.Unit,
        fun () -> drive 4 (Objects.History.get ~loc:0) Value.Unit );
      ( "Rw_counter",
        Format.asprintf "Rw_counter: malformed register %a" Value.pp (Value.Int 7),
        fun () ->
          let (module C) = Objects.Rw_counter.make ~components:2 ~n:2 ~base:0 ~pid:0 in
          drive 8 (C.scan C.init) (Value.Int 7) );
      ( "Reg_counter",
        Format.asprintf "Reg_counter: malformed register %a" Value.pp pair,
        fun () ->
          let regs =
            {
              Objects.Reg_counter.write = (fun ~pid:_ ~seq:_ _ -> Proc.return ());
              collect = Proc.map (fun v -> ([| v |], 0)) (Isets.Rw.read 0);
            }
          in
          let (module C) = Objects.Reg_counter.make ~components:1 ~regs ~pid:0 in
          drive 8 (C.scan C.init) pair );
      ( "Swap_protocol",
        Format.asprintf "Swap_protocol: malformed location %a" Value.pp (Value.Int 2),
        fun () -> drive_protocol Consensus.Swap_protocol.protocol "2" );
      ( "Assignment_protocol",
        Format.asprintf "assignment protocol: untagged value %a" Value.pp (Value.Int 1),
        fun () -> drive_protocol Consensus.Assignment_protocol.two_process "[|1|]" );
      ( "Buffer_set read",
        Format.asprintf "buffer read returned %a" Value.pp (Value.Int 5),
        fun () -> drive 2 (B2.read 0) (Value.Int 5) );
      ( "Hetero_buffer read",
        Format.asprintf "hetero buffer read returned %a" Value.pp Value.Bot,
        fun () -> drive 2 (Isets.Hetero_buffer.read ~capacities:(fun _ -> 2) 0) Value.Bot );
      ( "Buffered_reduction",
        Format.asprintf "%s: bad buffer read %a" Rw_spec.name Value.pp tagged,
        fun () -> drive 2 (Red.apply ~loc:0 Isets.Rw.Read) tagged );
      ( "Value.to_int_exn",
        Format.asprintf "Value.to_int_exn: %a" Value.pp wide,
        fun () -> ignore (Value.to_int_exn wide) );
      ( "Value.to_big_exn",
        Format.asprintf "Value.to_big_exn: %a" Value.pp Value.Unit,
        fun () -> ignore (Value.to_big_exn Value.Unit) );
    ]
  in
  List.iter
    (fun (site, want, f) -> Alcotest.(check (option string)) site (Some want) (rejection f))
    cases;
  Alcotest.(check bool) "the wide case line-breaks" true
    (String.contains (Format.asprintf "%a" Value.pp wide) '\n')

let () =
  Alcotest.run "value"
    [
      ( "value",
        [
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "compare total order" `Quick test_compare_total_order;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "pp" `Quick test_pp;
          Alcotest.test_case "hash" `Quick test_hash;
        ] );
      ( "guards",
        [
          Alcotest.test_case "one per guard" `Quick test_guard_messages;
          Alcotest.test_case "wide values line-break" `Quick test_wide_values_break;
          QCheck_alcotest.to_alcotest prop_reject_is_format;
        ] );
      ( "order laws",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_compare_reflexive;
            prop_compare_antisymmetric;
            prop_compare_transitive;
            prop_equal_hash;
          ] );
    ]
