(* Exhaustive property-checking of one instruction set's declared contracts
   over its bounded enumerators ({!Model.Iset.S.sample_ops} ×
   {!Model.Iset.S.sample_cells}, closed once under [apply]).

   Checked obligations (each maps to a documented requirement in
   [Model.Iset.S]; Section 2's uniformity model makes these per-instruction-set
   properties, not per-protocol ones):

   - [commutes a b] must imply: applied to the same cell in either order,
     the final cells are equal and each invoker sees the same result.  An
     over-approximation silently unsounds the sleep-set reduction.
   - [commutes] must be symmetric.
   - [trivial op] must imply [apply op] preserves every cell.
   - [trivial a && trivial b] must imply [commutes a b].
   - [equal_cell] must be reflexive and [hash_cell] must respect it.
   - [hash_result] must respect result equality (two results that print
     identically must hash identically — results in this codebase print
     injectively).

   Conversely, pairs that agree on every sampled cell but are NOT declared
   commuting are reported as [Info]-severity lost-pruning diagnostics: the
   declaration must hold on {e all} cells, so the sample cannot prove it,
   but it marks pruning the reduction is leaving on the table.

   [apply] is allowed to reject an (op, cell) combination (heterogeneous
   buffers raise on capacity mismatches); such combinations are skipped. *)

module Check (I : Model.Iset.S) = struct
  include Cfg.Print (I)

  let apply_opt op c = try Some (I.apply op c) with _ -> None

  let ops = I.sample_ops ()

  (* Corpus: the declared samples plus one closure round under [apply],
     deduplicated with [equal_cell] — the closure surfaces distinct
     representations of equal cells (the hash-coherence check needs them). *)
  let cells =
    let seeds = I.sample_cells () in
    let derived =
      List.concat_map
        (fun c ->
          List.filter_map (fun op -> Option.map fst (apply_opt op c)) ops)
        seeds
    in
    List.fold_left
      (fun acc c -> if List.exists (fun d -> I.equal_cell c d && cell_str c = cell_str d) acc then acc else c :: acc)
      [] (seeds @ derived)
    |> List.rev

  let finding sev ~rule fmt = Report.finding sev ~rule ~subject:I.name fmt

  (* Equality proxy for results: the signature requires [hash_result] to
     agree with structural equality but exposes no equality, so we compare
     printed forms and separately flag print-equal/hash-unequal pairs. *)
  let res_eq a b = res_str a = res_str b

  let check_cell_coherence out =
    List.iter
      (fun c ->
        if not (I.equal_cell c c) then
          out (finding Error ~rule:"equal-cell-irreflexive" "equal_cell %s %s is false"
                 (cell_str c) (cell_str c)))
      cells;
    List.iter
      (fun c ->
        List.iter
          (fun d ->
            if I.equal_cell c d && I.hash_cell c <> I.hash_cell d then
              out
                (finding Error ~rule:"hash-cell-incoherent"
                   "cells %s and %s are equal_cell but hash to %d and %d" (cell_str c)
                   (cell_str d) (I.hash_cell c) (I.hash_cell d)))
          cells)
      cells

  let check_result_coherence out =
    let results =
      List.concat_map
        (fun op -> List.filter_map (fun c -> Option.map snd (apply_opt op c)) cells)
        ops
    in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun r ->
        let k = res_str r in
        let h = I.hash_result r in
        match Hashtbl.find_opt seen k with
        | Some h' when h' <> h ->
          out
            (finding Error ~rule:"hash-result-incoherent"
               "result %s hashes to both %d and %d" k h h')
        | Some _ -> ()
        | None -> Hashtbl.add seen k h)
      results

  let check_trivial out =
    List.iter
      (fun op ->
        let applicable = List.filter_map (fun c -> Option.map (fun x -> (c, x)) (apply_opt op c)) cells in
        let preserves = List.for_all (fun (c, (c', _)) -> I.equal_cell c c') applicable in
        if I.trivial op then begin
          match List.find_opt (fun (c, (c', _)) -> not (I.equal_cell c c')) applicable with
          | Some (c, (c', _)) ->
            out
              (finding Error ~rule:"trivial-unsound"
                 "%s is declared trivial but rewrites cell %s to %s" (op_str op)
                 (cell_str c) (cell_str c'))
          | None -> ()
        end
        else if preserves && applicable <> [] then
          out
            (finding Info ~rule:"trivial-missing"
               "%s preserves every sampled cell but is not declared trivial (lost pruning)"
               (op_str op)))
      ops

  (* Run [a] then [b] on [c]; [Some (final, result_of_a, result_of_b)] when
     both applications are accepted. *)
  let seq a b c =
    match apply_opt a c with
    | None -> None
    | Some (c1, ra) ->
      (match apply_opt b c1 with
       | None -> None
       | Some (c2, rb) -> Some (c2, ra, rb))

  (* Outcome of the commutation experiment for (a, b) on cell c:
     [`Agree] both orders applicable and indistinguishable, [`Disagree why]
     applicable but distinguishable, [`Skip] not applicable both ways. *)
  let commute_on a b c =
    match (seq a b c, seq b a c) with
    | Some (cab, ra, rb), Some (cba, rb', ra') ->
      if not (I.equal_cell cab cba) then
        `Disagree
          (Printf.sprintf "final cells differ on %s: %s vs %s" (cell_str c)
             (cell_str cab) (cell_str cba))
      else if not (res_eq ra ra') then
        `Disagree
          (Printf.sprintf "%s sees %s or %s depending on order (cell %s)" (op_str a)
             (res_str ra) (res_str ra') (cell_str c))
      else if not (res_eq rb rb') then
        `Disagree
          (Printf.sprintf "%s sees %s or %s depending on order (cell %s)" (op_str b)
             (res_str rb) (res_str rb') (cell_str c))
      else `Agree
    | _ -> `Skip

  let check_commutes out =
    let arr = Array.of_list ops in
    let n = Array.length arr in
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        let a = arr.(i) and b = arr.(j) in
        if I.commutes a b <> I.commutes b a then
          out
            (finding Error ~rule:"commutes-asymmetric"
               "commutes %s %s = %b but commutes %s %s = %b" (op_str a) (op_str b)
               (I.commutes a b) (op_str b) (op_str a) (I.commutes b a));
        let declared = I.commutes a b in
        if I.trivial a && I.trivial b && not declared then
          out
            (finding Error ~rule:"trivial-pair-noncommuting"
               "%s and %s are both trivial but not declared commuting" (op_str a)
               (op_str b));
        let outcomes = List.map (commute_on a b) cells in
        let disagreement =
          List.find_map (function `Disagree why -> Some why | _ -> None) outcomes
        in
        let agreements = List.length (List.filter (( = ) `Agree) outcomes) in
        match (declared, disagreement) with
        | true, Some why ->
          out
            (finding Error ~rule:"commutes-unsound"
               "%s and %s are declared commuting but are order-sensitive: %s" (op_str a)
               (op_str b) why)
        | false, None when agreements > 0 && not (I.trivial a && I.trivial b) ->
          out
            (finding Info ~rule:"commutes-missing"
               "%s and %s agree on all %d sampled cells but are not declared commuting \
                (lost pruning)"
               (op_str a) (op_str b) agreements)
        | _ -> ()
      done
    done

  let run () =
    let acc = ref [] in
    let out f = acc := f :: !acc in
    if ops = [] then out (finding Warning ~rule:"empty-enumeration" "sample_ops is empty");
    if cells = [] then
      out (finding Warning ~rule:"empty-enumeration" "sample_cells is empty");
    check_cell_coherence out;
    check_result_coherence out;
    check_trivial out;
    check_commutes out;
    List.rev !acc
end

let lint_iset (module I : Model.Iset.S) =
  let module C = Check (I) in
  C.run ()
