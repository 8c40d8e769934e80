(* Verifying protocols instead of just running them.

   Because processes are pure step machines, configurations can be branched
   along every schedule: the library ships a bounded model checker and a
   protocol synthesizer.  This example (1) exhaustively checks a protocol,
   (2) watches the checker catch a planted bug, and (3) lets the
   synthesizer rediscover a protocol from nothing.

   Run with: dune exec examples/verify.exe *)

let () =
  (* 1. Exhaustive verification: every schedule of 2-process max-register
     consensus to depth 12, probing obstruction-freedom everywhere. *)
  (match
     Explore.run ~probe:`Everywhere Consensus.Maxreg_protocol.protocol
       ~inputs:[| 0; 1 |] ~depth:12
   with
   | Explore.Completed s ->
     Printf.printf
       "max-registers, n=2: no violation in %d configurations (%d solo probes)\n"
       s.configs s.probes
   | Explore.Timed_out _ -> print_endline "?! unbounded run timed out"
   | Explore.Falsified f ->
     Printf.printf "unexpected violation: %s\n" (Explore.failure_message f));

  (* 2. Plant a bug: racing counters deciding at a lead of 1 instead of n.
     The checker produces the interleaving that breaks agreement. *)
  let buggy : Consensus.Proto.t =
    (module struct
      module I = Isets.Arith.Add

      let name = "racing with lead 1 (buggy)"
      let locations ~n:_ = Some 1

      let proc ~n ~pid:_ ~input =
        Consensus.Racing.consensus ~decide_lead:1
          (Objects.Arith_counters.add ~components:n ~n ~loc:0)
          ~n ~input
    end)
  in
  (match Explore.run ~probe:`Everywhere buggy ~inputs:[| 0; 1 |] ~depth:12 with
   | Explore.Completed _ | Explore.Timed_out _ -> print_endline "?! the bug survived"
   | Explore.Falsified f ->
     (* The failure carries a replayable witness, already shrunk to a minimal
        interleaving by delta debugging. *)
     Printf.printf "planted bug caught: %s\n" (Explore.failure_message f);
     Format.printf "  minimal interleaving: @[%a@]@." Explore.pp_witness
       f.Explore.witness;
     Printf.printf "  (shrunk from %d scheduled steps, replay reproduces: %b)\n"
       (List.length f.Explore.original.Explore.schedule)
       f.Explore.reproduced);

  (* 3. Synthesis: ask for a wait-free 2-process consensus protocol on a
     bare compare-and-swap cell.  The search rediscovers Table 1's row. *)
  (match Synth.search Synth.cas_cell ~depth:1 with
   | Synth.Found p ->
     print_endline "synthesized from scratch on one cas cell:";
     Format.printf "  propose 0: @[%a@]@." (Synth.pp_tree ~ops:Synth.cas_cell.ops) p.t00
   | Synth.Impossible_within_depth -> print_endline "?! cas should be found");

  (* ... and prove that one test-and-set bit can never do it. *)
  match Synth.search Synth.tas_bit ~depth:3 with
  | Synth.Impossible_within_depth ->
    print_endline
      "and proved: no 2-process protocol with ≤ 3 instructions/process exists on a \
       single test-and-set bit."
  | Synth.Found _ -> print_endline "?! tas bit cannot solve consensus"
