(* A fork–join worker pool in which the calling domain is one of the
   workers.

   Parking the caller in [Domain.join] while k spawned domains work puts
   k + 1 domains on the machine, and every OCaml 5 minor collection is a
   stop-the-world handshake that must reach all of them, the parked one
   included.  Here a width-k pool holds exactly k domains: on a 2-core
   Xeon guest the executor span of a 2-wide, 192-task campaign went from
   0.42 s with the caller parked to 0.26 s with the caller working.

   Each helper grows its minor heap to 4 M words (32 MB) before working:
   fewer, larger minor collections mean fewer handshakes.  It matters
   once domains outnumber cores: on a 2-core Xeon guest, parallel-4
   exploration of add (n = 4, depth 12, commute) took 3.8–4.5 s without
   it and 1.7–2.8 s with it, while parallel-2 and the 2-wide campaign
   executor measured the same either way, within noise.  The caller's own GC settings
   belong to the program that called the pool and are left alone. *)

let helper_minor_heap_words = 1 lsl 22

let run ~width ~abort work =
  let failed = Atomic.make None in
  (* every exception, a failed spawn's included, ends here: no helper
     raises into [Domain.join], so every helper is joined *)
  let guard f =
    try f ()
    with exn ->
      let bt = Printexc.get_raw_backtrace () in
      if Atomic.compare_and_set failed None (Some (exn, bt)) then abort ()
  in
  let helper () =
    guard (fun () ->
        Gc.set { (Gc.get ()) with Gc.minor_heap_size = helper_minor_heap_words };
        work ())
  in
  let helpers = ref [] in
  guard (fun () ->
      for _ = 2 to width do
        helpers := Domain.spawn helper :: !helpers
      done;
      work ());
  List.iter Domain.join !helpers;
  match Atomic.get failed with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ()
