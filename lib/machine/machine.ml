module Imap = Map.Make (Int)
module Iset_int = Set.Make (Int)

(* Multiplicative mix (64-bit FNV prime) with an avalanche shift, shared by
   the per-process history hashes and the slow-path fingerprints. *)
let mix acc h =
  let x = (acc * 0x100000001b3) lxor h in
  x lxor (x lsr 29)

(* Two-round multiply/shift avalanche for the flat fingerprint lanes.  The
   multipliers are odd and deliberately below 2^62 (OCaml int literals are
   63-bit); each lane uses its own pair so an input collision in one lane is
   independent of the other — together the two lanes are a 128-bit digest. *)
let ava m1 m2 k =
  let k = k * m1 in
  let k = k lxor (k lsr 29) in
  let k = k * m2 in
  k lxor (k lsr 32)

let am1 = 0x2545F4914F6CDD1D
let am2 = 0x27D4EB2F165667C5
let bm1 = 0x165667B19E3779F9
let bm2 = 0x1C69B3F74AC4AE35

(* Fold the two lanes into the single-word fingerprint the public API
   exposes. *)
let combine a b =
  let x = (a * am1) lxor b in
  x lxor (x lsr 31)

module Make (I : Iset.S) = struct
  type 'a proc = (I.op, I.result, 'a) Proc.t

  type event =
    | Step of {
        pid : int;
        accesses : (int * I.op * I.result) list;
      }
    | Crash of {
        pid : int;
        epoch : int;
      }

  let event_pid = function Step { pid; _ } -> pid | Crash { pid; _ } -> pid

  (* The flat fingerprint is maintained as four wrapping-int sums: each
     written cell and each process history slot contributes one
     pseudo-random word per lane, and native addition — an invertible,
     commutative group operation — lets [step] update the digest by
     subtracting the old contribution and adding the new one, in O(1) per
     transition instead of re-folding O(mem + n) state.  The memory map
     stores each cell's two lane contributions next to the cell, so
     [I.hash_cell] runs once per write and is a lookup ever after. *)
  type 'a config = {
    mem : (I.cell * int * int) Imap.t;
        (* loc -> (cell, lane-A contribution, lane-B contribution);
           contributions are (0, 0) for cells equal to [I.init], which keeps
           an explicit write of the initial value indistinguishable from an
           untouched location *)
    procs : 'a proc array;
    root : int -> 'a proc;
        (* the process builder [make] was given: a crash–recover transition
           restarts a process from [root pid] (program state is lost, the
           shared memory above survives — Golab's crash–recovery model) *)
    steps : int;
    steps_per_process : int array;
    touched : Iset_int.t;
    trace : event list;  (* most recent first *)
    record_trace : bool;
    running_count : int;  (* cached |running|, kept exact by [step] *)
    hist : int array;  (* rolling hash of each process's observed results *)
    epochs : int array;  (* recovery epoch per process: crashes survived *)
    esteps : int array;
        (* steps taken since the process's last start/recovery; a process
           with [esteps = 0] is at its root, so crashing it again changes
           nothing but the epoch counter — [crashable] excludes it *)
    crashes : int;  (* total crash–recover transitions so far *)
    mem_a : int;  (* sum of every cell's lane-A contribution *)
    mem_b : int;
    hist_a : int;  (* sum of every (pid, hist.(pid)) lane-A contribution *)
    hist_b : int;
    epoch_a : int;  (* sum of every nonzero (pid, epoch) lane-A contribution *)
    epoch_b : int;
  }

  exception Multi_assignment_not_supported

  (* One cell's (or history slot's) contribution to a digest lane: avalanche
     the content hash salted by the slot index, with lane-specific input
     mixing so the lanes fail independently. *)
  let cell_contrib_a loc hc = ava am1 am2 (hc + (((2 * loc) + 1) * am2))
  let cell_contrib_b loc hc = ava bm1 bm2 (hc + (((2 * loc) + 1) * bm2))
  let hist_contrib_a pid h = ava am1 am2 ((h lxor 0x9e37) + (((2 * pid) + 1) * am1))
  let hist_contrib_b pid h = ava bm1 bm2 ((h lxor 0x9e37) + (((2 * pid) + 1) * bm1))

  (* Recovery epochs are a third fingerprint ingredient: two configurations
     that agree on memory and histories but differ in how often a process
     crashed must not be conflated — the remaining crash budget differs.
     Epoch 0 contributes nothing, so crash-free runs produce bit-identical
     fingerprints to a machine without the crash extension.  The salt
     multipliers are xors of the lane pairs, distinct from both the cell and
     history salt families. *)
  let epoch_contrib_a pid e =
    if e = 0 then 0
    else ava am1 am2 ((e lxor 0xC3A5) + (((2 * pid) + 1) * (am1 lxor am2)))

  let epoch_contrib_b pid e =
    if e = 0 then 0
    else ava bm1 bm2 ((e lxor 0xC3A5) + (((2 * pid) + 1) * (bm1 lxor bm2)))

  let runnable = function Proc.Step (_ :: _, _) -> true | Proc.Step ([], _) | Proc.Done _ -> false

  let make ?(record_trace = true) ~n f =
    if n < 1 then invalid_arg "Machine.make: n < 1";
    let procs = Array.init n f in
    let running_count = Array.fold_left (fun k p -> if runnable p then k + 1 else k) 0 procs in
    let hist_a = ref 0 and hist_b = ref 0 in
    for pid = 0 to n - 1 do
      hist_a := !hist_a + hist_contrib_a pid 0;
      hist_b := !hist_b + hist_contrib_b pid 0
    done;
    {
      mem = Imap.empty;
      procs;
      root = f;
      steps = 0;
      steps_per_process = Array.make n 0;
      touched = Iset_int.empty;
      trace = [];
      record_trace;
      running_count;
      hist = Array.make n 0;
      epochs = Array.make n 0;
      esteps = Array.make n 0;
      crashes = 0;
      mem_a = 0;
      mem_b = 0;
      hist_a = !hist_a;
      hist_b = !hist_b;
      epoch_a = 0;
      epoch_b = 0;
    }

  let n_processes cfg = Array.length cfg.procs

  let cell cfg loc =
    match Imap.find_opt loc cfg.mem with Some (c, _, _) -> c | None -> I.init

  let decision cfg pid =
    match cfg.procs.(pid) with Proc.Done v -> Some v | Proc.Step _ -> None

  let decisions cfg =
    let out = ref [] in
    Array.iteri
      (fun pid p -> match p with Proc.Done v -> out := (pid, v) :: !out | Proc.Step _ -> ())
      cfg.procs;
    List.rev !out

  let running cfg =
    let out = ref [] in
    for pid = Array.length cfg.procs - 1 downto 0 do
      if runnable cfg.procs.(pid) then out := pid :: !out
    done;
    !out

  let running_count cfg = cfg.running_count

  let poised cfg pid =
    match cfg.procs.(pid) with
    | Proc.Step (accesses, _) -> Some accesses
    | Proc.Done _ -> None

  let steps cfg = cfg.steps
  let steps_of cfg pid = cfg.steps_per_process.(pid)
  let epoch cfg pid = cfg.epochs.(pid)
  let crashes cfg = cfg.crashes

  let crashable cfg =
    let out = ref [] in
    for pid = Array.length cfg.procs - 1 downto 0 do
      if cfg.esteps.(pid) > 0 then out := pid :: !out
    done;
    !out
  let locations_used cfg = Iset_int.cardinal cfg.touched
  let max_location cfg = Iset_int.max_elt_opt cfg.touched

  let fold_cells cfg ~init ~f =
    Imap.fold (fun loc (c, _, _) acc -> f acc loc c) cfg.mem init

  (* Fingerprint semantics: memory contents plus each process's
     result-history hash.  A process is a deterministic function of the
     results it has observed, so two configurations of the same initial
     machine with equal fingerprints behave identically (modulo hash
     collisions) — in particular, configurations reached by commuting
     independent steps coincide.  Cells equal to [I.init] are skipped: a
     location explicitly written back to the initial value is
     indistinguishable from an untouched one ([cell] returns [I.init]
     either way), so both must fingerprint identically or the model
     checker's dedup silently misses them.

     The maintained digest reads off in O(1); [slow_fingerprint] recomputes
     the original fold from scratch and is kept as the reference the tests
     compare the partition against. *)
  let fingerprint_words cfg =
    (cfg.mem_a + cfg.hist_a + cfg.epoch_a, cfg.mem_b + cfg.hist_b + cfg.epoch_b)

  let fingerprint cfg =
    combine
      (cfg.mem_a + cfg.hist_a + cfg.epoch_a)
      (cfg.mem_b + cfg.hist_b + cfg.epoch_b)

  let mem_hash cfg =
    Imap.fold
      (fun loc (c, _, _) acc ->
        if I.equal_cell c I.init then acc else mix (mix acc loc) (I.hash_cell c))
      cfg.mem 0x517cc1b7

  (* Nonzero epochs fold in with a pid salt; all-zero epochs add nothing,
     so crash-free values equal the pre-crash-subsystem fold exactly. *)
  let epochs_hash cfg acc =
    let acc = ref acc in
    Array.iteri
      (fun pid e -> if e > 0 then acc := mix (mix !acc (pid lxor 0xC3A5)) e)
      cfg.epochs;
    !acc

  let slow_fingerprint cfg = epochs_hash cfg (Array.fold_left mix (mem_hash cfg) cfg.hist)

  (* Quotient the fingerprint by process permutations: hash each process as a
     (input, history, decision) triple and fold the triples in sorted order,
     so two configurations that differ only by exchanging the full states of
     two same-input processes collide on purpose.  Baking the input into each
     triple makes the global sort equivalent to sorting within equal-input
     groups, which is the permutation actually allowed.  Decisions are hashed
     with the polymorphic [Hashtbl.hash] (decision values are small
     first-order data in practice).  Only sound when the protocol itself is
     pid-symmetric — see the [Explore] documentation.

     The memory part reads off the maintained lane sums (themselves
     permutation-insensitive); only the per-process triples — O(n log n) for
     the handful of processes a run has — are rebuilt per call. *)
  let canonical_components ~inputs cfg =
    let n = Array.length cfg.procs in
    if Array.length inputs <> n then
      invalid_arg "Machine.canonical_fingerprint: inputs length mismatch";
    let comp = Array.make n 0 in
    for pid = 0 to n - 1 do
      let d =
        match cfg.procs.(pid) with
        | Proc.Done v -> mix 0x51ded (Hashtbl.hash v)
        | Proc.Step _ -> 0x0b5e55
      in
      let c = mix (mix (mix 0x7f4a7c15 inputs.(pid)) cfg.hist.(pid)) d in
      (* the recovery epoch travels with the process state it identifies:
         same-input processes swap roles only if their epochs swap too.
         Epoch 0 leaves the component untouched (crash-free bit-identity). *)
      comp.(pid) <-
        (if cfg.epochs.(pid) = 0 then c else mix c (cfg.epochs.(pid) lxor 0xC3A5))
    done;
    Array.sort compare comp;
    comp

  let canonical_fingerprint_words ~inputs cfg =
    let comp = canonical_components ~inputs cfg in
    let a = ref cfg.mem_a and b = ref cfg.mem_b in
    Array.iter
      (fun cmp ->
        a := ava am1 am2 (!a lxor cmp);
        b := ava bm1 bm2 (!b lxor cmp))
      comp;
    (!a, !b)

  let canonical_fingerprint ~inputs cfg =
    let a, b = canonical_fingerprint_words ~inputs cfg in
    combine a b

  let slow_canonical_fingerprint ~inputs cfg =
    let comp = canonical_components ~inputs cfg in
    Array.fold_left mix (mem_hash cfg) comp

  let trace cfg = List.rev cfg.trace

  let pp_event ppf = function
    | Crash { pid; epoch } ->
      Format.fprintf ppf "p%d: CRASH -> recovers at protocol root (epoch %d)" pid epoch
    | Step { pid; accesses = [ (loc, op, r) ] } ->
      Format.fprintf ppf "p%d: %a @@ %d -> %a" pid I.pp_op op loc I.pp_result r
    | Step { pid; accesses } ->
      Format.fprintf ppf "p%d: atomically {@[%a@]}" pid
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           (fun ppf (loc, op, r) ->
             Format.fprintf ppf "%a @@ %d -> %a" I.pp_op op loc I.pp_result r))
        accesses

  let pp_trace ppf cfg =
    List.iteri
      (fun i e -> Format.fprintf ppf "%4d  %a@." i pp_event e)
      (trace cfg)

  (* Assemble the successor configuration once a step's memory effects and
     results are known — shared by the singleton fast path and the
     multi-assignment branch of [step]. *)
  let finish_step cfg pid k accesses results mem touched mem_a mem_b =
    let procs = Array.copy cfg.procs in
    let next = k results in
    procs.(pid) <- next;
    let steps_per_process = Array.copy cfg.steps_per_process in
    steps_per_process.(pid) <- steps_per_process.(pid) + 1;
    let hist = Array.copy cfg.hist in
    let old_h = hist.(pid) in
    let new_h =
      List.fold_left (fun acc r -> mix acc (I.hash_result r)) (mix old_h 0x9e37) results
    in
    hist.(pid) <- new_h;
    let esteps = Array.copy cfg.esteps in
    esteps.(pid) <- esteps.(pid) + 1;
    let trace =
      if cfg.record_trace then
        Step
          { pid; accesses = List.map2 (fun (loc, op) r -> (loc, op, r)) accesses results }
        :: cfg.trace
      else cfg.trace
    in
    {
      cfg with
      mem;
      procs;
      steps = cfg.steps + 1;
      steps_per_process;
      touched;
      trace;
      running_count = (cfg.running_count - if runnable next then 0 else 1);
      hist;
      esteps;
      mem_a;
      mem_b;
      hist_a = cfg.hist_a - hist_contrib_a pid old_h + hist_contrib_a pid new_h;
      hist_b = cfg.hist_b - hist_contrib_b pid old_h + hist_contrib_b pid new_h;
    }

  let step cfg pid =
    match cfg.procs.(pid) with
    | Proc.Done _ -> invalid_arg "Machine.step: process has decided"
    | Proc.Step ([], _) -> invalid_arg "Machine.step: blocked process"
    | Proc.Step (([ (loc, op) ] as accesses), k) ->
      (* the overwhelmingly common shape: one instruction on one location *)
      if loc < 0 then invalid_arg "Machine.step: negative location";
      let c, pa, pb =
        match Imap.find_opt loc cfg.mem with
        | Some cell -> cell
        | None -> (I.init, 0, 0)
      in
      let c', r = I.apply op c in
      let na, nb =
        if I.equal_cell c' I.init then (0, 0)
        else begin
          let hc = I.hash_cell c' in
          (cell_contrib_a loc hc, cell_contrib_b loc hc)
        end
      in
      finish_step cfg pid k accesses [ r ]
        (Imap.add loc (c', na, nb) cfg.mem)
        (Iset_int.add loc cfg.touched)
        (cfg.mem_a + na - pa) (cfg.mem_b + nb - pb)
    | Proc.Step (accesses, k) ->
      if not I.multi_assignment then raise Multi_assignment_not_supported;
      let apply_one (mem, rs, touched, ma, mb) (loc, op) =
        if loc < 0 then invalid_arg "Machine.step: negative location";
        let c, pa, pb =
          match Imap.find_opt loc mem with
          | Some cell -> cell
          | None -> (I.init, 0, 0)
        in
        let c', r = I.apply op c in
        let na, nb =
          if I.equal_cell c' I.init then (0, 0)
          else begin
            let hc = I.hash_cell c' in
            (cell_contrib_a loc hc, cell_contrib_b loc hc)
          end
        in
        ( Imap.add loc (c', na, nb) mem,
          r :: rs,
          Iset_int.add loc touched,
          ma + na - pa,
          mb + nb - pb )
      in
      let mem, rev_results, touched, mem_a, mem_b =
        List.fold_left apply_one (cfg.mem, [], cfg.touched, cfg.mem_a, cfg.mem_b) accesses
      in
      finish_step cfg pid k accesses (List.rev rev_results) mem touched mem_a mem_b

  (* The crash–recover transition (Golab, arXiv 1804.10597): the process
     loses its program state — continuation, observed-result history, even a
     pending decision — and restarts from its protocol root; shared memory
     is untouched, which is what makes designated locations act as
     persistent recovery cells.  Total on every process state (running,
     blocked, decided): a decided process that crashes re-executes the
     protocol, which is exactly the re-decision scenario the recoverable
     observers police.  Not a computation step: [steps] does not advance. *)
  let crash_recover cfg pid =
    let old_p = cfg.procs.(pid) in
    let fresh = cfg.root pid in
    let procs = Array.copy cfg.procs in
    procs.(pid) <- fresh;
    let hist = Array.copy cfg.hist in
    let old_h = hist.(pid) in
    hist.(pid) <- 0;
    let epochs = Array.copy cfg.epochs in
    let old_e = epochs.(pid) in
    let new_e = old_e + 1 in
    epochs.(pid) <- new_e;
    let esteps = Array.copy cfg.esteps in
    esteps.(pid) <- 0;
    let trace =
      if cfg.record_trace then Crash { pid; epoch = new_e } :: cfg.trace else cfg.trace
    in
    {
      cfg with
      procs;
      trace;
      running_count =
        (cfg.running_count
        - (if runnable old_p then 1 else 0)
        + if runnable fresh then 1 else 0);
      hist;
      epochs;
      esteps;
      crashes = cfg.crashes + 1;
      hist_a = cfg.hist_a - hist_contrib_a pid old_h + hist_contrib_a pid 0;
      hist_b = cfg.hist_b - hist_contrib_b pid old_h + hist_contrib_b pid 0;
      epoch_a = cfg.epoch_a - epoch_contrib_a pid old_e + epoch_contrib_a pid new_e;
      epoch_b = cfg.epoch_b - epoch_contrib_b pid old_e + epoch_contrib_b pid new_e;
    }

  let run ?(fuel = 1_000_000) ~sched cfg =
    let rec go cfg sched remaining =
      if cfg.running_count = 0 then (cfg, `All_decided)
      else if remaining <= 0 then (cfg, `Out_of_fuel)
      else begin
        match Sched.next sched ~running:(running cfg) ~step:cfg.steps with
        | None -> (cfg, `Sched_stopped)
        | Some (pid, sched') -> go (step cfg pid) sched' (remaining - 1)
      end
    in
    go cfg sched fuel

  let run_solo ?(fuel = 1_000_000) ~pid cfg =
    let cfg', _ = run ~fuel ~sched:(Sched.solo pid) cfg in
    (cfg', decision cfg' pid)

  (* [run] against a crash-aware adversary: the scheduler sees both the
     running and the crashable process sets and may inject crash–recover
     transitions between computation steps.  A crash consumes fuel (it is a
     scheduling decision) so a crash-happy adversary cannot loop forever. *)
  let run_crashy ?(fuel = 1_000_000) ~sched cfg =
    let rec go cfg sched remaining =
      if cfg.running_count = 0 then (cfg, `All_decided)
      else if remaining <= 0 then (cfg, `Out_of_fuel)
      else begin
        match
          Sched.Crashy.next sched ~running:(running cfg) ~crashable:(crashable cfg)
            ~step:cfg.steps
        with
        | None -> (cfg, `Sched_stopped)
        | Some (Sched.Crashy.Run pid, sched') -> go (step cfg pid) sched' (remaining - 1)
        | Some (Sched.Crashy.Crash pid, sched') ->
          go (crash_recover cfg pid) sched' (remaining - 1)
      end
    in
    go cfg sched fuel

  (* The leg table behind the model checker's solo probes.  A leg is one
     process run solo from one memory.  Its result — the memory after it
     and the process's final state — is a function of that memory and of
     the process's state, and the configuration already names both: the
     memory lanes [mem_a]/[mem_b], and the process's result history
     [hist.(pid)] (a process is a deterministic function of the results it
     has seen since its last start).  So [(mem_a, mem_b, pid, hist.(pid))]
     keys a leg exactly as far as the fingerprint keys a configuration,
     modulo hash collisions.  No epoch is needed: a crash restarts the
     process at its root with [hist] reset to 0, the same state as before
     its first step.

     Sibling leaves of the exploration usually differ by one step, often a
     read, so most legs of a probe chain were already run from an equal
     memory by an earlier probe of the same run, and a chain whose legs all
     hit runs no step.  An entry keeps only the lanes after the leg and the
     process's final state, a few words, not the memory after it, a map per
     leg.  So the first leg of a chain that misses lacks its concrete
     memory: the chain re-runs its earlier (hit) legs on the persistent
     memory map, which it shares with the configuration instead of
     copying, then runs the missing leg there and records it. *)
  module Legs = struct
    type key = { ka : int; kb : int; kpid : int; khist : int }

    module Tbl = Hashtbl.Make (struct
      type t = key

      let equal x y = x.ka = y.ka && x.kb = y.kb && x.kpid = y.kpid && x.khist = y.khist

      (* [ka] is a sum of avalanched words; the multiplier spreads the
         processes of one memory over distinct buckets *)
      let hash k = k.ka lxor k.khist lxor (k.kpid * 0x9e3779b9)
    end)

    type 'a leg = { post_a : int; post_b : int; final : 'a proc }
    type 'a t = { legs : 'a leg Tbl.t; mutable steps : int }

    let create () = { legs = Tbl.create 1024; steps = 0 }
    let steps t = t.steps

    (* One probe chain in progress.  [mem]/[ma]/[mb] is the concrete
       memory with its lanes, advanced by every leg run so far; [pending]
       are the pids of the hit legs since then (most recent first), not
       yet run on it; [a]/[b] are the lanes after every leg so far. *)
    type chain = {
      mutable mem : (I.cell * int * int) Imap.t;
      mutable ma : int;
      mutable mb : int;
      mutable a : int;
      mutable b : int;
      mutable pending : int list;
    }

    let start (cfg : _ config) =
      { mem = cfg.mem; ma = cfg.mem_a; mb = cfg.mem_b; a = cfg.mem_a; b = cfg.mem_b;
        pending = [] }

    let absent = (I.init, 0, 0)

    (* One access of a leg on the chain's memory.  A cell that [I.apply]
       returns physically unchanged (a read, a failed compare-and-swap)
       needs neither a hash nor a map update. *)
    let access ch loc op =
      if loc < 0 then invalid_arg "Machine.step: negative location";
      let c, pa, pb =
        match Imap.find_opt loc ch.mem with Some slot -> slot | None -> absent
      in
      let c', r = I.apply op c in
      if c' != c then begin
        let na, nb =
          if I.equal_cell c' I.init then (0, 0)
          else begin
            let hc = I.hash_cell c' in
            (cell_contrib_a loc hc, cell_contrib_b loc hc)
          end
        in
        ch.mem <- Imap.add loc (c', na, nb) ch.mem;
        ch.ma <- ch.ma + na - pa;
        ch.mb <- ch.mb + nb - pb
      end;
      r

    (* Run [p] solo on the chain's memory for at most [fuel] steps and
       return its final state: [run_solo] restricted to memory, with no
       history, trace, counters or process array to maintain. *)
    let run t ch ~fuel p =
      let rec go p remaining =
        match p with
        | Proc.Step ([ (loc, op) ], k) when remaining > 0 ->
          go (k [ access ch loc op ]) (remaining - 1)
        | Proc.Step ((_ :: _ as accesses), k) when remaining > 0 ->
          if not I.multi_assignment then raise Multi_assignment_not_supported;
          let rev = List.fold_left (fun rs (loc, op) -> access ch loc op :: rs) [] accesses in
          go (k (List.rev rev)) (remaining - 1)
        | p ->
          t.steps <- t.steps + (fuel - remaining);
          p
      in
      go p fuel

    (* [q]'s leg from the chain's current lanes: looked up, or run after
       the pending legs and recorded.  Returns [q]'s final state. *)
    let leg t ~fuel cfg ch q =
      let key = { ka = ch.a; kb = ch.b; kpid = q; khist = cfg.hist.(q) } in
      let l =
        match Tbl.find_opt t.legs key with
        | Some l ->
          ch.pending <- q :: ch.pending;
          l
        | None ->
          List.iter (fun pid -> ignore (run t ch ~fuel cfg.procs.(pid))) (List.rev ch.pending);
          ch.pending <- [];
          let final = run t ch ~fuel cfg.procs.(q) in
          let l = { post_a = ch.ma; post_b = ch.mb; final } in
          Tbl.add t.legs key l;
          l
      in
      ch.a <- l.post_a;
      ch.b <- l.post_b;
      l.final

    let solo t ~fuel cfg pid =
      match leg t ~fuel cfg (start cfg) pid with Proc.Done v -> Some v | Proc.Step _ -> None

    (* Every other running process runs solo once, in pid order.  The
       first one still running after its leg is the straggler: the legs
       after it cannot change its state, nor that of a lower pid. *)
    let probe t ~fuel cfg pid =
      let ch = start cfg in
      match leg t ~fuel cfg ch pid with
      | Proc.Step _ -> `Stuck
      | Proc.Done v ->
        let n = Array.length cfg.procs in
        let rec rest q decided =
          if q = n then `Decided (List.rev decided)
          else if q = pid then rest (q + 1) ((q, v) :: decided)
          else begin
            let final =
              match cfg.procs.(q) with
              | Proc.Step (_ :: _, _) -> leg t ~fuel cfg ch q
              | p -> p
            in
            match final with
            | Proc.Done w -> rest (q + 1) ((q, w) :: decided)
            | Proc.Step ([], _) -> rest (q + 1) decided
            | Proc.Step _ -> `Starved q
          end
        in
        rest 0 []
  end

  (* A mutable throwaway copy of a configuration for solo probes: memory in
     an array, processes in one mutated array.  It predates [Legs] as the
     engine's probe executor; it stays as the reference the leg table is
     differentially tested against and as the probe layer the benchmark
     times.  Its [run_solo] agrees with the persistent one on decisions,
     runnability and results observed. *)
  module Scratch = struct
    (* Memory as a dense array indexed by location — protocols use small
       location indices, so a cell read/write is an array access instead of
       a hashtable probe.  Locations past [small_limit] (none of the
       in-tree instruction sets go anywhere near it) spill to a lazily
       created overflow hashtable so a pathological protocol stays correct
       without a pathological allocation. *)
    type 'a t = {
      mutable cells : I.cell array;
      mutable overflow : (int, I.cell) Hashtbl.t option;
      sprocs : 'a proc array;
    }

    let small_limit = 1 lsl 16

    let set t loc c =
      let len = Array.length t.cells in
      if loc < len then t.cells.(loc) <- c
      else if loc < small_limit then begin
        let grown = Array.make (Stdlib.max (2 * len) (loc + 1)) I.init in
        Array.blit t.cells 0 grown 0 len;
        t.cells <- grown;
        grown.(loc) <- c
      end
      else begin
        let h =
          match t.overflow with
          | Some h -> h
          | None ->
            let h = Hashtbl.create 8 in
            t.overflow <- Some h;
            h
        in
        Hashtbl.replace h loc c
      end

    let cell t loc =
      if loc < Array.length t.cells then t.cells.(loc)
      else
        match t.overflow with
        | None -> I.init
        | Some h -> ( match Hashtbl.find_opt h loc with Some c -> c | None -> I.init)

    let of_config cfg =
      let t =
        { cells = Array.make 16 I.init; overflow = None; sprocs = Array.copy cfg.procs }
      in
      Imap.iter (fun loc (c, _, _) -> set t loc c) cfg.mem;
      t

    let apply_one t (loc, op) =
      if loc < 0 then invalid_arg "Machine.step: negative location";
      let c', r = I.apply op (cell t loc) in
      set t loc c';
      r

    let step t pid =
      match t.sprocs.(pid) with
      | Proc.Done _ -> invalid_arg "Machine.step: process has decided"
      | Proc.Step ([], _) -> invalid_arg "Machine.step: blocked process"
      | Proc.Step ([ access ], k) -> t.sprocs.(pid) <- k [ apply_one t access ]
      | Proc.Step (accesses, k) ->
        if not I.multi_assignment then raise Multi_assignment_not_supported;
        let rev = List.fold_left (fun rs a -> apply_one t a :: rs) [] accesses in
        t.sprocs.(pid) <- k (List.rev rev)

    (* Mirrors [run ~sched:(Sched.solo pid)]: step [pid] while it is
       runnable, up to [fuel] steps, and report its decision.  The hot
       single-access case is inlined so each iteration is one match. *)
    let run_solo ?(fuel = 1_000_000) ~pid t =
      let rec go remaining =
        match t.sprocs.(pid) with
        | Proc.Done v -> Some v
        | Proc.Step ([], _) -> None
        | Proc.Step ([ (loc, op) ], k) ->
          if remaining <= 0 then None
          else begin
            if loc < 0 then invalid_arg "Machine.step: negative location";
            let c', r = I.apply op (cell t loc) in
            set t loc c';
            t.sprocs.(pid) <- k [ r ];
            go (remaining - 1)
          end
        | Proc.Step _ ->
          if remaining <= 0 then None
          else begin
            step t pid;
            go (remaining - 1)
          end
      in
      go fuel

    let running t =
      let out = ref [] in
      for pid = Array.length t.sprocs - 1 downto 0 do
        if runnable t.sprocs.(pid) then out := pid :: !out
      done;
      !out

    let decisions t =
      let out = ref [] in
      Array.iteri
        (fun pid p -> match p with Proc.Done v -> out := (pid, v) :: !out | Proc.Step _ -> ())
        t.sprocs;
      List.rev !out
  end
end
