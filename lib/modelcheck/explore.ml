(* The exploration engines of the model checker.

   Three engines share one DFS core:
   - [`Naive] is the original depth-first walk of every schedule.
   - [`Memo] adds a transposition table ([Transposition]) keyed on the
     two-word [Machine.fingerprint_words]: configurations reached by
     permuting independent (commuting) steps coincide and their subtrees
     are explored once.  Entries are claim lists remembering the remaining
     depths (and sleep sets) already explored from that configuration, so a
     revisit is pruned when covered — and only {e partially} re-explored
     when a prior pass covered the depth from an incomparable sleep set.
   - [`Parallel k] grows a sequential BFS prefix until the frontier is wide
     enough to share, then [k] domains drain the frontier from a shared
     work queue in batches, all updating one {e shared, sharded}
     transposition table — work one domain claims is never repeated by
     another, which is what domain-local tables used to do.

   Fingerprints are read off the machine's incrementally maintained
   two-lane digest (O(1) per configuration).

   Solo probes, the bulk of a probing run's work, go through one leg table
   per walk ([Model.Machine.Make.Legs]; one per worker domain under
   [`Parallel]): a probe runs only the solo legs no earlier probe of the
   walk ran from an equal memory, and [stats.probe_steps] counts the steps
   it did run.

   The property checked is a set of observers ([Observer]); no observers
   means [Observer.defaults], obstruction-free consensus.

   Every engine threads the schedule — the list of pids stepped from the
   root, plus the pid of the solo probe that exposed the violation, if any —
   to each configuration it visits.  A violation is therefore reported as a
   structured [witness] rather than a prose string: the witness replays
   deterministically through [Model.Machine] (regenerating the full event
   trace), and is shrunk by greedy segment deletion, keeping a candidate iff
   its replay still raises the same violation kind.

   On top of the engines sits an optional reduction layer ([reduction]):

   - Commutativity (sleep sets).  When two processes are poised at accesses
     that are independent — disjoint locations, or the same location with
     [I.commutes] instructions — stepping them in either order reaches the
     same configuration, so only one interleaving of the pair needs its
     subtree explored.  We use Godefroid-style sleep sets: after exploring
     sibling [p] at a node, [p] is put to sleep in the subtrees of its later
     siblings and stays asleep until a dependent step wakes it.  Sleep sets
     prune redundant {e transitions} but still visit every reachable
     configuration (at the same depth, since commuting schedules have equal
     length), so the per-configuration checks and probes see exactly the
     states they would without reduction.  Combined with the transposition
     table this needs care: a stored exploration only covers a revisit if it
     explored at least as deep {e and} from a sleep set no larger than the
     current one, so table entries store (depth, sleep set) and both are
     compared — with reduction off the sleep sets are always empty and the
     guard degenerates to the old depth-only check.

   - Process symmetry.  For pid-symmetric protocols (the process code
     ignores its pid except through its input), permuting the full states
     of equal-input processes yields an equivalent configuration, so the
     table can key on [Machine.canonical_fingerprint] instead of
     [Machine.fingerprint].  This is opt-in ([symmetric = true]) and
     unsound for pid-dependent protocols — see [Machine.mli].

     Because an over-eager [symmetric = true] silently corrupts the
     exploration (states conflated that the protocol distinguishes), the
     reduction is gated on [Analysis.Symmetry.certify_for_run]: every
     equal-input pid pair is certified pid-oblivious through the requested
     depth by lockstep symbolic unfolding.  An uncertified protocol raises
     [Uncertified_symmetry] instead of exploring unsoundly; [~force:true]
     overrides the gate (for experiments — e.g. measuring what the unsound
     reduction would prune), and [~notify_symmetry] surfaces the verdict to
     the caller either way.  Note the certificate's bounds: solo probes can
     run processes beyond the certified depth, so for probe-heavy runs the
     certificate is strong evidence rather than proof. *)

type engine = [ `Naive | `Memo | `Parallel of int ]
type probe_policy = [ `Leaves | `Everywhere | `Never ]

type reduction = { commute : bool; symmetric : bool }

let no_reduction = { commute = false; symmetric = false }
let full_reduction = { commute = true; symmetric = true }

exception
  Uncertified_symmetry of { protocol : string; verdict : Analysis.Symmetry.verdict }

let () =
  Printexc.register_printer (function
    | Uncertified_symmetry { protocol; verdict } ->
      Some
        (Format.asprintf
           "Uncertified_symmetry: symmetric reduction refused for %s (%a); rerun with \
            ~force:true to override"
           protocol Analysis.Symmetry.pp_verdict verdict)
    | _ -> None)

exception Observer_unsafe_reduction of { observer : string; reduction : string }

let () =
  Printexc.register_printer (function
    | Observer_unsafe_reduction { observer; reduction } ->
      Some
        (Printf.sprintf
           "Observer_unsafe_reduction: observer %s declares the %s reduction unsound for \
            itself; drop the reduction or the observer, or rerun with ~force:true"
           observer reduction)
    | _ -> None)

(* The gate in front of every reduced observer run: an observer that
   declares a requested reduction unsafe ([commute_safe]/[symmetric_safe],
   see [Observer.S]) refuses the combination instead of exploring
   unsoundly.  [~force:true] overrides, mirroring the symmetry gate. *)
let observer_gate ~reduce ~force observers =
  if not force then begin
    match
      Observer.Run.first_unsafe ~commute:reduce.commute ~symmetric:reduce.symmetric
        observers
    with
    | None -> ()
    | Some (observer, reduction) -> raise (Observer_unsafe_reduction { observer; reduction })
  end

(* The gate in front of every [symmetric = true] exploration: certify the
   equal-input pid pairs of this run to (at least) the exploration depth.
   Certification is memoized in [Analysis.Symmetry], so engines, depths and
   repeated runs over the same (protocol, inputs) share the work. *)
let certify_gate ~reduce ~force ~notify (module P : Consensus.Proto.S) ~inputs ~depth =
  if reduce.symmetric then begin
    let depth = max depth Analysis.Symmetry.default_depth in
    let verdict =
      Analysis.Symmetry.certify_for_run (module P : Consensus.Proto.S) ~inputs ~depth
    in
    (match notify with Some f -> f verdict | None -> ());
    if (not (Analysis.Symmetry.certified verdict)) && not force then
      raise (Uncertified_symmetry { protocol = P.name; verdict })
  end

let kind_name (kind : string) = kind

type witness = {
  kind : string;
  message : string;
  schedule : int list;
  probe : int option;
}

(* Crash–recover events ride along in the witness schedule as negative
   entries: [-(pid+1)] means "crash–recover process pid".  Ordinary pids are
   non-negative, so the encoding is unambiguous, survives the campaign
   store's JSON int lists unchanged, and shrinks like any other schedule
   entry (deleting a crash is just another deletion candidate; replay
   validates the remainder). *)
let crash_code pid = -(pid + 1)
let is_crash code = code < 0
let crash_pid code = -code - 1

type stats = {
  configs : int;
  probes : int;
  probe_steps : int;
  truncated : bool;
  dedup_hits : int;
  sleep_pruned : int;
  elapsed : float;
}

type failure = {
  witness : witness;
  original : witness;
  reproduced : bool;
  shrink_attempts : int;
  trace : string option;
  stats : stats;
  diagnosis_elapsed : float;
}

let failure_message f = f.witness.message

let pp_schedule_entry code =
  if is_crash code then "\xe2\x80\xa0p" ^ string_of_int (crash_pid code)
  else "p" ^ string_of_int code

let pp_witness ppf w =
  (* [message] already starts with "<kind>:"; a "†pN" entry is a
     crash–recover of process N *)
  Format.fprintf ppf "@[<v>%s@,schedule (%d steps): [%s]%s@]" w.message
    (List.length w.schedule)
    (String.concat " " (List.map pp_schedule_entry w.schedule))
    (match w.probe with
     | None -> ""
     | Some pid -> Printf.sprintf " then p%d solo" pid)

type timeout = { partial : stats; deadline : float }

type 'a verdict =
  | Completed of 'a
  | Falsified of failure
  | Timed_out of timeout

exception Violation of witness

(* The observer set a run checks: none given means obstruction-free
   consensus. *)
let observers_or_defaults = function [] -> Observer.defaults | set -> set

module Run (P : Consensus.Proto.S) = struct
  module M = Model.Machine.Make (P.I)

  (* Mutable per-walk counters and the walk's leg table, shared by all
     engines (each parallel worker gets its own and they are merged at the
     end).  The table dies with its walk: nothing outlives the run. *)
  type counters = {
    mutable configs : int;
    mutable probes : int;
    mutable probe_steps : int;  (* merged from finished workers' tables *)
    mutable truncated : bool;
    mutable hits : int;
    mutable sleeps : int;
    legs : int M.Legs.t;
  }

  let fresh () =
    { configs = 0; probes = 0; probe_steps = 0; truncated = false; hits = 0; sleeps = 0;
      legs = M.Legs.create () }

  let probe_steps c = c.probe_steps + M.Legs.steps c.legs

  let merge into c =
    into.configs <- into.configs + c.configs;
    into.probes <- into.probes + c.probes;
    into.probe_steps <- into.probe_steps + probe_steps c;
    into.truncated <- into.truncated || c.truncated;
    into.hits <- into.hits + c.hits;
    into.sleeps <- into.sleeps + c.sleeps

  let stats_of c ~elapsed =
    {
      configs = c.configs;
      probes = c.probes;
      probe_steps = probe_steps c;
      truncated = c.truncated;
      dedup_hits = c.hits;
      sleep_pruned = c.sleeps;
      elapsed;
    }

  let root_config ~record_trace ~inputs =
    let n = Array.length inputs in
    M.make ~record_trace ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid))

  (* [path] is the reversed schedule from the root; witnesses store it in
     execution order. *)
  let witness_of ~path ~probe (kind, message) =
    { kind; message; schedule = List.rev path; probe }

  (* ---- observer plumbing ----------------------------------------------

     Every engine threads the run's [Observer.Run.t] through the walk: the
     monitors are advanced over each step and crash, their verdict is
     checked at every visited configuration, and solo probes feed them
     their outcomes.

     Soundness with the transposition table: [key_a]/[key_b] fold the
     observer digest into both fingerprint lanes — a product construction,
     the monitor rides along in the explored state space — so a revisit is
     pruned only when machine fingerprint {e and} observer digest coincide.
     By the [Observer.S.digest] contract (digest and configuration determine
     verdict and future behaviour) the first visit already rendered this
     verdict and the observers behave identically below, so pruning,
     [Partial] revisits and the commute/symmetric reductions (gated per
     observer by [observer_gate]) stay exact. *)

  let feed_accesses o cfg pid =
    match M.poised cfg pid with
    | None | Some [] -> o
    | Some [ (loc, op) ] ->
      let _, r = P.I.apply op (M.cell cfg loc) in
      Observer.Run.access o ~pid ~loc ~value:(P.I.observe_result r)
    | Some accesses ->
      (* multi-assignment: later ops of the step see earlier writes *)
      let overlay = ref [] in
      List.fold_left
        (fun o (loc, op) ->
          let cell =
            match List.assoc_opt loc !overlay with
            | Some c -> c
            | None -> M.cell cfg loc
          in
          let cell', r = P.I.apply op cell in
          overlay := (loc, cell') :: !overlay;
          Observer.Run.access o ~pid ~loc ~value:(P.I.observe_result r))
        o accesses

  (* Advance the monitors over one scheduled step [cfg --pid--> cfg']:
     accesses (when wanted), then the step, then the decision it made, if
     any. *)
  let obs_step o cfg pid cfg' =
    let o = if Observer.Run.wants_accesses o then feed_accesses o cfg pid else o in
    let o = Observer.Run.step o ~pid in
    match M.decision cfg' pid with
    | Some v -> Observer.Run.decide o ~pid ~value:v
    | None -> o

  (* A process built from [Proc.return] is decided in the root configuration,
     before any step exists to observe; feed those decisions at creation so
     the monitors see every decision the configuration holds.  (A crash
     never produces one: only a process that has stepped can crash, so its
     protocol root is not a decision.) *)
  let obs_make set ~inputs root =
    let o = Observer.Run.make set ~n:(Array.length inputs) ~inputs in
    List.fold_left
      (fun o (pid, value) -> Observer.Run.decide o ~pid ~value)
      o (M.decisions root)

  let obs_check ~path ~probe o =
    match Observer.Run.verdict o with
    | None -> ()
    | Some (kind, _liveness, message) ->
      raise (Violation (witness_of ~path ~probe (kind, message)))

  (* The two lanes of the transposition key: each fingerprint lane xor a
     multiple of the observer digest [h] — a bijection of the lane, so a
     constant digest leaves the table's partition exactly as the machine
     fingerprint draws it. *)
  let key_a h a = a lxor (h * 0x100000001B3)
  let key_b h b = b lxor (h * 0x1000193)

  (* One solo probe from [cfg], summarized as an event for the observers:
     run [pid] solo (it must decide — obstruction-freedom), then every other
     running process solo {e once each} — a non-deciding straggler must
     surface as a termination failure, not retry the same pid forever — and
     report the complete decision set.  Probe steps are the model checker's
     hot loop (every leaf probes every running process, and each probe
     chains full solo runs), yet sibling leaves mostly repeat each other's
     solo runs, so the probe goes through the walk's leg table
     ([M.Legs]), which runs only the legs no earlier probe of the walk ran.
     Config-local: the caller checks the post-probe verdict and discards
     the state, so probes never change the exploration. *)
  let probe_outcome ~solo_fuel c cfg pid =
    match M.Legs.probe c.legs ~fuel:solo_fuel cfg pid with
    | `Stuck -> Observer.Probe_stuck { pid; fuel = solo_fuel }
    | `Starved straggler -> Observer.Probe_starved { pid; straggler }
    | `Decided decisions -> Observer.Probe_decided { pid; decisions }

  let obs_probe_one ~solo_fuel ~path c cfg o pid =
    c.probes <- c.probes + 1;
    let o = Observer.Run.probe o (probe_outcome ~solo_fuel c cfg pid) in
    if Option.is_some (Observer.Run.verdict o) then obs_check ~path ~probe:(Some pid) o

  exception Stop

  (* The two-word fingerprint the transposition table keys on: plain, or
     quotiented by process symmetry when the reduction asks for it. *)
  let fingerprint_words_fn ~reduce ~inputs =
    if reduce.symmetric then M.canonical_fingerprint_words ~inputs
    else M.fingerprint_words

  (* Interned-op independence for the sleep-set filter: each domain interns
     the ops it encounters to dense ids ([Model.Intern]) and keeps an
     eagerly filled commutation bit-matrix over the ids, so the repeated
     question "do these two poised accesses commute?" is two array loads
     instead of a structural match per query.  The closure owns its table —
     create one per domain (intern tables are not thread-safe).

     [indep cfg p q]: whether the atomic steps [p] and [q] are poised at
     are independent — every pair of accesses is to distinct locations or
     commutes on the shared one.  Only meaningful when both are poised.
     The matrix fills lazily: an op is interned, and its row and column
     computed, the first time the walk meets it. *)
  let make_independent () =
    let module OI = Model.Intern.Poly (struct
      type t = P.I.op
    end) in
    let ops = OI.create () in
    let cap = ref 0 in
    let mat = ref Bytes.empty in
    let filled = ref 0 in
    let fill upto =
      if upto > !cap then begin
        let ncap = Stdlib.max 16 (Stdlib.max upto (!cap * 2)) in
        let nmat = Bytes.make (ncap * ncap) '\000' in
        for i = 0 to !filled - 1 do
          Bytes.blit !mat (i * !cap) nmat (i * ncap) !filled
        done;
        cap := ncap;
        mat := nmat
      end;
      for i = !filled to upto - 1 do
        let oi = OI.value ops i in
        for j = 0 to upto - 1 do
          let oj = OI.value ops j in
          Bytes.set !mat ((i * !cap) + j) (if P.I.commutes oi oj then '\001' else '\000');
          Bytes.set !mat ((j * !cap) + i) (if P.I.commutes oj oi then '\001' else '\000')
        done
      done;
      filled := upto
    in
    let op_id o =
      let i = OI.id ops o in
      if OI.size ops > !filled then fill (OI.size ops);
      i
    in
    let commutes_id i j = Bytes.get !mat ((i * !cap) + j) = '\001' in
    fun cfg p q ->
      match (M.poised cfg p, M.poised cfg q) with
      | Some ap, Some aq ->
        List.for_all
          (fun (l1, o1) ->
            let i1 = op_id o1 in
            List.for_all (fun (l2, o2) -> l1 <> l2 || commutes_id i1 (op_id o2)) aq)
          ap
      | _ -> false

  (* The sibling loop shared by full visits and partial revisits.  [inter]
     restricts which transitions still need exploring: a pid outside it was
     already explored from this configuration by a prior, at-least-as-deep
     pass (a full visit passes [-1] — everything needs exploring).  Covered
     pids join the sleep set up front: their subtrees are explored
     elsewhere, which is exactly the sleep-set invariant, so later siblings
     may sleep on them like on any explored sibling.

     [asleep] accumulates the inherited sleep set plus the siblings already
     explored at this node; after exploring child [pid], later siblings
     inherit [pid] asleep as long as their step is independent of [pid]'s —
     a dependent step wakes it. *)
  let children ~reduce ~indep ~go c cfg d path sleep obs inter =
    let running = M.running cfg in
    let covered = lnot inter in
    let asleep = ref sleep in
    if covered <> 0 then
      List.iter
        (fun q -> if covered land (1 lsl q) <> 0 then asleep := !asleep lor (1 lsl q))
        running;
    List.iter
      (fun pid ->
        let bit = 1 lsl pid in
        if !asleep land bit <> 0 then begin
          if covered land bit = 0 then c.sleeps <- c.sleeps + 1
        end
        else begin
          let succ_sleep =
            if not reduce.commute then 0
            else
              List.fold_left
                (fun m q ->
                  if !asleep land (1 lsl q) <> 0 && indep cfg q pid then m lor (1 lsl q)
                  else m)
                0 running
          in
          let cfg' = M.step cfg pid in
          go cfg' (d - 1) (pid :: path) succ_sleep (obs_step obs cfg pid cfg');
          asleep := !asleep lor bit
        end)
      running

  (* Crash–recover branches: one child per crashable process while the run's
     crash budget allows.  Crashes are kept out of the sleep-set machinery —
     a crash never sleeps (it does not commute with anything the victim
     does) and its subtree starts with an empty sleep set.  Unlike steps,
     crashes also branch from fully-decided configurations: a decided
     process that crashes loses its decision and re-executes the protocol,
     which is exactly the re-decision scenario recoverable consensus must
     survive.  Sound under the transposition table because recovery epochs
     are folded into the fingerprint: equal keys imply equal epoch vectors,
     hence equal crash counts and equal remaining budget.  The monitors see
     the crash as a [crash] event, and the recovered process's later
     decisions reach them as ordinary [decide]s.  With a zero budget all of
     this is dead code: no [M.crashable] call, no branch, bit-identical
     exploration. *)
  let crash_children ~crash_budget ~go cfg d path obs =
    if crash_budget > 0 && M.crashes cfg < crash_budget then
      List.iter
        (fun pid ->
          let cfg' = M.crash_recover cfg pid in
          go cfg' (d - 1) (crash_code pid :: path) 0 (Observer.Run.crash obs ~pid))
        (M.crashable cfg)

  (* Whether [cfg] still has crash branches the depth bound cut off. *)
  let crash_truncated ~crash_budget cfg =
    crash_budget > 0 && M.crashes cfg < crash_budget && M.crashable cfg <> []

  (* A memoized walk's step into [cfg]: key it (machine fingerprint and
     observer digest) into [table], then visit it in full, count a covered
     revisit, or — on a [Partial] revisit — explore only the transitions no
     adequate prior pass stepped.  Crash branches are never slept, so the
     prior pass that covers this depth already explored all of them. *)
  let memo ~table ~fpw ~stop ~reduce ~indep ~go ~visit c cfg d path sleep obs =
    let a, b = fpw cfg and h = Observer.Run.digest obs in
    match Transposition.plan table (key_a h a) (key_b h b) ~depth:d ~sleep with
    | Transposition.Hit -> c.hits <- c.hits + 1
    | Transposition.Visit -> visit cfg d path sleep obs
    | Transposition.Partial inter ->
      c.hits <- c.hits + 1;
      if stop () then raise Stop;
      if d > 0 && M.running_count cfg > 0 then
        children ~reduce ~indep ~go c cfg d path sleep obs inter

  (* The DFS core all engines share.  [stop] aborts cooperatively (parallel
     mode); [path] seeds the schedule of every witness found below [cfg].

     [sleep] is the sleep set: pids whose subtrees here are already covered
     by an equivalent interleaving explored at a sibling.  Sleeping pids are
     not stepped, but they still count as running for checks and probes —
     sleep sets preserve the set of visited configurations, only pruning
     redundant transitions into them.

     On a [Partial] revisit — the configuration's depth is covered by prior
     passes, but some transitions were asleep in all of them — only those
     transitions are explored, and the per-configuration work (counting,
     checking, probing) is skipped: it ran when the configuration was first
     visited, and depends only on the configuration. *)
  let dfs ~reduce ~crash_budget ~probe ~solo_fuel ~table ~fpw ~indep ~stop ~obs c cfg
      depth path =
    let rec go cfg d path sleep obs =
      match table with
      | None -> visit cfg d path sleep obs
      | Some table ->
        memo ~table ~fpw ~stop ~reduce ~indep ~go ~visit c cfg d path sleep obs
    and visit cfg d path sleep obs =
      if stop () then raise Stop;
      c.configs <- c.configs + 1;
      obs_check ~path ~probe:None obs;
      let at_bound = d <= 0 in
      if M.running_count cfg > 0 then begin
        if at_bound then c.truncated <- true;
        if
          (match probe with `Never -> false | `Leaves -> at_bound | `Everywhere -> true)
          && Observer.Run.wants_probes obs
        then List.iter (obs_probe_one ~solo_fuel ~path c cfg obs) (M.running cfg);
        if not at_bound then children ~reduce ~indep ~go c cfg d path sleep obs (-1)
      end;
      if at_bound then begin
        if crash_truncated ~crash_budget cfg then c.truncated <- true
      end
      else crash_children ~crash_budget ~go cfg d path obs
    in
    go cfg depth path 0 obs

  (* Parallel frontier: a sequential BFS prefix visits the shallow
     configurations (so their checks and `Everywhere probes still run
     exactly once), then the unvisited frontier is deduped by fingerprint
     and drained by [domains] workers from a shared queue in batches.  Each
     frontier item carries its schedule prefix so workers report full
     witnesses.

     All workers share one sharded transposition table: a subtree one
     domain claims is never re-explored by another (domain-local tables
     used to repeat that work), and the shard locks — selected by the
     fingerprint's low bits — almost never contend.  Claims are optimistic
     (inserted before the subtree is walked); that is sound here because
     every worker joins before a verdict is produced, so a claim whose
     exploration was cut short can only coexist with a [Falsified] or
     [Timed_out] verdict, never launder an incomplete [Completed]. *)
  let parallel ~reduce ~crash_budget ~domains ~probe ~solo_fuel ~inputs ~past ~obs c root
      depth =
    let fpw = fingerprint_words_fn ~reduce ~inputs in
    let domains = max 1 domains in
    let target = max 16 (4 * domains) in
    let rec prefix level d =
      if d <= 0 || List.length level >= target then (level, d)
      else begin
        let next =
          List.concat_map
            (fun (path, cfg, obs) ->
              if past () then raise Stop;
              c.configs <- c.configs + 1;
              obs_check ~path ~probe:None obs;
              let stepped =
                if M.running_count cfg = 0 then []
                else begin
                  let running = M.running cfg in
                  if probe = `Everywhere && Observer.Run.wants_probes obs then
                    List.iter (obs_probe_one ~solo_fuel ~path c cfg obs) running;
                  List.map
                    (fun pid ->
                      let cfg' = M.step cfg pid in
                      (pid :: path, cfg', obs_step obs cfg pid cfg'))
                    running
                end
              in
              let crashed =
                if crash_budget > 0 && M.crashes cfg < crash_budget then
                  List.map
                    (fun pid ->
                      ( crash_code pid :: path,
                        M.crash_recover cfg pid,
                        Observer.Run.crash obs ~pid ))
                    (M.crashable cfg)
                else []
              in
              stepped @ crashed)
            level
        in
        if next = [] then ([], d - 1) else prefix next (d - 1)
      end
    in
    let frontier, d = prefix [ ([], root, obs) ] depth in
    let seen = Hashtbl.create 64 in
    let frontier =
      List.filter
        (fun (_, cfg, obs) ->
          let h =
            let a, b = fpw cfg and h = Observer.Run.digest obs in
            (key_a h a, key_b h b)
          in
          if Hashtbl.mem seen h then begin
            c.hits <- c.hits + 1;
            false
          end
          else begin
            Hashtbl.add seen h ();
            true
          end)
        frontier
    in
    let items = Array.of_list frontier in
    let len = Array.length items in
    (* Batching the work queue: a worker claims a run of consecutive items
       per fetch-and-add, so domains stop hitting the shared counter on
       every item.  Small frontiers degenerate to batch 1 (maximal load
       balance); the cap keeps one slow batch from starving the rest. *)
    let batch = Stdlib.max 1 (Stdlib.min 16 (len / (domains * 8))) in
    let table = Some (Transposition.create ~concurrent:true ()) in
    let next_item = Atomic.make 0 in
    let stopped = Atomic.make false in
    let timed = Atomic.make false in
    let mu = Mutex.create () in
    let errors = ref [] in
    let worker_counters = ref [] in
    let worker () =
      (* Enlarge this domain's minor heap (4M words): every minor
         collection in OCaml 5 is a stop-the-world handshake across all
         domains, and on an oversubscribed host each handshake can cost a
         scheduling quantum — fewer, larger collections roughly halve the
         engine's wall clock when domains exceed cores. *)
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22 };
      let wc = fresh () in
      let indep = make_independent () in
      (* the deadline stops a worker exactly like a sibling's violation does;
         [timed] remembers which of the two it was *)
      let stop () =
        Atomic.get stopped
        ||
        if past () then begin
          Atomic.set timed true;
          true
        end
        else Atomic.get timed
      in
      let item i =
        let path, cfg, obs = items.(i) in
        match
          dfs ~reduce ~crash_budget ~probe ~solo_fuel ~table ~fpw ~indep ~stop ~obs wc
            cfg d path
        with
        | () -> ()
        | exception Violation w ->
          Mutex.lock mu;
          errors := (i, w) :: !errors;
          Mutex.unlock mu;
          Atomic.set stopped true
        | exception Stop -> ()
      in
      let rec loop () =
        if not (Atomic.get stopped || Atomic.get timed) then begin
          let i0 = Atomic.fetch_and_add next_item batch in
          if i0 < len then begin
            let hi = Stdlib.min len (i0 + batch) in
            let rec batch_loop i =
              if i < hi && not (Atomic.get stopped || Atomic.get timed) then begin
                item i;
                batch_loop (i + 1)
              end
            in
            batch_loop i0;
            loop ()
          end
        end
      in
      loop ();
      Mutex.lock mu;
      worker_counters := wc :: !worker_counters;
      Mutex.unlock mu
    in
    let doms = List.init domains (fun _ -> Domain.spawn worker) in
    List.iter Domain.join doms;
    List.iter (merge c) !worker_counters;
    (* Report the violation of the earliest frontier item that found one,
       so the witness is as deterministic as the work split allows.  A
       violation outranks the deadline: it is real partial evidence. *)
    match List.sort compare !errors with
    | (_, w) :: _ -> raise (Violation w)
    | [] -> if Atomic.get timed then raise Stop

  exception Invalid_schedule

  (* [probe_outcome]'s probe chain on the persistent machine, for
     [replay]: a witness replay wants the event trace, which only the
     persistent machine records. *)
  let probe_outcome_steps ~solo_fuel cfg pid =
    let cfg, dec = M.run_solo ~fuel:solo_fuel ~pid cfg in
    match dec with
    | None -> (cfg, Observer.Probe_stuck { pid; fuel = solo_fuel })
    | Some _ ->
      let cfg =
        List.fold_left
          (fun cfg q -> fst (M.run_solo ~fuel:solo_fuel ~pid:q cfg))
          cfg (M.running cfg)
      in
      (match M.running cfg with
       | q :: _ -> (cfg, Observer.Probe_starved { pid; straggler = q })
       | [] -> (cfg, Observer.Probe_decided { pid; decisions = M.decisions cfg }))

  (* Deterministically re-execute a witness from the root: step its schedule
     pid by pid, then re-run the solo probe if it has one.  Returns the
     final configuration and the violation the execution ran into, if any.
     Raises [Invalid_schedule] when the schedule names a pid that cannot
     step, or when [probe] names a pid that is not running at the end of the
     schedule (a decided or finished process cannot be probed) — possible
     only for shrink candidates and hand-edited witnesses, never for a
     witness an engine just reported.

     The observers are driven exactly as in the engines: advanced over every
     step and crash, with their verdict checked after each one (the engines
     check at every visited configuration, so a non-latching observer — e.g.
     [Observer.lockout] — must be re-checked per step here too); the replay
     stops at the first violation. *)
  let replay ~observers ~record_trace ~solo_fuel ~inputs (w : witness) =
    let n = Array.length inputs in
    (* negative schedule entries are crash–recover events ([crash_code]);
       a crash of a non-crashable process is as invalid as a step of a
       non-running one — shrink candidates that delete the victim's steps
       get rejected here instead of replaying a no-op crash *)
    let step cfg code =
      if is_crash code then begin
        let pid = crash_pid code in
        if pid >= n then raise Invalid_schedule;
        if List.mem pid (M.crashable cfg) then M.crash_recover cfg pid
        else raise Invalid_schedule
      end
      else begin
        if code >= n then raise Invalid_schedule;
        match M.poised cfg code with
        | Some (_ :: _) -> M.step cfg code
        | Some [] | None -> raise Invalid_schedule
      end
    in
    let probeable cfg pid = pid >= 0 && pid < n && List.mem pid (M.running cfg) in
    let root = root_config ~record_trace ~inputs in
    let violation o =
      match Observer.Run.verdict o with
      | None -> None
      | Some (kind, _liveness, m) -> Some (kind, m)
    in
    let rec steps cfg o = function
      | [] ->
        (match w.probe with
         | None -> (cfg, None)
         | Some pid when probeable cfg pid ->
           let cfg, outcome = probe_outcome_steps ~solo_fuel cfg pid in
           (cfg, violation (Observer.Run.probe o outcome))
         | Some _ -> raise Invalid_schedule)
      | code :: rest ->
        let cfg' = step cfg code in
        let o =
          if is_crash code then Observer.Run.crash o ~pid:(crash_pid code)
          else obs_step o cfg code cfg'
        in
        (match violation o with Some v -> (cfg', Some v) | None -> steps cfg' o rest)
    in
    let o = obs_make observers ~inputs root in
    match violation o with Some v -> (root, Some v) | None -> steps root o w.schedule

  (* Greedy delta debugging on the schedule: repeatedly delete segments,
     halving the segment size from len/2 down to single steps; a deletion is
     kept iff the shortened witness still replays to the same violation
     kind.  Returns the shrunk witness and the number of candidate replays
     attempted. *)
  let shrink ~observers ~solo_fuel ~inputs (w : witness) =
    let attempts = ref 0 in
    let reproduces sched =
      incr attempts;
      let cand = { w with schedule = sched } in
      match replay ~observers ~record_trace:false ~solo_fuel ~inputs cand with
      | _, Some (k, m) when k = w.kind -> Some { cand with message = m }
      | _, _ -> None
      | exception Invalid_schedule -> None
    in
    (* [len] is [List.length w.schedule], maintained across deletions rather
       than recomputed at every index (which made one sweep quadratic). *)
    let rec sweep w len chunk i =
      if i >= len then (w, len)
      else begin
        let cand = List.filteri (fun j _ -> j < i || j >= i + chunk) w.schedule in
        match reproduces cand with
        | Some w' -> sweep w' (len - min chunk (len - i)) chunk i
        | None -> sweep w len chunk (i + chunk)
      end
    in
    let rec halve w len chunk =
      if chunk < 1 then w
      else begin
        let w, len = sweep w len chunk 0 in
        halve w len (chunk / 2)
      end
    in
    let len = List.length w.schedule in
    let w = if len = 0 then w else halve w len (max 1 (len / 2)) in
    (w, !attempts)

  let trace_of cfg = Format.asprintf "%a" M.pp_trace cfg

  (* Package a caught violation: verify the witness replays to the same
     kind, shrink it if asked, and regenerate the full event trace of the
     (shrunk) replay with trace recording on.  [stats] are the engine's
     counters up to the violation; the replay/shrink work done here is timed
     separately as [diagnosis_elapsed] so engine comparisons are not skewed
     by diagnosis cost. *)
  let failure ~shrink:do_shrink ~observers ~solo_fuel ~inputs ~stats (w : witness) =
    let t0 = Unix.gettimeofday () in
    let reproduced =
      match replay ~observers ~record_trace:false ~solo_fuel ~inputs w with
      | _, Some (k, _) -> k = w.kind
      | _, None -> false
      | exception Invalid_schedule -> false
    in
    let witness, shrink_attempts =
      if do_shrink && reproduced then shrink ~observers ~solo_fuel ~inputs w else (w, 0)
    in
    let trace =
      if not reproduced then None
      else begin
        match replay ~observers ~record_trace:true ~solo_fuel ~inputs witness with
        | cfg, _ -> Some (trace_of cfg)
        | exception Invalid_schedule -> None
      end
    in
    {
      witness;
      original = w;
      reproduced;
      shrink_attempts;
      trace;
      stats;
      diagnosis_elapsed = Unix.gettimeofday () -. t0;
    }

  (* The bivalence walk of [decidable_values], on the shared memoized core:
     collect every value decided in some reachable configuration or
     decidable by a solo continuation from one.  Sound to prune on the
     fingerprint table because equal fingerprints imply equal future
     behaviour, hence equal decidable-value contributions. *)
  let decidable ~reduce ~crash_budget ~solo_fuel ~inputs ~stop ~obs c cfg depth =
    let fpw = fingerprint_words_fn ~reduce ~inputs in
    let indep = make_independent () in
    let table = Transposition.create ~concurrent:false () in
    let seen = Hashtbl.create 7 in
    let rec go cfg d path sleep obs =
      memo ~table ~fpw ~stop ~reduce ~indep ~go ~visit c cfg d path sleep obs
    and visit cfg d path sleep obs =
      if stop () then raise Stop;
      c.configs <- c.configs + 1;
      obs_check ~path ~probe:None obs;
      List.iter (fun (_, v) -> Hashtbl.replace seen v ()) (M.decisions cfg);
      if d > 0 then crash_children ~crash_budget ~go cfg d path obs;
      match M.running cfg with
      | [] -> ()
      | running ->
        (* solo probes run from every visited configuration for {e all}
           running processes, sleeping or not — reduction prunes redundant
           transitions, never the per-configuration probing.  The bivalence
           walk keeps its native obstruction-freedom raise (it needs the
           decided values regardless of the observer set); observers that
           want probes are fed the full probe chain on top. *)
        List.iter
          (fun pid ->
            c.probes <- c.probes + 1;
            match M.Legs.solo c.legs ~fuel:solo_fuel cfg pid with
            | Some v -> Hashtbl.replace seen v ()
            | None ->
              raise
                (Violation
                   (witness_of ~path ~probe:(Some pid)
                      ( "obstruction-freedom",
                        Printf.sprintf
                          "obstruction-freedom: process %d did not decide solo within %d \
                           steps"
                          pid solo_fuel ))))
          running;
        if Observer.Run.wants_probes obs then
          List.iter (obs_probe_one ~solo_fuel ~path c cfg obs) running;
        if d > 0 then children ~reduce ~indep ~go c cfg d path sleep obs (-1)
    in
    go cfg depth [] 0 obs;
    List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) seen [])
end

(* The deadline clock starts after the symmetry gate: certification cost is
   bounded and cached, and billing it to the engine would make the same task
   time out on a cold cache but complete on a warm one. *)
let past_of ~t0 = function
  | None -> fun () -> false
  | Some d ->
    let at = t0 +. d in
    fun () -> Unix.gettimeofday () > at

let run ?(probe = `Leaves) ?(solo_fuel = 100_000) ?(engine = `Naive) ?(shrink = true)
    ?(reduce = no_reduction) ?(crashes = 0) ?(force = false) ?notify_symmetry ?deadline
    ?(observers = []) (module P : Consensus.Proto.S) ~inputs ~depth =
  if crashes < 0 then invalid_arg "Explore.run: negative crash budget";
  if solo_fuel < 1 then invalid_arg "Explore.run: solo_fuel < 1";
  let observers = observers_or_defaults observers in
  observer_gate ~reduce ~force observers;
  certify_gate ~reduce ~force ~notify:notify_symmetry (module P) ~inputs ~depth;
  let module R = Run (P) in
  let t0 = Unix.gettimeofday () in
  let past = past_of ~t0 deadline in
  let c = R.fresh () in
  let root = R.root_config ~record_trace:false ~inputs in
  let obs = R.obs_make observers ~inputs root in
  let fpw = R.fingerprint_words_fn ~reduce ~inputs in
  let result =
    try
      (match engine with
       | `Naive ->
         R.dfs ~reduce ~crash_budget:crashes ~probe ~solo_fuel ~table:None ~fpw
           ~indep:(R.make_independent ()) ~stop:past ~obs c root depth []
       | `Memo ->
         R.dfs ~reduce ~crash_budget:crashes ~probe ~solo_fuel
           ~table:(Some (Transposition.create ~concurrent:false ())) ~fpw
           ~indep:(R.make_independent ()) ~stop:past ~obs c root depth []
       | `Parallel k ->
         R.parallel ~reduce ~crash_budget:crashes ~domains:k ~probe ~solo_fuel ~inputs
           ~past ~obs c root depth);
      `Done
    with
    | Violation w -> `Violation w
    | R.Stop -> `Timeout
  in
  (* engine time only — witness replay/shrink below is timed separately *)
  let stats = R.stats_of c ~elapsed:(Unix.gettimeofday () -. t0) in
  match result with
  | `Done -> Completed stats
  | `Violation w -> Falsified (R.failure ~shrink ~observers ~solo_fuel ~inputs ~stats w)
  | `Timeout ->
    Timed_out { partial = stats; deadline = Option.value deadline ~default:0. }

type replay_report = {
  violation : (string * string) option;
  events : string;
}

let replay ?(solo_fuel = 100_000) ?(observers = []) (module P : Consensus.Proto.S)
    ~inputs w =
  let module R = Run (P) in
  let observers = observers_or_defaults observers in
  match R.replay ~observers ~record_trace:true ~solo_fuel ~inputs w with
  | cfg, violation -> Ok { violation; events = R.trace_of cfg }
  | exception R.Invalid_schedule ->
    Error
      "invalid witness: the schedule names a process that cannot step, or the probe \
       names a process that is not running"

let decidable_values ?(solo_fuel = 100_000) ?(shrink = true) ?(reduce = no_reduction)
    ?(crashes = 0) ?(force = false) ?notify_symmetry ?deadline ?(observers = [])
    (module P : Consensus.Proto.S) ~inputs ~depth =
  if crashes < 0 then invalid_arg "Explore.decidable_values: negative crash budget";
  if solo_fuel < 1 then invalid_arg "Explore.decidable_values: solo_fuel < 1";
  observer_gate ~reduce ~force observers;
  certify_gate ~reduce ~force ~notify:notify_symmetry (module P) ~inputs ~depth;
  let module R = Run (P) in
  let t0 = Unix.gettimeofday () in
  let past = past_of ~t0 deadline in
  let c = R.fresh () in
  let root = R.root_config ~record_trace:false ~inputs in
  (* no observers: no property beyond the walk's own solo probes *)
  let obs = R.obs_make observers ~inputs root in
  match
    R.decidable ~reduce ~crash_budget:crashes ~solo_fuel ~inputs ~stop:past ~obs c root
      depth
  with
  | values -> Completed values
  | exception Violation w ->
    let stats = R.stats_of c ~elapsed:(Unix.gettimeofday () -. t0) in
    Falsified
      (R.failure ~shrink ~observers:(observers_or_defaults observers) ~solo_fuel ~inputs
         ~stats w)
  | exception R.Stop ->
    let stats = R.stats_of c ~elapsed:(Unix.gettimeofday () -. t0) in
    Timed_out { partial = stats; deadline = Option.value deadline ~default:0. }

type deepen_report = {
  depth_reached : int;
  complete : bool;
  last : stats;
  total_configs : int;
  total_elapsed : float;
}

let deepen ?(probe = `Leaves) ?(solo_fuel = 100_000) ?(engine = `Memo) ?(budget = 1.0)
    ?shrink ?(reduce = no_reduction) ?(crashes = 0) ?(force = false) ?notify_symmetry
    ?(observers = []) proto ~inputs ~max_depth =
  if max_depth < 1 then invalid_arg "Explore.deepen: max_depth < 1";
  if solo_fuel < 1 then invalid_arg "Explore.deepen: solo_fuel < 1";
  (* gate (and notify) once at the deepest depth the iteration can reach,
     then let the per-depth runs through — their certificates are implied
     (the per-depth [run]s pass [~force:true], which skips both gates) *)
  observer_gate ~reduce ~force observers;
  certify_gate ~reduce ~force ~notify:notify_symmetry proto ~inputs ~depth:max_depth;
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let rec go d best =
    let out_of_budget = match best with Some _ -> elapsed () >= budget | None -> false in
    if d > max_depth || out_of_budget then Completed (Option.get best)
    else begin
      (* the remaining budget bounds each iteration, so one oversized
         iteration can no longer blow past the budget *)
      match
        run ~probe ~solo_fuel ~engine ?shrink ~reduce ~crashes ~force:true ~observers
          ~deadline:(budget -. elapsed ()) proto ~inputs ~depth:d
      with
      | Falsified f -> Falsified f
      | Timed_out t ->
        (match best with
         | Some b ->
           Completed
             {
               b with
               total_configs = b.total_configs + t.partial.configs;
               total_elapsed = elapsed ();
             }
         | None -> Timed_out { t with deadline = budget })
      | Completed s ->
        let total_configs =
          (match best with Some b -> b.total_configs | None -> 0) + s.configs
        in
        let b =
          {
            depth_reached = d;
            complete = not s.truncated;
            last = s;
            total_configs;
            total_elapsed = elapsed ();
          }
        in
        if not s.truncated then Completed b else go (d + 1) (Some b)
    end
  in
  go 1 None
