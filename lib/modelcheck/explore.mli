(** Bounded exhaustive verification of consensus protocols.

    Explores {e every} schedule of a protocol up to a step bound — possible
    because processes are pure step machines, so a configuration can be
    stepped along all branches.  This is the executable counterpart of the
    paper's proof obligations: agreement and validity in all executions,
    solo termination from every reachable configuration.

    All engines decide the same property — the {!Observer} set of the run,
    by default {!Observer.defaults}: agreement/validity at every visited
    configuration, and obstruction-freedom by solo probes — but differ in
    how much of the tree they actually touch:

    - [`Naive] walks every schedule (the original engine).
    - [`Memo] keeps a transposition table ({!Transposition}) keyed on the
      two-word {!Model.Machine.Make.fingerprint_words}: schedules that
      permute independent (commuting) steps converge to the same
      configuration, whose subtree is then explored once.  Entries are
      claim lists remembering the remaining depths (and sleep sets)
      already covered, so pruning never loses reachable configurations —
      and a revisit whose depth is covered from an incomparable sleep set
      re-explores only the transitions no prior pass stepped.
    - [`Parallel k] expands a sequential BFS prefix on the calling domain
      and hands the frontier to [k] workers, the calling domain and k − 1
      spawned ones ({!Pool.run}), that drain a shared work queue in
      batches, all updating one shared sharded transposition table — work
      one domain claims is never repeated by another.  [`Parallel 1]
      spawns no domain.

    Engines agree on the verdict: [Completed] vs [Falsified], and the
    violation kind, match across engines on the same protocol/depth (the
    exact counter-example may differ for [`Parallel]).  Stats differ by
    design — [`Memo] visits fewer configurations.

    Every engine additionally threads the schedule leading to each
    configuration, so a violation is reported as a structured {!witness}:
    the adversarial interleaving as data, in the spirit of the paper's
    lower-bound proofs ("here is the execution that breaks you").  Witnesses
    replay deterministically ({!replay}) and are shrunk to a minimal
    interleaving by delta debugging before being reported. *)

type engine = [ `Naive | `Memo | `Parallel of int ]
type probe_policy = [ `Leaves | `Everywhere | `Never ]

type reduction = {
  commute : bool;
      (** Commutativity reduction via sleep sets: when two enabled processes
          are poised at independent accesses — disjoint locations, or the
          same location with instructions declared independent by
          [I.commutes] — only one order of the pair is explored.  Sleep sets
          prune redundant transitions but still visit every reachable
          configuration at its shallowest depth, so verdicts, probes and
          decidable-value sets are preserved for {e every} protocol.
          Composes with any engine; under [`Memo]/[`Parallel] the
          transposition-table entries carry the sleep set they were explored
          from and a revisit is only pruned when covered.  Under
          [`Parallel] it can currently leave reachable configurations
          unvisited and still report [Completed]: a [Partial] revisit may
          put to sleep a pid whose subtree another worker's unfinished pass
          left for it, so parallel commute counts vary between runs and
          fall below [`Memo]'s. *)
  symmetric : bool;
      (** Process-symmetry reduction: key the transposition table on
          {!Model.Machine.Make.canonical_fingerprint}, conflating
          configurations that differ only by permuting the full states of
          equal-input processes.  {b Only sound for pid-symmetric protocols}
          — those whose code ignores the process id except through its input
          ([proc ~n ~pid ~input] must not read [pid] other than to thread it
          to accesses' bookkeeping).  For pid-dependent protocols this can
          conflate genuinely different configurations and miss violations;
          it is therefore opt-in and has no effect on [`Naive] (which keeps
          no table).

          Soundness is {e enforced}: every [symmetric = true] entry point
          first certifies the protocol pid-oblivious for this run's
          equal-input pid pairs, to the exploration depth: by lockstep
          symbolic unfolding under a small budget, on the protocol's CFG
          when that cannot conclude, and by lockstep under the full budget
          when the CFG cannot either ({!Analysis.Symmetry.certify_for_run}).
          An uncertified protocol raises {!Uncertified_symmetry}; pass
          [~force:true] to run the reduction anyway (unsound — for
          experiments only). *)
}
(** Which state-space reductions to layer over an engine.  Both default to
    off ({!no_reduction}), preserving historical behaviour exactly. *)

val no_reduction : reduction
val full_reduction : reduction
(** [full_reduction] enables both; only use it on pid-symmetric protocols. *)

exception
  Uncertified_symmetry of { protocol : string; verdict : Analysis.Symmetry.verdict }
(** Raised (before any exploration) by {!run}, {!decidable_values} and
    {!deepen} when [reduce.symmetric = true] but
    {!Analysis.Symmetry.certify_for_run} could not certify the protocol
    pid-symmetric for the run's inputs — the [verdict] carries the
    divergence witness ([Asymmetric]) or the budget failure ([Unknown]).
    Suppressed by [~force:true]. *)

exception Observer_unsafe_reduction of { observer : string; reduction : string }
(** Raised (before any exploration) by {!run}, {!decidable_values} and
    {!deepen} when the requested [reduce] enables a reduction some supplied
    observer declares unsound for itself ({!Observer.S.commute_safe},
    {!Observer.S.symmetric_safe}) — e.g. {!Observer.lockout} under either
    reduction.  Suppressed by [~force:true] (unsound — for experiments). *)

val max_processes : int
(** [Sys.int_size] (63 on 64-bit hosts): the most processes {!run},
    {!decidable_values}, {!deepen} and {!replay} accept.  The sibling loop
    and {!Observer.agreement}'s decision holders keep pid sets as int
    bitmasks, one bit per pid. *)

val kind_name : string -> string
(** The identity: a witness kind is already its name. *)

type witness = {
  kind : string;
      (** the violating observer's verdict kind — ["agreement"],
          ["validity"], ["obstruction-freedom"], ["termination"], or a
          custom observer's — also the prefix of [message] *)
  message : string;    (** human-readable description of the violation *)
  schedule : int list;
      (** pids stepped from the root, in execution order; a negative entry
          [{!crash_code} pid] is a crash–recover of [pid] (only present in
          runs with a nonzero crash budget) *)
  probe : int option;
      (** the pid whose solo probe (followed by one bounded solo run of each
          remaining process) exposed the violation, if it was found by a
          probe rather than at the scheduled configuration itself *)
}
(** A counterexample: replaying [schedule] from the initial configuration —
    then the solo probe of [probe], if any — reproduces the violation. *)

val crash_code : int -> int
(** [crash_code pid = -(pid + 1)]: the schedule encoding of a crash–recover
    of [pid].  Ordinary pids are non-negative, so the encoding is
    unambiguous and survives JSON round-trips as a plain int. *)

val is_crash : int -> bool
(** Whether a schedule entry encodes a crash–recover event. *)

val crash_pid : int -> int
(** The victim of a crash entry: [crash_pid (crash_code pid) = pid]. *)

val pp_schedule_entry : int -> string
(** ["p3"] for an ordinary step of pid 3, ["†p3"] for its crash–recover. *)

val pp_witness : Format.formatter -> witness -> unit

type stats = {
  configs : int;      (** configurations visited (dedup'd ones not counted) *)
  probes : int;       (** solo/termination probes run *)
  probe_steps : int;
      (** solo steps the probes executed: the legs no earlier probe of the
          walk had run ({!Model.Machine.Make.Legs}), plus the earlier legs
          of a probe re-run to reach one; summed over parallel workers *)
  truncated : bool;   (** some branch hit the depth bound *)
  dedup_hits : int;   (** revisits pruned by the transposition table *)
  sleep_pruned : int; (** transitions pruned by the commutativity reduction *)
  elapsed : float;    (** wall-clock seconds of the engine proper (excludes
                          witness replay/shrink on the failure path) *)
}

type failure = {
  witness : witness;       (** the shrunk witness (equal to [original] when
                               shrinking is disabled or replay failed) *)
  original : witness;      (** the witness exactly as the engine found it *)
  reproduced : bool;       (** replaying [original] raised the same kind *)
  shrink_attempts : int;   (** candidate replays tried while shrinking *)
  trace : string option;   (** pretty-printed event trace of the shrunk
                               witness's replay ({!Model.Machine.Make.pp_trace}) *)
  stats : stats;           (** the engine's counters up to the violation —
                               failing runs report their exploration effort
                               too, not just successful ones *)
  diagnosis_elapsed : float;
      (** wall-clock seconds spent replaying, shrinking and re-tracing the
          witness, kept separate from [stats.elapsed] so engine timings
          compare like with like *)
}
(** Everything known about one violation.  [witness.message] is the
    string earlier releases reported; {!failure_message} recovers it. *)

val failure_message : failure -> string
(** The violation message of the (shrunk) witness — string-compatible with
    the pre-witness API. *)

type timeout = {
  partial : stats;  (** the engine's counters up to the moment it stopped *)
  deadline : float; (** the wall-clock budget (seconds) that expired *)
}

type 'a verdict =
  | Completed of 'a       (** exploration ran to its depth bound *)
  | Falsified of failure  (** a violation was found, with its witness *)
  | Timed_out of timeout  (** the wall-clock deadline expired first *)
(** The three-way outcome of a deadline-aware exploration.  [Completed]
    carries the engine stats ({!run}) or the decidable-value set
    ({!decidable_values}); [Timed_out] is a structured partial result, not
    an error — the campaign executor records it per task and moves on. *)

val run :
  ?probe:probe_policy ->
  ?solo_fuel:int ->
  ?engine:engine ->
  ?shrink:bool ->
  ?reduce:reduction ->
  ?crashes:int ->
  ?force:bool ->
  ?notify_symmetry:(Analysis.Symmetry.verdict -> unit) ->
  ?deadline:float ->
  ?observers:Observer.t list ->
  Consensus.Proto.t ->
  inputs:int array ->
  depth:int ->
  stats verdict
(** [run proto ~inputs ~depth] explores the schedule tree to [depth] steps
    with the chosen [engine] (default [`Naive]).  Probing (default
    [`Leaves]: only where the depth bound cuts the tree off, or
    [`Everywhere]: at every configuration) runs each undecided process solo
    — it must decide within [solo_fuel] steps — then the rest in turn, and
    feeds the outcome to the observers.  [reduce] (default
    {!no_reduction}) layers commutativity and/or symmetry reduction over the
    engine — see {!reduction} for the soundness contract.  With
    [reduce.symmetric] the protocol is first certified pid-symmetric for
    these inputs; an uncertified protocol raises {!Uncertified_symmetry}
    unless [force] (default [false]) is set, and [notify_symmetry] (if
    given) receives the verdict either way.  On a violation the witness is
    replayed for confirmation and, unless [shrink:false], minimized by
    greedy schedule-segment deletion (each candidate kept iff its replay
    still raises the same violation kind).

    [solo_fuel] defaults to [100_000]; a fuel below 1, like a negative
    [crashes], raises [Invalid_argument] before anything runs.  So do more
    than {!max_processes} processes, and input the transposition table's
    packed claims cannot hold: a [depth] outside
    [0 .. Transposition.max_depth], or [reduce.commute] with more than
    [Transposition.max_sleep_pids] processes.

    [observers] is the property checked ([[]], the default, means
    {!Observer.defaults}): the monitors are advanced inline over every
    scheduled step and crash, their verdict is checked at every visited
    configuration, and solo probes run iff the probe policy allows them
    {e and} some observer wants them ({!Observer.S.wants_probes}), feeding
    each probe's outcome to the set.  Under [`Memo] and [`Parallel] the
    observer digest is folded into the transposition key (a product
    construction), so memoization remains exact; a reduction an observer
    declares unsafe for itself raises {!Observer_unsafe_reduction} unless
    [force] is set.

    [crashes] (default [0]) is the crash budget of Golab's crash–recovery
    model: at every visited configuration with budget remaining, each
    process that has stepped since its last start or recovery additionally
    branches into a {!Model.Machine.Make.crash_recover} transition — its
    program state is lost, shared memory survives, and it restarts from the
    protocol root.  Crash-point enumeration is exhaustive: a [Completed]
    verdict certifies the property under {e every} placement of at most
    [crashes] crashes within the depth bound, including crashes of
    already-decided processes (the re-decision scenario).  Crash events
    appear in witness schedules as negative entries ({!crash_code}) and
    replay and shrink like ordinary steps.  Crash branches bypass the
    sleep-set reduction (a crash commutes with nothing its victim does) and
    remain sound under the transposition table because recovery epochs are
    part of the machine fingerprint.  With [crashes = 0] every engine is
    bit-identical to a build without the crash subsystem — same verdicts,
    fingerprints, counters.

    [deadline] (wall-clock seconds; default unbounded) bounds the engine
    proper: every engine — including each parallel worker — checks it at
    each visited configuration and returns [Timed_out] with the counters
    accumulated so far instead of running unbounded.  The deadline clock
    starts after the symmetry gate, and a configuration's probes are not
    interrupted mid-probe (solo runs are already bounded by [solo_fuel]),
    so expiry is detected within one configuration's worth of work. *)

type replay_report = {
  violation : (string * string) option;
      (** the violation the replay ran into ([None]: it completed cleanly —
          the witness does not reproduce) *)
  events : string;  (** the full event trace of the replayed execution *)
}

val replay :
  ?solo_fuel:int ->
  ?observers:Observer.t list ->
  Consensus.Proto.t ->
  inputs:int array ->
  witness ->
  (replay_report, string) result
(** Deterministically re-execute a witness from the initial configuration:
    step its schedule pid by pid, advancing the observer set ([[]] means
    {!Observer.defaults}, as in {!run}) and checking its verdict after each
    step, stopping at the first violation; then re-run the solo probe and
    feed the observers its outcome.  [Error _] if the schedule
    names a process that cannot step, or if the witness's [probe] names a
    process that is not running once the schedule has been executed — a
    decided or finished process cannot be probed (only possible for
    hand-edited witnesses; engine-reported witnesses always replay).
    More than {!max_processes} processes raise [Invalid_argument]. *)

val decidable_values :
  ?solo_fuel:int ->
  ?shrink:bool ->
  ?reduce:reduction ->
  ?crashes:int ->
  ?force:bool ->
  ?notify_symmetry:(Analysis.Symmetry.verdict -> unit) ->
  ?deadline:float ->
  ?observers:Observer.t list ->
  Consensus.Proto.t ->
  inputs:int array ->
  depth:int ->
  int list verdict
(** The set of values some solo continuation decides from some configuration
    reachable within [depth] steps — ≥ 2 values demonstrate bivalence
    (Lemma 6.4).  Runs on the same fingerprint transposition table as the
    [`Memo] engine and honours [reduce], [crashes] and [deadline] like
    {!run} — reductions preserve the decidable-value set because every
    reachable configuration is still probed; a process that fails to decide
    solo is reported ([Falsified]) as an obstruction-freedom failure with a
    witness.  The bivalence walk's own solo probes (which collect the
    decided values) always run; [observers] (default [[]]: no property
    beyond those probes) are checked at every visited configuration on
    top.  [solo_fuel] below 1 and a [depth] or process count the table
    cannot hold raise [Invalid_argument], as in {!run}. *)

type deepen_report = {
  depth_reached : int;   (** deepest completed iteration *)
  complete : bool;       (** exploration finished without hitting the bound *)
  last : stats;          (** stats of the deepest iteration *)
  total_configs : int;   (** configurations visited across all iterations *)
  total_elapsed : float; (** wall-clock seconds across all iterations *)
}

val deepen :
  ?probe:probe_policy ->
  ?solo_fuel:int ->
  ?engine:engine ->
  ?budget:float ->
  ?shrink:bool ->
  ?reduce:reduction ->
  ?crashes:int ->
  ?force:bool ->
  ?notify_symmetry:(Analysis.Symmetry.verdict -> unit) ->
  ?observers:Observer.t list ->
  Consensus.Proto.t ->
  inputs:int array ->
  max_depth:int ->
  deepen_report verdict
(** Iterative deepening: run depth 1, 2, … until the exploration completes
    (no branch truncated), [max_depth] is reached, or the wall-clock
    [budget] (default 1.0 s) runs out.  The default [engine] is [`Memo],
    which makes each re-iteration cheap.  The remaining budget is passed to
    each iteration as its [deadline], so a single oversized iteration can no
    longer blow past the budget: an iteration that times out returns the
    deepest previously completed report ([Completed], with
    [complete = false]), or [Timed_out] if even depth 1 did not finish.
    [Falsified f] if any iteration finds a violation.  The symmetry gate
    ([reduce.symmetric], [force], [notify_symmetry] — see {!run}) fires
    once, against [max_depth].  [solo_fuel] below 1 and a [max_depth] or
    process count the table cannot hold raise [Invalid_argument], as in
    {!run}. *)
