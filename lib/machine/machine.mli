(** The asynchronous shared-memory machine of Section 2.

    A machine is built from one instruction set (the uniformity
    requirement).  Memory is an unbounded array of identical locations, all
    initialised to [I.init]; a configuration holds the memory contents and
    the state of every process.  Configurations are persistent values:
    [step] returns a new configuration, so adversaries and the model checker
    can branch from a common configuration — the essence of the paper's
    indistinguishability arguments. *)

module Make (I : Iset.S) : sig
  type 'a proc = (I.op, I.result, 'a) Proc.t

  type 'a config

  exception Multi_assignment_not_supported

  val make : ?record_trace:bool -> n:int -> (int -> 'a proc) -> 'a config
  (** [make ~n f] starts [n] processes, process [pid] running [f pid].
      [record_trace] (default [true]) controls whether [step] accumulates
      the event trace; the model checker turns it off so exploration does
      not allocate an event per step ([trace] is then empty). *)

  val n_processes : 'a config -> int

  val cell : 'a config -> int -> I.cell
  (** Contents of a location ([I.init] if never written). *)

  val decision : 'a config -> int -> 'a option
  (** The value process [pid] decided, if it has. *)

  val decisions : 'a config -> (int * 'a) list

  val running : 'a config -> int list
  (** Sorted ids of processes that have not decided (and are not blocked). *)

  val running_count : 'a config -> int
  (** [List.length (running cfg)], cached — O(1) in the exploration hot
      loop instead of rebuilding the list. *)

  val poised : 'a config -> int -> (int * I.op) list option
  (** The atomic accesses process [pid] is poised to perform, or [None] if
      it has decided. *)

  val accesses : 'a config -> int -> (int * I.op) list
  (** {!poised} without the option: the accesses process [pid] is poised to
      perform, [[]] if it has decided or is blocked — so it is running iff
      the list is non-empty.  Allocates nothing: the model checker's
      sibling loop asks it per pid and per sleeping sibling. *)

  val steps : 'a config -> int
  (** Total steps taken so far. *)

  val steps_of : 'a config -> int -> int
  (** Steps taken by one process — the per-process step complexity the
      paper's conclusions call out as the next refinement of the
      hierarchy. *)

  val epoch : 'a config -> int -> int
  (** Recovery epoch of one process: how many crash–recover transitions it
      has survived (0 in a crash-free run). *)

  val crashes : 'a config -> int
  (** Total crash–recover transitions so far — what the model checker's
      crash budget is charged against. *)

  val crashable : 'a config -> int list
  (** Sorted ids of processes whose crash would change the configuration:
      those that have taken at least one step since their last start or
      recovery.  A process at its protocol root (including one that just
      recovered) is excluded — crashing it again only bumps the epoch
      counter — which is also what makes exhaustive crash-point enumeration
      finite.  Decided processes {e are} included: a decided process that
      crashes loses its decision and re-executes the protocol, the
      re-decision scenario recoverable consensus is about. *)

  val locations_used : 'a config -> int
  (** Number of distinct memory locations accessed so far: the measured
      space, i.e. this run's contribution to SP(I, n). *)

  val max_location : 'a config -> int option
  (** Largest location index accessed so far, if any. *)

  val fold_cells : 'a config -> init:'b -> f:('b -> int -> I.cell -> 'b) -> 'b
  (** Fold over every location that has been written (ascending). *)

  val fingerprint : 'a config -> int
  (** Canonical hash of the configuration: memory contents (via
      [I.hash_cell]) mixed with a rolling hash of every process's observed
      results (via [I.hash_result]).  Since a process is a deterministic
      function of the results it has seen, two configurations of the same
      initial machine with equal fingerprints behave identically modulo
      hash collisions; configurations reached by permuting independent
      (commuting) steps get equal fingerprints, which is what the model
      checker's transposition table dedups on.  Locations holding a value
      equal to [I.init] do not contribute, so writing the initial value
      back to an untouched location leaves the fingerprint unchanged —
      exactly as it leaves the configuration's behaviour unchanged.

      Recovery epochs are a third ingredient: configurations that agree on
      memory and histories but differ in crash counts must not be conflated
      (the remaining crash budget differs), so each process's nonzero epoch
      contributes a lane term.  Epoch 0 contributes nothing — crash-free
      fingerprints are bit-identical to a machine without the crash
      subsystem.

      The fingerprint is maintained incrementally: [step] delta-updates a
      two-lane digest on the written cell and the stepping process's
      history slot, so reading it here is O(1) — no per-call fold over
      memory.  [I.hash_cell] runs once per write; the per-cell
      contributions are cached alongside the cells. *)

  val fingerprint_words : 'a config -> int * int
  (** The two raw 63-bit digest lanes behind {!fingerprint}.  The lanes
      avalanche independently, so keying on the pair is a 126-bit digest —
      what the model checker's transposition tables use to make collisions
      negligible (and to pick a shard from the low bits). *)

  val slow_fingerprint : 'a config -> int
  (** The original from-scratch fingerprint fold (O(mem + n) per call).
      Its {e value} differs from {!fingerprint} — only the induced
      partition of configurations matters — and it is retained purely as
      the differential-testing reference for the incremental digest. *)

  val canonical_fingerprint : inputs:int array -> 'a config -> int
  (** Like {!fingerprint}, but quotiented by process symmetry: each process
      contributes a hash of its (input, observed-result history, decision)
      triple and the triples are folded in sorted order, so configurations
      that differ only by permuting the complete states of processes with
      equal inputs collide deliberately.  [inputs.(pid)] must be the input
      handed to process [pid] (length must equal the number of processes);
      decisions are hashed with the polymorphic [Hashtbl.hash], so decision
      values should be first-order data (no closures).

      {b Soundness caveat}: deduplicating on this fingerprint is only valid
      for pid-symmetric protocols — those whose code ignores the process id
      except through its input (formally, [f pid] and [f pid'] are the same
      procedure whenever their inputs agree).  For pid-dependent protocols
      two configurations with equal canonical fingerprints can behave
      differently, and a model checker deduplicating on them may miss
      violations.

      The memory part reads off the maintained digest in O(1); only the
      per-process triples (O(n log n) for a run's handful of processes)
      are rebuilt per call. *)

  val canonical_fingerprint_words : inputs:int array -> 'a config -> int * int
  (** Two-lane variant of {!canonical_fingerprint}, mirroring
      {!fingerprint_words}. *)

  val slow_canonical_fingerprint : inputs:int array -> 'a config -> int
  (** From-scratch reference fold for {!canonical_fingerprint}, kept for
      differential testing like {!slow_fingerprint}. *)

  type event =
    | Step of {
        pid : int;
        accesses : (int * I.op * I.result) list;
            (** the locations and instructions of one atomic step, with
                results (a multiple assignment lists several) *)
      }
    | Crash of {
        pid : int;
        epoch : int;  (** the recovery epoch the process entered *)
      }

  val event_pid : event -> int
  (** The process an event concerns, uniformly over both constructors. *)

  val trace : 'a config -> event list
  (** Every step and crash–recover transition so far, in execution order —
      the executions the paper's proofs reason about, as data. *)

  val pp_event : Format.formatter -> event -> unit

  val pp_trace : Format.formatter -> 'a config -> unit

  val step : 'a config -> int -> 'a config
  (** Let process [pid] take its poised step.
      @raise Invalid_argument if [pid] has decided or is blocked.
      @raise Multi_assignment_not_supported if the step is a multi-location
      access and [I.multi_assignment] is [false]. *)

  val crash_recover : 'a config -> int -> 'a config
  (** Crash process [pid] and recover it (Golab's crash–recovery model,
      arXiv 1804.10597): its continuation, observed-result history and any
      pending decision are lost and it restarts from its protocol root;
      shared memory survives untouched — designated locations thereby act
      as per-process persistent recovery cells.  Total on every process
      state (running, blocked or decided); bumps the process's {!epoch} and
      the global {!crashes} count, leaves {!steps} unchanged, and records a
      [Crash] trace event.  The fingerprint distinguishes recovery epochs,
      so a recovered configuration never collides with the pre-crash one —
      while a crash-free run's fingerprints are bit-identical to a machine
      without this extension (epoch 0 contributes nothing). *)

  val run :
    ?fuel:int -> sched:Sched.t -> 'a config ->
    'a config * [ `All_decided | `Sched_stopped | `Out_of_fuel ]
  (** Drive the configuration with a scheduler.  [fuel] (default
      [1_000_000]) bounds the number of steps of this call. *)

  val run_crashy :
    ?fuel:int -> sched:Sched.Crashy.crashy -> 'a config ->
    'a config * [ `All_decided | `Sched_stopped | `Out_of_fuel ]
  (** Drive the configuration with a crash-aware adversary: the scheduler
      sees both the running and the {!crashable} sets and may interleave
      {!crash_recover} transitions with computation steps.  Crashes consume
      [fuel] like steps, so a crash-happy adversary terminates.
      [run_crashy ~sched:(Sched.Crashy.reliable s)] equals [run ~sched:s]. *)

  val run_solo : ?fuel:int -> pid:int -> 'a config -> 'a config * 'a option
  (** Run one process alone until it decides (the solo executions of the
      obstruction-freedom definition); returns its decision if it decided
      within [fuel] steps. *)

  (** The model checker's solo probes, memoized per run.  A {e leg} is one
      process run solo, for at most [fuel] steps, from one memory; the
      table keys it on the configuration's memory lanes and the process's
      pid and result history — what the fingerprint already keeps, so a
      leg is identified exactly as far as a configuration is, modulo hash
      collisions — and stores the memory lanes after it and the process's
      final state.  The key needs no recovery epoch: a crash restarts the
      process at its root with an empty history.

      Sibling configurations usually differ by one step, so most legs of a
      probe were already run by an earlier probe of the same run.  A probe
      runs no step while its legs hit; at the first miss it re-runs its
      earlier legs on the configuration's persistent memory, then runs and
      records the missing one.  Decisions, runnability and the stuck and
      starved classifications equal those of {!run_solo} chains on the
      persistent machine and of {!Scratch}, which the differential probe
      tests assert.

      A table belongs to one run: one protocol, one input vector and one
      [fuel] — its entries are only valid for configurations reached from
      the same root with the same fuel.  It is not thread-safe; give each
      domain its own. *)
  module Legs : sig
    type 'a t

    val create : unit -> 'a t

    val solo : 'a t -> fuel:int -> 'a config -> int -> 'a option
    (** [solo t ~fuel cfg pid]: [pid]'s decision if it decides within
        [fuel] solo steps from [cfg] — [snd (run_solo ~fuel ~pid cfg)]. *)

    val probe :
      'a t -> fuel:int -> 'a config -> int ->
      [ `Stuck | `Starved of int | `Decided of (int * 'a) list ]
    (** The probe chain from [cfg]: [pid] runs solo; if it does not decide
        within [fuel] steps the probe is [`Stuck].  Otherwise every other
        running process runs solo once, in pid order, each for at most
        [fuel] steps.  [`Starved q]: [q] is the lowest pid still running
        afterwards.  [`Decided ds]: no process is left running, and [ds]
        are the decisions of the probe's final configuration, as
        {!decisions} lists them. *)

    val steps : 'a t -> int
    (** Solo steps the table's probes have actually executed: the legs
        that missed plus the hit legs re-run before a miss. *)
  end

  (** A mutable throwaway copy of a configuration for solo probes: memory
      in an array, processes in one mutated array.  It predates {!Legs} as
      the model checker's probe executor and now serves as the reference
      the leg table is tested against and as the probe layer the
      benchmark's micro-measurements time.  Semantics match the persistent
      machine exactly — same results observed, same decisions, same
      blocked/undecided classification.  A scratch value is single-use
      state: it shares nothing with the configuration it was built from,
      and is meant to be dropped after the probe. *)
  module Scratch : sig
    type 'a t

    val of_config : 'a config -> 'a t
    (** Snapshot a configuration into a mutable workspace (O(memory in use
        + n); the source configuration is not affected by later steps). *)

    val run_solo : ?fuel:int -> pid:int -> 'a t -> 'a option
    (** In-place equivalent of the machine's [run_solo]: step [pid] while
        it is runnable, up to [fuel] steps, and return its decision if it
        decided.  Mutates the workspace. *)

    val running : 'a t -> int list
    (** Sorted ids of processes not decided and not blocked. *)

    val decisions : 'a t -> (int * 'a) list
    (** Decided processes in pid order — same order and contents as
        [decisions] on an equivalent configuration. *)
  end
end
