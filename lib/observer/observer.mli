(** Composable checked properties over the exploration event stream.

    The model checker's property is a set of observers: finite-state monitor
    machines that consume the events of an exploration (process steps, memory
    accesses, decisions, crashes, solo-probe outcomes) and render a three-way
    verdict at every visited configuration — safety violation, liveness-under-
    fairness violation, or ok.  The paper's property, obstruction-free
    consensus, is {!defaults}.

    Observers are driven inline by the exploration engines ({!Explore.run}
    [?observers]): no event values are allocated on the hot path — the engine
    calls the monitor's transition functions directly on the step it is
    already making.  States must be {e immutable} values: the parallel engine
    shares them across domains, and the memoized engines compare and fold
    their {!S.digest} into the transposition key.

    {2 Soundness contract}

    The memoized engines prune a revisited configuration when its machine
    fingerprint {e and} observer digest were both seen at adequate depth
    (a product construction: the monitor rides along in the state space).
    For that pruning — and the verdict — to be exact, [digest] together
    with the machine configuration must determine the observer's verdict
    and its future behaviour: two states with equal digests, reached at
    equal configurations, must render equal verdicts now and after any
    common event suffix.  Latching violations into a sink state (as every
    built-in observer does) satisfies this trivially on the violation side;
    an observer whose state is a function of the configuration (like
    {!agreement}, over the decisions it holds) may give every other state
    the same digest.

    The state-space reductions need per-observer opt-in:

    - {e Commutativity} ([commute_safe]): the sleep-set reduction explores
      only one order of two independent (commuting) steps.  Every reachable
      configuration is still visited, so any observer whose verdict at a
      configuration is a function of that configuration's machine state
      (decision sets, per-location value history for correctly declared
      [commutes]) is safe; an observer sensitive to the {e interleaving
      order} of independent steps (e.g. {!lockout}'s fairness envelope) is
      not, and must declare [commute_safe = false].
    - {e Symmetry} ([symmetric_safe]): the symmetric reduction conflates
      configurations that differ by permuting equal-input processes.  An
      observer whose state is pid-indexed (e.g. {!per_pid}, {!lockout})
      distinguishes configurations the reduction conflates and must declare
      [symmetric_safe = false].

    {!Explore.run} refuses (raises) a reduction an observer declares unsafe
    unless forced. *)

type probe_outcome =
  | Probe_decided of { pid : int; decisions : (int * int) list }
      (** [pid] ran solo and decided; then every remaining running process
          was run solo once, all decided, and [decisions] is the complete
          decision set of that probe execution ((pid, value) pairs). *)
  | Probe_stuck of { pid : int; fuel : int }
      (** [pid] did not decide within [fuel] solo steps — an
          obstruction-freedom violation in the paper's sense. *)
  | Probe_starved of { pid : int; straggler : int }
      (** [pid] decided solo, but [straggler] remained undecided after its
          own bounded solo run — a termination failure of the probe chain. *)
(** The outcome of one solo probe (the probe chain of {!Explore.run}, run
    through the walk's leg table, {!Model.Machine.Make.Legs}). *)

val probe_pid : probe_outcome -> int
(** The probed pid the outcome belongs to. *)

type verdict =
  | Ok
  | Violation of { kind : string; liveness : bool; message : string }
      (** [kind] names the violation (it becomes the witness kind,
          {!Explore.witness}); [liveness] distinguishes
          liveness-under-fairness violations from safety violations;
          [message] is the human-readable report. *)

module type S = sig
  type state

  val name : string
  (** Registry/display name, e.g. ["agreement"]. *)

  val wants_probes : bool
  (** Whether the engine should run solo probes and feed their outcomes to
      {!on_probe}.  Probes run iff the probe policy allows them {e and} some
      observer of the run wants them. *)

  val wants_accesses : bool
  (** Whether {!on_access} should be fed.  Computing access results costs an
      extra [I.apply] per access, so observers that do not read memory
      traffic leave this [false]. *)

  val commute_safe : bool
  val symmetric_safe : bool
  (** See the soundness contract above. *)

  val init : n:int -> inputs:int array -> state

  val on_step : state -> pid:int -> state
  (** [pid] performed one atomic step. *)

  val on_access : state -> pid:int -> loc:int -> value:int option -> state
  (** One memory access of a step, {e before} {!on_step}: [pid] applied an
      instruction to [loc] and it returned [value]
      ({!Model.Iset.S.observe_result}: [None] for structured or unit-like
      results).  Multi-assignment steps feed one access per location, in
      instruction order.  Only scheduled steps are observed — solo-probe
      internals are summarized by {!on_probe}. *)

  val on_decide : state -> pid:int -> value:int -> state
  (** [pid]'s step just decided [value] (fed after {!on_step}). *)

  val on_crash : state -> pid:int -> state
  (** [pid] crashed and recovered ({!Model.Machine.Make.crash_recover}): its
      program state, including any decision it held, is lost, and it
      restarts from the protocol root.  Shared memory survives. *)

  val on_probe : state -> probe_outcome -> state
  (** A solo probe ran from the current configuration.  Probe feeding is
      config-local: the engine discards the post-probe state after checking
      its verdict, so probes never change the exploration. *)

  val digest : state -> int
  (** O(1) digest folded into the transposition key; must determine
      {!verdict} and future behaviour (see the soundness contract). *)

  val verdict : state -> verdict
end

type t = (module S)

val name : t -> string

(** {2 Built-in observers}

    [agreement], [validity] and [solo_termination] together ({!defaults})
    are the consensus property the paper's protocols must satisfy. *)

val agreement : t
(** Safety: the decisions a configuration holds agree.  A decision lost to
    a crash stops counting (compare {!recoverable_agreement}, which judges
    every incarnation's decision).  The lowest pid's decision is the
    reference value, and a violation names the lowest pid holding another
    value.  Latches on the first disagreement, among scheduled decisions or
    a probe's decision set. *)

val validity : t
(** Safety: every decided value was some process's input.  Each decision is
    judged when it is made, and so is every decision of a probe's decision
    set; the first unproposed value latches. *)

val solo_termination : t
(** Liveness (obstruction-freedom, Section 2 of the paper): every probed
    process decides within its solo fuel, and the probe chain's remaining
    processes terminate.  Wants probes; verdict kinds are
    ["obstruction-freedom"] and ["termination"]. *)

val lockout : ?fair_bound:int -> ?patience:int -> unit -> t
(** Liveness under fairness ({!Model.Sched.fair} semantics): a process that
    keeps getting scheduled — [patience] own steps (default 8) — while the
    execution stays within the fairness envelope — no running process falls
    more than [fair_bound] (default 2) steps of others behind — must have
    decided.  Executions that leave the envelope disarm the monitor (an
    unfair execution cannot witness lockout).  A blocked process also
    disarms it, conservatively.  Not commute-safe (the fairness envelope is
    interleaving-order sensitive) and not symmetric-safe (pid-indexed). *)

val maxreg_monotonic : t
(** Safety, for max-register rows: the integer values observed at each
    location never decrease.  Only accesses whose result observes as an int
    are tracked ({!Model.Iset.S.observe_result}), so unit-returning writes
    are invisible.  Commute-safe for correctly declared [commutes] (two
    same-location instructions may only be declared commuting when both
    return the same results in either order) and symmetric-safe (state is
    per-location, not per-pid). *)

val recoverable_agreement : t
(** Safety under crash–recovery (Golab, arXiv 1804.10597): decisions agree
    across processes {e and} across incarnations — a process that decides,
    crashes and re-decides must re-decide the same value.  Where
    {!agreement} judges the decisions a configuration holds, this judges
    every incarnation's decision, and names which kind of conflict occurred
    (the cross-incarnation flip is the signature failure of non-recoverable
    protocols); crash-free it degenerates to plain agreement.
    Commute-safe; not symmetric-safe (pid-indexed state). *)

val recoverable_validity : t
(** Safety under crash–recovery: every incarnation's decision was some
    process's input.  {!validity} under its own verdict kind — both judge
    every decision when it is made, post-crash re-decisions included. *)

val defaults : t list
(** [[agreement; validity; solo_termination]]: obstruction-free consensus,
    the property {!Explore.run} checks when given no observers. *)

(** {2 Combinators} *)

val all : t list -> t
(** Product observer: runs every member, reports the first member's
    violation (in list order).  Safe for a reduction iff every member is. *)

val named : string -> t -> t
(** Same observer under a different name (and witness kind prefix). *)

val per_pid : t -> t
(** Per-process product: one copy of the observer per pid, each fed only its
    own pid's events (a probe outcome routes to the probed pid).  A copy's
    violation is reported with a ["p<i>: "] message prefix.  Never
    symmetric-safe (the product state is pid-indexed). *)

(** {2 Registry} *)

val known : (string * string) list
(** [(name, one-line description)] of every registered observer name. *)

val of_name : string -> (t, string) result
(** Look up a registered observer: ["agreement"], ["validity"],
    ["solo-termination"], ["lockout"] (default parameters),
    ["maxreg-monotonic"], ["recoverable-agreement"],
    ["recoverable-validity"]. *)

val of_names : string list -> (t list, string) result
(** Resolve a list of names; ["default"] expands to {!defaults}. *)

(** {2 Driver runtime}

    The packed, immutable multi-observer state the exploration engines
    thread through the walk.  One {!Run.t} value corresponds to one
    configuration; transitions return a new value — [t] itself when no
    member's state changed, in which case nothing is allocated.  The digest
    and verdict are cached, so reading them is O(1). *)
module Run : sig
  type t

  val make : (module S) list -> n:int -> inputs:int array -> t
  val wants_probes : t -> bool
  val wants_accesses : t -> bool
  val step : t -> pid:int -> t
  val access : t -> pid:int -> loc:int -> value:int option -> t
  val decide : t -> pid:int -> value:int -> t
  val crash : t -> pid:int -> t
  val probe : t -> probe_outcome -> t

  val digest : t -> int
  (** Order-dependent fold of the members' digests (constant for a
      stateless set). *)

  val verdict : t -> (string * bool * string) option
  (** [(kind, liveness, message)] of the first member reporting a
      violation, in set order. *)

  val first_unsafe : commute:bool -> symmetric:bool -> (module S) list -> (string * string) option
  (** [(observer name, reduction name)] of the first observer in the set
      that declares the requested reduction unsafe, if any. *)
end
