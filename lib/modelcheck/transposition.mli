(** Sharded transposition table over two-word configuration fingerprints.

    Shared by the [`Memo] engine (one unlocked shard) and the parallel
    engine (many locked shards, selected by the fingerprint's low bits, so
    domains looking up distinct states almost never contend on a lock).

    Entries are {e claim lists}: a claim [(d, S)] records one exploration
    pass — every enabled transition outside the sleep set [S] explored to
    remaining depth [d].  Claims are inserted optimistically, before the
    subtree is walked; see [transposition.ml] for why that is sound for
    both engines.

    Each shard is one flat open-addressed [int array], three words per key
    (both fingerprint lanes and one packed claim), probed linearly; the
    rare key that needs two to four claims keeps them in a per-shard spill
    pool.  A claim packs into one int, so its depth and sleep set have
    fixed widths: {!max_depth} and {!max_sleep_pids}. *)

type t

type plan =
  | Hit  (** some prior pass covers this revisit — skip it entirely *)
  | Visit
      (** no prior pass reached this depth — explore in full (a claim for
          this pass has been recorded) *)
  | Partial of int
      (** prior passes cover the depth but left some transitions asleep;
          the payload is the {e intersection} of their sleep sets.  Explore
          only transitions in it (minus the current sleep set), and skip
          the per-configuration work — the state itself was checked when
          first visited.  A claim for this pass has been recorded. *)

val max_depth : int
(** The largest [depth] a claim holds. *)

val max_sleep_pids : int
(** The sleep field's width: a [sleep] set may name pids
    [0 .. max_sleep_pids - 1]. *)

val create : ?shards:int -> concurrent:bool -> unit -> t
(** [create ~concurrent ()] makes an empty table.  [shards] (rounded up to
    a power of two) defaults to 64 when [concurrent], else 1.  With
    [concurrent:false] all locking is skipped — the sequential engines'
    configuration. *)

val shard_count : t -> int

val plan : t -> int -> int -> depth:int -> sleep:int -> plan
(** [plan t a b ~depth ~sleep] consults and updates the table for the
    configuration fingerprinted [(a, b)], reached with [depth] remaining
    steps and the pid bitmask [sleep] asleep.  Atomic per shard.  [depth]
    must lie in [0 .. max_depth] and [sleep] name only pids below
    {!max_sleep_pids}: the caller checks, once per run (a value outside
    the fields would merge distinct claims). *)

val stats : t -> int
(** Total number of distinct fingerprints claimed across all shards. *)
