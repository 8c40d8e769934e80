(** The campaign work-queue executor.

    Expands nothing and decides nothing: it takes the task list a {!Spec}
    produced, skips every task whose fingerprint already has a record in the
    {!Store} (the resume path), and runs the rest over a pool of domains
    with crash isolation — a task that raises becomes a [Crash] record, not
    a dead campaign.  Every task completion is persisted to the store
    before the next task starts, so killing the process at any point loses
    at most the tasks in flight.

    Two execution modes share that contract.  {!run} owns its task list
    outright (one process per store directory).  {!run_shared} is the
    [campaign worker] engine: any number of OS processes open the same
    store directory and the same spec, and each pending task is {e claimed}
    through the store's lease protocol instead of statically partitioned —
    claim losers re-read the winner's record instead of re-executing. *)

type outcome = {
  total : int;  (** tasks in the campaign *)
  executed : int;  (** tasks actually run in this invocation *)
  cached : int;
      (** tasks resolved without executing here: already recorded when the
          run started, or (shared mode) executed by a concurrent worker *)
  aborted : int;  (** tasks never started because [stop] fired *)
  records : Record.t list;
      (** one record per non-aborted task, in task-list order *)
  elapsed : float;
}

type event =
  | Campaign_started of { total : int; cached : int }
  | Task_started of { index : int; task : Task.t }
  | Task_yielded of { index : int; task : Task.t }
      (** shared mode only: another live worker holds this task's lease;
          this process parks it and will re-read the winner's record *)
  | Task_finished of {
      index : int;
      task : Task.t;
      record : Record.t;
      cached : bool;
    }
  | Campaign_finished of outcome

val json_of_event : event -> Json.t
(** The structured telemetry rendering appended to the store's
    [events.jsonl] for every event (the store stamps each line with the
    writer's [pid] and a [ts] timestamp). *)

val run :
  ?domains:int ->
  ?use_cache:bool ->
  ?stop:(unit -> bool) ->
  ?on_event:(event -> unit) ->
  store:Store.t ->
  Task.t list ->
  outcome
(** Run a campaign.

    [domains] (default 1) is the worker-pool width ({!Pool.run}).  The
    calling domain is always one of the workers: with 1 the tasks run
    inline and no domain is spawned; with k the caller works beside k − 1
    spawned domains, so the run holds k domains, never k + 1.
    [use_cache] (default [true]) controls the resume path — [false]
    re-runs every task, overwriting stored records.  [stop] (default
    never) is polled before each task is
    claimed; once it returns [true] no further tasks start, already
    running tasks finish, and the remainder count as [aborted].
    [on_event] observes progress; telemetry is logged under the store's
    lock but the callback itself runs outside any lock, so a slow callback
    never serializes the worker domains — with [domains > 1] it may be
    invoked from several domains concurrently.  If [on_event] or a store
    write raises, no worker starts another task, and the exception is
    re-raised once every worker has stopped: no event arrives after [run]
    returns or raises.

    A symmetric-reduction task certifies its protocol when a worker first
    runs it, through {!Analysis.Symmetry.certify_for_run}'s sharded
    in-process cache, so tasks sharing (protocol, inputs, depth) certify
    once per process.  Certification costs milliseconds, so nothing about
    it is persisted in the store. *)

val run_shared :
  ?domains:int ->
  ?stop:(unit -> bool) ->
  ?on_event:(event -> unit) ->
  ?poll_interval:float ->
  ?drain_timeout:float ->
  store:Store.t ->
  Task.t list ->
  outcome
(** Run a campaign as one worker of a fleet sharing the store directory.

    Each pending task goes through {!Store.claim}: [`Claimed] executes and
    persists here; [`Done] (another writer already recorded it) counts as
    [cached]; [`Lost] (another live writer holds the lease) emits
    {!Task_yielded} and parks the task.  After the claimable tasks drain,
    parked tasks are polled every [poll_interval] seconds (default 0.05)
    until the winner's record appears — or the winner crashes, its lease
    expires and the re-claim executes the task here, so a dead worker
    delays its in-flight tasks by at most the store's lease TTL.  The task
    list is rotated by this process's pid before claiming, so a fleet
    launched simultaneously spreads over the grid.  [domains] is the
    width of the claiming pool, the calling domain included, as in
    {!run}.  A task one of its domains holds is lost to the others, as to
    another process ({!Store.claim}), so two tasks with one fingerprint
    execute once.  An exception from a worker stops the others and is
    re-raised once they have stopped, before any parked task is polled.

    The polling loop is bounded: {!Store.claim} only breaks leases that
    {e look} expired by mtime, so a lease stamped in the future — a holder
    whose clock is skewed — would otherwise park its task forever.  After
    [drain_timeout] seconds (default [max (2 * lease TTL) 1]: one TTL for
    an honest winner to finish plus one for a crashed winner's lease to
    age out) each still-stuck lease is force-broken
    ({!Store.break_lease}) and the task claimed one final time — executed
    here, or counted [aborted] if yet another writer takes the freed
    lease first.

    Fleet-wide, every task is executed exactly once in the absence of
    crashes; duplicate execution is possible only through lease expiry and
    is harmless — tasks are deterministic and records content-addressed,
    so concurrent writers' records agree on the verdict
    ({!Record.same_verdict}) and the atomic store keeps whichever rename
    lands last.  [stop] aborts both the claim loop and the polling loop.
    A rerun over a completed store reports [0 executed] exactly like
    {!run} — the resume property is mode-independent. *)
