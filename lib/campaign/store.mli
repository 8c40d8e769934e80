(** The persistent, content-addressed campaign result store — a safe
    multi-writer substrate.

    On-disk layout under the store directory:
    {v
      results/<task-fingerprint>.json    one Record.t per completed task
      claims/<task>.<pid>                a writer's lease file (see claim)
      claims/<task>.lease                hard link to the winning lease
      events.jsonl                       append-only telemetry log
    v}

    Records are written through a {e writer-unique} temp name
    ([<final>.tmp.<pid>.<counter>]) and renamed into place, so any number of
    processes sharing the directory can race on the same task and the final
    file is always one writer's whole record — never a truncation of two.
    Stale [*.json.tmp*] files and expired claim leases left by crashed runs
    are swept when the store is opened.  Corrupt or foreign files under
    [results/] are ignored with a warning rather than poisoning the sweep.
    Symmetry certificates are not stored: a [certs/] directory that older
    versions wrote is neither read nor swept.  All operations are safe to call from multiple domains of one process
    {e and} from multiple processes sharing the directory (one host; the
    claim protocol relies on POSIX [link(2)] atomicity and live pids). *)

type t

val open_ : ?lease_ttl:float -> dir:string -> unit -> t
(** Open (creating directories as needed), sweep stale temp files and
    expired claims, and index every valid record.  [lease_ttl] (default
    120 s) is the age at which another writer's claim lease — and any
    leftover temp file — counts as a crashed holder and may be broken. *)

val dir : t -> string

val lease_ttl : t -> float
(** The TTL this store was opened with — callers deriving their own
    patience from the lease protocol (e.g. {!Executor.run_shared}'s drain
    bound) read it here instead of re-stating the default. *)

val find : t -> string -> Record.t option
(** Look up by task fingerprint.  On an index miss the store probes
    [results/] on disk before answering, so records renamed into place by
    {e other processes} are found without reopening. *)

val mem : t -> string -> bool

val claim : t -> string -> [ `Claimed | `Done of Record.t | `Lost ]
(** Optimistic claim-then-write: try to become the unique executor of a
    task.  [`Done r] — the task already has a record (possibly another
    writer's; losers re-read instead of re-executing).  [`Claimed] — this
    writer now holds the lease and should execute then {!put} (which
    releases).  [`Lost] — another live writer holds the lease; poll
    {!find} for its record, or {!claim} again once the lease could have
    expired.  Arbitration is a hard link from the writer's own lease file
    [claims/<task>.<pid>] to [claims/<task>.lease]: atomic on POSIX, so at
    most one claimant wins while the lease is live.  A lease older than
    [lease_ttl] is treated as crashed and broken.  Re-claiming a task from
    the domain that holds it returns [`Claimed].  The domains of one
    process share its lease file, so the store arbitrates between them in
    memory: while one holds a task, a claim from another returns [`Lost],
    as a claim from another process would. *)

val release : t -> string -> unit
(** Drop this writer's claim on a task without writing a record (the
    failure path; {!put} releases automatically). *)

val break_lease : t -> string -> unit
(** Unconditionally remove the task's arbitration lease, whoever holds it
    and whatever its age.  {!claim} only breaks leases older than
    [lease_ttl] {e by mtime}, so a lease stamped in the future — a holder
    with a skewed clock — never looks expired; this is the documented
    escape hatch for such visibly-stuck leases (used by
    {!Executor.run_shared} once its drain bound expires).  Breaking a {e
    live} holder's lease risks one duplicate execution, which the store's
    atomic record rename tolerates by design. *)

val put : t -> Record.t -> unit
(** Persist atomically under [results/<r.task>.json] (unique temp name +
    rename), index in memory, and release any claim this writer holds on
    the task; overwrites any previous record for the same task. *)

val records : t -> Record.t list
(** Every indexed record, sorted by (row, n, kind, task) for stable
    reports. *)

val count : t -> int

val log_event : t -> Json.t -> unit
(** Append one compact JSON line to [events.jsonl].  Object events gain
    ["pid"] and ["ts"] fields identifying the writer.  The line is emitted
    as a single [O_APPEND] write on a channel kept open for the store's
    lifetime, so concurrent writers' lines never interleave byte-wise. *)

val close : t -> unit
(** Close the telemetry channel (reopened lazily if logging resumes). *)
