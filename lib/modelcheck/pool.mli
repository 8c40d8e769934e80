(** A fork–join worker pool whose calling domain is one of the workers. *)

val run : width:int -> abort:(unit -> unit) -> (unit -> unit) -> unit
(** [run ~width ~abort work] runs [work] on the calling domain and on
    [width - 1] spawned helper domains (none when [width <= 1]), and
    returns once every copy has returned.  [work] is expected to pull its
    share from state the copies share, such as an atomic counter.

    On the first exception raised by any copy, or by a failed spawn,
    [abort] is called once, so that [work] can tell the other copies to
    stop; [run] then joins every helper it spawned and re-raises that
    exception with its backtrace.  Later exceptions are dropped.  No
    helper outlives the call.

    Each helper grows its minor heap to 4 M words before working, so each
    reserves 32 MB for the call's duration; the calling domain's GC
    settings are never touched. *)
