type outcome = {
  total : int;
  executed : int;
  cached : int;
  aborted : int;
  records : Record.t list;
  elapsed : float;
}

type event =
  | Campaign_started of { total : int; cached : int }
  | Task_started of { index : int; task : Task.t }
  | Task_yielded of { index : int; task : Task.t }
  | Task_finished of {
      index : int;
      task : Task.t;
      record : Record.t;
      cached : bool;
    }
  | Campaign_finished of outcome

let json_of_event = function
  | Campaign_started { total; cached } ->
    Json.Obj
      [
        ("event", Json.String "campaign_started");
        ("total", Json.Int total);
        ("cached", Json.Int cached);
      ]
  | Task_started { index; task } ->
    Json.Obj
      [
        ("event", Json.String "task_started");
        ("index", Json.Int index);
        ("task", Json.String (Task.fingerprint task));
        ("describe", Json.String (Task.describe task));
      ]
  | Task_yielded { index; task } ->
    Json.Obj
      [
        ("event", Json.String "task_yielded");
        ("index", Json.Int index);
        ("task", Json.String (Task.fingerprint task));
      ]
  | Task_finished { index; task = _; record; cached } ->
    Json.Obj
      [
        ("event", Json.String "task_finished");
        ("index", Json.Int index);
        ("task", Json.String record.Record.task);
        ("status", Json.String (Record.status_name record.status));
        ("configs", Json.Int record.configs);
        ("elapsed", Json.Float record.elapsed);
        ("cached", Json.Bool cached);
      ]
  | Campaign_finished o ->
    Json.Obj
      [
        ("event", Json.String "campaign_finished");
        ("total", Json.Int o.total);
        ("executed", Json.Int o.executed);
        ("cached", Json.Int o.cached);
        ("aborted", Json.Int o.aborted);
        ("elapsed", Json.Float o.elapsed);
      ]

let run ?(domains = 1) ?(use_cache = true) ?(stop = fun () -> false)
    ?(on_event = fun _ -> ()) ~store tasks =
  let t0 = Unix.gettimeofday () in
  let items =
    List.mapi (fun index task -> (index, task, Task.fingerprint task)) tasks
  in
  let total = List.length items in
  let cached, pending =
    List.partition_map
      (fun (index, task, fp) ->
        match if use_cache then Store.find store fp else None with
        | Some record -> Either.Left (index, task, record)
        | None -> Either.Right (index, task))
      items
  in
  (* the store's own lock serializes the telemetry lines; the user callback
     runs outside any lock so a slow progress printer cannot serialize the
     worker domains *)
  let emit ev =
    Store.log_event store (json_of_event ev);
    on_event ev
  in
  emit (Campaign_started { total; cached = List.length cached });
  let results = Array.make total None in
  List.iter
    (fun (index, task, record) ->
      results.(index) <- Some record;
      emit (Task_finished { index; task; record; cached = true }))
    cached;
  let queue = Array.of_list pending in
  let next = Atomic.make 0 in
  let executed = Atomic.make 0 in
  (* set by the pool when a worker raises (from [Store.put], the telemetry
     write or [on_event]): the other workers start no further task *)
  let failed = Atomic.make false in
  let worker () =
    let continue = ref true in
    while !continue do
      if stop () || Atomic.get failed then continue := false
      else begin
        let i = Atomic.fetch_and_add next 1 in
        if i >= Array.length queue then continue := false
        else begin
          let index, task = queue.(i) in
          emit (Task_started { index; task });
          let record = Task.run task in
          Store.put store record;
          results.(index) <- Some record;
          Atomic.incr executed;
          emit (Task_finished { index; task; record; cached = false })
        end
      end
    done
  in
  Pool.run
    ~width:(min domains (Array.length queue))
    ~abort:(fun () -> Atomic.set failed true)
    worker;
  let executed = Atomic.get executed in
  let records =
    Array.to_list results |> List.filter_map (fun r -> r)
  in
  let outcome =
    {
      total;
      executed;
      cached = List.length cached;
      aborted = total - executed - List.length cached;
      records;
      elapsed = Unix.gettimeofday () -. t0;
    }
  in
  emit (Campaign_finished outcome);
  outcome

(* ------------------------------------------------- shared-store worker -- *)

(* The `campaign worker` engine: N OS processes share one store directory
   and one spec; instead of statically partitioning the task list, each
   pending task is claimed through the store's lease protocol.  Claim
   losers park the task and poll for the winner's record (re-claiming only
   if the winner's lease expires), so a task is executed once fleet-wide in
   the common case and at most once per lease expiry in the worst. *)
let run_shared ?(domains = 1) ?(stop = fun () -> false) ?(on_event = fun _ -> ())
    ?(poll_interval = 0.05) ?drain_timeout ~store tasks =
  let t0 = Unix.gettimeofday () in
  (* Two lease TTLs covers the worst honest case: a winner that claimed a
     task just before we parked it has a full TTL to finish, and a crashed
     winner's lease takes at most one more TTL to look expired. *)
  let drain_timeout =
    match drain_timeout with
    | Some s -> s
    | None -> Stdlib.max (2.0 *. Store.lease_ttl store) 1.0
  in
  let items =
    List.mapi (fun index task -> (index, task, Task.fingerprint task)) tasks
  in
  let total = List.length items in
  let emit ev =
    Store.log_event store (json_of_event ev);
    on_event ev
  in
  let cached, pending =
    List.partition_map
      (fun (index, task, fp) ->
        match Store.find store fp with
        | Some record -> Either.Left (index, task, record)
        | None -> Either.Right (index, task, fp))
      items
  in
  emit (Campaign_started { total; cached = List.length cached });
  let results = Array.make total None in
  List.iter
    (fun (index, task, record) ->
      results.(index) <- Some record;
      emit (Task_finished { index; task; record; cached = true }))
    cached;
  (* start each worker process at a pid-dependent offset so a fleet
     launched simultaneously contends on different tasks, not the head *)
  let queue = Array.of_list (Spec.rotate ~by:(Unix.getpid ()) pending) in
  let next = Atomic.make 0 in
  let executed = Atomic.make 0 in
  let deduped = Atomic.make 0 in
  let stopped = Atomic.make false in
  let settle (index, task) record ~ran =
    results.(index) <- Some record;
    Atomic.incr (if ran then executed else deduped);
    emit (Task_finished { index; task; record; cached = not ran })
  in
  (* Returns false iff another live writer holds the task's lease. *)
  let resolve ~announce_yield (index, task, fp) =
    match Store.claim store fp with
    | `Done record ->
      settle (index, task) record ~ran:false;
      true
    | `Lost ->
      if announce_yield then emit (Task_yielded { index; task });
      false
    | `Claimed ->
      emit (Task_started { index; task });
      let record = Task.run task in
      Store.put store record;
      settle (index, task) record ~ran:true;
      true
  in
  let dmu = Mutex.create () in
  let deferred = ref [] in
  let worker () =
    let continue = ref true in
    while !continue do
      if Atomic.get stopped then continue := false
      else if stop () then begin
        Atomic.set stopped true;
        continue := false
      end
      else begin
        let i = Atomic.fetch_and_add next 1 in
        if i >= Array.length queue then continue := false
        else if not (resolve ~announce_yield:true queue.(i)) then begin
          Mutex.lock dmu;
          deferred := queue.(i) :: !deferred;
          Mutex.unlock dmu
        end
      end
    done
  in
  (* a worker that raises stops the others through [stopped] *)
  Pool.run
    ~width:(min domains (Array.length queue))
    ~abort:(fun () -> Atomic.set stopped true)
    worker;
  (* waiting room: tasks some other writer holds.  Poll for their records;
     if a holder dies, its lease expires and the re-claim executes here.
     The poll is bounded by [drain_timeout]: a lease whose mtime sits in
     the future (clock-skewed holder) never looks expired to [Store.claim],
     so an unbounded loop could spin forever.  Past the bound each stuck
     lease is force-broken ([Store.break_lease]) and the task resolved one
     final time — executed here, or returned unresolved (counted
     [aborted]) if yet another writer snatches the freed lease. *)
  let drain_deadline = Unix.gettimeofday () +. drain_timeout in
  let rec drain backlog =
    if backlog <> [] && not (stop () || Atomic.get stopped) then begin
      let unresolved =
        List.filter
          (fun item -> not (resolve ~announce_yield:false item))
          backlog
      in
      if unresolved <> [] then begin
        if Unix.gettimeofday () > drain_deadline then
          List.iter
            (fun ((_, _, fp) as item) ->
              Store.break_lease store fp;
              ignore (resolve ~announce_yield:false item))
            unresolved
        else begin
          Unix.sleepf poll_interval;
          drain unresolved
        end
      end
    end
  in
  drain !deferred;
  let executed = Atomic.get executed in
  let cached = List.length cached + Atomic.get deduped in
  let records = Array.to_list results |> List.filter_map (fun r -> r) in
  let outcome =
    {
      total;
      executed;
      cached;
      aborted = total - executed - cached;
      records;
      elapsed = Unix.gettimeofday () -. t0;
    }
  in
  emit (Campaign_finished outcome);
  outcome
