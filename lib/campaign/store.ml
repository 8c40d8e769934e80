type t = {
  dir : string;
  results_dir : string;
  claims_dir : string;
  events_file : string;
  mutable events_fd : Unix.file_descr option;
  lease_ttl : float;
  pid : int;
  index : (string, Record.t) Hashtbl.t;
  held : (string, int) Hashtbl.t;
      (* task -> the domain of this process that claimed it.  The domains
         share one pid, hence one lease file, so [link] cannot tell them
         apart: they arbitrate here *)
  mu : Mutex.t;
}

(* Tmp-name disambiguator shared by every store handle in this process: two
   handles on the same directory (same pid) must still never reuse a name. *)
let tmp_counter = Atomic.make 0

let rec mkdirs path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdirs (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let dir t = t.dir
let lease_ttl t = t.lease_ttl

(* Crashed writers leave two kinds of debris: half-written [*.json.tmp*]
   files under results/ and lease files under claims/.  Both are junk once
   older than the lease: a live writer holds a tmp file for milliseconds and
   refreshes nothing, so age is the discriminator. *)
let sweep_stale ~ttl dirpath keep =
  match Sys.readdir dirpath with
  | exception Sys_error _ -> ()
  | entries ->
    let now = Unix.gettimeofday () in
    Array.iter
      (fun file ->
        if not (keep file) then begin
          let path = Filename.concat dirpath file in
          match Unix.stat path with
          | s when now -. s.Unix.st_mtime > ttl -> (
            try Unix.unlink path with Unix.Unix_error _ -> ())
          | _ | (exception Unix.Unix_error _) -> ()
        end)
      entries

let open_ ?(lease_ttl = 120.0) ~dir () =
  let results_dir = Filename.concat dir "results" in
  let claims_dir = Filename.concat dir "claims" in
  mkdirs results_dir;
  mkdirs claims_dir;
  sweep_stale ~ttl:lease_ttl results_dir (fun f ->
      not (contains_substring f ".json.tmp"));
  sweep_stale ~ttl:lease_ttl claims_dir (fun _ -> false);
  let index = Hashtbl.create 64 in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".json" then begin
        let path = Filename.concat results_dir file in
        match Result.bind (Json.of_string (read_file path)) Record.of_json with
        | Ok r -> Hashtbl.replace index r.Record.task r
        | Error e ->
          Printf.eprintf "campaign store: skipping unreadable %s (%s)\n%!" path e
        | exception Sys_error e ->
          Printf.eprintf "campaign store: skipping unreadable %s (%s)\n%!" path e
      end)
    (Sys.readdir results_dir);
  {
    dir;
    results_dir;
    claims_dir;
    events_file = Filename.concat dir "events.jsonl";
    events_fd = None;
    lease_ttl;
    pid = Unix.getpid ();
    index;
    held = Hashtbl.create 16;
    mu = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let result_path t task = Filename.concat t.results_dir (task ^ ".json")

(* The index is one writer's view; other processes rename records into
   results/ behind our back.  A miss therefore probes the disk before
   answering — this is the reconciliation step the claim protocol's losers
   rely on to re-read instead of re-execute. *)
let find_unlocked t task =
  match Hashtbl.find_opt t.index task with
  | Some _ as r -> r
  | None -> (
    match read_file (result_path t task) with
    | exception Sys_error _ -> None
    | contents -> (
      match Result.bind (Json.of_string contents) Record.of_json with
      | Ok r when r.Record.task = task ->
        Hashtbl.replace t.index task r;
        Some r
      | Ok _ | Error _ -> None))

let find t task = locked t (fun () -> find_unlocked t task)
let mem t task = locked t (fun () -> find_unlocked t task <> None)

(* ------------------------------------------------------------- claims -- *)

(* One lease per task: the holder's writer-unique file [claims/<task>.<pid>]
   hard-linked to the arbitration name [claims/<task>.lease].  [link] is
   atomic on POSIX, so exactly one contender wins even across processes; a
   lease whose mtime is older than [lease_ttl] counts as a crashed holder
   and may be broken by any contender. *)

let claim_paths t task =
  ( Filename.concat t.claims_dir (Printf.sprintf "%s.%d" task t.pid),
    Filename.concat t.claims_dir (task ^ ".lease") )

let same_inode a b =
  match (Unix.stat a, Unix.stat b) with
  | sa, sb -> sa.Unix.st_ino = sb.Unix.st_ino && sa.Unix.st_dev = sb.Unix.st_dev
  | exception Unix.Unix_error _ -> false

let release_unlocked t task =
  Hashtbl.remove t.held task;
  let own, lock = claim_paths t task in
  if same_inode own lock then (
    try Unix.unlink lock with Unix.Unix_error _ -> ());
  try Unix.unlink own with Unix.Unix_error _ -> ()

let release t task = locked t (fun () -> release_unlocked t task)

(* Escape hatch for visibly-stuck leases: [claim] only breaks a lease whose
   mtime is older than [lease_ttl], so a lease stamped in the future (a
   holder with a skewed clock, or a crash during a clock step) never looks
   expired and would block contenders forever.  Unconditionally unlinking
   the arbitration link frees the task; the worst case is one duplicate
   execution, which the store's atomic rename already tolerates. *)
let break_lease t task =
  locked t (fun () ->
      Hashtbl.remove t.held task;
      let _own, lock = claim_paths t task in
      try Unix.unlink lock with Unix.Unix_error _ -> ())

let claim t task =
  let self = (Domain.self () :> int) in
  let held_elsewhere () =
    match Hashtbl.find_opt t.held task with Some d -> d <> self | None -> false
  in
  locked t (fun () ->
      match find_unlocked t task with
      | Some r -> `Done r
      | None when held_elsewhere () -> `Lost
      | None ->
        let own, lock = claim_paths t task in
        write_file own (string_of_int t.pid ^ "\n");
        let rec acquire retries =
          match Unix.link own lock with
          | () -> (
            (* the previous holder may have renamed its record between our
               index miss and the link — hand it back instead of re-running *)
            match find_unlocked t task with
            | Some r ->
              release_unlocked t task;
              `Done r
            | None -> `Claimed)
          | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
            if same_inode own lock then `Claimed (* re-claim by the holder *)
            else begin
              let expired =
                match Unix.stat lock with
                | s -> Unix.gettimeofday () -. s.Unix.st_mtime > t.lease_ttl
                | exception Unix.Unix_error _ -> true (* vanished: free *)
              in
              if expired && retries > 0 then begin
                (try Unix.unlink lock with Unix.Unix_error _ -> ());
                acquire (retries - 1)
              end
              else begin
                (try Unix.unlink own with Unix.Unix_error _ -> ());
                match find_unlocked t task with
                | Some r -> `Done r
                | None -> `Lost
              end
            end
        in
        let outcome = acquire 2 in
        (match outcome with
         | `Claimed -> Hashtbl.replace t.held task self
         | `Done _ | `Lost -> ());
        outcome)

(* ------------------------------------------------------------ records -- *)

let put t (r : Record.t) =
  locked t (fun () ->
      let final = result_path t r.task in
      (* writer-unique tmp name: two processes racing on the same task each
         write their own file, and the rename is atomic on POSIX — a crashed
         campaign leaves whole records or swept-at-open tmp debris, never a
         truncated record under the final name *)
      let tmp =
        Printf.sprintf "%s.tmp.%d.%d" final t.pid
          (Atomic.fetch_and_add tmp_counter 1)
      in
      write_file tmp (Json.to_string_pretty (Record.to_json r) ^ "\n");
      Sys.rename tmp final;
      Hashtbl.replace t.index r.task r;
      release_unlocked t r.task)

let records t =
  locked t (fun () ->
      Hashtbl.fold (fun _ r acc -> r :: acc) t.index []
      |> List.sort (fun (a : Record.t) (b : Record.t) ->
             compare (a.row, a.n, a.kind, a.task) (b.row, b.n, b.kind, b.task)))

let count t = locked t (fun () -> Hashtbl.length t.index)

(* ------------------------------------------------------------- events -- *)

let log_event t json =
  locked t (fun () ->
      let fd =
        match t.events_fd with
        | Some fd -> fd
        | None ->
          let fd =
            Unix.openfile t.events_file
              [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
              0o644
          in
          t.events_fd <- Some fd;
          fd
      in
      let json =
        match json with
        | Json.Obj fields ->
          Json.Obj
            (fields
            @ [ ("pid", Json.Int t.pid); ("ts", Json.Float (Unix.gettimeofday ())) ])
        | j -> j
      in
      let line = Bytes.of_string (Json.to_string json ^ "\n") in
      let len = Bytes.length line in
      (* one O_APPEND write per event: concurrent writers' lines land whole,
         in some order, never interleaved byte-wise *)
      let written = Unix.single_write fd line 0 len in
      assert (written = len))

let close t =
  locked t (fun () ->
      match t.events_fd with
      | None -> ()
      | Some fd ->
        t.events_fd <- None;
        (try Unix.close fd with Unix.Unix_error _ -> ()))
