(* Composable checked properties: finite-state monitors over the exploration
   event stream.  See observer.mli for the soundness contract; the short
   version is that states are immutable, violations latch into sink states,
   and [digest], together with the configuration, must determine the
   verdict and future behaviour because the memoized engines fold it into
   the transposition key. *)

type probe_outcome =
  | Probe_decided of { pid : int; decisions : (int * int) list }
  | Probe_stuck of { pid : int; fuel : int }
  | Probe_starved of { pid : int; straggler : int }

let probe_pid = function
  | Probe_decided { pid; _ } | Probe_stuck { pid; _ } | Probe_starved { pid; _ } -> pid

type verdict =
  | Ok
  | Violation of { kind : string; liveness : bool; message : string }

module type S = sig
  type state

  val name : string
  val wants_probes : bool
  val wants_accesses : bool
  val commute_safe : bool
  val symmetric_safe : bool
  val init : n:int -> inputs:int array -> state
  val on_step : state -> pid:int -> state
  val on_access : state -> pid:int -> loc:int -> value:int option -> state
  val on_decide : state -> pid:int -> value:int -> state
  val on_crash : state -> pid:int -> state
  val on_probe : state -> probe_outcome -> state
  val digest : state -> int
  val verdict : state -> verdict
end

type t = (module S)

let name (module O : S) = O.name

(* Same 63-bit multiplicative mixing family as [Machine.fingerprint] and
   [Task.digest]. *)
let mix h v = (h lxor (v land max_int)) * 0x100000001b3 land max_int

(* ------------------------------------------------------ driver runtime -- *)

module Run = struct
  type packed = P : (module S with type state = 's) * 's -> packed

  (* [digest] and [verdict] are pure functions of the members' states,
     cached here and recomputed only when some member's state changes: the
     engines read both at every visited configuration, while most events
     change no state at all. *)
  type t = {
    packs : packed array;
    digest : int;
    verdict : (string * bool * string) option;
    wants_probes : bool;
    wants_accesses : bool;
  }

  let digest_of packs =
    Array.fold_left
      (fun acc (P ((module O), s)) -> mix acc (O.digest s))
      0x243F6A8885A308D3 (* π, an arbitrary non-zero seed *)
      packs

  let verdict_of packs =
    let len = Array.length packs in
    let rec go i =
      if i >= len then None
      else begin
        let (P ((module O), s)) = packs.(i) in
        match O.verdict s with
        | Ok -> go (i + 1)
        | Violation { kind; liveness; message } -> Some (kind, liveness, message)
      end
    in
    go 0

  let make set ~n ~inputs =
    let packs =
      Array.of_list
        (List.map (fun (module O : S) -> P ((module O), O.init ~n ~inputs)) set)
    in
    {
      packs;
      digest = digest_of packs;
      verdict = verdict_of packs;
      wants_probes = List.exists (fun (module O : S) -> O.wants_probes) set;
      wants_accesses = List.exists (fun (module O : S) -> O.wants_accesses) set;
    }

  let wants_probes t = t.wants_probes
  let wants_accesses t = t.wants_accesses

  (* One event, as a closed function of its two arguments: the handlers
     below capture nothing, so feeding an event allocates no closure. *)
  type ('a, 'b) app = { f : 's. (module S with type state = 's) -> 's -> 'a -> 'b -> 's }
  [@@unboxed]

  (* Transition members [i..]: [packs] is [orig] until the first member
     whose state changes copies it.  A top-level loop, so no closure is
     allocated per event. *)
  let rec transition orig packs app a b i =
    if i = Array.length packs then packs
    else begin
      let (P ((module O), s)) = packs.(i) in
      let s' = app.f (module O) s a b in
      if s' == s then transition orig packs app a b (i + 1)
      else begin
        let packs = if packs == orig then Array.copy packs else packs in
        packs.(i) <- P ((module O), s');
        transition orig packs app a b (i + 1)
      end
    end

  (* Transition every member; when no state changes, [t] itself is
     returned and nothing is allocated. *)
  let update t app a b =
    let packs = transition t.packs t.packs app a b 0 in
    if packs == t.packs then t
    else { t with packs; digest = digest_of packs; verdict = verdict_of packs }

  let on_step =
    {
      f =
        (fun (type s) (module O : S with type state = s) st pid () -> O.on_step st ~pid);
    }

  let on_access =
    {
      f =
        (fun (type s) (module O : S with type state = s) st pid (loc, value) ->
          O.on_access st ~pid ~loc ~value);
    }

  let on_decide =
    {
      f =
        (fun (type s) (module O : S with type state = s) st pid value ->
          O.on_decide st ~pid ~value);
    }

  let on_crash =
    {
      f =
        (fun (type s) (module O : S with type state = s) st pid () -> O.on_crash st ~pid);
    }

  let on_probe =
    {
      f =
        (fun (type s) (module O : S with type state = s) st outcome () ->
          O.on_probe st outcome);
    }

  let step t ~pid = update t on_step pid ()
  let access t ~pid ~loc ~value = update t on_access pid (loc, value)
  let decide t ~pid ~value = update t on_decide pid value
  let crash t ~pid = update t on_crash pid ()
  let probe t outcome = update t on_probe outcome ()
  let digest t = t.digest
  let verdict t = t.verdict

  let first_unsafe ~commute ~symmetric set =
    List.find_map
      (fun (module O : S) ->
        if commute && not O.commute_safe then Some (O.name, "commute")
        else if symmetric && not O.symmetric_safe then Some (O.name, "symmetric")
        else None)
      set
end

(* -------------------------------------------------- built-in observers -- *)

(* Agreement over the decisions the configuration holds: [holders] is the
   set of pids (a bitmask) holding a decision, all of them [value].  A crash
   takes its victim's decision with it, so a decision lost to a crash stops
   counting.  A conflict is reported the way a scan of the held decisions
   in pid order finds it — the lowest pid's value is the reference, the
   first pid holding another value is named — and a probe's complete
   decision set (sorted by pid) is scanned the same way.

   Until it latches, the state is a function of the configuration's held
   decisions, which the machine fingerprint covers; so the digest adds
   nothing but the violation sink to the transposition key.  The verdict
   only depends on which values are held, never on which pids hold them,
   so the symmetric reduction is safe too. *)
module Agreement = struct
  type state = { value : int; holders : int; bad : string option }

  let name = "agreement"
  let wants_probes = true
  let wants_accesses = false
  let commute_safe = true
  let symmetric_safe = true
  let init ~n:_ ~inputs:_ = { value = 0; holders = 0; bad = None }
  let on_step st ~pid:_ = st
  let on_access st ~pid:_ ~loc:_ ~value:_ = st

  let conflict st pid v first =
    {
      st with
      bad =
        Some
          (Printf.sprintf "agreement: process %d decided %d but %d was also decided" pid v
             first);
    }

  let rec lowest holders pid =
    if holders land (1 lsl pid) <> 0 then pid else lowest holders (pid + 1)

  let on_decide st ~pid ~value =
    if Option.is_some st.bad then st
    else if st.holders = 0 then { st with value; holders = 1 lsl pid }
    else if value = st.value then { st with holders = st.holders lor (1 lsl pid) }
    else begin
      let low = lowest st.holders 0 in
      if pid < low then conflict st low st.value value else conflict st pid value st.value
    end

  let on_crash st ~pid =
    if Option.is_some st.bad || st.holders land (1 lsl pid) = 0 then st
    else { st with holders = st.holders land lnot (1 lsl pid) }

  let rec differing (first : int) = function
    | [] -> None
    | (pid, v) :: rest -> if v <> first then Some (pid, v) else differing first rest

  let on_probe st = function
    | Probe_decided { decisions = (_, first) :: rest; _ } when Option.is_none st.bad ->
      (match differing first rest with None -> st | Some (pid, v) -> conflict st pid v first)
    | Probe_decided _ | Probe_stuck _ | Probe_starved _ -> st

  let digest st = if Option.is_none st.bad then 1 else 0x7f1 (* violation sink *)

  let verdict st =
    match st.bad with
    | None -> Ok
    | Some message -> Violation { kind = "agreement"; liveness = false; message }
end

(* Validity: every decided value was proposed.  Each decision is judged
   when it is made, post-crash re-decisions included, so every decision a
   configuration holds has been judged; so is every decision of a probe's
   decision set (in pid order — a differing invalid decision trips
   agreement first).  The first unproposed value latches.  Instantiated
   twice: as plain validity and, under its own kind, as the crash–recovery
   model's validity over every incarnation's decision. *)
module Validity (K : sig
  val kind : string
end) =
struct
  type state = { inputs : int array; bad : string option }

  let name = K.kind
  let wants_probes = true
  let wants_accesses = false
  let commute_safe = true
  let symmetric_safe = true
  let init ~n:_ ~inputs = { inputs = Array.copy inputs; bad = None }
  let on_step st ~pid:_ = st
  let on_access st ~pid:_ ~loc:_ ~value:_ = st

  let rec proposed inputs (v : int) i =
    i < Array.length inputs && (inputs.(i) = v || proposed inputs v (i + 1))

  let latch st v =
    if Option.is_some st.bad || proposed st.inputs v 0 then st
    else
      { st with bad = Some (Printf.sprintf "%s: %d decided but never proposed" K.kind v) }

  let rec latch_all st = function [] -> st | (_, v) :: rest -> latch_all (latch st v) rest
  let on_decide st ~pid:_ ~value = latch st value
  let on_crash st ~pid:_ = st

  let on_probe st = function
    | Probe_decided { decisions; _ } -> latch_all st decisions
    | Probe_stuck _ | Probe_starved _ -> st

  let digest st = if Option.is_none st.bad then 3 else 0x7f2

  let verdict st =
    match st.bad with
    | None -> Ok
    | Some message -> Violation { kind = K.kind; liveness = false; message }
end

(* Obstruction-freedom as a checked property: the probe chain must complete.
   Stateless until a probe fails. *)
module Solo_termination = struct
  type state = (string * string) option (* kind, message *)

  let name = "solo-termination"
  let wants_probes = true
  let wants_accesses = false
  let commute_safe = true (* probes run at every visited configuration *)
  let symmetric_safe = true
  let init ~n:_ ~inputs:_ = None
  let on_step st ~pid:_ = st
  let on_access st ~pid:_ ~loc:_ ~value:_ = st
  let on_decide st ~pid:_ ~value:_ = st
  let on_crash st ~pid:_ = st

  let on_probe st outcome =
    match (st, outcome) with
    | Some _, _ | None, Probe_decided _ -> st
    | None, Probe_stuck { pid; fuel } ->
      Some
        ( "obstruction-freedom",
          Printf.sprintf
            "obstruction-freedom: process %d did not decide solo within %d steps" pid fuel
        )
    | None, Probe_starved { straggler; _ } ->
      Some
        ( "termination",
          Printf.sprintf "termination: process %d still undecided after solo runs"
            straggler )

  let digest = function None -> 5 | Some _ -> 0x7f3

  let verdict = function
    | None -> Ok
    | Some (kind, message) -> Violation { kind; liveness = true; message }
end

(* Lockout under [Sched.fair] semantics.  Per pid: [own] steps taken (capped
   at [patience]) and [gap] steps by others since its last step (capped one
   past [fair_bound]); the monitor disarms permanently once any undecided
   process's gap exceeds the bound — such an execution is not fair, so it
   cannot witness lockout.  The caps make the monitor finite-state, and the
   verdict is a pure function of the state (checked at every visited
   configuration), so no latch is needed. *)
module type LOCKOUT_PARAMS = sig
  val fair_bound : int
  val patience : int
end

module Lockout (Params : LOCKOUT_PARAMS) = struct
  type pstate = { own : int; gap : int; decided : bool }
  type state = { procs : pstate array; armed : bool }

  let name = "lockout"
  let wants_probes = false
  let wants_accesses = false
  let commute_safe = false (* the fairness envelope is interleaving-order sensitive *)
  let symmetric_safe = false (* pid-indexed state *)

  let init ~n ~inputs:_ =
    { procs = Array.make n { own = 0; gap = 0; decided = false }; armed = true }

  let on_step st ~pid =
    if not st.armed then st
    else begin
      let procs = Array.copy st.procs in
      let armed = ref true in
      Array.iteri
        (fun q p ->
          if not p.decided then
            if q = pid then
              procs.(q) <- { p with own = Stdlib.min (p.own + 1) Params.patience; gap = 0 }
            else begin
              let gap = Stdlib.min (p.gap + 1) (Params.fair_bound + 1) in
              if gap > Params.fair_bound then armed := false;
              procs.(q) <- { p with gap }
            end)
        st.procs;
      { procs; armed = !armed }
    end

  let on_access st ~pid:_ ~loc:_ ~value:_ = st

  let on_decide st ~pid ~value:_ =
    if not st.armed then st
    else begin
      let procs = Array.copy st.procs in
      procs.(pid) <- { (procs.(pid)) with decided = true };
      { st with procs }
    end

  let on_crash st ~pid:_ = st
  let on_probe st _ = st

  let digest st =
    if not st.armed then 7
    else
      Array.fold_left
        (fun acc p -> mix acc ((p.own * 4) + (p.gap * 2) + if p.decided then 1 else 0))
        11 st.procs

  let verdict st =
    if not st.armed then Ok
    else begin
      let n = Array.length st.procs in
      let rec go pid =
        if pid >= n then Ok
        else begin
          let p = st.procs.(pid) in
          if (not p.decided) && p.own >= Params.patience then
            Violation
              {
                kind = "lockout";
                liveness = true;
                message =
                  Printf.sprintf
                    "lockout: process %d took %d steps under fair scheduling (bound %d) \
                     without deciding"
                    pid p.own Params.fair_bound;
              }
          else go (pid + 1)
        end
      in
      go 0
    end
end

let lockout ?(fair_bound = 2) ?(patience = 8) () : t =
  let module L = Lockout (struct
    let fair_bound = fair_bound
    let patience = patience
  end) in
  (module L)

(* Max-register monotonicity: per location, the integer values observed by
   accesses never decrease.  Only int-observable results are tracked, so a
   unit-returning write is invisible and the monitor effectively watches the
   read stream.  The per-location last-value map is kept sorted by location
   so the digest is canonical. *)
module Maxreg_monotonic = struct
  type state = { last : (int * int) list; bad : string option }

  let name = "maxreg-monotonic"
  let wants_probes = false
  let wants_accesses = true

  (* Commute-safe: different-location reorderings preserve each location's
     observation sequence, and a same-location pair may only be declared
     commuting when both instructions return the same results in either
     order ([Iset.S.commutes] is exact), so no reordering the reduction
     prunes can flip a monotonicity comparison. *)
  let commute_safe = true
  let symmetric_safe = true (* per-location state, no pids *)
  let init ~n:_ ~inputs:_ = { last = []; bad = None }
  let on_step st ~pid:_ = st

  let rec put loc v = function
    | [] -> [ (loc, v) ]
    | (l, _) :: rest when l = loc -> (loc, v) :: rest
    | (l, _) :: _ as list when l > loc -> (loc, v) :: list
    | entry :: rest -> entry :: put loc v rest

  let on_access st ~pid:_ ~loc ~value =
    match (st.bad, value) with
    | Some _, _ | None, None -> st
    | None, Some v ->
      (match List.assoc_opt loc st.last with
       | Some prev when v < prev ->
         {
           st with
           bad =
             Some
               (Printf.sprintf
                  "maxreg-monotonic: location %d observed %d after already observing %d"
                  loc v prev);
         }
       | Some prev when v = prev -> st
       | _ -> { st with last = put loc v st.last })

  let on_decide st ~pid:_ ~value:_ = st
  let on_crash st ~pid:_ = st
  let on_probe st _ = st

  let digest st =
    match st.bad with
    | Some _ -> 0x7f4
    | None -> List.fold_left (fun acc (l, v) -> mix (mix acc l) v) 13 st.last

  let verdict st =
    match st.bad with
    | None -> Ok
    | Some message -> Violation { kind = "maxreg-monotonic"; liveness = false; message }
end

(* Recoverable agreement (Golab's crash–recovery model): agreement across
   incarnations.  Per pid the first decision is remembered; a later decide
   by the same pid is a re-decision by a post-crash incarnation and must
   match, and decisions across pids must agree as usual.  Functionally this
   refines [Agreement]'s verdict with {e which} kind of conflict occurred —
   the cross-incarnation flip is the signature failure of non-recoverable
   protocols.  Crash-free the monitor never sees a second decide for a pid,
   so it degenerates to plain agreement. *)
module Recoverable_agreement = struct
  (* [decided] is sorted by pid so the digest is canonical *)
  type state = { decided : (int * int) list; bad : string option }

  let name = "recoverable-agreement"
  let wants_probes = true
  let wants_accesses = false
  let commute_safe = true (* verdict is a function of the per-pid decision sequences *)
  let symmetric_safe = false (* pid-indexed state *)
  let init ~n:_ ~inputs:_ = { decided = []; bad = None }
  let on_step st ~pid:_ = st
  let on_access st ~pid:_ ~loc:_ ~value:_ = st

  let rec put pid v = function
    | [] -> [ (pid, v) ]
    | (p, _) :: _ as list when p > pid -> (pid, v) :: list
    | entry :: rest -> entry :: put pid v rest

  let on_decide st ~pid ~value =
    match st.bad with
    | Some _ -> st
    | None ->
      (match List.assoc_opt pid st.decided with
       | Some prev when prev <> value ->
         {
           st with
           bad =
             Some
               (Printf.sprintf
                  "recoverable-agreement: process %d decided %d after its pre-crash \
                   incarnation decided %d"
                  pid value prev);
         }
       | Some _ -> st
       | None ->
         (match
            List.find_map
              (fun (q, w) -> if w <> value then Some (q, w) else None)
              st.decided
          with
          | Some (q, w) ->
            {
              st with
              bad =
                Some
                  (Printf.sprintf
                     "recoverable-agreement: process %d decided %d but process %d \
                      decided %d"
                     pid value q w);
            }
          | None -> { st with decided = put pid value st.decided }))

  (* a crash erases nothing here: the next incarnation's decision is judged
     against every earlier one *)
  let on_crash st ~pid:_ = st

  (* a probe's complete decision set is crash-free from here on, so only the
     cross-pid half applies *)
  let on_probe st = function
    | Probe_decided { decisions; _ } ->
      List.fold_left (fun st (pid, value) -> on_decide st ~pid ~value) st decisions
    | Probe_stuck _ | Probe_starved _ -> st

  let digest st =
    match st.bad with
    | Some _ -> 0x7f5
    | None -> List.fold_left (fun acc (p, v) -> mix (mix acc p) v) 19 st.decided

  let verdict st =
    match st.bad with
    | None -> Ok
    | Some message ->
      Violation { kind = "recoverable-agreement"; liveness = false; message }
end

let agreement : t = (module Agreement)
let validity : t =
  (module Validity (struct
    let kind = "validity"
  end))
let solo_termination : t = (module Solo_termination)
let maxreg_monotonic : t = (module Maxreg_monotonic)
let recoverable_agreement : t = (module Recoverable_agreement)
let recoverable_validity : t =
  (module Validity (struct
    let kind = "recoverable-validity"
  end))
let defaults = [ agreement; validity; solo_termination ]

(* -------------------------------------------------------- combinators -- *)

let all set : t =
  let module A = struct
    type state = Run.t

    let name =
      "all(" ^ String.concat "," (List.map (fun (module O : S) -> O.name) set) ^ ")"

    let wants_probes = List.exists (fun (module O : S) -> O.wants_probes) set
    let wants_accesses = List.exists (fun (module O : S) -> O.wants_accesses) set
    let commute_safe = List.for_all (fun (module O : S) -> O.commute_safe) set
    let symmetric_safe = List.for_all (fun (module O : S) -> O.symmetric_safe) set
    let init ~n ~inputs = Run.make set ~n ~inputs
    let on_step st ~pid = Run.step st ~pid
    let on_access st ~pid ~loc ~value = Run.access st ~pid ~loc ~value
    let on_decide st ~pid ~value = Run.decide st ~pid ~value
    let on_crash st ~pid = Run.crash st ~pid
    let on_probe st outcome = Run.probe st outcome
    let digest = Run.digest

    let verdict st =
      match Run.verdict st with
      | None -> Ok
      | Some (kind, liveness, message) -> Violation { kind; liveness; message }
  end in
  (module A)

let named rename (module O : S) : t =
  let module N = struct
    include O

    let name = rename

    let verdict st =
      match O.verdict st with
      | Ok -> Ok
      | Violation v -> Violation { v with kind = rename }
  end in
  (module N)

let per_pid (module O : S) : t =
  let module PP = struct
    type state = O.state array

    let name = "per-pid(" ^ O.name ^ ")"
    let wants_probes = O.wants_probes
    let wants_accesses = O.wants_accesses

    (* Filtering to one pid's own event subsequence commutes with reordering
       independent steps (two steps of the same process are never reordered),
       so the inner observer's commute-safety carries over; the product is
       pid-indexed, so it is never symmetric-safe. *)
    let commute_safe = O.commute_safe
    let symmetric_safe = false
    let init ~n ~inputs = Array.init n (fun _ -> O.init ~n ~inputs)

    let route st pid f =
      if pid < 0 || pid >= Array.length st then st
      else begin
        let s = st.(pid) in
        let s' = f s in
        if s' == s then st
        else begin
          let st = Array.copy st in
          st.(pid) <- s';
          st
        end
      end

    let on_step st ~pid = route st pid (fun s -> O.on_step s ~pid)
    let on_access st ~pid ~loc ~value = route st pid (fun s -> O.on_access s ~pid ~loc ~value)
    let on_decide st ~pid ~value = route st pid (fun s -> O.on_decide s ~pid ~value)
    let on_crash st ~pid = route st pid (fun s -> O.on_crash s ~pid)
    let on_probe st outcome = route st (probe_pid outcome) (fun s -> O.on_probe s outcome)
    let digest st = Array.fold_left (fun acc s -> mix acc (O.digest s)) 17 st

    let verdict st =
      let n = Array.length st in
      let rec go i =
        if i >= n then Ok
        else begin
          match O.verdict st.(i) with
          | Ok -> go (i + 1)
          | Violation v ->
            Violation { v with message = Printf.sprintf "p%d: %s" i v.message }
        end
      in
      go 0
  end in
  (module PP)

(* ----------------------------------------------------------- registry -- *)

let known =
  [
    ("agreement", "no two processes decide different values");
    ("validity", "every decided value was some process's input");
    ("solo-termination", "every solo probe decides (obstruction-freedom) and the probe chain terminates");
    ("lockout", "a fairly scheduled process decides within its patience (liveness under Sched.fair)");
    ("maxreg-monotonic", "integer values observed per location never decrease");
    ("recoverable-agreement", "decisions agree across processes and across crash-recovery incarnations");
    ("recoverable-validity", "every incarnation's decision was some process's input");
  ]

let of_name = function
  | "agreement" -> Stdlib.Ok agreement
  | "validity" -> Stdlib.Ok validity
  | "solo-termination" -> Stdlib.Ok solo_termination
  | "lockout" -> Stdlib.Ok (lockout ())
  | "maxreg-monotonic" -> Stdlib.Ok maxreg_monotonic
  | "recoverable-agreement" -> Stdlib.Ok recoverable_agreement
  | "recoverable-validity" -> Stdlib.Ok recoverable_validity
  | other ->
    Stdlib.Error
      (Printf.sprintf "unknown observer %S (known: %s, or `default')" other
         (String.concat ", " (List.map fst known)))

let of_names names =
  List.fold_right
    (fun name acc ->
      match acc with
      | Stdlib.Error _ as e -> e
      | Stdlib.Ok tail ->
        (match name with
         | "default" -> Stdlib.Ok (defaults @ tail)
         | name ->
           (match of_name name with
            | Stdlib.Ok o -> Stdlib.Ok (o :: tail)
            | Stdlib.Error _ as e -> e)))
    names (Stdlib.Ok [])
