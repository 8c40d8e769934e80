(* Pid-symmetry certification: lockstep unfolding under a small budget
   first, the CFG quotient when that cannot conclude, lockstep under the
   full budget last.

   [Machine.canonical_fingerprint] (and hence [Explore]'s [symmetric]
   reduction) treats processes with equal inputs as interchangeable.  That is
   sound only when the protocol's code is oblivious to [pid] given equal
   inputs: both processes must issue the same accesses to the same locations
   and decide the same values whenever they have observed the same results.

   Lockstep unfolding walks the {!Model.Proc.t} free monad of
   [proc ~pid:a ~input] and [proc ~pid:b ~input] together: at each [Step]
   the two access lists must agree location-by-location and op-by-op
   (compared on printed form — ops print injectively in this codebase); then
   every enumerable result vector — results obtained by applying each op to
   the instruction set's sampled cells — is fed to both continuations and
   the comparison recurses.  Continuations that raise are compared on the
   printed exception: protocols guard infeasible branches with
   [invalid_arg], and two processes rejecting a branch identically is
   symmetric behaviour.

   The lockstep certificate is {e depth-bounded}: [Certified_symmetric
   { depth; _ }] means the two processes are indistinguishable through
   [depth] steps each.  That is exactly what a bounded exploration needs — a
   run that gives no process more than [depth] steps never observes
   behaviour beyond the certified prefix — so reaching the depth limit with
   every branch matched is a successful (bounded) certification, not a
   failure.

   The CFG route ({!Cfg}) interns both pids' unfoldings into {e one} node
   table, so the pair is symmetric iff their roots land on the same node —
   signature equality plus the build's merge-stability verification stand
   in for an explicit lockstep walk, and retry loops that defeat bounded
   unfolding (node-budget explosions at depth 10+) are ordinary back-edges
   there.  It certifies through any requested depth at once, and is
   reported at the depth the caller asked for.  Distinct roots mean the
   unfoldings differ observably within the signature depth, i.e. a genuine
   asymmetry; a truncated build certifies nothing.

   [certify_staged] holds the one order both entry points use: lockstep
   under [quick_budget] nodes per pair, which decides every registry row at
   lint's depth in milliseconds; the CFG route only when that returns
   [Unknown]; lockstep under the full budget when the CFG is truncated too.
   A lockstep walk that concludes within a budget concludes identically
   under any larger one, so the first stage returns what the last would.

   Exhausting a node, width or work budget is different from reaching the
   depth: branches were left {e unexplored} before the depth was covered,
   so nothing can be claimed and the verdict is [Unknown] — never a
   certificate. *)

type witness = { pid_a : int; pid_b : int; input : int; detail : string }

type verdict =
  | Certified_symmetric of { depth : int; pairs : int }
      (** Every compared pair of unfoldings matched through [depth] steps
          per process; [pairs] (pid-pair × input) combinations were
          compared.  Sound for any exploration that gives no process more
          than [depth] steps. *)
  | Asymmetric of witness
  | Unknown of string
      (** Node or width budget exhausted before the depth was covered:
          branches were left unexplored, so no claim is made. *)

let pp_witness ppf w =
  Format.fprintf ppf "pids %d/%d with input %d: %s" w.pid_a w.pid_b w.input w.detail

let pp_verdict ppf = function
  | Certified_symmetric { depth; pairs } ->
    Format.fprintf ppf "certified pid-symmetric (depth %d, %d pair runs)" depth pairs
  | Asymmetric w -> Format.fprintf ppf "ASYMMETRIC: %a" pp_witness w
  | Unknown reason -> Format.fprintf ppf "unknown (%s)" reason

let certified = function Certified_symmetric _ -> true | _ -> false

let default_depth = 5
let default_budget = 500_000
let width_cap = 256

exception Diverged of string
exception Out_of_budget of string

(* Compare the unfoldings of one pid pair at one shared input.  [Ok ()] when
   all explored branches match. *)
let certify_pair (module P : Consensus.Proto.S) ~n ~pid_a ~pid_b ~input ~depth
    ~budget =
  let module I = P.I in
  let module Pr = Cfg.Print (I) in
  let results_of op =
    match Pr.sampled op with
    | [] -> raise (Out_of_budget ("no sampled cell accepts " ^ Pr.op_str op))
    | rs -> rs
  in
  let cartesian lists =
    List.fold_left
      (fun acc l ->
        let acc' =
          List.concat_map (fun pre -> List.map (fun x -> pre @ [ x ]) l) acc
        in
        if List.length acc' > width_cap then
          raise (Out_of_budget "result branching exceeds width cap");
        acc')
      [ [] ] lists
  in
  let feed k rs = try Ok (k rs) with e -> Error (Pr.exn_str e) in
  let nodes = ref 0 in
  let rec go d (ta : (I.op, I.result, int) Model.Proc.t) tb =
    incr nodes;
    if !nodes > budget then raise (Out_of_budget "node budget exceeded");
    match (ta, tb) with
    | Model.Proc.Done a, Model.Proc.Done b ->
      if a <> b then
        raise (Diverged (Printf.sprintf "decisions differ: %d vs %d" a b))
    | Done a, Step _ ->
      raise
        (Diverged (Printf.sprintf "pid %d decides %d while pid %d accesses memory" pid_a a pid_b))
    | Step _, Done b ->
      raise
        (Diverged (Printf.sprintf "pid %d decides %d while pid %d accesses memory" pid_b b pid_a))
    | Step (aa, ka), Step (ab, kb) ->
      let signature acc = List.map (fun (loc, op) -> (loc, Pr.op_str op)) acc in
      let sa = signature aa and sb = signature ab in
      if sa <> sb then
        raise
          (Diverged
             (Printf.sprintf "access lists differ: [%s] vs [%s]"
                (String.concat "; " (List.map (fun (l, o) -> Printf.sprintf "%d:%s" l o) sa))
                (String.concat "; " (List.map (fun (l, o) -> Printf.sprintf "%d:%s" l o) sb))));
      if aa = [] then () (* both blocked (loop_forever): symmetric *)
      else if d = 0 then () (* matched through the whole certified depth *)
      else
        let vectors = cartesian (List.map (fun (_, op) -> results_of op) aa) in
        List.iter
          (fun rs ->
            match (feed ka rs, feed kb rs) with
            | Ok ta', Ok tb' -> go (d - 1) ta' tb'
            | Error ea, Error eb ->
              (* identical rejections of an infeasible branch are symmetric *)
              if ea <> eb then
                raise
                  (Diverged
                     (Printf.sprintf "continuations raise differently: %s vs %s" ea eb))
            | Ok _, Error e ->
              raise
                (Diverged
                   (Printf.sprintf "pid %d raises (%s) where pid %d continues" pid_b e pid_a))
            | Error e, Ok _ ->
              raise
                (Diverged
                   (Printf.sprintf "pid %d raises (%s) where pid %d continues" pid_a e pid_b)))
          vectors
  in
  match go depth (P.proc ~n ~pid:pid_a ~input) (P.proc ~n ~pid:pid_b ~input) with
  | () -> Ok ()
  | exception Diverged detail -> Error (`Asymmetric { pid_a; pid_b; input; detail })
  | exception Out_of_budget reason -> Error (`Unknown reason)
  | exception e ->
    Error (`Unknown (Printf.sprintf "unfolding raised %s" (Printexc.to_string e)))

let certify_pairs (module P : Consensus.Proto.S) ~n ~depth ~budget pair_inputs =
  let exception Stop of verdict in
  try
    let pairs = ref 0 in
    List.iter
      (fun (pid_a, pid_b, input) ->
        incr pairs;
        match certify_pair (module P) ~n ~pid_a ~pid_b ~input ~depth ~budget with
        | Ok () -> ()
        | Error (`Asymmetric w) -> raise (Stop (Asymmetric w))
        | Error (`Unknown reason) -> raise (Stop (Unknown reason)))
      pair_inputs;
    Certified_symmetric { depth; pairs = !pairs }
  with Stop v -> v

let all_pair_inputs ~n inputs =
  List.concat_map
    (fun input ->
      List.concat
        (List.init n (fun a -> List.init (n - a - 1) (fun d -> (a, a + d + 1, input)))))
    inputs

(* The pid pairs one run's inputs make interchangeable: those with equal
   inputs, in (a, b) order. *)
let equal_input_pairs inputs =
  List.filter_map
    (fun (a, b, _) -> if inputs.(a) = inputs.(b) then Some (a, b, inputs.(a)) else None)
    (all_pair_inputs ~n:(Array.length inputs) [ 0 ])

(* The CFG route: intern every (pid, input) unfolding into one node table
   ({!Cfg.of_proto} under the sampled alphabet — the same alphabet the
   lockstep certifier feeds) and compare root node ids per pair.  Equal
   roots are a certificate through any depth — node identity is signature
   equality verified stable by the build.  Distinct roots are a genuine
   divergence within the signature horizon; the lockstep certifier is then
   replayed briefly to phrase the witness (it sees the same alphabet), with
   a generic witness when it cannot.  A truncated build returns [Unknown],
   and [certify_staged] falls back to lockstep under the full budget. *)
let certify_cfg_pairs (module P : Consensus.Proto.S) ~n ~depth pair_inputs =
  let inputs = List.sort_uniq compare (List.map (fun (_, _, i) -> i) pair_inputs) in
  match Cfg.of_proto ~inputs (module P : Consensus.Proto.S) ~n with
  | exception e ->
    Unknown (Printf.sprintf "cfg build raised %s" (Printexc.to_string e))
  | cfg -> (
    match cfg.Cfg.truncated with
    | Some reason -> Unknown (Printf.sprintf "cfg truncated: %s" reason)
    | None ->
      let root pid input = List.assoc_opt (pid, input) cfg.Cfg.roots in
      let exception Stop of verdict in
      (try
         let pairs = ref 0 in
         List.iter
           (fun (pid_a, pid_b, input) ->
             incr pairs;
             match (root pid_a input, root pid_b input) with
             | Some ra, Some rb when ra = rb -> ()
             | Some _, Some _ ->
               let w =
                 match
                   certify_pair (module P) ~n ~pid_a ~pid_b ~input
                     ~depth:(cfg.Cfg.sig_depth + 2) ~budget:50_000
                 with
                 | Error (`Asymmetric w) -> w
                 | Ok () | Error (`Unknown _) ->
                   {
                     pid_a;
                     pid_b;
                     input;
                     detail =
                       Printf.sprintf
                         "cfg roots differ: unfoldings diverge within %d steps"
                         cfg.Cfg.sig_depth;
                   }
               in
               raise (Stop (Asymmetric w))
             | None, _ | _, None ->
               raise (Stop (Unknown "cfg build misses a root unfolding")))
           pair_inputs;
         Certified_symmetric { depth; pairs = !pairs }
       with Stop v -> v))

(* Lockstep's node budget per pair in the first stage: it decides every
   registry row at lint's depth, and a retry loop that defeats bounded
   unfolding exhausts it in milliseconds and hands over to the CFG. *)
let quick_budget = 20_000

(* The one certifier order (see the header), shared by [certify] and
   [certify_for_run]. *)
let certify_staged (module P : Consensus.Proto.S) ~n ~depth pair_inputs =
  let lockstep budget = certify_pairs (module P) ~n ~depth ~budget pair_inputs in
  match lockstep quick_budget with
  | (Certified_symmetric _ | Asymmetric _) as v -> v
  | Unknown _ -> (
    match certify_cfg_pairs (module P) ~n ~depth pair_inputs with
    | (Certified_symmetric _ | Asymmetric _) as v -> v
    | Unknown _ -> lockstep default_budget)

(* Certify all pid pairs at every sampled input: the unconditional claim the
   lint report makes about a protocol. *)
let certify ?(depth = default_depth) ?(inputs = [ 0; 1 ]) (module P : Consensus.Proto.S) ~n =
  certify_staged (module P) ~n ~depth (all_pair_inputs ~n inputs)

(* [certify_for_run]'s memo, shared across worker domains (the campaign
   executor's pool certifies on first use).  It is sharded by key hash: each
   shard is an independent mutex-protected Hashtbl, so domains certifying
   different rows never contend on one global lock.  Certification itself
   runs outside any lock — a lost race recomputes an identical immutable
   verdict, which is harmless. *)
let run_cache_shards = 16

type shard = { mu : Mutex.t; tbl : (string, verdict) Hashtbl.t }

let run_cache : shard array =
  Array.init run_cache_shards (fun _ ->
      { mu = Mutex.create (); tbl = Hashtbl.create 8 })

let with_shard s f =
  Mutex.lock s.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mu) f

(* Empty every shard — benchmarks use this to measure cold certification. *)
let reset_run_cache () =
  Array.iter (fun s -> with_shard s (fun () -> Hashtbl.reset s.tbl)) run_cache

(* Certify exactly what one exploration run relies on: processes are only
   conflated by [canonical_fingerprint] when their inputs are equal, so only
   equal-input pid pairs need certificates.  No such pair (all inputs
   distinct) certifies vacuously.  Memoized: the differential tests certify
   each (protocol, inputs, depth) once across engines and reductions. *)
let certify_for_run ?(depth = default_depth) (module P : Consensus.Proto.S) ~inputs =
  let key =
    Printf.sprintf "%s|%s|%d" P.name
      (String.concat "," (List.map string_of_int (Array.to_list inputs)))
      depth
  in
  let shard = run_cache.(Hashtbl.hash key land (run_cache_shards - 1)) in
  match with_shard shard (fun () -> Hashtbl.find_opt shard.tbl key) with
  | Some v -> v
  | None ->
    let v =
      certify_staged (module P) ~n:(Array.length inputs) ~depth (equal_input_pairs inputs)
    in
    with_shard shard (fun () ->
        match Hashtbl.find_opt shard.tbl key with
        | Some v -> v
        | None ->
          Hashtbl.add shard.tbl key v;
          v)
