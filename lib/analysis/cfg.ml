(* Finite control-flow graphs for protocol processes.

   A {!Model.Proc.t} is a tree of closures: symbolic unfolding (feeding every
   candidate result into every continuation) diverges on retry loops, which
   is why the lockstep symmetry certifier is depth-bounded and the space
   lint's symbolic pass is Warning-only.  This module folds that infinite
   tree into a finite step graph by hashing symbolic states: a state is
   identified by its depth-[k] {e observation signature} — the accesses it
   issues, the decisions it reaches and the exceptions it raises through the
   next [k] steps, under a caller-supplied result alphabet — and two states
   with equal signatures become one node.  A revisited state is a back-edge,
   so a tug-of-war retry loop is an ordinary cycle instead of divergence.

   Soundness of the merge.  Signature equality at depth [k] alone could
   conflate states that differ deeper.  Every merge is therefore {e
   verified}: when a freshly reached state collapses onto an existing node,
   its signature is recomputed at depth [k+1] and compared against the
   representative's — the classical one-step stability condition of
   partition refinement.  If any merge fails, the whole build restarts with
   a deeper signature ([k+1]), up to [max_sig_depth]; a build in which every
   merge is stable is a quotient in which distinct nodes are observably
   distinct and merged states agree one step past the distinguishing
   horizon.  For the protocols in this registry — whose residual behaviour
   is a function of bounded local control plus the results just observed —
   the stable quotient is exact; the registry-wide differential tests
   (footprint domination, CFG-vs-lockstep symmetry agreement) pin this
   empirically on every row.

   Budgets never lie: exhausting the node budget, the work (feed) budget or
   the vector width cap — or meeting an instruction for which the alphabet
   offers no result at all — marks the graph [truncated] with the reason,
   and every downstream pass treats a truncated graph as evidence, not
   certificate.  Termination is unconditional: node count and feed count
   are both budgeted.

   What a build records.  Besides the graph, {!Make.build} returns the ops
   its nodes issue and every (location, op) result alphabet it read, in any
   deepening attempt.  Each result carries a feasibility flag, and the flags
   reach the graph only as the edges' [feasible] bits: which continuations
   are fed, how states merge, where a budget fires and how much work is
   spent depend on the result lists alone.  {!Make.relabel} therefore turns
   a graph into the one a rebuild under new flags would produce whenever
   every alphabet it read lists the same results in the same order, and
   refuses otherwise.

   What a rejection costs.  A continuation that rejects its result vector
   becomes a [Raises] edge (or a [!] in a signature) carrying the printed
   exception.  Guards reject sampled results by the ten thousand per build
   with a handful of distinct messages, so {!Print.exn_str} prints each
   structurally distinct exception once; structurally equal exceptions
   print alike, so every payload is the [Printexc.to_string] it replaces.
   The feeds themselves all still run. *)

type term =
  | Decide of int  (** [Done v]: the process decides [v]. *)
  | Access of (int * string) list
      (** A [Step]: the (location, printed op) pairs of one atomic access. *)
  | Blocked  (** [Step ([], _)]: a process that never steps again. *)

type target =
  | To of int  (** Successor node id. *)
  | Raises of string
      (** The continuation rejected this result vector (guarded branch). *)

type edge = {
  labels : string list;  (** printed results, one per access of the source *)
  target : target;
  feasible : bool;
      (** every component result is producible from the location's abstract
          value set (always [true] under an all-feasible alphabet) *)
}

type node = {
  id : int;
  term : term;
  edges : edge array;  (** empty for [Decide]/[Blocked] — and for nodes left
                           unexpanded by a truncated build *)
}

type t = {
  nodes : node array;  (** indexed by [id], in discovery order *)
  roots : ((int * int) * int) list;  (** [(pid, input)] to root node id *)
  truncated : string option;
      (** [Some reason] when any budget fired, a merge could not be
          stabilized, or the alphabet had a gap: no pass may certify *)
  sig_depth : int;  (** the signature depth the final build used *)
  work : int;  (** continuation feeds spent (build + verification) *)
}

let default_sig_depth = 1
let default_max_sig_depth = 4
let default_max_nodes = 4_000
let default_width_cap = 256
let default_work_budget = 1_000_000

let node_count t = Array.length t.nodes

let edge_count t =
  Array.fold_left (fun acc n -> acc + Array.length n.edges) 0 t.nodes

(* Edges whose target was discovered no later than their source: every cycle
   contains one, so a positive count is the "retry loops became cycles"
   signal the analyze CLI reports. *)
let retro_edge_count t =
  Array.fold_left
    (fun acc n ->
      Array.fold_left
        (fun acc e -> match e.target with To d when d <= n.id -> acc + 1 | _ -> acc)
        acc n.edges)
    0 t.nodes

(* The analysis layer's one printer: the printed forms of ops, results and
   cells, memoized per distinct value on structural keys (structural
   equality and the polymorphic hash), plus [sampled], the all-feasible result
   alphabet, memoized per op.  Signatures, alphabets and value sets all key
   on printed forms, and no printed form changes within an analysis.  The
   tables are not thread-safe: apply the functor once per analysis call, so
   domains never share one. *)
module Print (I : Model.Iset.S) = struct
  let memo pp =
    let tbl = Hashtbl.create 64 in
    fun x ->
      match Hashtbl.find_opt tbl x with
      | Some s -> s
      | None ->
        let s = Format.asprintf "%a" pp x in
        Hashtbl.add tbl x s;
        s

  let op_str : I.op -> string = memo I.pp_op
  let res_str : I.result -> string = memo I.pp_result
  let cell_str : I.cell -> string = memo I.pp_cell

  (* [Printexc.to_string], memoized per structurally distinct exception: a
     guard rejects thousands of sampled results with a handful of distinct
     messages.  [compare] keys an exception exactly only when its arguments
     are immediates, strings and ordinary blocks of them — it equates [0.]
     with [-0.], which print apart, and refuses closures — so any other
     exception is printed on every call. *)
  let exn_str =
    let rec plain x =
      Obj.is_int x
      || Obj.tag x = Obj.string_tag
      || (Obj.tag x < Obj.forcing_tag && args x 0)
    and args x i = i >= Obj.size x || (plain (Obj.field x i) && args x (i + 1)) in
    (* a constant exception is its constructor; otherwise field 0 is *)
    let keyable (e : exn) =
      let r = Obj.repr e in
      Obj.tag r = Obj.object_tag || args r 1
    in
    let tbl : (exn, string) Hashtbl.t = Hashtbl.create 8 in
    fun e ->
      match Hashtbl.find_opt tbl e with
      | Some s -> s
      | None ->
        let s = Printexc.to_string e in
        if keyable e then Hashtbl.add tbl e s;
        s

  (* Every result an op yields on some sampled cell, deduplicated on printed
     form in first-seen order: the alphabet the CFG build, the lockstep
     certifier and the symbolic footprint feed continuations. *)
  let sampled =
    let tbl : (I.op, I.result list) Hashtbl.t = Hashtbl.create 16 in
    fun op ->
      match Hashtbl.find_opt tbl op with
      | Some rs -> rs
      | None ->
        let rs =
          List.filter_map
            (fun c -> try Some (snd (I.apply op c)) with _ -> None)
            (I.sample_cells ())
          |> List.fold_left
               (fun acc r ->
                 if List.exists (fun r' -> res_str r = res_str r') acc then acc
                 else r :: acc)
               []
          |> List.rev
        in
        Hashtbl.add tbl op rs;
        rs
end

module Make (P : Consensus.Proto.S) = struct
  module I = P.I
  include Print (I)

  type proc = (I.op, I.result, int) Model.Proc.t

  type graph = {
    cfg : t;
    issued : I.op list;  (** every op named in any node, dedup'd on print *)
    issued_at : (int * I.op) list;  (** (location, op) pairs, dedup'd *)
    alphabets : ((int * I.op) * (I.result * bool) list) list;
        (** every (location, op) alphabet the build read, in any deepening
            attempt, as [results] gave it *)
  }

  exception Unstable
  exception Stop_build of string

  let build ?(work_budget = default_work_budget) ~results ~n ~inputs () =
    let sig_depth = default_sig_depth and max_sig_depth = default_max_sig_depth in
    let max_nodes = default_max_nodes and width_cap = default_width_cap in
    let work = ref 0 in
    let spend () =
      incr work;
      if !work > work_budget then
        raise (Stop_build (Printf.sprintf "work budget exceeded at %d feeds" work_budget))
    in
    (* [results] is fixed for the whole build, so each (location, op)
       alphabet is read once per build. *)
    let alphabets = Hashtbl.create 16 in
    let read () = Hashtbl.fold (fun lo rs acc -> (lo, rs) :: acc) alphabets [] in
    let results loc op : (I.result * bool) list =
      match Hashtbl.find_opt alphabets (loc, op) with
      | Some rs -> rs
      | None ->
        let rs = results loc op in
        Hashtbl.add alphabets (loc, op) rs;
        rs
    in
    (* Candidate result vectors for one access list: the cartesian product of
       each op's alphabet, each component tagged feasible/infeasible.  [None]
       when some op has no candidate result at all (an alphabet gap: the
       continuation is unreachable to this analysis, so nothing downstream
       may be certified). *)
    let vectors accs =
      let per = List.map (fun (loc, op) -> results loc op) accs in
      if List.exists (fun l -> l = []) per then None
      else
        Some
          (List.fold_left
             (fun acc l ->
               let acc' =
                 List.concat_map (fun pre -> List.map (fun x -> pre @ [ x ]) l) acc
               in
               if List.length acc' > width_cap then
                 raise (Stop_build "result branching exceeds width cap");
               acc')
             [ [] ] per)
    in
    let feed k rs =
      spend ();
      try Ok (k rs) with e -> Error (exn_str e)
    in
    (* The depth-[d] observation signature, as a canonical string (printed
       forms print injectively in this codebase; strings are compared in
       full, so there are no hash collisions to worry about).  Result
       vectors go unprinted: within a build they are a function of the
       access list printed before them. *)
    let rec signature d (t : proc) (b : Buffer.t) =
      match t with
      | Model.Proc.Done v ->
        Buffer.add_char b 'D';
        Buffer.add_string b (string_of_int v)
      | Step ([], _) -> Buffer.add_char b 'B'
      | Step (accs, k) ->
        Buffer.add_string b "S[";
        List.iter
          (fun (loc, op) ->
            Buffer.add_string b (string_of_int loc);
            Buffer.add_char b ':';
            Buffer.add_string b (op_str op);
            Buffer.add_char b ';')
          accs;
        Buffer.add_char b ']';
        if d > 0 then begin
          match vectors accs with
          | None -> Buffer.add_string b "?gap"
          | Some vecs ->
            Buffer.add_char b '{';
            List.iter
              (fun rv ->
                Buffer.add_string b "->";
                (match feed k (List.map fst rv) with
                 | Ok t' -> signature (d - 1) t' b
                 | Error e ->
                   Buffer.add_char b '!';
                   Buffer.add_string b e);
                Buffer.add_char b '|')
              vecs;
            Buffer.add_char b '}'
        end
    in
    let sig_of d t =
      let b = Buffer.create 64 in
      signature d t b;
      Buffer.contents b
    in
    (* One build attempt at signature depth [k].  [verify = false] is the
       last-resort mode after every depth up to [max_sig_depth] proved
       unstable: merges go unchecked and the graph is marked truncated, so
       it can still drive best-effort passes but certifies nothing. *)
    let attempt ~verify k =
      let tbl : (string, int) Hashtbl.t = Hashtbl.create 128 in
      let reps : (int, proc) Hashtbl.t = Hashtbl.create 128 in
      let terms : (int, term) Hashtbl.t = Hashtbl.create 128 in
      let edges : (int, edge array) Hashtbl.t = Hashtbl.create 128 in
      let deep_sigs : (int, string) Hashtbl.t = Hashtbl.create 128 in
      let issued : (string, I.op) Hashtbl.t = Hashtbl.create 32 in
      let issued_at : (int * string, int * I.op) Hashtbl.t = Hashtbl.create 32 in
      let truncated = ref None in
      let trunc reason = if !truncated = None then truncated := Some reason in
      let next_id = ref 0 in
      let queue = Queue.create () in
      let term_of (t : proc) =
        match t with
        | Model.Proc.Done v -> Decide v
        | Step ([], _) -> Blocked
        | Step (accs, _) ->
          List.iter
            (fun (loc, op) ->
              let key = op_str op in
              if not (Hashtbl.mem issued key) then Hashtbl.add issued key op;
              if not (Hashtbl.mem issued_at (loc, key)) then
                Hashtbl.add issued_at (loc, key) (loc, op))
            accs;
          Access (List.map (fun (loc, op) -> (loc, op_str op)) accs)
      in
      let deep_sig_of id =
        match Hashtbl.find_opt deep_sigs id with
        | Some s -> s
        | None ->
          let s = sig_of (k + 1) (Hashtbl.find reps id) in
          Hashtbl.add deep_sigs id s;
          s
      in
      let intern t =
        let s = sig_of k t in
        match Hashtbl.find_opt tbl s with
        | Some id ->
          (* merge: verify one-step stability against the representative *)
          if verify && !truncated = None && sig_of (k + 1) t <> deep_sig_of id then
            raise Unstable;
          id
        | None ->
          let id = !next_id in
          incr next_id;
          Hashtbl.add tbl s id;
          Hashtbl.add reps id t;
          Hashtbl.add terms id (term_of t);
          if id + 1 >= max_nodes then
            trunc (Printf.sprintf "node budget exhausted at %d nodes" max_nodes);
          Queue.add id queue;
          id
      in
      let roots =
        List.concat_map
          (fun input ->
            List.filter_map
              (fun pid ->
                match P.proc ~n ~pid ~input with
                | t -> Some ((pid, input), intern t)
                | exception e ->
                  trunc
                    (Printf.sprintf "proc ~pid:%d ~input:%d raised %s" pid input
                       (Printexc.to_string e));
                  None)
              (List.init n Fun.id))
          inputs
      in
      (try
         while not (Queue.is_empty queue) do
           let id = Queue.pop queue in
           if !truncated = None then begin
             match Hashtbl.find reps id with
             | Model.Proc.Done _ | Step ([], _) -> ()
             | Step (accs, kc) -> (
               match vectors accs with
               | None -> trunc "alphabet gap: an op admits no candidate result"
               | Some vecs ->
                 let es =
                   List.map
                     (fun rv ->
                       let rs = List.map fst rv in
                       let feasible = List.for_all snd rv in
                       let labels = List.map res_str rs in
                       match feed kc rs with
                       | Error e -> { labels; target = Raises e; feasible }
                       | Ok t' -> { labels; target = To (intern t'); feasible })
                     vecs
                 in
                 Hashtbl.replace edges id (Array.of_list es))
           end
         done
       with Stop_build reason -> trunc reason);
      if not verify then
        trunc
          (Printf.sprintf "no stable quotient up to signature depth %d" max_sig_depth);
      let nodes =
        Array.init !next_id (fun id ->
            {
              id;
              term = Hashtbl.find terms id;
              edges = Option.value (Hashtbl.find_opt edges id) ~default:[||];
            })
      in
      {
        cfg = { nodes; roots; truncated = !truncated; sig_depth = k; work = !work };
        issued = Hashtbl.fold (fun _ op acc -> op :: acc) issued [];
        issued_at = Hashtbl.fold (fun _ lo acc -> lo :: acc) issued_at [];
        alphabets = read ();
      }
    in
    let rec deepen k =
      if k > max_sig_depth then attempt ~verify:false max_sig_depth
      else match attempt ~verify:true k with g -> g | exception Unstable -> deepen (k + 1)
    in
    try deepen sig_depth
    with Stop_build reason ->
      (* the work budget died mid-(re)build: deliver a minimal truncated
         graph rather than an exception — passes degrade, callers don't *)
      {
        cfg =
          { nodes = [||]; roots = []; truncated = Some reason; sig_depth; work = !work };
        issued = [];
        issued_at = [];
        alphabets = read ();
      }

  (* [g] as a build under [results] would give it, when every alphabet [g]
     read lists the same results in the same order (printed form); [None]
     otherwise, since only a rebuild can tell what it would read then.  The
     header says why this is exact.  A node's edges are the cartesian
     product of its accesses' alphabets in [vectors]'s order, so each edge's
     new [feasible] is the conjunction of its components' flags, taken in
     that same product. *)
  let relabel g ~results =
    let fresh =
      List.map (fun ((loc, op), _) -> ((loc, op), results loc op)) g.alphabets
    in
    let same (r, _) (r', _) = String.equal (res_str r) (res_str r') in
    let unchanged (_, rs) (_, rs') = List.equal same rs rs' in
    if not (List.for_all2 unchanged g.alphabets fresh) then None
    else begin
      let flags = Hashtbl.create 16 in
      List.iter
        (fun ((loc, op), rs) -> Hashtbl.replace flags (loc, op_str op) (List.map snd rs))
        fresh;
      (* each vector's conjunction of flags, in [vectors]'s order *)
      let feasible accs =
        List.fold_left
          (fun acc access ->
            let fs = Hashtbl.find flags access in
            List.concat_map (fun pre -> List.map (fun f -> pre && f) fs) acc)
          [ true ] accs
        |> Array.of_list
      in
      let node (nd : node) =
        match nd.term with
        | Access accs when Array.length nd.edges > 0 ->
          let fs = feasible accs in
          { nd with edges = Array.map2 (fun e f -> { e with feasible = f }) nd.edges fs }
        | _ -> nd
      in
      let nodes = Array.map node g.cfg.nodes in
      Some { g with cfg = { g.cfg with nodes }; alphabets = fresh }
    end
end

(* Erased convenience entry point: the step graph of a protocol under the
   sampled alphabet, every result feasible.  This is the [Cfg.of_proto] the
   analyze CLI exposes; the value-set-refined build lives in {!Absint}. *)
let of_proto ?work_budget ?(inputs = [ 0; 1 ]) (module P : Consensus.Proto.S) ~n =
  let module C = Make (P) in
  let g =
    C.build ?work_budget
      ~results:(fun _ op -> List.map (fun r -> (r, true)) (C.sampled op))
      ~n ~inputs ()
  in
  g.C.cfg
