(* Abstract interpretation over protocol CFGs ({!Cfg}).

   The analysis couples two fixpoints:

   - {b Value closure} — per location, the set of cell values reachable by
     applying the ops the protocol issues at that location, starting from
     [I.init] and closed under [I.apply] (any interleaving of issued ops is
     covered because closure ignores ordering).  A set that outgrows
     [value_cap] goes to Top.
   - {b Graph rebuild} — the CFG is built under the {e candidate} alphabet
     (sampled results ∪ closure results), each edge marked feasible iff its
     results are producible from the closure.  A rebuild can issue new ops
     (a branch only candidate results reach), which can grow the closure,
     which can add candidates — so build and closure iterate to a joint
     fixpoint (or [rounds_cap]).

   A round whose closure grew only the feasibility of results the build
   already listed needs no new build.  The next build would read the same
   result lists, so it would be this graph with new [feasible] bits
   ({!Cfg.Make.relabel}); it would issue the same ops, so its [close] would
   add nothing and its key would equal this round's, and the loop would
   return it as converged.  The loop returns the relabelled graph at once,
   with the same graph, work, truncation and verdicts as that rebuild;
   [builds] counts only the graphs actually built.

   When the joint fixpoint is reached with no truncation and no Top
   location, the analysis is [complete]: the feasible subgraph
   over-approximates every concrete execution (every concretely reachable
   cell value is in the closure, by induction over steps, hence every
   concretely taken branch is a feasible edge).  Completeness is what
   upgrades the passes from evidence to certificates:

   - {b Footprint}: locations named by feasibly-reachable nodes bound the
     whole-program space use — the certified counterpart of Table 1's
     declared upper bounds ([space-claim-cfg] / [space-claim-certified] /
     [space-claim-loose]).
   - {b Dead branches}: nodes only infeasible edges reach are continuations
     no concrete schedule can enter ([dead-branch]).
   - {b Decision reachability}: a feasible node with no feasible path to any
     [Decide] node is a static solo-termination red flag
     ([decision-unreachable]) — the CFG shadow of the §2 obstruction-freedom
     observer.

   An incomplete analysis (truncated graph, Top location, or no fixpoint
   within [rounds_cap]) still yields the graph and footprints as evidence,
   and the lint pass says so out loud ([analysis-truncated]). *)

type t = {
  name : string;
  n : int;
  inputs : int list;
  nodes : int;
  edges : int;
  retro_edges : int;  (** edges closing a cycle: retry loops made finite *)
  sig_depth : int;
  work : int;
  truncated : string option;
  converged : bool;  (** build/closure fixpoint reached within [rounds_cap] *)
  tops : int list;  (** locations whose value closure overflowed to Top *)
  complete : bool;  (** no truncation, converged, no Top: certificates hold *)
  footprint_all : int list;
  footprint_feasible : int list;
  dead_nodes : int;
  dead_example : string option;
  undecided_nodes : int;
  undecided_example : string option;
  decisions : int list;  (** values decided at feasibly-reachable nodes *)
  ops : string list;  (** printed forms of every issued op *)
  roots : ((int * int) * int) list;  (** (pid, input) to root node id *)
  builds : int;  (** CFG builds the run made; a relabelled round is not one *)
}

let default_inputs = [ 0; 1 ]
let value_cap = 64
let rounds_cap = 6

let term_string = function
  | Cfg.Decide v -> Printf.sprintf "decide %d" v
  | Cfg.Blocked -> "blocked"
  | Cfg.Access accs ->
    String.concat "; "
      (List.map (fun (loc, op) -> Printf.sprintf "%d:%s" loc op) accs)

(* Forward reachability over feasible edges from the roots. *)
let feasible_reach (cfg : Cfg.t) =
  let n = Array.length cfg.nodes in
  let seen = Array.make n false in
  let stack = ref (List.map snd cfg.roots) in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | id :: rest ->
      stack := rest;
      if id < n && not (seen.(id)) then begin
        seen.(id) <- true;
        Array.iter
          (fun (e : Cfg.edge) ->
            match e.target with
            | Cfg.To d when e.feasible -> stack := d :: !stack
            | _ -> ())
          cfg.nodes.(id).edges
      end
  done;
  seen

(* Backward reachability to a Decide node over feasible edges, restricted to
   the feasibly-reachable subgraph. *)
let reaches_decision (cfg : Cfg.t) feasible =
  let n = Array.length cfg.nodes in
  let rev = Array.make n [] in
  Array.iter
    (fun (node : Cfg.node) ->
      if feasible.(node.id) then
        Array.iter
          (fun (e : Cfg.edge) ->
            match e.target with
            | Cfg.To d when e.feasible && d < n && feasible.(d) ->
              rev.(d) <- node.id :: rev.(d)
            | _ -> ())
          node.edges)
    cfg.nodes;
  let ok = Array.make n false in
  let stack = ref [] in
  Array.iter
    (fun (node : Cfg.node) ->
      match node.term with
      | Cfg.Decide _ when feasible.(node.id) ->
        ok.(node.id) <- true;
        stack := node.id :: !stack
      | _ -> ())
    cfg.nodes;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | id :: rest ->
      stack := rest;
      List.iter
        (fun p ->
          if not ok.(p) then begin
            ok.(p) <- true;
            stack := p :: !stack
          end)
        rev.(id)
  done;
  ok

let analyze_uncached ?work_budget ~inputs (module P : Consensus.Proto.S) ~n =
  let module C = Cfg.Make (P) in
  let module I = P.I in
  (* per-location abstract value sets, keyed on printed cell *)
  let cells : (int, (string, I.cell) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let tops : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let cells_of loc =
    match Hashtbl.find_opt cells loc with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.add tbl (C.cell_str I.init) I.init;
      Hashtbl.add cells loc tbl;
      tbl
  in
  (* The candidate alphabet: closure results (feasible), then the sampled
     results the closure does not produce.  The closure only grows in
     [close], between builds, and [C.build] reads this once per (location,
     op) per build. *)
  let results loc op =
    let sampled = C.sampled op in
    if Hashtbl.mem tops loc then List.map (fun r -> (r, true)) sampled
    else begin
      let feas : (string, I.result) Hashtbl.t = Hashtbl.create 8 in
      Hashtbl.iter
        (fun _ c ->
          match I.apply op c with
          | _, r -> Hashtbl.replace feas (C.res_str r) r
          | exception _ -> ())
        (cells_of loc);
      let feasible =
        Hashtbl.fold (fun k r acc -> (k, r) :: acc) feas []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map (fun (_, r) -> (r, true))
      in
      feasible
      @ List.filter_map
          (fun r -> if Hashtbl.mem feas (C.res_str r) then None else Some (r, false))
          sampled
    end
  in
  (* one inner closure fixpoint over the ops the last build issued *)
  let close issued_at =
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (loc, op) ->
          if not (Hashtbl.mem tops loc) then begin
            let tbl = cells_of loc in
            let snapshot = Hashtbl.fold (fun _ c acc -> c :: acc) tbl [] in
            List.iter
              (fun c ->
                match I.apply op c with
                | c', _ ->
                  let key = C.cell_str c' in
                  if not (Hashtbl.mem tbl key) then begin
                    Hashtbl.add tbl key c';
                    changed := true;
                    if Hashtbl.length tbl > value_cap then begin
                      Hashtbl.replace tops loc ();
                      Hashtbl.remove cells loc
                    end
                  end
                | exception _ -> ())
              snapshot
          end)
        issued_at
    done
  in
  let state_key issued_at =
    let b = Buffer.create 256 in
    Hashtbl.iter
      (fun loc tbl ->
        Buffer.add_string b (string_of_int loc);
        Buffer.add_char b '=';
        Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
        |> List.sort compare
        |> List.iter (fun k ->
               Buffer.add_string b k;
               Buffer.add_char b ','))
      cells;
    Hashtbl.iter (fun loc () -> Buffer.add_string b (Printf.sprintf "T%d" loc)) tops;
    List.sort compare
      (List.map (fun (loc, op) -> Printf.sprintf "%d:%s" loc (C.op_str op)) issued_at)
    |> List.iter (fun s ->
           Buffer.add_string b s;
           Buffer.add_char b '|');
    Buffer.contents b
  in
  let builds = ref 0 in
  let build () =
    incr builds;
    C.build ?work_budget ~results ~n ~inputs ()
  in
  (* a relabelled round is the converged rebuild it skips (see the header) *)
  let rec iterate round prev_key g =
    close g.C.issued_at;
    let key = state_key g.C.issued_at in
    if key = prev_key then (g, true)
    else if round >= rounds_cap then (g, false)
    else
      match C.relabel g ~results with
      | Some g -> (g, true)
      | None -> iterate (round + 1) key (build ())
  in
  let g, converged = iterate 1 "" (build ()) in
  let cfg = g.C.cfg in
  let feasible = feasible_reach cfg in
  let decided = reaches_decision cfg feasible in
  let locs_of pred =
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun (node : Cfg.node) ->
        if pred node.Cfg.id then
          match node.term with
          | Cfg.Access accs -> List.iter (fun (loc, _) -> Hashtbl.replace tbl loc ()) accs
          | _ -> ())
      cfg.nodes;
    Hashtbl.fold (fun loc () acc -> loc :: acc) tbl [] |> List.sort compare
  in
  let dead = ref 0 and dead_example = ref None in
  let undecided = ref 0 and undecided_example = ref None in
  let decisions = Hashtbl.create 4 in
  Array.iter
    (fun (node : Cfg.node) ->
      if not feasible.(node.id) then begin
        incr dead;
        if !dead_example = None then dead_example := Some (term_string node.term)
      end
      else begin
        (match node.term with
         | Cfg.Decide v -> Hashtbl.replace decisions v ()
         | _ -> ());
        if not decided.(node.id) then begin
          incr undecided;
          if !undecided_example = None then
            undecided_example := Some (term_string node.term)
        end
      end)
    cfg.nodes;
  let tops = Hashtbl.fold (fun loc () acc -> loc :: acc) tops [] |> List.sort compare in
  {
    name = P.name;
    n;
    inputs;
    nodes = Cfg.node_count cfg;
    edges = Cfg.edge_count cfg;
    retro_edges = Cfg.retro_edge_count cfg;
    sig_depth = cfg.Cfg.sig_depth;
    work = cfg.Cfg.work;
    truncated = cfg.Cfg.truncated;
    converged;
    tops;
    complete = cfg.Cfg.truncated = None && converged && tops = [];
    footprint_all = locs_of (fun _ -> true);
    footprint_feasible = locs_of (fun id -> feasible.(id));
    dead_nodes = !dead;
    dead_example = !dead_example;
    undecided_nodes = !undecided;
    undecided_example = !undecided_example;
    decisions = Hashtbl.fold (fun v () acc -> v :: acc) decisions [] |> List.sort compare;
    ops = List.sort compare (List.map C.op_str g.C.issued);
    roots = cfg.Cfg.roots;
    builds = !builds;
  }

(* Analyses are deterministic and protocol-keyed; memoize across the many
   callers (lint, the symmetry certifier, the analyze CLI, tests).  Shared
   across domains: computed outside the lock, first insert wins. *)
let cache : (string, t) Hashtbl.t = Hashtbl.create 32
let cache_mu = Mutex.create ()

let with_cache_mu f =
  Mutex.lock cache_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mu) f

let reset_cache () = with_cache_mu (fun () -> Hashtbl.reset cache)

let analyze ?(inputs = default_inputs) (module P : Consensus.Proto.S) ~n =
  let inputs = List.sort_uniq compare inputs in
  let key =
    Printf.sprintf "%s|%d|%s" P.name n
      (String.concat "," (List.map string_of_int inputs))
  in
  match with_cache_mu (fun () -> Hashtbl.find_opt cache key) with
  | Some a -> a
  | None ->
    let a = analyze_uncached ~inputs (module P : Consensus.Proto.S) ~n in
    with_cache_mu (fun () ->
        match Hashtbl.find_opt cache key with
        | Some a -> a
        | None ->
          Hashtbl.add cache key a;
          a)

(* ----------------------------------------------------------- findings -- *)

let pp_locs locs = String.concat "," (List.map string_of_int locs)

(* The CFG-backed findings the [--cfg] lint layer adds on top of
   {!Space.lint}'s three evidence tiers. *)
let lint_findings ?declared (a : t) =
  let open Report in
  let acc = ref [] in
  let out f = acc := f :: !acc in
  let subject = a.name in
  (match a.truncated with
   | Some reason ->
     out
       (finding Info ~rule:"analysis-truncated" ~subject
          "cfg analysis truncated at n=%d (%s; %d nodes built): findings are evidence, \
           not certificates"
          a.n reason a.nodes)
   | None ->
     if not a.converged then
       out
         (finding Info ~rule:"analysis-truncated" ~subject
            "cfg/value-closure iteration did not reach a fixpoint within %d rounds at \
             n=%d: footprint certificate withheld"
            rounds_cap a.n)
     else if a.tops <> [] then
       out
         (finding Info ~rule:"analysis-truncated" ~subject
            "value closure unbounded at n=%d (locations %s exceed %d values): footprint \
             certificate withheld"
            a.n (pp_locs a.tops) value_cap));
  (match declared with
   | None -> ()
   | Some declared ->
     let bound = List.length a.footprint_feasible in
     if a.complete then begin
       if bound > declared then
         out
           (finding Error ~rule:"space-claim-cfg" ~subject
              "certified whole-program footprint at n=%d is %d locations (%s) but \
               locations ~n:%d declares %d"
              a.n bound (pp_locs a.footprint_feasible) a.n declared)
       else begin
         out
           (finding Info ~rule:"space-claim-certified" ~subject
              "whole-program certificate at n=%d: touches at most %d locations (%s); \
               declaration %d holds on every execution, not just the budgeted ones"
              a.n bound (pp_locs a.footprint_feasible) declared);
         if bound < declared then
           out
             (finding Info ~rule:"space-claim-loose" ~subject
                "certified footprint at n=%d is only %d locations but locations ~n:%d \
                 declares %d: the Table-1 declaration is loose"
                a.n bound a.n declared)
       end
     end);
  if a.complete && a.dead_nodes > 0 then
    out
      (finding Warning ~rule:"dead-branch" ~subject
         "%d unreachable continuation%s at n=%d (e.g. %s): no feasible result vector \
          enters them"
         a.dead_nodes
         (if a.dead_nodes = 1 then "" else "s")
         a.n
         (Option.value a.dead_example ~default:"?"));
  if a.complete && a.undecided_nodes > 0 then
    out
      (finding Info ~rule:"decision-unreachable" ~subject
         "%d feasible node%s at n=%d cannot reach any decision via feasible edges (e.g. \
          %s): static solo-termination hint"
         a.undecided_nodes
         (if a.undecided_nodes = 1 then "" else "s")
         a.n
         (Option.value a.undecided_example ~default:"?"));
  List.rev !acc
