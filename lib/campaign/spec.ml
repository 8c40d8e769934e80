type t = {
  ells : int list;
  include_rows : string list;
  exclude_rows : string list;
  ns : int list;
  depths : int list;
  engines : Explore.engine list;
  reduces : Explore.reduction list;
  probe : Explore.probe_policy;
  solo_fuel : int;
  deadline : float option;
  observe : string list;
  crashes : int;
  stress_seeds : int list;
  stress_prefix : int;
  stress_max_burst : int;
  stress_fuel : int;
}

let default =
  {
    ells = [ 1; 2; 3 ];
    include_rows = [];
    exclude_rows = [];
    ns = [ 2; 3 ];
    depths = [ 6 ];
    engines = [ `Memo ];
    reduces = [ { Explore.commute = true; symmetric = false } ];
    probe = `Leaves;
    solo_fuel = 100_000;
    deadline = Some 10.0;
    observe = [];
    crashes = 0;
    stress_seeds = [ 1; 2 ];
    stress_prefix = 200;
    stress_max_burst = 4;
    stress_fuel = 50_000_000;
  }

let smoke =
  {
    default with
    ells = [ 1; 2 ];
    ns = [ 2 ];
    depths = [ 4 ];
    stress_seeds = [ 1 ];
    stress_prefix = 64;
  }

let engine_of_string s =
  match s with
  | "naive" -> Ok `Naive
  | "memo" -> Ok `Memo
  | "parallel" -> Ok (`Parallel 2)
  | _ ->
    (match String.index_opt s '-' with
     | Some i when String.sub s 0 i = "parallel" ->
       (match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some k when k >= 1 -> Ok (`Parallel k)
        | _ -> Error (Printf.sprintf "bad domain count in engine %S" s))
     | _ -> Error (Printf.sprintf "unknown engine %S (naive|memo|parallel[-k])" s))

let reduction_of_string = function
  | "none" -> Ok Explore.no_reduction
  | "commute" -> Ok { Explore.commute = true; symmetric = false }
  | "symmetric" -> Ok { Explore.commute = false; symmetric = true }
  | "full" -> Ok Explore.full_reduction
  | r -> Error (Printf.sprintf "unknown reduction %S (none|commute|symmetric|full)" r)

(* Deterministic left-rotation: `campaign worker` processes rotate the
   shared task list by their pid so a simultaneously launched fleet claims
   from different ends of the grid instead of racing on the head. *)
let rotate ~by l =
  match l with
  | [] | [ _ ] -> l
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    let by = ((by mod n) + n) mod n in
    List.init n (fun i -> a.((i + by) mod n))

(* Values no task could run: [Machine.make] refuses n < 1 and [Explore.run]
   the rest, so a grid holding one would store a Crash record per task
   instead of failing before anything runs. *)
let out_of_range spec =
  let first p l f = Option.map f (List.find_opt p l) in
  let commute = List.exists (fun (r : Explore.reduction) -> r.commute) spec.reduces in
  List.find_map Fun.id
    [
      first (fun n -> n < 1) spec.ns (Printf.sprintf "n = %d: a task needs at least 1 process");
      first
        (fun d -> d < 0 || d > Transposition.max_depth)
        spec.depths
        (fun d -> Printf.sprintf "depth %d outside 0..%d" d Transposition.max_depth);
      (if spec.depths <> [] then
         first
           (fun n -> n > Explore.max_processes)
           spec.ns
           (Printf.sprintf "a check takes at most %d processes, not %d"
              Explore.max_processes)
       else None);
      (if commute && spec.depths <> [] then
         first
           (fun n -> n > Transposition.max_sleep_pids)
           spec.ns
           (Printf.sprintf "the commute reduction takes at most %d processes, not %d"
              Transposition.max_sleep_pids)
       else None);
      (if spec.crashes < 0 then
         Some (Printf.sprintf "crash budget %d is negative" spec.crashes)
       else None);
      (if spec.solo_fuel < 1 then Some (Printf.sprintf "solo fuel %d is below 1" spec.solo_fuel)
       else None);
    ]

let tasks spec =
  match (Observer.of_names spec.observe, out_of_range spec) with
  | Error e, _ | _, Some e -> Error e
  | Ok observer_set, None ->
  (* canonical observer names ("default" expanded), so two spellings of one
     observer set name the same content-addressed tasks *)
  let observe = List.map (fun ((module O) : Observer.t) -> O.name) observer_set in
  (* a crash campaign sees the recovery rows; crash-free grids keep the
     historical registry, so their task lists (and store keys) are
     untouched by the crash subsystem *)
  let all_rows = Hierarchy.rows ~ells:spec.ells ~recovery:(spec.crashes > 0) () in
  let known id = List.exists (fun (r : Hierarchy.row) -> r.id = id) all_rows in
  let unknown = List.filter (fun id -> not (known id)) (spec.include_rows @ spec.exclude_rows) in
  if unknown <> [] then
    Error
      (Printf.sprintf "unknown row id(s): %s (try `table`)" (String.concat ", " unknown))
  else if spec.ns = [] then Error "empty n grid"
  else if spec.depths = [] && spec.stress_seeds = [] then
    Error "empty grid: no depths and no stress seeds"
  else if spec.depths <> [] && (spec.engines = [] || spec.reduces = []) then
    Error "empty grid: depths given but no engines or no reductions"
  else begin
    let rows =
      List.filter
        (fun (r : Hierarchy.row) ->
          (spec.include_rows = [] || List.mem r.id spec.include_rows)
          && not (List.mem r.id spec.exclude_rows))
        all_rows
    in
    Ok
      (List.concat_map
         (fun (row : Hierarchy.row) ->
           List.concat_map
             (fun n ->
               List.concat_map
                 (fun depth ->
                   List.concat_map
                     (fun engine ->
                       List.map
                         (fun reduce ->
                           Task.check ~probe:spec.probe ~solo_fuel:spec.solo_fuel
                             ?deadline:spec.deadline ~observe ~crashes:spec.crashes
                             ~engine ~reduce ~depth row ~n)
                         spec.reduces)
                     spec.engines)
                 spec.depths
               @ List.map
                   (fun seed ->
                     Task.stress ~solo_fuel:spec.solo_fuel ~fuel:spec.stress_fuel ~seed
                       ~prefix:spec.stress_prefix ~max_burst:spec.stress_max_burst row ~n)
                   spec.stress_seeds)
             spec.ns)
         rows)
  end
