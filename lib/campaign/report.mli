(** Campaign reports: the verified slice of Table 1.

    A report folds a record list into a (row × n) cell grid.  Each cell
    aggregates every record for that (row, n) — checks across the
    engine/reduction/depth grid plus stress runs — under the worst status
    found: a single violation outranks any number of verified cells.
    Renderable as an aligned terminal table shaped like the paper's
    Table 1, as JSON for tooling, or as CSV for spreadsheets. *)

type cell = {
  row : string;
  n : int;
  status : Record.status;  (** worst status among the cell's records *)
  verified : int;  (** records with status [Verified] *)
  total : int;  (** all records contributing to the cell *)
  configs : int;  (** summed over the cell's records *)
  elapsed : float;  (** summed over the cell's records *)
}

type t

val make : Record.t list -> t
(** Group records into cells.  Row order follows the registry
    ({!Hierarchy.rows}) where ids match, unknown ids last,
    alphabetically; [ns] are sorted ascending. *)

val of_store : Store.t -> t
(** [make] over everything the store has indexed — the `campaign report`
    path: renders the merged result of any number of workers' runs without
    re-executing anything.  Because cells aggregate by verdict and the
    multi-writer store guarantees verdict-identical records per task
    ({!Record.same_verdict}), the rendering is independent of how many
    processes produced the records. *)

val cells : t -> cell list

val unexpected : t -> Record.t list
(** Every record whose status is not [Verified] — the campaign's failure
    set, used for CI exit codes. *)

val render : t -> string
(** The Table-1-shaped terminal rendering: one line per row (id,
    instruction set and paper bounds where the registry knows the id) with
    one verdict + timing column per n.  Cells with no records render
    as [—]. *)

val to_json : t -> Json.t
(** The grid plus the full record list, self-describing. *)

val to_csv : t -> string
(** One line per record:
    [row,n,kind,engine,reduce,observers,depth,status,configs,probes,elapsed,task]
    — [observers] is the ["+"]-joined observer-name list, empty for
    {!Observer.defaults}. *)
