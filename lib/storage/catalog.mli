(** Database catalog: tables (schema + heap), indexes, views and extended
    statistics, with case-insensitive name lookup and creation-ordered
    introspection — the analogue of [sqlite_master] / [information_schema],
    which the paper's tool queries for state instead of tracking it itself
    (Section 3.4).

    The [corruption] field models on-disk corruption: once set, statements
    that touch the database report the dialect's "malformed database"
    error — the strongest signal of the paper's error oracle
    (Listing 10). *)

(** What the engine compiles from a table (its write plan).  Storage only
    carries it; the engine checks it against [Schema.version] before use,
    and snapshot copies start {!Not_compiled}. *)
type compiled = ..

type compiled += Not_compiled

type table_state = {
  schema : Schema.table;
  heap : Heap.t;
  mutable compiled : compiled;
}
type view = { view_name : string; view_query : Sqlast.Ast.query }

type statistics = {
  stat_name : string;
  stat_table : string;
  stat_columns : string list;
}

type t = {
  mutable tables : (string * table_state) list;  (** key: lowercase name *)
  mutable indexes : (string * Index.t) list;
  mutable views : (string * view) list;
  mutable stats : (string * statistics) list;
  mutable corruption : string option;
  mutable analyzed : bool;  (** ANALYZE ran: the planner may use stats *)
}

val create : unit -> t

(** {2 Tables} *)

val find_table : t -> string -> table_state option
val table_exists : t -> string -> bool
val add_table : t -> Schema.table -> table_state

(** Also drops the table's indexes. *)
val drop_table : t -> string -> bool

val table_names : t -> string list

(** Direct postgres-inheritance children of a table. *)
val children_of : t -> string -> string list

(** {2 Indexes} *)

val find_index : t -> string -> Index.t option
val index_exists : t -> string -> bool
(** Adding or dropping an index bumps its table's {!Schema.version}. *)
val add_index : t -> Index.t -> unit

val drop_index : t -> string -> bool
val indexes_on : t -> string -> Index.t list
val index_names : t -> string list

(** {2 Views} *)

val find_view : t -> string -> view option
val view_exists : t -> string -> bool
val add_view : t -> view -> unit
val drop_view : t -> string -> bool
val view_names : t -> string list

(** {2 Extended statistics (postgres CREATE STATISTICS)} *)

val add_statistics : t -> statistics -> unit
val statistics_exists : t -> string -> bool
val statistics_on : t -> string -> statistics list

(** {2 Corruption} *)

(** First corruption wins; later calls keep the original message. *)
val corrupt : t -> string -> unit

val corruption : t -> string option

(** {2 Snapshots (transactions)} *)

type snapshot

(** Deep copy of the whole database state. *)
val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
