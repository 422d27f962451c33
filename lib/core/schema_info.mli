(** PQS's view of the database schema.

    As in the paper (Section 3.4), PQS does not track state itself: it
    re-reads the schema from the engine's catalog (the analogue of querying
    [sqlite_master] / [information_schema]). *)

open Sqlval

type column_info = {
  ci_name : string;
  ci_type : Datatype.t;
  ci_collation : Collation.t;
  ci_not_null : bool;
}

type table_info = {
  ti_name : string;
  ti_columns : column_info list;
  ti_without_rowid : bool;
  ti_engine : Sqlast.Ast.table_engine option;
  ti_has_children : bool;
  ti_row_count : int;
}

val pp_table_info : Format.formatter -> table_info -> unit

(** Snapshot of the user tables (not views), in creation order. *)
val tables_of_session : Engine.Session.t -> table_info list

(** Existing index names (for DROP INDEX / REINDEX generation). *)
val index_names_of_session : Engine.Session.t -> string list

(** All rows of a table from the heap (the ground truth the pivot row is
    drawn from). *)
val rows_of_table : Engine.Session.t -> string -> Value.t array list

(** Views presented as pivot sources: a pseudo table_info (untyped, binary
    collation columns) plus the view's current rows.  The paper notes views
    were among the sqlite features PQS exercised (Section 4.2). *)
val view_pivot_sources :
  Engine.Session.t -> (table_info * Value.t array list) list
