(** Resolved (post-DDL) table schemas, as the executor sees them.

    Unlike the AST's CREATE TABLE, constraints are normalised: the primary
    key is an ordered column list, per-column UNIQUE constraints are
    recorded on the column, and every column carries its resolved collation
    and type. *)

open Sqlval

type column = {
  name : string;
  ty : Datatype.t;
  collation : Collation.t;
  not_null : bool;
  default : Sqlast.Ast.expr option;
  in_primary_key : bool;
  single_unique : bool;  (** column-level UNIQUE constraint *)
}

(** Column smart constructor with the usual defaults (untyped, binary
    collation, nullable). *)
val column :
  ?ty:Datatype.t ->
  ?collation:Collation.t ->
  ?not_null:bool ->
  ?default:Sqlast.Ast.expr ->
  ?in_primary_key:bool ->
  ?single_unique:bool ->
  string ->
  column

type table = {
  mutable table_name : string;
  mutable columns : column array;
  mutable primary_key : string list;  (** ordered; [[]] = rowid only *)
  without_rowid : bool;  (** sqlite *)
  engine : Sqlast.Ast.table_engine option;  (** mysql *)
  inherits : string option;  (** postgres *)
  mutable children : string list;
  mutable table_uniques : string list list;  (** multi-column UNIQUEs *)
  mutable checks : Sqlast.Ast.expr list;
      (** CHECK constraints, evaluated in row context; NULL passes *)
  mutable serial_next : int64;  (** next SERIAL value (postgres) *)
  mutable tainted_null_update : bool;
      (** a NULL was overwritten by UPDATE — trigger state for the injected
          'unexpected null value in index' defect (paper Listing 17) *)
  mutable broken_expr_index : bool;
      (** an expression index references a renamed column — trigger state
          for the injected malformed-schema defect (paper Listing 8) *)
  mutable version : int;
      (** bumped by every change to what the engine's write plan compiles
          from the table: its columns, CHECKs, name and index set *)
}

val make_table :
  ?primary_key:string list ->
  ?without_rowid:bool ->
  ?engine:Sqlast.Ast.table_engine ->
  ?inherits:string ->
  ?table_uniques:string list list ->
  ?checks:Sqlast.Ast.expr list ->
  columns:column array ->
  string ->
  table

(** Mark the table's compiled write plan stale. *)
val bump_version : table -> unit

(** ASCII case-insensitive name equality (what comparing the
    [String.lowercase_ascii] forms gives), without allocating. *)
val name_equal : string -> string -> bool

(** [String.lowercase_ascii], but a name with no uppercase letter is
    returned as it is, not copied. *)
val lower_name : string -> string

(** Case-insensitive column lookup; returns the index and the column. *)
val find_column : table -> string -> (int * column) option

val width : table -> int

(** Copy with fresh mutable arrays (transaction snapshots). *)
val copy_table : table -> table
