(** Secondary index: a B-tree from canonicalized key tuples to rowids.

    Collations are applied when the key is built (NOCASE folds case, RTRIM
    strips trailing spaces), so the tree itself orders keys with the plain
    cross-class value ordering and UNIQUE enforcement "sees through" the
    collation — the behaviour whose SQLite implementation held the paper's
    first reported bug (Listing 4).

    Key *computation* (evaluating expression index columns against a row)
    lives in {!Ddl}, because it needs the engine evaluator — which is also
    what lets injected evaluator bugs corrupt indexes realistically. *)

open Sqlval

(** Lexicographic cross-class comparison of key tuples; shorter tuples
    order before their extensions. *)
val key_compare : Value.t array -> Value.t array -> int

(** The underlying b-tree of key tuples to rowids. *)
type tree

type t = {
  index_name : string;
  on_table : string;
  unique : bool;
  definition : Sqlast.Ast.indexed_column list;
  collations : Collation.t array;  (** resolved, one per indexed column *)
  where : Sqlast.Ast.expr option;  (** partial-index predicate *)
  mutable tree : tree;
}

val create :
  name:string ->
  table:string ->
  unique:bool ->
  definition:Sqlast.Ast.indexed_column list ->
  collations:Collation.t array ->
  where:Sqlast.Ast.expr option ->
  t

val is_partial : t -> bool
val entry_count : t -> int

(** Does any indexed column hold a non-trivial expression? *)
val is_expression_index : t -> bool

(** Fold text components under the index collations so equal-under-
    collation keys become byte-equal. *)
val canonical_key : t -> Value.t array -> Value.t array

val add : t -> key:Value.t array -> rowid:int64 -> unit
val remove : t -> key:Value.t array -> rowid:int64 -> bool
val find_rowids : t -> Value.t array -> int64 list

(** Rowids already bound to an equal key other than [rowid]; non-empty
    means inserting [rowid] violates UNIQUE.  Keys containing NULL never
    conflict (SQL UNIQUE semantics). *)
val unique_conflicts : t -> key:Value.t array -> rowid:int64 -> int64 list

val iter_range :
  ?lo:Value.t array * bool ->
  ?hi:Value.t array * bool ->
  (Value.t array -> int64 -> unit) ->
  t ->
  unit

val iter : (Value.t array -> int64 -> unit) -> t -> unit
val clear : t -> unit

(** Deep copy (rebuilds the tree); transaction snapshots. *)
val copy : t -> t

val check_invariants : t -> unit

(** [(nodes_visited, entries_scanned)] of the backing B-tree's read path
    (see {!Btree.Make.profile}); telemetry scrapes deltas around index
    operations. *)
val tree_profile : t -> int * int

(** Entry counts of the backing B-tree's nodes in walk order (see
    {!Btree.Make.shape}). *)
val tree_shape : t -> int list
