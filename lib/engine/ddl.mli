(** Data definition: CREATE/DROP/ALTER TABLE, CREATE/DROP INDEX, views.

    Dialect rules enforced here mirror the features the paper leans on:
    sqlite's untyped columns and WITHOUT ROWID tables, mysql's storage
    engines and unsigned types, postgres's SERIAL, strict typing and table
    inheritance. *)

val create_table :
  Executor.ctx -> Sqlast.Ast.create_table -> (unit, Errors.t) result

val drop_table :
  Executor.ctx -> if_exists:bool -> string -> (unit, Errors.t) result

val alter_table :
  Executor.ctx -> string -> Sqlast.Ast.alter_action -> (unit, Errors.t) result

val create_index :
  Executor.ctx -> Sqlast.Ast.create_index -> (unit, Errors.t) result

val drop_index :
  Executor.ctx -> if_exists:bool -> string -> (unit, Errors.t) result

val create_view :
  Executor.ctx -> string -> Sqlast.Ast.query -> (unit, Errors.t) result

val drop_view :
  Executor.ctx -> if_exists:bool -> string -> (unit, Errors.t) result

(** One statement's compiled row expressions over a table: its CHECKs,
    and the keys and partial-index predicates of its indexes, each
    compiled on first use and run on the row last given. *)
type row_exprs = {
  env : Eval.env;  (** {!Executor.table_env} under the table's name *)
  checks : Eval.thunk list Lazy.t;
  mutable indexes :
    (Storage.Index.t * (Eval.thunk list * Eval.thunk option)) list;
}

val row_exprs : Executor.ctx -> Storage.Schema.table -> row_exprs

(** Place a row's values in the env's tuple, for the CHECK thunks. *)
val set_row : row_exprs -> Sqlval.Value.t array -> unit

(** Build (or rebuild) the entries of one index from its table's rows;
    shared with REINDEX/VACUUM.  Reports a UNIQUE violation when the
    rebuilt keys conflict. *)
val build_index_entries :
  Executor.ctx ->
  Storage.Catalog.table_state ->
  Storage.Index.t ->
  (unit, Errors.t) result

(** The key tuple of [index] for a row's values, evaluating expression
    index columns with the compiled evaluator; [Error] surfaces
    evaluation failures (e.g. overflow in an expression index). *)
val index_key :
  row_exprs ->
  Storage.Index.t ->
  Sqlval.Value.t array ->
  (Sqlval.Value.t array, Errors.t) result

(** {!index_key} when the row satisfies the index's partial predicate
    (trivially so for total indexes), [None] when it does not. *)
val index_entry :
  row_exprs ->
  Storage.Index.t ->
  Sqlval.Value.t array ->
  (Sqlval.Value.t array option, Errors.t) result
