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

(** Evaluation environment resolving columns against one row of a table. *)
val row_env :
  Executor.ctx -> Storage.Schema.table -> Storage.Row.t -> Eval.env

(** Build (or rebuild) the entries of one index from its table's rows;
    shared with REINDEX/VACUUM.  Reports a UNIQUE violation when the
    rebuilt keys conflict. *)
val build_index_entries :
  Executor.ctx ->
  Storage.Catalog.table_state ->
  Storage.Index.t ->
  (unit, Errors.t) result

(** The key tuple of [index] for the row [env] resolves (a {!row_env}),
    evaluating expression index columns with the engine evaluator;
    [Error] surfaces evaluation failures (e.g. overflow in an expression
    index). *)
val index_key :
  Eval.env -> Storage.Index.t -> (Sqlval.Value.t array, Errors.t) result

(** {!index_key} when the row satisfies the index's partial predicate
    (trivially so for total indexes), [None] when it does not.  Build the
    row's env once and reuse it across the table's indexes. *)
val index_entry :
  Eval.env -> Storage.Index.t -> (Sqlval.Value.t array option, Errors.t) result
