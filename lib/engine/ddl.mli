(** Data definition: CREATE/DROP/ALTER TABLE, CREATE/DROP INDEX, views.

    Dialect rules enforced here mirror the features the paper leans on:
    sqlite's untyped columns and WITHOUT ROWID tables, mysql's storage
    engines and unsigned types, postgres's SERIAL, strict typing and table
    inheritance. *)

(** Each statement raises its error with {!Eval.fail}. *)

val create_table : Executor.ctx -> Sqlast.Ast.create_table -> unit
val drop_table : Executor.ctx -> if_exists:bool -> string -> unit
val alter_table : Executor.ctx -> string -> Sqlast.Ast.alter_action -> unit
val create_index : Executor.ctx -> Sqlast.Ast.create_index -> unit
val drop_index : Executor.ctx -> if_exists:bool -> string -> unit
val create_view : Executor.ctx -> string -> Sqlast.Ast.query -> unit
val drop_view : Executor.ctx -> if_exists:bool -> string -> unit

(** A table's write plan: its row expressions compiled once per schema
    version and kept on its catalog entry.  CHECKs, index keys and
    partial-index predicates compile on first use and run on the row last
    placed in the env's tuple. *)
type index_plan = {
  ix : Storage.Index.t;
  slot : int;  (** position in [plan.indexes] and in a row's entry memo *)
  compiled : (Eval.thunk array * Eval.pred option) Lazy.t;
      (** key columns and partial-index predicate *)
}

type plan = {
  env : Eval.env;  (** {!Executor.table_env} under the table's name *)
  version : int;  (** the {!Storage.Schema.version} compiled *)
  checks : Eval.pred list Lazy.t;
  indexes : index_plan list;  (** the table's indexes, catalog order *)
}

(** The table's current plan: the cached one while its schema version,
    the LIKE pragma and the coverage instrument are unchanged, else a new
    one (cached in turn). *)
val plan : Executor.ctx -> Storage.Catalog.table_state -> plan

(** Place a row's values in the env's tuple, for CHECK and WHERE
    predicates. *)
val set_row : plan -> Sqlval.Value.t array -> unit

(** A row's entry under one index.  [Absent]: the row fails the partial
    predicate; [Failed]: a key or predicate failed to evaluate (e.g.
    overflow in an expression index), caught and kept, so the writes that
    share the memo see the same failure; [Pending] only inside a memo. *)
type entry =
  | Pending
  | Absent
  | Key of Sqlval.Value.t array
  | Failed of Errors.t

(** One row's entries under every index of a plan, evaluated lazily and
    at most once each, so a unique check and the attach or detach that
    follows share them. *)
type row_entries = { plan : plan; row : Storage.Row.t; memo : entry array }

val row_entries : plan -> Storage.Row.t -> row_entries

(** The row's entry under an index of its plan (never [Pending]). *)
val entry : row_entries -> index_plan -> entry

(** Build (or rebuild) the entries of one index from its table's rows;
    shared with REINDEX/VACUUM.  Raises a UNIQUE violation when the
    rebuilt keys conflict, or the first key that fails to evaluate. *)
val build_index_entries :
  Executor.ctx -> Storage.Catalog.table_state -> Storage.Index.t -> unit
