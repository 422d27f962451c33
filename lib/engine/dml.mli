(** Data manipulation: INSERT (plus OR IGNORE / OR REPLACE), UPDATE, DELETE.

    Constraint enforcement (NOT NULL, UNIQUE via the implicit and explicit
    indexes) and index maintenance happen here; several of the paper's bug
    classes are injected at these sites (the WITHOUT ROWID / NOCASE key
    collapse of Listing 4, the REAL-primary-key corruption of Listing 10,
    stale partial indexes after UPDATE).

    Each statement returns its row count and raises its error with
    {!Eval.fail}.  A row already written stays written: an error ends the
    statement, not its earlier rows.  Two catches are decisions: IGNORE
    turns a failed NOT NULL or CHECK into a skipped row (and a value its
    column cannot store into NULL), and a write whose index key fails to
    evaluate is undone (INSERT detaches the entries it added and deletes
    the row; UPDATE restores the old row version) before its error is
    raised on. *)

val insert :
  Executor.ctx ->
  table:string ->
  columns:string list ->
  rows:Sqlast.Ast.expr list list ->
  action:Sqlast.Ast.conflict_action ->
  int
(** Returns the number of rows actually inserted. *)

val update :
  Executor.ctx ->
  table:string ->
  assignments:(string * Sqlast.Ast.expr) list ->
  where:Sqlast.Ast.expr option ->
  action:Sqlast.Ast.conflict_action ->
  int

val delete :
  Executor.ctx ->
  table:string ->
  where:Sqlast.Ast.expr option ->
  int
