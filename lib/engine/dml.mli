(** Data manipulation: INSERT (plus OR IGNORE / OR REPLACE), UPDATE, DELETE.

    Constraint enforcement (NOT NULL, UNIQUE via the implicit and explicit
    indexes) and index maintenance happen here; several of the paper's bug
    classes are injected at these sites (the WITHOUT ROWID / NOCASE key
    collapse of Listing 4, the REAL-primary-key corruption of Listing 10,
    stale partial indexes after UPDATE). *)

val insert :
  Executor.ctx ->
  table:string ->
  columns:string list ->
  rows:Sqlast.Ast.expr list list ->
  action:Sqlast.Ast.conflict_action ->
  (int, Errors.t) result
(** Returns the number of rows actually inserted. *)

val update :
  Executor.ctx ->
  table:string ->
  assignments:(string * Sqlast.Ast.expr) list ->
  where:Sqlast.Ast.expr option ->
  action:Sqlast.Ast.conflict_action ->
  (int, Errors.t) result

val delete :
  Executor.ctx ->
  table:string ->
  where:Sqlast.Ast.expr option ->
  (int, Errors.t) result
