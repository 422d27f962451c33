(** Maintenance statements: VACUUM, REINDEX, ANALYZE, CHECK TABLE, REPAIR
    TABLE, CREATE STATISTICS, DISCARD.

    The paper observed that "statements that compute or recompute table
    state were error prone" (Section 4.3); most error-oracle bug classes
    are injected here.  Each statement raises its error with
    {!Eval.fail}. *)

val vacuum : Executor.ctx -> full:bool -> unit
val reindex : Executor.ctx -> string option -> unit
val analyze : Executor.ctx -> string option -> unit
val check_table : Executor.ctx -> table:string -> for_upgrade:bool -> unit
val repair_table : Executor.ctx -> string -> unit

val create_statistics :
  Executor.ctx -> name:string -> table:string -> columns:string list -> unit

val discard_all : Executor.ctx -> unit
