(** Run-time options: sqlite [PRAGMA]s and mysql/postgres [SET] variables.

    The paper's statement mix includes DBMS-specific options (Figure 3's
    OPTION category; Listings 3 and 9 are option bugs), so the engine models
    a small per-dialect option table with defaults and type checking. *)

type t

(** A fresh option table at the dialect's defaults. *)
val create : Sqlval.Dialect.t -> t

(** Known option names for the dialect with their default values. *)
val known : Sqlval.Dialect.t -> (string * Sqlval.Value.t) list

(** Set an option; errors on unknown names or mistyped values. *)
val set : t -> string -> Sqlval.Value.t -> (unit, Errors.t) result

val get : t -> string -> Sqlval.Value.t option

(** Typed accessors for the options with engine-visible semantics: field
    reads, kept in sync by {!set}, so the engine may call them per row. *)
val case_sensitive_like : t -> bool

val reverse_unordered_selects : t -> bool
val ignore_check_constraints : t -> bool

(** True when [case_sensitive_like] has ever been flipped after session
    start — the trigger condition of paper Listing 9. *)
val like_pragma_touched : t -> bool
