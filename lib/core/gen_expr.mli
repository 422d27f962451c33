(** Random expression generation (paper Algorithm 1).

    Expressions are ASTs over the schema's column names and random
    constants, bounded by [max_depth].  For the sqlite-like and mysql-like
    dialects any type is acceptable in a boolean context (implicit
    conversions); for the postgres-like dialect generation is type-directed
    and the root must be boolean (paper Section 3.2). *)

open Sqlval

(** What generation reads of the tables in scope, built once: their
    columns, each with its qualified and bare reference and whether
    another in-scope column shares its name, and the value pool.  A pool
    biases literal generation toward small mutations of values present in
    the database (trailing spaces, case flips, off-by-one), which is what
    makes collation/affinity bug classes reachable within realistic
    budgets. *)
type scope

val scope :
  ?pool:Sqlval.Value.t list -> Dialect.t -> Schema_info.table_info list -> scope

type ctx = { rng : Rng.t; max_depth : int; scope : scope }

(** A condition candidate for WHERE/JOIN (boolean-valued root for
    postgres). *)
val condition : ctx -> Sqlast.Ast.expr

(** An arbitrary scalar expression (used by the expressions-on-columns
    extension of paper Section 3.4). *)
val scalar : ctx -> Sqlast.Ast.expr

(** A bare column-vs-literal predicate (comparison, IS, LIKE, BETWEEN, IN)
    used as a WHERE conjunct; these shapes are what index access paths key
    on. *)
val simple_predicate : ctx -> Sqlast.Ast.expr

(** A WHERE-suitable predicate exercising the given expression kind (a
    [Gen_bias] expression-kind token such as ["between"] or ["collate"]):
    coverage-guided generation uses it to aim a conjunct at a cold
    frontier point.  [None] when the dialect cannot produce the kind
    (e.g. ["glob"] outside sqlite) — shapes only compose constructors the
    blind generators already emit. *)
val predicate_of_kind : ctx -> string -> Sqlast.Ast.expr option

(** A random constant of a random type suitable for the dialect. *)
val literal : Rng.t -> Dialect.t -> Value.t

(** A literal whose value can be stored in a column of the given type in
    the given dialect without erroring (used by INSERT generation). *)
val literal_for_column : Rng.t -> Dialect.t -> Datatype.t -> Value.t
