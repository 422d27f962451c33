(** The engine's expression evaluator: expressions compile to closures.

    This is the component the paper's containment oracle puts under test:
    most injected containment-class bugs live here (comparison collations,
    implicit conversions, LIKE handling, operator folding).  Queries
    ({!Compile}), writes ({!Dml}, {!Ddl}), the planner's constants and the
    constant folder ({!Analysis.Const_fold}) all evaluate through
    {!compile} and {!compile_pred}, whose closures return bare values
    and truth values and raise their errors to one {!run} per statement.
    The PQS oracle interpreter ({!Pqs.Interp}) re-implements
    the same semantics independently and is never bug-injected; with the
    bug set empty, a qcheck property (projections of random expressions)
    and the executor tests (an expression battery as SELECT WHERE,
    projection, ORDER BY and DELETE WHERE) check the two agree. *)

open Sqlval

(** {1 Bindings} *)

(** One row source in scope: lowercase alias and column metadata. *)
type binding = {
  b_alias : string;
  b_columns : (string * Datatype.t * Collation.t) array;
}

val binding_of_table : Storage.Schema.table -> alias:string -> binding

(** {1 Environments} *)

type env = {
  dialect : Dialect.t;
  bugs : Bug.set;
  case_sensitive_like : bool;  (** sqlite PRAGMA state *)
  coverage : Coverage.t option;
  layout : binding list;
      (** the columns in scope.  A qualified reference must match an
          alias; an unqualified one must match exactly one column across
          all bindings.  Compilation resolves references to slots and
          reads type and collation from here. *)
  cur : Value.t array array ref;
      (** the tuple under evaluation: one value array per binding of
          [layout], in order.  Compiled closures read column values from
          it and nowhere else. *)
}

(** Environment with no columns in scope (constant expressions). *)
val const_env :
  ?bugs:Bug.set -> ?case_sensitive_like:bool -> Dialect.t -> env

(** [env] over [layout], with a fresh all-NULL tuple in [cur]. *)
val with_layout : env -> binding list -> env

(** {1 Compilation} *)

(** A compiled value expression.  It raises an evaluation error, which
    only {!run} catches. *)
type thunk = unit -> Value.t

(** A compiled boolean context.  It raises like a {!thunk}. *)
type pred = unit -> Tvl.t

(** Compile an expression once against [env]'s layout; each call of the
    result evaluates it on the tuple then in [env.cur]. *)
val compile : env -> Sqlast.Ast.expr -> thunk

(** Compile an expression for a boolean context (WHERE/ON/HAVING, CASE
    WHEN, CHECK, partial-index predicates): each call returns what
    {!value_tvl} makes of {!compile}'s value, error included, without
    building that value. *)
val compile_pred : env -> Sqlast.Ast.expr -> pred

(** {!compile}, also reporting whether the closure is infallible: [true]
    only if no evaluation of it can raise, on any tuple, under [env]'s
    dialect and bug set.  Each node vouches for itself and needs every
    child to be infallible too; a node that does not vouch (an
    unresolved column, a misused aggregate, a function outside the
    dialect or with the wrong arity, ABS, LIKE ... ESCAPE, GLOB outside
    sqlite, a rejected IS form, postgres's typed operators and truth
    values, mysql and postgres integer overflow and division) counts as
    fallible.  A compound query's set probe stops early only over
    infallible expressions. *)
val compile_checked : env -> Sqlast.Ast.expr -> thunk * bool

(** {!compile_pred}, with the same infallibility report. *)
val compile_pred_checked : env -> Sqlast.Ast.expr -> pred * bool

(** [run f] calls [f] and returns its result, or the first evaluation
    error raised in it.  Callers wrap a statement's evaluation in one
    [run]; [Errors.Crash] is not caught. *)
val run : (unit -> 'a) -> ('a, Errors.t) result

(** [catch f x ~error] is [f x], or [error e] for the first evaluation
    error [e] raised in it: {!run} for a top-level [f], which builds
    neither a closure nor a result block. *)
val catch : ('a -> 'b) -> 'a -> error:(Errors.t -> 'b) -> 'b

(** Raise an evaluation error, for the caller's {!run} to catch. *)
val fail : Errors.t -> 'a

(** Dialect encoding of a three-valued result: INTEGER 0/1/NULL for sqlite
    and mysql, BOOLEAN/NULL for postgres. *)
val bool_value : Dialect.t -> Tvl.t -> Value.t

(** Truth value of a value in boolean context; raises like a {!thunk}. *)
val value_tvl : env -> Value.t -> Tvl.t

(** {1 Static metadata} *)

(** Static column metadata of an expression, if it is (a decoration of) a
    column reference; comparison affinity/collation rules consult it. *)
val column_meta :
  env -> Sqlast.Ast.expr -> (Datatype.t * Collation.t) option

(** The collation governing a comparison of [a] with [b] under SQLite's
    rules (explicit COLLATE anywhere wins, else left column's collation,
    else right's, else BINARY). *)
val comparison_collation :
  env -> Sqlast.Ast.expr -> Sqlast.Ast.expr -> Collation.t

(** The explicit collation of [e] (COLLATE node, or a non-BINARY column
    collation), if any. *)
val explicit_collation : env -> Sqlast.Ast.expr -> Collation.t option

(** {1 Operator preps}

    Each metadata-sensitive operator splits into a static prep, computed
    once from the operand expressions and the layout, and an apply over
    operand values that raises like a {!thunk}.  {!compile_pred} uses
    them; the constant folder runs them both ways to decide whether an
    operand may become a literal. *)

(** An operand expression with its static column metadata. *)
type operand

val operand : env -> Sqlast.Ast.expr -> operand

(** Comparison operators ([=], [<>], [<], [<=], [>], [>=], [<=>]):
    collation, affinity adjustments, metadata-gated bug decisions. *)
type cmp_prep

val compare_prep : env -> Sqlast.Ast.binop -> operand -> operand -> cmp_prep

val compare_apply : env -> cmp_prep -> Value.t -> Value.t -> Tvl.t

(** [\[NOT\] BETWEEN]. *)
type between_prep

val between_prep :
  env -> negated:bool -> arg:operand -> lo:operand -> hi:operand -> between_prep

val between_apply :
  env -> between_prep -> Value.t -> Value.t -> Value.t -> Tvl.t

(** Decode an evaluated ESCAPE operand to its escape character. *)
val like_escape_char : Value.t -> char option

(** [\[NOT\] LIKE]. *)
type like_prep

val like_prep : env -> negated:bool -> arg:operand -> like_prep

val like_apply :
  env -> like_prep -> Value.t -> Value.t -> char option -> Tvl.t
