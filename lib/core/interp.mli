(** The PQS oracle interpreter (paper Section 3.2, Algorithm 2).

    Evaluates a randomly generated expression against the pivot row,
    substituting column references by the pivot's values.  This is the
    ground truth the containment oracle relies on: it implements the
    *correct* dialect semantics, carries no bug injections, and shares no
    evaluation code with {!Engine.Eval} (only the leaf value primitives of
    [sqlval]).  It is the independent reference for the engine's one
    compiled evaluator, on reads and writes alike: with the engine's bug
    set empty, a property test asserts agreement on projections, and the
    executor tests require SELECT WHERE, projection, ORDER BY and DELETE
    WHERE to match its verdicts.

    As the paper notes, the interpreter is deliberately naive — it operates
    on single literals, so neither query planning nor performance matter. *)

open Sqlval

type binding = {
  b_value : Value.t;
  b_type : Datatype.t;
  b_collation : Collation.t;
}

type env = {
  dialect : Dialect.t;
  case_sensitive_like : bool;
  lookup : table:string option -> column:string -> (binding, string) result;
}

val const_env : ?case_sensitive_like:bool -> Dialect.t -> env

(** Environment over one pivot row per table: unqualified columns resolve
    across all tables (ambiguity is an error, as in SQL). *)
val env_of_pivot :
  ?case_sensitive_like:bool ->
  Dialect.t ->
  (Schema_info.table_info * Value.t array) list ->
  env

val eval : env -> Sqlast.Ast.expr -> (Value.t, string) result
val eval_tvl : env -> Sqlast.Ast.expr -> (Tvl.t, string) result

(** Compiled containment checks: evaluate an expression once, memoize the
    result, and derive the truth values of its rectified decorations
    ([NOT e], [e IS NULL]) from the memoized value instead of re-walking
    the AST.  The combinators are value-level translations of the
    corresponding AST nodes, so a {!Compiled.t} always agrees with
    {!eval} on the equivalent expression; {!Rectify} still performs its
    postcondition check against them. *)
module Compiled : sig
  type t

  (** Translate [e] under [env] into a compiled check.  Evaluation is
      deferred and memoized: forcing {!value} (or {!tvl}) walks the AST
      at most once for the lifetime of the value. *)
  val compile : env -> Sqlast.Ast.expr -> t

  val value : t -> (Value.t, string) result
  val tvl : t -> (Tvl.t, string) result

  (** The compiled form of [A.Unary (A.Not, e)], sharing [e]'s memoized
      evaluation. *)
  val not_ : t -> t

  (** The compiled form of [A.Is { negated = false; arg = e; rhs =
      A.Is_null }], sharing [e]'s memoized evaluation. *)
  val is_null : t -> t
end
