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

    As the paper notes, the interpreter is deliberately naive: it operates
    on single literals, so it needs no query planning.  It still runs for
    every synthesized condition and target (tens of thousands of times a
    second in a campaign), so it is written like the engine's evaluator:
    each node returns a bare value, and a refusal leaves by one private
    exception, caught once per expression by {!eval} and {!eval_tvl}.

    Refusal contract: the interpreter refuses an expression it cannot
    evaluate on the pivot (an unknown or ambiguous column, a dialect's
    type error, a function the dialect lacks, ...).  Operands are
    evaluated left to right, and AND/OR/CASE short-circuit as SQL does,
    so the error is the message of the first refusal in that order; an
    operand the evaluation never reaches cannot refuse.  Looking up a
    column's declared type or collation (for affinity and collation
    rules) is not an evaluation: an unresolvable column has no metadata
    there, and refuses only when its value is evaluated. *)

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

(** Environment over one pivot row per table: unqualified columns resolve
    across all tables (ambiguity is an error, as in SQL). *)
val env_of_pivot :
  ?case_sensitive_like:bool ->
  Dialect.t ->
  (Schema_info.table_info * Value.t array) list ->
  env

val eval : env -> Sqlast.Ast.expr -> (Value.t, string) result
val eval_tvl : env -> Sqlast.Ast.expr -> (Tvl.t, string) result
