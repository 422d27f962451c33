(** Sound 3VL constant folding, backed by the engine evaluator.

    The folder never re-implements expression semantics: it builds a
    bug-free {!Engine.Eval.env} whose tuple holds known (pivot-row)
    values and runs {!Engine.Eval.compile} on it — so folds are
    dialect-correct on affinity, collation and three-valued logic by
    construction.  The [*_substitutable] checks answer the only genuinely
    static question: may an operand of a metadata-sensitive node be
    replaced by a literal of its value without perturbing the node's
    prep (collation choice, affinity adjustments)?  They decide it
    operationally, by running the engine's own prep/apply split both
    ways. *)

open Sqlval

(** One known column value, with the declared metadata the engine's
    comparison rules consult. *)
type binding = {
  b_table : string;
  b_column : string;
  b_value : Value.t;
  b_type : Datatype.t;
  b_collation : Collation.t;
}

(** A bug-free evaluator environment over the bindings.  Resolution is
    case-insensitive; an unqualified column matching several bindings
    resolves to an ambiguity error (so folding such a reference fails
    rather than guessing). *)
val env :
  ?case_sensitive_like:bool -> Dialect.t -> binding list -> Engine.Eval.env

(** A bug-free environment with no columns in scope: folds only the
    genuinely constant subtrees. *)
val const_env : ?case_sensitive_like:bool -> Dialect.t -> Engine.Eval.env

(** Evaluate to a value / truth value; [None] when evaluation errors
    (unresolved column, division by zero, ...). *)
val fold : Engine.Eval.env -> Sqlast.Ast.expr -> Value.t option

val fold_tvl : Engine.Eval.env -> Sqlast.Ast.expr -> Tvl.t option

(** Whether [e] exposes no column metadata (declared type or collation)
    to an enclosing node — i.e. {!Engine.Eval.column_meta} and
    {!Engine.Eval.explicit_collation} are both [None], so replacing [e]
    with a literal of its value cannot change any enclosing static
    prep. *)
val metadata_free : Engine.Eval.env -> Sqlast.Ast.expr -> bool

(** May both operands of [a op b] be replaced by literals of their
    values?  True iff the engine's [compare_prep]/[compare_apply] split
    computes the same result either way on these values. *)
val compare_substitutable :
  Engine.Eval.env ->
  Sqlast.Ast.binop ->
  Sqlast.Ast.expr ->
  Sqlast.Ast.expr ->
  Value.t ->
  Value.t ->
  bool

(** Same question for the three operands of [\[NOT\] BETWEEN]. *)
val between_substitutable :
  Engine.Eval.env ->
  negated:bool ->
  arg:Sqlast.Ast.expr ->
  lo:Sqlast.Ast.expr ->
  hi:Sqlast.Ast.expr ->
  Value.t ->
  Value.t ->
  Value.t ->
  bool

(** Same question for the scrutinee of [\[NOT\] LIKE]. *)
val like_substitutable :
  Engine.Eval.env ->
  negated:bool ->
  arg:Sqlast.Ast.expr ->
  Value.t ->
  Value.t ->
  char option ->
  bool
