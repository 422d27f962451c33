(** The constant-optimization rewriter.

    Iterates a bottom-up pass to a fixpoint: substitutes known
    (pivot-row) column values, folds constant subtrees through
    {!Const_fold} — i.e. through the engine evaluator itself — prunes
    tautological / contradictory AND-OR conjuncts and dead searched-CASE
    branches, and records a provenance trail of every rewrite.

    Soundness contract: under the binding environment the result expression
    evaluates to the same value as the original on a bug-free engine, and
    no rewrite can introduce an evaluation error the original lacked.
    The boolean skeleton (AND / OR / NOT / IS) and metadata-bearing roots
    (Col, COLLATE, CAST, unary [+]) are never folded away, so the
    simplified query still exercises the engine's own constant folder —
    which is exactly what the const-opt oracle differentially tests. *)

(** One applied rewrite, with the rule name, the dotted location, and the
    SQL renderings before / after. *)
type rewrite = {
  rw_rule : string;
  rw_loc : string;
  rw_before : string;
  rw_after : string;
}

val pp_rewrite : Format.formatter -> rewrite -> unit

type result = {
  res_expr : Sqlast.Ast.expr;
  res_trail : rewrite list;  (** rewrites in application order *)
}

(** Simplify under the given environment (build one with
    {!Const_fold.env} / {!Const_fold.const_env}). *)
val simplify : Engine.Eval.env -> Sqlast.Ast.expr -> result
