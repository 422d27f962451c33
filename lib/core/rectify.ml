open Sqlval
module A = Sqlast.Ast

let ( let* ) = Result.bind

let fail tele =
  Telemetry.inc tele "pqs_rectify_postcondition_failures_total";
  Error "rectification postcondition failed"

(* The decoration that forces [e] (whose raw truth value is [t]) to
   [target]: identity when it already matches, NOT on a definite
   mismatch, IS [NOT] NULL on Unknown. *)
let decoration ~target ~t e =
  if Tvl.equal t target then e
  else if not (Tvl.equal t Tvl.Unknown) then A.Unary (A.Not, e)
  else
    A.Is { negated = not (Tvl.equal target Tvl.True); arg = e; rhs = A.Is_null }

(* [e] is evaluated once.  The postcondition (the rectified expression
   evaluates to [target]) is checked by the interpreter's own NOT and
   IS NULL nodes over [e]'s value: the decoration applied to that value
   as a literal, instead of another walk of [e].  Runs inside the
   "rectify" span, so its evaluations are not counted again under
   "interp". *)
let rectify_to ~telemetry ~target env e =
  Telemetry.Span.timed telemetry Telemetry.Phase.Rectify @@ fun () ->
  let* v = Interp.eval env e in
  let* t = Interp.eval_tvl env (A.Lit v) in
  let* check = Interp.eval_tvl env (decoration ~target ~t (A.Lit v)) in
  if Tvl.equal check target then Ok (decoration ~target ~t e, t)
  else fail telemetry

let rectify ?(telemetry = Telemetry.noop) env (e : A.expr) =
  rectify_to ~telemetry ~target:Tvl.True env e

let rectify_to_false ?(telemetry = Telemetry.noop) env (e : A.expr) =
  rectify_to ~telemetry ~target:Tvl.False env e
