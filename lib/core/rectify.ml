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

(* [e] is translated once ({!Interp.Compiled}); the decorated
   re-evaluation shares its memoized value, so the oracle's check of its
   own output (the rectified expression must evaluate to [target]) costs
   a combinator application instead of another AST walk.  Runs inside
   the "rectify" span, so its evaluations are not counted again under
   "interp". *)
let rectify_to ~telemetry ~target env e =
  Telemetry.Span.timed telemetry Telemetry.Phase.Rectify @@ fun () ->
  let open Interp.Compiled in
  let c = compile env e in
  let* t = tvl c in
  let rectified = decoration ~target ~t e in
  let check_c =
    if Tvl.equal t target then c
    else if not (Tvl.equal t Tvl.Unknown) then not_ c
    else if Tvl.equal target Tvl.True then is_null c
    else not_ (is_null c)
  in
  let* check = tvl check_c in
  if Tvl.equal check target then Ok (rectified, t) else fail telemetry

let rectify ?(telemetry = Telemetry.noop) env (e : A.expr) =
  rectify_to ~telemetry ~target:Tvl.True env e

let rectify_to_false ?(telemetry = Telemetry.noop) env (e : A.expr) =
  rectify_to ~telemetry ~target:Tvl.False env e
