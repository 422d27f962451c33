(** Expression rectification (paper Algorithm 3).

    Given the pivot-row environment, modify a random expression so that it
    is guaranteed to evaluate to TRUE: keep it if it already does, negate
    it if FALSE, and wrap it in [IS NULL] if NULL.  Works for any logic
    system representable in {!Sqlval.Tvl} (the paper notes the same step
    adapts to e.g. four-valued logics). *)

(** [rectify env e] returns the rectified expression together with the
    truth value the raw expression had (used by the evaluation's
    rectification-rate statistics), or an error when the oracle
    interpreter cannot evaluate [e].  With an enabled [?telemetry]
    registry the call is timed into [pqs_phase_seconds{phase="rectify"}]
    (its interpreter evaluations count there, not under
    [phase="interp"]), and postcondition
    failures bump [pqs_rectify_postcondition_failures_total].

    The expression is evaluated once; the postcondition re-check (the
    rectified expression must evaluate to the target) applies the
    interpreter's NOT / IS NULL to that value instead of walking the
    expression again. *)
val rectify :
  ?telemetry:Telemetry.t ->
  Interp.env ->
  Sqlast.Ast.expr ->
  (Sqlast.Ast.expr * Sqlval.Tvl.t, string) result

(** Rectify to FALSE instead — the paper's future-work variant (Section 7:
    "generate conditions and check that the pivot row is NOT contained").
    Used by the ablation experiments. *)
val rectify_to_false :
  ?telemetry:Telemetry.t ->
  Interp.env ->
  Sqlast.Ast.expr ->
  (Sqlast.Ast.expr * Sqlval.Tvl.t, string) result
