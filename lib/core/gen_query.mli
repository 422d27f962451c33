(** Targeted query synthesis (paper step 5) and the containment check
    (steps 6–7).

    The rectified conditions go into WHERE and/or JOIN clauses of an
    otherwise random SELECT over the pivot tables; random "appropriate
    keywords" (DISTINCT, ORDER BY) are added.  Containment is checked the
    way the paper describes: the query is wrapped as
    [SELECT <pivot values> INTERSECT <query>], which returns a row iff the
    pivot row is contained. *)

open Sqlval

type t = {
  query : Sqlast.Ast.select;  (** the synthesized SELECT *)
  expected_row : Value.t list;
      (** the pivot's values for the selected targets *)
  raw_truths : Tvl.t list;
      (** truth values of the raw conditions before rectification *)
  provenance : (Sqlast.Ast.expr * Tvl.t * Sqlast.Ast.expr) list;
      (** per-condition [(raw, verdict, rectified)] triples, same order as
          [raw_truths]; the flight recorder turns these into [Expr]
          events *)
}

(** A pivot (one row of each of one or more tables or views) prepared
    once for all the checks synthesized over it: the value pool, the
    column targets, the FROM items, and per set of derived-table-wrapped
    tables (built when first drawn) the degraded table infos, the
    interpreter env and the generator's scope. *)
type pivot

val prepare :
  dialect:Dialect.t ->
  case_sensitive_like:bool ->
  (Schema_info.table_info * Value.t array) list ->
  pivot

(** The rows the pivot was prepared from. *)
val rows : pivot -> (Schema_info.table_info * Value.t array) list

(** Synthesize a query over the pivot tables whose result set must contain
    [expected_row] (or, with [~target:False] — the paper's Section 7
    future-work variant — must NOT contain it).  [check_expressions] enables the expressions-on-columns
    extension (paper Section 3.4): targets may be scalar expressions whose
    expected values the oracle interpreter computes.  Fails when the
    interpreter cannot evaluate a generated expression (the caller retries
    with a fresh expression).

    [shape] (coverage-guided mode) overrides the random clause-shape
    decisions: derived-table wrapping, WHERE conjunct count, join kind,
    DISTINCT/ORDER BY/GROUP BY flags, and — when [sh_pred] is set — aims
    the first WHERE conjunct at that expression kind
    ({!Gen_expr.predicate_of_kind}).  Expression/aggregate target
    extensions are suppressed when the shape wants GROUP BY (grouping
    requires plain column targets).

    [pred] — [(pred_rng, kind)] — appends one extra rectified conjunct
    aimed at expression kind [kind], generated entirely from [pred_rng]:
    the main synthesis stream stays byte-identical to a blind run, and
    because the conjunct rectifies to TRUE for the pivot it can only
    narrow the result set around the checked row.  This is the pred-only
    guidance used while shape guidance is still warming up; ignored when
    [shape] is given (its [sh_pred] governs). *)
val synthesize :
  ?rectify:bool ->
  ?target:Tvl.t ->
  ?telemetry:Telemetry.t ->
  ?shape:Gen_bias.shape ->
  ?pred:Rng.t * string ->
  rng:Rng.t ->
  pivot:pivot ->
  max_depth:int ->
  check_expressions:bool ->
  unit ->
  (t, string) result

(** The single-statement containment check:
    [VALUES (expected) INTERSECT query]. *)
val containment_stmt : t -> Sqlast.Ast.stmt
