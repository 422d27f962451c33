(** The plan-space differential oracle.

    PQS validates one execution per query; planner defects that only fire
    under a particular access path escape it unless the default plan
    happens to take that path.  This oracle checks every synthesized
    SELECT under each enumerable plan ({!Engine.Planner.enumerate} plus
    forced join orders, via {!Engine.Session.query_forced}) and
    cross-checks the result multisets.  On a correct engine every
    enumerated path is a sound superset of the matching rows and the
    executor re-applies the full WHERE filter, so any divergence is a bug
    by construction.

    Each scan or join site is compared through a minimal witness query —
    [SELECT (DISTINCT) * FROM site WHERE site-where] — rather than by
    re-running the whole SELECT per plan: the projections, sorts,
    compound arms and subqueries around a scan are plan-invariant, and
    the witness keeps the oracle's campaign overhead within its budget.
    Witnesses carry no LIMIT/GROUP BY/ORDER BY, so their results are
    scan-order-insensitive by construction; multisets are compared under
    {!Engine.Executor.Row_eq}, the same typed row identity the engine's
    own DISTINCT/compound dedup uses (integral Reals and Bools equal the
    matching Int; other Reals are equal to 12 significant digits), so
    value-representation coarseness can never produce a false positive. *)

open Sqlval

(** Forced runs per synthesized query, summed over its scan sites (4). *)
val max_plans : int

(** One cross-plan disagreement. *)
type divergence = {
  dv_witness : string;
      (** SQL of the minimal witness query both plans ran *)
  dv_forced : Engine.Executor.forced;  (** the disagreeing plan *)
  dv_default_rows : int;
  dv_forced_rows : int;
  dv_cardinalities : (string * int) list;
      (** per-plan row counts on the witness, default first; [-1] marks a
          plan whose execution errored *)
  dv_default_plan : string list;  (** annotated EXPLAIN, default plan *)
  dv_forced_plan : string list;  (** annotated EXPLAIN, forced plan *)
}

type outcome = {
  oc_plans : int;  (** forced plans executed *)
  oc_divergence : divergence option;  (** first disagreement, if any *)
}

(** The one-line report message carried by the {!Bug_report.Plan_diff}
    bug report: witness SQL, forced-plan label, both cardinalities, the
    full per-plan cardinality list and both annotated plans. *)
val message : divergence -> string

(** Run the differential check for one query.  A containment check
    [VALUES (pivot) INTERSECT q] is unwrapped to [q] first (the INTERSECT
    would mask divergences away from the pivot row).  Each scan site of
    the query yields a minimal witness query, executed once under the
    default plan and once under each non-default enumerated plan, up to
    {!max_plans} forced runs in all; the first disagreeing witness is
    reported.  All executions go through
    {!Engine.Session.query_forced} — no statement counting, no coverage,
    no randomness.  Plans that error or hit the simulated SEGFAULT are
    recorded with cardinality [-1] and skipped for comparison. *)
val check_query : Engine.Session.t -> Sqlast.Ast.query -> outcome

(** The multiset the comparison holds: the default plan's rows, each
    distinct row (under {!Engine.Executor.Row_eq}) counted once in an
    {!Engine.Executor.Row_tbl}. *)
type counts

val counts : Value.t array list -> counts

(** Do [rows] equal the counted multiset?  Leaves the counts as they
    were, so one [counts] serves every forced plan of a witness. *)
val matches : counts -> Value.t array list -> bool

(** The join-order differential: compare
    [SELECT * FROM a AS pd_l, b AS pd_r] under the default and the
    swapped join order, over up to two consecutive catalog table pairs
    (a self-join when the catalog has one table).
    Join-order agreement is a property of the join machinery and the
    stored data, not of the surrounding query, so the oracle runs this
    once per database rather than once per synthesized query. *)
val check_join_orders : Engine.Session.t -> outcome

(** The oracle: runs {!check_query} on every [Containment_check] event
    and {!check_join_orders} on [Database_ready], times itself under
    {!Telemetry.Phase.Plan_diff}, and counts
    [pqs_plans_enumerated_total] / [pqs_plan_divergences_total].
    Campaign-neutral by construction (see {!Engine.Session.query_forced});
    append it after [Oracle.defaults] so the paper's oracles keep report
    priority. *)
val oracle : unit -> Oracle.t

(** {1 Seed-corpus sweep} ([make plandiff] / [sqlancer plan-diff] /
    the detection tests) *)

type sweep_result = {
  pd_seeds : int;
  pd_queries : int;  (** synthesized queries checked *)
  pd_plans : int;  (** forced plans executed *)
  pd_containment_seeds : int list;
      (** seeds on which the containment check itself failed (pivot row
          missing), ascending and deduplicated *)
  pd_divergences : (int * string) list;
      (** every plan divergence, tagged with its seed *)
}

(** Draw a database and {!Corpus.queries_per_seed} pivoted queries per
    seed from {!Corpus}, add deterministic plan-space indexes and directed
    access-path probes, and run {!check_query} on each, also recording
    whether the plain containment check would have fired — the data
    behind the per-oracle detection matrix. *)
val sweep :
  ?bugs:Engine.Bug.set ->
  seed_lo:int ->
  seed_hi:int ->
  Dialect.t ->
  sweep_result

(** Seeds with a plan divergence but no containment failure: the bug
    classes only the plan-space oracle surfaces. *)
val exclusive_seeds : sweep_result -> int list
