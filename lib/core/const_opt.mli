(** The constant-optimization (CODDTest-style) oracle.

    A positive containment check comes with a known satisfying assignment
    of the WHERE clause — the pivot row.  This oracle folds that
    assignment into the query as constants with {!Analysis.Simplify},
    re-executes the containment query with the simplified predicate, and
    reports a {!Bug_report.Const_opt} divergence when the pivot row
    vanishes: the simplified predicate agrees with the original on the
    pivot row, so on a correct engine the result cannot be empty.
    Registered as ["const_opt"] (flag [--const-opt]). *)

open Sqlval

(** Flatten the pivot rows of a check into folding bindings. *)
val bindings_of_pivot :
  (Schema_info.table_info * Value.t array) list ->
  Analysis.Const_fold.binding list

(** The simplified containment query plus the simplifier's provenance;
    [None] when the check is ineligible (negative polarity handled by the
    caller; aggregation / GROUP BY / HAVING / LIMIT / OFFSET in the inner
    select) or when no rewrite applied. *)
val simplified_stmt :
  Engine.Session.t ->
  pivot:(Schema_info.table_info * Value.t array) list ->
  Sqlast.Ast.query ->
  (Sqlast.Ast.query * Analysis.Simplify.result) option

(** Does the divergence manifest on this session: original containment
    query nonempty, simplified variant empty?  (The sweep and the reducer
    recheck use this; the oracle skips the first execution because the
    runner already observed the pivot row.) *)
val reproduce :
  Engine.Session.t ->
  pivot:(Schema_info.table_info * Value.t array) list ->
  Sqlast.Ast.query ->
  bool

(** The report message: simplified query SQL plus the rewrite trail. *)
val message :
  Engine.Session.t -> Sqlast.Ast.query -> Analysis.Simplify.result -> string

val oracle : ?sample_every:int -> unit -> Oracle.t
(** [sample_every] (default 8) is the throughput/coverage knob, the
    analogue of plan-diff's fan-out cap: only every [sample_every]-th
    eligible check — chosen deterministically by a structural hash of the
    statement AST, so parallel campaigns merge bit-identically — pays the
    simplify-and-re-execute cost, keeping campaign overhead inside the
    15% budget ([make constopt]).  Pass [~sample_every:1] to check every
    eligible statement (the fixture tests do). *)

(** {1 Seed-corpus sweep} *)

type sweep_result = {
  co_seeds : int;
  co_queries : int;  (** positive containment checks attempted *)
  co_checks : int;  (** checks where a rewrite applied and re-ran *)
  co_rewrites : int;  (** total rewrites across all checks *)
  co_divergences : (int * string) list;
      (** every constant-optimization divergence, tagged with its seed *)
}

(** Build a database per seed, run synthesized containment checks plus
    directed constant-folding probes through the oracle's check, and
    collect every divergence.  With [bugs] empty this must return no
    divergences (the soundness gate); with one of the constant-folding
    bugs injected it must find them. *)
val sweep :
  ?bugs:Engine.Bug.set ->
  seed_lo:int ->
  seed_hi:int ->
  Dialect.t ->
  sweep_result
