(** A database session: the engine's public statement API.

    Each session owns a catalog (one "database file"), an enabled-bug set,
    run-time options and a deterministic RNG (for the one injected
    nondeterministic defect, paper Listing 3).  PQS workers run one session
    per thread on a distinct database, as the paper describes
    (Section 3.4). *)

open Sqlval

type t

type exec_result =
  | Rows of Executor.result_set
  | Affected of int
  | Done

val pp_exec_result : Format.formatter -> exec_result -> unit

val create :
  ?seed:int ->
  ?bugs:Bug.set ->
  ?coverage:Coverage.t ->
  ?telemetry:Telemetry.t ->
  ?recorder:Trace.t ->
  Dialect.t ->
  t
(** [recorder] (default {!Trace.noop}) is the flight recorder threaded
    into the executor context: the engine feeds it planner access-path
    decisions and per-operator annotations while the caller (the PQS
    runner) records statements, pivots and expressions on the same
    ring.

    Every query — [Select_stmt], {!query}, {!query_forced} and
    [EXPLAIN ANALYZE] — runs through {!Compile.run_query}. *)

val dialect : t -> Dialect.t

val catalog : t -> Storage.Catalog.t
val bugs : t -> Bug.set
val options : t -> Options.t
val ctx : t -> Executor.ctx

(** Execute one statement.  Logic errors come back as [Error]; the
    simulated SEGFAULT propagates as the {!Errors.Crash} exception, like a
    process crash would.  With an enabled telemetry registry each
    statement is timed into [minidb_phase_seconds{phase="execute"}] and
    [minidb_statement_seconds{kind=...}] (crashing statements included). *)
val execute : t -> Sqlast.Ast.stmt -> (exec_result, Errors.t) result

(** Convenience: run a query and expect rows. *)
val query : t -> Sqlast.Ast.query -> (Executor.result_set, Errors.t) result

(** Run a query with {!Executor.forced} plan overrides, bypassing
    {!execute}: plan-diff oracle re-runs neither count as campaign
    statements, nor touch the per-statement telemetry, nor record
    coverage hits — forced re-execution is campaign-neutral by
    construction.  [Errors.Crash] propagates like it does from
    {!execute}. *)
val query_forced :
  t ->
  force:Executor.forced ->
  Sqlast.Ast.query ->
  (Executor.result_set, Errors.t) result

(** Static plan lines for a query ({!Explain.query_lines}) without
    executing it or touching the per-statement counters; used when a repro
    bundle wants the annotated plan of the failing query.  [?force]
    renders the plan under those overrides, each forced scan annotated
    ["(forced)"]. *)
val plan_lines : ?force:Executor.forced -> t -> Sqlast.Ast.query -> string list

(** Table names in creation order (the introspection PQS uses instead of
    tracking state itself, paper Section 3.4). *)
val table_names : t -> string list

val view_names : t -> string list
