(** EXPLAIN: render the access plan the executor would use.

    Produces the human-readable plan lines behind [EXPLAIN <query>]
    (sqlite's [EXPLAIN QUERY PLAN] flavour): one line per scan, derived
    table, or compound arm, naming the {!Planner.path} chosen for each
    single-table FROM clause. *)

val query_lines : Executor.ctx -> Sqlast.Ast.query -> string list
(** Plan lines for a whole query, recursing into derived tables and
    compound arms. *)

val run :
  Executor.ctx ->
  Sqlast.Ast.query ->
  (Executor.result_set, Errors.t) result
(** Execute [EXPLAIN q]: a one-column result set of {!query_lines}. *)

val run_analyze :
  Executor.ctx ->
  Sqlast.Ast.query ->
  (Executor.result_set, Errors.t) result
(** Execute [EXPLAIN ANALYZE q]: really runs the query under a private
    flight recorder and renders each operator event as an annotated plan
    line — rows in/out, block counts as [batches=… rows/batch=…], B-tree
    node/entry visits, wall time — ending with a
    [RESULT (rows=…, total=…)] summary.  Errors from the underlying query
    pass through. *)
