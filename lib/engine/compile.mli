(** The query executor: a push pipeline over compiled expressions.

    Each expression of a query is compiled once by {!Eval.compile} (or,
    for WHERE, ON and HAVING, {!Eval.compile_pred}) into a closure over a
    mutable current tuple (column references become array-slot reads
    resolved at compile time).  A SELECT runs as one
    nested loop over its materialized FROM sources (scans, joins, views,
    derived tables) that evaluates WHERE on each tuple and projects each
    tuple WHERE accepts at once, pushing the row, with its ORDER BY keys,
    through stages built once per SELECT (DISTINCT, ORDER BY,
    OFFSET/LIMIT) into a sink.  An explicit JOIN's pairs are produced in
    that loop, so ON runs per pair when it is infallible, and up front,
    over every pair, when it can raise.  Rows go one at a time;
    {!Executor.batches_of} only sizes the [batches] count of the flight
    recorder's operator events.  Errors keep their order: a WHERE error
    ends the SELECT at once, and the first projection or ORDER BY key
    error is held while WHERE runs on over the remaining tuples, and is
    raised only if WHERE raised none.

    INTERSECT and EXCEPT probe their right operand against the hashed
    left rows instead of collecting it.  Once every left key is met, a
    probed SELECT whose WHERE, items and ORDER BY keys are all
    infallible ({!Eval.compile_checked}) stops, with the join it runs:
    no later row could change the result or raise.  Others run to the
    end.

    Value-level semantics are not duplicated: closures call the operator
    bodies in {!Eval}, so every dialect quirk and injected bug lives in
    one place.  Aggregation goes through {!Executor.group_tuples} and
    {!Executor.substitute_aggs}, so {!query} is total over the query
    AST.  The pipeline raises like {!Eval}'s closures: each step returns
    a bare value, the first error raised ends the query, and only the
    held projection error is caught on the way.  The per-row loops
    allocate only the rows and values they produce. *)

(** Run a query, raising its first error with {!Eval.fail}: the form
    statements inside the engine use, under their statement's one
    {!Eval.run}. *)
val query : Executor.ctx -> Sqlast.Ast.query -> Executor.result_set

(** {!query} inside its own {!Eval.run}, for callers outside a
    statement (views read by the PQS schema probe).  [Errors.Crash] is
    not caught. *)
val run_query :
  Executor.ctx -> Sqlast.Ast.query -> (Executor.result_set, Errors.t) result
