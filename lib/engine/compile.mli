(** The query executor.

    Translates a planned query into OCaml closures over a mutable
    current-row environment (column references become array-slot reads
    resolved at compile time) and drives the operator pipeline — scan,
    filter, project, aggregate, distinct, sort, limit — over fixed-size
    row blocks instead of walking the expression AST once per row.

    Value-level semantics are not duplicated: closures call the operator
    bodies exported by {!Eval}, so every dialect quirk and injected bug
    lives in one place.  Joins (nested loops with the ON predicate
    compiled once against the combined binding layout), comma-FROM cross
    products, derived tables, view expansion and aggregation (through
    {!Executor.group_tuples} and {!Executor.substitute_aggs}) all
    compile, so {!run_query} is total over the query AST.  Operators
    work in {!Executor.block_size}-row blocks. *)

val run_query :
  Executor.ctx -> Sqlast.Ast.query -> (Executor.result_set, Errors.t) result
