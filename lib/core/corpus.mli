(** The seed corpus: one small generated database per seed, and pivoted
    queries drawn from it — the PQS loop (paper steps 1–5) without the
    oracle.

    The seed sweeps ({!lint} below, {!Plan_diff.sweep},
    {!Const_opt.sweep}) share this recipe and differ only in the check
    they run on each query; {!Runner.run_round} shares its pivot pick.
    Every draw comes from the seed's own {!Rng.t}, so a sweep is a
    deterministic function of its seed range. *)

open Sqlval

type source = Schema_info.table_info * Value.t array list
(** A table with its current rows. *)

type pivot = (Schema_info.table_info * Value.t array) list
(** One row per chosen table. *)

type t = {
  dialect : Dialect.t;
  rng : Rng.t;  (** the seed's stream; queries and probes continue it *)
  session : Engine.Session.t;
  script : Sqlast.Ast.stmt list;
      (** the statements {!build} executed, in order *)
}

(** Build the seed's database on a fresh session: the CREATE TABLEs, two
    INSERTs per table, one {!Gen_db.random_statements} group and one
    {!Gen_db.fill_statements} pass, at [max_rows 5] and
    [extra_statements 4].  Statement outcomes are ignored. *)
val build : ?bugs:Engine.Bug.set -> seed:int -> Dialect.t -> t

(** Execute one statement, ignoring its outcome (errors and crashes
    included). *)
val exec : t -> Sqlast.Ast.stmt -> unit

(** The session's tables that hold at least one row, in creation order,
    each with its scanned rows (postgres-inherited child rows included);
    [ti_row_count] is the scan's row count. *)
val sources : Engine.Session.t -> source list

(** Step 2: one or (when there are two sources, with even odds) two
    distinct sources, one random row from each. *)
val pick_pivot : Rng.t -> source list -> pivot

(** Draw one pivot from [sources] and synthesize a rectified query for
    it, giving up after five failed synthesis attempts ([None] without
    a draw when [sources] is empty). *)
val query : t -> source list -> (pivot * Gen_query.t) option

(** Queries each seed sweep draws per seed with {!query} (3). *)
val queries_per_seed : int

type lint = {
  lint_seeds : int;
  lint_statements : int;  (** generated DDL/DML statements round-tripped *)
  lint_queries : int;  (** containment queries drawn and executed *)
  lint_findings : (int * string) list;
      (** (seed, problem and SQL), in draw order *)
}

(** The [lint] sweep ([sqlancer lint], [make lint]): build each seed's
    database in [seed_lo..seed_hi] on the bug-free engine, print and
    re-parse every statement of its {!t.script}, then draw
    {!queries_per_seed} containment queries with {!query} and run, print
    and re-parse each one.  A finding is a query the engine
    rejects with [Type_error] (the generator emitted an ill-typed
    statement) or a statement that does not come back from printer→parser
    as the same AST, modulo the parser's fold of a negated numeric
    literal ([- 5] reads as the literal [-5]).  Replay and reduction
    depend on that round trip. *)
val lint : seed_lo:int -> seed_hi:int -> Dialect.t -> lint
