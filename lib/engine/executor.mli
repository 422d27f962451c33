(** The execution context and the operators the query pipeline
    ({!Compile}) is built from.

    Single-table scans go through {!Planner} (honouring forced plans and
    the scan-site injected bugs) and the pipeline always re-applies the
    WHERE filter to the candidate rows.  Aggregation (GROUP BY, aggregate
    items, HAVING) is an operator over the pipeline's tuples.

    Every operator returns a bare value and raises its error with
    {!Eval.fail}; the statement's one {!Eval.run} turns the first error
    into the statement's result. *)

open Sqlval

type profile
(** Pre-resolved handles for the per-query engine counters (rows scanned,
    index rows, B-tree visits).  Resolved once per session — these fire
    several times per statement, so they must not pay a registry lookup
    each time.  From {!Telemetry.noop} every handle is inert. *)

val make_profile : Telemetry.t -> profile

(** A forced access path for one scan site, keyed by the lowercase
    effective alias, the lowercase base-table name and the scan's WHERE
    clause.  A path is only sound at a scan with the same schema and the
    same residual filter, so only an exact key match applies it. *)
type forced_site = {
  fs_alias : string;
  fs_table : string;
  fs_where : Sqlast.Ast.expr option;
  fs_path : Planner.path;
}

type forced = {
  f_sites : forced_site list;
  f_swap_join : bool;
      (** iterate two-table inner/cross joins (and two-item comma FROMs)
          right-major; binding order and projection are unchanged, only
          the scan order moves.  LEFT joins are never swapped. *)
}

(** No overrides: behaves exactly like [force = None]. *)
val no_force : forced

val show_forced : forced -> string

type ctx = {
  dialect : Dialect.t;
  bugs : Bug.set;
  options : Options.t;
  coverage : Coverage.t option;
  catalog : Storage.Catalog.t;
  telemetry : Telemetry.t;  (** {!Telemetry.noop} unless profiling *)
  profile : profile;
  recorder : Trace.t;
      (** flight recorder for plan/operator events; {!Trace.noop} unless a
          round is being traced *)
  force : forced option;
      (** plan-diff oracle: override the planner at matching scan sites;
          forced paths are annotated ["(forced)"] in EXPLAIN and traces *)
}

type result_set = { rs_columns : string list; rs_rows : Value.t array list }

val pp_result_set : Format.formatter -> result_set -> unit

(** The session's evaluation environment, with no columns in scope. *)
val eval_env : ctx -> Eval.env

(** {!eval_env} over one table's columns, under [alias]: the planner's
    collation and affinity metadata, and the layout writes compile row
    expressions against (the row goes in slot 0 of [cur]). *)
val table_env : ctx -> Storage.Schema.table -> alias:string -> Eval.env

(** Row identity: the one equivalence DISTINCT, the compound operators,
    GROUP BY keys and the plan-diff oracle's multisets use.  Rows are
    equal when they have the same width and, column by column:
    - [Bool] and integral [Real]s are the matching [Int] ([1], [1.0] and
      [TRUE] are one value);
    - other [Real]s are equal when their [string_of_float] forms (12
      significant digits) are, so [0.1+0.2] equals [0.3];
    - [Text] and [Blob] compare bytes and are never equal to each other;
      [NULL] equals [NULL].

    [hash] agrees with [equal]: it mixes the integer of an [Int], [Bool]
    or integral [Real] in OCaml, and hashes any other [Real] by the
    printed form it is compared by. *)
module Row_eq : Hashtbl.HashedType with type t = Value.t array

(** A table keyed by rows under {!Row_eq}, for the row-keyed operators
    (DISTINCT, GROUP BY, UNION dedup, the INTERSECT/EXCEPT marks) and the
    plan-diff comparison.  Each operation hashes its row once; the hash
    is stored with the key, so growing never rehashes a row.  Keys keep
    their insertion order, and a key is the first row added under it. *)
module Row_tbl : sig
  type 'a t

  (** An empty table expecting about [n] keys; nothing is allocated
      until the first add. *)
  val create : int -> 'a t

  val length : 'a t -> int
  val find_opt : 'a t -> Value.t array -> 'a option

  (** The value of the key equal to [row], first binding [row] to
      [make ()] when there is none. *)
  val find_or_add : 'a t -> Value.t array -> (unit -> 'a) -> 'a

  (** Bind [row] to [v] unless an equal key is bound; [true] when it
      was not (the row is new). *)
  val add_new : 'a t -> Value.t array -> 'a -> bool

  (** Fold over the keys from the last added to the first, so a fold
      that conses builds a list in insertion order. *)
  val fold : (Value.t array -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end

(** First-occurrence deduplication of rows under {!Row_eq}. *)
val dedup : Value.t array list -> Value.t array list

(** Rows of one table including postgres-inherited children (projected onto
    the parent's columns), in scan order. *)
val scan_table : ctx -> Storage.Catalog.table_state -> Storage.Row.t list

(** {1 Pipeline operators}

    Scan-site bug injection, access-path choice, aggregation and
    flight-recorder annotation, used by {!Compile}. *)

(** Is the plan-diff join-order swap forced for this query?  (Applies to
    two-table inner/cross joins and two-item comma FROMs; see {!forced}.) *)
val swap_join_forced : ctx -> bool

(** What the scan-site bug injections consult: whether the query joins
    more than one base table, and the SELECT the scan serves (its
    DISTINCT, and its WHERE and items, which the mysql MEMORY-join gate
    walks only when it is reached). *)
type from_ctx = { in_join : bool; select : Sqlast.Ast.select }

(** The access path of one base-table scan site and whether it was
    forced: a join side ([in_join]) takes the full scan, any other site
    the {!ctx.force} path that matches it (same alias, table and WHERE),
    else {!Planner.choose}'s default.  {!scan_rows} and EXPLAIN both take
    the path from here, so EXPLAIN prints the path the scan takes.
    Counts nothing. *)
val scan_path :
  ctx ->
  in_join:bool ->
  alias:string ->
  table:string ->
  Storage.Schema.table ->
  where:Sqlast.Ast.expr option ->
  Planner.path * bool

(** Scan one base table under [where]: injected planner/index bug gates,
    access-path choice ({!scan_path}), rowid fetch, and the SCAN
    flight-recorder annotation.  Each executed scan counts its path: the
    coverage point [plan.<Planner.label path>] (and [plan.desc_index] when
    {!Planner.reads_desc_range}), and, outside a join, one
    [minidb_plan_choices_total] choice.  Returns the rows as one-binding
    tuples ([[| values |]]), the shape {!Compile}'s FROM loop reads.  The
    SCAN event reports how many {!batches_of} batches the rows make. *)
val scan_rows :
  ctx ->
  from_ctx ->
  where:Sqlast.Ast.expr option ->
  table:string ->
  alias:string ->
  Storage.Catalog.table_state ->
  Sqlval.Value.t array array list

(** Output column names of a SELECT item list against a sample tuple
    (empty when the scan produced no rows, which is observable: [*]
    contributes no columns and [t.*] fails).  An unaliased expression is
    named by its printed SQL; [~named:false], for a caller that reads
    only the width, leaves it unnamed ([""]) instead. *)
val output_columns :
  ?named:bool -> Eval.binding list -> Sqlast.Ast.select_item list -> string list

(** Whether the SELECT uses aggregation (GROUP BY, aggregate items, or an
    aggregate HAVING). *)
val select_has_agg : Sqlast.Ast.select -> bool

(** The groups of an aggregate SELECT, in first-occurrence order: one
    group per distinct GROUP BY key ([eval] evaluates a key on a tuple),
    or a single group over every tuple (even none) without GROUP BY.
    Hosts the postgres inherited-table grouping bug. *)
val group_tuples :
  ctx ->
  eval:('tuple -> Sqlast.Ast.expr -> Value.t) ->
  Sqlast.Ast.select ->
  'tuple list ->
  'tuple list list

(** Replace every aggregate call in the expression by its value over the
    group (as a literal), evaluating each argument on the group's tuples
    with [eval].  Hosts the sqlite MIN/MAX-over-COLLATE crash. *)
val substitute_aggs :
  ctx ->
  eval:('tuple -> Sqlast.Ast.expr -> Value.t) ->
  'tuple list ->
  Sqlast.Ast.expr ->
  Sqlast.Ast.expr

val tracing : ctx -> bool

(** A [Telemetry.Clock] reading when tracing, else [0]. *)
val op_clock : ctx -> int

(** The number of 64-row batches [n] rows make (at least 1): a count
    operator events report, not a unit the pipeline works in (it pushes
    rows one at a time). *)
val batches_of : int -> int

(** Record an operator event on the flight recorder (no-op unless
    tracing). *)
val op_event :
  ctx ->
  op:string ->
  ?detail:string ->
  rows_in:int ->
  rows_out:int ->
  batches:int ->
  ?btree:int * int ->
  t0:int ->
  unit ->
  unit
