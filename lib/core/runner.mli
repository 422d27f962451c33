(** The PQS main loop (paper Figure 1).

    Each database round: generate a random database (step 1), then for a
    number of pivot choices (step 2) synthesize rectified queries (steps
    3–5), run them on the engine (step 6) and check containment (step 7).
    About one in five checks on a single-table pivot is rectified to FALSE
    instead and requires the pivot row to be absent: the paper's Section 7
    non-containment variant, which also catches defects that wrongly
    include rows.
    Which checks count as findings is decided by the pluggable {!Oracle}
    set in the config; the paper's error/crash/containment trio is the
    default.  Workers on distinct databases are independent {!run_round}
    calls with distinct seeds (paper Section 3.4's thread-per-database
    parallelization); {!Campaign} orchestrates them across domains. *)

(** Immutable run configuration, built with labelled optional arguments:

    {[
      let config =
        Runner.Config.make ~seed:7 ~bugs ~max_rows:10 Dialect.Sqlite_like
    ]} *)
module Config : sig
  type t = private {
    dialect : Sqlval.Dialect.t;
    bugs : Engine.Bug.set;
    seed : int;
    max_rows : int;
    extra_statements : int;
    pivots_per_db : int;
    queries_per_pivot : int;
    check_expressions : bool;  (** expressions-on-columns extension *)
    verify_ground_truth : bool;
        (** replay containment findings on a correct engine before
            reporting (guards against oracle imprecision; counts as false
            positive) *)
    rectify : bool;  (** disable only for the no-rectification ablation *)
    coverage : Engine.Coverage.t option;
        (** engine feature-coverage instrumentation (Table 4) *)
    oracles : Oracle.t list;  (** consulted in order; first report wins *)
    telemetry : Telemetry.t;
        (** metrics registry for phase spans and counters;
            {!Telemetry.noop} (zero-cost) by default.  Recording never
            draws randomness or changes control flow, so enabling it is
            campaign-neutral. *)
    trace : bool;
        (** flight-record every round into a ring buffer ({!Trace.create}'s
            default 1024 events) even when no oracle fires; implied by [bundle_dir] / [trace_sample].  Like
            telemetry, tracing is campaign-neutral (asserted by
            [make trace]). *)
    bundle_dir : string option;
        (** when set, every oracle finding drains the flight recorder into
            a self-contained repro bundle
            [<dir>/bundle-<seed>-<oracle>/{repro.sql,bundle.json,trace.json}]
            and the report's [bundle] field points at the [repro.sql] *)
    trace_sample : int;
        (** with [bundle_dir]: also write [round-<seed>-trace.json] for
            every Nth healthy round (0 = off) — baseline traces to compare
            failing rounds against *)
    guided : bool;
        (** coverage-guided generation: each pivot's queries aim at a cold
            point of the accumulated frontier ({!Gen_bias.plan}) instead of
            sampling clause shapes blind.  Guidance draws from a private
            RNG stream, so it changes the sampling distribution without
            perturbing the synthesis stream's determinism per seed. *)
  }

  val make :
    ?bugs:Engine.Bug.set ->
    ?seed:int ->
    ?max_rows:int ->
    ?extra_statements:int ->
    ?pivots_per_db:int ->
    ?queries_per_pivot:int ->
    ?check_expressions:bool ->
    ?verify_ground_truth:bool ->
    ?rectify:bool ->
    ?coverage:Engine.Coverage.t ->
    ?oracles:Oracle.t list ->
    ?telemetry:Telemetry.t ->
    ?trace:bool ->
    ?bundle_dir:string ->
    ?trace_sample:int ->
    ?guided:bool ->
    Sqlval.Dialect.t ->
    t

  (** Swap the oracle set. *)
  val with_oracles : Oracle.t list -> t -> t

  (** Attach (or detach) a coverage instrument — campaigns give each
      worker its own and merge afterwards. *)
  val with_coverage : Engine.Coverage.t option -> t -> t

  (** Swap the telemetry registry — campaigns give each worker its own
      and merge afterwards, like coverage. *)
  val with_telemetry : Telemetry.t -> t -> t
end

type config = Config.t

(** The flight recorder a round under [config] needs: a ring buffer when
    tracing, bundle output or trace sampling is on, {!Trace.noop}
    otherwise.  Long-running drivers should create one per worker and
    thread it through {!run_round} so the ring is allocated once and
    recycled by [Trace.begin_round], instead of churning a fresh array
    every round. *)
val recorder_for : config -> Trace.t

(** Run one complete database round on a fresh session seeded with
    [db_seed]: generation, pivots and containment checks.  Returns the
    round's statistics; the round stops at its first finding, so
    [(run_round c ~db_seed).reports] has at most one element.  This is the
    deterministic unit of work campaigns shard across workers: the result
    depends only on [config] and [db_seed].  [recorder] supplies a reused
    flight recorder (see {!recorder_for}); when omitted the round creates
    its own.  Recording never changes the round's outcome.

    [bias] is the guided-generation state: a frontier accumulated across
    rounds that shape planning reads and each round extends (only read
    when [Config.guided]; a fresh local one is used when omitted).  The
    round's own frontier — query fingerprints plus the round's
    planner-path coverage deltas — is returned in [Stats.frontier]
    regardless of guidance. *)
val run_round :
  ?recorder:Trace.t -> ?bias:Frontier.t ref -> config -> db_seed:int -> Stats.t

(** Run rounds until [max_queries] containment checks were issued or a
    finding occurred [stop_on_first] (database seeds derive from
    [Config.seed]). *)
val run : ?stop_on_first:bool -> max_queries:int -> config -> Stats.t

(** Convenience for the evaluation: hunt for the first finding within a
    query budget. *)
val hunt : config -> max_queries:int -> Bug_report.t option
