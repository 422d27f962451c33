(** Multi-domain campaign orchestrator.

    PQS runs "one worker thread per database" for months (paper
    Section 3.4).  A campaign makes that shape first-class: a seed range
    [\[seed_lo, seed_hi)] is sharded across N OCaml domains, each seed is
    one complete {!Runner.run_round} — its own [Engine.Session], its own
    database, its own deterministic RNG — and the per-seed results are
    merged with {!Stats.merge} in ascending seed order.  Because every
    round depends only on [(config, seed)], an N-domain campaign reports
    the *identical* bug set and merged statistics as a sequential run over
    the same seeds; only wall time differs.

    Observability: each seed yields a {!outcome} with its wall time, an
    optional trace records the run as a one-shard fleet (one
    {!Heartbeat} per round, which [sqlancer top --trace] renders like a
    fleet directory), and per-worker coverage instruments are merged
    into the config's instrument after the join. *)

type outcome = {
  seed : int;  (** the database seed of this round *)
  worker : int;  (** which domain executed it *)
  round : Stats.t;  (** the round's statistics (≤ 1 report) *)
  started : float;
      (** monotonic seconds from campaign start when the round began *)
  wall : float;  (** seconds spent on this round *)
}

type t = {
  stats : Stats.t;
      (** deterministic merge of all rounds, ascending seed order *)
  outcomes : outcome list;  (** ascending seed order *)
  domains : int;
  elapsed : float;  (** campaign wall time, seconds *)
  dialect : Sqlval.Dialect.t;
      (** the campaign's dialect — fixes the frontier universe the summary
          line and exported gauges are measured against *)
}

(** Merged bug reports, ascending seed order. *)
val reports : t -> Bug_report.t list

(** Merged statements per second of campaign wall time. *)
val statements_per_sec : t -> float

(** Grow the minor heap to 2M words (never shrink it), so that a round's
    garbage dies young.  {!run} and the fleet's worker processes call it
    before their first round. *)
val size_minor_heap : unit -> unit

(** Run the campaign.

    @param domains
      worker count; defaults to [Domain.recommended_domain_count ()].
      [domains:1] runs inline without spawning.
    @param trace
      write the run to this path as a one-shard fleet: one {!Heartbeat}
      JSONL line per completed round — shard 0, slot 0, range
      [\[seed_lo, seed_hi)], the round's counters and frontier, its
      findings fingerprinted by minimized repro (so tracing also reduces
      every report), and no telemetry.  [seq] counts rounds in file
      order and the watermark is [seed_lo + rounds completed]: rounds
      finish out of seed order across domains and a campaign is never
      requeued, so the watermark only shows progress.  Lines stream out
      (and flush) as rounds complete.  There is no summary or
      partial-run marker: the trace is complete when its watermark
      reaches [seed_hi], and an interrupted campaign leaves a prefix
      whose shard a viewer shows as stalled.
    @param chrome_trace
      additionally write a Chrome trace-event ([chrome://tracing] /
      Perfetto) JSON file with one complete event per seed on its
      worker's timeline.
    @param frontier_json
      write a {!Frontier.to_json} snapshot of the merged frontier
      (measured against the dialect's {!Gen_bias.universe}) to this path,
      cross-linking the repro bundles the campaign wrote.
    @param metrics_every
      with [metrics_path]: re-export a metrics snapshot at least this
      many seconds apart while the campaign runs, through an atomic
      rename ({!Telemetry.write_atomic}) so a Prometheus scraper never
      reads a partial file.  Mid-run snapshots carry the merged counter
      and frontier-gauge projection of the completed rounds (worker
      registries are single-owner, so phase histograms appear only once
      they merge into [config]'s registry after the join).  [run] writes
      no final export: the caller writes that registry once it returns
      ([sqlancer campaign --metrics] does, atomically).
    @param metrics_path
      target of the periodic export: Prometheus text format, or a JSON
      snapshot when the path ends in [.json]
    @param seed_lo inclusive start of the seed range
    @param seed_hi exclusive end of the seed range

    All duration measurements use the monotonic {!Telemetry.Clock}.  When
    [config]'s telemetry registry is enabled, each worker records into a
    private registry (merged into the config's after the join, like
    coverage), adding [pqs_round_seconds] / [pqs_rounds_total] per seed
    and the [pqs_campaign_domains] / [pqs_campaign_seeds] gauges; after
    the join the campaign also exports the per-dialect
    [pqs_frontier_points_hit] / [pqs_frontier_fraction] gauges and the
    [pqs_frontier_first_hit_seconds] time-to-first-hit histogram labeled
    by point group ([shape]/[expr]/[plan]).

    With [Runner.Config.guided] each worker threads its own bias frontier
    through its shard's rounds, so guided results depend on the shard
    assignment (unlike blind campaigns, which stay domain-count
    independent).

    [Config.seed] is ignored — the range provides the seeds. *)
val run :
  ?domains:int ->
  ?trace:string ->
  ?chrome_trace:string ->
  ?frontier_json:string ->
  ?metrics_every:float ->
  ?metrics_path:string ->
  seed_lo:int ->
  seed_hi:int ->
  Runner.config ->
  t

(** Write the Chrome trace-event file of a finished campaign. *)
val write_chrome_trace : t -> string -> unit
