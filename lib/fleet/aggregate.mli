(** Live fleet aggregation: fold shard heartbeats into fleet-wide
    totals with the existing monoid unions.

    Heartbeat stats merge with [Stats.merge] (counters add, frontiers
    union), telemetry deltas fold with [Telemetry.record_sample] — so
    the aggregate over any interleaving of shard heartbeats equals the
    sequential reference over the same seeds ({!totals} is the comparable projection; [make
    fleet] asserts the equality, [test_fleet] the split/merge law).
    Findings are deduplicated fleet-wide by minimized-repro fingerprint,
    remembering the {e first} shard that discovered each one.

    One aggregate serves both the supervisor (which also drives the
    watchdog off {!shard} liveness data) and [sqlancer top], which
    rebuilds one from heartbeat files alone — a fleet directory's shard
    files or a campaign's one-shard trace. *)

open Sqlval
open Pqs

type shard_state =
  | Running
  | Done  (** exited cleanly with its lease complete *)
  | Stalled  (** heartbeats stopped; the watchdog is about to kill it *)
  | Killed  (** killed by the watchdog (lease tail requeued) *)
  | Crashed  (** exited abnormally on its own (lease tail requeued) *)

val state_name : shard_state -> string

type shard = {
  sh_shard : int;
  sh_slot : int;
  mutable sh_state : shard_state;
  mutable sh_lo : int;
  mutable sh_hi : int;  (** current lease *)
  mutable sh_next : int;  (** progress watermark *)
  mutable sh_seq : int;  (** last heartbeat sequence number, -1 if none *)
  mutable sh_rounds : int;
  mutable sh_reports : int;
  mutable sh_rate : float;  (** rounds/sec from the latest heartbeat *)
  mutable sh_last : float;
      (** aggregator-clock time of the last heartbeat arrival (or of the
          spawn), the watchdog's staleness input *)
}

type finding = {
  f_fingerprint : string;
  f_oracle : string;
  f_shard : int;  (** first shard that discovered it *)
  f_seed : int;  (** seed of the first discovery *)
  f_bundle : string option;
  f_count : int;  (** total findings sharing the fingerprint *)
}

type t

val create : dialect:Dialect.t -> t
val dialect : t -> Dialect.t

(** Register a freshly spawned shard so the watchdog clock starts at
    spawn, not at the first heartbeat. *)
val note_spawn :
  t -> shard:int -> slot:int -> lo:int -> hi:int -> now:float -> unit

(** Fold one heartbeat in.  [now] is the aggregator's clock (arrival
    time), used only for liveness. *)
val feed : t -> now:float -> Heartbeat.t -> unit

val set_state : t -> shard:int -> shard_state -> unit
val find_shard : t -> int -> shard option

(** All shards, ascending id. *)
val shards : t -> shard list

val rounds : t -> int

(** The merged counters and frontier ([reports] is [[]]; findings are
    below). *)
val stats : t -> Stats.t

(** Deduplicated findings in discovery order. *)
val findings : t -> finding list

(** Distinct fingerprints / total reports. *)
val distinct_reports : t -> int

val total_reports : t -> int

(** Per-oracle firing counts, descending — the merged funnel. *)
val oracle_funnel : t -> (string * int) list

(** The merged worker telemetry (phase histograms etc.). *)
val telemetry : t -> Telemetry.t

(** Shards in [Running] state whose last heartbeat is at most
    [stall_after] old. *)
val live_count : t -> now:float -> stall_after:float -> int

(** {1 The exact-merge projection} *)

type totals = {
  tt_rounds : int;
  tt_stats : Stats.t;  (** counters and frontier, [reports = []] *)
  tt_fingerprints : (string * string) list;
      (** (fingerprint, oracle) multiset, sorted *)
}

val totals : t -> totals

(** The same projection of a sequential run's merged [Stats];
    [fingerprint] maps a report to its minimized-repro fingerprint. *)
val totals_of_stats :
  fingerprint:(Bug_report.t -> string) -> Stats.t -> totals

val equal_totals : totals -> totals -> bool

(** Human-readable difference of two projections, for gate failures. *)
val diff_totals : totals -> totals -> string list

(** {1 Export} *)

(** A fresh registry holding the fleet gauges ([pqs_fleet_shards_live],
    [pqs_fleet_shard_rounds_per_sec{shard=...}],
    [pqs_fleet_frontier_fraction], [pqs_fleet_distinct_fingerprints],
    ...) merged with the workers' own telemetry. *)
val export_registry :
  t -> now:float -> stall_after:float -> elapsed:float -> Telemetry.t

(** The fleet JSON snapshot: totals, per-shard health, deduplicated
    findings cross-linking their repro bundles. *)
val snapshot_json : t -> elapsed:float -> status:string -> string
