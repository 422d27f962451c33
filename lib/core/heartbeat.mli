(** The heartbeat: a versioned JSONL record carrying one shard's monoid
    deltas — the one record format for watching a run.

    A fleet worker process appends one {!t} per batch of completed rounds
    to its per-shard file under the fleet directory, and
    [Campaign.run ~trace] appends one per completed round to its trace,
    as shard 0 / slot 0 of a one-shard fleet over the campaign's seed
    range.  A heartbeat is a pure {e delta}: the batch's [Stats]
    (counters and frontier), the minimized-repro fingerprints of its
    findings, and the batch's telemetry registry snapshot (empty for
    campaign traces).  Deltas merge with the existing monoid unions, so
    the supervisor's aggregation over arbitrarily split and interleaved
    heartbeats is {e exactly} the sequential reference over the same
    seeds — the fleet's exact-merge invariant ([make fleet] asserts it,
    [test_fleet] proves the split/merge property).

    [next_seed] is the progress watermark.  For a fleet shard it is the
    first seed of the leased range {e not yet covered by any emitted
    heartbeat}; a killed shard is requeued from its last decoded
    watermark, so no seed is lost and none is double-merged.  A campaign
    runs its rounds on several domains in no fixed seed order, so its
    watermark is [seed_lo + rounds completed]: a campaign trace is never
    requeued, and its watermark only shows progress.  There is no
    end-of-run marker — a campaign is finished when its watermark
    reaches [seed_hi], and an interrupted one simply stops advancing (a
    viewer shows its shard as stalled).

    The codec is strict and versioned: {!decode} rejects partial lines
    (the tailer simply waits for the terminating newline) and unknown
    versions, and ignores unknown fields, so records can grow. *)

type report_meta = {
  rm_fingerprint : string;
      (** hex digest of the minimized repro ([Bug_report.fingerprint]) *)
  rm_oracle : string;  (** [Bug_report.oracle_token] *)
  rm_seed : int;
  rm_bundle : string option;  (** repro bundle path, when one was written *)
}

type t = {
  version : int;  (** codec version; this writer emits {!current_version} *)
  shard : int;  (** worker spawn id (unique per fleet) *)
  slot : int;  (** supervisor slot the shard runs in *)
  seq : int;  (** per-shard sequence number, from 0 *)
  at : float;  (** worker wall-clock seconds (informational only) *)
  range_lo : int;
  range_hi : int;  (** the leased seed range *)
  next_seed : int;  (** progress watermark, see above *)
  rounds : int;  (** rounds covered by this delta *)
  rounds_per_sec : float;  (** the shard's rate (informational only) *)
  stats : Stats.t;
      (** the batch's counters and frontier; [reports] is always [[]] *)
  reports : report_meta list;
  telemetry : Telemetry.sample list;
      (** snapshot of a per-batch registry (a delta by construction) *)
}

val current_version : int

(** Reduce each report ({!Reducer.reduce_report}) and fingerprint the
    minimized repro, so the same bug found on different seeds or shards
    shares one fingerprint.  Reduction replays scripts: call this outside
    any lock. *)
val report_metas : bugs:Engine.Bug.set -> Bug_report.t list -> report_meta list

(** The heartbeat of a batch of [rounds] completed rounds at the current
    {!current_version}, stamped with the wall clock.  [stats]'s reports
    are dropped; pass their {!report_metas} as [reports]. *)
val make :
  shard:int ->
  slot:int ->
  seq:int ->
  range:int * int ->
  next_seed:int ->
  rounds:int ->
  rounds_per_sec:float ->
  reports:report_meta list ->
  telemetry:Telemetry.sample list ->
  Stats.t ->
  t

(** One JSON object, no trailing newline.  Point names, oracle tokens and
    fingerprints are escaped, so any path/value round-trips. *)
val encode : t -> string

(** Strict decode; [Error] on truncation, syntax errors, or an
    unsupported version.  Unknown fields are ignored. *)
val decode : string -> (t, string) result

(** Equality of the mergeable payload (counters, frontier, report
    multiset), the exact-merge test relation. *)
val equal_payload : t -> t -> bool
