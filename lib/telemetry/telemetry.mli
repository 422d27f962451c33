(** End-to-end telemetry: a metrics registry, phase spans and export.

    The registry holds named {e counters}, {e gauges} and fixed-bucket
    latency {e histograms}, each optionally labelled (Prometheus-style
    [name{k="v",...}] series).  Registries are single-domain mutable
    values; campaigns give every worker domain its own registry and fold
    them after [Domain.join] with {!merge_into} — the same pattern as
    [Engine.Coverage] — and {!merge} obeys the same monoid laws as
    [Stats.merge]: it is associative, a freshly {!create}d registry is a
    left and right identity, and histogram bucket layouts are preserved.

    Telemetry is opt-in and zero-cost when disabled: the {!noop} sink
    turns every operation into a single branch, so code can thread a
    registry unconditionally.  Recording never draws randomness and never
    changes control flow, so enabling telemetry is campaign-neutral by
    construction: the bug set and merged [Stats] of a run are identical
    with telemetry on or off.

    Metric naming follows the Prometheus conventions documented in
    README's Observability section: loop-level metrics are [pqs_*],
    engine-internal metrics are [minidb_*]; counters end in [_total],
    latency histograms in [_seconds]. *)

(** Monotonic time.  All duration measurements in the tool go through
    this clock so wall-clock jumps (NTP steps, suspend/resume) can never
    produce negative or wildly wrong elapsed values.  Backed by
    [CLOCK_MONOTONIC] via the bechamel stub ([Unix.clock_gettime] is not
    exposed by the OCaml Unix library). *)
module Clock : sig
  (** Nanoseconds from an arbitrary fixed origin; never decreases. *)
  val now_ns : unit -> int64

  (** Same reading as an immediate [int] (no [Int64] boxing), for hot
      per-event instrumentation.  63 bits of nanoseconds cannot overflow
      in practice. *)
  val now_ns_int : unit -> int

  (** Seconds from the same origin, for duration arithmetic. *)
  val now : unit -> float

  (** Identifies the backing clock (["clock_monotonic"]). *)
  val source : string
end

type t
(** A metrics registry, or the disabled sink. *)

(** A fresh, enabled, empty registry. *)
val create : unit -> t

(** The disabled sink: every recording operation is a no-op, every read
    returns the empty value. *)
val noop : t

val enabled : t -> bool

(** {1 Recording} *)

(** [inc t name] adds [by] (default 1) to the counter series
    [(name, labels)], creating it at zero first.  Counters only grow. *)
val inc : t -> ?labels:(string * string) list -> ?by:int -> string -> unit

(** [set_gauge t name v] sets the gauge series to [v]. *)
val set_gauge : t -> ?labels:(string * string) list -> string -> float -> unit

(** [observe t name v] records one observation into the histogram series.
    The bucket layout is fixed at the series' first observation
    ({!default_buckets} unless [?buckets] is given) and is immutable
    afterwards; merging series with different layouts raises
    [Invalid_argument]. *)
val observe :
  t -> ?labels:(string * string) list -> ?buckets:float array -> string ->
  float -> unit

(** Latency buckets in seconds, 1µs to 10s. *)
val default_buckets : float array

(** {1 The span taxonomy}

    The pipeline's phases form a closed set (see README, Observability):
    loop-side phases record into [pqs_phase_seconds{phase=...}], engine-
    side phases into [minidb_phase_seconds{phase=...}].  Timing through
    the enum ({!Span.timed}) resolves the series by array index, which is
    what the per-statement hot paths use; the string-based {!Span.time}
    remains for ad-hoc spans. *)
module Phase : sig
  type t =
    | Gen_db  (** random schema + data generation *)
    | Pivot  (** pivot row selection *)
    | Gen_expr  (** random expression generation *)
    | Rectify  (** expression rectification (includes its evaluations) *)
    | Interp
        (** standalone expression evaluation, outside rectification *)
    | Containment  (** executing the containment check on the engine *)
    | Plan_diff  (** multi-plan differential execution oracle *)
    | Const_opt  (** constant-optimization (CODDTest) oracle *)
    | Parse  (** SQL text parsing (engine) *)
    | Plan  (** access-path planning (engine) *)
    | Execute  (** statement execution (engine) *)

  (** The [phase=...] label value, e.g. ["gen_db"]. *)
  val name : t -> string

  (** The histogram family the phase records into. *)
  val metric : t -> string

  val all : t list
end

(** {1 Pre-resolved handles}

    Hot paths that record into the same series thousands of times per
    second can resolve the series once and skip the per-operation label
    matching and table lookup.  Handles made from the {!noop} sink are
    inert.  A handle stays valid for the life of its registry: merging
    updates series cells in place and never invalidates them. *)

type counter_handle
type histogram_handle

(** Resolve (creating if needed) the counter series once.  Raises
    [Invalid_argument] if the series exists with a different type. *)
val counter_handle :
  t -> ?labels:(string * string) list -> string -> counter_handle

val histogram_handle :
  t -> ?labels:(string * string) list -> ?buckets:float array -> string ->
  histogram_handle

val inc_handle : ?by:int -> counter_handle -> unit
val observe_handle : histogram_handle -> float -> unit

(** {1 Phase spans} *)

module Span : sig
  (** [time t phase f] runs [f ()] and records its monotonic duration
      into the histogram [metric] (default ["pqs_phase_seconds"]) with
      label [phase="<phase>"].  The duration is recorded even when [f]
      raises.  Spans may nest; nested phases are each charged their own
      wall time (so e.g. [rectify] time includes the [interp] calls it
      makes).  On the {!noop} sink this is a single branch around
      [f ()]. *)
  val time : t -> ?metric:string -> string -> (unit -> 'a) -> 'a

  (** [timed t phase f]: like {!time} for a taxonomy phase, resolving the
      series through the registry's per-phase cache — the hot-path form
      used throughout the pipeline. *)
  val timed : t -> Phase.t -> (unit -> 'a) -> 'a
end

(** {1 Merging} *)

(** Fold [src]'s series into [dst] (counters and histogram cells add,
    gauges add, histogram [sum]/[count] add).  No-op when either side is
    {!noop}.  Raises [Invalid_argument] if a histogram series exists on
    both sides with different bucket layouts. *)
val merge_into : dst:t -> src:t -> unit

(** Pure variant: a fresh registry holding [a]'s and [b]'s series summed.
    Associative, and a fresh empty registry is an identity (witnessed on
    {!snapshot}s). *)
val merge : t -> t -> t

(** {1 Reading} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      buckets : (float * int) list;
          (** (upper bound, cumulative count) pairs in increasing bound
              order; the implicit [+Inf] bucket is the total count *)
      sum : float;
      count : int;
    }

type sample = {
  s_name : string;
  s_labels : (string * string) list;  (** sorted by label key *)
  s_value : value;
}

(** Every series, sorted by (name, labels) — a deterministic, comparable
    view of the registry (the merge-law tests compare snapshots). *)
val snapshot : t -> sample list

(** Fold one {!sample} back into the registry with the {!merge_into}
    semantics (counters and gauges add, cumulative histogram buckets
    unfold into per-bucket cells) — so recording every sample of a
    {!snapshot} equals merging the snapshotted registry.  The fleet
    aggregator uses this to fold worker heartbeat snapshots received over
    process boundaries.  Raises [Invalid_argument] on a type or bucket
    layout clash, like {!merge_into}. *)
val record_sample : t -> sample -> unit

(** Current counter value; 0 when the series does not exist. *)
val counter_value : t -> ?labels:(string * string) list -> string -> int

val histogram_count : t -> ?labels:(string * string) list -> string -> int
val histogram_sum : t -> ?labels:(string * string) list -> string -> float

(** Prometheus-style quantile estimate from the bucket counts (linear
    interpolation within the bucket); [None] when the series is missing
    or empty.  [q] in [0, 1]. *)
val quantile :
  t -> ?labels:(string * string) list -> string -> float -> float option

(** {1 Export} *)

(** Prometheus text exposition format: one [# HELP] / [# TYPE] pair per
    metric family, then the series lines; histograms expand to
    [_bucket{le="..."}] (cumulative, ending at [le="+Inf"]), [_sum] and
    [_count]. *)
val to_prometheus : t -> string

(** JSON snapshot: [{"clock":"...","metrics":[...]}] with one object per
    series; histogram buckets are cumulative, mirroring the Prometheus
    export. *)
val to_json : t -> string

(** Write {!to_json} if [path] ends in [.json], else {!to_prometheus}. *)
val write_file : t -> string -> unit

(** [write_atomic path content] writes [content] through a same-directory
    temp file and atomic rename, so concurrent readers never observe a
    partial file.  The building block for every periodically re-exported
    snapshot (campaign [--metrics-every], fleet state files). *)
val write_atomic : string -> string -> unit

(** {!write_file} through {!write_atomic}. *)
val write_file_atomic : t -> string -> unit

(** {1 Chrome trace events} *)

(** Minimal trace-event-format writer (the [chrome://tracing] / Perfetto
    JSON format): complete ("ph":"X") events on worker timelines plus
    metadata naming them. *)
module Trace : sig
  type arg = Int of int | Float of float | Str of string

  type event

  (** A complete event: [ts_us]/[dur_us] are microseconds from the trace
      origin; [tid] is the worker timeline. *)
  val complete :
    name:string -> ?cat:string -> ?args:(string * arg) list -> ts_us:float ->
    dur_us:float -> tid:int -> unit -> event

  (** Metadata event naming a worker timeline. *)
  val thread_name : tid:int -> string -> event

  (** Metadata event naming the process. *)
  val process_name : string -> event

  (** The [{"traceEvents":[...]}] JSON document. *)
  val to_json : event list -> string

  val write : string -> event list -> unit
end
