(** Flight recorder: bounded ring-buffer round tracing and repro bundles.

    A recorder is filled by the runner and the engine with the structured,
    causal record of the current round: every statement executed (with its
    outcome and latency), the pivot row chosen, each generated expression
    with its interpreter verdict and rectification, planner access-path
    decisions, and per-operator executor annotations (rows in/out, B-tree
    visits, wall time — the same data that powers [EXPLAIN ANALYZE]).

    The buffer is pre-sized at creation and recording is O(1): when full,
    the oldest entry is evicted ([dropped] counts evictions).  The {!noop}
    sink turns every operation into a single branch, so the recorder can
    be threaded unconditionally — the same zero-cost-when-disabled
    discipline as [Telemetry.noop].  Recording never draws randomness and
    never changes engine control flow, so tracing is campaign-neutral
    (gated by `bench trace`).

    When an oracle fires, the recorder drains into a {!Bundle}: a
    replayable [repro.sql] with a self-describing header, the event log as
    [trace.json], and expected-vs-actual metadata as [bundle.json].
    `sqlancer replay <repro.sql>` re-runs a bundle and confirms the
    verdict. *)

open Sqlval

(** {1 Events} *)

module Event : sig
  type outcome =
    | Rows of int  (** a row-returning statement, with its row count *)
    | Affected of int
    | Done
    | Error of string
    | Crashed of string  (** simulated SEGFAULT *)

  type t =
    | Statement of { stmt : Sqlast.Ast.stmt; outcome : outcome; dur_ns : int }
    | Pivot of { source : string; row : string list }
        (** pivot row chosen from [source]; values as SQL literals *)
    | Expr of {
        raw : Sqlast.Ast.expr;
        verdict : Tvl.t;  (** the interpreter's verdict on the raw tree *)
        rectified : Sqlast.Ast.expr;
      }
    | Plan of { table : string; path : string }
        (** planner access-path decision for a single-table scan *)
    | Op of {
        op : string;  (** executor operator: SCAN, FILTER, SORT, ... *)
        detail : string;
        rows_in : int;
        rows_out : int;
        batches : int;
            (** the operator's rows counted in 64-row batches (>= 1) *)
        btree_nodes : int;  (** B-tree node visits charged to this operator *)
        btree_entries : int;
        dur_ns : int;
      }
    | Oracle_fired of { oracle : string; message : string; phase : string }
    | Note of string

  (** The [type] tag used in the JSON export. *)
  val kind : t -> string
end

type entry = { ts_ns : int; event : Event.t }
(** One recorded event; [ts_ns] is monotonic nanoseconds from the round
    start ({!begin_round}). *)

(** {1 The recorder} *)

type t

(** A fresh enabled recorder; the ring holds [capacity] entries (default
    1024, minimum 1), allocated once up front. *)
val create : ?capacity:int -> unit -> t

(** The disabled sink: every operation is a single branch. *)
val noop : t

val enabled : t -> bool

(** Reset the ring for a new round: clears all entries, zeroes the
    dropped count and restarts the timestamp origin. *)
val begin_round : t -> seed:int -> dialect:Dialect.t -> unit

(** O(1); evicts the oldest entry when the ring is full. *)
val record : t -> Event.t -> unit

(** Like {!record} but stamps the entry with [now_ns] (a
    {!Telemetry.Clock.now_ns_int} reading) instead of reading the clock
    again — for call sites that just read it to compute a duration. *)
val record_at : t -> now_ns:int -> Event.t -> unit

val note : t -> string -> unit

(** Entries oldest-first; at most [capacity] of them. *)
val events : t -> entry list

val length : t -> int

(** Evictions since {!begin_round}: total recorded = length + dropped. *)
val dropped : t -> int

val capacity : t -> int
val seed : t -> int
val dialect : t -> Dialect.t

(** The [trace.json] document: round metadata plus every surviving event
    with SQL rendered in the round's dialect. *)
val to_json : t -> string

(** {1 Bundles} *)

val mkdir_p : string -> unit

(** Write [text] to [path], truncating. *)
val write_text : string -> string -> unit

module Bundle : sig
  type t = {
    b_seed : int;
    b_dialect : Dialect.t;
    b_oracle : string;
        (** stable oracle token (e.g. ["containment"]), understood by the
            replay harness *)
    b_message : string;
    b_phase : string;  (** funnel phase in which the oracle fired *)
    b_bugs : string list;  (** enabled injected bugs, for faithful replay *)
    b_statements : Sqlast.Ast.stmt list;
    b_expected : string option;
    b_actual : string option;
    b_plan : string list;  (** annotated plan of the failing query *)
    b_trace_json : string;  (** drained recorder ({!to_json}) *)
  }

  (** [bundle-<seed>-<oracle>], the directory written by {!write}. *)
  val dir_name : t -> string

  val to_json : t -> string

  (** Write [repro.sql], [bundle.json] and [trace.json] under
      [dir/bundle-<seed>-<oracle>/]; returns the [repro.sql] path (the
      replay entry point). *)
  val write : dir:string -> t -> string

  (** Replace the statement body of an existing [repro.sql] with a
      reduced script, preserving the header and adding a
      [-- reduced: true] marker.  Used after test-case reduction. *)
  val rewrite_script :
    sql_path:string -> dialect:Dialect.t -> Sqlast.Ast.stmt list -> unit

  (** Split a repro script into its header pairs and SQL body. *)
  val parse_script_text : string -> (string * string) list * string
end
