(** [sqlancer top]: rebuild a live picture of a run from its heartbeat
    files alone — a fleet directory's per-shard files, or a campaign's
    trace, which is the heartbeat file of a one-shard fleet.

    The viewer is a separate process from the writers, so it shares no
    clock with them; each shard's heartbeat age is the age (mtime) of the
    file its heartbeats came from.  {!refresh} is incremental — it picks
    up files that appeared since the last call and tails known ones
    through {!Tail}, so calling it in a redraw loop follows a run that is
    still going.  When a file is truncated or replaced (a rerun onto the
    same path) the view rebuilds itself from the top instead of double
    counting. *)

open Sqlval

type t

(** A view over the heartbeat files [files ()] lists; {!refresh} calls
    [files] again to discover new ones (a fleet spawning shards).
    [source] names the run (fleet directory or trace path) in the
    rendered header. *)
val create : dialect:Dialect.t -> source:string -> (unit -> string list) -> t

(** Discover new files and fold any new complete heartbeat lines in; a
    torn last line waits for its newline. *)
val refresh : t -> unit

val aggregate : t -> Aggregate.t

(** Every shard seen so far has reached the end of its range, and there
    is at least one — for a campaign trace, the watermark reached
    [seed_hi]. *)
val complete : t -> bool

(** Terminal snapshot: fleet totals, per-shard health rows (state,
    lease, watermark, rate, heartbeat age), merged oracle funnel and
    frontier, deduplicated findings with their first-discovering shard.
    [stall_after] controls when a shard with no fresh heartbeats renders
    as stalled.  With [ansi] the output starts with a clear-screen
    sequence. *)
val render : ?ansi:bool -> ?stale:int -> ?stall_after:float -> t -> string

(** The same snapshot as a self-contained HTML report. *)
val render_html : ?stale:int -> ?stall_after:float -> t -> string
