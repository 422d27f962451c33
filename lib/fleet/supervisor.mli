(** The fleet supervisor: N worker {e processes} over one seed range.

    Scaling out goes through processes, not domains, so one wedged or
    crashed shard can never take the campaign down — the unit the paper
    runs for months.  The supervisor leases seed-range chunks from a
    work-stealing {!Range_queue} to worker slots; each lease forks one
    worker process (a {e shard}) that runs its rounds inline and appends
    {!Pqs.Heartbeat} deltas to its own file under {!config.dir}.  The
    supervisor tails those files live, folds every heartbeat into an
    {!Aggregate} with the existing monoid unions, and periodically
    exports [metrics.prom] / [fleet.json] / [state.json] snapshots via
    atomic rename.

    The watchdog marks a shard stalled when its heartbeats stop for
    {!config.stall_after} seconds, SIGKILLs it, and requeues the
    unfinished tail of its lease from the last decoded watermark — so a
    killed shard loses no seeds and double-merges none, and the final
    aggregate still satisfies the exact-merge invariant ({!Aggregate.totals}
    equal to a sequential reference over the same range; [make fleet]
    gates on it).

    Workers run their rounds single-domain, so forking is safe; the
    caller must not have spawned other domains.  With
    [Runner.Config.guided] each shard's bias is local to its lease, so
    guided fleet results are not comparable to a sequential reference —
    the exact-merge invariant is stated for blind configs. *)

type config = {
  workers : int;  (** worker slots (concurrent shard processes) *)
  chunk : int;  (** seeds per lease *)
  heartbeat_every : int;  (** rounds per heartbeat batch *)
  stall_after : float;
      (** seconds without a heartbeat before the watchdog kills a shard *)
  poll : float;  (** supervisor poll interval, seconds *)
  dir : string;  (** fleet directory (created if missing) *)
  export_every : float;
      (** seconds between [metrics.prom] / [fleet.json] snapshot exports *)
  chaos_kill_after : int option;
      (** fault-injection hook: once the merged round count reaches this,
          SIGKILL one running shard (once) — the kill-recovery gate *)
}

val default : dir:string -> config

(** Per-shard heartbeat file under a fleet directory,
    [<dir>/shard-<id>.jsonl]. *)
val shard_file : string -> int -> string

(** Heartbeat files present under a fleet directory, ascending shard id. *)
val shard_files : string -> (int * string) list

type result = {
  agg : Aggregate.t;  (** the final fleet aggregate *)
  elapsed : float;
  spawned : int;  (** shards ever forked *)
  watchdog_kills : int;
  chaos_kills : int;
  crashes : int;  (** abnormal worker exits not caused by the supervisor *)
  requeued_seeds : int;  (** seeds re-leased after kills and crashes *)
  decode_errors : int;  (** heartbeat lines that failed strict decode *)
}

(** Run the fleet over [\[seed_lo, seed_hi)].  [log] receives one-line
    progress events (spawn, stall, kill, requeue, export). *)
val run :
  ?log:(string -> unit) ->
  config ->
  Pqs.Runner.config ->
  seed_lo:int ->
  seed_hi:int ->
  result
