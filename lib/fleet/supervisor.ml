type config = {
  workers : int;
  chunk : int;
  heartbeat_every : int;
  stall_after : float;
  poll : float;
  dir : string;
  export_every : float;
  chaos_kill_after : int option;
}

let default ~dir =
  {
    workers = 2;
    chunk = 32;
    heartbeat_every = 8;
    stall_after = 30.0;
    poll = 0.05;
    dir;
    export_every = 2.0;
    chaos_kill_after = None;
  }

let shard_file dir shard = Filename.concat dir (Printf.sprintf "shard-%d.jsonl" shard)

let shard_files dir =
  (try Array.to_list (Sys.readdir dir) with Sys_error _ -> [])
  |> List.filter_map (fun name ->
         match Scanf.sscanf_opt name "shard-%d.jsonl%!" (fun i -> i) with
         | Some i -> Some (i, Filename.concat dir name)
         | None -> None)
  |> List.sort compare

type result = {
  agg : Aggregate.t;
  elapsed : float;
  spawned : int;
  watchdog_kills : int;
  chaos_kills : int;
  crashes : int;
  requeued_seeds : int;
  decode_errors : int;
}

(* ------------------------------------------------------------------ *)
(* Worker (child process)                                              *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* runs inside the forked child: single-domain round loop over the
   leased range, one heartbeat delta per batch, then _exit (no at_exit
   handlers — the parent's channel buffers were inherited) *)
let worker_loop fleet (rc : Pqs.Runner.config) ~shard ~slot ~lo ~hi =
  let fd =
    Unix.openfile (shard_file fleet.dir shard)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  Pqs.Campaign.size_minor_heap ();
  let recorder = Pqs.Runner.recorder_for rc in
  let bias = ref Frontier.empty in
  let bugs = rc.Pqs.Runner.Config.bugs in
  let seq = ref 0 in
  let emit ~next ~rounds ~batch_wall ~stats ~tele =
    let hb =
      Pqs.Heartbeat.make ~shard ~slot ~seq:!seq ~range:(lo, hi) ~next_seed:next
        ~rounds
        ~rounds_per_sec:
          (if batch_wall > 0.0 then float_of_int rounds /. batch_wall else 0.0)
        ~reports:(Pqs.Heartbeat.report_metas ~bugs stats.Pqs.Stats.reports)
        ~telemetry:(Telemetry.snapshot tele) stats
    in
    incr seq;
    write_all fd (Pqs.Heartbeat.encode hb ^ "\n")
  in
  let rec batches seed =
    if seed < hi then begin
      let batch_hi = min hi (seed + max 1 fleet.heartbeat_every) in
      (* a fresh registry per batch makes the heartbeat's telemetry an
         exact delta; mirror Campaign's per-round recording *)
      let tele =
        if Telemetry.enabled rc.Pqs.Runner.Config.telemetry then
          Telemetry.create ()
        else Telemetry.noop
      in
      let config = Pqs.Runner.Config.with_telemetry tele rc in
      let t0 = Telemetry.Clock.now () in
      let rounds = ref [] in
      for s = seed to batch_hi - 1 do
        let r0 = Telemetry.Clock.now () in
        let round = Pqs.Runner.run_round ~recorder ~bias config ~db_seed:s in
        Telemetry.observe tele "pqs_round_seconds"
          (Telemetry.Clock.now () -. r0);
        Telemetry.inc tele "pqs_rounds_total";
        rounds := round :: !rounds
      done;
      let stats = Pqs.Stats.merge_all (List.rev !rounds) in
      emit ~next:batch_hi ~rounds:(batch_hi - seed)
        ~batch_wall:(Telemetry.Clock.now () -. t0)
        ~stats ~tele;
      batches batch_hi
    end
  in
  batches lo;
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)

type slot = {
  sl_slot : int;
  sl_pid : int;
  sl_shard : int;
  sl_lo : int;
  sl_hi : int;
  mutable sl_watermark : int;
  sl_tail : Tail.t;
}

let run ?(log = fun _ -> ()) fleet (rc : Pqs.Runner.config) ~seed_lo ~seed_hi =
  if fleet.workers < 1 then invalid_arg "Supervisor.run: workers < 1";
  (try Unix.mkdir fleet.dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let agg = Aggregate.create ~dialect:rc.Pqs.Runner.Config.dialect in
  let queue = Range_queue.create ~chunk:fleet.chunk ~lo:seed_lo ~hi:seed_hi in
  let slots : slot option array = Array.make fleet.workers None in
  let shard_counter = ref 0 in
  let spawned = ref 0 in
  let watchdog_kills = ref 0 in
  let chaos_kills = ref 0 in
  let crashes = ref 0 in
  let requeued_seeds = ref 0 in
  let decode_errors = ref 0 in
  let chaos_armed = ref (fleet.chaos_kill_after <> None) in
  let t0 = Telemetry.Clock.now () in
  let now () = Telemetry.Clock.now () -. t0 in

  let feed_line line =
    match Pqs.Heartbeat.decode line with
    | Ok hb ->
        Aggregate.feed agg ~now:(now ()) hb;
        (match slots.(hb.Pqs.Heartbeat.slot) with
        | Some sl when sl.sl_shard = hb.Pqs.Heartbeat.shard ->
            sl.sl_watermark <- max sl.sl_watermark hb.Pqs.Heartbeat.next_seed
        | _ -> ())
    | Error msg ->
        incr decode_errors;
        log (Printf.sprintf "decode error: %s" msg)
  in
  let consume events =
    List.iter (function Tail.Line l -> feed_line l | Tail.Rotated -> ()) events
  in

  let spawn slot_idx (lo, hi) =
    incr shard_counter;
    incr spawned;
    let shard = !shard_counter in
    let path = shard_file fleet.dir shard in
    (* the worker appends; make sure the tail starts from an empty file *)
    (try Sys.remove path with Sys_error _ -> ());
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        (try
           worker_loop fleet rc ~shard ~slot:slot_idx ~lo ~hi;
           Unix._exit 0
         with _ -> Unix._exit 3)
    | pid ->
        slots.(slot_idx) <-
          Some
            {
              sl_slot = slot_idx;
              sl_pid = pid;
              sl_shard = shard;
              sl_lo = lo;
              sl_hi = hi;
              sl_watermark = lo;
              sl_tail = Tail.create path;
            };
        Aggregate.note_spawn agg ~shard ~slot:slot_idx ~lo ~hi ~now:(now ());
        log
          (Printf.sprintf "shard %d spawned (slot %d, pid %d, seeds [%d,%d))"
             shard slot_idx pid lo hi)
  in

  (* a shard is gone (reaped or killed): drain the remaining complete
     heartbeat lines, then requeue the uncovered tail of its lease *)
  let retire sl state =
    consume (Tail.drain sl.sl_tail);
    Tail.close sl.sl_tail;
    Aggregate.set_state agg ~shard:sl.sl_shard state;
    if sl.sl_watermark < sl.sl_hi then begin
      Range_queue.requeue queue ~lo:sl.sl_watermark ~hi:sl.sl_hi;
      requeued_seeds := !requeued_seeds + (sl.sl_hi - sl.sl_watermark);
      log
        (Printf.sprintf "shard %d: requeued seeds [%d,%d)" sl.sl_shard
           sl.sl_watermark sl.sl_hi)
    end;
    slots.(sl.sl_slot) <- None
  in

  let state_json () =
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"type\":\"fleet_state\",\"supervisor_pid\":%d,\"pending\":%d,\
          \"slots\":["
         (Unix.getpid ()) (Range_queue.pending queue));
    let first = ref true in
    Array.iter
      (function
        | None -> ()
        | Some sl ->
            if not !first then Buffer.add_char b ',';
            first := false;
            Buffer.add_string b
              (Printf.sprintf
                 "{\"slot\":%d,\"shard\":%d,\"pid\":%d,\"range\":[%d,%d],\
                  \"watermark\":%d}"
                 sl.sl_slot sl.sl_shard sl.sl_pid sl.sl_lo sl.sl_hi
                 sl.sl_watermark))
      slots;
    Buffer.add_string b "]}\n";
    Buffer.contents b
  in
  let export ~status =
    let n = now () in
    let reg =
      Aggregate.export_registry agg ~now:n ~stall_after:fleet.stall_after
        ~elapsed:n
    in
    Telemetry.write_atomic
      (Filename.concat fleet.dir "metrics.prom")
      (Telemetry.to_prometheus reg);
    Telemetry.write_atomic
      (Filename.concat fleet.dir "fleet.json")
      (Aggregate.snapshot_json agg ~elapsed:n ~status);
    Telemetry.write_atomic (Filename.concat fleet.dir "state.json") (state_json ())
  in

  let last_export = ref neg_infinity in
  let finished () =
    Range_queue.is_empty queue && Array.for_all Option.is_none slots
  in
  while not (finished ()) do
    (* refill empty slots *)
    Array.iteri
      (fun i -> function
        | Some _ -> ()
        | None -> (
            match Range_queue.lease queue with
            | Some r -> spawn i r
            | None -> ()))
      slots;
    Unix.sleepf fleet.poll;
    (* ingest heartbeats *)
    Array.iter
      (function None -> () | Some sl -> consume (Tail.poll sl.sl_tail))
      slots;
    (* reap exited workers *)
    Array.iter
      (function
        | None -> ()
        | Some sl -> (
            match Unix.waitpid [ Unix.WNOHANG ] sl.sl_pid with
            | 0, _ -> ()
            | _, status ->
                consume (Tail.drain sl.sl_tail);
                if status = Unix.WEXITED 0 && sl.sl_watermark >= sl.sl_hi then
                  retire sl Aggregate.Done
                else begin
                  incr crashes;
                  log
                    (Printf.sprintf "shard %d: abnormal exit (%s)" sl.sl_shard
                       (match status with
                       | Unix.WEXITED c -> Printf.sprintf "exit %d" c
                       | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
                       | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s));
                  retire sl Aggregate.Crashed
                end
            | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                retire sl Aggregate.Crashed))
      slots;
    (* watchdog: stalled shards are killed and their lease tail requeued *)
    Array.iter
      (function
        | None -> ()
        | Some sl ->
            let stale =
              match Aggregate.find_shard agg sl.sl_shard with
              | Some sh -> now () -. sh.Aggregate.sh_last > fleet.stall_after
              | None -> false
            in
            if stale then begin
              Aggregate.set_state agg ~shard:sl.sl_shard Aggregate.Stalled;
              log
                (Printf.sprintf "shard %d: stalled, killing pid %d" sl.sl_shard
                   sl.sl_pid);
              (try Unix.kill sl.sl_pid Sys.sigkill
               with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] sl.sl_pid);
              incr watchdog_kills;
              retire sl Aggregate.Killed
            end)
      slots;
    (* fault injection for the kill-recovery gate *)
    (match fleet.chaos_kill_after with
    | Some threshold when !chaos_armed && Aggregate.rounds agg >= threshold -> (
        let victim =
          Array.to_list slots |> List.filter_map Fun.id
          |> List.sort (fun a b -> compare a.sl_slot b.sl_slot)
          |> function
          | [] -> None
          | sl :: _ -> Some sl
        in
        match victim with
        | Some sl ->
            chaos_armed := false;
            incr chaos_kills;
            log
              (Printf.sprintf "chaos: SIGKILL shard %d (pid %d)" sl.sl_shard
                 sl.sl_pid);
            (try Unix.kill sl.sl_pid Sys.sigkill with Unix.Unix_error _ -> ())
        | None -> ())
    | _ -> ());
    if now () -. !last_export >= fleet.export_every then begin
      last_export := now ();
      export ~status:"running"
    end
  done;
  export ~status:"done";
  {
    agg;
    elapsed = now ();
    spawned = !spawned;
    watchdog_kills = !watchdog_kills;
    chaos_kills = !chaos_kills;
    crashes = !crashes;
    requeued_seeds = !requeued_seeds;
    decode_errors = !decode_errors;
  }
