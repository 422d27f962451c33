type outcome = {
  seed : int;
  worker : int;
  round : Stats.t;
  started : float;
  wall : float;
}

type t = {
  stats : Stats.t;
  outcomes : outcome list;
  domains : int;
  elapsed : float;
  dialect : Sqlval.Dialect.t;
}

let reports t = t.stats.Stats.reports

let statements_per_sec t =
  if t.elapsed <= 0.0 then 0.0
  else float_of_int t.stats.Stats.statements /. t.elapsed

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)

let chrome_events t =
  let workers =
    List.sort_uniq compare (List.map (fun o -> o.worker) t.outcomes)
  in
  Telemetry.Trace.process_name "pqs campaign"
  :: List.map
       (fun w ->
         Telemetry.Trace.thread_name ~tid:w (Printf.sprintf "worker %d" w))
       workers
  @ List.map
      (fun o ->
        (* round_id matches the flight recorder's [round_seed] (and the
           bundle-<seed>-* directory names), linking Chrome-trace rounds to
           trace.json event logs *)
        let bundles =
          List.filter_map (fun r -> r.Bug_report.bundle) o.round.Stats.reports
        in
        Telemetry.Trace.complete
          ~name:(Printf.sprintf "seed %d" o.seed)
          ~cat:"round"
          ~args:
            ([
               ("seed", Telemetry.Trace.Int o.seed);
               ("round_id", Telemetry.Trace.Int o.seed);
               ("statements", Telemetry.Trace.Int o.round.Stats.statements);
               ("queries", Telemetry.Trace.Int o.round.Stats.queries);
               ( "reports",
                 Telemetry.Trace.Int (List.length o.round.Stats.reports) );
             ]
            @
            match bundles with
            | [] -> []
            | b :: _ -> [ ("bundle", Telemetry.Trace.Str b) ])
          ~ts_us:(o.started *. 1e6) ~dur_us:(o.wall *. 1e6) ~tid:o.worker ())
      t.outcomes

let write_chrome_trace t path = Telemetry.Trace.write path (chrome_events t)

(* ------------------------------------------------------------------ *)

(* the periodic metrics snapshot: a fresh registry built from the
   supervisor-side merged stats (worker registries are single-owner and
   must not be read mid-run; phase histograms appear only in the final
   post-join export) *)
let progress_registry ~domains ~seeds ~elapsed ~dialect (stats : Stats.t) =
  let reg = Telemetry.create () in
  Telemetry.inc reg ~by:stats.Stats.databases "pqs_rounds_total";
  Telemetry.inc reg ~by:stats.Stats.statements "pqs_statements_total";
  Telemetry.inc reg ~by:stats.Stats.queries "pqs_queries_total";
  Telemetry.inc reg ~by:stats.Stats.pivots "pqs_pivots_total";
  Telemetry.inc reg
    ~by:(List.length stats.Stats.reports)
    "pqs_reports_total";
  Telemetry.set_gauge reg "pqs_campaign_domains" (float_of_int domains);
  Telemetry.set_gauge reg "pqs_campaign_seeds" (float_of_int seeds);
  Telemetry.set_gauge reg "pqs_campaign_elapsed_seconds" elapsed;
  let universe = Gen_bias.universe dialect in
  let labels = [ ("dialect", Sqlval.Dialect.name dialect) ] in
  Telemetry.set_gauge reg ~labels "pqs_frontier_points_hit"
    (float_of_int (Frontier.hit_in ~universe stats.Stats.frontier));
  Telemetry.set_gauge reg ~labels "pqs_frontier_fraction"
    (Frontier.fraction ~universe stats.Stats.frontier);
  reg

(* a round allocates ~170k minor words and everything it allocates —
   including the event graphs the flight recorder pins in its ring until
   round end — is dead by the next [begin_round].  With the default
   256k-word nursery a minor collection lands mid-round two rounds out of
   three and promotes those still-reachable graphs to the major heap,
   which shows up as recorder overhead.  A 2M-word nursery (16 MB/domain)
   spans ~12 rounds, so almost every round's garbage dies young instead;
   only ever grown, never shrunk. *)
let size_minor_heap () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < 1 lsl 21 then
    Gc.set { g with Gc.minor_heap_size = 1 lsl 21 }

let run ?domains ?trace ?chrome_trace ?frontier_json ?metrics_every
    ?metrics_path ~seed_lo ~seed_hi (config : Runner.config) =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  size_minor_heap ();
  (* open the trace before spending any compute, so a bad path fails fast *)
  let trace_oc = Option.map open_out trace in
  let trace_mutex = Mutex.create () in
  let rounds_done = ref 0 in
  let t0 = Telemetry.Clock.now () in
  let seeds = List.init (max 0 (seed_hi - seed_lo)) (fun i -> seed_lo + i) in
  (* periodic metrics export: merged stats accumulate supervisor-side
     under the trace mutex (worker registries are single-owner and can't
     be read mid-run) and re-export atomically every [metrics_every]
     seconds, so a scraper always sees a complete file *)
  let metrics_acc = ref Stats.empty in
  let metrics_last = ref 0.0 in
  let note_metrics round =
    match (metrics_every, metrics_path) with
    | Some every, Some path ->
        metrics_acc := Stats.merge !metrics_acc round;
        let now = Telemetry.Clock.now () -. t0 in
        if now -. !metrics_last >= every then begin
          metrics_last := now;
          let reg =
            progress_registry ~domains ~seeds:(List.length seeds) ~elapsed:now
              ~dialect:config.Runner.Config.dialect !metrics_acc
          in
          try Telemetry.write_file_atomic reg path with Sys_error _ -> ()
        end
    | _ -> ()
  in
  (* the trace is a one-shard fleet: one heartbeat per round streams out
     (and flushes) as the round completes, so an interrupted campaign
     still leaves a usable prefix.  Reduction replays scripts, so the
     findings are fingerprinted before taking the lock; [seq] and the
     watermark are stamped under it, so they grow with the file *)
  let emit_round (round : Stats.t) =
    let findings =
      match trace_oc with
      | Some _ ->
          Heartbeat.report_metas ~bugs:config.Runner.Config.bugs
            round.Stats.reports
      | None -> []
    in
    Mutex.protect trace_mutex (fun () ->
        let seq = !rounds_done in
        rounds_done := seq + 1;
        (match trace_oc with
        | None -> ()
        | Some oc ->
            let elapsed = Telemetry.Clock.now () -. t0 in
            let hb =
              Heartbeat.make ~shard:0 ~slot:0 ~seq ~range:(seed_lo, seed_hi)
                ~next_seed:(seed_lo + seq + 1) ~rounds:1
                ~rounds_per_sec:
                  (if elapsed > 0.0 then float_of_int (seq + 1) /. elapsed
                   else 0.0)
                ~reports:findings ~telemetry:[] round
            in
            output_string oc (Heartbeat.encode hb ^ "\n");
            flush oc);
        note_metrics round)
  in
  (* striped sharding balances load; any deterministic assignment yields
     the same merged result because rounds are independent *)
  let shard w = List.filter (fun s -> (s - seed_lo) mod domains = w) seeds in
  (* each worker gets a private coverage instrument so domains never share
     the mutable hit tables; merged below after the join *)
  let worker_covs =
    match config.Runner.Config.coverage with
    | None -> [||]
    | Some _ -> Array.init domains (fun _ -> Engine.Coverage.create ())
  in
  (* likewise a private telemetry registry per worker, merged after the
     join (recording is campaign-neutral, so this changes no outcome) *)
  let telemetry_enabled =
    Telemetry.enabled config.Runner.Config.telemetry
  in
  let worker_teles =
    if telemetry_enabled then Array.init domains (fun _ -> Telemetry.create ())
    else [||]
  in
  let work w () =
    let config =
      if Array.length worker_covs = 0 then config
      else Runner.Config.with_coverage (Some worker_covs.(w)) config
    in
    let tele =
      if telemetry_enabled then worker_teles.(w) else Telemetry.noop
    in
    let config = Runner.Config.with_telemetry tele config in
    (* one ring per worker, recycled across its rounds by begin_round *)
    let recorder = Runner.recorder_for config in
    (* worker-local guided-bias state: each shard learns from its own
       earlier rounds (sharing across domains would race; per-seed results
       stay deterministic per shard assignment) *)
    let bias = ref Frontier.empty in
    List.map
      (fun s ->
        let started = Telemetry.Clock.now () -. t0 in
        let round = Runner.run_round ~recorder ~bias config ~db_seed:s in
        let wall = Telemetry.Clock.now () -. t0 -. started in
        Telemetry.observe tele "pqs_round_seconds" wall;
        Telemetry.inc tele "pqs_rounds_total";
        emit_round round;
        { seed = s; worker = w; round; started; wall })
      (shard w)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter close_out_noerr trace_oc)
    (fun () ->
      let outcomes =
        if domains = 1 then work 0 ()
        else
          List.init domains (fun w -> Domain.spawn (work w))
          |> List.concat_map Domain.join
      in
      let elapsed = Telemetry.Clock.now () -. t0 in
      (match config.Runner.Config.coverage with
      | Some dst ->
          Array.iter
            (fun src -> Engine.Coverage.merge_into ~dst ~src)
            worker_covs
      | None -> ());
      if telemetry_enabled then begin
        let dst = config.Runner.Config.telemetry in
        Array.iter (fun src -> Telemetry.merge_into ~dst ~src) worker_teles;
        Telemetry.set_gauge dst "pqs_campaign_domains" (float_of_int domains);
        Telemetry.set_gauge dst "pqs_campaign_seeds"
          (float_of_int (List.length seeds))
      end;
      let outcomes = List.sort (fun a b -> compare a.seed b.seed) outcomes in
      let stats = Stats.merge_all (List.map (fun o -> o.round) outcomes) in
      (* the merged frontier shares point strings and entries with the
         rounds' frontiers, allocated all over the major heap during the
         run; a caller that keeps these stats must not pin all of it *)
      let stats =
        { stats with Stats.frontier = Frontier.copy stats.Stats.frontier }
      in
      let dialect = config.Runner.Config.dialect in
      let t = { stats; outcomes; domains; elapsed; dialect } in
      let universe = Gen_bias.universe dialect in
      if telemetry_enabled then begin
        let dst = config.Runner.Config.telemetry in
        let labels = [ ("dialect", Sqlval.Dialect.name dialect) ] in
        Telemetry.set_gauge dst ~labels "pqs_frontier_points_hit"
          (float_of_int (Frontier.hit_in ~universe stats.Stats.frontier));
        Telemetry.set_gauge dst ~labels "pqs_frontier_fraction"
          (Frontier.fraction ~universe stats.Stats.frontier);
        (* time-to-first-hit per point group: walk outcomes in ascending
           seed order and observe the completion time of the round that
           first exercised each point *)
        let seen = Hashtbl.create 256 in
        List.iter
          (fun o ->
            List.iter
              (fun (p, _) ->
                if not (Hashtbl.mem seen p) then begin
                  Hashtbl.replace seen p ();
                  let group =
                    match String.index_opt p '.' with
                    | Some i -> String.sub p 0 i
                    | None -> p
                  in
                  Telemetry.observe dst
                    ~labels:[ ("phase", group) ]
                    "pqs_frontier_first_hit_seconds" (o.started +. o.wall)
                end)
              (Frontier.points o.round.Stats.frontier))
          outcomes
      end;
      (match frontier_json with
      | Some path -> (
          let bundles =
            List.filter_map
              (fun r -> r.Bug_report.bundle)
              stats.Stats.reports
          in
          try Frontier.write_json ~universe ~bundles stats.Stats.frontier path
          with Sys_error _ -> ())
      | None -> ());
      (match chrome_trace with
      | Some path -> write_chrome_trace t path
      | None -> ());
      t)
