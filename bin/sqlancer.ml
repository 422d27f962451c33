(* The PQS bug-hunting CLI, in the spirit of the paper's SQLancer tool.

   Examples:

     # list the injected-bug catalog
     sqlancer list-bugs

     # hunt a specific injected bug and print the reduced reproduction
     sqlancer hunt --dialect sqlite --bug Sq_partial_index_implies_not_null

     # a campaign against a correct engine (should find nothing)
     sqlancer campaign --dialect postgres --databases 300 *)

open Cmdliner

let dialect_conv =
  let parse s =
    match Sqlval.Dialect.of_name s with
    | Some d -> Ok d
    | None -> Error (`Msg (Printf.sprintf "unknown dialect %S" s))
  in
  Arg.conv (parse, fun fmt d -> Format.pp_print_string fmt (Sqlval.Dialect.name d))

let bug_conv =
  let parse s =
    match Engine.Bug.of_string s with
    | Some b -> Ok b
    | None -> Error (`Msg (Printf.sprintf "unknown bug %S (try list-bugs)" s))
  in
  Arg.conv (parse, fun fmt b -> Format.pp_print_string fmt (Engine.Bug.show b))

let dialect_arg =
  Arg.(
    value
    & opt dialect_conv Sqlval.Dialect.Sqlite_like
    & info [ "d"; "dialect" ] ~docv:"DIALECT" ~doc:"sqlite, mysql or postgres")

(* every optional oracle contributes one flag, derived from the registry
   so a new oracle needs no CLI edit *)
let oracle_flags =
  let entries =
    List.filter
      (fun e -> e.Pqs.Oracle.Registry.reg_flag <> None)
      (Pqs.Oracle.Registry.all ())
  in
  List.fold_left
    (fun acc e ->
      let flag_name = Option.get e.Pqs.Oracle.Registry.reg_flag in
      let arg =
        Arg.(
          value & flag
          & info [ flag_name ] ~doc:e.Pqs.Oracle.Registry.reg_doc)
      in
      Term.(
        const (fun selected enabled ->
            if enabled then selected @ [ e ] else selected)
        $ acc $ arg))
    (Term.const []) entries

let oracles_of selected =
  Pqs.Oracle.defaults
  @ List.map (fun e -> e.Pqs.Oracle.Registry.reg_make ()) selected

let seed_arg =
  Arg.(value & opt int 7 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"random seed")

let queries_arg =
  Arg.(
    value & opt int 10000
    & info [ "n"; "queries" ] ~docv:"N" ~doc:"containment-check budget")

let print_report ~reduce ~bugs (r : Pqs.Bug_report.t) =
  let r = if reduce then Pqs.Reducer.reduce_report r ~bugs else r in
  Format.printf "%a@." Pqs.Bug_report.pp r

let bundles_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bundles" ] ~docv:"DIR"
        ~doc:
          "write a self-contained repro bundle \
           (repro.sql/bundle.json/trace.json) under DIR for every finding; \
           replay with $(b,sqlancer replay DIR/bundle-*/repro.sql)")

let trace_sample_arg =
  Arg.(
    value & opt int 0
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "with --bundles: also write the full flight-recorder trace of \
           every Nth healthy round (0 = off)")

(* ---- list-bugs ---- *)

let list_bugs () =
  List.iter
    (fun bug ->
      let info = Engine.Bug.info bug in
      Printf.printf "%-42s %-10s %-11s %-9s %s\n" (Engine.Bug.show bug)
        (Sqlval.Dialect.name info.Engine.Bug.dialect)
        (match info.Engine.Bug.oracle with
        | Engine.Bug.O_containment -> "containment"
        | Engine.Bug.O_error -> "error"
        | Engine.Bug.O_crash -> "crash")
        (Engine.Bug.show_status info.Engine.Bug.status)
        info.Engine.Bug.paper_ref)
    Engine.Bug.all

let list_bugs_cmd =
  Cmd.v
    (Cmd.info "list-bugs" ~doc:"list the injected-bug catalog")
    Term.(
      const (fun () ->
          list_bugs ();
          0)
      $ const ())

(* ---- list-oracles ---- *)

let list_oracles () =
  List.iter
    (fun (e : Pqs.Oracle.Registry.entry) ->
      Printf.printf "%-12s %-9s %-13s %s\n" e.Pqs.Oracle.Registry.reg_name
        (if e.Pqs.Oracle.Registry.reg_default then "default"
         else
           match e.Pqs.Oracle.Registry.reg_flag with
           | Some f -> "--" ^ f
           | None -> "-")
        (match e.Pqs.Oracle.Registry.reg_recheck with
        | Pqs.Oracle.Registry.Not_recheckable -> "no-recheck"
        | Pqs.Oracle.Registry.Replay_outcome -> "replay"
        | Pqs.Oracle.Registry.Custom _ -> "custom")
        e.Pqs.Oracle.Registry.reg_doc)
    (Pqs.Oracle.Registry.all ())

let list_oracles_cmd =
  Cmd.v
    (Cmd.info "list-oracles"
       ~doc:"list the oracle registry (name, flag, recheck strategy)")
    Term.(
      const (fun () ->
          list_oracles ();
          0)
      $ const ())

(* ---- hunt ---- *)

let hunt dialect bug seed queries no_reduce bundles trace_sample =
  let info = Engine.Bug.info bug in
  let dialect =
    if Sqlval.Dialect.equal dialect info.Engine.Bug.dialect then dialect
    else begin
      Printf.printf "note: %s is a %s bug; using that dialect\n"
        (Engine.Bug.show bug)
        (Sqlval.Dialect.name info.Engine.Bug.dialect);
      info.Engine.Bug.dialect
    end
  in
  let bugs = Engine.Bug.set_of_list [ bug ] in
  let config =
    Pqs.Runner.Config.make ~seed ~bugs ?bundle_dir:bundles
      ~trace_sample dialect
  in
  Printf.printf "hunting %s (%s) with up to %d containment checks...\n%!"
    (Engine.Bug.show bug) info.Engine.Bug.summary queries;
  match Pqs.Runner.hunt config ~max_queries:queries with
  | Some r ->
      print_report ~reduce:(not no_reduce) ~bugs r;
      0
  | None ->
      Printf.printf "not detected within the budget; try more --queries or \
                     another --seed\n";
      1

let hunt_cmd =
  let bug_arg =
    Arg.(
      required
      & opt (some bug_conv) None
      & info [ "b"; "bug" ] ~docv:"BUG" ~doc:"injected bug to enable")
  in
  let no_reduce =
    Arg.(value & flag & info [ "no-reduce" ] ~doc:"skip test-case reduction")
  in
  Cmd.v
    (Cmd.info "hunt" ~doc:"enable one injected bug and hunt it")
    Term.(
      const hunt $ dialect_arg $ bug_arg $ seed_arg $ queries_arg $ no_reduce
      $ bundles_arg $ trace_sample_arg)

(* ---- campaign ---- *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "write the telemetry registry on exit: Prometheus text format, or \
           a JSON snapshot when FILE ends in .json")

let write_metrics tele = function
  | None -> ()
  | Some path ->
      Telemetry.write_file_atomic tele path;
      Printf.printf "metrics written to %s\n" path

(* campaign findings, deduplicated by minimized-repro fingerprint: the
   same engine defect found from many seeds prints once, with a count *)
let print_deduped_reports ~bugs reports =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      let r = Pqs.Reducer.reduce_report r ~bugs in
      let fp = Pqs.Bug_report.fingerprint r in
      match Hashtbl.find_opt tbl fp with
      | Some (first, n) -> Hashtbl.replace tbl fp (first, n + 1)
      | None ->
          Hashtbl.add tbl fp (r, 1);
          order := fp :: !order)
    reports;
  let distinct = List.rev !order in
  List.iter
    (fun fp ->
      let r, n = Hashtbl.find tbl fp in
      Format.printf "%a@." Pqs.Bug_report.pp r;
      Printf.printf "  fingerprint %s%s\n" (String.sub fp 0 12)
        (if n > 1 then
           Printf.sprintf " (%d more finding(s) share this repro)" (n - 1)
         else ""))
    distinct;
  if List.length distinct < List.length reports then
    Printf.printf "findings: %d distinct of %d total\n" (List.length distinct)
      (List.length reports)

(* top-of-funnel operator summary derived from the merged registry:
   slowest phase by total time, round latency quantiles, throughput,
   per-dialect engine coverage and frontier fractions *)
let funnel_line tele cov (c : Pqs.Campaign.t) =
  let slowest =
    List.fold_left
      (fun acc (s : Telemetry.sample) ->
        match (s.Telemetry.s_value, s.Telemetry.s_name) with
        | ( Telemetry.Histogram { sum; _ },
            ("pqs_phase_seconds" | "minidb_phase_seconds") ) -> (
            match List.assoc_opt "phase" s.Telemetry.s_labels with
            | Some phase -> (
                match acc with
                | Some (_, best) when best >= sum -> acc
                | _ -> Some (phase, sum))
            | None -> acc)
        | _ -> acc)
      None (Telemetry.snapshot tele)
  in
  let quant q =
    match Telemetry.quantile tele "pqs_round_seconds" q with
    | Some v -> Printf.sprintf "%.0fms" (v *. 1000.0)
    | None -> "n/a"
  in
  let universe = Pqs.Gen_bias.universe c.Pqs.Campaign.dialect in
  Printf.sprintf
    "funnel: slowest-phase=%s p50-round=%s p99-round=%s stmts/s=%.0f \
     coverage[%s]=%.0f%% frontier=%d/%d (%.0f%%)"
    (match slowest with
    | Some (phase, sum) -> Printf.sprintf "%s(%.2fs)" phase sum
    | None -> "n/a")
    (quant 0.5) (quant 0.99)
    (Pqs.Campaign.statements_per_sec c)
    (Sqlval.Dialect.name c.Pqs.Campaign.dialect)
    (100.0 *. Engine.Coverage.fraction cov)
    (Frontier.hit_in ~universe c.Pqs.Campaign.stats.Pqs.Stats.frontier)
    (List.length universe)
    (100.0
    *. Frontier.fraction ~universe c.Pqs.Campaign.stats.Pqs.Stats.frontier)

let campaign_run dialect seed databases domains trace chrome_trace all_bugs
    extra_oracles metrics metrics_every bundles trace_sample guided
    frontier_json =
  let bugs =
    if all_bugs then Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect)
    else Engine.Bug.empty_set
  in
  let oracles = oracles_of extra_oracles in
  (* always enabled for campaigns: the funnel summary comes from them, and
     recording is campaign-neutral (verified by test_telemetry) *)
  let telemetry = Telemetry.create () in
  let coverage = Engine.Coverage.create () in
  let config =
    Pqs.Runner.Config.make ~bugs ~oracles ~telemetry ~coverage
      ~guided ?bundle_dir:bundles ~trace_sample dialect
  in
  let c =
    Pqs.Campaign.run ?domains ?trace ?chrome_trace ?frontier_json
      ?metrics_every ?metrics_path:metrics ~seed_lo:seed
      ~seed_hi:(seed + databases) config
  in
  Printf.printf "domains=%d wall=%.2fs stmts/s=%.0f\n%s\n%s\n"
    c.Pqs.Campaign.domains c.Pqs.Campaign.elapsed
    (Pqs.Campaign.statements_per_sec c)
    (Pqs.Stats.summary c.Pqs.Campaign.stats)
    (funnel_line telemetry coverage c);
  (match trace with
  | Some path -> Printf.printf "event trace written to %s\n" path
  | None -> ());
  (match chrome_trace with
  | Some path -> Printf.printf "chrome trace written to %s\n" path
  | None -> ());
  (match bundles with
  | Some dir ->
      let n =
        List.length
          (List.filter_map
             (fun (r : Pqs.Bug_report.t) -> r.Pqs.Bug_report.bundle)
             (Pqs.Campaign.reports c))
      in
      Printf.printf "%d repro bundle(s) under %s\n" n dir
  | None -> ());
  (match frontier_json with
  | Some path -> Printf.printf "frontier snapshot written to %s\n" path
  | None -> ());
  write_metrics telemetry metrics;
  print_deduped_reports ~bugs (Pqs.Campaign.reports c);
  if Pqs.Campaign.reports c = [] then 0 else 1

let campaign dialect seed databases domains trace chrome_trace all_bugs
    extra_oracles metrics metrics_every bundles trace_sample guided
    frontier_json =
  try
    campaign_run dialect seed databases domains trace chrome_trace all_bugs
      extra_oracles metrics metrics_every bundles trace_sample guided
      frontier_json
  with Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    2

let campaign_cmd =
  let databases =
    Arg.(
      value & opt int 64
      & info [ "databases" ] ~docv:"N"
          ~doc:"seed range size: one database round per seed")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "domains" ] ~docv:"N"
          ~doc:"worker domains (default: the machine's recommended count)")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"write a JSONL event trace")
  in
  let chrome_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "write a Chrome trace-event JSON file of the per-worker seed \
             spans (open in chrome://tracing or Perfetto)")
  in
  let all_bugs =
    Arg.(
      value & flag
      & info [ "all-bugs" ]
          ~doc:"enable every catalog bug of the dialect (default: none)")
  in
  let guided =
    Arg.(
      value & flag
      & info [ "guided" ]
          ~doc:
            "coverage-guided generation: aim each pivot's queries at cold \
             frontier points instead of sampling clause shapes blind \
             (results then depend on the shard assignment)")
  in
  let frontier_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "frontier" ] ~docv:"FILE"
          ~doc:
            "write a JSON snapshot of the merged coverage frontier \
             (cross-linking any repro bundles)")
  in
  let metrics_every =
    Arg.(
      value
      & opt (some float) None
      & info [ "metrics-every" ] ~docv:"SECS"
          ~doc:
            "with --metrics: atomically re-export the metrics file at \
             least SECS seconds apart while the campaign runs, so a \
             Prometheus scraper can watch it live (mid-run snapshots \
             carry counters and frontier gauges; phase histograms land \
             in the final export)")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "shard a seed range across domains, one database per seed, and \
          merge the results deterministically")
    Term.(
      const campaign $ dialect_arg $ seed_arg $ databases $ domains $ trace
      $ chrome_trace $ all_bugs $ oracle_flags $ metrics_arg
      $ metrics_every $ bundles_arg $ trace_sample_arg $ guided
      $ frontier_json)

(* ---- fleet ---- *)

let print_fleet_findings agg =
  match Fleet.Aggregate.findings agg with
  | [] -> ()
  | findings ->
      Printf.printf "distinct findings (first-discovering shard first):\n";
      List.iter
        (fun (f : Fleet.Aggregate.finding) ->
          Printf.printf "  %s  %-14s shard %d seed %d  x%d%s\n"
            (String.sub f.Fleet.Aggregate.f_fingerprint 0 12)
            f.Fleet.Aggregate.f_oracle f.Fleet.Aggregate.f_shard
            f.Fleet.Aggregate.f_seed f.Fleet.Aggregate.f_count
            (match f.Fleet.Aggregate.f_bundle with
            | Some b -> "  " ^ b
            | None -> ""))
        findings

let fleet_run dialect seed databases workers chunk heartbeat_every stall_after
    export_every dir all_bugs extra_oracles bundles trace_sample
    guided quiet chaos =
  let bugs =
    if all_bugs then Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect)
    else Engine.Bug.empty_set
  in
  let oracles = oracles_of extra_oracles in
  (* enabled so each worker batch snapshots a registry into its
     heartbeats; the supervisor merges them into the fleet export *)
  let telemetry = Telemetry.create () in
  let config =
    Pqs.Runner.Config.make ~bugs ~oracles ~telemetry ~guided
      ?bundle_dir:bundles ~trace_sample dialect
  in
  let fc =
    {
      Fleet.Supervisor.workers;
      chunk;
      heartbeat_every;
      stall_after;
      poll = 0.05;
      dir;
      export_every;
      chaos_kill_after = chaos;
    }
  in
  let log =
    if quiet then fun _ -> () else fun s -> Printf.printf "[fleet] %s\n%!" s
  in
  let r =
    Fleet.Supervisor.run ~log fc config ~seed_lo:seed
      ~seed_hi:(seed + databases)
  in
  let agg = r.Fleet.Supervisor.agg in
  let c = Fleet.Aggregate.stats agg in
  let universe = Pqs.Gen_bias.universe dialect in
  let frontier = c.Pqs.Stats.frontier in
  Printf.printf
    "fleet: %d shard(s) over %d slot(s)  rounds=%d statements=%d queries=%d \
     wall=%.2fs rounds/s=%.1f\n"
    r.Fleet.Supervisor.spawned workers
    (Fleet.Aggregate.rounds agg)
    c.Pqs.Stats.statements c.Pqs.Stats.queries
    r.Fleet.Supervisor.elapsed
    (if r.Fleet.Supervisor.elapsed > 0.0 then
       float_of_int (Fleet.Aggregate.rounds agg) /. r.Fleet.Supervisor.elapsed
     else 0.0);
  Printf.printf
    "health: watchdog-kills=%d crashes=%d requeued-seeds=%d decode-errors=%d\n"
    r.Fleet.Supervisor.watchdog_kills
    (r.Fleet.Supervisor.crashes - r.Fleet.Supervisor.chaos_kills)
    r.Fleet.Supervisor.requeued_seeds r.Fleet.Supervisor.decode_errors;
  Printf.printf "frontier: %d/%d (%.1f%%)   findings: %d distinct of %d total\n"
    (Frontier.hit_in ~universe frontier)
    (List.length universe)
    (100.0 *. Frontier.fraction ~universe frontier)
    (Fleet.Aggregate.distinct_reports agg)
    (Fleet.Aggregate.total_reports agg);
  print_fleet_findings agg;
  Printf.printf "fleet snapshots under %s (fleet.json, metrics.prom)\n" dir;
  if Fleet.Aggregate.distinct_reports agg = 0 then 0 else 1

let fleet dialect seed databases workers chunk heartbeat_every stall_after
    export_every dir all_bugs extra_oracles bundles trace_sample
    guided quiet chaos =
  try
    fleet_run dialect seed databases workers chunk heartbeat_every stall_after
      export_every dir all_bugs extra_oracles bundles trace_sample
      guided quiet chaos
  with Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    2

let fleet_cmd =
  let databases =
    Arg.(
      value & opt int 256
      & info [ "databases" ] ~docv:"N"
          ~doc:"seed range size: one database round per seed")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "w"; "workers" ] ~docv:"N"
          ~doc:"worker slots (concurrent shard processes)")
  in
  let chunk =
    Arg.(
      value & opt int 32
      & info [ "chunk" ] ~docv:"N" ~doc:"seeds per work-stealing lease")
  in
  let heartbeat_every =
    Arg.(
      value & opt int 8
      & info [ "heartbeat-every" ] ~docv:"N"
          ~doc:"rounds per heartbeat batch")
  in
  let stall_after =
    Arg.(
      value & opt float 30.0
      & info [ "stall-after" ] ~docv:"SECS"
          ~doc:
            "watchdog: kill and restart a shard whose heartbeats stop for \
             this long (its unfinished seeds are requeued)")
  in
  let export_every =
    Arg.(
      value & opt float 2.0
      & info [ "export-every" ] ~docv:"SECS"
          ~doc:
            "seconds between atomic fleet.json / metrics.prom / state.json \
             snapshot exports")
  in
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "fleet directory: per-shard heartbeat files plus the exported \
             snapshots (watch live with $(b,sqlancer top --fleet DIR))")
  in
  let all_bugs =
    Arg.(
      value & flag
      & info [ "all-bugs" ]
          ~doc:"enable every catalog bug of the dialect (default: none)")
  in
  let guided =
    Arg.(
      value & flag
      & info [ "guided" ]
          ~doc:
            "coverage-guided generation (each shard's bias is local to its \
             lease, so results depend on the lease assignment)")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"suppress per-event supervisor log lines")
  in
  let chaos =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-kill-after" ] ~docv:"ROUNDS"
          ~doc:
            "fault injection (for testing the watchdog): SIGKILL one \
             running shard once the merged round count reaches ROUNDS")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "shard a seed range across supervised worker processes with \
          heartbeats, a stall watchdog and live merged snapshots; the \
          merged result is exactly the sequential run over the same seeds")
    Term.(
      const fleet $ dialect_arg $ seed_arg $ databases $ workers $ chunk
      $ heartbeat_every $ stall_after $ export_every $ dir $ all_bugs
      $ oracle_flags $ bundles_arg $ trace_sample_arg $ guided
      $ quiet $ chaos)

(* ---- top ---- *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* the supervisor's fleet.json carries the run status; "done" ends the
   live view (a snapshot read mid-rename is impossible: exports go
   through atomic rename) *)
let fleet_status dir =
  match read_file (Filename.concat dir "fleet.json") with
  | None -> None
  | Some s -> (
      match Json.parse s with
      | Ok j -> Option.bind (Json.member "status" j) Json.to_str
      | Error _ -> None)

(* a campaign trace is a one-shard fleet: both sources render through
   the same view, and differ only in where their heartbeats live and in
   when the run is over *)
let top dialect trace fleet_dir once report stale interval =
  let view finished source files =
    let v = Fleet.Fleet_view.create ~dialect ~source files in
    let rec loop () =
      Fleet.Fleet_view.refresh v;
      print_string (Fleet.Fleet_view.render ~ansi:(not once) ~stale v);
      flush stdout;
      if not (once || finished v) then begin
        Unix.sleepf interval;
        loop ()
      end
    in
    loop ();
    (match report with
    | None -> ()
    | Some path ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (Fleet.Fleet_view.render_html ~stale v));
        Printf.printf "html report written to %s\n" path);
    0
  in
  try
    match (trace, fleet_dir) with
    | Some trace, None ->
        view Fleet.Fleet_view.complete trace (fun () -> [ trace ])
    | None, Some dir ->
        view
          (fun _ -> fleet_status dir = Some "done")
          dir
          (fun () -> List.map snd (Fleet.Supervisor.shard_files dir))
    | _ ->
        Printf.eprintf "error: pass exactly one of --trace FILE or --fleet DIR\n";
        2
  with Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    2

let top_cmd =
  let trace =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "a campaign's heartbeat trace (written by $(b,campaign \
             --trace)), rendered as a one-shard fleet; the live view \
             ends when its watermark reaches the end of the seed range")
  in
  let fleet_dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "fleet" ] ~docv:"DIR"
          ~doc:
            "a fleet directory (written by $(b,sqlancer fleet)): render \
             per-shard health rows plus the merged funnel and frontier \
             from the shard heartbeat files")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"print one snapshot of the whole trace and exit")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"also write a self-contained HTML report")
  in
  let stale =
    Arg.(
      value & opt int 10
      & info [ "stale" ] ~docv:"N"
          ~doc:"how many of the coldest unexercised points to list")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECS" ~doc:"live redraw interval")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "live run view: tail a campaign trace or a fleet directory's \
          heartbeats and render per-shard health, rounds/sec, the \
          per-oracle firing funnel, the frontier fraction and the \
          most-stale unexercised points (exits when the run is done)")
    Term.(
      const top $ dialect_arg $ trace $ fleet_dir $ once $ report $ stale
      $ interval)

(* ---- replay ---- *)

let replay files =
  let results = List.map (fun f -> (f, Pqs.Replay.check_file f)) files in
  let ok = ref true in
  List.iter
    (fun (f, res) ->
      match res with
      | Ok o ->
          if not o.Pqs.Replay.reproduced then ok := false;
          Printf.printf "%-6s %-16s %s (%s)\n"
            (if o.Pqs.Replay.reproduced then "OK" else "FAIL")
            (Pqs.Bug_report.oracle_token o.Pqs.Replay.oracle)
            f o.Pqs.Replay.detail
      | Error msg ->
          ok := false;
          Printf.printf "%-6s %-16s %s (%s)\n" "BROKEN" "-" f msg)
    results;
  if !ok then 0 else 1

let replay_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"REPRO.SQL"
          ~doc:"repro scripts written by --bundles (bundle-*/repro.sql)")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "replay repro bundles and confirm each oracle verdict reproduces; \
          exit 0 iff all do")
    Term.(const replay $ files)

(* ---- seed-corpus sweeps: lint, plan-diff, const-opt ---- *)

let sweep_databases =
  Arg.(
    value & opt int 100
    & info [ "databases" ] ~docv:"N"
        ~doc:"seed range size: one database per seed")

let sweep_bug =
  Arg.(
    value
    & opt (some bug_conv) None
    & info [ "b"; "bug" ] ~docv:"BUG"
        ~doc:
          "injected bug to enable; with it, exit 0 iff a divergence was \
           found (detection), without it, exit 0 iff none was (soundness)")

let bugs_of_option = function
  | Some b -> Engine.Bug.set_of_list [ b ]
  | None -> Engine.Bug.empty_set

(* print each divergence, then exit by the soundness-vs-detection rule:
   bug-free, any divergence is an engine or oracle defect; hunting an
   injected bug, success means the oracle caught it *)
let sweep_exit bug divergences =
  List.iter
    (fun (seed, msg) -> Printf.printf "seed %d: %s\n" seed msg)
    divergences;
  if (divergences <> []) = Option.is_some bug then 0 else 1

let lint dialect seed databases =
  let r =
    Pqs.Corpus.lint ~seed_lo:seed ~seed_hi:(seed + databases - 1) dialect
  in
  Printf.printf "seeds=%d statements=%d queries=%d findings=%d\n"
    r.Pqs.Corpus.lint_seeds r.Pqs.Corpus.lint_statements
    r.Pqs.Corpus.lint_queries
    (List.length r.Pqs.Corpus.lint_findings);
  sweep_exit None r.Pqs.Corpus.lint_findings

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "build a seed corpus on the bug-free engine and run generated \
          containment queries over it; a query's type error, or a \
          generated statement or query that does not survive printer and \
          parser, is a generator or parser defect")
    Term.(const lint $ dialect_arg $ seed_arg $ sweep_databases)

let plan_diff dialect seed databases bug =
  let r =
    Pqs.Plan_diff.sweep ~bugs:(bugs_of_option bug) ~seed_lo:seed
      ~seed_hi:(seed + databases - 1) dialect
  in
  let exclusive = Pqs.Plan_diff.exclusive_seeds r in
  Printf.printf
    "seeds=%d queries=%d forced-plans=%d divergences=%d \
     containment-seeds=%d plan-diff-only-seeds=%d\n"
    r.Pqs.Plan_diff.pd_seeds r.Pqs.Plan_diff.pd_queries
    r.Pqs.Plan_diff.pd_plans
    (List.length r.Pqs.Plan_diff.pd_divergences)
    (List.length r.Pqs.Plan_diff.pd_containment_seeds)
    (List.length exclusive);
  sweep_exit bug r.Pqs.Plan_diff.pd_divergences

let plan_diff_cmd =
  Cmd.v
    (Cmd.info "plan-diff"
       ~doc:
         "run the plan-space differential oracle over a generated seed \
          corpus: every query executed under each enumerable plan, result \
          multisets cross-checked")
    Term.(
      const plan_diff $ dialect_arg $ seed_arg $ sweep_databases $ sweep_bug)

let const_opt dialect seed databases bug =
  let r =
    Pqs.Const_opt.sweep ~bugs:(bugs_of_option bug) ~seed_lo:seed
      ~seed_hi:(seed + databases - 1) dialect
  in
  Printf.printf
    "seeds=%d queries=%d const-checks=%d rewrites=%d divergences=%d\n"
    r.Pqs.Const_opt.co_seeds r.Pqs.Const_opt.co_queries
    r.Pqs.Const_opt.co_checks r.Pqs.Const_opt.co_rewrites
    (List.length r.Pqs.Const_opt.co_divergences);
  sweep_exit bug r.Pqs.Const_opt.co_divergences

let const_opt_cmd =
  Cmd.v
    (Cmd.info "const-opt"
       ~doc:
         "run the constant-optimization oracle over a generated seed \
          corpus: pivot values folded into each containment query as \
          constants, the simplified variant re-executed and cross-checked")
    Term.(
      const const_opt $ dialect_arg $ seed_arg $ sweep_databases $ sweep_bug)

(* ---- metamorphic ---- *)

let metamorphic dialect seed checks bug =
  let stats =
    Pqs.Metamorphic.run ~seed ~bugs:(bugs_of_option bug) ~max_checks:checks
      dialect
  in
  Printf.printf "checks=%d skipped=%d violations=%d\n"
    stats.Pqs.Metamorphic.checks stats.Pqs.Metamorphic.skipped
    (List.length stats.Pqs.Metamorphic.findings);
  List.iter
    (fun (msg, script) ->
      Printf.printf "\n%s\n%s\n" msg
        (Sqlast.Sql_printer.script dialect script))
    stats.Pqs.Metamorphic.findings;
  if stats.Pqs.Metamorphic.findings = [] then 0 else 1

let metamorphic_cmd =
  let checks =
    Arg.(
      value & opt int 4000
      & info [ "checks" ] ~docv:"N" ~doc:"partition checks to run")
  in
  let bug =
    Arg.(
      value
      & opt (some bug_conv) None
      & info [ "b"; "bug" ] ~docv:"BUG" ~doc:"injected bug to enable")
  in
  Cmd.v
    (Cmd.info "metamorphic"
       ~doc:"aggregate partition checks (the Section 7 extension)")
    Term.(const metamorphic $ dialect_arg $ seed_arg $ checks $ bug)

let () =
  let info =
    Cmd.info "sqlancer" ~version:"1.0"
      ~doc:"Pivoted Query Synthesis bug hunter (OSDI 2020 reproduction)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_bugs_cmd;
            list_oracles_cmd;
            hunt_cmd;
            campaign_cmd;
            fleet_cmd;
            top_cmd;
            metamorphic_cmd;
            lint_cmd;
            plan_diff_cmd;
            const_opt_cmd;
            replay_cmd;
          ]))
