(* The traced run: splits a workload's round time across the program's
   layers, measured from outside by timing the calls into each.

   Each batch of seeds runs twice, untraced and traced, in alternating
   order.  The untraced pass gives the base of [trace.overhead_share], the
   GC deltas, the campaign figures and the findings ([Reducer.reduce_report]);
   the traced pass attaches a [Telemetry] registry (the existing phase
   spans and [minidb_*] counters) and wraps every oracle in a timing oracle
   of the same name.  Bug-hunt also reduces the traced pass's reports under
   a counting [Reducer.manifestation_check].  Times here are plain seconds;
   the per-layer figures are shares and per-unit costs of one run.

   The phase spans nest as gen_db > engine writes (and the oracles'
   statement events), containment > engine select; rectify includes its own
   evaluations and the interp span covers only standalone ones.  Oracles
   re-execute through [Session.query_forced], which the statement
   histogram does not record, so the select histogram is exactly the
   containment queries' engine time.  Round time no span claims is the
   residual. *)

module Campaign = Pqs.Campaign
module Stats = Pqs.Stats
module Oracle = Pqs.Oracle
module Reducer = Pqs.Reducer
module Bug_report = Pqs.Bug_report
module Runner = Pqs.Runner

let now_ns = Telemetry.Clock.now_ns_int
let add a n = ignore (Atomic.fetch_and_add a n)

(* ---------- timing oracles ---------- *)

type oracle_time = {
  total_ns : int Atomic.t;
  gen_ns : int Atomic.t;
      (** calls on generation statements, which run inside the gen_db span *)
}

(* the campaign's domains share one accumulator per oracle name *)
let timed (times : (string, oracle_time) Hashtbl.t) o =
  let name = Oracle.name o in
  let t =
    match Hashtbl.find_opt times name with
    | Some t -> t
    | None ->
        let t = { total_ns = Atomic.make 0; gen_ns = Atomic.make 0 } in
        Hashtbl.replace times name t;
        t
  in
  Oracle.make ~name (fun ctx ev ->
      let t0 = now_ns () in
      let v = Oracle.observe o ctx ev in
      let dt = now_ns () - t0 in
      add t.total_ns dt;
      (match ev with
      | Oracle.Statement (Sqlast.Ast.Select_stmt _, _) -> ()
      | Oracle.Statement _ -> add t.gen_ns dt
      | Oracle.Containment_check _ | Oracle.Database_ready -> ());
      v)

(* ---------- counted reduction ---------- *)

type reduction = {
  r_ms : float;
  r_replays : int;
  r_replay_ms : float;
  r_stmts_after : int;
  r_fingerprint : string;
}

let reduce_counted ~bugs (r : Bug_report.t) =
  let check =
    Reducer.manifestation_check ~dialect:r.Bug_report.dialect ~bugs
      ~oracle:r.Bug_report.oracle
  in
  let replays = ref 0 and replay_ns = ref 0 in
  let counted stmts =
    incr replays;
    let t0 = now_ns () in
    let ok = check stmts in
    replay_ns := !replay_ns + (now_ns () - t0);
    ok
  in
  let t0 = now_ns () in
  let reduced = Reducer.reduce counted r.Bug_report.statements in
  let ms = float_of_int (now_ns () - t0) /. 1e6 in
  {
    r_ms = ms;
    r_replays = !replays;
    r_replay_ms = float_of_int !replay_ns /. 1e6;
    r_stmts_after = List.length reduced;
    r_fingerprint = Bug_report.fingerprint { r with Bug_report.reduced = Some reduced };
  }

(* ---------- the run ---------- *)

(* the oracles any workload configures, so every run prints every metric *)
let oracle_names = [ "error"; "crash"; "containment"; "plan_diff"; "const_opt" ]
let write_kinds = [ "ddl"; "insert"; "update"; "delete"; "maint"; "txn" ]

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l
let sum_i f l = List.fold_left (fun a x -> a + f x) 0 l

let run (w : Workload.t) ~seed ~seconds =
  let base = Workload.base_seed seed in
  ignore (Measure.setup w);
  let tele = Telemetry.create () in
  let times = Hashtbl.create 8 in
  let instrument config =
    Runner.Config.with_telemetry tele
      (Runner.Config.with_oracles
         (List.map (timed times) config.Runner.Config.oracles)
         config)
  in
  (* GC work of the untraced campaigns, without the reduction *)
  let minor_words = ref 0. and minor_gcs = ref 0 and major_gcs = ref 0 in
  let plain k ~seed_lo =
    let g0 = Gc.quick_stat () in
    let b = Measure.run_batch ~reduce:false w k ~seed_lo in
    let g1 = Gc.quick_stat () in
    minor_words := !minor_words +. g1.minor_words -. g0.minor_words;
    minor_gcs := !minor_gcs + g1.minor_collections - g0.minor_collections;
    major_gcs := !major_gcs + g1.major_collections - g0.major_collections;
    b
  in
  let traced k ~seed_lo = Measure.run_batch ~instrument ~reduce:false w k ~seed_lo in
  let step k ~seed_lo =
    (* alternate which pass runs first, so drift hits both alike *)
    let p, t =
      if k mod 2 = 0 then
        let p = plain k ~seed_lo in
        (p, traced k ~seed_lo)
      else
        let t = traced k ~seed_lo in
        (plain k ~seed_lo, t)
    in
    let neutral =
      Measure.digest [ Measure.summarize w k p ]
      = Measure.digest [ Measure.summarize w k t ]
    in
    let bugs = Workload.bug_set w.bugs (Workload.dialect_of w k) in
    let reports = Campaign.reports t.Measure.campaign in
    let p =
      if w.bugs then
        let findings, reduce_s = Measure.reduce_all ~bugs reports in
        { p with findings; reduce_s }
      else p
    in
    let reductions =
      if w.bugs then List.map (reduce_counted ~bugs) reports else []
    in
    (Measure.summarize w k p, Measure.summarize w k t, neutral, reductions)
  in
  let steps = Measure.timed_batches w ~base ~seconds step in
  let plains = List.map (fun (p, _, _, _) -> p) steps in
  let traceds = List.map (fun (_, t, _, _) -> t) steps in
  let reductions = List.concat_map (fun (_, _, _, r) -> r) steps in
  (* ---- output checks ---- *)
  let fingerprints l = List.sort compare (List.concat_map (fun (x : Measure.summary) -> x.fingerprints) l) in
  let same_reductions =
    (not w.bugs)
    || fingerprints plains = List.sort compare (List.map (fun r -> r.r_fingerprint) reductions)
  in
  let stats = Stats.merge_all (List.map (fun (x : Measure.summary) -> x.stats) traceds) in
  let checks =
    [
      ("traced rounds equal untraced rounds", List.for_all (fun (_, _, n, _) -> n) steps);
      ("counted reductions equal Reducer.reduce_report", same_reductions);
      ("containment checks ran", stats.Stats.queries > 0);
    ]
  in
  let failures = List.concat_map (fun (x : Measure.summary) -> x.failures) plains in
  let flagged = List.concat_map (fun (x : Measure.summary) -> x.flagged) plains in
  (* ---- bases ---- *)
  let walls l = sum (fun (x : Measure.summary) -> sum Fun.id x.walls) l in
  let rounds = sum_i (fun (x : Measure.summary) -> List.length x.walls) traceds in
  let rounds_f = float_of_int rounds in
  let round_wall = walls traceds and plain_wall = walls plains in
  let elapsed l = sum (fun (x : Measure.summary) -> x.elapsed) l in
  let plain_elapsed = elapsed plains and traced_elapsed = elapsed traceds in
  let reduce_s = sum (fun (x : Measure.summary) -> x.reduce_s) plains in
  let checks_n = float_of_int stats.Stats.queries in
  let stmts_n = float_of_int stats.Stats.statements in
  let phase p =
    Telemetry.histogram_sum tele
      ~labels:[ ("phase", Telemetry.Phase.name p) ]
      (Telemetry.Phase.metric p)
  in
  let kind_s k =
    Telemetry.histogram_sum tele ~labels:[ ("kind", k) ] "minidb_statement_seconds"
  in
  let kind_n k =
    Telemetry.counter_value tele ~labels:[ ("kind", k) ] "minidb_statements_total"
  in
  let counter name = float_of_int (Telemetry.counter_value tele name) in
  let oracle_s name field =
    match Hashtbl.find_opt times name with
    | Some t -> float_of_int (Atomic.get (field t)) /. 1e9
    | None -> 0.
  in
  let oracles_total field =
    Hashtbl.fold (fun _ t a -> a +. (float_of_int (Atomic.get (field t)) /. 1e9)) times 0.
  in
  (* ---- the attribution tree: self time per layer ---- *)
  let write_s = sum kind_s write_kinds in
  let write_n = sum_i kind_n write_kinds in
  let select_s = kind_s "select" in
  let oracle_gen_s = oracles_total (fun t -> t.gen_ns) in
  let gen_db_self = phase Telemetry.Phase.Gen_db -. write_s -. oracle_gen_s in
  let containment_self = phase Telemetry.Phase.Containment -. select_s in
  let layers =
    [
      ("generation (gen_db self)", gen_db_self);
      ("engine writes", write_s);
      ("pivot", phase Telemetry.Phase.Pivot);
      ("synthesis gen_expr", phase Telemetry.Phase.Gen_expr);
      ("synthesis rectify", phase Telemetry.Phase.Rectify);
      ("synthesis interp", phase Telemetry.Phase.Interp);
      ("engine select (containment)", select_s);
      ("containment glue", containment_self);
    ]
    @ List.map (fun n -> ("oracle " ^ n, oracle_s n (fun t -> t.total_ns))) oracle_names
  in
  let residual = round_wall -. sum snd layers in
  let share v = Stat.ratio v round_wall in
  (* ---- reduction ---- *)
  let red_ms = Stat.sorted (List.map (fun r -> r.r_ms) reductions) in
  let red_n = float_of_int (List.length reductions) in
  let red_total = sum (fun r -> r.r_ms) reductions /. 1000. in
  let replays = sum_i (fun r -> r.r_replays) reductions in
  let distinct = List.length (List.sort_uniq compare (fingerprints plains)) in
  let per_1k n = Stat.ratio (float_of_int n *. 1000.) rounds_f in
  let m name unit value = { Measure.name; unit; value } in
  let metrics =
    [
      m "gen_db.ms_per_round" "ms" (Stat.ratio (gen_db_self *. 1e3) rounds_f);
      m "gen_db.stmts_per_round" "stmts"
        (Stat.ratio (stmts_n -. checks_n) rounds_f);
      m "engine.write_us_per_stmt" "us"
        (Stat.ratio (write_s *. 1e6) (float_of_int write_n));
    ]
    @ List.map
        (fun k ->
          m ("engine.write_us_per_stmt." ^ k) "us"
            (Stat.ratio (kind_s k *. 1e6) (float_of_int (kind_n k))))
        write_kinds
    @ [
        m "pivot.us_per_pivot" "us"
          (Stat.ratio (phase Telemetry.Phase.Pivot *. 1e6)
             (float_of_int stats.Stats.pivots));
        m "synth.gen_expr_us_per_check" "us"
          (Stat.ratio (phase Telemetry.Phase.Gen_expr *. 1e6) checks_n);
        m "synth.rectify_us_per_check" "us"
          (Stat.ratio (phase Telemetry.Phase.Rectify *. 1e6) checks_n);
        m "synth.interp_us_per_check" "us"
          (Stat.ratio (phase Telemetry.Phase.Interp *. 1e6) checks_n);
        m "synth.retry_ratio" "ratio"
          (Stat.ratio_i stats.Stats.interp_failures
             (stats.Stats.queries + stats.Stats.interp_failures));
        m "engine.select_ms_per_check" "ms" (Stat.ratio (select_s *. 1e3) checks_n);
        m "engine.select_share" "ratio" (share select_s);
        m "engine.plan_us_per_stmt" "us"
          (Stat.ratio
             (phase Telemetry.Phase.Plan *. 1e6)
             (float_of_int (write_n + kind_n "select")));
        m "engine.rows_scanned_per_check" "rows"
          (Stat.ratio (counter "minidb_rows_scanned_total") checks_n);
        m "engine.btree_visits_per_check" "visits"
          (Stat.ratio (counter "minidb_btree_node_visits_total") checks_n);
      ]
    @ List.map
        (fun n ->
          m ("oracle." ^ n ^ ".ms_per_check") "ms"
            (Stat.ratio (oracle_s n (fun t -> t.total_ns) *. 1e3) checks_n))
        oracle_names
    @ [
        m "oracle.plan_diff.plans_per_check" "plans"
          (Stat.ratio (counter "pqs_plans_enumerated_total") checks_n);
        m "reduce.ms_p50" "ms" (if red_n > 0. then Stat.percentile red_ms 50. else 0.);
        m "reduce.ms_p99" "ms" (if red_n > 0. then Stat.percentile red_ms 99. else 0.);
        m "reduce.replays_per_report" "replays" (Stat.ratio (float_of_int replays) red_n);
        m "reduce.us_per_replay" "us"
          (Stat.ratio (sum (fun r -> r.r_replay_ms) reductions *. 1e3)
             (float_of_int replays));
        m "reduce.stmts_after" "stmts"
          (Stat.ratio (float_of_int (sum_i (fun r -> r.r_stmts_after) reductions)) red_n);
        m "reduce.share" "ratio" (Stat.ratio red_total (traced_elapsed +. red_total));
        m "findings_per_s" "findings/s"
          (Stat.ratio (float_of_int distinct) (plain_elapsed +. reduce_s));
        m "failed_share" "ratio"
          (Stat.ratio_i
             (List.length failures + List.length flagged)
             stats.Stats.queries);
        m "campaign.parallel_efficiency" "ratio"
          (Stat.ratio plain_wall (plain_elapsed *. float_of_int w.domains));
        m "campaign.overhead_ms" "ms/1k-rounds"
          (Stat.ratio
             ((plain_elapsed -. (plain_wall /. float_of_int w.domains)) *. 1e6)
             rounds_f);
        m "gc.minor_words_per_stmt" "words" (Stat.ratio !minor_words stmts_n);
        m "gc.minor_collections_per_1k_rounds" "count/1k-rounds" (per_1k !minor_gcs);
        m "gc.major_collections_per_1k_rounds" "count/1k-rounds" (per_1k !major_gcs);
        m "attribution.residual_share" "ratio" (share residual);
        (* 1 - traced/untraced rounds per second over the same rounds *)
        m "trace.overhead_share" "ratio" (1. -. Stat.ratio plain_elapsed traced_elapsed);
        m "lib.lines" "count"
          (float_of_int (Option.value (Measure.source_lines "lib") ~default:0));
      ]
  in
  let table =
    Printf.sprintf "round -> layer, %s, %d traced rounds, %.3f ms/round:" w.name
      rounds (Stat.ratio (round_wall *. 1e3) rounds_f)
    :: List.map
         (fun (name, s) ->
           Printf.sprintf "  %-30s %9.4f ms/round %6.2f%%" name
             (Stat.ratio (s *. 1e3) rounds_f) (100. *. share s))
         (layers @ [ ("residual", residual) ])
  in
  let bases =
    [
      Printf.sprintf
        "attribution.residual_share base: %.3f s of round wall over %d rounds"
        round_wall rounds;
      Printf.sprintf
        "trace.overhead_share base: untraced %.1f rounds/s (%.3f s), traced \
         %.1f rounds/s (%.3f s), same %d rounds"
        (Stat.ratio rounds_f plain_elapsed) plain_elapsed
        (Stat.ratio rounds_f traced_elapsed) traced_elapsed rounds;
      (match Stat.tail red_ms with
      | Some (p, v) -> Printf.sprintf "reductions: %d, p%g = %.3f ms" (List.length reductions) p v
      | None -> Printf.sprintf "reductions: %d" (List.length reductions));
    ]
    @ List.map
        (fun (name, ok) ->
          Printf.sprintf "check %s: %s" name (if ok then "ok" else "FAILED"))
        checks
  in
  {
    Measure.correct = List.for_all snd checks;
    attempted = stats.Stats.queries;
    failed = List.length failures;
    metrics;
    notes = table @ bases;
  }
