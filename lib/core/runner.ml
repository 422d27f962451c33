open Sqlval
module A = Sqlast.Ast

module Config = struct
  type t = {
    dialect : Dialect.t;
    bugs : Engine.Bug.set;
    seed : int;
    table_count : int;
    max_rows : int;
    extra_statements : int;
    pivots_per_db : int;
    queries_per_pivot : int;
    max_depth : int;
    check_expressions : bool;
    verify_ground_truth : bool;
    rectify : bool;
    coverage : Engine.Coverage.t option;
    check_non_containment : bool;
    oracles : Oracle.t list;
    telemetry : Telemetry.t;
    trace : bool;  (** flight-record every round even when nothing fires *)
    bundle_dir : string option;
        (** where repro bundles are written when an oracle fires *)
    trace_sample : int;
        (** also dump full traces of every Nth healthy round (0 = off);
            requires [bundle_dir] *)
    guided : bool;
        (** coverage-guided generation: bias query shapes toward the cold
            points of the accumulated frontier *)
  }

  let make ?(bugs = Engine.Bug.empty_set) ?(seed = 1) ?(table_count = 2)
      ?(max_rows = 6) ?(extra_statements = 8) ?(pivots_per_db = 4)
      ?(queries_per_pivot = 6) ?(max_depth = 4) ?(check_expressions = true)
      ?(verify_ground_truth = true) ?(rectify = true) ?coverage
      ?(check_non_containment = true) ?(oracles = Oracle.defaults)
      ?(telemetry = Telemetry.noop) ?(trace = false) ?bundle_dir
      ?(trace_sample = 0) ?(guided = false) dialect =
    {
      dialect;
      bugs;
      seed;
      table_count;
      max_rows;
      extra_statements;
      pivots_per_db;
      queries_per_pivot;
      max_depth;
      check_expressions;
      verify_ground_truth;
      rectify;
      coverage;
      check_non_containment;
      oracles;
      telemetry;
      trace;
      bundle_dir;
      trace_sample;
      guided;
    }

  let with_oracles oracles t = { t with oracles }
  let with_coverage coverage t = { t with coverage }
  let with_telemetry telemetry t = { t with telemetry }
end

type config = Config.t
type stats = Stats.t

let confirm_report (config : Config.t) oracle script =
  (not config.Config.verify_ground_truth)
  || Reducer.correct_engine_agrees ~dialect:config.Config.dialect ~oracle script

(* flight recorder: enabled when tracing is requested or when repro
   bundles / trace samples may need to be written; otherwise the noop
   sink (one branch per record) rides along for free *)
let recorder_for (config : Config.t) =
  let open Config in
  if config.trace || config.bundle_dir <> None || config.trace_sample > 0 then
    Trace.create ()
  else Trace.noop

let run_round ?recorder ?bias (config : Config.t) ~db_seed : Stats.t =
  let open Config in
  let tele = config.telemetry in
  let stats = ref { Stats.empty with Stats.databases = 1 } in
  let rng = Rng.make ~seed:db_seed in
  (* the frontier accumulated across rounds (guided bias state); a local
     ref when the caller does not thread one through *)
  let bias = match bias with Some b -> b | None -> ref Frontier.empty in
  (* shape planning draws from a private stream so that guidance leaves
     the synthesis stream untouched: a guided and a blind round diverge
     only through the shape overrides themselves *)
  let guided_rng =
    if config.guided then Some (Rng.make ~seed:(db_seed + 7757)) else None
  in
  (* planner-path frontier points come from the coverage instrument: the
     delta over this round is what the round itself exercised *)
  let plan_base =
    match config.coverage with
    | None -> []
    | Some cov ->
        List.map
          (fun p -> (p, Engine.Coverage.hit_count cov p))
          (Gen_bias.plan_points config.dialect)
  in
  (* the round's clause-combination points, folded into its stats once *)
  let points = Gen_bias.tally () in
  let recorder =
    match recorder with Some r -> r | None -> recorder_for config
  in
  Trace.begin_round recorder ~seed:db_seed ~dialect:config.dialect;
  let session =
    Engine.Session.create ~seed:db_seed ~bugs:config.bugs
      ?coverage:config.coverage ~telemetry:tele ~recorder config.dialect
  in
  let ctx =
    {
      Oracle.ctx_dialect = config.dialect;
      ctx_session = session;
      ctx_db_seed = db_seed;
      (* a private stream: oracle randomness must not perturb synthesis *)
      ctx_rng = Rng.make ~seed:(db_seed + 104651);
      ctx_telemetry = tele;
    }
  in
  let log = ref [] in
  (* the funnel phase the round is currently in; stamped into reports and
     repro bundles so triage starts from where the oracle fired *)
  let phase = ref "gen_db" in
  let plan_diff_enabled =
    List.exists
      (fun o -> String.equal (Oracle.name o) "plan_diff")
      config.oracles
  in
  let const_opt_enabled =
    List.exists
      (fun o -> String.equal (Oracle.name o) "const_opt")
      config.oracles
  in
  let record ?expected ?actual kind message =
    let stmts = List.rev !log in
    Trace.record recorder
      (Trace.Event.Oracle_fired
         { oracle = Bug_report.oracle_token kind; message; phase = !phase });
    let bundle =
      match config.bundle_dir with
      | Some dir when Trace.enabled recorder -> (
          let plan =
            match !log with
            | A.Select_stmt stmt_q :: _ ->
                Engine.Session.plan_lines session stmt_q
            | _ -> []
          in
          let b =
            {
              Trace.Bundle.b_seed = db_seed;
              b_dialect = config.dialect;
              b_oracle = Bug_report.oracle_token kind;
              b_message = message;
              b_phase = !phase;
              b_bugs =
                List.map Engine.Bug.show (Engine.Bug.to_list config.bugs);
              b_statements = stmts;
              b_expected = expected;
              b_actual = actual;
              b_plan = plan;
              b_trace_json = Trace.to_json recorder;
            }
          in
          try Some (Trace.Bundle.write ~dir b)
          with Sys_error _ | Unix.Unix_error (_, _, _) -> None)
      | _ -> None
    in
    let r =
      {
        Bug_report.dialect = config.dialect;
        oracle = kind;
        message;
        statements = stmts;
        reduced = None;
        seed = db_seed;
        phase = !phase;
        bundle;
      }
    in
    (match kind with
    | Bug_report.Plan_diff ->
        stats :=
          {
            !stats with
            Stats.plan_divergences = (!stats).Stats.plan_divergences + 1;
          }
    | Bug_report.Const_opt ->
        stats :=
          {
            !stats with
            Stats.const_divergences = (!stats).Stats.const_divergences + 1;
          }
    | _ -> ());
    stats := Stats.add_report !stats r;
    Some r
  in
  let dispatch event = Oracle.first_report config.oracles ctx event in
  (* execute one statement under the statement-level oracles; returns a
     report if one fired *)
  (* mirror an engine outcome into a flight-recorder statement event *)
  let trace_stmt stmt outcome t0 =
    if Trace.enabled recorder then begin
      let now = Telemetry.Clock.now_ns_int () in
      let oc =
        match outcome with
        | Oracle.Succeeded (Engine.Session.Rows rs) ->
            Trace.Event.Rows (List.length rs.Engine.Executor.rs_rows)
        | Oracle.Succeeded (Engine.Session.Affected n) ->
            Trace.Event.Affected n
        | Oracle.Succeeded Engine.Session.Done -> Trace.Event.Done
        | Oracle.Failed e -> Trace.Event.Error e.Engine.Errors.message
        | Oracle.Crashed msg -> Trace.Event.Crashed msg
      in
      Trace.record_at recorder ~now_ns:now
        (Trace.Event.Statement { stmt; outcome = oc; dur_ns = now - t0 })
    end
  in
  let exec stmt : Bug_report.t option =
    log := stmt :: !log;
    stats := { !stats with Stats.statements = (!stats).Stats.statements + 1 };
    let t0 = if Trace.enabled recorder then Telemetry.Clock.now_ns_int () else 0 in
    let outcome =
      match Engine.Session.execute session stmt with
      | Ok r -> Oracle.Succeeded r
      | Error e -> Oracle.Failed e
      | exception Engine.Errors.Crash msg -> Oracle.Crashed msg
    in
    trace_stmt stmt outcome t0;
    match dispatch (Oracle.Statement (stmt, outcome)) with
    | Some (kind, message) -> record kind message
    | None -> None
  in
  let rec exec_all = function
    | [] -> None
    | stmt :: rest -> (
        match exec stmt with Some r -> Some r | None -> exec_all rest)
  in
  let gen_cfg =
    Gen_db.Config.(
      make config.dialect |> with_rng rng
      |> with_table_count config.table_count
      |> with_max_rows config.max_rows
      |> with_extra_statements config.extra_statements)
  in
  (* ---- step 1: random database ---- *)
  let generation () =
    Telemetry.Span.timed tele Telemetry.Phase.Gen_db @@ fun () ->
    match exec_all (Gen_db.initial_statements gen_cfg) with
    | Some r -> Some r
    | None -> (
        (* initial data *)
        let fills =
          Schema_info.tables_of_session session
          |> List.concat_map (fun (ti : Schema_info.table_info) ->
                 List.init
                   (Rng.int_in rng 1 (max 1 (config.max_rows / 2)))
                   (fun _ ->
                     Gen_db.insert_stmt
                       ~existing_rows:
                         (Schema_info.rows_of_table session
                            ti.Schema_info.ti_name)
                       gen_cfg ti))
        in
        match exec_all fills with
        | Some r -> Some r
        | None ->
            let rec extra n =
              if n <= 0 then None
              else
                match exec_all (Gen_db.random_statements gen_cfg session) with
                | Some r -> Some r
                | None -> extra (n - 1)
            in
            let r = extra config.extra_statements in
            (match r with
            | Some _ -> r
            | None -> exec_all (Gen_db.fill_statements gen_cfg session)))
  in
  let round () =
    match generation () with
    | Some r -> Some r
    | None -> (
        phase := "database_ready";
        (* whole-database oracles (e.g. metamorphic partition checks) *)
        match dispatch Oracle.Database_ready with
        | Some (kind, message) -> record kind message
        | None ->
            phase := "containment";
            (* ---- steps 2-7 ---- *)
            (* the containment phase runs only SELECTs, so the tables and
               views are read once for all of the round's pivots *)
            let tables, views =
              Telemetry.Span.timed tele Telemetry.Phase.Pivot @@ fun () ->
              ( Corpus.sources session,
                Schema_info.view_pivot_sources session
                |> List.filter (fun (_, rows) -> rows <> []) )
            in
            (* views join the candidate pool occasionally (paper
               Sec. 4.2) *)
            let pivot_sources () =
              if views <> [] && Rng.chance rng 0.25 then tables @ views
              else tables
            in
            let prepare rows =
              Gen_query.prepare ~dialect:config.dialect
                ~case_sensitive_like:
                  (Engine.Options.case_sensitive_like
                     (Engine.Session.options session))
                rows
            in
            let rec pivots k =
              if k <= 0 then None
              else
                match pivot_sources () with
                | [] -> None
                | sources -> (
                    stats :=
                      { !stats with Stats.pivots = (!stats).Stats.pivots + 1 };
                    (* step 2: one random row per chosen table/view *)
                    (* Guidance is strictly additive: blind iterations draw
                       from the main stream exactly as an unguided round
                       would, so every blind detection is preserved.  On
                       top, each blind query gains an extra rectified
                       conjunct rotated through cold predicate kinds, and —
                       once shape guidance has warmed up — the pivot gains
                       one extra query aimed at a cold clause combination,
                       both drawn entirely from the private stream. *)
                    let shape =
                      match guided_rng with
                      | Some grng ->
                          Gen_bias.plan ~rng:grng ~dialect:config.dialect !bias
                      | None -> None
                    in
                    let pred =
                      match (guided_rng, shape) with
                      | Some grng, None ->
                          Gen_bias.cold_pred ~rng:grng
                            ~dialect:config.dialect !bias
                          |> Option.map (fun k -> (grng, k))
                      | _ -> None
                    in
                    let pivot, prepared =
                      Telemetry.Span.timed tele Telemetry.Phase.Pivot
                      @@ fun () ->
                      let pivot = Corpus.pick_pivot rng sources in
                      (pivot, prepare pivot)
                    in
                    (* the guided extra query picks its own pivot from the
                       private stream so the shape's join arity can be
                       realized regardless of the blind pivot's *)
                    let guided_prepared =
                      match (guided_rng, shape) with
                      | Some grng, Some s ->
                          let k =
                            min
                              (max 1 s.Gen_bias.sh_tables)
                              (min 2 (List.length sources))
                          in
                          Rng.sample grng k sources
                          |> List.map
                               (fun ((ti : Schema_info.table_info), rows) ->
                                 (ti, Rng.pick grng rows))
                          |> prepare
                      | _ -> prepared
                    in
                    if Trace.enabled recorder then
                      List.iter
                        (fun ((ti : Schema_info.table_info), row) ->
                          Trace.record recorder
                            (Trace.Event.Pivot
                               {
                                 source = ti.Schema_info.ti_name;
                                 row =
                                   Array.to_list
                                     (Array.map Value.to_sql_literal row);
                               }))
                        pivot;
                    let rec queries q =
                      if q <= 0 then None
                      else
                        (* iterations above queries_per_pivot are the guided
                           extra query: every draw comes from the private
                           stream, so the blind iterations stay
                           byte-identical to an unguided round *)
                        let extra = q > config.queries_per_pivot in
                        let qrng =
                          if extra then Option.get guided_rng else rng
                        in
                        let qshape = if extra then shape else None in
                        let qpivot = if extra then guided_prepared else prepared in
                        (* Section 7 extension: occasionally rectify to FALSE
                           and require the pivot row to be absent.  Restricted
                           to single-table pivots: with joins, a LEFT JOIN's
                           NULL-extended rows could coincide with the expected
                           tuple. *)
                        let negative =
                          (not extra)
                          && config.check_non_containment
                          && List.length pivot = 1
                          && Rng.chance rng 0.2
                        in
                        (* no pred conjunct on negative queries: there it
                           would rectify to FALSE, and an extra FALSE
                           conjunct can only shrink the result set — i.e.
                           it could mask a non-containment violation the
                           blind query would have caught *)
                        let qpred =
                          if extra || negative then None else pred
                        in
                        let target = if negative then Tvl.False else Tvl.True in
                        (* steps 3-5 with retries on oracle-uncomputable
                           exprs *)
                        let rec attempt tries =
                          if tries <= 0 then None
                          else
                            match
                              Gen_query.synthesize ~rectify:config.rectify
                                ~target ~telemetry:tele ?shape:qshape
                                ?pred:qpred ~rng:qrng
                                ~pivot:qpivot
                                ~max_depth:config.max_depth
                                  (* expression targets are unsound for the
                                     negative variant: a different row may
                                     project to the same value *)
                                ~check_expressions:
                                  (config.check_expressions && not negative)
                                ()
                            with
                            | Ok t ->
                                stats :=
                                  List.fold_left Stats.bump_truth !stats
                                    t.Gen_query.raw_truths;
                                Some t
                            | Error _ ->
                                stats :=
                                  {
                                    !stats with
                                    Stats.interp_failures =
                                      (!stats).Stats.interp_failures + 1;
                                  };
                                Telemetry.inc tele "pqs_rectify_retries_total";
                                attempt (tries - 1)
                        in
                        match attempt 5 with
                        | None -> queries (q - 1)
                        | Some t -> (
                            (* clause-combination frontier: count the
                               synthesized query's points for the round's
                               stats; when guided, the bias state steering
                               later shape plans takes them at once *)
                            Gen_bias.count points t.Gen_query.query;
                            if config.guided then
                              bias :=
                                Frontier.union !bias
                                  (Frontier.of_points ~seed:db_seed
                                     (Gen_bias.fingerprint t.Gen_query.query));
                            if Trace.enabled recorder then
                              List.iter
                                (fun (raw, verdict, rectified) ->
                                  Trace.record recorder
                                    (Trace.Event.Expr
                                       { raw; verdict; rectified }))
                                (List.rev t.Gen_query.provenance);
                            stats :=
                              {
                                !stats with
                                Stats.queries = (!stats).Stats.queries + 1;
                              };
                            if negative then
                              stats :=
                                {
                                  !stats with
                                  Stats.negative_checks =
                                    (!stats).Stats.negative_checks + 1;
                                };
                            let stmt = Gen_query.containment_stmt t in
                            log := stmt :: !log;
                            stats :=
                              {
                                !stats with
                                Stats.statements =
                                  (!stats).Stats.statements + 1;
                              };
                            let drop_and_continue () =
                              log := List.tl !log;
                              queries (q - 1)
                            in
                            (* the span must cover only the engine call, not
                               the recursive continuation below *)
                            let ct0 =
                              if Trace.enabled recorder then
                                Telemetry.Clock.now_ns_int ()
                              else 0
                            in
                            let outcome =
                              Telemetry.Span.timed tele Telemetry.Phase.Containment
                                (fun () ->
                                  match
                                    Engine.Session.execute session stmt
                                  with
                                  | r -> `Res r
                                  | exception Engine.Errors.Crash msg ->
                                      `Crash msg)
                            in
                            trace_stmt stmt
                              (match outcome with
                              | `Res (Ok r) -> Oracle.Succeeded r
                              | `Res (Error e) -> Oracle.Failed e
                              | `Crash msg -> Oracle.Crashed msg)
                              ct0;
                            match outcome with
                            | `Res (Ok (Engine.Session.Rows rs)) -> (
                                let pivot_found =
                                  rs.Engine.Executor.rs_rows <> []
                                in
                                if plan_diff_enabled then
                                  stats :=
                                    {
                                      !stats with
                                      Stats.plan_checks =
                                        (!stats).Stats.plan_checks + 1;
                                    };
                                if const_opt_enabled then
                                  stats :=
                                    {
                                      !stats with
                                      Stats.const_checks =
                                        (!stats).Stats.const_checks + 1;
                                    };
                                match
                                  dispatch
                                    (Oracle.Containment_check
                                       {
                                         Oracle.check_stmt = stmt;
                                         negative;
                                         pivot_found;
                                         check_pivot = Gen_query.rows qpivot;
                                       })
                                with
                                | Some (kind, message) ->
                                    if
                                      confirm_report config kind
                                        (List.rev !log)
                                    then
                                      let expected =
                                        "("
                                        ^ String.concat ", "
                                            (List.map Value.to_sql_literal
                                               t.Gen_query.expected_row)
                                        ^ ")"
                                      in
                                      let actual =
                                        String.concat "; "
                                          (List.map
                                             (fun r ->
                                               "("
                                               ^ String.concat ", "
                                                   (Array.to_list
                                                      (Array.map
                                                         Value.to_sql_literal r))
                                               ^ ")")
                                             rs.Engine.Executor.rs_rows)
                                      in
                                      record ~expected ~actual kind message
                                    else begin
                                      stats :=
                                        {
                                          !stats with
                                          Stats.false_positives =
                                            (!stats).Stats.false_positives + 1;
                                        };
                                      (* drop the offending query from the
                                         log *)
                                      drop_and_continue ()
                                    end
                                | None ->
                                    (* check passed: drop it from the log to
                                       keep reproduction scripts small *)
                                    drop_and_continue ())
                            | `Res (Ok _) -> drop_and_continue ()
                            | `Res (Error e) -> (
                                match
                                  dispatch
                                    (Oracle.Statement (stmt, Oracle.Failed e))
                                with
                                | Some (kind, message) -> record kind message
                                | None -> drop_and_continue ())
                            | `Crash msg -> (
                                match
                                  dispatch
                                    (Oracle.Statement
                                       (stmt, Oracle.Crashed msg))
                                with
                                | Some (kind, message) -> record kind message
                                | None -> drop_and_continue ()))
                    in
                    match
                      queries
                        (config.queries_per_pivot
                        + (match shape with Some _ -> 1 | None -> 0))
                    with
                    | Some r -> Some r
                    | None -> pivots (k - 1))
            in
            pivots config.pivots_per_db)
  in
  let fired = round () in
  stats :=
    {
      !stats with
      Stats.frontier =
        Frontier.union (!stats).Stats.frontier
          (Gen_bias.tally_frontier ~seed:db_seed points);
    };
  (* --trace-sample N: keep the full trace of every Nth healthy round, so
     there is flight-recorder data to compare bundles against *)
  (match (fired, config.bundle_dir) with
  | None, Some dir
    when config.trace_sample > 0
         && db_seed mod config.trace_sample = 0
         && Trace.enabled recorder -> (
      try
        Trace.mkdir_p dir;
        Trace.write_text
          (Filename.concat dir
             (Printf.sprintf "round-%06d-trace.json" db_seed))
          (Trace.to_json recorder)
      with Sys_error _ | Unix.Unix_error (_, _, _) -> ())
  | _ -> ());
  (* planner-path frontier points: whatever access paths this round drove
     the coverage instrument through *)
  (match config.coverage with
  | Some cov ->
      let deltas =
        List.concat_map
          (fun (p, before) ->
            let d = Engine.Coverage.hit_count cov p - before in
            List.init (max 0 d) (fun _ -> p))
          plan_base
      in
      if deltas <> [] then begin
        let f = Frontier.of_points ~seed:db_seed deltas in
        stats :=
          {
            !stats with
            Stats.frontier = Frontier.union (!stats).Stats.frontier f;
          };
        if config.guided then bias := Frontier.union !bias f
      end
  | None -> ());
  (* volume counters are bulk-incremented from the round's [Stats] rather
     than one [inc] per statement: same exported totals, no per-statement
     registry traffic on the hot path *)
  let s = !stats in
  Telemetry.inc tele ~by:s.Stats.statements "pqs_statements_total";
  Telemetry.inc tele ~by:s.Stats.queries "pqs_queries_total";
  Telemetry.inc tele ~by:s.Stats.pivots "pqs_pivots_total";
  s

let run ?(stop_on_first = false) ~max_queries config =
  (* databases are also capped so rounds that never reach the query stage
     (e.g. generation keeps erroring) terminate *)
  let max_databases = max 50 max_queries in
  let recorder = recorder_for config in
  (* one bias ref for the whole run: guided rounds learn from everything
     the earlier rounds exercised *)
  let bias = ref Frontier.empty in
  let rec go acc i =
    if
      acc.Stats.queries >= max_queries || acc.Stats.databases >= max_databases
    then acc
    else
      let round =
        run_round ~recorder ~bias config
          ~db_seed:(config.Config.seed + (i * 7919))
      in
      let acc = Stats.merge acc round in
      if stop_on_first && round.Stats.reports <> [] then acc else go acc (i + 1)
  in
  go Stats.empty 0

let hunt config ~max_queries =
  let stats = run ~stop_on_first:true ~max_queries config in
  match stats.Stats.reports with r :: _ -> Some r | [] -> None
