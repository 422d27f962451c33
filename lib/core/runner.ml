open Sqlval
module A = Sqlast.Ast

module Config = struct
  type t = {
    dialect : Dialect.t;
    bugs : Engine.Bug.set;
    seed : int;
    max_rows : int;
    extra_statements : int;
    pivots_per_db : int;
    queries_per_pivot : int;
    check_expressions : bool;
    verify_ground_truth : bool;
    rectify : bool;
    coverage : Engine.Coverage.t option;
    oracles : Oracle.t list;
    telemetry : Telemetry.t;
    trace : bool;
    bundle_dir : string option;
    trace_sample : int;
    guided : bool;
  }

  let make ?(bugs = Engine.Bug.empty_set) ?(seed = 1) ?(max_rows = 6)
      ?(extra_statements = 8) ?(pivots_per_db = 4)
      ?(queries_per_pivot = 6) ?(check_expressions = true)
      ?(verify_ground_truth = true) ?(rectify = true) ?coverage
      ?(oracles = Oracle.defaults) ?(telemetry = Telemetry.noop)
      ?(trace = false) ?bundle_dir ?(trace_sample = 0) ?(guided = false)
      dialect =
    {
      dialect;
      bugs;
      seed;
      max_rows;
      extra_statements;
      pivots_per_db;
      queries_per_pivot;
      check_expressions;
      verify_ground_truth;
      rectify;
      coverage;
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

(* expression depth bound (paper Algorithm 1) *)
let max_depth = 4

(* flight recorder: enabled when tracing is requested or when repro
   bundles / trace samples may need to be written; otherwise the noop
   sink (one branch per record) rides along for free *)
let recorder_for (config : Config.t) =
  let open Config in
  if config.trace || config.bundle_dir <> None || config.trace_sample > 0 then
    Trace.create ()
  else Trace.noop

(* One round's state: what every stage reads, and the counters [finish]
   turns into the round's [Stats.t]. *)
type round = {
  config : Config.t;
  db_seed : int;
  session : Engine.Session.t;
  ctx : Oracle.context;
  rng : Rng.t;
  guided_rng : Rng.t option;
  bias : Frontier.t ref;  (** the guided bias state, across rounds *)
  recorder : Trace.t;
  points : Gen_bias.tally;  (** the round's clause-combination points *)
  mutable log : A.stmt list;  (** the statements run so far, newest first *)
  mutable pivots : int;
  mutable queries : int;
  mutable statements : int;
  mutable interp_failures : int;
  mutable false_positives : int;
  mutable negative_checks : int;
  mutable row_checks : int;  (** containment queries that returned rows *)
  mutable truths : Tvl.t list;  (** raw truth values before rectification *)
}

(* [found |? next]: the round stops at its first report *)
let ( |? ) found next = match found with Some _ -> found | None -> next ()
let tele r = r.config.Config.telemetry
let dispatch r event = Oracle.first_report r.config.Config.oracles r.ctx event

(* turn the first report of the round into a [Bug_report.t]; [phase] is
   the funnel phase it fired in, stamped into the report and its repro
   bundle so triage starts from there *)
let record r ~phase ?expected ?actual kind message =
  let config = r.config in
  let stmts = List.rev r.log in
  Trace.record r.recorder
    (Trace.Event.Oracle_fired
       { oracle = Bug_report.oracle_token kind; message; phase });
  let bundle =
    match config.Config.bundle_dir with
    | Some dir when Trace.enabled r.recorder -> (
        let plan =
          match r.log with
          | A.Select_stmt q :: _ -> Engine.Session.plan_lines r.session q
          | _ -> []
        in
        try
          Some
            (Trace.Bundle.write ~dir
               {
                 Trace.Bundle.b_seed = r.db_seed;
                 b_dialect = config.Config.dialect;
                 b_oracle = Bug_report.oracle_token kind;
                 b_message = message;
                 b_phase = phase;
                 b_bugs =
                   List.map Engine.Bug.show
                     (Engine.Bug.to_list config.Config.bugs);
                 b_statements = stmts;
                 b_expected = expected;
                 b_actual = actual;
                 b_plan = plan;
                 b_trace_json = Trace.to_json r.recorder;
               })
        with Sys_error _ | Unix.Unix_error (_, _, _) -> None)
    | _ -> None
  in
  Some
    {
      Bug_report.dialect = config.Config.dialect;
      oracle = kind;
      message;
      statements = stmts;
      reduced = None;
      seed = r.db_seed;
      phase;
      bundle;
    }

(* The one statement path: log and count the statement, run it (under
   [span], which covers only the engine call), and mirror the outcome into
   a flight-recorder event. *)
let execute ?span r stmt =
  r.log <- stmt :: r.log;
  r.statements <- r.statements + 1;
  let traced = Trace.enabled r.recorder in
  let t0 = if traced then Telemetry.Clock.now_ns_int () else 0 in
  let run () =
    match Engine.Session.execute r.session stmt with
    | Ok res -> Oracle.Succeeded res
    | Error e -> Oracle.Failed e
    | exception Engine.Errors.Crash msg -> Oracle.Crashed msg
  in
  let outcome =
    match span with
    | None -> run ()
    | Some phase -> Telemetry.Span.timed (tele r) phase run
  in
  if traced then begin
    let now = Telemetry.Clock.now_ns_int () in
    let oc =
      match outcome with
      | Oracle.Succeeded (Engine.Session.Rows rs) ->
          Trace.Event.Rows (List.length rs.Engine.Executor.rs_rows)
      | Oracle.Succeeded (Engine.Session.Affected n) -> Trace.Event.Affected n
      | Oracle.Succeeded Engine.Session.Done -> Trace.Event.Done
      | Oracle.Failed e -> Trace.Event.Error e.Engine.Errors.message
      | Oracle.Crashed msg -> Trace.Event.Crashed msg
    in
    Trace.record_at r.recorder ~now_ns:now
      (Trace.Event.Statement { stmt; outcome = oc; dur_ns = now - t0 })
  end;
  outcome

(* the oracles' verdict on an event, as a report stamped with [phase] *)
let report r ~phase event =
  match dispatch r event with
  | Some (kind, message) -> record r ~phase kind message
  | None -> None

let rec exec_all r = function
  | [] -> None
  | stmt :: rest ->
      report r ~phase:"gen_db" (Oracle.Statement (stmt, execute r stmt))
      |? fun () -> exec_all r rest

(* ---- step 1: random database ---- *)
let generate r =
  let config = r.config in
  let gen_cfg =
    Gen_db.Config.(
      make config.Config.dialect |> with_rng r.rng
      |> with_max_rows config.Config.max_rows
      |> with_extra_statements config.Config.extra_statements)
  in
  Telemetry.Span.timed (tele r) Telemetry.Phase.Gen_db @@ fun () ->
  exec_all r (Gen_db.initial_statements gen_cfg) |? fun () ->
  (* initial data *)
  let fills =
    Schema_info.tables_of_session r.session
    |> List.concat_map (fun (ti : Schema_info.table_info) ->
           List.init
             (Rng.int_in r.rng 1 (max 1 (config.Config.max_rows / 2)))
             (fun _ ->
               Gen_db.insert_stmt
                 ~existing_rows:
                   (Schema_info.rows_of_table r.session ti.Schema_info.ti_name)
                 gen_cfg ti))
  in
  exec_all r fills |? fun () ->
  let rec extra n =
    if n <= 0 then exec_all r (Gen_db.fill_statements gen_cfg r.session)
    else
      exec_all r (Gen_db.random_statements gen_cfg r.session) |? fun () ->
      extra (n - 1)
  in
  extra config.Config.extra_statements

(* whole-database oracles (e.g. metamorphic partition checks) *)
let database_ready r = report r ~phase:"database_ready" Oracle.Database_ready

let literals row =
  "(" ^ String.concat ", " (List.map Value.to_sql_literal row) ^ ")"

(* ---- steps 3-7 for one query: synthesize and rectify (retrying
   expressions the interpreter cannot evaluate), run the query, check
   containment ---- *)
let check r ~rng ?shape ?pred ~negative prepared =
  let config = r.config in
  let rec attempt tries =
    if tries <= 0 then None
    else
      match
        Gen_query.synthesize ~rectify:config.Config.rectify
          ~target:(if negative then Tvl.False else Tvl.True)
          ~telemetry:(tele r) ?shape ?pred ~rng ~pivot:prepared
          ~max_depth
            (* expression targets are unsound for the negative variant: a
               different row may project to the same value *)
          ~check_expressions:(config.Config.check_expressions && not negative)
          ()
      with
      | Ok t ->
          r.truths <- t.Gen_query.raw_truths @ r.truths;
          Some t
      | Error _ ->
          r.interp_failures <- r.interp_failures + 1;
          Telemetry.inc (tele r) "pqs_rectify_retries_total";
          attempt (tries - 1)
  in
  Option.bind (attempt 5) @@ fun t ->
  (* clause-combination frontier: count the synthesized query's points
     for the round's stats; when guided, the bias state steering later
     shape plans takes them at once *)
  Gen_bias.count r.points t.Gen_query.query;
  if config.Config.guided then
    r.bias :=
      Frontier.union !(r.bias)
        (Frontier.of_points ~seed:r.db_seed
           (Gen_bias.fingerprint t.Gen_query.query));
  if Trace.enabled r.recorder then
    List.iter
      (fun (raw, verdict, rectified) ->
        Trace.record r.recorder
          (Trace.Event.Expr { raw; verdict; rectified }))
      (List.rev t.Gen_query.provenance);
  r.queries <- r.queries + 1;
  if negative then r.negative_checks <- r.negative_checks + 1;
  let stmt = Gen_query.containment_stmt t in
  let found =
    match execute ~span:Telemetry.Phase.Containment r stmt with
    | Oracle.Succeeded (Engine.Session.Rows rs) -> (
        r.row_checks <- r.row_checks + 1;
        let rows = rs.Engine.Executor.rs_rows in
        match
          dispatch r
            (Oracle.Containment_check
               {
                 Oracle.check_stmt = stmt;
                 negative;
                 pivot_found = rows <> [];
                 check_pivot = Gen_query.rows prepared;
               })
        with
        | None -> None
        | Some (kind, message) ->
            if
              (not config.Config.verify_ground_truth)
              || Reducer.correct_engine_agrees ~dialect:config.Config.dialect
                   ~oracle:kind (List.rev r.log)
            then
              record r ~phase:"containment"
                ~expected:(literals t.Gen_query.expected_row)
                ~actual:
                  (String.concat "; "
                     (List.map (fun row -> literals (Array.to_list row)) rows))
                kind message
            else begin
              r.false_positives <- r.false_positives + 1;
              None
            end)
    | Oracle.Succeeded _ -> None
    | outcome ->
        report r ~phase:"containment" (Oracle.Statement (stmt, outcome))
  in
  (* a passing (or unconfirmed) check leaves the log, to keep
     reproduction scripts small *)
  if Option.is_none found then r.log <- List.tl r.log;
  found

(* ---- step 2: one pivot and its queries ---- *)
let pivot r sources =
  let config = r.config in
  let dialect = config.Config.dialect in
  r.pivots <- r.pivots + 1;
  let prepare rows =
    Gen_query.prepare ~dialect
      ~case_sensitive_like:
        (Engine.Options.case_sensitive_like (Engine.Session.options r.session))
      rows
  in
  (* Guidance is strictly additive: blind iterations draw from the main
     stream exactly as an unguided round would, so every blind detection
     is preserved.  On top, each blind query gains an extra rectified
     conjunct rotated through cold predicate kinds, and — once shape
     guidance has warmed up — the pivot gains one extra query aimed at a
     cold clause combination, both drawn entirely from the private
     stream. *)
  let shape =
    match r.guided_rng with
    | Some grng -> Gen_bias.plan ~rng:grng ~dialect !(r.bias)
    | None -> None
  in
  let pred =
    match (r.guided_rng, shape) with
    | Some grng, None ->
        Gen_bias.cold_pred ~rng:grng ~dialect !(r.bias)
        |> Option.map (fun k -> (grng, k))
    | _ -> None
  in
  (* one random row per chosen table/view *)
  let rows, prepared =
    Telemetry.Span.timed (tele r) Telemetry.Phase.Pivot @@ fun () ->
    let rows = Corpus.pick_pivot r.rng sources in
    (rows, prepare rows)
  in
  if Trace.enabled r.recorder then
    List.iter
      (fun ((ti : Schema_info.table_info), row) ->
        Trace.record r.recorder
          (Trace.Event.Pivot
             {
               source = ti.Schema_info.ti_name;
               row = Array.to_list (Array.map Value.to_sql_literal row);
             }))
      rows;
  (* the guided extra query comes first and picks its own pivot from the
     private stream, so the shape's join arity can be realized regardless
     of the blind pivot's *)
  let guided =
    match (r.guided_rng, shape) with
    | Some grng, Some s ->
        let k =
          min (max 1 s.Gen_bias.sh_tables) (min 2 (List.length sources))
        in
        Rng.sample grng k sources
        |> List.map (fun ((ti : Schema_info.table_info), rs) ->
               (ti, Rng.pick grng rs))
        |> prepare
        |> check r ~rng:grng ~shape:s ~negative:false
    | _ -> None
  in
  let rec blind q =
    if q <= 0 then None
    else
      (* Section 7 extension: occasionally rectify to FALSE and require the
         pivot row to be absent.  Restricted to single-table pivots: with
         joins, a LEFT JOIN's NULL-extended rows could coincide with the
         expected tuple.  No pred conjunct there: it would rectify to
         FALSE, and an extra FALSE conjunct can only shrink the result set,
         which could mask a non-containment violation the blind query would
         have caught. *)
      let negative = List.length rows = 1 && Rng.chance r.rng 0.2 in
      check r ~rng:r.rng ?pred:(if negative then None else pred) ~negative
        prepared
      |? fun () -> blind (q - 1)
  in
  guided |? fun () -> blind config.Config.queries_per_pivot

(* ---- steps 2-7: the containment phase runs only SELECTs, so the tables
   and views are read once for all of the round's pivots ---- *)
let containment r =
  let tables, views =
    Telemetry.Span.timed (tele r) Telemetry.Phase.Pivot @@ fun () ->
    ( Corpus.sources r.session,
      Schema_info.view_pivot_sources r.session
      |> List.filter (fun (_, rows) -> rows <> []) )
  in
  let rec pivots k =
    if k <= 0 then None
    else
      (* views join the candidate pool occasionally (paper Sec. 4.2) *)
      match
        if views <> [] && Rng.chance r.rng 0.25 then tables @ views
        else tables
      with
      | [] -> None
      | sources -> pivot r sources |? fun () -> pivots (k - 1)
  in
  pivots r.config.Config.pivots_per_db

(* the round's [Stats.t], built once from its counters and its report *)
let finish r ~plan_base fired =
  let config = r.config in
  let db_seed = r.db_seed in
  (* --trace-sample N: keep the full trace of every Nth healthy round, so
     there is flight-recorder data to compare bundles against *)
  (match (fired, config.Config.bundle_dir) with
  | None, Some dir
    when config.Config.trace_sample > 0
         && db_seed mod config.Config.trace_sample = 0
         && Trace.enabled r.recorder -> (
      try
        Trace.mkdir_p dir;
        Trace.write_text
          (Filename.concat dir (Printf.sprintf "round-%06d-trace.json" db_seed))
          (Trace.to_json r.recorder)
      with Sys_error _ | Unix.Unix_error (_, _, _) -> ())
  | _ -> ());
  let frontier = Gen_bias.tally_frontier ~seed:db_seed r.points in
  (* planner-path frontier points: whatever access paths this round drove
     the coverage instrument through *)
  let frontier =
    match config.Config.coverage with
    | None -> frontier
    | Some cov ->
        let f =
          Frontier.of_points ~seed:db_seed
            (List.concat_map
               (fun (p, before) ->
                 List.init (max 0 (Engine.Coverage.hit_count cov p - before))
                   (fun _ -> p))
               plan_base)
        in
        if config.Config.guided then r.bias := Frontier.union !(r.bias) f;
        Frontier.union frontier f
  in
  (* a round ends at its first report, so it diverged at most once *)
  let diverged kind =
    match fired with
    | Some rep when rep.Bug_report.oracle = kind -> 1
    | _ -> 0
  in
  (* every containment query that returned rows reached the re-executing
     oracles, when they are configured *)
  let oracles = List.map Oracle.name config.Config.oracles in
  let s =
    {
      Stats.empty with
      databases = 1;
      pivots = r.pivots;
      queries = r.queries;
      statements = r.statements;
      interp_failures = r.interp_failures;
      false_positives = r.false_positives;
      reports = Option.to_list fired;
      truth_values =
        List.map
          (fun tv -> (tv, List.length (List.filter (Tvl.equal tv) r.truths)))
          [ Tvl.True; Tvl.False; Tvl.Unknown ];
      negative_checks = r.negative_checks;
      plan_checks = (if List.mem "plan_diff" oracles then r.row_checks else 0);
      plan_divergences = diverged Bug_report.Plan_diff;
      const_checks = (if List.mem "const_opt" oracles then r.row_checks else 0);
      const_divergences = diverged Bug_report.Const_opt;
      frontier;
    }
  in
  (* volume counters are bulk-incremented from the round's [Stats] rather
     than one [inc] per statement: same exported totals, no per-statement
     registry traffic on the hot path *)
  Telemetry.inc (tele r) ~by:s.Stats.statements "pqs_statements_total";
  Telemetry.inc (tele r) ~by:s.Stats.queries "pqs_queries_total";
  Telemetry.inc (tele r) ~by:s.Stats.pivots "pqs_pivots_total";
  s

let run_round ?recorder ?bias (config : Config.t) ~db_seed : Stats.t =
  let open Config in
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
  let recorder =
    match recorder with Some r -> r | None -> recorder_for config
  in
  Trace.begin_round recorder ~seed:db_seed ~dialect:config.dialect;
  let session =
    Engine.Session.create ~seed:db_seed ~bugs:config.bugs
      ?coverage:config.coverage ~telemetry:config.telemetry ~recorder
      config.dialect
  in
  let r =
    {
      config;
      db_seed;
      session;
      ctx =
        {
          Oracle.ctx_dialect = config.dialect;
          ctx_session = session;
          ctx_db_seed = db_seed;
          (* a private stream: oracles must not perturb synthesis *)
          ctx_rng = Rng.make ~seed:(db_seed + 104651);
          ctx_telemetry = config.telemetry;
        };
      rng = Rng.make ~seed:db_seed;
      (* shape planning draws from a private stream so that guidance leaves
         the synthesis stream untouched: a guided and a blind round diverge
         only through the shape overrides themselves *)
      guided_rng =
        (if config.guided then Some (Rng.make ~seed:(db_seed + 7757))
         else None);
      bias = (match bias with Some b -> b | None -> ref Frontier.empty);
      recorder;
      points = Gen_bias.tally ();
      log = [];
      pivots = 0;
      queries = 0;
      statements = 0;
      interp_failures = 0;
      false_positives = 0;
      negative_checks = 0;
      row_checks = 0;
      truths = [];
    }
  in
  finish r ~plan_base
    (generate r |? fun () -> database_ready r |? fun () -> containment r)

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
