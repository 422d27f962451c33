(* Benchmark and evaluation harness.

   `dune exec bench/main.exe` regenerates every table and figure of the
   paper's evaluation (paper-vs-measured side by side) and then runs the
   Bechamel micro-benchmarks.  Individual targets:

     main.exe [quick|full] [table1 table2 table3 table4 figure2 figure3
                            perf baselines ablations metamorphic micro]

   `quick` (default) uses the full detection budgets but smaller
   coverage/throughput/ablation budgets (~5 min total); `full` is the
   evaluation-grade configuration recorded in EXPERIMENTS.md (~10 min). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                     *)

let dialects = Sqlval.Dialect.all

let bench_btree =
  let module T = Storage.Btree.Make (struct
    type key = int

    let compare = Int.compare
  end) in
  Test.make ~name:"btree insert+remove x100"
    (Staged.stage (fun () ->
         let t = T.create () in
         for i = 0 to 99 do
           T.insert t (i * 7 mod 50) i
         done;
         for i = 0 to 49 do
           ignore (T.remove ~veq:Int.equal t (i * 7 mod 50) i)
         done))

let eval_fixture dialect =
  let session = Engine.Session.create dialect in
  let stmts =
    [
      "CREATE TABLE t0(c0 INT, c1 TEXT)";
      "INSERT INTO t0(c0, c1) VALUES (1, 'a'), (2, 'b'), (3, 'c')";
    ]
  in
  List.iter
    (fun sql ->
      match Sqlparse.Parser.parse_stmt sql with
      | Ok stmt -> ignore (Engine.Session.execute session stmt)
      | Error _ -> ())
    stmts;
  session

let bench_query dialect =
  let session = eval_fixture dialect in
  let query =
    match
      Sqlparse.Parser.parse_stmt
        "SELECT c0, c1 FROM t0 WHERE (c0 > 1) AND (c1 <> 'zz')"
    with
    | Ok s -> s
    | Error _ -> assert false
  in
  Test.make
    ~name:(Printf.sprintf "select/%s" (Sqlval.Dialect.name dialect))
    (Staged.stage (fun () -> ignore (Engine.Session.execute session query)))

let bench_parse =
  let sql =
    "SELECT DISTINCT t0.c0, t0.c1 FROM t0, t1 WHERE ((t0.c0 IS NOT 1) AND \
     (t1.c0 BETWEEN 2 AND 30)) ORDER BY t0.c0 DESC LIMIT 10"
  in
  Test.make ~name:"parse select"
    (Staged.stage (fun () -> ignore (Sqlparse.Parser.parse_stmt sql)))

let bench_synthesize dialect =
  let session = Engine.Session.create dialect in
  let cfg = Pqs.Gen_db.Config.make ~seed:3 dialect in
  List.iter
    (fun s -> ignore (Engine.Session.execute session s))
    (Pqs.Gen_db.initial_statements cfg);
  List.iter
    (fun s -> ignore (Engine.Session.execute session s))
    (Pqs.Gen_db.fill_statements cfg session);
  let tables = Pqs.Schema_info.tables_of_session session in
  let rng = Pqs.Rng.make ~seed:3 in
  let pivot =
    List.filter_map
      (fun (ti : Pqs.Schema_info.table_info) ->
        match
          Pqs.Schema_info.rows_of_table session ti.Pqs.Schema_info.ti_name
        with
        | row :: _ -> Some (ti, row)
        | [] -> None)
      tables
  in
  let pivot =
    Pqs.Gen_query.prepare ~dialect ~case_sensitive_like:false pivot
  in
  Test.make
    ~name:(Printf.sprintf "pqs synthesize+check/%s" (Sqlval.Dialect.name dialect))
    (Staged.stage (fun () ->
         match
           Pqs.Gen_query.synthesize ~rng ~pivot ~max_depth:4
             ~check_expressions:true ()
         with
         | Ok t ->
             ignore
               (Engine.Session.execute session (Pqs.Gen_query.containment_stmt t))
         | Error _ -> ()))

let run_micro () =
  Printf.printf "\n== Micro-benchmarks (Bechamel, ns/run) ==\n%!";
  let tests =
    Test.make_grouped ~name:"micro"
      ([ bench_btree; bench_parse ]
      @ List.map bench_query dialects
      @ List.map bench_synthesize dialects)
  in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.3) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |])
      Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Printf.sprintf "%.0f" e
        | _ -> "?"
      in
      rows := (name, ns) :: !rows)
    results;
  List.sort compare !rows
  |> List.iter (fun (name, ns) -> Printf.printf "  %-42s %12s ns/run\n" name ns)

(* ------------------------------------------------------------------ *)
(* Experiment harness                                                   *)

type budgets = {
  detection_budget : int;
  detection_seeds : int list;
  coverage_queries : int;
  throughput_queries : int;
  ablation_queries : int;
  fuzzer_budget : int;
  difftest_budget : int;
}

(* detection budgets match full mode: hunts terminate at the first finding,
   so large budgets only cost time for genuinely missed bugs *)
let quick =
  {
    detection_budget = 30000;
    detection_seeds = [ 7; 77; 777 ];
    coverage_queries = 1500;
    throughput_queries = 1500;
    ablation_queries = 1000;
    fuzzer_budget = 3000;
    difftest_budget = 1500;
  }

let full =
  {
    detection_budget = 30000;
    detection_seeds = [ 7; 77; 777 ];
    coverage_queries = 5000;
    throughput_queries = 5000;
    ablation_queries = 2000;
    fuzzer_budget = 8000;
    difftest_budget = 3000;
  }

let detections = ref None

let get_detections b =
  match !detections with
  | Some d -> d
  | None ->
      Printf.printf
        "\nHunting all %d catalog bugs (budget %d queries x %d seeds)...\n%!"
        (List.length Engine.Bug.all)
        b.detection_budget
        (List.length b.detection_seeds);
      let d =
        Experiments.Detection.run_all ~budget:b.detection_budget
          ~seeds:b.detection_seeds ~progress:true ()
      in
      detections := Some d;
      d

let run_target b = function
  | "table1" -> Experiments.Table1.run ()
  | "table2" -> Experiments.Table2.run (get_detections b)
  | "table3" -> Experiments.Table3.run (get_detections b)
  | "table4" -> Experiments.Table4.run ~coverage_queries:b.coverage_queries ()
  | "figure2" -> detections := Some (Experiments.Figure2.run (get_detections b))
  | "figure3" -> detections := Some (Experiments.Figure3.run (get_detections b))
  | "perf" -> Experiments.Throughput.run ~queries:b.throughput_queries ()
  | "campaign" ->
      Experiments.Campaign_bench.run ~domains:4
        ~databases:(b.throughput_queries / 25) ()
  | "telemetry" ->
      Experiments.Telemetry_bench.run ~databases:(b.throughput_queries / 3) ()
  | "trace" ->
      Experiments.Trace_bench.run ~databases:(b.throughput_queries / 3) ()
  | "frontier" ->
      Experiments.Frontier_bench.run ~budget:(b.throughput_queries / 5)
        ~overhead_databases:(b.throughput_queries / 12) ()
  | "plandiff" ->
      Experiments.Plandiff_bench.run ~databases:(b.throughput_queries / 3) ()
  | "constopt" ->
      Experiments.Constopt_bench.run ~databases:(b.throughput_queries / 3) ()
  | "fleet" ->
      Experiments.Fleet_bench.run ~workers:4
        ~databases:(b.throughput_queries / 8) ()
  | "baselines" ->
      Experiments.Baseline_cmp.run ~fuzzer_budget:b.fuzzer_budget
        ~difftest_budget:b.difftest_budget (get_detections b)
  | "ablations" -> Experiments.Ablations.run ~queries:b.ablation_queries ()
  | "metamorphic" ->
      Experiments.Metamorphic_ext.run ~checks:b.ablation_queries ()
  | "micro" -> run_micro ()
  | other -> Printf.printf "unknown target: %s\n" other

let all_targets =
  [
    "table1"; "table2"; "table3"; "table4"; "figure2"; "figure3"; "perf";
    "campaign"; "telemetry"; "trace"; "frontier"; "plandiff"; "constopt";
    "fleet";
    "baselines";
    "ablations";
    "metamorphic"; "micro";
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode_name, b, targets =
    match args with
    | "full" :: rest -> ("full", full, rest)
    | "quick" :: rest -> ("quick", quick, rest)
    | rest -> ("quick", quick, rest)
  in
  let targets = if targets = [] then all_targets else targets in
  Printf.printf
    "PQS reproduction evaluation (%s mode) — paper: Rigger & Su, Testing \
     Database Engines via Pivoted Query Synthesis, OSDI 2020\n"
    mode_name;
  List.iter (run_target b) targets
