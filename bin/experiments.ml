(* The paper's evaluation driver: regenerates every table and figure of
   the paper's evaluation, paper-vs-measured side by side.

     dune exec bin/experiments.exe -- [quick|full] [targets]

   Targets: table1 table2 table3 table4 figure2 figure3 perf baselines
   ablations metamorphic (all of them, in this order, when none is
   named), and bugs (regenerates BUGS.md).  `quick` (the default) uses the
   full detection budget but smaller coverage/throughput/ablation budgets;
   `full` is the evaluation-grade configuration EXPERIMENTS.md records.
   An unknown target exits 2 before anything runs. *)

type budgets = {
  coverage_queries : int;
  throughput_queries : int;
  ablation_queries : int;
  fuzzer_budget : int;
  difftest_budget : int;
}

let quick =
  {
    coverage_queries = 1500;
    throughput_queries = 1500;
    ablation_queries = 1000;
    fuzzer_budget = 3000;
    difftest_budget = 1500;
  }

let full =
  {
    coverage_queries = 5000;
    throughput_queries = 5000;
    ablation_queries = 2000;
    fuzzer_budget = 8000;
    difftest_budget = 3000;
  }

(* every catalog bug is hunted once, at the detection budget (the same in
   both modes: hunts stop at the first finding, so a large budget only
   costs time for a missed bug), and the figures replace the outcomes
   with their reduced reports *)
let detections = ref None

let get_detections () =
  match !detections with
  | Some d -> d
  | None ->
      Printf.printf
        "\nHunting all %d catalog bugs (budget %d queries x %d seeds)...\n%!"
        (List.length Engine.Bug.all)
        Experiments.Detection.budget
        (List.length Experiments.Detection.seeds);
      let d = Experiments.Detection.run_all ~progress:true () in
      detections := Some d;
      d

let paper_targets b =
  [
    ("table1", fun () -> Experiments.Table1.run ());
    ("table2", fun () -> Experiments.Table2.run (get_detections ()));
    ("table3", fun () -> Experiments.Table3.run (get_detections ()));
    ( "table4",
      fun () -> Experiments.Table4.run ~coverage_queries:b.coverage_queries ()
    );
    ( "figure2",
      fun () -> detections := Some (Experiments.Figure2.run (get_detections ()))
    );
    ( "figure3",
      fun () -> detections := Some (Experiments.Figure3.run (get_detections ()))
    );
    ( "perf",
      fun () -> Experiments.Throughput.run ~queries:b.throughput_queries () );
    ( "baselines",
      fun () ->
        Experiments.Baseline_cmp.run ~fuzzer_budget:b.fuzzer_budget
          ~difftest_budget:b.difftest_budget (get_detections ()) );
    ( "ablations",
      fun () -> Experiments.Ablations.run ~queries:b.ablation_queries () );
    ( "metamorphic",
      fun () -> Experiments.Metamorphic_ext.run ~checks:b.ablation_queries () );
  ]

let () =
  let mode_name, b, names =
    match List.tl (Array.to_list Sys.argv) with
    | "full" :: rest -> ("full", full, rest)
    | "quick" :: rest | rest -> ("quick", quick, rest)
  in
  let paper = paper_targets b in
  let targets =
    paper
    @ [
        ( "bugs",
          fun () -> Experiments.Bug_catalog_doc.generate (get_detections ()) );
      ]
  in
  let names = if names = [] then List.map fst paper else names in
  match List.filter (fun t -> not (List.mem_assoc t targets)) names with
  | t :: _ ->
      Printf.eprintf "unknown target: %s (targets: %s)\n" t
        (String.concat " " (List.map fst targets));
      exit 2
  | [] ->
      Printf.printf
        "PQS reproduction evaluation (%s mode) — paper: Rigger & Su, Testing \
         Database Engines via Pivoted Query Synthesis, OSDI 2020\n"
        mode_name;
      List.iter (fun t -> List.assoc t targets ()) names
