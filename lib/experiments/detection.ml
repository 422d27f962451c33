type outcome = {
  bug : Engine.Bug.t;
  report : Pqs.Bug_report.t option;
  queries_budget : int;
}

type t = outcome list

let hunt_bug ~budget ~seeds bug =
  let info = Engine.Bug.info bug in
  let rec go = function
    | [] -> None
    | seed :: rest -> (
        let config =
          (* defaults plus the const-opt oracle: the constant-folding bug
             family only manifests on the re-executed simplified variant,
             and appending after the defaults preserves report priority
             for every other class *)
          Pqs.Runner.Config.make ~seed
            ~bugs:(Engine.Bug.set_of_list [ bug ])
            ~oracles:(Pqs.Oracle.defaults @ [ Pqs.Const_opt.oracle () ])
            info.Engine.Bug.dialect
        in
        match Pqs.Runner.hunt config ~max_queries:budget with
        | Some r -> Some r
        | None -> go rest)
  in
  go seeds

let budget = 30000
let seeds = [ 7; 77; 777 ]

let run_all ?(progress = false) () =
  List.map
    (fun bug ->
      let report = hunt_bug ~budget ~seeds bug in
      if progress then
        Printf.printf "  %-42s %s\n%!" (Engine.Bug.show bug)
          (match report with
          | Some r -> "detected (" ^ Pqs.Bug_report.oracle_label r.Pqs.Bug_report.oracle ^ ")"
          | None -> "NOT detected");
      { bug; report; queries_budget = budget })
    Engine.Bug.all

let detected t = List.filter (fun o -> o.report <> None) t
let missed t = List.filter (fun o -> o.report = None) t

let by_dialect t d =
  List.filter
    (fun o -> Sqlval.Dialect.equal (Engine.Bug.info o.bug).Engine.Bug.dialect d)
    t

let with_reductions t =
  List.map
    (fun o ->
      match o.report with
      | None -> o
      | Some r when r.Pqs.Bug_report.reduced <> None -> o
      | Some r ->
          let bugs = Engine.Bug.set_of_list [ o.bug ] in
          { o with report = Some (Pqs.Reducer.reduce_report r ~bugs) })
    t
