(* Ablations for the design choices DESIGN.md calls out.

   1. Rectification (paper step 4): without it, random conditions evaluate
      TRUE only a fraction of the time, so "pivot missing" stops being a
      bug signal — every miss is a false alarm.  We measure the raw
      truth-value distribution and the false-alarm rate.
   2. Expression depth (paper Algorithm 1's max depth): deeper expressions
      exercise more of the evaluator but fail oracle evaluation more often
      (dialect-specific runtime errors), trading throughput for coverage.
   3. The expressions-on-columns extension (paper Sec. 3.4): how many of
      the containment-class detections needed expression targets. *)

open Sqlval

let rectification ~queries =
  List.map
    (fun rectify ->
      let config =
        Pqs.Runner.Config.make ~seed:99 ~rectify ~verify_ground_truth:false
          Dialect.Sqlite_like
      in
      let stats = Pqs.Runner.run ~max_queries:queries config in
      (rectify, stats))
    [ true; false ]

(* depth sweep measured directly on the generator+oracle: average node
   count of generated conditions and the rate at which the oracle cannot
   evaluate them (mysql's error-on-overflow arithmetic makes failures
   depth-dependent) *)
let depth_sweep ~samples =
  let dialect = Dialect.Mysql_like in
  List.map
    (fun max_depth ->
      let rng = Pqs.Rng.make ~seed:99 in
      let session = Engine.Session.create dialect in
      let cfg =
        Pqs.Gen_db.Config.(make ~seed:99 dialect |> with_rng rng)
      in
      List.iter
        (fun st -> ignore (Engine.Session.execute session st))
        (Pqs.Gen_db.initial_statements cfg);
      List.iter
        (fun st -> ignore (Engine.Session.execute session st))
        (Pqs.Gen_db.fill_statements cfg session);
      let tables = Pqs.Schema_info.tables_of_session session in
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
      let env = Pqs.Interp.env_of_pivot dialect pivot in
      let gen_ctx =
        { Pqs.Gen_expr.rng; max_depth; scope = Pqs.Gen_expr.scope dialect tables }
      in
      let sizes = ref 0 and failures = ref 0 in
      for _ = 1 to samples do
        let e = Pqs.Gen_expr.condition gen_ctx in
        sizes := !sizes + Sqlast.Ast.expr_size e;
        match Pqs.Rectify.rectify env e with
        | Ok _ -> ()
        | Error _ -> incr failures
      done;
      (max_depth, float_of_int !sizes /. float_of_int samples, !failures))
    [ 2; 4; 6; 8; 10 ]

let run ~queries () =
  (* 1. rectification *)
  let rows =
    rectification ~queries
    |> List.map (fun (rectify, (stats : Pqs.Stats.t)) ->
           let dist =
             stats.Pqs.Stats.truth_values
             |> List.map (fun (t, n) ->
                    Printf.sprintf "%s:%d" (Tvl.show t) n)
             |> String.concat " "
           in
           [
             (if rectify then "with rectification" else "no rectification");
             string_of_int stats.Pqs.Stats.queries;
             string_of_int (List.length stats.Pqs.Stats.reports);
             dist;
           ])
  in
  Fmt_table.print
    ~title:
      "Ablation 1 — rectification off: every pivot miss is a false alarm \
       (engine is correct in both runs)"
    ~columns:[ "mode"; "queries"; "false alarms"; "raw truth values" ]
    rows;
  (* 2. depth sweep *)
  let rows =
    depth_sweep ~samples:(max 200 queries)
    |> List.map (fun (depth, avg_size, failures) ->
           [
             string_of_int depth;
             Printf.sprintf "%.1f" avg_size;
             string_of_int failures;
           ])
  in
  Fmt_table.print
    ~title:
      "Ablation 2 — expression depth (mysql): deeper trees are larger and \
       fail oracle evaluation more often (overflow errors)"
    ~columns:[ "max depth"; "avg condition nodes"; "oracle failures" ]
    rows;
  (* 3. expressions-on-columns extension *)
  let detections extension =
    List.length
      (List.filter
         (fun bug ->
           let info = Engine.Bug.info bug in
           Engine.Bug.equal_oracle_class info.Engine.Bug.oracle
             Engine.Bug.O_containment
           &&
           let config =
             Pqs.Runner.Config.make ~seed:7
               ~bugs:(Engine.Bug.set_of_list [ bug ])
               ~check_expressions:extension info.Engine.Bug.dialect
           in
           Pqs.Runner.hunt config ~max_queries:4000 <> None)
         Engine.Bug.all)
  in
  let with_ext = detections true in
  let without_ext = detections false in
  Fmt_table.print
    ~title:
      "Ablation 3 — expressions-on-columns extension (paper Sec. 3.4), \
       containment-class bugs found at a fixed small budget"
    ~columns:[ "mode"; "containment bugs found" ]
    [
      [ "with expression targets"; string_of_int with_ext ];
      [ "column targets only"; string_of_int without_ext ];
    ]
