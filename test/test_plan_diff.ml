(* The plan-space differential oracle's contracts:

   - enumeration: [Planner.enumerate] puts the full scan first, always
     contains the planner's default choice, never repeats a signature,
     and is deterministic;
   - soundness: on the correct engine every forced plan produces the
     default plan's result multiset — checked directly on a fixture
     (each scan site under every enumerated path, and the join swap) and,
     through the oracle's per-site witnesses, over a 1,000-seed
     generated-database sweep (zero divergences), with the per-database
     join-order witnesses included;
   - detection: each targeted planner bug (skip-scan/DISTINCT, OR-union
     dedup, DESC-index range) diverges on a bounded seed sweep, on seeds
     where the containment oracle stays silent ([exclusive_seeds]); the
     cross-oracle matrix over the whole injected catalog finds every bug
     with at least one oracle;
   - golden: forced-plan EXPLAIN carries the "(forced)" / "SWAP JOIN
     ORDER (forced)" annotations, the divergence record and message name
     the witness and both cardinalities, and a plan_diff repro bundle
     round-trips through [Trace.Bundle] and [Replay.check_file];
   - stats monoids: [Metamorphic.merge_stats] and [Difftest.merge_stats]
     obey the same merge laws as [Stats.merge], and the plan-diff
     counters merge additively. *)

open Sqlval
module A = Sqlast.Ast

(* ---------- helpers ---------- *)

let parse_sql sql =
  match Sqlparse.Parser.parse_stmt sql with
  | Ok s -> s
  | Error e -> Alcotest.fail (Sqlparse.Parser.show_error e)

let parse_query sql =
  match parse_sql sql with
  | A.Select_stmt q -> q
  | _ -> Alcotest.fail ("not a SELECT: " ^ sql)

let exec session sql =
  match Engine.Session.execute session (parse_sql sql) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.Errors.show e)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Trace.mkdir_p path;
  path

let contains_sub sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  lsub = 0 || go 0

(* the shared fixture: one table with a composite, a DESC and a plain
   index (a multi-path plan space) plus a second table for joins *)
let fixture () =
  let session = Engine.Session.create Dialect.Sqlite_like in
  List.iter (exec session)
    [
      "CREATE TABLE t0(c0 INT, c1 TEXT)";
      "CREATE INDEX i_comp ON t0(c0, c1)";
      "CREATE INDEX i_desc ON t0(c0 DESC)";
      "CREATE INDEX i_one ON t0(c1)";
      "INSERT INTO t0(c0, c1) VALUES (1,'a'), (2,'b'), (3,'c'), (2,'a')";
      "CREATE TABLE t1(d0 INT)";
      "INSERT INTO t1(d0) VALUES (1), (2)";
    ];
  session

let fixture_queries =
  [
    "SELECT DISTINCT c0 FROM t0 WHERE c0 = 2";
    "SELECT * FROM t0 WHERE c0 > 1";
    "SELECT c0 FROM t0 WHERE c0 = 2 OR c1 = 'a'";
    "SELECT * FROM t0, t1 WHERE c0 = d0";
  ]

(* a generated database in the style of the campaign rounds *)
let gen_session seed =
  let dialect = Dialect.Sqlite_like in
  let session = Engine.Session.create ~seed dialect in
  let cfg = Pqs.Gen_db.Config.make ~seed dialect in
  let run stmt =
    match Engine.Session.execute session stmt with
    | Ok _ | Error _ -> ()
    | exception Engine.Errors.Crash _ -> ()
  in
  List.iter run (Pqs.Gen_db.initial_statements cfg);
  List.iter run (Pqs.Gen_db.fill_statements cfg session);
  session

(* every access path of one table's scan site, via the same environment
   the oracle builds *)
let enumerate_paths session name ~where =
  let catalog = Engine.Session.catalog session in
  match Storage.Catalog.find_table catalog name with
  | None -> Alcotest.fail ("no such table " ^ name)
  | Some ts ->
      let schema = ts.Storage.Catalog.schema in
      let env =
        Engine.Executor.table_env (Engine.Session.ctx session) schema
          ~alias:name
      in
      ( Engine.Planner.enumerate env catalog schema ~where,
        Engine.Planner.choose env catalog schema ~where )

(* the scan-site WHERE shapes the property checks walk: no filter, an
   equality and a strict range on the first column *)
let where_shapes session name =
  match
    Pqs.Schema_info.tables_of_session session
    |> List.find_opt (fun (ti : Pqs.Schema_info.table_info) ->
           ti.Pqs.Schema_info.ti_name = name)
  with
  | None | Some { Pqs.Schema_info.ti_columns = []; _ } -> [ None ]
  | Some ti ->
      let c0 =
        (List.hd ti.Pqs.Schema_info.ti_columns).Pqs.Schema_info.ci_name
      in
      let v =
        match Pqs.Schema_info.rows_of_table session name with
        | row :: _ when Array.length row > 0 -> row.(0)
        | _ -> Value.Null
      in
      [
        None;
        Some (A.Binary (A.Eq, A.col c0, A.Lit v));
        Some (A.Binary (A.Gt, A.col c0, A.Lit v));
      ]

(* a forced plan that runs one scan site under [path] *)
let site_force name where path =
  {
    Engine.Executor.f_sites =
      [
        {
          Engine.Executor.fs_alias = name;
          fs_table = name;
          fs_where = where;
          fs_path = path;
        };
      ];
    f_swap_join = false;
  }

let swap_force = { Engine.Executor.f_sites = []; f_swap_join = true }

(* every forced plan of one fixture query: its single-table scan site
   under each enumerated path other than the planner's default, or the
   join swap on a two-table FROM *)
let fixture_forces session (q : A.query) =
  match q with
  | A.Q_select { A.sel_from = [ A.F_table { name; _ } ]; sel_where; _ } ->
      let paths, default = enumerate_paths session name ~where:sel_where in
      let dsig = Engine.Planner.signature default in
      List.filter_map
        (fun p ->
          if Engine.Planner.signature p = dsig then None
          else Some (site_force name sel_where p))
        paths
  | A.Q_select { A.sel_from = [ _; _ ]; _ } -> [ swap_force ]
  | _ -> []

(* ---------- enumeration properties ---------- *)

let each_site session f =
  List.iter
    (fun (ti : Pqs.Schema_info.table_info) ->
      let name = ti.Pqs.Schema_info.ti_name in
      List.iter (fun where -> f name where) (where_shapes session name))
    (Pqs.Schema_info.tables_of_session session)

let test_enumerate_full_scan () =
  let check session =
    each_site session (fun name where ->
        match enumerate_paths session name ~where with
        | Engine.Planner.Full_scan :: _, _ -> ()
        | _ -> Alcotest.fail ("full scan not first for " ^ name))
  in
  check (fixture ());
  for seed = 1 to 25 do
    check (gen_session seed)
  done

let test_enumerate_contains_default () =
  let check session =
    each_site session (fun name where ->
        let paths, default = enumerate_paths session name ~where in
        let sigs = List.map Engine.Planner.signature paths in
        Alcotest.(check bool)
          ("default choice enumerated for " ^ name)
          true
          (List.mem (Engine.Planner.signature default) sigs);
        Alcotest.(check int)
          ("no repeated signature for " ^ name)
          (List.length sigs)
          (List.length (List.sort_uniq String.compare sigs)))
  in
  check (fixture ());
  for seed = 1 to 25 do
    check (gen_session seed)
  done

let test_enumerate_deterministic () =
  let session = fixture () in
  each_site session (fun name where ->
      let paths1, _ = enumerate_paths session name ~where in
      let paths2, _ = enumerate_paths session name ~where in
      Alcotest.(check (list string))
        ("same enumeration twice for " ^ name)
        (List.map Engine.Planner.signature paths1)
        (List.map Engine.Planner.signature paths2))

(* ---------- planner golden ---------- *)

(* The WHERE shapes the golden walks at one table's scan site: no filter,
   and for each column against each of the first two rows' values an
   equality and the four ranges in both orientations ([col OP lit] and
   [lit OP col]), an OR and an AND with the next column, a LIKE prefix
   and a NOT NULL test.  The drawn containment queries' own single-table
   WHERE clauses are added by the caller. *)
let golden_shapes session (ti : Pqs.Schema_info.table_info) =
  let cols =
    List.map
      (fun (ci : Pqs.Schema_info.column_info) -> A.col ci.Pqs.Schema_info.ci_name)
      ti.Pqs.Schema_info.ti_columns
  in
  let rows =
    List.filteri (fun i _ -> i < 2)
      (Pqs.Schema_info.rows_of_table session ti.Pqs.Schema_info.ti_name)
  in
  let n = List.length cols in
  let shapes =
    List.concat_map
      (fun row ->
        List.concat
          (List.mapi
             (fun i c ->
               let v = A.Lit (if i < Array.length row then row.(i) else Value.Null) in
               let j = (i + 1) mod n in
               let c' = List.nth cols j in
               let v' =
                 A.Lit (if j < Array.length row then row.(j) else Value.Null)
               in
               let like =
                 match v with
                 | A.Lit (Value.Text s) when String.length s > 0 ->
                     [
                       A.Like
                         {
                           negated = false;
                           arg = c;
                           pattern = A.Lit (Value.Text (String.sub s 0 1 ^ "%"));
                           escape = None;
                         };
                     ]
                 | _ -> []
               in
               List.concat_map
                 (fun op -> [ A.Binary (op, c, v); A.Binary (op, v, c) ])
                 [ A.Eq; A.Lt; A.Le; A.Gt; A.Ge ]
               @ [
                   A.Binary (A.Or, A.Binary (A.Eq, c, v), A.Binary (A.Eq, v', c'));
                   A.Binary (A.And, A.Binary (A.Gt, v, c), A.Binary (A.Eq, c', v'));
                   A.Is { negated = true; arg = c; rhs = A.Is_null };
                 ]
               @ like)
             cols))
      rows
  in
  None :: List.map Option.some shapes

(* Every scan site of the seed corpus (seeds 1-60) in each dialect:
   each table under {!golden_shapes} and each drawn containment query's
   single-table WHERE, planned with the DESC-range bug off and on, first
   over the generated indexes, then again after adding a DESC index on
   the first column, a composite index and a plain index on the second
   column, and running ANALYZE (random DDL rarely makes a DESC
   single-column index).  One line per site and bug set holds [choose]'s
   signature and [enumerate]'s signatures; the digest of all of them was
   taken before the planner's candidate generation and comparison arms
   were merged, so any change to an access-path decision shows here. *)
let test_planner_golden () =
  let desc_bug = Engine.Bug.singleton Engine.Bug.Sq_desc_index_range in
  let digest dialect =
    let buf = Buffer.create (1 lsl 16) in
    for seed = 1 to 60 do
      let corpus = Pqs.Corpus.build ~seed dialect in
      let session = corpus.Pqs.Corpus.session in
      let catalog = Engine.Session.catalog session in
      let drawn =
        let sources = Pqs.Corpus.sources session in
        List.init Pqs.Corpus.queries_per_seed (fun _ ->
            Pqs.Corpus.query corpus sources)
        |> List.filter_map (function
             | Some (_, { Pqs.Gen_query.query = { A.sel_from = [ A.F_table { name; _ } ]; sel_where; _ }; _ }) ->
                 Some (String.lowercase_ascii name, sel_where)
             | _ -> None)
      in
      let plan_sites () =
      List.iter
        (fun (ti : Pqs.Schema_info.table_info) ->
          let name = ti.Pqs.Schema_info.ti_name in
          match Storage.Catalog.find_table catalog name with
          | None -> ()
          | Some ts ->
              let schema = ts.Storage.Catalog.schema in
              let wheres =
                golden_shapes session ti
                @ List.filter_map
                    (fun (n, w) ->
                      if n = String.lowercase_ascii name then Some w else None)
                    drawn
              in
              List.iter
                (fun where ->
                  List.iter
                    (fun bugs ->
                      let env =
                        {
                          (Engine.Executor.table_env
                             (Engine.Session.ctx session) schema ~alias:name)
                          with
                          Engine.Eval.bugs;
                        }
                      in
                      Buffer.add_string buf
                        (Engine.Planner.signature
                           (Engine.Planner.choose env catalog schema ~where));
                      List.iter
                        (fun p ->
                          Buffer.add_char buf ' ';
                          Buffer.add_string buf (Engine.Planner.signature p))
                        (Engine.Planner.enumerate env catalog schema ~where);
                      Buffer.add_char buf '\n')
                    [ Engine.Bug.empty_set; desc_bug ])
                wheres)
        (Pqs.Schema_info.tables_of_session session)
      in
      plan_sites ();
      List.iter
        (fun (ti : Pqs.Schema_info.table_info) ->
          let t = ti.Pqs.Schema_info.ti_name in
          let ic ?(desc = false) (ci : Pqs.Schema_info.column_info) =
            { A.ic_expr = A.col ci.Pqs.Schema_info.ci_name; ic_collate = None; ic_desc = desc }
          in
          let mk suffix columns =
            Pqs.Corpus.exec corpus
              (A.Create_index
                 {
                   A.ci_name = "gx_" ^ t ^ "_" ^ suffix;
                   ci_if_not_exists = false;
                   ci_table = t;
                   ci_unique = false;
                   ci_columns = columns;
                   ci_where = None;
                 })
          in
          match ti.Pqs.Schema_info.ti_columns with
          | c0 :: c1 :: _ ->
              mk "desc" [ ic ~desc:true c0 ];
              mk "comp" [ ic c0; ic c1 ];
              mk "one" [ ic c1 ]
          | [ c0 ] -> mk "desc" [ ic ~desc:true c0 ]
          | [] -> ())
        (Pqs.Schema_info.tables_of_session session);
      Pqs.Corpus.exec corpus (A.Analyze None);
      plan_sites ()
    done;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  List.iter
    (fun (dialect, expected) ->
      Alcotest.(check string)
        ("planner digest " ^ Dialect.show dialect)
        expected (digest dialect))
    [
      (Dialect.Sqlite_like, "4d35937626bb1ec295d80dddb4738b57");
      (Dialect.Mysql_like, "ff429adae450ff3d3ac32fb35af0c070");
      (Dialect.Postgres_like, "19a31d09f5229c17a4f3557329c4fee6");
    ]

(* ---------- soundness on the correct engine ---------- *)

(* every forced plan of each fixture query runs without error and
   returns the default plan's rows under the plan-diff comparison
   ({!Pqs.Plan_diff.matches}) *)
let test_forced_equals_default () =
  let session = fixture () in
  let compared = ref 0 and swapped = ref false in
  List.iter
    (fun sql ->
      let q = parse_query sql in
      match Engine.Session.query session q with
      | Error e -> Alcotest.fail (Engine.Errors.show e)
      | Ok default ->
          let counts = Pqs.Plan_diff.counts default.Engine.Executor.rs_rows in
          List.iter
            (fun force ->
              incr compared;
              if force.Engine.Executor.f_swap_join then swapped := true;
              match Engine.Session.query_forced session ~force q with
              | Error e -> Alcotest.fail (Engine.Errors.show e)
              | Ok forced ->
                  Alcotest.(check bool)
                    (Printf.sprintf "[%s] agrees on %s"
                       (Engine.Executor.show_forced force)
                       sql)
                    true
                    (Pqs.Plan_diff.matches counts
                       forced.Engine.Executor.rs_rows))
            (fixture_forces session q))
    fixture_queries;
  Alcotest.(check bool) "fixture exercises several plans" true (!compared >= 4);
  Alcotest.(check bool) "fixture exercises the join swap" true !swapped

let test_bug_free_sweep () =
  let r =
    Pqs.Plan_diff.sweep ~seed_lo:1 ~seed_hi:1000 Dialect.Sqlite_like
  in
  (* the counts pin the seed corpus: a drift in generation, pivot choice
     or synthesis changes them *)
  Alcotest.(check int) "seeds swept" 1000 r.Pqs.Plan_diff.pd_seeds;
  Alcotest.(check int) "queries checked" 11458 r.Pqs.Plan_diff.pd_queries;
  Alcotest.(check int) "forced plans executed" 12751
    r.Pqs.Plan_diff.pd_plans;
  Alcotest.(check (list (pair int string)))
    "no divergence on the correct engine" []
    r.Pqs.Plan_diff.pd_divergences;
  (* postgres parents whose heap holds one row but whose scan also
     returns inherited child rows: the single-row MIN/MAX extension must
     key on the scan count, or the containment check fires (seeds 44
     and 46) *)
  let r = Pqs.Plan_diff.sweep ~seed_lo:1 ~seed_hi:300 Dialect.Postgres_like in
  Alcotest.(check (list (pair int string)))
    "no postgres divergence" [] r.Pqs.Plan_diff.pd_divergences;
  Alcotest.(check (list int))
    "no postgres containment firing" [] r.Pqs.Plan_diff.pd_containment_seeds

let test_sweep_deterministic () =
  let run () =
    Pqs.Plan_diff.sweep ~seed_lo:1 ~seed_hi:40 Dialect.Sqlite_like
  in
  Alcotest.(check bool) "two identical sweeps" true (run () = run ())

let test_join_orders () =
  let session = fixture () in
  let oc = Pqs.Plan_diff.check_join_orders session in
  Alcotest.(check bool) "join witnesses executed" true
    (oc.Pqs.Plan_diff.oc_plans >= 1);
  Alcotest.(check bool) "both join orders agree" true
    (oc.Pqs.Plan_diff.oc_divergence = None);
  let empty = Engine.Session.create Dialect.Sqlite_like in
  let oc = Pqs.Plan_diff.check_join_orders empty in
  Alcotest.(check int) "no tables, no witnesses" 0 oc.Pqs.Plan_diff.oc_plans

(* ---------- detection ---------- *)

let sweep_bug bug =
  Pqs.Plan_diff.sweep
    ~bugs:(Engine.Bug.set_of_list [ bug ])
    ~seed_lo:1 ~seed_hi:300 Dialect.Sqlite_like

let test_detects bug () =
  let r = sweep_bug bug in
  Alcotest.(check bool)
    (Engine.Bug.show bug ^ " diverges on the sweep")
    true
    (r.Pqs.Plan_diff.pd_divergences <> []);
  Alcotest.(check bool)
    (Engine.Bug.show bug ^ " has containment-silent seeds")
    true
    (Pqs.Plan_diff.exclusive_seeds r <> [])

let test_detection_matrix () =
  (* the cross-oracle matrix: hunting the whole injected catalog, every
     bug class must fall to at least one oracle *)
  let d = Experiments.Detection.run_all () in
  let missed =
    Experiments.Detection.missed d
    |> List.map (fun (o : Experiments.Detection.outcome) ->
           Engine.Bug.show o.Experiments.Detection.bug)
  in
  Alcotest.(check (list string)) "no bug escapes every oracle" [] missed;
  let labels =
    List.filter_map
      (fun (o : Experiments.Detection.outcome) ->
        Option.map
          (fun (r : Pqs.Bug_report.t) ->
            Pqs.Bug_report.oracle_label r.Pqs.Bug_report.oracle)
          o.Experiments.Detection.report)
      d
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun l ->
      Alcotest.(check bool) (l ^ " oracle contributes") true (List.mem l labels))
    [ "Contains"; "Error"; "SEGFAULT" ]

(* ---------- golden: forced-plan EXPLAIN ---------- *)

let test_explain_forced () =
  let session = fixture () in
  let q = parse_query "SELECT DISTINCT c0 FROM t0 WHERE c0 = 2" in
  Alcotest.(check (list string)) "default plan"
    [ "SCAN t0 USING index-eq(i_desc)"; "DISTINCT" ]
    (Engine.Session.plan_lines session q);
  let force =
    site_force "t0"
      (Some (A.Binary (A.Eq, A.col "c0", A.Lit (Value.Int 2L))))
      Engine.Planner.Full_scan
  in
  Alcotest.(check string) "the force names the full scan" "t0=full-scan"
    (Engine.Executor.show_forced force);
  Alcotest.(check (list string)) "forced plan is annotated"
    [ "SCAN t0 USING full-scan (forced)"; "DISTINCT" ]
    (Engine.Session.plan_lines ~force session q)

let test_explain_forced_swap () =
  let session = fixture () in
  let q = parse_query "SELECT * FROM t0, t1 WHERE c0 = d0" in
  Alcotest.(check (list string)) "default join plan"
    [ "SCAN t0 USING full-scan"; "SCAN t1 USING full-scan" ]
    (Engine.Session.plan_lines session q);
  Alcotest.(check (list string)) "swapped join plan is annotated"
    [
      "SCAN t0 USING full-scan";
      "SCAN t1 USING full-scan";
      "SWAP JOIN ORDER (forced)";
    ]
    (Engine.Session.plan_lines ~force:swap_force session q)

(* ---------- golden: the divergence record and repro bundle ---------- *)

(* the minimal DESC-index range repro: the buggy strict lower bound walks
   the descending index the wrong way and returns nothing *)
let desc_repro_script =
  [
    "CREATE TABLE t0(c0 INT, c1 TEXT)";
    "CREATE INDEX i_desc ON t0(c0 DESC)";
    "INSERT INTO t0(c0, c1) VALUES (1,'a'), (2,'b'), (3,'c'), (4,'d')";
    "SELECT * FROM t0 WHERE c0 > 1";
  ]

let desc_bugs = Engine.Bug.set_of_list [ Engine.Bug.Sq_desc_index_range ]

let desc_divergence () =
  let session = Engine.Session.create ~bugs:desc_bugs Dialect.Sqlite_like in
  List.iter (fun sql -> ignore (Engine.Session.execute session (parse_sql sql)))
    desc_repro_script;
  match
    (Pqs.Plan_diff.check_query session
       (parse_query "SELECT * FROM t0 WHERE c0 > 1"))
      .Pqs.Plan_diff.oc_divergence
  with
  | Some d -> d
  | None -> Alcotest.fail "DESC-index repro did not diverge"

let test_divergence_fields () =
  let d = desc_divergence () in
  Alcotest.(check string) "witness SQL" "SELECT * FROM t0 AS t0 WHERE (c0 > 1)"
    d.Pqs.Plan_diff.dv_witness;
  Alcotest.(check string) "disagreeing plan" "t0=full-scan"
    (Engine.Executor.show_forced d.Pqs.Plan_diff.dv_forced);
  Alcotest.(check int) "buggy default loses the rows" 0
    d.Pqs.Plan_diff.dv_default_rows;
  Alcotest.(check int) "full scan keeps them" 3 d.Pqs.Plan_diff.dv_forced_rows;
  Alcotest.(check (list (pair string int)))
    "cardinalities, default first"
    [ ("default", 0); ("t0=full-scan", 3) ]
    d.Pqs.Plan_diff.dv_cardinalities;
  Alcotest.(check (list string)) "default plan names the DESC index"
    [ "SCAN t0 AS t0 USING index-range(i_desc)" ]
    d.Pqs.Plan_diff.dv_default_plan;
  Alcotest.(check (list string)) "forced plan is annotated"
    [ "SCAN t0 AS t0 USING full-scan (forced)" ]
    d.Pqs.Plan_diff.dv_forced_plan;
  let msg = Pqs.Plan_diff.message d in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("message carries " ^ sub) true
        (contains_sub sub msg))
    [
      "plan divergence on witness";
      "SELECT * FROM t0 AS t0 WHERE (c0 > 1)";
      "t0=full-scan";
      "default=0";
      "(forced)";
    ]

let test_oracle_token () =
  Alcotest.(check string) "token" "plan_diff"
    (Pqs.Bug_report.oracle_token Pqs.Bug_report.Plan_diff);
  Alcotest.(check bool) "token round-trips" true
    (Pqs.Bug_report.oracle_of_token "plan_diff" = Some Pqs.Bug_report.Plan_diff)

let test_bundle_replay () =
  let d = desc_divergence () in
  let recorder = Trace.create ~capacity:4 () in
  Trace.begin_round recorder ~seed:7 ~dialect:Dialect.Sqlite_like;
  let bundle =
    {
      Trace.Bundle.b_seed = 7;
      b_dialect = Dialect.Sqlite_like;
      b_oracle = Pqs.Bug_report.oracle_token Pqs.Bug_report.Plan_diff;
      b_message = Pqs.Plan_diff.message d;
      b_phase = "containment";
      b_bugs = [ Engine.Bug.show Engine.Bug.Sq_desc_index_range ];
      b_statements = List.map parse_sql desc_repro_script;
      b_expected = Some (string_of_int d.Pqs.Plan_diff.dv_default_rows);
      b_actual = Some (string_of_int d.Pqs.Plan_diff.dv_forced_rows);
      b_plan = d.Pqs.Plan_diff.dv_forced_plan;
      b_trace_json = Trace.to_json recorder;
    }
  in
  Alcotest.(check string) "bundle directory naming" "bundle-000007-plan_diff"
    (Trace.Bundle.dir_name bundle);
  let dir = fresh_dir "pqs_plandiff_bundle" in
  let sql_path = Trace.Bundle.write ~dir bundle in
  let headers, _ = Trace.Bundle.parse_script_text (read_file sql_path) in
  Alcotest.(check (option string)) "oracle header" (Some "plan_diff")
    (List.assoc_opt "oracle" headers);
  Alcotest.(check (option string)) "bugs header" (Some "Sq_desc_index_range")
    (List.assoc_opt "bugs" headers);
  match Pqs.Replay.check_file sql_path with
  | Error e -> Alcotest.fail ("broken bundle: " ^ e)
  | Ok o ->
      Alcotest.(check bool) "plan_diff bundles are recheckable" true
        o.Pqs.Replay.recheckable;
      Alcotest.(check bool) "replay reproduces the divergence" true
        o.Pqs.Replay.reproduced

let test_reducer () =
  let report =
    {
      Pqs.Bug_report.dialect = Dialect.Sqlite_like;
      oracle = Pqs.Bug_report.Plan_diff;
      message = "plan divergence";
      statements = List.map parse_sql desc_repro_script;
      reduced = None;
      seed = 7;
      phase = "containment";
      bundle = None;
    }
  in
  match
    (Pqs.Reducer.reduce_report report ~bugs:desc_bugs).Pqs.Bug_report.reduced
  with
  | None -> Alcotest.fail "reduction produced nothing"
  | Some reduced ->
      (* every statement is load-bearing: table, index, rows, trigger *)
      Alcotest.(check int) "statement count preserved" 4
        (List.length reduced);
      (match List.rev reduced with
      | A.Select_stmt _ :: _ -> ()
      | _ -> Alcotest.fail "detecting SELECT not kept last");
      (* the INSERT is trimmed to a single surviving row *)
      let rows =
        List.concat_map
          (function A.Insert { rows; _ } -> rows | _ -> [])
          reduced
      in
      Alcotest.(check int) "INSERT trimmed to one row" 1 (List.length rows)

(* ---------- stats monoids ---------- *)

let test_metamorphic_merge_laws () =
  let sample seed =
    Pqs.Metamorphic.run ~seed
      ~bugs:(Engine.Bug.set_of_list [ Engine.Bug.Sq_case_null_when ])
      ~max_checks:15 Dialect.Sqlite_like
  in
  let a = sample 3 and b = sample 17 and c = sample 7919 in
  let ( + ) = Pqs.Metamorphic.merge_stats in
  let e = Pqs.Metamorphic.empty_stats in
  Alcotest.(check bool) "associative" true ((a + b) + c = a + (b + c));
  Alcotest.(check bool) "left identity" true (e + a = a);
  Alcotest.(check bool) "right identity" true (a + e = a);
  Alcotest.(check int) "checks add" (a + b).Pqs.Metamorphic.checks
    Stdlib.(a.Pqs.Metamorphic.checks + b.Pqs.Metamorphic.checks);
  Alcotest.(check int) "findings concatenate in order"
    (List.length (a + b).Pqs.Metamorphic.findings)
    Stdlib.(
      List.length a.Pqs.Metamorphic.findings
      + List.length b.Pqs.Metamorphic.findings)

let test_difftest_merge_laws () =
  let sample seed =
    Baselines.Difftest.run ~max_queries:25
      (Baselines.Difftest.default_config ~seed ())
  in
  let a = sample 3 and b = sample 17 and c = sample 7919 in
  let ( + ) = Baselines.Difftest.merge_stats in
  let e = Baselines.Difftest.empty_stats in
  Alcotest.(check bool) "associative" true ((a + b) + c = a + (b + c));
  Alcotest.(check bool) "left identity" true (e + a = a);
  Alcotest.(check bool) "right identity" true (a + e = a);
  Alcotest.(check int) "queries add" (a + b).Baselines.Difftest.queries
    Stdlib.(a.Baselines.Difftest.queries + b.Baselines.Difftest.queries)

let test_plan_counters_merge () =
  let a =
    { Pqs.Stats.empty with Pqs.Stats.plan_checks = 3; plan_divergences = 1 }
  and b =
    { Pqs.Stats.empty with Pqs.Stats.plan_checks = 4; plan_divergences = 2 }
  in
  let m = Pqs.Stats.merge a b in
  Alcotest.(check int) "plan_checks add" 7 m.Pqs.Stats.plan_checks;
  Alcotest.(check int) "plan_divergences add" 3 m.Pqs.Stats.plan_divergences;
  Alcotest.(check bool) "empty is the identity on plan counters" true
    (Pqs.Stats.merge Pqs.Stats.empty a = a)

(* ---------- suite ---------- *)

let () =
  Alcotest.run "plan_diff"
    [
      ( "enumeration",
        [
          Alcotest.test_case "full scan first" `Quick test_enumerate_full_scan;
          Alcotest.test_case "default choice enumerated, no duplicates" `Quick
            test_enumerate_contains_default;
          Alcotest.test_case "deterministic" `Quick test_enumerate_deterministic;
          Alcotest.test_case "planner golden" `Quick test_planner_golden;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "forced = default on the fixture" `Quick
            test_forced_equals_default;
          Alcotest.test_case "1,000-seed bug-free sweep" `Quick
            test_bug_free_sweep;
          Alcotest.test_case "sweep is deterministic" `Quick
            test_sweep_deterministic;
          Alcotest.test_case "join orders agree" `Quick test_join_orders;
        ] );
      ( "detection",
        [
          Alcotest.test_case "skip-scan/DISTINCT" `Quick
            (test_detects Engine.Bug.Sq_skip_scan_distinct);
          Alcotest.test_case "OR-union dedup" `Quick
            (test_detects Engine.Bug.Sq_or_index_dedup);
          Alcotest.test_case "DESC-index range" `Quick
            (test_detects Engine.Bug.Sq_desc_index_range);
          Alcotest.test_case "cross-oracle matrix" `Slow test_detection_matrix;
        ] );
      ( "golden",
        [
          Alcotest.test_case "forced-plan EXPLAIN" `Quick test_explain_forced;
          Alcotest.test_case "forced join-swap EXPLAIN" `Quick
            test_explain_forced_swap;
          Alcotest.test_case "divergence record and message" `Quick
            test_divergence_fields;
          Alcotest.test_case "oracle token" `Quick test_oracle_token;
          Alcotest.test_case "repro bundle replays" `Quick test_bundle_replay;
          Alcotest.test_case "reducer minimizes" `Quick test_reducer;
        ] );
      ( "stats",
        [
          Alcotest.test_case "metamorphic merge laws" `Quick
            test_metamorphic_merge_laws;
          Alcotest.test_case "difftest merge laws" `Quick
            test_difftest_merge_laws;
          Alcotest.test_case "plan counters merge" `Quick
            test_plan_counters_merge;
        ] );
    ]
