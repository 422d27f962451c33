(* PQS integration tests: the properties the paper's method rests on.

   - agreement: the oracle interpreter and the (bug-free) engine evaluate
     random expressions identically;
   - rectification: rectified conditions always evaluate to TRUE;
   - soundness: a full PQS run against the correct engine reports nothing;
   - effectiveness: representative injected bugs are detected by the
     expected oracle;
   - reduction: reduced scripts still manifest and are no longer. *)

open Sqlval
module A = Sqlast.Ast

let nan_tolerant_equal (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Real x, Value.Real y ->
      (Float.is_nan x && Float.is_nan y) || Float.equal x y
  | _ -> Value.equal a b

(* Random schema+row for the agreement property.  Values are generated
   through the column-compatible literal generator and stored through the
   engine (so affinity conversions apply) — the pivot is then read back
   from the heap, exactly as the runner does. *)
let random_case dialect seed =
  let rng = Pqs.Rng.make ~seed in
  let ncols = Pqs.Rng.int_in rng 1 3 in
  let gen_cfg =
    Pqs.Gen_db.Config.(
      make dialect |> with_rng rng |> with_table_count 1
      |> with_max_columns ncols)
  in
  let session = Engine.Session.create dialect in
  let stmts = Pqs.Gen_db.initial_statements gen_cfg in
  List.iter
    (fun s -> ignore (Engine.Session.execute session s))
    stmts;
  match Pqs.Schema_info.tables_of_session session with
  | [] -> None
  | ti :: _ -> (
      (* one row through the engine *)
      (match
         Engine.Session.execute session (Pqs.Gen_db.insert_stmt gen_cfg ti)
       with
      | Ok _ | Error _ -> ());
      match Pqs.Schema_info.rows_of_table session ti.Pqs.Schema_info.ti_name with
      | [] -> None
      | row :: _ ->
          let pool =
            Array.to_list row |> List.filter (fun v -> not (Value.is_null v))
          in
          let expr =
            Pqs.Gen_expr.scalar
              {
                Pqs.Gen_expr.rng;
                max_depth = 4;
                scope = Pqs.Gen_expr.scope ~pool dialect [ ti ];
              }
          in
          Some (session, ti, row, expr))

let agreement_one dialect seed =
  match random_case dialect seed with
  | None -> true
  | Some (session, ti, row, expr) -> (
      let interp_env = Pqs.Interp.env_of_pivot dialect [ (ti, row) ] in
      let interp_result = Pqs.Interp.eval interp_env expr in
      let q =
        A.Q_select
          {
            A.sel_distinct = false;
            sel_items = [ A.Sel_expr (expr, None) ];
            sel_from =
              [ A.F_table { name = ti.Pqs.Schema_info.ti_name; alias = None } ];
            sel_where = None;
            sel_group_by = [];
            sel_having = None;
            sel_order_by = [];
            sel_limit = Some 1L (* the insert may have added extra rows *);
            sel_offset = None;
          }
      in
      let engine_result = Engine.Session.query session q in
      match (interp_result, engine_result) with
      | Ok iv, Ok rs -> (
          match rs.Engine.Executor.rs_rows with
          | [ [| ev |] ] ->
              if nan_tolerant_equal iv ev then true
              else
                QCheck.Test.fail_reportf
                  "disagreement on %s\n  table: %s\n  row: %s\n  interp: %s\n  engine: %s"
                  (Sqlast.Sql_printer.expr dialect expr)
                  (Format.asprintf "%a" Pqs.Schema_info.pp_table_info ti)
                  (String.concat "|"
                     (List.map Value.show (Array.to_list row)))
                  (Value.show iv) (Value.show ev)
          | rows ->
              QCheck.Test.fail_reportf "expected 1 row, got %d"
                (List.length rows))
      | Error _, Error _ -> true
      | Error ie, Ok rs ->
          let ev =
            match rs.Engine.Executor.rs_rows with
            | [ [| v |] ] -> Value.show v
            | _ -> "?"
          in
          QCheck.Test.fail_reportf
            "interp errored (%s) but engine returned %s on %s" ie ev
            (Sqlast.Sql_printer.expr dialect expr)
      | Ok iv, Error ee ->
          QCheck.Test.fail_reportf
            "engine errored (%s) but interp returned %s on %s"
            (Engine.Errors.show ee) (Value.show iv)
            (Sqlast.Sql_printer.expr dialect expr))

let agreement_prop dialect =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "oracle/engine agreement (%s)" (Dialect.name dialect))
    ~count:800 QCheck.small_nat
    (fun seed -> agreement_one dialect (seed * 3 + 11))

(* rectified conditions always evaluate TRUE under the interpreter and
   select the pivot row in the engine *)
let soundness_run dialect =
  let config =
    (* count raw disagreements *)
    Pqs.Runner.Config.make ~seed:4242 ~verify_ground_truth:false dialect
  in
  let stats = Pqs.Runner.run ~max_queries:300 config in
  (stats, config)

let test_soundness dialect () =
  let stats, _ = soundness_run dialect in
  Alcotest.(check int)
    (Printf.sprintf "no findings on correct engine (%s)" (Dialect.name dialect))
    0
    (List.length stats.Pqs.Stats.reports);
  Alcotest.(check bool) "issued queries" true (stats.Pqs.Stats.queries > 100)

(* representative injected bugs are found, each by its expected oracle;
   like the evaluation harness, hunting retries a few seeds *)
let detect bug ~max_queries =
  let info = Engine.Bug.info bug in
  let rec go = function
    | [] -> None
    | seed :: rest -> (
        let config =
          Pqs.Runner.Config.make ~seed
            ~bugs:(Engine.Bug.set_of_list [ bug ])
            info.Engine.Bug.dialect
        in
        match Pqs.Runner.hunt config ~max_queries with
        | Some r -> Some r
        | None -> go rest)
  in
  go [ 7; 77; 777 ]

let test_detects bug expected_oracle () =
  match detect bug ~max_queries:10000 with
  | None -> Alcotest.failf "bug %s not detected" (Engine.Bug.show bug)
  | Some r ->
      Alcotest.(check string)
        (Printf.sprintf "oracle for %s" (Engine.Bug.show bug))
        (Pqs.Bug_report.oracle_label expected_oracle)
        (Pqs.Bug_report.oracle_label r.Pqs.Bug_report.oracle)

let test_reduction () =
  let bug = Engine.Bug.Sq_partial_index_implies_not_null in
  match detect bug ~max_queries:10000 with
  | None -> Alcotest.fail "seed bug not detected"
  | Some r ->
      let bugs = Engine.Bug.set_of_list [ bug ] in
      let reduced = Pqs.Reducer.reduce_report r ~bugs in
      let red = Option.get reduced.Pqs.Bug_report.reduced in
      Alcotest.(check bool) "reduced is smaller or equal" true
        (List.length red <= List.length r.Pqs.Bug_report.statements);
      (* the reduced script still manifests *)
      let check =
        Pqs.Reducer.manifestation_check ~dialect:r.Pqs.Bug_report.dialect
          ~bugs ~oracle:r.Pqs.Bug_report.oracle
      in
      Alcotest.(check bool) "reduced still manifests" true (check red)

(* Synthesis draw order: the containment statements synthesized over
   fixed corpus seeds, blind and guided, in every dialect, digested.  The
   guided arm follows the runner: per pivot a shape plan and, without
   one, a cold predicate kind from a private stream; a shape adds one
   query drawn wholly from that stream.  The digests were taken before
   synthesis was reorganised to build per pivot what it reads; any change
   to what synthesis draws, or in which order, moves them. *)
let synthesized_sql ~guided dialect =
  let buf = Buffer.create 65536 in
  let bias = ref Frontier.empty in
  let add ~seed = function
    | Ok t ->
        Buffer.add_string buf
          (Sqlast.Sql_printer.stmt dialect (Pqs.Gen_query.containment_stmt t));
        Buffer.add_char buf '\n';
        bias :=
          Frontier.union !bias
            (Frontier.of_points ~seed
               (Pqs.Gen_bias.fingerprint t.Pqs.Gen_query.query))
    | Error e -> Buffer.add_string buf ("refused: " ^ e ^ "\n")
  in
  for seed = 1 to 80 do
    let c = Pqs.Corpus.build ~seed dialect in
    let grng = Pqs.Rng.make ~seed:(seed + 7757) in
    let case_sensitive_like =
      Engine.Options.case_sensitive_like
        (Engine.Session.options c.Pqs.Corpus.session)
    in
    match Pqs.Corpus.sources c.Pqs.Corpus.session with
    | [] -> ()
    | sources ->
        for _ = 1 to 3 do
          let shape =
            if guided then Pqs.Gen_bias.plan ~rng:grng ~dialect !bias else None
          in
          let pred =
            if guided && shape = None then
              Pqs.Gen_bias.cold_pred ~rng:grng ~dialect !bias
              |> Option.map (fun k -> (grng, k))
            else None
          in
          let pivot =
            Pqs.Gen_query.prepare ~dialect ~case_sensitive_like
              (Pqs.Corpus.pick_pivot c.Pqs.Corpus.rng sources)
          in
          let synth ?shape ?pred rng =
            Pqs.Gen_query.synthesize ?shape ?pred ~rng ~pivot ~max_depth:4
              ~check_expressions:true ()
          in
          add ~seed (synth ?pred c.Pqs.Corpus.rng);
          match shape with
          | Some s -> add ~seed (synth ~shape:s grng)
          | None -> ()
        done
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_draw_order () =
  List.iter
    (fun (dialect, blind, guided) ->
      Alcotest.(check string)
        (Dialect.name dialect ^ " blind") blind
        (synthesized_sql ~guided:false dialect);
      Alcotest.(check string)
        (Dialect.name dialect ^ " guided") guided
        (synthesized_sql ~guided:true dialect))
    [
      ( Dialect.Sqlite_like,
        "fcbe52e4a5d25f1d1ab78f6fbfded5aa",
        "e1264695936984f74fe6a192e223feb6" );
      ( Dialect.Mysql_like,
        "20248397755af1cd7b4e83589610c188",
        "01f94dc29a60e7da8e3fbdb09f10e59b" );
      ( Dialect.Postgres_like,
        "a78dae856d299695b156cf22dadd6758",
        "26f31fd746a69dee8178e8b974b02214" );
    ]

(* Runner golden: what [Runner.run_round] returns over seeds 1-60 in every
   dialect, under five configurations (the bug-free default, every
   injected bug, every bug with the plan-diff and const-opt oracles, every
   bug with the metamorphic oracle, and guided generation, whose bias is
   threaded through the seeds as a one-domain campaign does).  Each round
   is digested through its counters, its frontier's points and each
   report's oracle, phase, message and statements.  The digests were taken
   before the round was split into named stages, and retaken when only the
   executed scan came to count its plan (the frontier's plan.* hit counts
   moved; with the plan.* points left out, the digests did not); any
   change to what a round counts, records or reports moves them. *)
let round_digest dialect ~all_bugs ~flags ~guided =
  let bugs =
    if all_bugs then Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect)
    else Engine.Bug.empty_set
  in
  let oracles =
    Pqs.Oracle.defaults
    @ List.filter_map
        (fun (e : Pqs.Oracle.Registry.entry) ->
          match e.reg_flag with
          | Some flag when List.mem flag flags -> Some (e.reg_make ())
          | _ -> None)
        (Pqs.Oracle.Registry.all ())
  in
  let config =
    Pqs.Runner.Config.make ~bugs ~oracles
      ~coverage:(Engine.Coverage.create ()) ~guided dialect
  in
  let bias = ref Frontier.empty in
  let buf = Buffer.create 65536 in
  for db_seed = 1 to 60 do
    let s = Pqs.Runner.run_round ~bias config ~db_seed in
    List.iter
      (fun (name, n) -> Printf.bprintf buf "%s=%d " name n)
      (Pqs.Stats.counters s);
    Printf.bprintf buf "\n%s\n"
      (Frontier.to_json ~universe:[] s.Pqs.Stats.frontier);
    List.iter
      (fun (r : Pqs.Bug_report.t) ->
        Printf.bprintf buf "%s|%s|%s\n"
          (Pqs.Bug_report.oracle_token r.Pqs.Bug_report.oracle)
          r.Pqs.Bug_report.phase r.Pqs.Bug_report.message;
        List.iter
          (fun st ->
            Buffer.add_string buf (Sqlast.Sql_printer.stmt dialect st);
            Buffer.add_char buf '\n')
          r.Pqs.Bug_report.statements)
      s.Pqs.Stats.reports
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_round_golden () =
  let configs =
    [
      ("default", false, [], false);
      ("all-bugs", true, [], false);
      ("all-bugs plan-diff const-opt", true, [ "plan-diff"; "const-opt" ], false);
      ("all-bugs metamorphic", true, [ "metamorphic" ], false);
      ("guided", false, [], true);
    ]
  in
  List.iter
    (fun (dialect, digests) ->
      List.iter2
        (fun (label, all_bugs, flags, guided) expected ->
          Alcotest.(check string)
            (Dialect.name dialect ^ " " ^ label)
            expected
            (round_digest dialect ~all_bugs ~flags ~guided))
        configs digests)
    [
      ( Dialect.Sqlite_like,
        [
          "0e3d60723340ef20c9e22307f608fea4";
          "330db1f28e0a5292331e1e46801d0c02";
          "c493174b107bd3d2d1b5b6570ce7c73f";
          "6928998d7e847c34f6c39eaca8075e2a";
          "89ad9e036080ddf656e1791884ad9876";
        ] );
      ( Dialect.Mysql_like,
        [
          "b179d6dc6498b6a875d78f6131621ad1";
          "587ba27d2a03f071d2bfb31f126526d2";
          "1420f218f4bde55b6c85e66ff62cd9db";
          "51f28a7948b72d3570a37a4b05b77345";
          "fc678d21dbd3ef54c83652bb33e7ec6e";
        ] );
      ( Dialect.Postgres_like,
        [
          "a28de3a54cb8afb19158c3bc05fbf587";
          "1b2d5fd88868dec935c9a16dc45e6626";
          "a2938512f50d227ae97f45bba40d48ea";
          "e302927023a99cae57a924b9973546d0";
          "9015263d5170b3e4e3fad4573cf2abd3";
        ] );
    ]

(* Reducer golden: every report [Runner.run_round] raises over seeds 1-100
   with the dialect's whole bug catalog (the bug-hunt workload's shape),
   reduced through a counting [manifestation_check].  Per dialect: the
   number of reports, one digest of the reduced scripts and the number of
   checks the reductions made.  The values were taken before rechecks
   replayed the correct engine first; a change to any verdict the reducer
   sees moves them. *)
let hunt_reports =
  let memo = Hashtbl.create 3 in
  fun dialect ->
    match Hashtbl.find_opt memo dialect with
    | Some r -> r
    | None ->
        let bugs =
          Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect)
        in
        let config = Pqs.Runner.Config.make ~bugs dialect in
        let reports =
          List.concat_map
            (fun db_seed ->
              (Pqs.Runner.run_round config ~db_seed).Pqs.Stats.reports)
            (List.init 100 succ)
        in
        Hashtbl.replace memo dialect (bugs, reports);
        (bugs, reports)

(* reduce each report with [check] wrapped by [observe candidate verdict] *)
let reduce_hunt dialect ~observe =
  let bugs, reports = hunt_reports dialect in
  List.map
    (fun (r : Pqs.Bug_report.t) ->
      let check =
        Pqs.Reducer.manifestation_check ~dialect ~bugs
          ~oracle:r.Pqs.Bug_report.oracle
      in
      let counted stmts =
        let verdict = check stmts in
        observe r stmts verdict;
        verdict
      in
      Pqs.Reducer.reduce counted r.Pqs.Bug_report.statements)
    reports

let test_reduction_golden () =
  List.iter
    (fun (dialect, reports, digest, checks) ->
      let n = ref 0 in
      let reduced = reduce_hunt dialect ~observe:(fun _ _ _ -> incr n) in
      let name = Dialect.name dialect in
      Alcotest.(check int) (name ^ " reports") reports (List.length reduced);
      Alcotest.(check string)
        (name ^ " reduced scripts") digest
        (Digest.to_hex
           (Digest.string
              (String.concat "\n--\n"
                 (List.map (Sqlast.Sql_printer.script dialect) reduced))));
      Alcotest.(check int) (name ^ " checks") checks !n)
    [
      (Dialect.Sqlite_like, 85, "bcc0443d3598fed4837072384720b1ff", 1728);
      (Dialect.Mysql_like, 50, "55a96fd8e86ebc36d39dabee4d7b897e", 933);
      (Dialect.Postgres_like, 34, "7a6a043ec9c7da21afc5b8f1b0998ab5", 457);
    ]

(* The replay recheck as first written, buggy engine first, computed here
   without the reducer: replay on the buggy engine, then, for the
   containment kinds, on the correct one.  Returns (crashed, unexpected
   error, rows of a final SELECT). *)
let replay_outcome ~dialect ~bugs stmts =
  let session = Engine.Session.create ~bugs dialect in
  let last = List.length stmts - 1 in
  let rec go i unexpected rows = function
    | [] -> (false, unexpected, rows)
    | st :: rest -> (
        match Engine.Session.execute session st with
        | exception Engine.Errors.Crash _ -> (true, unexpected, None)
        | Ok (Engine.Session.Rows rs) ->
            let rows =
              if i = last then Some (List.length rs.Engine.Executor.rs_rows)
              else rows
            in
            go (i + 1) unexpected rows rest
        | Ok _ -> go (i + 1) unexpected rows rest
        | Error e ->
            go (i + 1)
              (unexpected
              || not (Pqs.Expected_errors.is_expected dialect st e))
              rows rest)
  in
  go 0 false None stmts

let buggy_first ~dialect ~bugs (oracle : Pqs.Bug_report.oracle) stmts =
  let crashed, unexpected, rows = replay_outcome ~dialect ~bugs stmts in
  let correct () =
    let _, _, rows =
      replay_outcome ~dialect ~bugs:Engine.Bug.empty_set stmts
    in
    rows
  in
  let fetched = function Some n -> n > 0 | None -> false in
  match oracle with
  | Pqs.Bug_report.Crash -> crashed
  | Pqs.Bug_report.Error_oracle -> unexpected && not crashed
  | Pqs.Bug_report.Containment -> rows = Some 0 && fetched (correct ())
  | Pqs.Bug_report.Non_containment -> fetched rows && correct () = Some 0
  | o ->
      Alcotest.failf "unexpected %s report in a bug hunt"
        (Pqs.Bug_report.oracle_token o)

let test_verdict_equality () =
  List.iter
    (fun dialect ->
      let bugs, _ = hunt_reports dialect in
      let candidates = ref 0 in
      ignore
        (reduce_hunt dialect ~observe:(fun r stmts verdict ->
             incr candidates;
             if verdict <> buggy_first ~dialect ~bugs r.Pqs.Bug_report.oracle stmts
             then
               Alcotest.failf "%s seed %d: verdict %b differs on\n%s"
                 (Dialect.name dialect) r.Pqs.Bug_report.seed verdict
                 (Sqlast.Sql_printer.script dialect stmts)));
      Alcotest.(check bool)
        (Dialect.name dialect ^ " candidates checked") true (!candidates > 0))
    [ Dialect.Sqlite_like; Dialect.Mysql_like; Dialect.Postgres_like ]

(* The interpreter over one pivot row t0(c0 = 1, c1 = 'a'); any other
   column name refuses with "no such column". *)
let pivot_env dialect =
  let col name ty =
    {
      Pqs.Schema_info.ci_name = name;
      ci_type = ty;
      ci_collation = Collation.Binary;
      ci_not_null = false;
    }
  in
  let ti =
    {
      Pqs.Schema_info.ti_name = "t0";
      ti_columns = [ col "c0" Datatype.Any; col "c1" Datatype.Text ];
      ti_without_rowid = false;
      ti_engine = None;
      ti_has_children = false;
      ti_row_count = 1;
    }
  in
  Pqs.Interp.env_of_pivot dialect [ (ti, [| Value.Int 1L; Value.Text "a" |]) ]

let parse_expr sql =
  match Sqlparse.Parser.parse_expr sql with
  | Ok e -> e
  | Error e -> Alcotest.fail (Sqlparse.Parser.show_error e)

let show_eval = function
  | Ok v -> "Ok " ^ Value.show v
  | Error msg -> "Error " ^ msg

(* Refusal order: operands are evaluated left to right and the first
   refusal's message is the expression's; short-circuit AND/OR do not
   evaluate a right operand their left one decides. *)
let test_refusal_order () =
  let cases =
    [
      ( Dialect.Sqlite_like,
        [
          ("x + y", "Error no such column: x");
          ("x = y", "Error no such column: x");
          ("x || y", "Error no such column: x");
          ("x & y", "Error no such column: x");
          ("c0 < y", "Error no such column: y");
          ("x IS y", "Error no such column: x");
          ("x IN (y, z)", "Error no such column: x");
          ("c0 IN (y, z)", "Error no such column: y");
          ("x LIKE y ESCAPE z", "Error no such column: x");
          ("c1 LIKE y ESCAPE z", "Error no such column: y");
          ("x GLOB y", "Error no such column: x");
          ("coalesce(c0, x, y)", "Error no such column: x");
          ("CASE x WHEN y THEN z END", "Error no such column: x");
          ("CASE WHEN x THEN y END", "Error no such column: x");
          ("CASE WHEN c0 THEN y ELSE z END", "Error no such column: y");
          ("0 AND x", "Ok (Int 0L)");
          ("1 OR x", "Ok (Int 1L)");
          ("NULL AND x", "Error no such column: x");
          ("NULL OR x", "Error no such column: x");
          ("1 AND x", "Error no such column: x");
          ("x AND 0", "Error no such column: x");
          ("x BETWEEN y AND z", "Error no such column: x");
          ("c0 BETWEEN y AND z", "Error no such column: y");
          ("c0 BETWEEN 0 AND z", "Error no such column: z");
          ("NOT x", "Error no such column: x");
          ("x IS NULL", "Error no such column: x");
        ] );
      ( Dialect.Postgres_like,
        [
          ("(1 / 0) + (1 + 'a')", "Error division by zero");
          ("(1 + 'a') + (1 / 0)",
           "Error operator does not exist (non-numeric operand)");
          ("(1 / 0) = x", "Error division by zero");
          ("1 = 'a'", "Error operator does not exist (mismatched types)");
          ("FALSE AND (1 + 'a') = 2", "Ok (Bool false)");
          ("TRUE OR (1 + 'a') = 2", "Ok (Bool true)");
          ("NULL AND (1 + 'a') = 2",
           "Error operator does not exist (non-numeric operand)");
          ("(1 / 0) BETWEEN (1 + 'a') AND x", "Error division by zero");
          ("x IS DISTINCT FROM (1 / 0)", "Error no such column: x");
          ("1 IN ('a', 1 / 0)",
           "Error operator does not exist (mismatched types)");
          ("greatest(1 / 0, 1 + 'a')", "Error division by zero");
          ("x GLOB y", "Error GLOB is sqlite-specific");
          ("ifnull(x, y)", "Error no such function in this dialect");
        ] );
    ]
  in
  List.iter
    (fun (dialect, cases) ->
      let env = pivot_env dialect in
      List.iter
        (fun (sql, want) ->
          Alcotest.(check string)
            (Dialect.name dialect ^ ": " ^ sql)
            want
            (show_eval (Pqs.Interp.eval env (parse_expr sql))))
        cases)
    cases

(* Rectification (paper Algorithm 3) over every raw truth value and both
   targets: the decoration is identity on a match, NOT on a definite
   mismatch and IS [NOT] NULL on NULL, and the rectified expression
   evaluates to the target.  A refusal is an error, not a postcondition
   failure. *)
let test_rectify_decoration () =
  let show_tvl = Tvl.show in
  List.iter
    (fun (dialect, raws) ->
      let env = pivot_env dialect in
      List.iter
        (fun (sql, raw) ->
          let e = parse_expr sql in
          List.iter
            (fun target ->
              let tele = Telemetry.create () in
              let rectify =
                if Tvl.equal target Tvl.True then Pqs.Rectify.rectify
                else Pqs.Rectify.rectify_to_false
              in
              let label =
                Printf.sprintf "%s: %s to %s" (Dialect.name dialect) sql
                  (show_tvl target)
              in
              match rectify ~telemetry:tele env e with
              | Error msg -> Alcotest.failf "%s refused: %s" label msg
              | Ok (rectified, t) ->
                  Alcotest.(check string) (label ^ ": raw truth")
                    (show_tvl raw) (show_tvl t);
                  let want =
                    if Tvl.equal raw target then e
                    else if not (Tvl.equal raw Tvl.Unknown) then
                      A.Unary (A.Not, e)
                    else
                      A.Is
                        {
                          negated = Tvl.equal target Tvl.False;
                          arg = e;
                          rhs = A.Is_null;
                        }
                  in
                  Alcotest.(check bool) (label ^ ": decoration") true
                    (rectified = want);
                  Alcotest.(check string) (label ^ ": rectified truth")
                    ("Ok " ^ show_tvl target)
                    (match Pqs.Interp.eval_tvl env rectified with
                    | Ok t -> "Ok " ^ show_tvl t
                    | Error msg -> "Error " ^ msg);
                  Alcotest.(check int) (label ^ ": no postcondition failure")
                    0
                    (Telemetry.counter_value tele
                       "pqs_rectify_postcondition_failures_total"))
            [ Tvl.True; Tvl.False ])
        raws)
    [
      ( Dialect.Sqlite_like,
        [ ("c0 = 1", Tvl.True); ("c0 = 2", Tvl.False); ("c0 = NULL", Tvl.Unknown) ] );
      ( Dialect.Postgres_like,
        [
          ("c1 = 'a'", Tvl.True); ("c1 < 'a'", Tvl.False); ("c0 > NULL", Tvl.Unknown);
        ] );
    ];
  let tele = Telemetry.create () in
  let env = pivot_env Dialect.Postgres_like in
  (match Pqs.Rectify.rectify ~telemetry:tele env (parse_expr "1 + 'a'") with
  | Ok _ -> Alcotest.fail "postgres 1 + 'a' rectified"
  | Error msg ->
      Alcotest.(check string) "refusal message"
        "operator does not exist (non-numeric operand)" msg);
  Alcotest.(check int) "a refusal is no postcondition failure" 0
    (Telemetry.counter_value tele "pqs_rectify_postcondition_failures_total")

let () =
  Alcotest.run "pqs"
    [
      ( "agreement",
        List.map QCheck_alcotest.to_alcotest
          [
            agreement_prop Dialect.Sqlite_like;
            agreement_prop Dialect.Mysql_like;
            agreement_prop Dialect.Postgres_like;
          ] );
      ( "soundness",
        [
          Alcotest.test_case "sqlite" `Slow (test_soundness Dialect.Sqlite_like);
          Alcotest.test_case "mysql" `Slow (test_soundness Dialect.Mysql_like);
          Alcotest.test_case "postgres" `Slow (test_soundness Dialect.Postgres_like);
        ] );
      ( "detection",
        [
          Alcotest.test_case "partial index (L1)" `Slow
            (test_detects Engine.Bug.Sq_partial_index_implies_not_null
               Pqs.Bug_report.Containment);
          Alcotest.test_case "rtrim compare (L5)" `Slow
            (test_detects Engine.Bug.Sq_rtrim_compare_asymmetric
               Pqs.Bug_report.Containment);
          Alcotest.test_case "real pk corruption (L10)" `Slow
            (test_detects Engine.Bug.Sq_real_pk_or_replace_corrupt
               Pqs.Bug_report.Error_oracle);
          Alcotest.test_case "check table crash (L14)" `Slow
            (test_detects Engine.Bug.My_check_upgrade_expr_index_crash
               Pqs.Bug_report.Crash);
          Alcotest.test_case "double negation (L13)" `Slow
            (test_detects Engine.Bug.My_double_negation_fold
               Pqs.Bug_report.Containment);
          Alcotest.test_case "inherit group by (L15) via error/contains" `Slow
            (fun () ->
              match
                detect Engine.Bug.Pg_stats_expr_index_bitmapset
                  ~max_queries:10000
              with
              | None -> Alcotest.fail "bitmapset bug not detected"
              | Some _ -> ());
        ] );
      ( "reduction",
        [
          Alcotest.test_case "reduce report" `Slow test_reduction;
          Alcotest.test_case "reducer golden" `Quick test_reduction_golden;
          Alcotest.test_case "verdicts equal buggy-first" `Quick
            test_verdict_equality;
        ] );
      ( "synthesis",
        [ Alcotest.test_case "draw order" `Quick test_draw_order ] );
      ( "interp",
        [
          Alcotest.test_case "refusal order" `Quick test_refusal_order;
          Alcotest.test_case "rectify decoration" `Quick
            test_rectify_decoration;
        ] );
      ( "runner",
        [ Alcotest.test_case "round golden" `Quick test_round_golden ] );
    ]
