(* The abstract-interpretation layer and the const-opt oracle:

   - const_fold: evaluator-backed folding resolves pivot bindings
     (case-insensitively, ambiguity fails the fold), and the
     metadata-free / substitutability checks answer the static questions
     the simplifier gates rewrites on;
   - simplify goldens: the rewriter leaves exactly the operand shapes a
     broken engine constant folder mishandles (a NULL literal under AND /
     NOT, substituted literal comparisons), prunes dead CASE branches,
     and records a provenance trail;
   - soundness: a 1,000-seed sweep over generated databases finds zero
     divergences on the correct engine;
   - detection: each injected constant-folding bug diverges on a bounded
     sweep; the oracle reports it with the rewrite trail; the repro
     bundle round-trips through [Trace.Bundle] and [Replay.check_file];
   - plumbing: oracle token round-trip, registry entry, stats counters
     merge additively. *)

open Sqlval
module A = Sqlast.Ast
module CF = Analysis.Const_fold
module Simplify = Analysis.Simplify

(* ---------- helpers ---------- *)

let parse_sql sql =
  match Sqlparse.Parser.parse_stmt sql with
  | Ok s -> s
  | Error e -> Alcotest.fail (Sqlparse.Parser.show_error e)

let where_of sql =
  match parse_sql ("SELECT * FROM t0 WHERE " ^ sql) with
  | A.Select_stmt (A.Q_select { A.sel_where = Some w; _ }) -> w
  | _ -> Alcotest.fail ("no WHERE parsed from " ^ sql)

let print_expr e = Sqlast.Sql_printer.expr Dialect.Sqlite_like e

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

let binding ?(table = "t0") ?(ty = Datatype.Any)
    ?(coll = Collation.Binary) name v =
  { CF.b_table = table; b_column = name; b_value = v; b_type = ty;
    b_collation = coll }

(* pivot env: t0.c0 = 7, t0.c1 = 'abc' *)
let pivot_env () =
  CF.env Dialect.Sqlite_like
    [ binding "c0" (Value.Int 7L); binding "c1" (Value.Text "abc") ]

(* ---------- const_fold ---------- *)

let test_fold_basics () =
  let env = pivot_env () in
  Alcotest.(check bool) "column resolves" true
    (CF.fold env (A.col "c0") = Some (Value.Int 7L));
  Alcotest.(check bool) "qualified column resolves case-insensitively" true
    (CF.fold env (A.Col { table = Some "T0"; column = "C1" })
    = Some (Value.Text "abc"));
  Alcotest.(check bool) "arith folds through the evaluator" true
    (CF.fold env (where_of "c0 + 1 = 8") <> None);
  Alcotest.(check bool) "unknown column fails the fold" true
    (CF.fold env (A.col "nope") = None);
  let amb =
    CF.env Dialect.Sqlite_like
      [ binding ~table:"a" "c" (Value.Int 1L);
        binding ~table:"b" "c" (Value.Int 2L) ]
  in
  Alcotest.(check bool) "ambiguous unqualified reference fails" true
    (CF.fold amb (A.col "c") = None);
  Alcotest.(check bool) "qualification disambiguates" true
    (CF.fold amb (A.Col { table = Some "b"; column = "c" })
    = Some (Value.Int 2L));
  Alcotest.(check bool) "const_env folds literals only" true
    (CF.fold (CF.const_env Dialect.Sqlite_like) (where_of "1 + 1 = 2")
    <> None)

let test_metadata_free () =
  let env = pivot_env () in
  List.iter
    (fun (sql, expected) ->
      Alcotest.(check bool) (sql ^ " metadata-free") expected
        (CF.metadata_free env (where_of sql)))
    [
      ("c0", false);
      ("CAST(c0 AS TEXT)", false);
      ("c0 COLLATE NOCASE", false);
      ("+c0", false);
      ("c0 + 1", true);
      ("abs(c0)", true);
      ("1", true);
    ]

(* ---------- simplify goldens ---------- *)

let rules r =
  List.map (fun (rw : Simplify.rewrite) -> rw.Simplify.rw_rule)
    r.Simplify.res_trail

(* probe A: the NULL-under-AND residue a broken folder mishandles *)
let test_simplify_null_under_and () =
  let env = pivot_env () in
  let r = Simplify.simplify env (where_of "NOT ((c0 = NULL) AND (1 = 2))") in
  Alcotest.(check bool) "comparison with NULL folds to the NULL literal" true
    (A.equal_expr r.Simplify.res_expr
       (A.Unary
          ( A.Not,
            A.Binary
              ( A.And,
                A.Lit Value.Null,
                A.Binary
                  (A.Eq, A.Lit (Value.Int 1L), A.Lit (Value.Int 2L)) ) )));
  Alcotest.(check (list string)) "trail" [ "fold-null-cmp" ] (rules r)

let test_simplify_substitution () =
  let env = pivot_env () in
  let r = Simplify.simplify env (where_of "c0 > 5") in
  Alcotest.(check string) "both operands substituted"
    (print_expr (A.Binary (A.Gt, A.Lit (Value.Int 7L), A.Lit (Value.Int 5L))))
    (print_expr r.Simplify.res_expr);
  Alcotest.(check (list string)) "trail" [ "subst-cmp" ] (rules r);
  (* a constant comparison is already in simplified form: the engine's
     own folder must still see it *)
  let r = Simplify.simplify env (where_of "1 = 2") in
  Alcotest.(check (list string)) "no rewrite on a literal comparison" []
    (rules r)

let test_simplify_prune_and_or () =
  let env = pivot_env () in
  let r = Simplify.simplify env (where_of "0 AND (c0 = NULL)") in
  Alcotest.(check bool) "FALSE AND x prunes to FALSE" true
    (A.equal_expr r.Simplify.res_expr (A.Lit (Value.Int 0L)));
  let r = Simplify.simplify env (where_of "1 AND (c0 = NULL)") in
  Alcotest.(check bool) "TRUE AND x prunes to x in boolean context" true
    (A.equal_expr r.Simplify.res_expr (A.Lit Value.Null));
  Alcotest.(check (list string)) "prune trail records both steps"
    [ "fold-null-cmp"; "prune-and-true" ]
    (List.sort String.compare (rules r));
  let r = Simplify.simplify env (where_of "1 OR (c0 = NULL)") in
  Alcotest.(check bool) "TRUE OR x prunes to TRUE" true
    (A.equal_expr r.Simplify.res_expr (A.Lit (Value.Int 1L)))

let test_simplify_case () =
  let env = pivot_env () in
  let r =
    Simplify.simplify env
      (where_of "CASE WHEN 1 = 2 THEN c0 WHEN c0 = 7 THEN 1 ELSE 0 END")
  in
  (* first branch is dead (constant false cond), second folds true on the
     pivot binding and truncates into the else position *)
  Alcotest.(check bool) "dead branch pruned, taken branch truncates" true
    (A.equal_expr r.Simplify.res_expr (A.Lit (Value.Int 1L)));
  Alcotest.(check bool) "dead branch recorded in the trail" true
    (List.mem "prune-case-branch" (rules r));
  (* a CASE exposes no affinity to an enclosing comparison, so a taken
     THEN or an ELSE that is a CAST (a metadata-bearing root) must not
     replace it: [CAST(-28 AS TEXT) <= 0] compares as text and reads 1
     where the CASE form reads 0 *)
  List.iter
    (fun sql ->
      let e = where_of sql in
      let r = Simplify.simplify env e in
      Alcotest.(check (option string))
        ("same value after simplifying " ^ sql)
        (Option.map Value.show (CF.fold env e))
        (Option.map Value.show (CF.fold env r.Simplify.res_expr)))
    [
      "(CASE WHEN c0 <> '-7 ' THEN CAST(-28 AS TEXT) END) <= (0 >= '-7')";
      "(CASE WHEN c0 = 8 THEN 1 ELSE CAST(-28 AS TEXT) END) <= (0 >= '-7')";
    ]

let test_simplify_skeleton_preserved () =
  let env = pivot_env () in
  (* IS / NOT skeletons survive: they are the rectifier's decoration and
     the engine folder's work surface *)
  let r = Simplify.simplify env (where_of "(NOT (c0 = NULL)) IS NULL") in
  Alcotest.(check bool) "IS NULL skeleton kept over NOT NULL" true
    (A.equal_expr r.Simplify.res_expr
       (A.Is
          {
            negated = false;
            arg = A.Unary (A.Not, A.Lit Value.Null);
            rhs = A.Is_null;
          }))

(* ---------- the oracle on a fixture ---------- *)

let fold_where = "NOT ((c0 = NULL) AND (1 = 2))"

let repro_script =
  [
    "CREATE TABLE t0(c0 INT, c1 TEXT)";
    "INSERT INTO t0(c0, c1) VALUES (1,'a'), (2,'b')";
    Printf.sprintf "SELECT * FROM t0 WHERE %s" fold_where;
  ]

let fixture_session ?(bugs = Engine.Bug.empty_set) () =
  let session = Engine.Session.create ~bugs Dialect.Sqlite_like in
  List.iter
    (fun sql -> ignore (Engine.Session.execute session (parse_sql sql)))
    repro_script;
  session

let fixture_pivot session =
  match Pqs.Schema_info.tables_of_session session with
  | ti :: _ -> [ (ti, [| Value.Int 1L; Value.Text "a" |]) ]
  | [] -> Alcotest.fail "fixture has no table"

let fixture_check session =
  let pivot = fixture_pivot session in
  let ti, row = List.hd pivot in
  ( pivot,
    A.Q_compound
          ( A.Intersect,
            A.Q_values [ List.map (fun v -> A.Lit v) (Array.to_list row) ],
            A.Q_select
              {
                A.sel_distinct = false;
                sel_items = [ A.Star ];
                sel_from =
                  [ A.F_table { name = ti.Pqs.Schema_info.ti_name; alias = None } ];
                sel_where = Some (where_of fold_where);
                sel_group_by = [];
                sel_having = None;
                sel_order_by = [];
                sel_limit = None;
                sel_offset = None;
              } ) )

let fold_bugs = Engine.Bug.set_of_list [ Engine.Bug.Sq_fold_null_and ]

let test_fixture_sound () =
  let session = fixture_session () in
  let pivot, q = fixture_check session in
  (match Pqs.Const_opt.simplified_stmt session ~pivot q with
  | None -> Alcotest.fail "no rewrite applied on the fixture"
  | Some (_, r) ->
      Alcotest.(check (list string)) "trail" [ "fold-null-cmp" ] (rules r));
  Alcotest.(check bool) "no divergence on the correct engine" false
    (Pqs.Const_opt.reproduce session ~pivot q)

let test_fixture_detects () =
  let session = fixture_session ~bugs:fold_bugs () in
  let pivot, q = fixture_check session in
  Alcotest.(check bool) "NULL-under-AND fold bug diverges" true
    (Pqs.Const_opt.reproduce session ~pivot q)

let observe ?(bugs = Engine.Bug.empty_set) () =
  let session = fixture_session ~bugs () in
  let pivot, q = fixture_check session in
  let ctx =
    {
      Pqs.Oracle.ctx_dialect = Dialect.Sqlite_like;
      ctx_session = session;
      ctx_db_seed = 7;
      ctx_rng = Pqs.Rng.make ~seed:7;
      ctx_telemetry = Telemetry.noop;
    }
  in
  Pqs.Oracle.observe
    (* stride 1: the fixture is a single directed check, not a sample *)
    (Pqs.Const_opt.oracle ~sample_every:1 ())
    ctx
    (Pqs.Oracle.Containment_check
       {
         Pqs.Oracle.check_stmt = A.Select_stmt q;
         negative = false;
         pivot_found = true;
         check_pivot = pivot;
       })

let test_oracle_verdicts () =
  (match observe () with
  | Pqs.Oracle.Pass -> ()
  | Pqs.Oracle.Report { message; _ } ->
      Alcotest.fail ("spurious report: " ^ message));
  match observe ~bugs:fold_bugs () with
  | Pqs.Oracle.Pass -> Alcotest.fail "oracle missed the fold bug"
  | Pqs.Oracle.Report { kind; message } ->
      Alcotest.(check bool) "reports as Const_opt" true
        (kind = Pqs.Bug_report.Const_opt);
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("message carries " ^ sub) true
            (contains_sub sub message))
        [ "constant-optimization divergence"; "fold-null-cmp"; "INTERSECT" ]

(* ---------- soundness sweeps ---------- *)

let test_soundness_sweep () =
  let r = Pqs.Const_opt.sweep ~seed_lo:1 ~seed_hi:1000 Dialect.Sqlite_like in
  (* the counts pin the seed corpus: a drift in generation, pivot choice
     or synthesis changes them *)
  Alcotest.(check int) "seeds swept" 1000 r.Pqs.Const_opt.co_seeds;
  Alcotest.(check int) "queries checked" 8010 r.Pqs.Const_opt.co_queries;
  Alcotest.(check int) "checks simplified and re-ran" 6548
    r.Pqs.Const_opt.co_checks;
  (* 10733 before a searched CASE stopped collapsing to a metadata-bearing
     result: three one-branch CASEs over a column, CAST or COLLATE result
     are now left whole *)
  Alcotest.(check int) "rewrites applied" 10730 r.Pqs.Const_opt.co_rewrites;
  Alcotest.(check (list (pair int string)))
    "no divergence on the correct engine" []
    r.Pqs.Const_opt.co_divergences

let test_sweep_other_dialects () =
  List.iter
    (fun dialect ->
      let r = Pqs.Const_opt.sweep ~seed_lo:1 ~seed_hi:300 dialect in
      Alcotest.(check (list (pair int string)))
        (Dialect.show dialect ^ " sweep is clean")
        [] r.Pqs.Const_opt.co_divergences)
    [ Dialect.Mysql_like; Dialect.Postgres_like ]

let test_sweep_deterministic () =
  let run () =
    Pqs.Const_opt.sweep ~seed_lo:1 ~seed_hi:40 Dialect.Sqlite_like
  in
  Alcotest.(check bool) "two identical sweeps" true (run () = run ())

(* ---------- detection ---------- *)

let test_detects bug () =
  let r =
    Pqs.Const_opt.sweep
      ~bugs:(Engine.Bug.set_of_list [ bug ])
      ~seed_lo:1 ~seed_hi:300 Dialect.Sqlite_like
  in
  Alcotest.(check bool)
    (Engine.Bug.show bug ^ " diverges on the sweep")
    true
    (r.Pqs.Const_opt.co_divergences <> [])

(* ---------- plumbing: token, bundle, reducer, stats ---------- *)

let test_oracle_token () =
  Alcotest.(check string) "token" "const_opt"
    (Pqs.Bug_report.oracle_token Pqs.Bug_report.Const_opt);
  Alcotest.(check bool) "token round-trips" true
    (Pqs.Bug_report.oracle_of_token "const_opt" = Some Pqs.Bug_report.Const_opt);
  match Pqs.Oracle.Registry.find "const_opt" with
  | None -> Alcotest.fail "const_opt not registered"
  | Some e ->
      Alcotest.(check (option string)) "flag" (Some "const-opt")
        e.Pqs.Oracle.Registry.reg_flag;
      Alcotest.(check bool) "not a default oracle" false
        e.Pqs.Oracle.Registry.reg_default

let divergence_message () =
  let session = fixture_session ~bugs:fold_bugs () in
  let pivot, q = fixture_check session in
  match Pqs.Const_opt.simplified_stmt session ~pivot q with
  | None -> Alcotest.fail "no simplified variant"
  | Some (q', r) -> Pqs.Const_opt.message session q' r

let test_bundle_replay () =
  let msg = divergence_message () in
  let recorder = Trace.create ~capacity:4 () in
  Trace.begin_round recorder ~seed:7 ~dialect:Dialect.Sqlite_like;
  let bundle =
    {
      Trace.Bundle.b_seed = 7;
      b_dialect = Dialect.Sqlite_like;
      b_oracle = Pqs.Bug_report.oracle_token Pqs.Bug_report.Const_opt;
      b_message = msg;
      b_phase = "containment";
      b_bugs = [ Engine.Bug.show Engine.Bug.Sq_fold_null_and ];
      b_statements =
        (match fixture_check (fixture_session ()) with
        | _, q ->
            List.map parse_sql
              (List.filter
                 (fun s -> not (contains_sub "SELECT" s))
                 repro_script)
            @ [ A.Select_stmt q ]);
      b_expected = Some "nonempty";
      b_actual = Some "empty";
      b_plan = [];
      b_trace_json = Trace.to_json recorder;
    }
  in
  Alcotest.(check string) "bundle directory naming" "bundle-000007-const_opt"
    (Trace.Bundle.dir_name bundle);
  let dir = fresh_dir "pqs_constopt_bundle" in
  let sql_path = Trace.Bundle.write ~dir bundle in
  let headers, _ = Trace.Bundle.parse_script_text (read_file sql_path) in
  Alcotest.(check (option string)) "oracle header" (Some "const_opt")
    (List.assoc_opt "oracle" headers);
  match Pqs.Replay.check_file sql_path with
  | Error e -> Alcotest.fail ("broken bundle: " ^ e)
  | Ok o ->
      Alcotest.(check bool) "const_opt bundles are recheckable" true
        o.Pqs.Replay.recheckable;
      Alcotest.(check bool) "replay reproduces the divergence" true
        o.Pqs.Replay.reproduced

let test_reducer () =
  let _, q = fixture_check (fixture_session ()) in
  let statements =
    List.map parse_sql
      (List.filter (fun s -> not (contains_sub "SELECT" s)) repro_script)
    @ [ A.Select_stmt q ]
  in
  let report =
    {
      Pqs.Bug_report.dialect = Dialect.Sqlite_like;
      oracle = Pqs.Bug_report.Const_opt;
      message = "constant-optimization divergence";
      statements;
      reduced = None;
      seed = 7;
      phase = "containment";
      bundle = None;
    }
  in
  match
    (Pqs.Reducer.reduce_report report ~bugs:fold_bugs).Pqs.Bug_report.reduced
  with
  | None -> Alcotest.fail "reduction produced nothing"
  | Some reduced -> (
      match List.rev reduced with
      | A.Select_stmt _ :: _ ->
          Alcotest.(check bool) "reduced script still present" true
            (List.length reduced >= 2)
      | _ -> Alcotest.fail "detecting SELECT not kept last")

(* A round draws pivots from views too, so the recheck tries the rows of
   a view the containment query reads: the fixture's divergence, read
   through a view, reproduces. *)
let test_recheck_view () =
  let q =
    match fixture_check (fixture_session ()) with
    | _, A.Q_compound (op, values, A.Q_select sel) ->
        A.Q_compound
          ( op,
            values,
            A.Q_select
              { sel with A.sel_from = [ A.F_table { name = "v0"; alias = None } ] }
          )
    | _ -> Alcotest.fail "fixture check is not a compound"
  in
  let statements =
    List.map parse_sql
      (List.filter (fun s -> not (contains_sub "SELECT" s)) repro_script
      @ [ "CREATE VIEW v0 AS SELECT * FROM t0" ])
    @ [ A.Select_stmt q ]
  in
  Alcotest.(check bool) "divergence over a view reproduces" true
    (Pqs.Reducer.manifestation_check ~dialect:Dialect.Sqlite_like
       ~bugs:fold_bugs ~oracle:Pqs.Bug_report.Const_opt statements)

let test_stats_merge () =
  let a =
    { Pqs.Stats.empty with Pqs.Stats.const_checks = 3; const_divergences = 1 }
  and b =
    { Pqs.Stats.empty with Pqs.Stats.const_checks = 4; const_divergences = 2 }
  in
  let m = Pqs.Stats.merge a b in
  Alcotest.(check int) "const_checks add" 7 m.Pqs.Stats.const_checks;
  Alcotest.(check int) "const_divergences add" 3 m.Pqs.Stats.const_divergences;
  Alcotest.(check bool) "summary renders the counters" true
    (contains_sub "const-checks=7" (Pqs.Stats.summary m))

(* ---------- suite ---------- *)

let () =
  Alcotest.run "const_opt"
    [
      ( "const_fold",
        [
          Alcotest.test_case "fold basics" `Quick test_fold_basics;
          Alcotest.test_case "metadata-free" `Quick test_metadata_free;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "NULL under AND" `Quick
            test_simplify_null_under_and;
          Alcotest.test_case "operand substitution" `Quick
            test_simplify_substitution;
          Alcotest.test_case "AND/OR pruning" `Quick test_simplify_prune_and_or;
          Alcotest.test_case "CASE pruning" `Quick test_simplify_case;
          Alcotest.test_case "skeleton preservation" `Quick
            test_simplify_skeleton_preserved;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "sound on the fixture" `Quick test_fixture_sound;
          Alcotest.test_case "detects on the fixture" `Quick
            test_fixture_detects;
          Alcotest.test_case "verdicts" `Quick test_oracle_verdicts;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "1,000-seed sweep" `Quick test_soundness_sweep;
          Alcotest.test_case "mysql/pg sweeps" `Quick test_sweep_other_dialects;
          Alcotest.test_case "sweep is deterministic" `Quick
            test_sweep_deterministic;
        ] );
      ( "detection",
        [
          Alcotest.test_case "NULL-under-AND fold" `Quick
            (test_detects Engine.Bug.Sq_fold_null_and);
          Alcotest.test_case "affinity re-derivation" `Quick
            (test_detects Engine.Bug.Sq_fold_affinity_cmp);
          Alcotest.test_case "NOT-NULL fold" `Quick
            (test_detects Engine.Bug.Sq_fold_not_null_true);
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "oracle token and registry" `Quick
            test_oracle_token;
          Alcotest.test_case "repro bundle replays" `Quick test_bundle_replay;
          Alcotest.test_case "reducer keeps the witness" `Quick test_reducer;
          Alcotest.test_case "recheck pivots on views" `Quick
            test_recheck_view;
          Alcotest.test_case "stats counters merge" `Quick test_stats_merge;
        ] );
    ]
