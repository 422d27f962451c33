(* The static analyzer's contracts (lib/analysis + the lint oracle):

   - golden diagnostics: hand-written ill-typed SQL, fed through the real
     parser, produces exactly the expected structured diagnostics;
   - acceptance: a 1,000-seed Gen_query sweep across the three dialects
     is diagnostic-free — the generators are well-typed by construction,
     so any diagnostic is an analyzer (or generator) defect;
   - soundness: the 3VL nullability the analyzer infers for a rectified
     WHERE clause is consistent with the oracle interpreter's concrete
     evaluation on the pivot row, and a rectified predicate is never
     statically DEFINITELY NULL;
   - neutrality: a campaign with the lint oracle reports the identical
     bug set as one without it on the same seeds. *)

open Sqlval
module A = Sqlast.Ast

let parse sql =
  match Sqlparse.Parser.parse_stmt sql with
  | Ok stmt -> stmt
  | Error e ->
      Alcotest.failf "parse failure on %S: %s" sql (Sqlparse.Parser.show_error e)

(* ---------- golden diagnostics ---------- *)

let golden_env dialect =
  let open Analysis.Typecheck in
  let col name ty =
    {
      col_name = name;
      col_type = ty;
      col_collation = Collation.Binary;
      col_nullability = Analysis.Nullability.Maybe_null;
    }
  in
  let int_t = Datatype.Int { width = Datatype.Regular; unsigned = false } in
  Analysis.env dialect
    [
      { tab_name = "t0"; tab_columns = [ col "c0" int_t; col "c1" Datatype.Text ] };
      { tab_name = "t1"; tab_columns = [ col "c0" Datatype.Bool ] };
    ]

let golden_cases =
  [
    ( Dialect.Sqlite_like,
      "SELECT missing FROM t0",
      [ "error[unknown-column] at query.item1: unknown column missing" ] );
    ( Dialect.Sqlite_like,
      "SELECT c0 FROM t0, t1",
      [ "error[ambiguous-column] at query.item1: ambiguous column name c0" ] );
    ( Dialect.Sqlite_like,
      "SELECT nope.* FROM t0",
      [ "error[unknown-table] at query.item1: nope.* refers to no table in scope" ]
    );
    ( Dialect.Sqlite_like,
      "SELECT ABS(c0, c1) FROM t0",
      [ "error[wrong-arity] at query.item1: abs expects 1 argument, got 2" ] );
    ( Dialect.Mysql_like,
      "SELECT TYPEOF(c0) FROM t0",
      [
        "error[unavailable-function] at query.item1: typeof is not available \
         in the mysql dialect";
      ] );
    ( Dialect.Postgres_like,
      "SELECT LOWER(c0) FROM t0",
      [
        "error[type-mismatch] at query.item1: lower argument 1 cannot be \
         integer (text expected)";
      ] );
    ( Dialect.Postgres_like,
      "SELECT c0 FROM t0 WHERE c1",
      [
        "error[boolean-context] at query.where: argument of a boolean context \
         must be boolean, not text";
      ] );
    ( Dialect.Mysql_like,
      "SELECT c0 FROM t0 WHERE c1 GLOB 'x*'",
      [
        "error[dialect-mismatch] at query.where: GLOB is sqlite-specific, not \
         available in mysql";
      ] );
    ( Dialect.Postgres_like,
      "SELECT c0 FROM t1 WHERE c0 IS 1",
      [
        "error[type-mismatch] at query.where: cannot compare boolean with \
         integer in the postgres dialect";
      ] );
    ( Dialect.Sqlite_like,
      "SELECT MIN(MAX(c0)) FROM t0",
      [
        "error[nested-aggregate] at query.item1.arg: aggregate function calls \
         cannot be nested";
      ] );
    ( Dialect.Sqlite_like,
      "SELECT c0 FROM t0 WHERE SUM(c0) = 3",
      [
        "error[misplaced-aggregate] at query.where.lhs: aggregate function in \
         a context that forbids aggregates";
      ] );
    ( Dialect.Sqlite_like,
      "SELECT *",
      [ "error[empty-select] at query.item1: SELECT * with no FROM clause" ] );
    ( Dialect.Sqlite_like,
      "SELECT c0 FROM t0 WHERE NULL",
      [
        "warning[null-predicate] at query.where: the WHERE clause always \
         evaluates to NULL and selects nothing";
      ] );
    ( Dialect.Sqlite_like,
      "VALUES (1), (2, 3)",
      [
        "error[column-count-mismatch] at query.row2: VALUES row has 2 \
         columns, expected 1";
      ] );
    ( Dialect.Mysql_like,
      "SELECT c0 FROM t0 INTERSECT SELECT c0, c1 FROM t0",
      [ "error[column-count-mismatch] at query: compound arms have 1 and 2 columns" ]
    );
    ( Dialect.Postgres_like,
      "SELECT c0 FROM t0 INTERSECT SELECT c1 FROM t0",
      [
        "error[type-mismatch] at query: INTERSECT column 1 combines integer \
         with text";
      ] );
    ( Dialect.Postgres_like,
      "SELECT c0 FROM t0 WHERE c0 = c1",
      [
        "error[type-mismatch] at query.where: cannot compare integer with \
         text in the postgres dialect";
      ] );
    (* well-typed controls stay clean *)
    (Dialect.Sqlite_like, "SELECT c0 FROM t0 WHERE c1 GLOB 'x*'", []);
    (Dialect.Postgres_like, "SELECT LOWER(c1), c0 + 1 FROM t0 WHERE c0 = 3", []);
  ]

let test_golden () =
  List.iter
    (fun (dialect, sql, expected) ->
      let env = golden_env dialect in
      let got =
        List.map Analysis.Diagnostic.to_string (Analysis.check_stmt env (parse sql))
      in
      Alcotest.(check (list string))
        (Printf.sprintf "[%s] %s" (Dialect.name dialect) sql)
        expected got)
    golden_cases

(* ---------- nullability lattice laws ---------- *)

let test_nullability_lattice () =
  let open Analysis.Nullability in
  let all = [ Not_null; Maybe_null; Definitely_null ] in
  List.iter
    (fun a ->
      Alcotest.(check bool) "join idempotent" true (equal (join a a) a);
      List.iter
        (fun b ->
          Alcotest.(check bool) "join commutes" true
            (equal (join a b) (join b a)))
        all)
    all;
  (* strict: NULL poisons; coalesce: first non-null wins *)
  Alcotest.(check bool) "strict absorbs definite NULL" true
    (equal (strict [ Not_null; Definitely_null ]) Definitely_null);
  Alcotest.(check bool) "strict of non-nulls" true
    (equal (strict [ Not_null; Not_null ]) Not_null);
  Alcotest.(check bool) "coalesce short-circuits" true
    (equal (coalesce [ Definitely_null; Not_null ]) Not_null);
  Alcotest.(check bool) "coalesce of definite NULLs" true
    (equal (coalesce [ Definitely_null; Definitely_null ]) Definitely_null);
  (* of_value abstracts concrete values soundly *)
  Alcotest.(check bool) "NULL abstracts to definitely-null" true
    (equal (of_value Value.Null) Definitely_null);
  Alcotest.(check bool) "non-NULL abstracts to not-null" true
    (equal (of_value (Value.Int 3L)) Not_null);
  Alcotest.(check bool) "consistency is reflexive through of_value" true
    (consistent_with_value (of_value Value.Null) Value.Null
    && consistent_with_value (of_value (Value.Text "x")) (Value.Text "x"));
  Alcotest.(check bool) "maybe-null is consistent with anything" true
    (consistent_with_value Maybe_null Value.Null
    && consistent_with_value Maybe_null (Value.Int 0L));
  Alcotest.(check bool) "not-null rejects NULL" false
    (consistent_with_value Not_null Value.Null);
  Alcotest.(check bool) "definitely-null rejects values" false
    (consistent_with_value Definitely_null (Value.Int 0L))

(* ---------- acceptance: the 1,000-seed generator sweep ---------- *)

(* [queries] and [plans] pin the seed corpus: a drift in generation,
   pivot choice or synthesis changes them *)
let sweep_clean dialect ~seed_lo ~seed_hi ~queries ~plans () =
  let r = Pqs.Lint.sweep ~seed_lo ~seed_hi dialect in
  Alcotest.(check int) "every seed visited" (seed_hi - seed_lo + 1) r.Pqs.Lint.sw_seeds;
  Alcotest.(check int) "sweep analyzed queries" queries r.Pqs.Lint.sw_queries;
  Alcotest.(check int) "sweep linted plans" plans r.Pqs.Lint.sw_plans;
  Alcotest.(check (list string))
    "generated queries are diagnostic-free" []
    (List.map
       (fun (seed, d) ->
         Printf.sprintf "seed %d: %s" seed (Analysis.Diagnostic.to_string d))
       r.Pqs.Lint.sw_diags)

(* ---------- soundness: nullability vs the oracle interpreter ---------- *)

let test_pivot_crosscheck () =
  let checked = ref 0 in
  List.iter
    (fun dialect ->
      for seed = 1 to 40 do
        let db = Pqs.Corpus.build ~seed dialect in
        let rng = db.Pqs.Corpus.rng and session = db.Pqs.Corpus.session in
        match Pqs.Corpus.sources session with
        | [] -> ()
        | (ti, rows) :: _ -> (
            let pivot = [ (ti, Pqs.Rng.pick rng rows) ] in
            let csl =
              Engine.Options.case_sensitive_like
                (Engine.Session.options session)
            in
            match
              Pqs.Gen_query.synthesize ~rng ~dialect ~pivot
                ~case_sensitive_like:csl ~max_depth:4 ~check_expressions:true
                ()
            with
            | Error _ -> ()
            | Ok t -> (
                match t.Pqs.Gen_query.query.A.sel_where with
                | None -> ()
                | Some where ->
                    incr checked;
                    let ienv =
                      Pqs.Interp.env_of_pivot ~case_sensitive_like:csl dialect
                        pivot
                    in
                    let aenv = Pqs.Lint.env_of_pivot dialect pivot in
                    List.iter
                      (fun conjunct ->
                        let ty, diags =
                          Analysis.check_expr aenv conjunct
                        in
                        (* rectified conjuncts typecheck cleanly... *)
                        Alcotest.(check (list string))
                          "rectified conjunct has no error diagnostics" []
                          (List.map Analysis.Diagnostic.to_string
                             (List.filter Analysis.Diagnostic.is_error diags));
                        let null =
                          ty.Analysis.Typecheck.ty_nullability
                        in
                        (* ...are never statically certain to be NULL... *)
                        Alcotest.(check bool)
                          "rectified conjunct is not definitely-null" false
                          (Analysis.Nullability.equal null
                             Analysis.Nullability.Definitely_null);
                        (* ...and the static nullability abstracts the
                           interpreter's concrete result on the pivot row *)
                        match Pqs.Interp.eval ienv conjunct with
                        | Error _ -> ()
                        | Ok v ->
                            Alcotest.(check bool)
                              "static nullability consistent with concrete \
                               evaluation"
                              true
                              (Analysis.Nullability.consistent_with_value null
                                 v))
                      (Engine.Planner.conjuncts where)))
      done)
    [ Dialect.Sqlite_like; Dialect.Mysql_like; Dialect.Postgres_like ];
  Alcotest.(check bool) "cross-checked a meaningful corpus" true (!checked > 30)

(* ---------- neutrality: the lint oracle changes no campaign verdict ---------- *)

let report_key (r : Pqs.Bug_report.t) =
  ( (r.Pqs.Bug_report.seed, Pqs.Bug_report.oracle_label r.Pqs.Bug_report.oracle),
    (r.Pqs.Bug_report.message, Pqs.Bug_report.script r) )

let test_campaign_neutral () =
  let bugs =
    Engine.Bug.set_of_list (Engine.Bug.for_dialect Dialect.Sqlite_like)
  in
  let plain = Pqs.Runner.Config.make ~bugs Dialect.Sqlite_like in
  let linted =
    Pqs.Runner.Config.make ~bugs
      ~oracles:(Pqs.Oracle.defaults @ [ Pqs.Lint.oracle ])
      Dialect.Sqlite_like
  in
  let a = Pqs.Campaign.run ~domains:2 ~seed_lo:1 ~seed_hi:20 plain in
  let b = Pqs.Campaign.run ~domains:2 ~seed_lo:1 ~seed_hi:20 linted in
  Alcotest.(check bool) "campaign found bugs to compare" true
    (Pqs.Campaign.reports a <> []);
  Alcotest.(check (list (pair (pair int string) (pair string string))))
    "identical bug sets with and without the lint oracle"
    (List.map report_key (Pqs.Campaign.reports a))
    (List.map report_key (Pqs.Campaign.reports b));
  (* the lint oracle did run: its work is visible in the stats *)
  Alcotest.(check bool) "lint checks counted" true
    (b.Pqs.Campaign.stats.Pqs.Stats.lint_checks > 0);
  Alcotest.(check int) "no lint checks without the oracle" 0
    a.Pqs.Campaign.stats.Pqs.Stats.lint_checks;
  (* and on a clean engine it stays silent over a real run *)
  let clean =
    Pqs.Runner.Config.make
      ~oracles:(Pqs.Oracle.defaults @ [ Pqs.Lint.oracle ])
      Dialect.Sqlite_like
  in
  let c = Pqs.Campaign.run ~domains:2 ~seed_lo:1 ~seed_hi:12 clean in
  Alcotest.(check (list string))
    "no findings on a clean engine" []
    (List.map
       (fun r -> r.Pqs.Bug_report.message)
       (Pqs.Campaign.reports c));
  Alcotest.(check int) "no diagnostics on a clean engine" 0
    c.Pqs.Campaign.stats.Pqs.Stats.lint_diagnostics

let () =
  Alcotest.run "analysis"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "golden ill-typed SQL" `Quick test_golden;
          Alcotest.test_case "nullability lattice laws" `Quick
            test_nullability_lattice;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "sqlite seeds 1-400" `Quick
            (sweep_clean Dialect.Sqlite_like ~seed_lo:1 ~seed_hi:400 ~queries:1200
               ~plans:757);
          Alcotest.test_case "mysql seeds 401-700" `Quick
            (sweep_clean Dialect.Mysql_like ~seed_lo:401 ~seed_hi:700 ~queries:900
               ~plans:544);
          Alcotest.test_case "postgres seeds 701-1000" `Quick
            (sweep_clean Dialect.Postgres_like ~seed_lo:701 ~seed_hi:1000
               ~queries:900 ~plans:529);
        ] );
      ( "soundness",
        [
          Alcotest.test_case "nullability vs interpreter on the pivot" `Quick
            test_pivot_crosscheck;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "campaign neutrality" `Quick test_campaign_neutral;
        ] );
    ]
