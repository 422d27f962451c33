(* The lint sweep ([sqlancer lint], [make lint]; {!Pqs.Corpus.lint}):

   - acceptance: the containment queries the seed corpus draws run on
     the bug-free engine without a Type_error, and they and every
     DDL/DML statement that built the corpus survive printer→parser
     unchanged up to the parser's negated-literal fold.  A finding is a
     generator or parser defect; replay and reduction re-parse printed
     SQL, so the round trip is what they rely on;
   - diagnostics: the sweep is only as strong as the engine's own
     checks, so hand-written ill-typed SQL must draw the expected engine
     error, and well-typed controls must run. *)

open Sqlval
module Errors = Engine.Errors

let golden_cases =
  [
    (Dialect.Sqlite_like, "SELECT missing FROM t0", Some Errors.No_such_column);
    (Dialect.Sqlite_like, "SELECT c0 FROM t0, t1", Some Errors.Ambiguous_column);
    (Dialect.Sqlite_like, "SELECT nope.* FROM t0", Some Errors.No_such_table);
    (Dialect.Sqlite_like, "SELECT ABS(c0, c1) FROM t0", Some Errors.Invalid_function);
    (Dialect.Mysql_like, "SELECT TYPEOF(c0) FROM t0", Some Errors.Invalid_function);
    (Dialect.Postgres_like, "SELECT LOWER(c0) FROM t0", Some Errors.Type_error);
    (Dialect.Postgres_like, "SELECT c0 FROM t0 WHERE c1", Some Errors.Type_error);
    ( Dialect.Mysql_like,
      "SELECT c0 FROM t0 WHERE c1 GLOB 'x*'",
      Some Errors.Invalid_function );
    (Dialect.Postgres_like, "SELECT c0 FROM t1 WHERE c0 IS 1", Some Errors.Type_error);
    (Dialect.Sqlite_like, "SELECT MIN(MAX(c0)) FROM t0", Some Errors.Invalid_function);
    ( Dialect.Sqlite_like,
      "SELECT c0 FROM t0 WHERE SUM(c0) = 3",
      Some Errors.Invalid_function );
    ( Dialect.Mysql_like,
      "SELECT c0 FROM t0 INTERSECT SELECT c0, c1 FROM t0",
      Some Errors.Syntax_error );
    (Dialect.Postgres_like, "SELECT c0 FROM t0 WHERE c0 = c1", Some Errors.Type_error);
    (* well-typed controls run *)
    (Dialect.Sqlite_like, "SELECT c0 FROM t0 WHERE c1 GLOB 'x*'", None);
    (Dialect.Postgres_like, "SELECT LOWER(c1), c0 + 1 FROM t0 WHERE c0 = 3", None);
  ]

(* the engine checks types on the values it meets, so each table holds a
   non-NULL row *)
let golden_session dialect =
  let s = Engine.Session.create dialect in
  List.iter
    (fun sql ->
      match Sqlparse.Parser.parse_stmt sql with
      | Ok stmt -> ignore (Engine.Session.execute s stmt)
      | Error e -> Alcotest.failf "%s: %s" sql (Sqlparse.Parser.show_error e))
    [
      "CREATE TABLE t0 (c0 INT, c1 TEXT)";
      "CREATE TABLE t1 (c0 BOOLEAN)";
      "INSERT INTO t0 VALUES (1, 'a')";
      "INSERT INTO t1 VALUES (TRUE)";
    ];
  s

let test_golden () =
  List.iter
    (fun (dialect, sql, expected) ->
      let got =
        match Sqlparse.Parser.parse_stmt sql with
        | Error e -> Alcotest.failf "%s: %s" sql (Sqlparse.Parser.show_error e)
        | Ok stmt -> (
            match Engine.Session.execute (golden_session dialect) stmt with
            | Ok _ -> None
            | Error e -> Some e.Errors.code)
      in
      Alcotest.(check (option string))
        (Printf.sprintf "[%s] %s" (Dialect.name dialect) sql)
        (Option.map Errors.show_code expected)
        (Option.map Errors.show_code got))
    golden_cases

let clean dialect ~statements ~queries () =
  let r = Pqs.Corpus.lint ~seed_lo:1 ~seed_hi:1000 dialect in
  Alcotest.(check int)
    "generated statements" statements r.Pqs.Corpus.lint_statements;
  Alcotest.(check int) "queries drawn" queries r.Pqs.Corpus.lint_queries;
  Alcotest.(check (list (pair int string)))
    "no type errors and no round-trip changes" [] r.Pqs.Corpus.lint_findings

let () =
  Alcotest.run "lint"
    [
      ( "diagnostics",
        [ Alcotest.test_case "golden ill-typed SQL" `Quick test_golden ] );
      ( "acceptance",
        [
          Alcotest.test_case "sqlite seeds 1-1000" `Quick
            (clean Dialect.Sqlite_like ~statements:7230 ~queries:2997);
          Alcotest.test_case "mysql seeds 1-1000" `Quick
            (clean Dialect.Mysql_like ~statements:7275 ~queries:2997);
          Alcotest.test_case "postgres seeds 1-1000" `Quick
            (clean Dialect.Postgres_like ~statements:7283 ~queries:2994);
        ] );
    ]
