(* The remaining paper listings as engine-level regression tests (the first
   batch lives in test_engine.ml): Listings 3, 8, 9, 11, 16, 17, 18 and the
   Listing 4/10 corruption variants, each checked with the corresponding
   injected bug off (correct behaviour) and on (the paper's symptom). *)

open Sqlval

let session ?(bugs = []) dialect =
  Engine.Session.create ~bugs:(Engine.Bug.set_of_list bugs) dialect

let run s sql =
  match Sqlparse.Parser.parse_script sql with
  | Error e -> Alcotest.failf "parse: %s" (Sqlparse.Parser.show_error e)
  | Ok stmts ->
      List.fold_left
        (fun _last stmt ->
          match Engine.Session.execute s stmt with
          | Ok r -> Ok r
          | Error e -> Error e)
        (Ok Engine.Session.Done) stmts

let expect_ok s sql =
  match run s sql with
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected error on %s: %s" sql (Engine.Errors.show e)

let expect_error s sql code =
  match run s sql with
  | Ok _ -> Alcotest.failf "expected error on %s" sql
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error code for %s" sql)
        true
        (Engine.Errors.equal_code e.Engine.Errors.code code)

let rows = function
  | Engine.Session.Rows rs -> rs.Engine.Executor.rs_rows
  | _ -> Alcotest.fail "expected rows"

(* Listing 3: SET GLOBAL key_cache_division_limit nondeterministically
   fails.  The injected fault fires with probability 1/4 per statement; we
   retry across sessions/seeds until both outcomes are observed. *)
let test_listing3 () =
  let bugs = [ Engine.Bug.My_set_key_cache_nondet ] in
  let observed_error = ref false and observed_ok = ref false in
  for seed = 1 to 64 do
    let s =
      Engine.Session.create ~seed
        ~bugs:(Engine.Bug.set_of_list bugs)
        Dialect.Mysql_like
    in
    match run s "SET GLOBAL key_cache_division_limit = 100;" with
    | Ok _ -> observed_ok := true
    | Error _ -> observed_error := true
  done;
  Alcotest.(check bool) "sometimes fails" true !observed_error;
  Alcotest.(check bool) "sometimes succeeds" true !observed_ok;
  (* without the bug it always succeeds *)
  for seed = 1 to 16 do
    let s = Engine.Session.create ~seed Dialect.Mysql_like in
    ignore (expect_ok s "SET GLOBAL key_cache_division_limit = 100;")
  done

(* Listing 8 class: ALTER RENAME COLUMN + expression index -> malformed
   schema on REINDEX *)
let test_listing8 () =
  let setup =
    "CREATE TABLE t0(c1, c2);\n\
     INSERT INTO t0(c1, c2) VALUES ('a', 1);\n\
     CREATE INDEX i0 ON t0((c1 || ''));\n\
     ALTER TABLE t0 RENAME COLUMN c1 TO c3;"
  in
  let s = session Dialect.Sqlite_like in
  ignore (expect_ok s setup);
  ignore (expect_ok s "REINDEX;");
  let s = session ~bugs:[ Engine.Bug.Sq_alter_rename_expr_index ] Dialect.Sqlite_like in
  ignore (expect_ok s setup);
  expect_error s "REINDEX;" Engine.Errors.Malformed_database

(* Listing 9: PRAGMA case_sensitive_like + LIKE expression index + VACUUM *)
let test_listing9 () =
  let setup =
    "CREATE TABLE test(c0);\n\
     CREATE INDEX index_0 ON test((c0 LIKE ''));\n\
     PRAGMA case_sensitive_like = 0;"
  in
  let s = session Dialect.Sqlite_like in
  ignore (expect_ok s setup);
  ignore (expect_ok s "VACUUM;");
  let s = session ~bugs:[ Engine.Bug.Sq_pragma_like_index_vacuum ] Dialect.Sqlite_like in
  ignore (expect_ok s setup);
  expect_error s "VACUUM;" Engine.Errors.Malformed_database

(* Listing 11: MEMORY engine rows vanish from cast-bearing joins *)
let test_listing11 () =
  let setup =
    "CREATE TABLE t0(c0 INT);\n\
     CREATE TABLE t1(c0 INT) ENGINE = MEMORY;\n\
     INSERT INTO t0(c0) VALUES (0);\n\
     INSERT INTO t1(c0) VALUES (-1);"
  in
  let q =
    "SELECT * FROM t0, t1 WHERE (CAST(t1.c0 AS UNSIGNED)) > (IFNULL('u', \
     t0.c0));"
  in
  let s = session Dialect.Mysql_like in
  ignore (expect_ok s setup);
  (* correct: CAST(-1 AS UNSIGNED) is huge, IFNULL('u', 0)='u'->0 numeric *)
  Alcotest.(check int) "correct fetches the row" 1
    (List.length (rows (expect_ok s q)));
  let s = session ~bugs:[ Engine.Bug.My_memory_join_cast ] Dialect.Mysql_like in
  ignore (expect_ok s setup);
  Alcotest.(check int) "bug drops the MEMORY rows" 0
    (List.length (rows (expect_ok s q)))

(* Listing 11's duplicate report: an IFNULL in the WHERE of a join with a
   MEMORY table drops that table's rows.  The gate reads only the WHERE
   (an IFNULL item keeps the rows) and only joins (one table keeps them);
   sqlite and postgres, which have no MEMORY engine, keep the rows of the
   same join shape with the bug on. *)
let test_dup_memory_join () =
  let tables engine =
    Printf.sprintf
      "CREATE TABLE t0(c0 INT);\n\
       CREATE TABLE t1(c0 INT)%s;\n\
       INSERT INTO t0(c0) VALUES (0);\n\
       INSERT INTO t1(c0) VALUES (1);"
      engine
  in
  let in_where = "SELECT * FROM t0, t1 WHERE IFNULL(t1.c0, 0) >= t0.c0;" in
  let in_on =
    "SELECT * FROM t0 JOIN t1 ON t1.c0 >= t0.c0 WHERE IFNULL(t1.c0, 0) >= \
     t0.c0;"
  in
  let in_item = "SELECT IFNULL(t1.c0, 0) FROM t0, t1 WHERE t1.c0 >= t0.c0;" in
  let single = "SELECT * FROM t1 WHERE IFNULL(t1.c0, 0) >= 0;" in
  let count s q = List.length (rows (expect_ok s q)) in
  let s = session Dialect.Mysql_like in
  ignore (expect_ok s (tables " ENGINE = MEMORY"));
  List.iter
    (fun q -> Alcotest.(check int) ("correct keeps the row: " ^ q) 1 (count s q))
    [ in_where; in_on; in_item; single ];
  let bug = [ Engine.Bug.My_dup_memory_join ] in
  let s = session ~bugs:bug Dialect.Mysql_like in
  ignore (expect_ok s (tables " ENGINE = MEMORY"));
  Alcotest.(check int) "bug drops the MEMORY rows" 0 (count s in_where);
  Alcotest.(check int) "bug drops them under JOIN ... ON" 0 (count s in_on);
  Alcotest.(check int) "IFNULL outside WHERE keeps them" 1 (count s in_item);
  Alcotest.(check int) "one table keeps them" 1 (count s single);
  let s = session ~bugs:bug Dialect.Sqlite_like in
  expect_error s "CREATE TABLE t1(c0 INT) ENGINE = MEMORY;"
    Engine.Errors.Syntax_error;
  ignore (expect_ok s (tables ""));
  Alcotest.(check int) "sqlite keeps the join's row" 1 (count s in_where);
  let s = session ~bugs:bug Dialect.Postgres_like in
  ignore (expect_ok s (tables ""));
  Alcotest.(check int) "postgres keeps the join's row" 1
    (count s "SELECT * FROM t0, t1 WHERE COALESCE(t1.c0, 0) >= t0.c0;")

(* Listing 16 class: statistics + expression index -> 'negative bitmapset
   member' on a filtered SELECT *)
let test_listing16 () =
  let setup =
    "CREATE TABLE t0(c0 SERIAL, c1 BOOLEAN);\n\
     CREATE STATISTICS s1 ON c0, c1 FROM t0;\n\
     INSERT INTO t0(c1) VALUES (TRUE);\n\
     ANALYZE;\n\
     CREATE INDEX i0 ON t0((1 + c0));"
  in
  let q = "SELECT * FROM t0 WHERE c1 IS TRUE;" in
  let s = session Dialect.Postgres_like in
  ignore (expect_ok s setup);
  Alcotest.(check int) "correct fetches" 1 (List.length (rows (expect_ok s q)));
  let s = session ~bugs:[ Engine.Bug.Pg_stats_expr_index_bitmapset ] Dialect.Postgres_like in
  ignore (expect_ok s setup);
  expect_error s q Engine.Errors.Internal_error

(* Listing 17 class: NULL overwritten by UPDATE + index -> 'found
   unexpected null value in index' on an ordered comparison *)
let test_listing17 () =
  let setup =
    "CREATE TABLE t0(c0 TEXT);\n\
     INSERT INTO t0(c0) VALUES ('b'), ('a');\n\
     INSERT INTO t0(c0) VALUES (NULL);\n\
     UPDATE t0 SET c0 = 'a';\n\
     CREATE INDEX i0 ON t0(c0);"
  in
  let q = "SELECT * FROM t0 WHERE 'baaaa' > c0;" in
  let s = session Dialect.Postgres_like in
  ignore (expect_ok s setup);
  Alcotest.(check int) "correct fetches all" 3 (List.length (rows (expect_ok s q)));
  let s = session ~bugs:[ Engine.Bug.Pg_index_null_value_error ] Dialect.Postgres_like in
  ignore (expect_ok s setup);
  expect_error s q Engine.Errors.Internal_error

(* Listing 18: boundary value + (1 + c0) index -> VACUUM 'integer out of
   range' (classified intended by the developers) *)
let test_listing18 () =
  let setup =
    "CREATE TABLE t1(c0 INT);\n\
     INSERT INTO t1(c0) VALUES (2147483647);\n\
     CREATE INDEX i0 ON t1((1 + c0));"
  in
  let s = session Dialect.Postgres_like in
  ignore (expect_ok s setup);
  ignore (expect_ok s "VACUUM FULL;");
  let s = session ~bugs:[ Engine.Bug.Pg_intended_vacuum_overflow ] Dialect.Postgres_like in
  ignore (expect_ok s setup);
  expect_error s "VACUUM FULL;" Engine.Errors.Out_of_range

(* the Listing 10 family: corruption via OR REPLACE over two unique
   indexes *)
let test_two_unique_corruption () =
  let setup =
    "CREATE TABLE t0(c0 UNIQUE, c1 UNIQUE);\n\
     INSERT INTO t0(c0, c1) VALUES (1, 'a'), (2, 'b');"
  in
  let conflict = "INSERT OR REPLACE INTO t0(c0, c1) VALUES (1, 'b');" in
  let s = session Dialect.Sqlite_like in
  ignore (expect_ok s setup);
  ignore (expect_ok s conflict);
  Alcotest.(check int) "replace removed both victims" 1
    (List.length (rows (expect_ok s "SELECT * FROM t0;")));
  let s = session ~bugs:[ Engine.Bug.Sq_or_replace_two_unique_corrupt ] Dialect.Sqlite_like in
  ignore (expect_ok s setup);
  ignore (expect_ok s conflict);
  expect_error s "SELECT * FROM t0;" Engine.Errors.Malformed_database

(* CSV-engine UPDATE internal error (mysql engine family) *)
let test_csv_engine () =
  let setup =
    "CREATE TABLE t0(c0 INT) ENGINE = CSV;\nINSERT INTO t0(c0) VALUES (1);"
  in
  let s = session Dialect.Mysql_like in
  ignore (expect_ok s setup);
  ignore (expect_ok s "UPDATE t0 SET c0 = 2;");
  let s = session ~bugs:[ Engine.Bug.My_csv_engine_update_error ] Dialect.Mysql_like in
  ignore (expect_ok s setup);
  expect_error s "UPDATE t0 SET c0 = 2;" Engine.Errors.Internal_error

let () =
  Alcotest.run "listings2"
    [
      ( "paper listings (second batch)",
        [
          Alcotest.test_case "listing 3 (nondeterministic SET)" `Quick test_listing3;
          Alcotest.test_case "listing 8 (rename + expr index)" `Quick test_listing8;
          Alcotest.test_case "listing 9 (pragma + vacuum)" `Quick test_listing9;
          Alcotest.test_case "listing 11 (memory engine join)" `Quick test_listing11;
          Alcotest.test_case "listing 16 (bitmapset)" `Quick test_listing16;
          Alcotest.test_case "listing 17 (index null)" `Quick test_listing17;
          Alcotest.test_case "listing 18 (vacuum overflow)" `Quick test_listing18;
          Alcotest.test_case "two-unique OR REPLACE corruption" `Quick
            test_two_unique_corruption;
          Alcotest.test_case "csv engine update" `Quick test_csv_engine;
          Alcotest.test_case "listing 11 duplicate (IFNULL memory join)" `Quick
            test_dup_memory_join;
        ] );
    ]
