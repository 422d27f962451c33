(* Additional engine coverage: dialect semantics corner cases, DDL/DML
   edge cases, maintenance statements, option handling, and property tests
   for planner soundness (index path = full scan). *)

open Sqlval
module A = Sqlast.Ast

let exec s stmt =
  match Engine.Session.execute s stmt with
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected error: %s" (Engine.Errors.show e)

let exec_sql s sql =
  match Sqlparse.Parser.parse_stmt sql with
  | Error e -> Alcotest.failf "parse failed (%s): %s" sql (Sqlparse.Parser.show_error e)
  | Ok stmt -> exec s stmt

let exec_sql_err s sql =
  match Sqlparse.Parser.parse_stmt sql with
  | Error e -> Alcotest.failf "parse failed (%s): %s" sql (Sqlparse.Parser.show_error e)
  | Ok stmt -> (
      match Engine.Session.execute s stmt with
      | Ok _ -> Alcotest.failf "expected error for %s" sql
      | Error e -> e)

let rows_sql s sql =
  match exec_sql s sql with
  | Engine.Session.Rows rs -> rs.Engine.Executor.rs_rows
  | _ -> Alcotest.failf "expected rows from %s" sql

let script s sqls = List.iter (fun sql -> ignore (exec_sql s sql)) sqls

let show_rows rows =
  String.concat ";"
    (List.map
       (fun r ->
         String.concat "|" (Array.to_list (Array.map Value.to_display r)))
       rows)

(* ---------- expression semantics ---------- *)

let test_three_valued_where () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s [ "CREATE TABLE t0(c0)"; "INSERT INTO t0(c0) VALUES (1), (NULL), (0)" ];
  Alcotest.(check int) "where c0" 1 (List.length (rows_sql s "SELECT * FROM t0 WHERE c0"));
  Alcotest.(check int) "where NOT c0" 1
    (List.length (rows_sql s "SELECT * FROM t0 WHERE NOT c0"));
  Alcotest.(check int) "where c0 IS NULL" 1
    (List.length (rows_sql s "SELECT * FROM t0 WHERE c0 IS NULL"))

let test_sqlite_affinity_compare () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s
    [
      "CREATE TABLE t0(c0 INT)";
      "INSERT INTO t0(c0) VALUES ('12')" (* affinity converts to 12 *);
    ];
  Alcotest.(check int) "text literal compares numerically via affinity" 1
    (List.length (rows_sql s "SELECT * FROM t0 WHERE c0 = '12'"));
  Alcotest.(check int) "numeric compare" 1
    (List.length (rows_sql s "SELECT * FROM t0 WHERE c0 = 12"))

let test_division_semantics () =
  let one_value s sql =
    match rows_sql s sql with
    | [ [| v |] ] -> v
    | _ -> Alcotest.fail "expected one value"
  in
  let sq = Engine.Session.create Dialect.Sqlite_like in
  Alcotest.(check string) "sqlite int division" "3"
    (Value.to_display (one_value sq "SELECT 7 / 2"));
  Alcotest.(check string) "sqlite div by zero" "NULL"
    (Value.to_display (one_value sq "SELECT 7 / 0"));
  let my = Engine.Session.create Dialect.Mysql_like in
  Alcotest.(check string) "mysql real division" "3.5"
    (Value.to_display (one_value my "SELECT 7 / 2"));
  let pg = Engine.Session.create Dialect.Postgres_like in
  Alcotest.(check string) "pg int division" "3"
    (Value.to_display (one_value pg "SELECT 7 / 2"));
  let e = exec_sql_err pg "SELECT 7 / 0" in
  Alcotest.(check bool) "pg division by zero errors" true
    (Engine.Errors.equal_code e.Engine.Errors.code Engine.Errors.Division_by_zero)

let test_concat_semantics () =
  let one_value s sql =
    match rows_sql s sql with [ [| v |] ] -> v | _ -> Alcotest.fail "one value"
  in
  let sq = Engine.Session.create Dialect.Sqlite_like in
  Alcotest.(check string) "sqlite concat" "a1"
    (Value.to_display (one_value sq "SELECT 'a' || 1"));
  (* mysql: || is logical OR *)
  let my = Engine.Session.create Dialect.Mysql_like in
  Alcotest.(check string) "mysql || is OR" "1"
    (Value.to_display (one_value my "SELECT 'a' || 1"))

let test_like_case_rules () =
  let fetches dialect sql setup =
    let s = Engine.Session.create dialect in
    script s setup;
    List.length (rows_sql s sql)
  in
  let setup =
    [ "CREATE TABLE t0(c0 TEXT)"; "INSERT INTO t0(c0) VALUES ('AbC')" ]
  in
  Alcotest.(check int) "sqlite LIKE case-insensitive by default" 1
    (fetches Dialect.Sqlite_like "SELECT * FROM t0 WHERE c0 LIKE 'abc'" setup);
  Alcotest.(check int) "mysql LIKE case-insensitive" 1
    (fetches Dialect.Mysql_like "SELECT * FROM t0 WHERE c0 LIKE 'abc'" setup);
  Alcotest.(check int) "postgres LIKE case-sensitive" 0
    (fetches Dialect.Postgres_like "SELECT * FROM t0 WHERE c0 LIKE 'abc'" setup);
  (* pragma flips sqlite *)
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s
    (setup @ [ "PRAGMA case_sensitive_like = 1" ]);
  Alcotest.(check int) "sqlite pragma case_sensitive_like" 0
    (List.length (rows_sql s "SELECT * FROM t0 WHERE c0 LIKE 'abc'"));
  script s [ "PRAGMA case_sensitive_like = 0" ];
  Alcotest.(check int) "case_sensitive_like = 0 restores case folding" 1
    (List.length (rows_sql s "SELECT * FROM t0 WHERE c0 LIKE 'abc'"))

let test_reverse_unordered_selects () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s
    [ "CREATE TABLE t0(c0)"; "INSERT INTO t0(c0) VALUES (1), (2), (3)" ];
  let firsts () =
    List.map (fun r -> r.(0)) (rows_sql s "SELECT c0 FROM t0")
  in
  let ints = List.map (fun i -> Value.Int (Int64.of_int i)) in
  let check msg expected =
    Alcotest.(check bool) msg true (List.equal Value.equal (ints expected) (firsts ()))
  in
  check "scan order by default" [ 1; 2; 3 ];
  script s [ "PRAGMA reverse_unordered_selects = 1" ];
  check "reverse_unordered_selects = 1 reverses" [ 3; 2; 1 ];
  Alcotest.(check int) "ORDER BY is not reversed" 1
    (match rows_sql s "SELECT c0 FROM t0 ORDER BY c0" with
    | r :: _ -> (match r.(0) with Value.Int i -> Int64.to_int i | _ -> -1)
    | [] -> -1);
  script s [ "PRAGMA reverse_unordered_selects = 0" ];
  check "reverse_unordered_selects = 0 restores the order" [ 1; 2; 3 ]

let test_in_between_null () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s [ "CREATE TABLE t0(c0)"; "INSERT INTO t0(c0) VALUES (5)" ];
  Alcotest.(check int) "IN with null, no match -> NULL (not fetched)" 0
    (List.length (rows_sql s "SELECT * FROM t0 WHERE c0 IN (1, NULL)"));
  Alcotest.(check int) "NOT IN with null, no match -> NULL (not fetched)" 0
    (List.length (rows_sql s "SELECT * FROM t0 WHERE c0 NOT IN (1, NULL)"));
  Alcotest.(check int) "BETWEEN with null bound -> NULL" 0
    (List.length (rows_sql s "SELECT * FROM t0 WHERE c0 BETWEEN NULL AND 10"));
  Alcotest.(check int) "BETWEEN hit" 1
    (List.length (rows_sql s "SELECT * FROM t0 WHERE c0 BETWEEN 1 AND 10"))

let test_case_expression () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  let one sql =
    match rows_sql s sql with [ [| v |] ] -> Value.to_display v | _ -> "?"
  in
  Alcotest.(check string) "searched case" "yes" (one "SELECT CASE WHEN 1 THEN 'yes' ELSE 'no' END");
  Alcotest.(check string) "operand case" "two"
    (one "SELECT CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END");
  Alcotest.(check string) "case falls to null" "NULL"
    (one "SELECT CASE 9 WHEN 1 THEN 'one' END")

(* ---------- DDL edge cases ---------- *)

let test_alter_table () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s
    [
      "CREATE TABLE t0(c0, c1)";
      "INSERT INTO t0(c0, c1) VALUES (1, 2)";
      "ALTER TABLE t0 RENAME COLUMN c0 TO first";
      "ALTER TABLE t0 ADD COLUMN c2 INT DEFAULT 9";
    ];
  Alcotest.(check string) "rename + add column with default" "1|2|9"
    (show_rows (rows_sql s "SELECT first, c1, c2 FROM t0"));
  script s [ "ALTER TABLE t0 DROP COLUMN c1" ];
  Alcotest.(check string) "drop column" "1|9"
    (show_rows (rows_sql s "SELECT * FROM t0"));
  script s [ "ALTER TABLE t0 RENAME TO t9" ];
  Alcotest.(check int) "rename table" 1
    (List.length (rows_sql s "SELECT * FROM t9"))

let test_unique_index_on_conflicting_data () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s [ "CREATE TABLE t0(c0)"; "INSERT INTO t0(c0) VALUES (1), (1)" ];
  let e = exec_sql_err s "CREATE UNIQUE INDEX i0 ON t0(c0)" in
  Alcotest.(check bool) "unique violation on create" true
    (Engine.Errors.equal_code e.Engine.Errors.code Engine.Errors.Unique_violation);
  (* the failed index must not exist *)
  ignore (exec_sql s "CREATE INDEX i0 ON t0(c0)")

let test_partial_index_maintenance () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s
    [
      "CREATE TABLE t0(c0)";
      "CREATE INDEX i0 ON t0(c0) WHERE c0 IS NOT NULL";
      "INSERT INTO t0(c0) VALUES (1), (NULL), (3)";
    ];
  let ix =
    Option.get (Storage.Catalog.find_index (Engine.Session.catalog s) "i0")
  in
  Alcotest.(check int) "partial index holds non-null rows" 2
    (Storage.Index.entry_count ix);
  (* updating NULL -> value adds the row to the partial index *)
  ignore (exec_sql s "UPDATE t0 SET c0 = 5 WHERE c0 IS NULL");
  Alcotest.(check int) "after update" 3 (Storage.Index.entry_count ix);
  ignore (exec_sql s "DELETE FROM t0 WHERE c0 = 5");
  Alcotest.(check int) "after delete" 2 (Storage.Index.entry_count ix)

let test_expression_index_scan () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s
    [
      "CREATE TABLE t0(c0 INT)";
      "CREATE INDEX i0 ON t0((c0 + 1))";
      "INSERT INTO t0(c0) VALUES (1), (2), (3)";
    ];
  Alcotest.(check int) "rows survive expression index" 3
    (List.length (rows_sql s "SELECT * FROM t0"))

let test_views_follow_base_table () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s
    [
      "CREATE TABLE t0(c0)";
      "INSERT INTO t0(c0) VALUES (1)";
      "CREATE VIEW v0 AS SELECT c0 FROM t0";
      "INSERT INTO t0(c0) VALUES (2)";
    ];
  Alcotest.(check int) "view sees later inserts" 2
    (List.length (rows_sql s "SELECT * FROM v0"));
  let e = exec_sql_err s "INSERT INTO v0(c0) VALUES (3)" in
  Alcotest.(check bool) "views are read-only" true
    (Engine.Errors.equal_code e.Engine.Errors.code Engine.Errors.Unsupported)

let test_order_by_collation () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s
    [
      "CREATE TABLE t0(c0 TEXT COLLATE NOCASE)";
      "INSERT INTO t0(c0) VALUES ('b'), ('A'), ('a'), ('B')";
    ];
  (* NOCASE ordering: case variants group together *)
  let out =
    rows_sql s "SELECT c0 FROM t0 ORDER BY c0 ASC"
    |> List.map (fun r -> String.lowercase_ascii (Value.to_display r.(0)))
  in
  Alcotest.(check (list string)) "nocase order" [ "a"; "a"; "b"; "b" ] out;
  (* explicit COLLATE BINARY restores byte order: uppercase first *)
  let out2 =
    rows_sql s "SELECT c0 FROM t0 ORDER BY c0 COLLATE BINARY ASC"
    |> List.map (fun r -> Value.to_display r.(0))
  in
  Alcotest.(check (list string)) "binary order" [ "A"; "B"; "a"; "b" ] out2

let test_check_constraints () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s
    [
      "CREATE TABLE t0(c0 INT CHECK (c0 <> 13), c1, CHECK (c1 IS NULL OR c1 \
       > 0))";
      "INSERT INTO t0(c0, c1) VALUES (1, 5), (2, NULL)";
    ];
  let e = exec_sql_err s "INSERT INTO t0(c0) VALUES (13)" in
  Alcotest.(check bool) "column check enforced" true
    (Engine.Errors.equal_code e.Engine.Errors.code Engine.Errors.Check_violation);
  let e2 = exec_sql_err s "UPDATE t0 SET c1 = -1 WHERE c0 = 1" in
  Alcotest.(check bool) "table check enforced on update" true
    (Engine.Errors.equal_code e2.Engine.Errors.code Engine.Errors.Check_violation);
  (* NULL passes a check *)
  ignore (exec_sql s "INSERT INTO t0(c0, c1) VALUES (NULL, NULL)");
  (* OR IGNORE skips violating rows *)
  ignore (exec_sql s "INSERT OR IGNORE INTO t0(c0) VALUES (13), (14)");
  Alcotest.(check int) "ignore skipped the bad row" 4
    (List.length (rows_sql s "SELECT * FROM t0"));
  (* the sqlite pragma disables enforcement *)
  script s [ "PRAGMA ignore_check_constraints = 1" ];
  ignore (exec_sql s "INSERT INTO t0(c0) VALUES (13)");
  Alcotest.(check int) "pragma disables checks" 5
    (List.length (rows_sql s "SELECT * FROM t0"));
  script s [ "PRAGMA ignore_check_constraints = 0" ];
  let e3 = exec_sql_err s "INSERT INTO t0(c0) VALUES (13)" in
  Alcotest.(check bool) "pragma = 0 enforces checks again" true
    (Engine.Errors.equal_code e3.Engine.Errors.code Engine.Errors.Check_violation)

let test_subqueries () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s
    [
      "CREATE TABLE t0(c0, c1)";
      "INSERT INTO t0(c0, c1) VALUES (1, 'a'), (2, 'b'), (3, 'c')";
    ];
  Alcotest.(check int) "derived table filters" 1
    (List.length
       (rows_sql s
          "SELECT * FROM (SELECT c0, c1 FROM t0 WHERE c0 > 1) AS s WHERE \
           s.c0 < 3"));
  (* aliasing: the subquery name is the binding *)
  Alcotest.(check string) "projection through subquery" "b"
    (match rows_sql s "SELECT s.c1 FROM (SELECT c1 FROM t0 WHERE c0 = 2) AS s" with
    | [ [| v |] ] -> Value.to_display v
    | _ -> "?");
  (* subqueries join with tables *)
  Alcotest.(check int) "subquery x table cross product" 9
    (List.length (rows_sql s "SELECT * FROM (SELECT c0 FROM t0) AS s, t0"))

let test_explain () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s
    [
      "CREATE TABLE t0(c0)";
      "CREATE INDEX i0 ON t0(c0)";
      "INSERT INTO t0(c0) VALUES (1)";
    ];
  let plan_of sql =
    rows_sql s sql
    |> List.map (fun r -> Value.to_display r.(0))
    |> String.concat "\n"
  in
  let p = plan_of "EXPLAIN SELECT * FROM t0 WHERE c0 = 1" in
  Alcotest.(check bool) "index probe visible" true
    (String.length p > 0
    &&
    let re = "index-eq" in
    let rec contains i =
      i + String.length re <= String.length p
      && (String.sub p i (String.length re) = re || contains (i + 1))
    in
    contains 0);
  let p2 = plan_of "EXPLAIN SELECT DISTINCT * FROM t0 ORDER BY c0 ASC" in
  Alcotest.(check bool) "stages listed" true
    (String.length p2 > 0)

(* ---------- maintenance ---------- *)

let test_vacuum_reindex_analyze () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s
    [
      "CREATE TABLE t0(c0)";
      "CREATE INDEX i0 ON t0(c0)";
      "INSERT INTO t0(c0) VALUES (2), (1), (3)";
      "DELETE FROM t0 WHERE c0 = 1";
      "VACUUM";
      "REINDEX";
      "ANALYZE";
    ];
  Alcotest.(check int) "rows preserved across maintenance" 2
    (List.length (rows_sql s "SELECT * FROM t0"));
  Alcotest.(check int) "index probe still works" 1
    (List.length (rows_sql s "SELECT * FROM t0 WHERE c0 = 2"))

let test_mysql_check_repair () =
  let s = Engine.Session.create Dialect.Mysql_like in
  script s
    [
      "CREATE TABLE t0(c0 INT)";
      "INSERT INTO t0(c0) VALUES (1)";
      "CHECK TABLE t0";
      "REPAIR TABLE t0";
    ];
  (* dialect gates *)
  let sq = Engine.Session.create Dialect.Sqlite_like in
  script sq [ "CREATE TABLE t0(c0)" ];
  let e = exec_sql_err sq "CHECK TABLE t0" in
  Alcotest.(check bool) "check table is mysql-only" true
    (Engine.Errors.equal_code e.Engine.Errors.code Engine.Errors.Syntax_error)

let test_pg_statistics () =
  let s = Engine.Session.create Dialect.Postgres_like in
  script s
    [
      "CREATE TABLE t0(c0 INT, c1 INT)";
      "CREATE STATISTICS s1 ON c0, c1 FROM t0";
      "ANALYZE";
      "DISCARD ALL";
    ];
  let e = exec_sql_err s "CREATE STATISTICS s1 ON c0, c1 FROM t0" in
  Alcotest.(check bool) "duplicate statistics" true
    (Engine.Errors.equal_code e.Engine.Errors.code Engine.Errors.Object_exists)

let test_corruption_gates_statements () =
  let bugs = Engine.Bug.set_of_list [ Engine.Bug.Sq_vacuum_partial_index_corrupt ] in
  let s = Engine.Session.create ~bugs Dialect.Sqlite_like in
  script s
    [
      "CREATE TABLE t0(c0)";
      "CREATE INDEX i0 ON t0(c0) WHERE c0 IS NOT NULL";
      "INSERT INTO t0(c0) VALUES (1)";
    ];
  let e = exec_sql_err s "VACUUM" in
  Alcotest.(check bool) "vacuum corrupts" true
    (Engine.Errors.equal_code e.Engine.Errors.code Engine.Errors.Malformed_database);
  (* every subsequent data statement reports the corruption *)
  let e2 = exec_sql_err s "SELECT * FROM t0" in
  Alcotest.(check bool) "select gated" true
    (Engine.Errors.equal_code e2.Engine.Errors.code Engine.Errors.Malformed_database);
  let e3 = exec_sql_err s "INSERT INTO t0(c0) VALUES (2)" in
  Alcotest.(check bool) "insert gated" true
    (Engine.Errors.equal_code e3.Engine.Errors.code Engine.Errors.Malformed_database)

let test_serial_autoincrement () =
  let s = Engine.Session.create Dialect.Postgres_like in
  script s
    [
      "CREATE TABLE t0(c0 SERIAL, c1 INT)";
      "INSERT INTO t0(c1) VALUES (10), (20)";
      "INSERT INTO t0(c1) VALUES (30)";
    ];
  Alcotest.(check string) "serial assigns 1,2,3" "1|10;2|20;3|30"
    (show_rows (rows_sql s "SELECT c0, c1 FROM t0 ORDER BY c0 ASC"))

let test_rowid_alias () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  script s
    [
      "CREATE TABLE t0(c0 INTEGER PRIMARY KEY, c1)";
      "INSERT INTO t0(c0, c1) VALUES (NULL, 'a'), (NULL, 'b')";
    ];
  (* NULL INTEGER PRIMARY KEY auto-assigns the rowid *)
  Alcotest.(check int) "no null pks stored" 0
    (List.length (rows_sql s "SELECT * FROM t0 WHERE c0 IS NULL"));
  Alcotest.(check int) "two rows" 2 (List.length (rows_sql s "SELECT * FROM t0"))

(* ---------- property: index paths agree with full scans ---------- *)

let planner_soundness_prop dialect =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "index scan = full scan (%s)" (Dialect.name dialect))
    ~count:150 QCheck.small_nat
    (fun seed ->
      let rng = Pqs.Rng.make ~seed:(seed + 500) in
      let session = Engine.Session.create dialect in
      let cfg =
        Pqs.Gen_db.Config.(make dialect |> with_rng rng)
      in
      List.iter
        (fun st -> ignore (Engine.Session.execute session st))
        (Pqs.Gen_db.initial_statements cfg);
      List.iter
        (fun st -> ignore (Engine.Session.execute session st))
        (Pqs.Gen_db.fill_statements cfg session);
      (* a couple of random indexes *)
      for _ = 1 to 3 do
        List.iter
          (fun st -> ignore (Engine.Session.execute session st))
          (Pqs.Gen_db.random_statements cfg session)
      done;
      let tables = Pqs.Schema_info.tables_of_session session in
      match tables with
      | [] -> true
      | ti :: _ ->
          let pool =
            Pqs.Schema_info.rows_of_table session ti.Pqs.Schema_info.ti_name
            |> List.concat_map Array.to_list
            |> List.filter (fun v -> not (Value.is_null v))
          in
          let cond =
            Pqs.Gen_expr.simple_predicate
              {
                Pqs.Gen_expr.rng;
                max_depth = 2;
                scope = Pqs.Gen_expr.scope ~pool dialect [ ti ];
              }
          in
          let q distinct =
            A.Q_select
              {
                A.sel_distinct = distinct;
                sel_items = [ A.Star ];
                sel_from =
                  [ A.F_table { name = ti.Pqs.Schema_info.ti_name; alias = None } ];
                sel_where = Some cond;
                sel_group_by = [];
                sel_having = None;
                sel_order_by = [];
                sel_limit = None;
                sel_offset = None;
              }
          in
          (* compare against the same query with every index dropped *)
          let run query =
            match Engine.Session.query session query with
            | Ok rs ->
                Some
                  (List.sort compare
                     (List.map
                        (fun r ->
                          String.concat "|"
                            (Array.to_list (Array.map Value.show r)))
                        rs.Engine.Executor.rs_rows))
            | Error _ -> None
          in
          let with_indexes = run (q false) in
          let catalog = Engine.Session.catalog session in
          let saved = catalog.Storage.Catalog.indexes in
          catalog.Storage.Catalog.indexes <- [];
          let without_indexes = run (q false) in
          catalog.Storage.Catalog.indexes <- saved;
          if with_indexes <> without_indexes then
            QCheck.Test.fail_reportf
              "index path diverges on %s\n  with: %s\n  without: %s"
              (Sqlast.Sql_printer.expr dialect cond)
              (match with_indexes with
              | Some r -> String.concat ";" r
              | None -> "<error>")
              (match without_indexes with
              | Some r -> String.concat ";" r
              | None -> "<error>")
          else true)

(* ---------- index consistency ---------- *)

let mentions_like (ix : Storage.Index.t) =
  let like e =
    A.fold_expr (fun acc x -> acc || match x with A.Like _ -> true | _ -> false)
      false e
  in
  List.exists (fun (ic : A.indexed_column) -> like ic.A.ic_expr)
    ix.Storage.Index.definition
  || Option.fold ~none:false ~some:like ix.Storage.Index.where

let index_entries ix =
  let acc = ref [] in
  Storage.Index.iter (fun k id -> acc := (k, id) :: !acc) ix;
  List.sort compare !acc

(* The indexes of [s] whose sorted (key, rowid) entries differ from a
   rebuild of the index from its table's rows, or whose B-tree is
   malformed.  A sqlite index whose keys or predicate use LIKE is
   skipped: a case_sensitive_like flip legitimately changes them. *)
let inconsistent_indexes s =
  let ctx = Engine.Session.ctx s and cat = Engine.Session.catalog s in
  let sqlite = Dialect.equal (Engine.Session.dialect s) Dialect.Sqlite_like in
  List.filter_map
    (fun (_, (ix : Storage.Index.t)) ->
      Storage.Index.check_invariants ix;
      match Storage.Catalog.find_table cat ix.Storage.Index.on_table with
      | _ when sqlite && mentions_like ix -> None
      | None -> Some (ix.Storage.Index.index_name ^ " (no table)")
      | Some ts -> (
          let rebuilt = Storage.Index.copy ix in
          match Engine.Ddl.build_index_entries ctx ts rebuilt with
          | Error e ->
              Some
                (ix.Storage.Index.index_name ^ " (rebuild: "
               ^ Engine.Errors.show e ^ ")")
          | Ok () ->
              if compare (index_entries ix) (index_entries rebuilt) = 0 then
                None
              else Some ix.Storage.Index.index_name))
    cat.Storage.Catalog.indexes

let check_consistent msg s =
  Alcotest.(check (list string)) msg [] (inconsistent_indexes s)

(* A write-heavy database in the runner's style: the schema, INSERTs up
   to the minimum row count, 80 random statement groups (index DDL,
   UPDATE, REINDEX, VACUUM, transactions, ...) and a final fill;
   outcomes ignored. *)
let write_heavy_db dialect seed =
  let rng = Pqs.Rng.make ~seed in
  let s = Engine.Session.create ~seed dialect in
  let cfg =
    Pqs.Gen_db.Config.(
      make dialect |> with_rng rng |> with_max_rows 6
      |> with_extra_statements 80)
  in
  let run stmts =
    List.iter
      (fun st ->
        try ignore (Engine.Session.execute s st)
        with Engine.Errors.Crash _ -> ())
      stmts
  in
  run (Pqs.Gen_db.initial_statements cfg);
  run (Pqs.Gen_db.fill_statements cfg s);
  for _ = 1 to 80 do
    run (Pqs.Gen_db.random_statements cfg s)
  done;
  run (Pqs.Gen_db.fill_statements cfg s);
  s

let test_index_consistency_sweep () =
  List.iter
    (fun dialect ->
      for seed = 1 to 300 do
        match inconsistent_indexes (write_heavy_db dialect seed) with
        | [] -> ()
        | bad ->
            Alcotest.failf "%s seed %d: %s" (Dialect.show dialect) seed
              (String.concat ", " bad)
      done)
    [ Dialect.Sqlite_like; Dialect.Mysql_like; Dialect.Postgres_like ]

(* An UPDATE whose new unique key fails to evaluate keeps the old row in
   every index. *)
let test_failed_update_keeps_entries () =
  List.iter
    (fun dialect ->
      let s = Engine.Session.create dialect in
      script s
        [
          "CREATE TABLE t1(c0 BIGINT, c1 BIGINT)";
          "INSERT INTO t1(c1) VALUES (5)";
          "CREATE INDEX i1 ON t1(c1)";
          "CREATE UNIQUE INDEX i0 ON t1(c1, (c0 + 1))";
        ];
      let e = exec_sql_err s "UPDATE t1 SET c0 = 9223372036854775807" in
      Alcotest.(check bool) "out of range" true
        (Engine.Errors.equal_code e.Engine.Errors.code Engine.Errors.Out_of_range);
      Alcotest.(check string) "index scan finds the row" "NULL|5"
        (show_rows (rows_sql s "SELECT * FROM t1 WHERE c1 = 5"));
      check_consistent (Dialect.show dialect) s)
    [ Dialect.Postgres_like; Dialect.Mysql_like ]

(* Write plans live across statements: every change to what they compile
   must reach the next INSERT and UPDATE. *)
let test_write_plan_invalidation () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  let fails code sql =
    let e = exec_sql_err s sql in
    if not (Engine.Errors.equal_code e.Engine.Errors.code code) then
      Alcotest.failf "%s: unexpected error %s" sql (Engine.Errors.show e)
  in
  let step name sqls =
    script s sqls;
    check_consistent name s
  in
  step "setup"
    [
      "CREATE TABLE t0(c0 INT, c1 TEXT)";
      "CREATE INDEX i0 ON t0(c1) WHERE c1 IS NOT NULL";
      "INSERT INTO t0 VALUES (1, 'a')";
      "UPDATE t0 SET c1 = 'b' WHERE c0 = 1";
    ];
  step "rename column"
    [
      "ALTER TABLE t0 RENAME COLUMN c1 TO d1";
      "INSERT INTO t0 VALUES (2, 'c')";
      "UPDATE t0 SET d1 = 'd' WHERE c0 = 1";
    ];
  Alcotest.(check string) "partial index after rename" "1|d"
    (show_rows (rows_sql s "SELECT * FROM t0 WHERE d1 = 'd' AND d1 IS NOT NULL"));
  step "rename table"
    [
      "ALTER TABLE t0 RENAME TO t9";
      "INSERT INTO t9 VALUES (3, 'e')";
      "UPDATE t9 SET d1 = 'f' WHERE c0 = 3";
    ];
  step "add column with CHECK"
    [ "ALTER TABLE t9 ADD COLUMN c2 INT CHECK (c2 > 0)"; "INSERT INTO t9 VALUES (4, 'g', 1)" ];
  fails Engine.Errors.Check_violation "INSERT INTO t9 VALUES (5, 'h', 0)";
  fails Engine.Errors.Check_violation "UPDATE t9 SET c2 = -1 WHERE c0 = 4";
  step "create unique index" [ "CREATE UNIQUE INDEX i1 ON t9(c0)" ];
  fails Engine.Errors.Unique_violation "INSERT INTO t9 VALUES (4, 'i', 2)";
  fails Engine.Errors.Unique_violation "UPDATE t9 SET c0 = 1 WHERE c0 = 2";
  step "drop index"
    [ "DROP INDEX i1"; "INSERT INTO t9 VALUES (4, 'i', 2)"; "UPDATE t9 SET c0 = 1 WHERE c0 = 2" ];
  step "drop column"
    [
      "ALTER TABLE t9 DROP COLUMN c0";
      "INSERT INTO t9 VALUES ('j', 3)";
      "UPDATE t9 SET d1 = 'k' WHERE d1 = 'j'";
    ];
  fails Engine.Errors.Check_violation "INSERT INTO t9 VALUES ('l', -3)";
  step "rollback"
    [
      "BEGIN";
      "CREATE UNIQUE INDEX i2 ON t9(d1)";
      "INSERT INTO t9 VALUES ('m', 4)";
      "ROLLBACK";
      "INSERT INTO t9 VALUES ('k', 5)";
      "UPDATE t9 SET c2 = 6 WHERE d1 = 'k'";
    ];
  (* a LIKE key compiled before the flip must not be reused after it *)
  step "like index"
    [ "CREATE INDEX i3 ON t9((d1 LIKE 'A%'))"; "INSERT INTO t9 VALUES ('a1', 7)" ];
  let like_true () =
    let cat = Engine.Session.catalog s in
    index_entries (Option.get (Storage.Catalog.find_index cat "i3"))
    |> List.filter (fun (k, _) -> k = [| Value.Int 1L |])
    |> List.length
  in
  script s [ "PRAGMA case_sensitive_like = 1"; "INSERT INTO t9 VALUES ('a2', 8)" ];
  Alcotest.(check int) "'a2' keyed case-sensitively" 1 (like_true ());
  script s [ "UPDATE t9 SET d1 = 'A2' WHERE d1 = 'a2'" ];
  Alcotest.(check int) "'A2' matches" 2 (like_true ());
  check_consistent "after the flip" s

let () =
  Alcotest.run "engine-more"
    [
      ( "expressions",
        [
          Alcotest.test_case "three-valued WHERE" `Quick test_three_valued_where;
          Alcotest.test_case "sqlite affinity compare" `Quick test_sqlite_affinity_compare;
          Alcotest.test_case "division semantics" `Quick test_division_semantics;
          Alcotest.test_case "concat semantics" `Quick test_concat_semantics;
          Alcotest.test_case "LIKE case rules" `Quick test_like_case_rules;
          Alcotest.test_case "PRAGMA reverse_unordered_selects" `Quick
            test_reverse_unordered_selects;
          Alcotest.test_case "IN/BETWEEN with NULL" `Quick test_in_between_null;
          Alcotest.test_case "CASE expression" `Quick test_case_expression;
          Alcotest.test_case "CHECK constraints" `Quick test_check_constraints;
          Alcotest.test_case "ORDER BY collation" `Quick test_order_by_collation;
        ] );
      ( "ddl",
        [
          Alcotest.test_case "alter table" `Quick test_alter_table;
          Alcotest.test_case "unique index on conflicting data" `Quick
            test_unique_index_on_conflicting_data;
          Alcotest.test_case "partial index maintenance" `Quick
            test_partial_index_maintenance;
          Alcotest.test_case "expression index scan" `Quick test_expression_index_scan;
          Alcotest.test_case "views" `Quick test_views_follow_base_table;
          Alcotest.test_case "serial" `Quick test_serial_autoincrement;
          Alcotest.test_case "rowid alias" `Quick test_rowid_alias;
          Alcotest.test_case "subqueries in FROM" `Quick test_subqueries;
          Alcotest.test_case "explain" `Quick test_explain;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "vacuum/reindex/analyze" `Quick
            test_vacuum_reindex_analyze;
          Alcotest.test_case "mysql check/repair" `Quick test_mysql_check_repair;
          Alcotest.test_case "pg statistics" `Quick test_pg_statistics;
          Alcotest.test_case "corruption gates" `Quick test_corruption_gates_statements;
        ] );
      ( "index consistency",
        [
          Alcotest.test_case "write-heavy sweep" `Quick
            test_index_consistency_sweep;
          Alcotest.test_case "failed UPDATE keeps index entries" `Quick
            test_failed_update_keeps_entries;
          Alcotest.test_case "write-plan invalidation" `Quick
            test_write_plan_invalidation;
        ] );
      ( "planner-soundness",
        List.map QCheck_alcotest.to_alcotest
          [
            planner_soundness_prop Dialect.Sqlite_like;
            planner_soundness_prop Dialect.Mysql_like;
            planner_soundness_prop Dialect.Postgres_like;
          ] );
    ]
