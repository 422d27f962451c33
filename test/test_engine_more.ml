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
          match
            Engine.Eval.run (fun () ->
                Engine.Ddl.build_index_entries ctx ts rebuilt)
          with
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

(* ---------- statement outcomes ---------- *)

(* A digest of the database: every table's rows with their rowids, every
   index's (key, rowid) entries and the view names, in name order. *)
let compare_name (a, _) (b, _) = compare a b

let state_digest s =
  let cat = Engine.Session.catalog s in
  let b = Buffer.create 256 in
  let add_values vs =
    Array.iter
      (fun v ->
        Buffer.add_string b (Value.show v);
        Buffer.add_char b ',')
      vs
  in
  List.iter
    (fun (name, (ts : Storage.Catalog.table_state)) ->
      Buffer.add_string b ("table " ^ name ^ ":");
      List.iter
        (fun (r : Storage.Row.t) ->
          Buffer.add_string b (Int64.to_string r.Storage.Row.rowid ^ "=");
          add_values r.Storage.Row.values)
        (Storage.Heap.to_list ts.Storage.Catalog.heap))
    (List.sort compare_name cat.Storage.Catalog.tables);
  List.iter
    (fun (name, ix) ->
      Buffer.add_string b ("index " ^ name ^ ":");
      List.iter
        (fun (k, id) ->
          add_values k;
          Buffer.add_string b ("@" ^ Int64.to_string id ^ ";"))
        (index_entries ix))
    (List.sort compare_name cat.Storage.Catalog.indexes);
  List.iter
    (fun v -> Buffer.add_string b ("view " ^ v ^ ";"))
    (List.sort compare (Engine.Session.view_names s));
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 8

(* Run [sqls] on [s] and describe each statement's outcome (the error, or
   the affected or row count) and the database digest after it.  The
   pseudo-statement [corrupt] marks the database corrupted. *)
let transcript s sqls =
  List.map
    (fun sql ->
      let outcome =
        if sql = "corrupt" then begin
          Storage.Catalog.corrupt (Engine.Session.catalog s)
            "database disk image is malformed";
          "-"
        end
        else
          match Sqlparse.Parser.parse_stmt sql with
          | Error e ->
              Alcotest.failf "parse failed (%s): %s" sql
                (Sqlparse.Parser.show_error e)
          | Ok stmt -> (
              match Engine.Session.execute s stmt with
              | Ok (Engine.Session.Rows rs) ->
                  Printf.sprintf "rows %d" (List.length rs.Engine.Executor.rs_rows)
              | Ok (Engine.Session.Affected n) -> Printf.sprintf "affected %d" n
              | Ok Engine.Session.Done -> "ok"
              | Error e -> Engine.Errors.show e
              | exception Engine.Errors.Crash m -> "crash " ^ m)
      in
      Printf.sprintf "%s => %s | %s" sql outcome (state_digest s))
    sqls

(* One script per dialect through every statement-level error path: DDL
   errors; NOT NULL, CHECK and UNIQUE failures with and without IGNORE;
   an index key that fails to evaluate mid-INSERT (the row and its
   earlier entries are undone) and mid-UPDATE (the old row version is
   restored); a DELETE whose WHERE raises after its first row; transaction
   state errors; options in the wrong dialect; maintenance errors; and the
   corruption gate. *)
let outcome_script d =
  let sqlite = Dialect.equal d Dialect.Sqlite_like in
  let insert ~ignore table values =
    match (ignore, d) with
    | false, _ -> Printf.sprintf "INSERT INTO %s VALUES %s" table values
    | true, Dialect.Sqlite_like ->
        Printf.sprintf "INSERT OR IGNORE INTO %s VALUES %s" table values
    | true, Dialect.Mysql_like ->
        Printf.sprintf "INSERT IGNORE INTO %s VALUES %s" table values
    | true, Dialect.Postgres_like ->
        Printf.sprintf "INSERT INTO %s VALUES %s ON CONFLICT DO NOTHING" table
          values
  in
  let update ~ignore rest =
    if not ignore then "UPDATE " ^ rest
    else if sqlite then "UPDATE OR IGNORE " ^ rest
    else "UPDATE IGNORE " ^ rest
  in
  let both f = [ f ~ignore:false; f ~ignore:true ] in
  let min_int = "(-9223372036854775807 - 1)" in
  List.concat
    [
      [
        "CREATE TABLE t0(c0 INT NOT NULL, c1 BIGINT, c2 INT UNIQUE, CHECK (c1 < 100))";
        "CREATE TABLE t0(c0 INT)";
        "CREATE TABLE t1(c0 INT, c0 INT)";
        "CREATE TABLE t1(c0 INT) WITHOUT ROWID";
        "CREATE TABLE t1(c0 INT PRIMARY KEY, c1 INT, PRIMARY KEY (c1))";
        "CREATE INDEX i0 ON t9(c0)";
        "CREATE INDEX i0 ON t0(c9)";
        "DROP TABLE t9";
        "DROP INDEX i9";
        "DROP VIEW v9";
        "ALTER TABLE t9 ADD COLUMN c3 INT";
        "ALTER TABLE t0 RENAME COLUMN c9 TO c8";
        "ALTER TABLE t0 ADD COLUMN c1 INT";
        "ALTER TABLE t0 DROP COLUMN c2";
        "CREATE VIEW v0 AS SELECT c9 FROM t0";
        "CREATE VIEW v0 AS SELECT c0 FROM t0";
        "CREATE VIEW v0 AS SELECT c1 FROM t0";
        "CREATE INDEX i1 ON t0(c0)";
        "CREATE INDEX i1 ON t0(c1)";
        "CREATE INDEX i2 ON t0(ABS(c1))";
        insert ~ignore:false "t0(c0, c1, c2)" "(1, 1, 1)";
      ];
      both (fun ~ignore -> insert ~ignore "t0(c0, c1, c2)" "(NULL, 2, 2)");
      both (fun ~ignore -> insert ~ignore "t0(c0, c1, c2)" "(2, 200, 2)");
      both (fun ~ignore -> insert ~ignore "t0(c0, c1, c2)" "(3, 3, 1)");
      [
        insert ~ignore:false "t0(c0, c1, c2)" "(4, 4, 4), (5, 5, 5), (6, 6, 1)";
        insert ~ignore:true "t0(c0, c1, c2)" "(6, 6, 1), (10, 10, 10)";
        "CREATE VIEW v1 AS SELECT c9 FROM t0";
        insert ~ignore:false "t0(c0, c1, c2)" ("(7, " ^ min_int ^ ", 7)");
        insert ~ignore:false "t0(c9)" "(1)";
        insert ~ignore:false "t0(c0)" "(1, 2)";
        insert ~ignore:false "t9(c0)" "(1)";
        insert ~ignore:false "v0(c0)" "(1)";
        "UPDATE t0 SET c1 = " ^ min_int ^ " WHERE c0 = 1";
        "UPDATE t0 SET c9 = 1";
      ];
      both (fun ~ignore -> update ~ignore "t0 SET c0 = NULL WHERE c0 = 4");
      both (fun ~ignore -> update ~ignore "t0 SET c1 = 500 WHERE c0 = 4");
      both (fun ~ignore -> update ~ignore "t0 SET c2 = 1 WHERE c0 = 5");
      [
        "UPDATE t0 SET c1 = c1 + 10 WHERE c0 >= 4";
        "CREATE TABLE t3(c0 BIGINT)";
        "INSERT INTO t3 VALUES (1), " ^ min_int ^ ", (3)";
        "DELETE FROM t3 WHERE ABS(c0) > 0";
        "DELETE FROM t9";
        "SELECT c9 FROM t0";
        "SELECT * FROM t0 WHERE c0 > 1";
        "CREATE TABLE t4(c0 TINYINT)";
      ];
      both (fun ~ignore -> insert ~ignore "t4(c0)" "(1000), ('x'), (-1000)");
      [
        "BEGIN";
        "BEGIN";
        insert ~ignore:false "t0(c0, c1, c2)" "(8, 8, 8)";
        "ROLLBACK";
        "ROLLBACK";
        "COMMIT";
        "BEGIN";
        "COMMIT";
        "SET foo = 1";
        "SET GLOBAL key_cache_division_limit = 50";
        "PRAGMA case_sensitive_like = 1";
        "PRAGMA foo";
        "PRAGMA foo = 1";
        "VACUUM";
        "VACUUM FULL";
        "REINDEX";
        "REINDEX i9";
        "ANALYZE";
        "CHECK TABLE t0";
        "CHECK TABLE t9";
        "REPAIR TABLE t0";
        "REPAIR TABLE t9";
        "CREATE STATISTICS s0 ON c0 FROM t0";
        "CREATE STATISTICS s0 ON c0, c9 FROM t0";
        "CREATE STATISTICS s0 ON c0, c1 FROM t9";
        "CREATE STATISTICS s0 ON c0, c1 FROM t0";
        "CREATE STATISTICS s0 ON c0, c1 FROM t0";
        "DISCARD ALL";
        "EXPLAIN SELECT * FROM t0 WHERE c0 = 1";
        "corrupt";
        "SELECT * FROM t0";
        insert ~ignore:false "t0(c0, c1, c2)" "(9, 9, 9)";
        "CREATE TABLE t5(c0 INT)";
        "VACUUM";
        "REINDEX";
        "ANALYZE";
        "BEGIN";
        "PRAGMA foo";
        "ROLLBACK";
      ];
    ]

(* Pinned from the engine: a changed line is a change in what a statement
   reports or leaves behind. *)
let outcome_golden =
  [
    ( "Sqlite_like",
      [
      "CREATE TABLE t0(c0 INT NOT NULL, c1 BIGINT, c2 INT UNIQUE, CHECK (c1 < 100)) => ok | 4c763465";
      "CREATE TABLE t0(c0 INT) => [Object_exists] table t0 already exists | 4c763465";
      "CREATE TABLE t1(c0 INT, c0 INT) => [Syntax_error] duplicate column name in table t1 | 4c763465";
      "CREATE TABLE t1(c0 INT) WITHOUT ROWID => [Syntax_error] PRIMARY KEY missing on table t1 WITHOUT ROWID | 4c763465";
      "CREATE TABLE t1(c0 INT PRIMARY KEY, c1 INT, PRIMARY KEY (c1)) => [Syntax_error] multiple primary keys for table t1 | 4c763465";
      "CREATE INDEX i0 ON t9(c0) => [No_such_table] no such table: t9 | 4c763465";
      "CREATE INDEX i0 ON t0(c9) => [No_such_column] no such column: c9 | 4c763465";
      "DROP TABLE t9 => [No_such_table] no such table: t9 | 4c763465";
      "DROP INDEX i9 => [No_such_index] no such index: i9 | 4c763465";
      "DROP VIEW v9 => [No_such_view] no such view: v9 | 4c763465";
      "ALTER TABLE t9 ADD COLUMN c3 INT => [No_such_table] no such table: t9 | 4c763465";
      "ALTER TABLE t0 RENAME COLUMN c9 TO c8 => [No_such_column] no such column: c9 | 4c763465";
      "ALTER TABLE t0 ADD COLUMN c1 INT => [Object_exists] duplicate column name: c1 | 4c763465";
      "ALTER TABLE t0 DROP COLUMN c2 => [Syntax_error] cannot drop column c2: used by an index, CHECK or primary key | 4c763465";
      "CREATE VIEW v0 AS SELECT c9 FROM t0 => ok | 6336ac00";
      "CREATE VIEW v0 AS SELECT c0 FROM t0 => [Object_exists] view v0 already exists | 6336ac00";
      "CREATE VIEW v0 AS SELECT c1 FROM t0 => [Object_exists] view v0 already exists | 6336ac00";
      "CREATE INDEX i1 ON t0(c0) => ok | 21da6478";
      "CREATE INDEX i1 ON t0(c1) => [Object_exists] index i1 already exists | 21da6478";
      "CREATE INDEX i2 ON t0(ABS(c1)) => ok | 67506b16";
      "INSERT INTO t0(c0, c1, c2) VALUES (1, 1, 1) => affected 1 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (NULL, 2, 2) => [Not_null_violation] NOT NULL constraint failed: t0.c0 | fa656ad0";
      "INSERT OR IGNORE INTO t0(c0, c1, c2) VALUES (NULL, 2, 2) => affected 0 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (2, 200, 2) => [Check_violation] CHECK constraint failed: t0 | fa656ad0";
      "INSERT OR IGNORE INTO t0(c0, c1, c2) VALUES (2, 200, 2) => affected 0 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (3, 3, 1) => [Unique_violation] UNIQUE constraint failed: t0.c2 | fa656ad0";
      "INSERT OR IGNORE INTO t0(c0, c1, c2) VALUES (3, 3, 1) => affected 0 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (4, 4, 4), (5, 5, 5), (6, 6, 1) => [Unique_violation] UNIQUE constraint failed: t0.c2 | 96cc2409";
      "INSERT OR IGNORE INTO t0(c0, c1, c2) VALUES (6, 6, 1), (10, 10, 10) => affected 1 | a1f9392a";
      "CREATE VIEW v1 AS SELECT c9 FROM t0 => [No_such_column] no such column: c9 | a1f9392a";
      "INSERT INTO t0(c0, c1, c2) VALUES (7, (-9223372036854775807 - 1), 7) => [Out_of_range] integer overflow | a1f9392a";
      "INSERT INTO t0(c9) VALUES (1) => [No_such_column] table t0 has no column named c9 | a1f9392a";
      "INSERT INTO t0(c0) VALUES (1, 2) => [Syntax_error] 2 values for 1 columns | a1f9392a";
      "INSERT INTO t9(c0) VALUES (1) => [No_such_table] no such table: t9 | a1f9392a";
      "INSERT INTO v0(c0) VALUES (1) => [Unsupported] cannot modify view v0 | a1f9392a";
      "UPDATE t0 SET c1 = (-9223372036854775807 - 1) WHERE c0 = 1 => [Out_of_range] integer overflow | a1f9392a";
      "UPDATE t0 SET c9 = 1 => [No_such_column] no such column: c9 | a1f9392a";
      "UPDATE t0 SET c0 = NULL WHERE c0 = 4 => [Not_null_violation] NOT NULL constraint failed: t0.c0 | a1f9392a";
      "UPDATE OR IGNORE t0 SET c0 = NULL WHERE c0 = 4 => affected 0 | a1f9392a";
      "UPDATE t0 SET c1 = 500 WHERE c0 = 4 => [Check_violation] CHECK constraint failed: t0 | a1f9392a";
      "UPDATE OR IGNORE t0 SET c1 = 500 WHERE c0 = 4 => affected 0 | a1f9392a";
      "UPDATE t0 SET c2 = 1 WHERE c0 = 5 => [Unique_violation] UNIQUE constraint failed: t0.c2 | a1f9392a";
      "UPDATE OR IGNORE t0 SET c2 = 1 WHERE c0 = 5 => affected 0 | a1f9392a";
      "UPDATE t0 SET c1 = c1 + 10 WHERE c0 >= 4 => affected 3 | ccf79eba";
      "CREATE TABLE t3(c0 BIGINT) => ok | ac4c6ee6";
      "INSERT INTO t3 VALUES (1), (-9223372036854775807 - 1), (3) => affected 3 | a8e32885";
      "DELETE FROM t3 WHERE ABS(c0) > 0 => [Out_of_range] integer overflow | 66efbaa4";
      "DELETE FROM t9 => [No_such_table] no such table: t9 | 66efbaa4";
      "SELECT c9 FROM t0 => [No_such_column] no such column: c9 | 66efbaa4";
      "SELECT * FROM t0 WHERE c0 > 1 => rows 3 | 66efbaa4";
      "CREATE TABLE t4(c0 TINYINT) => ok | 86181956";
      "INSERT INTO t4(c0) VALUES (1000), ('x'), (-1000) => affected 3 | c3c64ee4";
      "INSERT OR IGNORE INTO t4(c0) VALUES (1000), ('x'), (-1000) => affected 3 | eeb36c7d";
      "BEGIN => ok | eeb36c7d";
      "BEGIN => [Txn_state] cannot start a transaction within a transaction | eeb36c7d";
      "INSERT INTO t0(c0, c1, c2) VALUES (8, 8, 8) => affected 1 | 0bcb225c";
      "ROLLBACK => ok | eeb36c7d";
      "ROLLBACK => [Txn_state] cannot rollback - no transaction is active | eeb36c7d";
      "COMMIT => [Txn_state] cannot commit - no transaction is active | eeb36c7d";
      "BEGIN => ok | eeb36c7d";
      "COMMIT => ok | eeb36c7d";
      "SET foo = 1 => [Syntax_error] SET is not supported; use PRAGMA | eeb36c7d";
      "SET GLOBAL key_cache_division_limit = 50 => [Syntax_error] SET is not supported; use PRAGMA | eeb36c7d";
      "PRAGMA case_sensitive_like = 1 => ok | eeb36c7d";
      "PRAGMA foo => ok | eeb36c7d";
      "PRAGMA foo = 1 => ok | eeb36c7d";
      "VACUUM => ok | 4b2e72b3";
      "VACUUM FULL => [Syntax_error] VACUUM FULL is postgres-specific | 4b2e72b3";
      "REINDEX => ok | 4b2e72b3";
      "REINDEX i9 => ok | 4b2e72b3";
      "ANALYZE => ok | 4b2e72b3";
      "CHECK TABLE t0 => [Syntax_error] CHECK TABLE is mysql-specific | 4b2e72b3";
      "CHECK TABLE t9 => [Syntax_error] CHECK TABLE is mysql-specific | 4b2e72b3";
      "REPAIR TABLE t0 => [Syntax_error] REPAIR TABLE is mysql-specific | 4b2e72b3";
      "REPAIR TABLE t9 => [Syntax_error] REPAIR TABLE is mysql-specific | 4b2e72b3";
      "CREATE STATISTICS s0 ON c0 FROM t0 => [Syntax_error] CREATE STATISTICS is postgres-specific | 4b2e72b3";
      "CREATE STATISTICS s0 ON c0, c9 FROM t0 => [Syntax_error] CREATE STATISTICS is postgres-specific | 4b2e72b3";
      "CREATE STATISTICS s0 ON c0, c1 FROM t9 => [Syntax_error] CREATE STATISTICS is postgres-specific | 4b2e72b3";
      "CREATE STATISTICS s0 ON c0, c1 FROM t0 => [Syntax_error] CREATE STATISTICS is postgres-specific | 4b2e72b3";
      "CREATE STATISTICS s0 ON c0, c1 FROM t0 => [Syntax_error] CREATE STATISTICS is postgres-specific | 4b2e72b3";
      "DISCARD ALL => [Syntax_error] DISCARD is postgres-specific | 4b2e72b3";
      "EXPLAIN SELECT * FROM t0 WHERE c0 = 1 => rows 1 | 4b2e72b3";
      "corrupt => - | 4b2e72b3";
      "SELECT * FROM t0 => [Malformed_database] database disk image is malformed | 4b2e72b3";
      "INSERT INTO t0(c0, c1, c2) VALUES (9, 9, 9) => [Malformed_database] database disk image is malformed | 4b2e72b3";
      "CREATE TABLE t5(c0 INT) => [Malformed_database] database disk image is malformed | 4b2e72b3";
      "VACUUM => [Malformed_database] database disk image is malformed | 4b2e72b3";
      "REINDEX => [Malformed_database] database disk image is malformed | 4b2e72b3";
      "ANALYZE => [Malformed_database] database disk image is malformed | 4b2e72b3";
      "BEGIN => ok | 4b2e72b3";
      "PRAGMA foo => ok | 4b2e72b3";
      "ROLLBACK => ok | 4b2e72b3";
      ] );
    ( "Mysql_like",
      [
      "CREATE TABLE t0(c0 INT NOT NULL, c1 BIGINT, c2 INT UNIQUE, CHECK (c1 < 100)) => ok | 4c763465";
      "CREATE TABLE t0(c0 INT) => [Object_exists] table t0 already exists | 4c763465";
      "CREATE TABLE t1(c0 INT, c0 INT) => [Syntax_error] duplicate column name in table t1 | 4c763465";
      "CREATE TABLE t1(c0 INT) WITHOUT ROWID => [Syntax_error] WITHOUT ROWID is sqlite-specific | 4c763465";
      "CREATE TABLE t1(c0 INT PRIMARY KEY, c1 INT, PRIMARY KEY (c1)) => [Syntax_error] multiple primary keys for table t1 | 4c763465";
      "CREATE INDEX i0 ON t9(c0) => [No_such_table] no such table: t9 | 4c763465";
      "CREATE INDEX i0 ON t0(c9) => [No_such_column] no such column: c9 | 4c763465";
      "DROP TABLE t9 => [No_such_table] no such table: t9 | 4c763465";
      "DROP INDEX i9 => [No_such_index] no such index: i9 | 4c763465";
      "DROP VIEW v9 => [No_such_view] no such view: v9 | 4c763465";
      "ALTER TABLE t9 ADD COLUMN c3 INT => [No_such_table] no such table: t9 | 4c763465";
      "ALTER TABLE t0 RENAME COLUMN c9 TO c8 => [No_such_column] no such column: c9 | 4c763465";
      "ALTER TABLE t0 ADD COLUMN c1 INT => [Object_exists] duplicate column name: c1 | 4c763465";
      "ALTER TABLE t0 DROP COLUMN c2 => [Syntax_error] cannot drop column c2: used by an index, CHECK or primary key | 4c763465";
      "CREATE VIEW v0 AS SELECT c9 FROM t0 => ok | 6336ac00";
      "CREATE VIEW v0 AS SELECT c0 FROM t0 => [Object_exists] view v0 already exists | 6336ac00";
      "CREATE VIEW v0 AS SELECT c1 FROM t0 => [Object_exists] view v0 already exists | 6336ac00";
      "CREATE INDEX i1 ON t0(c0) => ok | 21da6478";
      "CREATE INDEX i1 ON t0(c1) => [Object_exists] index i1 already exists | 21da6478";
      "CREATE INDEX i2 ON t0(ABS(c1)) => ok | 67506b16";
      "INSERT INTO t0(c0, c1, c2) VALUES (1, 1, 1) => affected 1 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (NULL, 2, 2) => [Not_null_violation] NOT NULL constraint failed: t0.c0 | fa656ad0";
      "INSERT IGNORE INTO t0(c0, c1, c2) VALUES (NULL, 2, 2) => affected 0 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (2, 200, 2) => [Check_violation] CHECK constraint failed: t0 | fa656ad0";
      "INSERT IGNORE INTO t0(c0, c1, c2) VALUES (2, 200, 2) => affected 0 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (3, 3, 1) => [Unique_violation] UNIQUE constraint failed: t0.c2 | fa656ad0";
      "INSERT IGNORE INTO t0(c0, c1, c2) VALUES (3, 3, 1) => affected 0 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (4, 4, 4), (5, 5, 5), (6, 6, 1) => [Unique_violation] UNIQUE constraint failed: t0.c2 | 96cc2409";
      "INSERT IGNORE INTO t0(c0, c1, c2) VALUES (6, 6, 1), (10, 10, 10) => affected 1 | a1f9392a";
      "CREATE VIEW v1 AS SELECT c9 FROM t0 => [No_such_column] no such column: c9 | a1f9392a";
      "INSERT INTO t0(c0, c1, c2) VALUES (7, (-9223372036854775807 - 1), 7) => [Out_of_range] BIGINT value is out of range | a1f9392a";
      "INSERT INTO t0(c9) VALUES (1) => [No_such_column] table t0 has no column named c9 | a1f9392a";
      "INSERT INTO t0(c0) VALUES (1, 2) => [Syntax_error] 2 values for 1 columns | a1f9392a";
      "INSERT INTO t9(c0) VALUES (1) => [No_such_table] no such table: t9 | a1f9392a";
      "INSERT INTO v0(c0) VALUES (1) => [Unsupported] cannot modify view v0 | a1f9392a";
      "UPDATE t0 SET c1 = (-9223372036854775807 - 1) WHERE c0 = 1 => [Out_of_range] BIGINT value is out of range | a1f9392a";
      "UPDATE t0 SET c9 = 1 => [No_such_column] no such column: c9 | a1f9392a";
      "UPDATE t0 SET c0 = NULL WHERE c0 = 4 => [Not_null_violation] NOT NULL constraint failed: t0.c0 | a1f9392a";
      "UPDATE IGNORE t0 SET c0 = NULL WHERE c0 = 4 => affected 0 | a1f9392a";
      "UPDATE t0 SET c1 = 500 WHERE c0 = 4 => [Check_violation] CHECK constraint failed: t0 | a1f9392a";
      "UPDATE IGNORE t0 SET c1 = 500 WHERE c0 = 4 => affected 0 | a1f9392a";
      "UPDATE t0 SET c2 = 1 WHERE c0 = 5 => [Unique_violation] UNIQUE constraint failed: t0.c2 | a1f9392a";
      "UPDATE IGNORE t0 SET c2 = 1 WHERE c0 = 5 => affected 0 | a1f9392a";
      "UPDATE t0 SET c1 = c1 + 10 WHERE c0 >= 4 => affected 3 | ccf79eba";
      "CREATE TABLE t3(c0 BIGINT) => ok | ac4c6ee6";
      "INSERT INTO t3 VALUES (1), (-9223372036854775807 - 1), (3) => affected 3 | a8e32885";
      "DELETE FROM t3 WHERE ABS(c0) > 0 => [Out_of_range] BIGINT value is out of range | 66efbaa4";
      "DELETE FROM t9 => [No_such_table] no such table: t9 | 66efbaa4";
      "SELECT c9 FROM t0 => [No_such_column] no such column: c9 | 66efbaa4";
      "SELECT * FROM t0 WHERE c0 > 1 => rows 3 | 66efbaa4";
      "CREATE TABLE t4(c0 TINYINT) => ok | 86181956";
      "INSERT INTO t4(c0) VALUES (1000), ('x'), (-1000) => affected 3 | 7e146b30";
      "INSERT IGNORE INTO t4(c0) VALUES (1000), ('x'), (-1000) => affected 3 | 6776d96a";
      "BEGIN => ok | 6776d96a";
      "BEGIN => [Txn_state] cannot start a transaction within a transaction | 6776d96a";
      "INSERT INTO t0(c0, c1, c2) VALUES (8, 8, 8) => affected 1 | 91e0e0eb";
      "ROLLBACK => ok | 6776d96a";
      "ROLLBACK => [Txn_state] cannot rollback - no transaction is active | 6776d96a";
      "COMMIT => [Txn_state] cannot commit - no transaction is active | 6776d96a";
      "BEGIN => ok | 6776d96a";
      "COMMIT => ok | 6776d96a";
      "SET foo = 1 => [Invalid_option] unknown option or pragma: foo | 6776d96a";
      "SET GLOBAL key_cache_division_limit = 50 => ok | 6776d96a";
      "PRAGMA case_sensitive_like = 1 => [Syntax_error] PRAGMA is sqlite-specific | 6776d96a";
      "PRAGMA foo => [Syntax_error] PRAGMA is sqlite-specific | 6776d96a";
      "PRAGMA foo = 1 => [Syntax_error] PRAGMA is sqlite-specific | 6776d96a";
      "VACUUM => [Syntax_error] VACUUM is not supported; use OPTIMIZE | 6776d96a";
      "VACUUM FULL => [Syntax_error] VACUUM is not supported; use OPTIMIZE | 6776d96a";
      "REINDEX => [Syntax_error] REINDEX is not supported | 6776d96a";
      "REINDEX i9 => [Syntax_error] REINDEX is not supported | 6776d96a";
      "ANALYZE => ok | 6776d96a";
      "CHECK TABLE t0 => ok | 6776d96a";
      "CHECK TABLE t9 => [No_such_table] no such table: t9 | 6776d96a";
      "REPAIR TABLE t0 => ok | 6776d96a";
      "REPAIR TABLE t9 => [No_such_table] no such table: t9 | 6776d96a";
      "CREATE STATISTICS s0 ON c0 FROM t0 => [Syntax_error] CREATE STATISTICS is postgres-specific | 6776d96a";
      "CREATE STATISTICS s0 ON c0, c9 FROM t0 => [Syntax_error] CREATE STATISTICS is postgres-specific | 6776d96a";
      "CREATE STATISTICS s0 ON c0, c1 FROM t9 => [Syntax_error] CREATE STATISTICS is postgres-specific | 6776d96a";
      "CREATE STATISTICS s0 ON c0, c1 FROM t0 => [Syntax_error] CREATE STATISTICS is postgres-specific | 6776d96a";
      "CREATE STATISTICS s0 ON c0, c1 FROM t0 => [Syntax_error] CREATE STATISTICS is postgres-specific | 6776d96a";
      "DISCARD ALL => [Syntax_error] DISCARD is postgres-specific | 6776d96a";
      "EXPLAIN SELECT * FROM t0 WHERE c0 = 1 => rows 1 | 6776d96a";
      "corrupt => - | 6776d96a";
      "SELECT * FROM t0 => [Malformed_database] database disk image is malformed | 6776d96a";
      "INSERT INTO t0(c0, c1, c2) VALUES (9, 9, 9) => [Malformed_database] database disk image is malformed | 6776d96a";
      "CREATE TABLE t5(c0 INT) => [Malformed_database] database disk image is malformed | 6776d96a";
      "VACUUM => [Malformed_database] database disk image is malformed | 6776d96a";
      "REINDEX => [Malformed_database] database disk image is malformed | 6776d96a";
      "ANALYZE => [Malformed_database] database disk image is malformed | 6776d96a";
      "BEGIN => ok | 6776d96a";
      "PRAGMA foo => [Syntax_error] PRAGMA is sqlite-specific | 6776d96a";
      "ROLLBACK => ok | 6776d96a";
      ] );
    ( "Postgres_like",
      [
      "CREATE TABLE t0(c0 INT NOT NULL, c1 BIGINT, c2 INT UNIQUE, CHECK (c1 < 100)) => ok | 4c763465";
      "CREATE TABLE t0(c0 INT) => [Object_exists] table t0 already exists | 4c763465";
      "CREATE TABLE t1(c0 INT, c0 INT) => [Syntax_error] duplicate column name in table t1 | 4c763465";
      "CREATE TABLE t1(c0 INT) WITHOUT ROWID => [Syntax_error] WITHOUT ROWID is sqlite-specific | 4c763465";
      "CREATE TABLE t1(c0 INT PRIMARY KEY, c1 INT, PRIMARY KEY (c1)) => [Syntax_error] multiple primary keys for table t1 | 4c763465";
      "CREATE INDEX i0 ON t9(c0) => [No_such_table] no such table: t9 | 4c763465";
      "CREATE INDEX i0 ON t0(c9) => [No_such_column] no such column: c9 | 4c763465";
      "DROP TABLE t9 => [No_such_table] no such table: t9 | 4c763465";
      "DROP INDEX i9 => [No_such_index] no such index: i9 | 4c763465";
      "DROP VIEW v9 => [No_such_view] no such view: v9 | 4c763465";
      "ALTER TABLE t9 ADD COLUMN c3 INT => [No_such_table] no such table: t9 | 4c763465";
      "ALTER TABLE t0 RENAME COLUMN c9 TO c8 => [No_such_column] no such column: c9 | 4c763465";
      "ALTER TABLE t0 ADD COLUMN c1 INT => [Object_exists] duplicate column name: c1 | 4c763465";
      "ALTER TABLE t0 DROP COLUMN c2 => [Syntax_error] cannot drop column c2: used by an index, CHECK or primary key | 4c763465";
      "CREATE VIEW v0 AS SELECT c9 FROM t0 => ok | 6336ac00";
      "CREATE VIEW v0 AS SELECT c0 FROM t0 => [Object_exists] view v0 already exists | 6336ac00";
      "CREATE VIEW v0 AS SELECT c1 FROM t0 => [Object_exists] view v0 already exists | 6336ac00";
      "CREATE INDEX i1 ON t0(c0) => ok | 21da6478";
      "CREATE INDEX i1 ON t0(c1) => [Object_exists] index i1 already exists | 21da6478";
      "CREATE INDEX i2 ON t0(ABS(c1)) => ok | 67506b16";
      "INSERT INTO t0(c0, c1, c2) VALUES (1, 1, 1) => affected 1 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (NULL, 2, 2) => [Not_null_violation] NOT NULL constraint failed: t0.c0 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (NULL, 2, 2) ON CONFLICT DO NOTHING => affected 0 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (2, 200, 2) => [Check_violation] CHECK constraint failed: t0 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (2, 200, 2) ON CONFLICT DO NOTHING => affected 0 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (3, 3, 1) => [Unique_violation] UNIQUE constraint failed: t0.c2 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (3, 3, 1) ON CONFLICT DO NOTHING => affected 0 | fa656ad0";
      "INSERT INTO t0(c0, c1, c2) VALUES (4, 4, 4), (5, 5, 5), (6, 6, 1) => [Unique_violation] UNIQUE constraint failed: t0.c2 | 96cc2409";
      "INSERT INTO t0(c0, c1, c2) VALUES (6, 6, 1), (10, 10, 10) ON CONFLICT DO NOTHING => affected 1 | a1f9392a";
      "CREATE VIEW v1 AS SELECT c9 FROM t0 => [No_such_column] no such column: c9 | a1f9392a";
      "INSERT INTO t0(c0, c1, c2) VALUES (7, (-9223372036854775807 - 1), 7) => [Out_of_range] BIGINT value is out of range | a1f9392a";
      "INSERT INTO t0(c9) VALUES (1) => [No_such_column] table t0 has no column named c9 | a1f9392a";
      "INSERT INTO t0(c0) VALUES (1, 2) => [Syntax_error] 2 values for 1 columns | a1f9392a";
      "INSERT INTO t9(c0) VALUES (1) => [No_such_table] no such table: t9 | a1f9392a";
      "INSERT INTO v0(c0) VALUES (1) => [Unsupported] cannot modify view v0 | a1f9392a";
      "UPDATE t0 SET c1 = (-9223372036854775807 - 1) WHERE c0 = 1 => [Out_of_range] BIGINT value is out of range | a1f9392a";
      "UPDATE t0 SET c9 = 1 => [No_such_column] no such column: c9 | a1f9392a";
      "UPDATE t0 SET c0 = NULL WHERE c0 = 4 => [Not_null_violation] NOT NULL constraint failed: t0.c0 | a1f9392a";
      "UPDATE IGNORE t0 SET c0 = NULL WHERE c0 = 4 => affected 0 | a1f9392a";
      "UPDATE t0 SET c1 = 500 WHERE c0 = 4 => [Check_violation] CHECK constraint failed: t0 | a1f9392a";
      "UPDATE IGNORE t0 SET c1 = 500 WHERE c0 = 4 => affected 0 | a1f9392a";
      "UPDATE t0 SET c2 = 1 WHERE c0 = 5 => [Unique_violation] UNIQUE constraint failed: t0.c2 | a1f9392a";
      "UPDATE IGNORE t0 SET c2 = 1 WHERE c0 = 5 => affected 0 | a1f9392a";
      "UPDATE t0 SET c1 = c1 + 10 WHERE c0 >= 4 => affected 3 | ccf79eba";
      "CREATE TABLE t3(c0 BIGINT) => ok | ac4c6ee6";
      "INSERT INTO t3 VALUES (1), (-9223372036854775807 - 1), (3) => affected 3 | a8e32885";
      "DELETE FROM t3 WHERE ABS(c0) > 0 => [Out_of_range] BIGINT value is out of range | 66efbaa4";
      "DELETE FROM t9 => [No_such_table] no such table: t9 | 66efbaa4";
      "SELECT c9 FROM t0 => [No_such_column] no such column: c9 | 66efbaa4";
      "SELECT * FROM t0 WHERE c0 > 1 => rows 3 | 66efbaa4";
      "CREATE TABLE t4(c0 TINYINT) => ok | 86181956";
      "INSERT INTO t4(c0) VALUES (1000), ('x'), (-1000) => [Type_error] integer out of range | 86181956";
      "INSERT INTO t4(c0) VALUES (1000), ('x'), (-1000) ON CONFLICT DO NOTHING => affected 3 | e54d3751";
      "BEGIN => ok | e54d3751";
      "BEGIN => [Txn_state] cannot start a transaction within a transaction | e54d3751";
      "INSERT INTO t0(c0, c1, c2) VALUES (8, 8, 8) => affected 1 | 47230788";
      "ROLLBACK => ok | e54d3751";
      "ROLLBACK => [Txn_state] cannot rollback - no transaction is active | e54d3751";
      "COMMIT => [Txn_state] cannot commit - no transaction is active | e54d3751";
      "BEGIN => ok | e54d3751";
      "COMMIT => ok | e54d3751";
      "SET foo = 1 => [Invalid_option] unknown option or pragma: foo | e54d3751";
      "SET GLOBAL key_cache_division_limit = 50 => [Invalid_option] unknown option or pragma: key_cache_division_limit | e54d3751";
      "PRAGMA case_sensitive_like = 1 => [Syntax_error] PRAGMA is sqlite-specific | e54d3751";
      "PRAGMA foo => [Syntax_error] PRAGMA is sqlite-specific | e54d3751";
      "PRAGMA foo = 1 => [Syntax_error] PRAGMA is sqlite-specific | e54d3751";
      "VACUUM => ok | ca123ff8";
      "VACUUM FULL => ok | ca123ff8";
      "REINDEX => ok | ca123ff8";
      "REINDEX i9 => ok | ca123ff8";
      "ANALYZE => ok | ca123ff8";
      "CHECK TABLE t0 => [Syntax_error] CHECK TABLE is mysql-specific | ca123ff8";
      "CHECK TABLE t9 => [Syntax_error] CHECK TABLE is mysql-specific | ca123ff8";
      "REPAIR TABLE t0 => [Syntax_error] REPAIR TABLE is mysql-specific | ca123ff8";
      "REPAIR TABLE t9 => [Syntax_error] REPAIR TABLE is mysql-specific | ca123ff8";
      "CREATE STATISTICS s0 ON c0 FROM t0 => [Syntax_error] extended statistics require at least 2 columns | ca123ff8";
      "CREATE STATISTICS s0 ON c0, c9 FROM t0 => [No_such_column] no such column: c9 | ca123ff8";
      "CREATE STATISTICS s0 ON c0, c1 FROM t9 => [No_such_table] no such table: t9 | ca123ff8";
      "CREATE STATISTICS s0 ON c0, c1 FROM t0 => ok | ca123ff8";
      "CREATE STATISTICS s0 ON c0, c1 FROM t0 => [Object_exists] statistics s0 already exist | ca123ff8";
      "DISCARD ALL => ok | ca123ff8";
      "EXPLAIN SELECT * FROM t0 WHERE c0 = 1 => rows 1 | ca123ff8";
      "corrupt => - | ca123ff8";
      "SELECT * FROM t0 => [Malformed_database] database disk image is malformed | ca123ff8";
      "INSERT INTO t0(c0, c1, c2) VALUES (9, 9, 9) => [Malformed_database] database disk image is malformed | ca123ff8";
      "CREATE TABLE t5(c0 INT) => [Malformed_database] database disk image is malformed | ca123ff8";
      "VACUUM => [Malformed_database] database disk image is malformed | ca123ff8";
      "REINDEX => [Malformed_database] database disk image is malformed | ca123ff8";
      "ANALYZE => [Malformed_database] database disk image is malformed | ca123ff8";
      "BEGIN => ok | ca123ff8";
      "PRAGMA foo => [Syntax_error] PRAGMA is sqlite-specific | ca123ff8";
      "ROLLBACK => ok | ca123ff8";
      ] );
    ( "mysql ignore clamp",
      [
      "CREATE TABLE t4(c0 TINYINT, c1 INT) => ok | 080dac98";
      "INSERT IGNORE INTO t4 VALUES (5, 1), (1000, 2), (7, 3) => [Internal_error] Data truncated for column 'c0' despite IGNORE | fc2cf8f3";
      "INSERT INTO t4 VALUES (1000, 4) => affected 1 | 2ac03d0f";
      ] );
  ]

let test_statement_outcomes () =
  let run name ?(bugs = []) d sqls =
    let s = Engine.Session.create ~bugs:(Engine.Bug.set_of_list bugs) d in
    (name, transcript s sqls)
  in
  let runs =
    List.map
      (fun d -> run (Dialect.show d) d (outcome_script d))
      [ Dialect.Sqlite_like; Dialect.Mysql_like; Dialect.Postgres_like ]
    @ [
        (* mysql's injected IGNORE-clamp defect errors where a clamp
           succeeds *)
        run "mysql ignore clamp" ~bugs:[ Engine.Bug.My_intended_ignore_clamp ]
          Dialect.Mysql_like
          [
            "CREATE TABLE t4(c0 TINYINT, c1 INT)";
            "INSERT IGNORE INTO t4 VALUES (5, 1), (1000, 2), (7, 3)";
            "INSERT INTO t4 VALUES (1000, 4)";
          ];
      ]
  in
  List.iter
    (fun (name, lines) ->
      if List.assoc_opt name outcome_golden <> Some lines then begin
        Printf.printf "(%S,\n [\n" name;
        List.iter (fun l -> Printf.printf "  %S;\n" l) lines;
        Printf.printf " ]);\n"
      end)
    runs;
  List.iter
    (fun (name, lines) ->
      Alcotest.(check (list string)) name
        (Option.value ~default:[] (List.assoc_opt name outcome_golden))
        lines)
    runs

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
      (* At most 17 characters, as long as the longest suite name
         before it, so Alcotest prints the other names unchanged. *)
      ( "stmt outcomes",
        [
          Alcotest.test_case "errors, undo and state per statement" `Quick
            test_statement_outcomes;
        ] );
      ( "planner-soundness",
        List.map QCheck_alcotest.to_alcotest
          [
            planner_soundness_prop Dialect.Sqlite_like;
            planner_soundness_prop Dialect.Mysql_like;
            planner_soundness_prop Dialect.Postgres_like;
          ] );
    ]
