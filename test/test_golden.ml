(* Golden semantics tests: each case pins a documented dialect behaviour
   to an exact result, readable as a specification of the engine.  The
   scripts run through the SQL text front end, so they also exercise the
   lexer/parser on realistic statements. *)

open Sqlval

type outcome =
  | Rows of string list
  | Err of Engine.Errors.code
  | Err_msg of Engine.Errors.code * string  (** the code and exact message *)
  | Columns of string list  (** the result's column names *)

type case = {
  name : string;
  dialect : Dialect.t;
  script : string;  (** setup; must succeed *)
  query : string;
  expect : outcome;
}

let sq = Dialect.Sqlite_like
let my = Dialect.Mysql_like
let pg = Dialect.Postgres_like

(* Evaluation order within one expression, on postgres (whose errors
   make the order visible) over the row (0, 'x'): operands left to
   right, AND/OR skipping their right operand once the left decides, IN
   stopping at the first equal item, BETWEEN evaluating every operand
   before its type check, LIKE its operands before the ESCAPE check, and
   CASE only the branch it takes. *)
let eval_order name expr expect =
  {
    name = "postgres evaluation order: " ^ name;
    dialect = Dialect.Postgres_like;
    script = "CREATE TABLE t(a BIGINT, s TEXT); INSERT INTO t VALUES (0, 'x');";
    query = "SELECT " ^ expr ^ " FROM t";
    expect;
  }

(* [*] and [t.*] name the FROM's columns whether or not it has rows,
   in every dialect (sqlite returns zero rows named [c0]); an empty
   operand keeps its width in a compound *)
let empty_table_stars =
  List.concat_map
    (fun dialect ->
      let case name query expect =
        {
          name = Dialect.name dialect ^ ": " ^ name;
          dialect;
          script = "CREATE TABLE t0(c0 INT);";
          query;
          expect;
        }
      in
      [
        case "t.* over an empty table names its columns" "SELECT t0.* FROM t0"
          (Columns [ "c0" ]);
        case "* over an empty table names its columns" "SELECT * FROM t0"
          (Columns [ "c0" ]);
        case "t.* over an empty table returns no rows" "SELECT t0.* FROM t0"
          (Rows []);
        case "* over an empty table is one column wide in an INTERSECT"
          "VALUES (1) INTERSECT SELECT * FROM t0" (Rows []);
      ])
    [ sq; my; pg ]

let cases =
  [
    (* --- three-valued logic --- *)
    {
      name = "null propagates through comparison";
      dialect = sq;
      script = "CREATE TABLE t(c); INSERT INTO t VALUES (NULL);";
      query = "SELECT c = NULL, c <> NULL, c IS NULL FROM t";
      expect = Rows [ "NULL|NULL|1" ];
    };
    {
      name = "and/or kleene tables";
      dialect = sq;
      script = "";
      query = "SELECT NULL AND 0, NULL AND 1, NULL OR 1, NULL OR 0";
      expect = Rows [ "0|NULL|1|NULL" ];
    };
    (* --- sqlite IS over scalars --- *)
    {
      name = "IS is null-safe equality";
      dialect = sq;
      script = "";
      query = "SELECT NULL IS NULL, NULL IS 1, 1 IS 1, 1 IS NOT 2";
      expect = Rows [ "1|0|1|1" ];
    };
    (* --- affinity --- *)
    {
      name = "INT affinity converts text on insert";
      dialect = sq;
      script = "CREATE TABLE t(c INT); INSERT INTO t VALUES ('42');";
      query = "SELECT TYPEOF(c), c + 1 FROM t";
      expect = Rows [ "integer|43" ];
    };
    {
      name = "no affinity keeps text";
      dialect = sq;
      script = "CREATE TABLE t(c); INSERT INTO t VALUES ('42');";
      query = "SELECT TYPEOF(c) FROM t";
      expect = Rows [ "text" ];
    };
    (* --- collations --- *)
    {
      name = "nocase equality";
      dialect = sq;
      script = "CREATE TABLE t(c TEXT COLLATE NOCASE); INSERT INTO t VALUES ('AbC');";
      query = "SELECT COUNT(*) FROM t WHERE c = 'aBc'";
      expect = Rows [ "1" ];
    };
    {
      name = "rtrim ignores trailing spaces both sides";
      dialect = sq;
      script = "CREATE TABLE t(c TEXT COLLATE RTRIM); INSERT INTO t VALUES ('x  ');";
      query = "SELECT COUNT(*) FROM t WHERE c = 'x'";
      expect = Rows [ "1" ];
    };
    (* --- arithmetic --- *)
    {
      name = "sqlite integer overflow promotes to real";
      dialect = sq;
      script = "";
      query = "SELECT 9223372036854775807 + 1 > 0";
      expect = Rows [ "1" ];
    };
    {
      name = "mysql integer overflow errors";
      dialect = my;
      script = "";
      query = "SELECT 9223372036854775807 + 1";
      expect = Err Engine.Errors.Out_of_range;
    };
    {
      name = "sqlite text minus int is exact";
      dialect = sq;
      script = "";
      query = "SELECT '' - 2851427734582196970";
      expect = Rows [ "-2851427734582196970" ];
    };
    {
      name = "modulo by zero is NULL in sqlite";
      dialect = sq;
      script = "";
      query = "SELECT 5 % 0";
      expect = Rows [ "NULL" ];
    };
    (* --- mysql specialties --- *)
    {
      name = "unsigned cast of negative is huge";
      dialect = my;
      script = "";
      query = "SELECT CAST(-1 AS UNSIGNED) > 1000000";
      expect = Rows [ "1" ];
    };
    {
      name = "null-safe comparison never yields NULL";
      dialect = my;
      script = "";
      query = "SELECT NULL <=> NULL, NULL <=> 1, 2 <=> 2";
      expect = Rows [ "1|0|1" ];
    };
    {
      name = "tinyint clamps out of range";
      dialect = my;
      script = "CREATE TABLE t(c TINYINT); INSERT INTO t VALUES (1000);";
      query = "SELECT c FROM t";
      expect = Rows [ "127" ];
    };
    (* --- postgres specialties --- *)
    {
      name = "strict boolean WHERE";
      dialect = pg;
      script = "CREATE TABLE t(c INT); INSERT INTO t VALUES (1);";
      query = "SELECT * FROM t WHERE c + 1";
      expect = Err Engine.Errors.Type_error;
    };
    {
      name = "is distinct from";
      dialect = pg;
      script = "";
      query = "SELECT NULL IS DISTINCT FROM 1, NULL IS DISTINCT FROM NULL";
      expect = Rows [ "t|f" ];
    };
    {
      name = "serial starts at one";
      dialect = pg;
      script = "CREATE TABLE t(id SERIAL, v INT); INSERT INTO t(v) VALUES (7), (8);";
      query = "SELECT id, v FROM t ORDER BY id ASC";
      expect = Rows [ "1|7"; "2|8" ];
    };
    {
      name = "inherited rows appear in parent scans";
      dialect = pg;
      script =
        "CREATE TABLE p(c INT); CREATE TABLE k(d INT) INHERITS (p); INSERT \
         INTO p VALUES (1); INSERT INTO k(c, d) VALUES (2, 3);";
      query = "SELECT c FROM p ORDER BY c ASC";
      expect = Rows [ "1"; "2" ];
    };
    (* --- LIKE / GLOB --- *)
    {
      name = "like escape";
      dialect = sq;
      script = "";
      query = "SELECT '10%' LIKE '10!%' ESCAPE '!', '10x' LIKE '10!%' ESCAPE '!'";
      expect = Rows [ "1|0" ];
    };
    {
      name = "glob classes";
      dialect = sq;
      script = "";
      query = "SELECT 'b' GLOB '[a-c]', 'd' GLOB '[a-c]', 'd' GLOB '[^a-c]'";
      expect = Rows [ "1|0|1" ];
    };
    (* --- aggregates --- *)
    {
      name = "aggregates skip NULLs, COUNT(*) does not";
      dialect = sq;
      script = "CREATE TABLE t(c); INSERT INTO t VALUES (1), (NULL), (3);";
      query = "SELECT COUNT(*), COUNT(c), SUM(c), AVG(c), TOTAL(c) FROM t";
      expect = Rows [ "3|2|4|2.0|4.0" ];
    };
    {
      name = "aggregate over empty set";
      dialect = sq;
      script = "CREATE TABLE t(c);";
      query = "SELECT COUNT(*), SUM(c), MIN(c), TOTAL(c) FROM t";
      expect = Rows [ "0|NULL|NULL|0.0" ];
    };
    (* --- compound --- *)
    {
      name = "intersect treats NULLs as equal";
      dialect = sq;
      script = "";
      query = "SELECT NULL INTERSECT SELECT NULL";
      expect = Rows [ "NULL" ];
    };
    {
      name = "union deduplicates, union all does not";
      dialect = sq;
      script = "";
      query = "SELECT COUNT(*) FROM (SELECT 1 UNION SELECT 1 UNION ALL SELECT 1) AS s";
      expect = Rows [ "2" ];
    };
    (* --- INTERSECT/EXCEPT probe their right operand; these pin the
       shapes the probe must leave alone --- *)
    {
      name = "intersect keeps its right operand's LIMIT";
      dialect = sq;
      script = "CREATE TABLE t(a INT); INSERT INTO t VALUES (1), (2);";
      query = "VALUES (2) INTERSECT SELECT a FROM t ORDER BY a LIMIT 1";
      expect = Rows [];
    };
    {
      name = "intersect keeps its right operand's OFFSET";
      dialect = sq;
      script = "CREATE TABLE t(a INT); INSERT INTO t VALUES (1), (2);";
      query = "VALUES (1) INTERSECT SELECT a FROM t ORDER BY a LIMIT 5 OFFSET 1";
      expect = Rows [];
    };
    {
      name = "mysql ORDER BY key overflowing on a non-pivot row errors";
      dialect = my;
      script =
        "CREATE TABLE t(a BIGINT); INSERT INTO t VALUES (1), \
         (9223372036854775807);";
      query = "VALUES (1) INTERSECT SELECT a FROM t ORDER BY a + 1";
      expect = Err_msg (Engine.Errors.Out_of_range, "BIGINT value is out of range");
    };
    {
      name = "postgres ORDER BY key overflowing on a non-pivot row errors";
      dialect = pg;
      script =
        "CREATE TABLE t(a BIGINT); INSERT INTO t VALUES (1), \
         (9223372036854775807);";
      query = "VALUES (1) INTERSECT SELECT DISTINCT a FROM t ORDER BY a + 1";
      expect = Err_msg (Engine.Errors.Out_of_range, "BIGINT value is out of range");
    };
    {
      name = "intersect with an aggregate right operand";
      dialect = sq;
      script = "CREATE TABLE t(a INT); INSERT INTO t VALUES (1), (2), (2);";
      query =
        "VALUES (3), (2), (1) INTERSECT SELECT DISTINCT COUNT(*) FROM t GROUP \
         BY a";
      expect = Rows [ "2"; "1" ];
    };
    {
      name = "intersect with a constant right operand";
      dialect = sq;
      script = "";
      query = "VALUES (1), (2), (1) INTERSECT SELECT 1";
      expect = Rows [ "1" ];
    };
    {
      name = "intersect with a constant right operand filtered out";
      dialect = sq;
      script = "";
      query = "VALUES (1) INTERSECT SELECT 1 WHERE 0";
      expect = Rows [];
    };
    {
      name = "except keeps unmatched left rows once, in left order";
      dialect = sq;
      script = "CREATE TABLE t(a INT); INSERT INTO t VALUES (1), (2);";
      query =
        "VALUES (3), (1), (3), (4) EXCEPT SELECT DISTINCT a FROM t ORDER BY a \
         DESC";
      expect = Rows [ "3"; "4" ];
    };
    {
      name = "reverse_unordered_selects reverses a plain SELECT";
      dialect = sq;
      script =
        "CREATE TABLE t(a INT); INSERT INTO t VALUES (1), (2); PRAGMA \
         reverse_unordered_selects = 1;";
      query = "SELECT a FROM t";
      expect = Rows [ "2"; "1" ];
    };
    {
      name = "reverse_unordered_selects leaves intersect in left order";
      dialect = sq;
      script =
        "CREATE TABLE t(a INT); INSERT INTO t VALUES (1), (2); PRAGMA \
         reverse_unordered_selects = 1;";
      query = "VALUES (2), (1), (3) INTERSECT SELECT a FROM t";
      expect = Rows [ "2"; "1" ];
    };
    (* --- shapes rejected before evaluation --- *)
    {
      name = "sqlite star without FROM";
      dialect = sq;
      script = "";
      query = "SELECT * WHERE 1";
      expect = Err_msg (Engine.Errors.Syntax_error, "no tables specified");
    };
    {
      name = "mysql star without FROM";
      dialect = my;
      script = "";
      query = "SELECT *";
      expect = Err_msg (Engine.Errors.Syntax_error, "No tables used");
    };
    {
      name = "postgres star without FROM";
      dialect = pg;
      script = "";
      query = "SELECT *";
      expect =
        Err_msg
          ( Engine.Errors.Syntax_error,
            "SELECT * with no tables specified is not valid" );
    };
    {
      name = "sqlite ragged VALUES";
      dialect = sq;
      script = "";
      query = "VALUES (1), (2, 3)";
      expect =
        Err_msg
          ( Engine.Errors.Syntax_error,
            "all VALUES must have the same number of terms" );
    };
    {
      name = "mysql ragged VALUES names the first short row";
      dialect = my;
      script = "";
      query = "VALUES (1, 2), (3, 4), (5)";
      expect =
        Err_msg
          ( Engine.Errors.Syntax_error,
            "Column count doesn't match value count at row 3" );
    };
    {
      name = "postgres ragged VALUES";
      dialect = pg;
      script = "";
      query = "VALUES (1), (2, 3)";
      expect =
        Err_msg
          (Engine.Errors.Syntax_error, "VALUES lists must all be the same length");
    };
    (* --- error precedence: WHERE runs on every FROM row before any
       projection; without FROM, projection runs first; ON before WHERE --- *)
    {
      name = "postgres later WHERE error beats earlier projection error";
      dialect = pg;
      script =
        "CREATE TABLE t(a BIGINT); INSERT INTO t VALUES (9223372036854775807), \
         (0);";
      query = "SELECT a + 1 FROM t WHERE 1 / a >= 0";
      expect = Err Engine.Errors.Division_by_zero;
    };
    {
      name = "postgres probed operand: WHERE error beats projection error";
      dialect = pg;
      script =
        "CREATE TABLE t(a BIGINT); INSERT INTO t VALUES (9223372036854775807), \
         (0);";
      query = "VALUES (1) INTERSECT SELECT a + 1 FROM t WHERE 1 / a >= 0";
      expect = Err Engine.Errors.Division_by_zero;
    };
    {
      name = "postgres FROM-less projection error beats WHERE error";
      dialect = pg;
      script = "";
      query = "SELECT 9223372036854775807 + 1 WHERE 1 / 0 > 0";
      expect = Err Engine.Errors.Out_of_range;
    };
    {
      name = "postgres ON error beats WHERE error";
      dialect = pg;
      script =
        "CREATE TABLE t(a BIGINT); INSERT INTO t VALUES (9223372036854775807), \
         (0);";
      query = "SELECT * FROM t AS x JOIN t AS y ON 1 / y.a >= 0 WHERE x.a + 1 > 0";
      expect = Err Engine.Errors.Division_by_zero;
    };
    eval_order "left operand's error first"
      "(1 / a) = (a + 9223372036854775807 + 1)"
      (Err Engine.Errors.Division_by_zero);
    eval_order "swapped operands"
      "(a + 9223372036854775807 + 1) = (1 / a)"
      (Err Engine.Errors.Out_of_range);
    eval_order "AND skips its right operand on FALSE"
      "(a > 1) AND (1 / a > 0)" (Rows [ "f" ]);
    eval_order "OR skips its right operand on TRUE"
      "(a < 1) OR (1 / a > 0)" (Rows [ "t" ]);
    eval_order "AND evaluates its right operand on TRUE"
      "(a = 0) AND (1 / a > 0)"
      (Err Engine.Errors.Division_by_zero);
    eval_order "IN stops at the first equal item" "a IN (0, 1 / a)"
      (Rows [ "t" ]);
    eval_order "IN evaluates the items before it" "a IN (1 / a, 0)"
      (Err Engine.Errors.Division_by_zero);
    eval_order "BETWEEN evaluates operands before its type check"
      "a BETWEEN s AND (1 / a)"
      (Err Engine.Errors.Division_by_zero);
    eval_order "LIKE evaluates operands before the ESCAPE check"
      "(1 / a) LIKE 'x' ESCAPE 'xx'"
      (Err Engine.Errors.Division_by_zero);
    eval_order "LIKE rejects a long ESCAPE" "s LIKE 'x' ESCAPE 'xx'"
      (Err_msg
         ( Engine.Errors.Invalid_function,
           "ESCAPE expression must be a single character" ));
    eval_order "CASE evaluates only the branch it takes"
      "CASE WHEN a = 0 THEN 1 ELSE 1 / a END" (Rows [ "1" ]);
    (* --- constraints --- *)
    {
      name = "unique allows multiple NULLs";
      dialect = sq;
      script =
        "CREATE TABLE t(c UNIQUE); INSERT INTO t VALUES (NULL), (NULL), (1);";
      query = "SELECT COUNT(*) FROM t";
      expect = Rows [ "3" ];
    };
    {
      name = "check constraint with NULL passes";
      dialect = sq;
      script = "CREATE TABLE t(c CHECK (c > 0)); INSERT INTO t VALUES (NULL), (5);";
      query = "SELECT COUNT(*) FROM t";
      expect = Rows [ "2" ];
    };
    (* --- sqlite rowid alias --- *)
    {
      name = "integer primary key auto-assigns";
      dialect = sq;
      script =
        "CREATE TABLE t(id INTEGER PRIMARY KEY, v); INSERT INTO t(id, v) \
         VALUES (NULL, 'a'), (NULL, 'b');";
      query = "SELECT id FROM t ORDER BY id ASC";
      expect = Rows [ "1"; "2" ];
    };
    (* --- result column names --- *)
    {
      name = "VALUES columns are column1..columnN";
      dialect = sq;
      script = "";
      query = "VALUES (1, 'a', NULL)";
      expect = Columns [ "column1"; "column2"; "column3" ];
    };
    {
      name = "a wide VALUES row names every column";
      dialect = sq;
      script = "";
      query =
        "VALUES (" ^ String.concat ", " (List.init 40 string_of_int) ^ ")";
      expect = Columns (List.init 40 (fun i -> Printf.sprintf "column%d" (i + 1)));
    };
    {
      name = "an unaliased expression is named by its SQL";
      dialect = sq;
      script = "CREATE TABLE t0(c0 INT); INSERT INTO t0 VALUES (1);";
      query = "SELECT c0 + 1, c0 AS k, c0, t0.c0, ABS(c0) FROM t0";
      expect = Columns [ "(c0 + 1)"; "k"; "c0"; "c0"; "ABS(c0)" ];
    };
    {
      name = "an unaliased expression over no rows is named too";
      dialect = sq;
      script = "CREATE TABLE t0(c0 INT);";
      query = "SELECT c0 + 1 FROM t0";
      expect = Columns [ "(c0 + 1)" ];
    };
    {
      name = "INTERSECT takes the left operand's names";
      dialect = sq;
      script = "CREATE TABLE t0(c0 INT); INSERT INTO t0 VALUES (1);";
      query = "SELECT c0 + 1 FROM t0 INTERSECT SELECT c0 + 1 AS k FROM t0";
      expect = Columns [ "(c0 + 1)" ];
    };
    {
      name = "VALUES INTERSECT SELECT is named by the VALUES";
      dialect = sq;
      script = "CREATE TABLE t0(c0 INT); INSERT INTO t0 VALUES (1);";
      query = "VALUES (2) INTERSECT SELECT c0 + 1 FROM t0";
      expect = Columns [ "column1" ];
    };
    {
      name = "t.* naming no table fails in a plain SELECT";
      dialect = sq;
      script = "CREATE TABLE t0(c0 INT); INSERT INTO t0 VALUES (1);";
      query = "SELECT t9.* FROM t0";
      expect = Err_msg (Engine.Errors.No_such_table, "no such table: t9");
    };
    {
      name = "t.* naming no table fails as an INTERSECT operand";
      dialect = sq;
      script = "CREATE TABLE t0(c0 INT); INSERT INTO t0 VALUES (1);";
      query = "VALUES (1) INTERSECT SELECT t9.* FROM t0";
      expect = Err_msg (Engine.Errors.No_such_table, "no such table: t9");
    };
    {
      name = "t.* naming no table fails over no rows";
      dialect = sq;
      script = "CREATE TABLE t0(c0 INT);";
      query = "SELECT t9.* FROM t0";
      expect = Err_msg (Engine.Errors.No_such_table, "no such table: t9");
    };
    {
      name = "t.* naming no table fails as an INTERSECT operand over no rows";
      dialect = sq;
      script = "CREATE TABLE t0(c0 INT);";
      query = "VALUES (1) INTERSECT SELECT t9.* FROM t0";
      expect = Err_msg (Engine.Errors.No_such_table, "no such table: t9");
    };
    {
      name = "t.* naming no table fails as an EXCEPT operand";
      dialect = sq;
      script = "CREATE TABLE t0(c0 INT); INSERT INTO t0 VALUES (1);";
      query = "VALUES (1) EXCEPT SELECT t9.* FROM t0";
      expect = Err_msg (Engine.Errors.No_such_table, "no such table: t9");
    };
    {
      name = "an INTERSECT operand's expression items count in its width";
      dialect = sq;
      script = "CREATE TABLE t0(c0 INT); INSERT INTO t0 VALUES (1);";
      query = "VALUES (1, 2) INTERSECT SELECT c0 + 1 FROM t0";
      expect =
        Err_msg
          ( Engine.Errors.Syntax_error,
            "SELECTs to the left and right of a compound operator do not \
             have the same number of result columns" );
    };
  ]
  @ empty_table_stars

let run_case (c : case) () =
  let session = Engine.Session.create c.dialect in
  if c.script <> "" then begin
    match Sqlparse.Parser.parse_script c.script with
    | Error e -> Alcotest.failf "setup parse: %s" (Sqlparse.Parser.show_error e)
    | Ok stmts ->
        List.iter
          (fun stmt ->
            match Engine.Session.execute session stmt with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "setup failed: %s" (Engine.Errors.show e))
          stmts
  end;
  match Sqlparse.Parser.parse_stmt c.query with
  | Error e -> Alcotest.failf "query parse: %s" (Sqlparse.Parser.show_error e)
  | Ok stmt -> (
      match (Engine.Session.execute session stmt, c.expect) with
      | Ok (Engine.Session.Rows rs), Rows expected ->
          let got =
            List.map
              (fun row ->
                String.concat "|"
                  (Array.to_list (Array.map Value.to_display row)))
              rs.Engine.Executor.rs_rows
          in
          Alcotest.(check (list string)) c.name expected got
      | Ok (Engine.Session.Rows rs), Columns expected ->
          Alcotest.(check (list string)) c.name expected
            rs.Engine.Executor.rs_columns
      | Ok _, (Rows _ | Columns _) -> Alcotest.fail "expected rows"
      | Error e, Err code ->
          Alcotest.(check bool)
            (c.name ^ " error code")
            true
            (Engine.Errors.equal_code e.Engine.Errors.code code)
      | Error e, Err_msg (code, message) ->
          Alcotest.(check (pair string string))
            (c.name ^ " error")
            (Engine.Errors.show_code code, message)
            (Engine.Errors.show_code e.Engine.Errors.code, e.Engine.Errors.message)
      | Error e, (Rows _ | Columns _) ->
          Alcotest.failf "unexpected error: %s" (Engine.Errors.show e)
      | Ok _, (Err _ | Err_msg _) -> Alcotest.fail "expected an error")

let () =
  Alcotest.run "golden"
    [
      ( "semantics",
        List.map
          (fun c -> Alcotest.test_case c.name `Quick (run_case c))
          cases );
    ]
