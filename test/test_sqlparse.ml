(* Parser tests: unit coverage for each statement form (including the SQL
   text of the paper's listings) and a print→parse→print fixpoint property
   over random expressions. *)

open Sqlval
module A = Sqlast.Ast

let parse_stmt_exn sql =
  match Sqlparse.Parser.parse_stmt sql with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse failed on %S: %s" sql (Sqlparse.Parser.show_error e)

let parse_expr_exn sql =
  match Sqlparse.Parser.parse_expr sql with
  | Ok e -> e
  | Error e -> Alcotest.failf "parse failed on %S: %s" sql (Sqlparse.Parser.show_error e)

let roundtrip_stmt dialect sql =
  let s = parse_stmt_exn sql in
  let printed = Sqlast.Sql_printer.stmt dialect s in
  let s2 = parse_stmt_exn printed in
  let printed2 = Sqlast.Sql_printer.stmt dialect s2 in
  Alcotest.(check string) ("fixpoint: " ^ sql) printed printed2

(* ---------- lexer ---------- *)

let test_lexer () =
  let toks = Sqlparse.Lexer.tokenize "SELECT c0 FROM t0 WHERE c0 <=> 'a''b' -- x" in
  Alcotest.(check int) "token count" 9 (List.length toks);
  (match Sqlparse.Lexer.tokenize "X'0aFF'" with
  | [ Sqlparse.Lexer.BLOB b; Sqlparse.Lexer.EOF ] ->
      Alcotest.(check string) "blob bytes" "\x0a\xff" b
  | _ -> Alcotest.fail "blob lexing");
  (match Sqlparse.Lexer.tokenize "1.5e3 /* c */ 42" with
  | [ Sqlparse.Lexer.FLOAT f; Sqlparse.Lexer.INT i; Sqlparse.Lexer.EOF ] ->
      Alcotest.(check (float 0.001) ) "float" 1500.0 f;
      Alcotest.(check int64) "int" 42L i
  | _ -> Alcotest.fail "number lexing");
  match Sqlparse.Lexer.tokenize "\"quoted id\"" with
  | [ Sqlparse.Lexer.IDENT s; Sqlparse.Lexer.EOF ] ->
      Alcotest.(check string) "quoted ident" "quoted id" s
  | _ -> Alcotest.fail "quoted identifier"

(* ---------- expressions ---------- *)

let test_expr_precedence () =
  let e = parse_expr_exn "1 + 2 * 3" in
  Alcotest.(check bool) "mul binds tighter" true
    (A.equal_expr e
       (A.Binary (A.Add, A.int_lit 1L, A.Binary (A.Mul, A.int_lit 2L, A.int_lit 3L))));
  let e = parse_expr_exn "1 = 2 OR 3 = 4 AND 5 = 6" in
  (match e with
  | A.Binary (A.Or, _, A.Binary (A.And, _, _)) -> ()
  | _ -> Alcotest.fail "AND binds tighter than OR");
  let e = parse_expr_exn "NOT 1 = 2" in
  match e with
  | A.Unary (A.Not, A.Binary (A.Eq, _, _)) -> ()
  | _ -> Alcotest.fail "NOT is lower than comparison"

(* A negated numeric literal folds to a literal.  Only the all-digit
   spelling of -2^63 is INTEGER; a float spelling of the same value stays
   REAL, and so does any other integer literal beyond int64. *)
let test_negated_literals () =
  let lit sql =
    match parse_stmt_exn ("SELECT " ^ sql) with
    | A.Select_stmt (A.Q_select { A.sel_items = [ A.Sel_expr (A.Lit v, _) ]; _ }) -> v
    | s -> Alcotest.failf "%s parsed as %s" sql (A.show_stmt s)
  in
  let check sql want =
    Alcotest.(check string) sql (Value.show want) (Value.show (lit sql))
  in
  check "-426" (Value.Int (-426L));
  check "-9223372036854775808" (Value.Int Int64.min_int);
  check "-9.2233720368547758e+18" (Value.Real (-9.223372036854775808e18));
  check "9223372036854775808" (Value.Real 9.223372036854775808e18);
  check "-9223372036854775809" (Value.Real (-9.223372036854775809e18));
  check "-1.5" (Value.Real (-1.5))

let test_expr_forms () =
  let forms =
    [
      "c0 IS NOT 1";
      "c0 IS NULL";
      "c0 IS NOT NULL";
      "t0.c0 IS TRUE";
      "c0 IN (1, 2, NULL)";
      "c0 NOT IN (1)";
      "c0 LIKE './' ESCAPE '\\'";
      "c0 NOT LIKE 'a%'";
      "c0 GLOB '[a-c]*'";
      "c0 BETWEEN 1 AND 2";
      "c0 NOT BETWEEN 1 AND 2";
      "CAST(c0 AS INT)";
      "CAST(c0 AS UNSIGNED)";
      "CASE WHEN c0 THEN 1 ELSE 2 END";
      "CASE c0 WHEN 1 THEN 2 END";
      "COALESCE(c0, 1, 2)";
      "COUNT(*)";
      "MIN(c0 COLLATE NOCASE)";
      "c0 COLLATE RTRIM";
      "x'00ff'";
      "c0 <=> 5";
      "c0 IS DISTINCT FROM 5";
      "-c0 + +3 - ~4";
      "(1 || 'a') || c0";
      "1 << 2 >> 3 & 4 | 5";
    ]
  in
  List.iter (fun sql -> ignore (parse_expr_exn sql)) forms

(* ---------- paper listings parse ---------- *)

let test_paper_listings_parse () =
  let scripts =
    [
      (* Listing 1 *)
      "CREATE TABLE t0(c0);\n\
       CREATE INDEX i0 ON t0(1) WHERE c0 NOT NULL;\n\
       INSERT INTO t0(c0) VALUES (0), (1), (2), (3), (NULL);\n\
       SELECT c0 FROM t0 WHERE t0.c0 IS NOT 1;";
      (* Listing 2 *)
      "SELECT '' - 2851427734582196970;";
      (* Listing 3 *)
      "SET GLOBAL key_cache_division_limit = 100;";
      (* Listing 4 *)
      "CREATE TABLE t0(c0 TEXT PRIMARY KEY) WITHOUT ROWID;\n\
       CREATE INDEX i0 ON t0(c0 COLLATE NOCASE);\n\
       INSERT INTO t0(c0) VALUES ('A');\n\
       INSERT INTO t0(c0) VALUES ('a');\n\
       SELECT * FROM t0;";
      (* Listing 7 *)
      "CREATE TABLE t0(c0 INT UNIQUE COLLATE NOCASE);\n\
       INSERT INTO t0(c0) VALUES ('./');\n\
       SELECT * FROM t0 WHERE t0.c0 LIKE './';";
      (* Listing 11 *)
      "CREATE TABLE t0(c0 INT);\n\
       CREATE TABLE t1(c0 INT) ENGINE = MEMORY;\n\
       INSERT INTO t0(c0) VALUES (0);\n\
       INSERT INTO t1(c0) VALUES (-1);\n\
       SELECT * FROM t0, t1 WHERE (CAST(t1.c0 AS UNSIGNED)) > (IFNULL('u', t0.c0));";
      (* Listing 12 *)
      "CREATE TABLE t0(c0 TINYINT);\n\
       INSERT INTO t0(c0) VALUES(NULL);\n\
       SELECT * FROM t0 WHERE NOT(t0.c0 <=> 2035382037);";
      (* Listing 14 *)
      "CREATE TABLE t0(c0 INT);\n\
       CREATE INDEX i0 ON t0((t0.c0 || 1));\n\
       INSERT INTO t0(c0) VALUES (1);\n\
       CHECK TABLE t0 FOR UPGRADE;";
      (* Listing 15 *)
      "CREATE TABLE t0(c0 INT PRIMARY KEY, c1 INT);\n\
       CREATE TABLE t1(c0 INT) INHERITS (t0);\n\
       INSERT INTO t0(c0, c1) VALUES(0, 0);\n\
       INSERT INTO t1(c0, c1) VALUES(0, 1);\n\
       SELECT c0, c1 FROM t0 GROUP BY c0, c1;";
      (* Listing 16 *)
      "CREATE TABLE t0(c0 SERIAL, c1 BOOLEAN);\n\
       CREATE STATISTICS s1 ON c0, c1 FROM t0;\n\
       INSERT INTO t0(c1) VALUES(TRUE);\n\
       ANALYZE;\n\
       CREATE INDEX i0 ON t0(c0, (t0.c1 AND t0.c1));\n\
       SELECT * FROM (SELECT t0.c0 FROM t0 WHERE (((t0.c1) AND (t0.c1)) OR \
       FALSE) IS TRUE) AS result WHERE result.c0 IS NULL;";
      (* Listing 18 *)
      "CREATE TABLE t1(c0 INT);\n\
       INSERT INTO t1(c0) VALUES (2147483647);\n\
       UPDATE t1 SET c0 = 0;\n\
       CREATE INDEX i0 ON t1((1 + t1.c0));\n\
       VACUUM FULL;";
    ]
  in
  List.iteri
    (fun i script ->
      match Sqlparse.Parser.parse_script script with
      | Ok stmts ->
          Alcotest.(check bool)
            (Printf.sprintf "script %d nonempty" i)
            true
            (List.length stmts > 0)
      | Error e ->
          Alcotest.failf "script %d failed: %s" i (Sqlparse.Parser.show_error e))
    scripts

(* ---------- statements round trip ---------- *)

let test_stmt_roundtrip () =
  let sqlite = Dialect.Sqlite_like in
  List.iter (roundtrip_stmt sqlite)
    [
      "CREATE TABLE t0(c0 TEXT COLLATE NOCASE PRIMARY KEY, c1 BLOB UNIQUE, \
       PRIMARY KEY (c0, c1)) WITHOUT ROWID";
      "CREATE TABLE IF NOT EXISTS t1(c0 INT NOT NULL DEFAULT 3)";
      "CREATE UNIQUE INDEX i0 ON t0(c0 COLLATE RTRIM DESC, (c0 + 1)) WHERE \
       c0 IS NOT NULL";
      "DROP TABLE IF EXISTS t0";
      "ALTER TABLE t0 RENAME COLUMN c0 TO c9";
      "ALTER TABLE t0 ADD COLUMN c2 REAL";
      "INSERT OR REPLACE INTO t0(c0) VALUES (1), (NULL)";
      "UPDATE OR IGNORE t0 SET c0 = 1 WHERE c0 > 2";
      "DELETE FROM t0 WHERE c0 IS NULL";
      "SELECT DISTINCT t0.c0 FROM t0, t1 WHERE t0.c0 = t1.c0 ORDER BY t0.c0 \
       DESC LIMIT 3 OFFSET 1";
      "SELECT c0, COUNT(*) FROM t0 GROUP BY c0 HAVING COUNT(*) > 1";
      "SELECT * FROM t0 JOIN t1 ON t0.c0 = t1.c0 LEFT JOIN t2 ON t1.c0 = \
       t2.c0";
      "VALUES (1, 'a'), (2, 'b')";
      "SELECT 1 INTERSECT SELECT c0 FROM t0";
      "REINDEX i0";
      "VACUUM";
      "ANALYZE t0";
      "PRAGMA case_sensitive_like = 1";
      "BEGIN";
      "COMMIT";
      "ROLLBACK";
      "CREATE VIEW v0 AS SELECT DISTINCT c0 FROM t0";
      "DROP VIEW IF EXISTS v0";
      "SELECT s.c0 FROM (SELECT c0 FROM t0 WHERE c0 > 1) AS s";
      "EXPLAIN SELECT * FROM t0 WHERE c0 = 1";
    ];
  let mysql = Dialect.Mysql_like in
  List.iter (roundtrip_stmt mysql)
    [
      "CREATE TABLE t0(c0 TINYINT UNSIGNED, c1 BIGINT) ENGINE = MEMORY";
      "INSERT IGNORE INTO t0(c0) VALUES (300)";
      "CHECK TABLE t0 FOR UPGRADE";
      "REPAIR TABLE t0";
      "SET GLOBAL key_cache_division_limit = 100";
      "SELECT * FROM t0 WHERE NOT (t0.c0 <=> 2035382037)";
    ];
  let pg = Dialect.Postgres_like in
  List.iter (roundtrip_stmt pg)
    [
      "CREATE TABLE t1(c0 INT) INHERITS (t0)";
      "CREATE TABLE t0(c0 SERIAL, c1 BOOLEAN)";
      "CREATE STATISTICS s1 ON c0, c1 FROM t0";
      "DISCARD ALL";
      "VACUUM FULL";
      "SELECT * FROM t0 WHERE c0 IS DISTINCT FROM 5";
    ]

(* ---------- property: print/parse fixpoint on random exprs ---------- *)

let lit_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return A.null_lit);
        (4, map (fun i -> A.int_lit (Int64.of_int i)) (int_range (-1000) 1000));
        (2, map (fun f -> A.Lit (Value.Real f)) (float_bound_inclusive 100.0));
        ( 3,
          map
            (fun s -> A.text_lit s)
            (string_size ~gen:(char_range ' ' 'z') (0 -- 6)) );
        ( 1,
          map
            (fun s -> A.Lit (Value.Blob s))
            (string_size ~gen:(char_range 'a' 'f') (0 -- 4)) );
      ])

let expr_gen =
  let open QCheck.Gen in
  sized (fun size ->
      fix
        (fun self size ->
          if size <= 0 then
            oneof [ lit_gen; return (A.col "c0"); return (A.col ~table:"t0" "c1") ]
          else
            let sub = self (size / 2) in
            frequency
              [
                (2, lit_gen);
                ( 3,
                  map3
                    (fun op a b -> A.Binary (op, a, b))
                    (oneofl
                       [
                         A.Eq; A.Neq; A.Lt; A.Le; A.Gt; A.Ge; A.And; A.Or;
                         A.Add; A.Sub; A.Mul; A.Div; A.Rem; A.Concat;
                         A.Bit_and; A.Bit_or; A.Shift_left; A.Shift_right;
                         A.Null_safe_eq;
                       ])
                    sub sub );
                ( 2,
                  map2
                    (fun op a -> A.Unary (op, a))
                    (oneofl [ A.Not; A.Neg; A.Pos; A.Bit_not ])
                    sub );
                ( 1,
                  map2
                    (fun negated a ->
                      A.Is { negated; arg = a; rhs = A.Is_null })
                    bool sub );
                ( 1,
                  map3
                    (fun a lo hi -> A.Between { negated = false; arg = a; lo; hi })
                    sub sub sub );
                ( 1,
                  map2
                    (fun a list -> A.In_list { negated = false; arg = a; list })
                    sub
                    (list_size (1 -- 3) sub) );
                ( 1,
                  map2
                    (fun a p ->
                      A.Like { negated = false; arg = a; pattern = p; escape = None })
                    sub lit_gen );
                (1, map (fun a -> A.Cast (Datatype.Text, a)) sub);
                (1, map (fun a -> A.Collate (a, Collation.Nocase)) sub);
                ( 1,
                  map2
                    (fun c r ->
                      A.Case { operand = None; branches = [ (c, r) ]; else_ = Some r })
                    sub sub );
                (1, map (fun args -> A.Func (A.F_coalesce, args)) (list_size (1 -- 3) sub));
              ])
        size)

let prop_print_parse_fixpoint =
  QCheck.Test.make ~name:"print/parse/print fixpoint (sqlite syntax)" ~count:500
    (QCheck.make
       ~print:(fun e -> Sqlast.Sql_printer.expr Dialect.Sqlite_like e)
       expr_gen)
    (fun e ->
      let d = Dialect.Sqlite_like in
      let printed = Sqlast.Sql_printer.expr d e in
      match Sqlparse.Parser.parse_expr printed with
      | Error err ->
          QCheck.Test.fail_reportf "unparseable %s: %s" printed
            (Sqlparse.Parser.show_error err)
      | Ok e2 -> (
          (* the fixpoint is reached after one normalization round: compare
             iteration 2 against iteration 3 *)
          let printed2 = Sqlast.Sql_printer.expr d e2 in
          match Sqlparse.Parser.parse_expr printed2 with
          | Error err ->
              QCheck.Test.fail_reportf "unparseable %s: %s" printed2
                (Sqlparse.Parser.show_error err)
          | Ok e3 ->
              let printed3 = Sqlast.Sql_printer.expr d e3 in
              if printed2 <> printed3 then
                QCheck.Test.fail_reportf "not a fixpoint:\n%s\n%s" printed2
                  printed3
              else true))

let () =
  Alcotest.run "sqlparse"
    [
      ("lexer", [ Alcotest.test_case "tokens" `Quick test_lexer ]);
      ( "expr",
        [
          Alcotest.test_case "precedence" `Quick test_expr_precedence;
          Alcotest.test_case "forms" `Quick test_expr_forms;
          Alcotest.test_case "negated literals" `Quick test_negated_literals;
        ] );
      ( "stmt",
        [
          Alcotest.test_case "paper listings" `Quick test_paper_listings_parse;
          Alcotest.test_case "round trips" `Quick test_stmt_roundtrip;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_print_parse_fixpoint ] );
    ]
