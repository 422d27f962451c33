(* The query executor's contract, checked against independent references:

   - per-expression-kind closure compilation: for every expression
     constructor (literals, columns, unary/binary operators, IS forms,
     BETWEEN, IN, LIKE/GLOB, CAST, functions, CASE, COLLATE, misused
     aggregates), [SELECT * FROM t0 WHERE e] returns exactly the rows
     the PQS oracle interpreter ([Pqs.Interp], which shares no
     evaluation code with the engine) judges TRUE, [SELECT e FROM t0]
     projects the values it computes, [SELECT e ... WHERE e ORDER BY e
     DESC] returns those values on the TRUE rows in descending order,
     and [DELETE FROM t0 WHERE e] (the write path) leaves exactly the
     rows it does not judge TRUE, in every dialect;
   - every expression-level injected bug is visible through the
     executor: its witness query disagrees with the interpreter;
   - an expression compiled as infallible never raises on the fixture
     rows, and shapes that can raise compile as fallible;
   - coverage parity: a compiled expression fires exactly the coverage
     points, with their multiplicity, of a golden table captured from the
     AST-walking evaluator the compiled one replaced;
   - 1,000-seed equivalence sweep: on generated databases (indexes
     included) filtered scans return exactly the interpreter's TRUE rows,
     and DISTINCT, ORDER BY, ORDER BY + LIMIT/OFFSET, UNION, INTERSECT
     and EXCEPT return the result derived from the stored rows;
   - the aggregation operator (GROUP BY, HAVING, aggregates, ORDER BY
     over aggregates) and view expansion, with their injected bugs;
   - the INTERSECT/EXCEPT probe: corpus containment statements and their
     EXCEPT twins (seeds 1-200 per dialect, bug-free and with the whole
     catalog) equal the result derived from the right SELECT run alone;
     a probe settled early keeps the results and first errors of a full
     run, and one whose WHERE, items and keys are infallible stops;
   - live rounds agree with replays of their logged scripts, and a
     campaign's per-seed rounds equal standalone rounds. *)

open Sqlval
module A = Sqlast.Ast
module Ex = Engine.Executor

let parse_sql sql =
  match Sqlparse.Parser.parse_stmt sql with
  | Ok s -> s
  | Error e -> Alcotest.fail (Sqlparse.Parser.show_error e)

let exec session sql =
  match Engine.Session.execute session (parse_sql sql) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.Errors.show e)

(* a fixture with typed and collated columns, NULLs, negative and real
   values, and duplicate rows (DISTINCT fodder) *)
let fixture ?(bugs = Engine.Bug.empty_set) dialect =
  let session = Engine.Session.create ~bugs dialect in
  List.iter (exec session)
    [
      "CREATE TABLE t0(c0 INTEGER, c1 TEXT COLLATE NOCASE, c2 REAL, c3 TEXT)";
      "INSERT INTO t0(c0, c1, c2, c3) VALUES (1, 'Abc', 0.5, 'x%'), \
       (2, 'abc', -1.5, NULL), (NULL, 'zzz', 2.0, 'yy'), \
       (-3, NULL, 0.0, 'x%'), (2, 'abc', -1.5, NULL)";
      "CREATE TABLE t1(d0 INTEGER)";
      "INSERT INTO t1(d0) VALUES (1), (2), (4)";
    ];
  session

let show_rows rows =
  String.concat "; "
    (List.map
       (fun r -> String.concat "|" (Array.to_list (Array.map Value.show r)))
       rows)

let select ?(distinct = false) ?(items = [ A.Star ]) ?from ?where
    ?(order_by = []) ?limit ?offset () =
  A.Q_select
    {
      A.sel_distinct = distinct;
      sel_items = items;
      sel_from =
        (match from with
        | Some f -> f
        | None -> [ A.F_table { name = "t0"; alias = None } ]);
      sel_where = where;
      sel_group_by = [];
      sel_having = None;
      sel_order_by = order_by;
      sel_limit = limit;
      sel_offset = offset;
    }

(* ---------- the interpreter as reference ---------- *)

let table_info session name =
  List.find
    (fun ti -> ti.Pqs.Schema_info.ti_name = name)
    (Pqs.Schema_info.tables_of_session session)

(* the interpreter's environment with [row] of [ti] as the pivot *)
let pivot_env session ti row =
  let case_sensitive_like =
    Engine.Options.case_sensitive_like (Engine.Session.options session)
  in
  Pqs.Interp.env_of_pivot ~case_sensitive_like
    (Engine.Session.dialect session)
    [ (ti, row) ]

(* Interp's verdict on [e] for each row of [table], in scan order *)
let verdicts session table e =
  let ti = table_info session table in
  List.map
    (fun row -> (row, Pqs.Interp.eval_tvl (pivot_env session ti row) e))
    (Pqs.Schema_info.rows_of_table session table)

let sorted rows = List.sort Stdlib.compare rows

(* the collation ORDER BY sorts [e] under: an explicit COLLATE, else a
   bare column's declared collation, else binary *)
let rec sort_collation (ti : Pqs.Schema_info.table_info) = function
  | A.Collate (_, coll) -> coll
  | A.Unary (A.Pos, e) -> sort_collation ti e
  | A.Col { column; _ } -> (
      match
        List.find_opt
          (fun (ci : Pqs.Schema_info.column_info) ->
            String.equal
              (String.lowercase_ascii ci.Pqs.Schema_info.ci_name)
              (String.lowercase_ascii column))
          ti.Pqs.Schema_info.ti_columns
      with
      | Some ci -> ci.Pqs.Schema_info.ci_collation
      | None -> Collation.Binary)
  | _ -> Collation.Binary

(* [keys] is ordered by [dir] under the total value order the sort uses *)
let is_ordered ~collation dir keys =
  let ok a b =
    let cm = Value.compare_total ~collation a b in
    match dir with A.Asc -> cm <= 0 | A.Desc -> cm >= 0
  in
  let rec go = function
    | a :: (b :: _ as rest) -> ok a b && go rest
    | [ _ ] | [] -> true
  in
  go keys

(* [SELECT * FROM table WHERE e] against the interpreter: the rows it
   judges TRUE, ignoring rows it cannot evaluate (and every copy of
   them).  [Ok ()] on agreement; [Error detail] otherwise.  An engine
   error is accepted only when the interpreter fails on some row too. *)
let where_agrees session table e =
  let vs = verdicts session table e in
  let uncomputable =
    List.filter_map (function r, Error _ -> Some r | _, Ok _ -> None) vs
  in
  let keep r = not (List.exists (fun u -> Stdlib.compare u r = 0) uncomputable) in
  let expected =
    List.filter_map
      (function r, Ok Tvl.True when keep r -> Some r | _ -> None)
      vs
  in
  let q = select ~from:[ A.F_table { name = table; alias = None } ] ~where:e () in
  match Engine.Session.query session q with
  | Error err ->
      if uncomputable <> [] then Ok ()
      else Error ("engine error: " ^ Engine.Errors.show err)
  | Ok rs ->
      let got = List.filter keep rs.Ex.rs_rows in
      if sorted got = sorted expected then Ok ()
      else
        Error
          (Printf.sprintf "engine rows [%s], interpreter TRUE rows [%s]"
             (show_rows got) (show_rows expected))

(* ---------- per-expression-kind closure compilation ---------- *)

let c0 = A.col "c0"
let c1 = A.col "c1"
let c2 = A.col "c2"
let c3 = A.col "c3"
let i n = A.int_lit (Int64.of_int n)
let s v = A.text_lit v

(* one expression per compiler case (and then some), mixing columns so
   the closures read the current row *)
let expr_battery =
  [
    ("lit-int", i 42);
    ("lit-null", A.null_lit);
    ("lit-real", A.lit (Value.Real 1.5));
    ("col", c0);
    ("col-qualified", A.col ~table:"t0" "c1");
    ("col-missing", A.col "nope");
    ("col-qualified-missing-table", A.col ~table:"nope" "c0");
    ("unary-not", A.not_ (A.Binary (A.Gt, c0, i 1)));
    ("unary-not-not", A.not_ (A.not_ (A.Binary (A.Gt, c0, i 1))));
    ("unary-neg", A.Unary (A.Neg, c0));
    ("unary-neg-text", A.Unary (A.Neg, c1));
    ("unary-pos", A.Unary (A.Pos, c2));
    ("unary-bitnot", A.Unary (A.Bit_not, c0));
    ("and", A.Binary (A.And, A.Binary (A.Gt, c0, i 0), A.isnull c3));
    ("and-shortcircuit", A.Binary (A.And, A.Binary (A.Gt, i 0, i 1), c1));
    ("or", A.Binary (A.Or, A.Binary (A.Lt, c0, i 0), A.isnull c1));
    ("or-shortcircuit", A.Binary (A.Or, A.Binary (A.Lt, i 0, i 1), c1));
    ("concat", A.Binary (A.Concat, c1, s "!"));
    ("concat-null", A.Binary (A.Concat, c3, s "!"));
    ("eq", A.Binary (A.Eq, c0, i 2));
    ("eq-nocase", A.Binary (A.Eq, c1, s "ABC"));
    ("neq", A.Binary (A.Neq, c0, i 2));
    ("lt", A.Binary (A.Lt, c2, A.lit (Value.Real 0.0)));
    ("le", A.Binary (A.Le, c0, i 1));
    ("gt", A.Binary (A.Gt, c0, c2));
    ("ge", A.Binary (A.Ge, c1, c3));
    ("eq-affinity", A.Binary (A.Eq, c0, s "2"));
    ("add", A.Binary (A.Add, c0, i 7));
    ("sub", A.Binary (A.Sub, c0, c2));
    ("mul", A.Binary (A.Mul, c0, c0));
    ("div", A.Binary (A.Div, i 10, c0));
    ("div-zero", A.Binary (A.Div, c0, i 0));
    ("rem", A.Binary (A.Rem, c0, i 2));
    ("bit-and", A.Binary (A.Bit_and, c0, i 3));
    ("bit-or", A.Binary (A.Bit_or, c0, i 8));
    ("shl", A.Binary (A.Shift_left, c0, i 2));
    ("shr", A.Binary (A.Shift_right, c0, i 1));
    ("is-null", A.isnull c3);
    ("is-not-null", A.Is { negated = true; arg = c3; rhs = A.Is_null });
    ("is-true", A.Is { negated = false; arg = c0; rhs = A.Is_true });
    ("is-not-false", A.Is { negated = true; arg = c0; rhs = A.Is_false });
    ("is-expr", A.Is { negated = false; arg = c0; rhs = A.Is_expr (i 2) });
    ( "is-distinct-from",
      A.Is { negated = false; arg = c0; rhs = A.Is_distinct_from (i 2) } );
    ( "between",
      A.Between { negated = false; arg = c0; lo = i 0; hi = i 2 } );
    ( "not-between",
      A.Between { negated = true; arg = c2; lo = c0; hi = i 9 } );
    ("in", A.In_list { negated = false; arg = c0; list = [ i 1; i 2 ] });
    ( "in-with-null",
      A.In_list { negated = false; arg = c0; list = [ i 9; A.null_lit ] } );
    ("in-empty", A.In_list { negated = false; arg = c0; list = [] });
    ( "not-in",
      A.In_list { negated = true; arg = c1; list = [ s "abc"; s "zzz" ] } );
    ( "like",
      A.Like { negated = false; arg = c1; pattern = s "a%"; escape = None } );
    ( "like-escape",
      A.Like
        {
          negated = false;
          arg = c3;
          pattern = s "x\\%";
          escape = Some (s "\\");
        } );
    ( "not-like",
      A.Like { negated = true; arg = c1; pattern = s "_b_"; escape = None } );
    ( "like-bad-escape",
      A.Like
        { negated = false; arg = c1; pattern = s "a%"; escape = Some (s "xx") }
    );
    ("glob", A.Glob { negated = false; arg = c1; pattern = s "[aA]*" });
    ("not-glob", A.Glob { negated = true; arg = c3; pattern = s "x*" });
    ( "cast-int",
      A.Cast (Datatype.Int { width = Datatype.Regular; unsigned = false }, c2)
    );
    ( "cast-unsigned",
      A.Cast (Datatype.Int { width = Datatype.Big; unsigned = true }, c0) );
    ("cast-text", A.Cast (Datatype.Text, c0));
    ("cast-real", A.Cast (Datatype.Real, c1));
    ("func-abs", A.Func (A.F_abs, [ c0 ]));
    ("func-length", A.Func (A.F_length, [ c1 ]));
    ("func-lower", A.Func (A.F_lower, [ c1 ]));
    ("func-upper", A.Func (A.F_upper, [ c3 ]));
    ("func-coalesce", A.Func (A.F_coalesce, [ c3; c1; s "fallback" ]));
    ("func-ifnull", A.Func (A.F_ifnull, [ c3; s "d" ]));
    ("func-nullif", A.Func (A.F_nullif, [ c1; s "ABC" ]));
    ("func-typeof", A.Func (A.F_typeof, [ c2 ]));
    ("func-trim", A.Func (A.F_trim, [ c1 ]));
    ("func-ltrim", A.Func (A.F_ltrim, [ s "  pad" ]));
    ("func-rtrim", A.Func (A.F_rtrim, [ s "pad  " ]));
    ("func-substr", A.Func (A.F_substr, [ c1; i 2 ]));
    ("func-substr3", A.Func (A.F_substr, [ c1; i (-2); i 2 ]));
    ("func-replace", A.Func (A.F_replace, [ c1; s "b"; s "B" ]));
    ("func-instr", A.Func (A.F_instr, [ c1; s "bc" ]));
    ("func-hex", A.Func (A.F_hex, [ c1 ]));
    ("func-round", A.Func (A.F_round, [ c2; i 1 ]));
    ("func-sign", A.Func (A.F_sign, [ c2 ]));
    ("func-quote", A.Func (A.F_quote, [ c3 ]));
    ("func-least", A.Func (A.F_least, [ c0; i 0 ]));
    ("func-wrong-arity", A.Func (A.F_abs, [ c0; c1 ]));
    ("agg-misuse", A.Agg (A.A_count_star, None));
    ( "case",
      A.Case
        {
          operand = None;
          branches =
            [
              (A.Binary (A.Gt, c0, i 1), s "big");
              (A.isnull c0, s "null");
            ];
          else_ = Some (s "small");
        } );
    ( "case-operand",
      A.Case
        {
          operand = Some c0;
          branches = [ (i 1, s "one"); (i 2, s "two") ];
          else_ = None;
        } );
    ( "case-no-else",
      A.Case { operand = None; branches = [ (A.isnull c1, c3) ]; else_ = None }
    );
    ("collate", A.Binary (A.Eq, A.Collate (c3, Collation.Nocase), s "X%"));
    ("nested", A.Binary (A.And, A.not_ (A.isnull c0),
        A.Binary (A.Or, A.Binary (A.Le, c0, c2),
          A.In_list { negated = false; arg = c1; list = [ s "abc"; c3 ] })));
  ]


let fail_on label = function
  | Ok () -> ()
  | Error detail -> Alcotest.fail (label ^ ": " ^ detail)

(* [SELECT e FROM t0] projects, row by row, the value the interpreter
   computes (rows it cannot evaluate are skipped); an engine error needs
   an interpreter failure on some row *)
let projection_agrees session e =
  let ti = table_info session "t0" in
  let expected =
    List.map
      (fun row -> Pqs.Interp.eval (pivot_env session ti row) e)
      (Pqs.Schema_info.rows_of_table session "t0")
  in
  match Engine.Session.query session (select ~items:[ A.Sel_expr (e, None) ] ()) with
  | Error err ->
      if List.exists Result.is_error expected then Ok ()
      else Error ("engine error: " ^ Engine.Errors.show err)
  | Ok rs ->
      let mismatch =
        List.exists2
          (fun got want ->
            match want with
            | Ok v -> Stdlib.compare got.(0) v <> 0
            | Error _ -> false)
          rs.Ex.rs_rows expected
      in
      if mismatch then
        Error
          (Printf.sprintf "engine projected [%s], interpreter [%s]"
             (show_rows rs.Ex.rs_rows)
             (String.concat "; "
                (List.map
                   (function Ok v -> Value.show v | Error m -> "error " ^ m)
                   expected)))
      else Ok ()

(* [SELECT e FROM t0 WHERE e ORDER BY e DESC] returns the interpreter's
   values of [e] on its TRUE rows, sorted descending.  Compared only
   when the interpreter evaluates [e] on every row; an engine error
   needs an interpreter failure on some row *)
let ordered_agrees session e =
  let ti = table_info session "t0" in
  let per_row =
    List.map
      (fun row ->
        let env = pivot_env session ti row in
        (Pqs.Interp.eval_tvl env e, Pqs.Interp.eval env e))
      (Pqs.Schema_info.rows_of_table session "t0")
  in
  let computable =
    List.for_all (function Ok _, Ok _ -> true | _ -> false) per_row
  in
  let expected =
    List.filter_map (function Ok Tvl.True, Ok v -> Some v | _ -> None) per_row
  in
  let q =
    select ~items:[ A.Sel_expr (e, None) ] ~where:e ~order_by:[ (e, A.Desc) ] ()
  in
  match Engine.Session.query session q with
  | Error err ->
      if computable then Error ("engine error: " ^ Engine.Errors.show err)
      else Ok ()
  | Ok _ when not computable -> Ok ()
  | Ok rs ->
      let got = List.map (fun r -> r.(0)) rs.Ex.rs_rows in
      let show vs = String.concat "; " (List.map Value.show vs) in
      if sorted got <> sorted expected then
        Error
          (Printf.sprintf "engine values [%s], interpreter [%s]" (show got)
             (show expected))
      else if not (is_ordered ~collation:(sort_collation ti e) A.Desc got) then
        Error (Printf.sprintf "not sorted descending: [%s]" (show got))
      else Ok ()

(* [DELETE FROM t0 WHERE e] on a fresh fixture leaves exactly the rows
   the interpreter does not judge TRUE, ignoring rows it cannot evaluate
   (and every copy of them); an engine error needs an interpreter
   failure on some row *)
let delete_agrees dialect e =
  let session = fixture dialect in
  let vs = verdicts session "t0" e in
  let uncomputable =
    List.filter_map (function r, Error _ -> Some r | _, Ok _ -> None) vs
  in
  let keep r = not (List.exists (fun u -> Stdlib.compare u r = 0) uncomputable) in
  let expected =
    List.filter_map
      (function
        | _, Ok Tvl.True -> None | r, _ -> if keep r then Some r else None)
      vs
  in
  match
    Engine.Session.execute session (A.Delete { table = "t0"; where = Some e })
  with
  | Error err ->
      if uncomputable <> [] then Ok ()
      else Error ("engine error: " ^ Engine.Errors.show err)
  | Ok _ ->
      let got = List.filter keep (Pqs.Schema_info.rows_of_table session "t0") in
      if sorted got = sorted expected then Ok ()
      else
        Error
          (Printf.sprintf "engine kept [%s], interpreter non-TRUE rows [%s]"
             (show_rows got) (show_rows expected))

let test_expr_battery dialect () =
  let session = fixture dialect in
  List.iter
    (fun (label, e) ->
      fail_on (label ^ " as WHERE") (where_agrees session "t0" e);
      fail_on (label ^ " as DELETE WHERE") (delete_agrees dialect e);
      if not (A.has_agg e) then begin
        fail_on (label ^ " as projection") (projection_agrees session e);
        fail_on (label ^ " as ORDER BY") (ordered_agrees session e)
      end)
    expr_battery

(* dialect-specific operators on their own dialects *)
let test_dialect_exprs () =
  List.iter
    (fun dialect -> test_expr_battery dialect ())
    [ Dialect.Mysql_like; Dialect.Postgres_like ];
  (* mysql's || is logical OR, <=> is its null-safe equality *)
  let session = fixture Dialect.Mysql_like in
  fail_on "mysql-concat-or"
    (where_agrees session "t0" (A.Binary (A.Concat, c0, A.isnull c3)));
  fail_on "mysql-nullsafe-eq"
    (where_agrees session "t0" (A.Binary (A.Null_safe_eq, c0, A.null_lit)))

(* one witness per expression-level injected bug: on the fixture the
   bug-free engine agrees with the interpreter and the buggy one does
   not, so the bug is reachable through the executor *)
let bug_witnesses =
  let sq = Dialect.Sqlite_like in
  [
    ( Engine.Bug.Sq_case_null_when,
      sq,
      A.Binary
        ( A.Eq,
          A.Case
            { operand = None; branches = [ (A.null_lit, i 1) ]; else_ = Some (i 0) },
          i 1 ) );
    ( Engine.Bug.Sq_null_in_list_false,
      sq,
      A.not_ (A.In_list { negated = false; arg = c0; list = [ i 9; A.null_lit ] })
    );
    ( Engine.Bug.Sq_nocase_like_case_sensitive,
      sq,
      A.Like { negated = false; arg = c1; pattern = s "A%"; escape = None } );
    ( Engine.Bug.Sq_rtrim_compare_asymmetric,
      sq,
      A.Binary (A.Eq, A.Collate (c1, Collation.Rtrim), s "abc ") );
    ( Engine.Bug.Sq_between_collate_ignored,
      sq,
      A.Between { negated = false; arg = c1; lo = s "ABC"; hi = s "ABC" } );
    ( Engine.Bug.Sq_glob_range_exclusive,
      sq,
      A.Glob { negated = false; arg = c1; pattern = s "[x-z]*" } );
    ( Engine.Bug.My_double_negation_fold,
      Dialect.Mysql_like,
      A.Binary (A.Eq, A.not_ (A.not_ c0), i 1) );
  ]

let test_bug_exprs () =
  List.iter
    (fun (bug, dialect, e) ->
      let name = Engine.Bug.show bug in
      fail_on (name ^ " bug-free") (where_agrees (fixture dialect) "t0" e);
      let buggy = fixture ~bugs:(Engine.Bug.set_of_list [ bug ]) dialect in
      Alcotest.(check bool)
        (name ^ " diverges from the interpreter")
        true
        (Result.is_error (where_agrees buggy "t0" e)))
    bug_witnesses

(* ---------- coverage parity ---------- *)

(* The coverage points each battery expression fires on the sqlite
   fixture, summed over its rows up to the first one it fails on.  The
   frontier guides generation on this per-expression stream; the table
   was captured from the AST-walking evaluator the compiled one
   replaced, so it pins the stream across that change. *)
let coverage_golden =
  [
    ("lit-int", []);
    ("lit-null", []);
    ("lit-real", []);
    ("col", []);
    ("col-qualified", []);
    ("col-missing", []);
    ("col-qualified-missing-table", []);
    ("unary-not", [("binop.gt", 5); ("unop.not", 5)]);
    ("unary-not-not", [("binop.gt", 5); ("unop.not", 10)]);
    ("unary-neg", [("unop.neg", 5)]);
    ("unary-neg-text", [("unop.neg", 5)]);
    ("unary-pos", [("unop.pos", 5)]);
    ("unary-bitnot", [("unop.bit_not", 5)]);
    ("and", [("binop.gt", 5); ("binop.and", 5); ("pred.is", 4)]);
    ("and-shortcircuit", [("binop.gt", 5); ("binop.and", 5)]);
    ("or", [("binop.lt", 5); ("binop.or", 5); ("pred.is", 4)]);
    ("or-shortcircuit", [("binop.lt", 5); ("binop.or", 5)]);
    ("concat", [("binop.concat", 5)]);
    ("concat-null", [("binop.concat", 5)]);
    ("eq", [("binop.eq", 5)]);
    ("eq-nocase", [("binop.eq", 5)]);
    ("neq", [("binop.neq", 5)]);
    ("lt", [("binop.lt", 5)]);
    ("le", [("binop.le", 5)]);
    ("gt", [("binop.gt", 5)]);
    ("ge", [("binop.ge", 5)]);
    ("eq-affinity", [("binop.eq", 5)]);
    ("add", [("binop.add", 5)]);
    ("sub", [("binop.sub", 5)]);
    ("mul", [("binop.mul", 5)]);
    ("div", [("binop.div", 5)]);
    ("div-zero", [("binop.div", 5)]);
    ("rem", [("binop.rem", 5)]);
    ("bit-and", [("binop.bit_and", 5)]);
    ("bit-or", [("binop.bit_or", 5)]);
    ("shl", [("binop.shl", 5)]);
    ("shr", [("binop.shr", 5)]);
    ("is-null", [("pred.is", 5)]);
    ("is-not-null", [("pred.is", 5)]);
    ("is-true", [("pred.is", 5)]);
    ("is-not-false", [("pred.is", 5)]);
    ("is-expr", [("pred.is", 5)]);
    ("is-distinct-from", [("pred.is", 1)]);
    ("between", [("pred.between", 5)]);
    ("not-between", [("pred.between", 5)]);
    ("in", [("pred.in", 5)]);
    ("in-with-null", [("pred.in", 5)]);
    ("in-empty", [("pred.in", 5)]);
    ("not-in", [("pred.in", 5)]);
    ("like", [("pred.like", 5)]);
    ("like-escape", [("pred.like", 5)]);
    ("not-like", [("pred.like", 5)]);
    ("like-bad-escape", [("pred.like", 1)]);
    ("glob", [("pred.glob", 5)]);
    ("not-glob", [("pred.glob", 5)]);
    ("cast-int", [("pred.cast", 5)]);
    ("cast-unsigned", [("pred.cast", 5)]);
    ("cast-text", [("pred.cast", 5)]);
    ("cast-real", [("pred.cast", 5)]);
    ("func-abs", [("func.abs", 5)]);
    ("func-length", [("func.length", 5)]);
    ("func-lower", [("func.lower", 5)]);
    ("func-upper", [("func.upper", 5)]);
    ("func-coalesce", [("func.coalesce", 5)]);
    ("func-ifnull", [("func.ifnull", 5)]);
    ("func-nullif", [("func.nullif", 5)]);
    ("func-typeof", [("func.typeof", 5)]);
    ("func-trim", [("func.trim", 5)]);
    ("func-ltrim", [("func.ltrim", 5)]);
    ("func-rtrim", [("func.rtrim", 5)]);
    ("func-substr", [("func.substr", 5)]);
    ("func-substr3", [("func.substr", 5)]);
    ("func-replace", [("func.replace", 5)]);
    ("func-instr", [("func.instr", 5)]);
    ("func-hex", [("func.hex", 5)]);
    ("func-round", [("func.round", 5)]);
    ("func-sign", [("func.sign", 5)]);
    ("func-quote", [("func.quote", 5)]);
    ("func-least", [("func.least", 1)]);
    ("func-wrong-arity", [("func.abs", 1)]);
    ("case", [("binop.gt", 5); ("pred.is", 3); ("pred.case", 5)]);
    ("case-operand", [("pred.case", 5)]);
    ("case-no-else", [("pred.is", 5); ("pred.case", 5)]);
    ("collate", [("binop.eq", 5)]);
    ("nested", [("binop.le", 4); ("binop.and", 5); ("binop.or", 4); ("unop.not", 5); ("pred.is", 5); ("pred.in", 3)]);
  ]

(* [SELECT e FROM t0] fires the points of [SELECT 1 FROM t0] plus the
   golden points of [e] *)
let test_coverage_parity () =
  let session = fixture Dialect.Sqlite_like in
  let ctx = Engine.Session.ctx session in
  let count hits p = Option.value ~default:0 (List.assoc_opt p hits) in
  let hits f =
    let cov = Engine.Coverage.create () in
    f { ctx with Ex.coverage = Some cov };
    List.filter_map
      (fun p ->
        match Engine.Coverage.hit_count cov p with
        | 0 -> None
        | n -> Some (p, n))
      Engine.Coverage.static_universe
  in
  let project e ctx =
    ignore
      (Engine.Compile.run_query ctx (select ~items:[ A.Sel_expr (e, Some "r") ] ()))
  in
  let base = hits (project (i 1)) in
  List.iter
    (fun (label, e) ->
      if not (A.has_agg e) then
        let golden = List.assoc label coverage_golden in
        Alcotest.(check (list (pair string int)))
          ("cov " ^ label)
          (List.filter_map
             (fun p ->
               match count base p + count golden p with
               | 0 -> None
               | n -> Some (p, n))
             Engine.Coverage.static_universe)
          (hits (project e)))
    expr_battery

(* ---------- 1,000-seed equivalence sweep ---------- *)

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
  (* indexes, so the planner's access paths are under test too *)
  List.iter run (Pqs.Gen_db.random_statements cfg session);
  session

let rec remove_one r = function
  | [] -> None
  | x :: rest ->
      if Stdlib.compare x r = 0 then Some rest
      else Option.map (fun rest -> x :: rest) (remove_one r rest)

(* [small] is a sub-multiset of [big] *)
let sub_multiset small big =
  Option.is_some
    (List.fold_left (fun acc r -> Option.bind acc (remove_one r)) (Some big) small)

(* rows DISTINCT and the set operators collapse: equal under the binary
   total order, integers and reals compared numerically *)
let same_row a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Value.compare_total x y = 0) a b

(* [got] is [universe] collapsed to a set: every row comes from
   [universe], no two are the same, and every universe row is covered *)
let distinct_agrees ~universe got =
  let rec pairwise_distinct = function
    | [] -> true
    | r :: rest ->
        (not (List.exists (same_row r) rest)) && pairwise_distinct rest
  in
  let fail what =
    Error
      (Printf.sprintf "%s: engine [%s], input [%s]" what (show_rows got)
         (show_rows universe))
  in
  if
    not
      (List.for_all
         (fun r -> List.exists (fun u -> Stdlib.compare u r = 0) universe)
         got)
  then fail "a row not in the input"
  else if not (pairwise_distinct got) then fail "duplicate rows"
  else if
    not (List.for_all (fun u -> List.exists (same_row u) got) universe)
  then fail "an input row missing"
  else Ok ()

let query_rows session q =
  match Engine.Session.query session q with
  | Ok rs -> Ok rs.Ex.rs_rows
  | Error err -> Error ("engine error: " ^ Engine.Errors.show err)

(* DISTINCT, ORDER BY, LIMIT/OFFSET and the compound operators over one
   generated table whose first column is [c]; expected results are built
   from the stored rows and the interpreter's TRUE rows *)
let pipeline_checks session (ti : Pqs.Schema_info.table_info) =
  let name = ti.Pqs.Schema_info.ti_name in
  match ti.Pqs.Schema_info.ti_columns with
  | [] -> []
  | col :: _ ->
      let from = [ A.F_table { name; alias = None } ] in
      let c = A.col col.Pqs.Schema_info.ci_name in
      let collation = col.Pqs.Schema_info.ci_collation in
      let rows = Pqs.Schema_info.rows_of_table session name in
      let firsts = List.map (fun r -> [| r.(0) |]) rows in
      let v = match rows with r :: _ -> r.(0) | [] -> Value.Null in
      let col_only () = select ~from ~items:[ A.Sel_expr (c, None) ] () in
      let ( let* ) = Result.bind in
      [
        ( "SELECT *",
          let* got = query_rows session (select ~from ()) in
          if sorted got = sorted rows then Ok ()
          else Error (Printf.sprintf "engine [%s]" (show_rows got)) );
        ( "DISTINCT c",
          let* got =
            query_rows session
              (select ~from ~distinct:true ~items:[ A.Sel_expr (c, None) ] ())
          in
          distinct_agrees ~universe:firsts got );
        ( "c AS k, * ORDER BY c DESC",
          let* got =
            query_rows session
              (select ~from
                 ~items:[ A.Sel_expr (c, Some "k"); A.Star ]
                 ~order_by:[ (c, A.Desc) ]
                 ())
          in
          let want = List.map (fun r -> Array.append [| r.(0) |] r) rows in
          if sorted got <> sorted want then
            Error (Printf.sprintf "engine [%s]" (show_rows got))
          else if
            not
              (is_ordered ~collation A.Desc (List.map (fun r -> r.(0)) got))
          then Error (Printf.sprintf "not sorted: [%s]" (show_rows got))
          else Ok () );
        ( "WHERE c IS NOT NULL ORDER BY c LIMIT 3 OFFSET 1",
          let e = A.not_ (A.isnull c) in
          let trues =
            List.filter_map
              (function r, Ok Tvl.True -> Some r | _ -> None)
              (verdicts session name e)
          in
          let* got =
            query_rows session
              (select ~from ~where:e ~order_by:[ (c, A.Asc) ] ~limit:3L
                 ~offset:1L ())
          in
          (* ties make the slice's rows ambiguous but not its keys *)
          let slice =
            List.filteri
              (fun k _ -> k >= 1 && k < 4)
              (List.stable_sort
                 (fun a b -> Value.compare_total ~collation a.(0) b.(0))
                 trues)
          in
          if
            List.length got = List.length slice
            && sub_multiset got trues
            && List.for_all2
                 (fun g s -> Value.compare_total ~collation g.(0) s.(0) = 0)
                 got slice
          then Ok ()
          else
            Error
              (Printf.sprintf "engine [%s], expected keys of [%s]"
                 (show_rows got) (show_rows slice)) );
        ( "UNION",
          let* got =
            query_rows session
              (A.Q_compound (A.Union, select ~from (), select ~from ()))
          in
          distinct_agrees ~universe:rows got );
        ( "INTERSECT",
          let* got =
            query_rows session
              (A.Q_compound (A.Intersect, col_only (), col_only ()))
          in
          distinct_agrees ~universe:firsts got );
        ( "EXCEPT VALUES (v)",
          let* got =
            query_rows session
              (A.Q_compound (A.Except, col_only (), A.Q_values [ [ A.lit v ] ]))
          in
          distinct_agrees
            ~universe:
              (List.filter (fun r -> not (same_row r [| v |])) firsts)
            got );
      ]

(* filters over each generated table (comparisons against a stored value
   plus generated predicates, each checked against the interpreter) and
   the pipeline operators over it *)
let test_equivalence_sweep () =
  let checked = ref 0 in
  for seed = 1 to 1000 do
    let session = gen_session seed in
    let rng = Pqs.Rng.make ~seed in
    List.iter
      (fun (ti : Pqs.Schema_info.table_info) ->
        let name = ti.Pqs.Schema_info.ti_name in
        let rows = Pqs.Schema_info.rows_of_table session name in
        let pool =
          List.concat_map Array.to_list rows
          |> List.filter (fun v -> not (Value.is_null v))
        in
        let gen =
          {
            Pqs.Gen_expr.rng;
            max_depth = 3;
            scope = Pqs.Gen_expr.scope ~pool Dialect.Sqlite_like [ ti ];
          }
        in
        let fixed =
          match ti.Pqs.Schema_info.ti_columns with
          | [] -> []
          | col :: _ ->
              let c = A.col col.Pqs.Schema_info.ci_name in
              let v =
                match rows with
                | row :: _ when Array.length row > 0 -> row.(0)
                | _ -> Value.Null
              in
              [
                A.Binary (A.Eq, c, A.lit v);
                A.Binary (A.Gt, c, A.lit v);
                A.not_ (A.isnull c);
              ]
        in
        List.iter
          (fun e ->
            incr checked;
            fail_on
              (Printf.sprintf "seed %d, %s WHERE %s" seed name
                 (Sqlast.Sql_printer.expr Dialect.Sqlite_like e))
              (where_agrees session name e))
          (fixed
          @ [ Pqs.Gen_expr.simple_predicate gen; Pqs.Gen_expr.condition gen ]);
        List.iter
          (fun (label, r) ->
            incr checked;
            fail_on (Printf.sprintf "seed %d, %s %s" seed name label) r)
          (pipeline_checks session ti))
      (Pqs.Schema_info.tables_of_session session)
  done;
  Alcotest.(check bool) "swept a real battery" true (!checked > 5000)

(* ---------- aggregation and views ---------- *)

let rows_of session sql =
  match Engine.Session.execute session (parse_sql sql) with
  | Ok (Engine.Session.Rows rs) ->
      List.map
        (fun r ->
          String.concat "|" (Array.to_list (Array.map Value.to_display r)))
        rs.Ex.rs_rows
  | Ok _ -> Alcotest.fail (sql ^ ": no rows")
  | Error e -> Alcotest.fail (sql ^ ": " ^ Engine.Errors.show e)

let check_rows session sql expected =
  Alcotest.(check (list string)) sql expected (rows_of session sql)

let check_error session sql expected =
  match Engine.Session.execute session (parse_sql sql) with
  | Error e -> Alcotest.(check string) sql expected (Engine.Errors.show e)
  | Ok r ->
      Alcotest.fail
        (Format.asprintf "%s: expected an error, got %a" sql
           Engine.Session.pp_exec_result r)

let plan_ops session sql =
  List.filter_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some k -> Some (String.sub line 0 k)
      | None -> None)
    (rows_of session ("EXPLAIN ANALYZE " ^ sql))

let test_aggregation () =
  let session = fixture Dialect.Sqlite_like in
  (* groups in first-occurrence order; GROUP BY keys by value, so 'Abc'
     and 'abc' are distinct groups *)
  check_rows session
    "SELECT c1, COUNT(*), SUM(c0), MIN(c2), MAX(c3) FROM t0 GROUP BY c1"
    [
      "Abc|1|1|0.5|x%";
      "abc|2|4|-1.5|NULL";
      "zzz|1|NULL|2.0|yy";
      "NULL|1|-3|0.0|x%";
    ];
  check_rows session
    "SELECT c1, COUNT(*) FROM t0 GROUP BY c1 HAVING COUNT(*) > 1"
    [ "abc|2" ];
  check_rows session
    "SELECT c0, COUNT(*) FROM t0 GROUP BY c0 ORDER BY COUNT(*) DESC, c0"
    [ "2|2"; "NULL|1"; "-3|1"; "1|1" ];
  check_rows session "SELECT AVG(c0), TOTAL(c2), COUNT(c0) FROM t0"
    [ "0.5|-0.5|4" ];
  (* no GROUP BY: one group even over no rows ... *)
  check_rows session "SELECT COUNT(*), SUM(c0) FROM t0 WHERE c0 > 100"
    [ "0|NULL" ];
  (* ... which has no row for a bare column to come from *)
  check_error session "SELECT c0, COUNT(*) FROM t0 WHERE c0 > 100"
    "[No_such_column] no such column: c0";
  check_rows session
    "SELECT t0.c0, COUNT(*) FROM t0, t1 WHERE t0.c0 = t1.d0 GROUP BY t0.c0"
    [ "1|1"; "2|2" ];
  check_rows session
    "SELECT DISTINCT COUNT(*) FROM t0 GROUP BY c1 ORDER BY COUNT(*)"
    [ "1"; "2" ];
  Alcotest.(check (list string))
    "AGGREGATE operator"
    [ "SCAN"; "FILTER"; "AGGREGATE"; "SORT"; "RESULT" ]
    (plan_ops session
       "SELECT c1, COUNT(*) FROM t0 WHERE c0 > 0 GROUP BY c1 ORDER BY COUNT(*)");
  (* injected crash: MIN/MAX over a COLLATE expression *)
  let buggy =
    fixture
      ~bugs:(Engine.Bug.set_of_list [ Engine.Bug.Sq_agg_collate_crash ])
      Dialect.Sqlite_like
  in
  check_rows buggy "SELECT MIN(c1) FROM t0" [ "Abc" ];
  match
    Engine.Session.execute buggy (parse_sql "SELECT MIN(c1 COLLATE NOCASE) FROM t0")
  with
  | exception Engine.Errors.Crash _ -> ()
  | _ -> Alcotest.fail "Sq_agg_collate_crash did not crash"

let test_views () =
  let session = fixture Dialect.Sqlite_like in
  exec session "CREATE VIEW v0 AS SELECT DISTINCT c1 FROM t0";
  exec session "CREATE VIEW v1 AS SELECT c1 AS k, COUNT(*) AS n FROM t0 GROUP BY c1";
  check_rows session "SELECT * FROM v0" [ "Abc"; "abc"; "zzz"; "NULL" ];
  check_rows session "SELECT * FROM v0 WHERE c1 IS NOT NULL"
    [ "Abc"; "abc"; "zzz" ];
  check_rows session "SELECT * FROM v0 WHERE c1 IS NULL" [ "NULL" ];
  (* view columns are untyped and binary-collated: the NOCASE of t0.c1
     does not carry over *)
  check_rows session "SELECT * FROM v0 WHERE c1 = 'ABC'" [];
  check_rows session "SELECT COUNT(*) FROM t0 WHERE c1 = 'ABC'" [ "3" ];
  check_rows session "SELECT k FROM v1 WHERE n > 1" [ "abc" ];
  check_rows session "SELECT v.k, t1.d0 FROM v1 AS v, t1 WHERE v.n = t1.d0"
    [ "Abc|1"; "abc|2"; "zzz|1"; "NULL|1" ];
  Alcotest.(check (list string))
    "VIEW operator" [ "AGGREGATE"; "VIEW"; "FILTER"; "RESULT" ]
    (List.filter (fun op -> op <> "SCAN")
       (plan_ops session "SELECT k FROM v1 WHERE n > 1"));
  (* CREATE VIEW validates by running the query *)
  check_error session "CREATE VIEW bad AS SELECT nope FROM t0"
    "[No_such_column] no such column: nope";
  check_error session "SELECT * FROM missing"
    "[No_such_table] no such table: missing";
  (* injected: WHERE pushdown into a DISTINCT view drops the last row *)
  let buggy =
    fixture
      ~bugs:(Engine.Bug.set_of_list [ Engine.Bug.Sq_view_distinct_pushdown ])
      Dialect.Sqlite_like
  in
  exec buggy "CREATE VIEW v0 AS SELECT DISTINCT c1 FROM t0";
  check_rows buggy "SELECT * FROM v0" [ "Abc"; "abc"; "zzz"; "NULL" ];
  check_rows buggy "SELECT * FROM v0 WHERE c1 IS NULL" []

(* ---------- live rounds, replays and campaigns ---------- *)

(* with ground-truth confirmation off, any containment verdict on the
   bug-free engine is one a replay of the round's script would reject;
   the write-heavy shape runs the DDL (renames, partial indexes) where
   live and replayed state once diverged *)
let test_round_parity () =
  for db_seed = 1 to 150 do
    let stats =
      Pqs.Runner.run_round
        (Pqs.Runner.Config.make ~verify_ground_truth:false ~extra_statements:80
           ~pivots_per_db:1 ~queries_per_pivot:2 Dialect.Sqlite_like)
        ~db_seed
    in
    if stats.Pqs.Stats.reports <> [] then
      Alcotest.fail (Printf.sprintf "bug-free round %d reported" db_seed)
  done

(* every injected bug: each report a round files reproduces when its
   logged script is replayed on a fresh session with the same bugs *)
let test_round_parity_bug_catalog () =
  List.iter
    (fun bug ->
      let bugs = Engine.Bug.set_of_list [ bug ] in
      List.iter
        (fun db_seed ->
          let dialect = (Engine.Bug.info bug).Engine.Bug.dialect in
          match
            Pqs.Runner.run_round (Pqs.Runner.Config.make ~bugs dialect) ~db_seed
          with
          | exception Engine.Errors.Crash _ -> ()
          | stats ->
              List.iter
                (fun (r : Pqs.Bug_report.t) ->
                  if
                    not
                      (Pqs.Reducer.manifestation_check ~dialect ~bugs
                         ~oracle:r.Pqs.Bug_report.oracle
                         r.Pqs.Bug_report.statements)
                  then
                    Alcotest.fail
                      (Printf.sprintf "%s: seed %d report does not replay"
                         (Engine.Bug.show bug) db_seed))
                stats.Pqs.Stats.reports)
        [ 3; 17; 7919 ])
    Engine.Bug.all

(* a campaign's per-seed rounds are exactly the standalone rounds *)
let test_campaign_parity () =
  let bugs =
    Engine.Bug.set_of_list (Engine.Bug.for_dialect Dialect.Sqlite_like)
  in
  let config = Pqs.Runner.Config.make ~bugs Dialect.Sqlite_like in
  let c = Pqs.Campaign.run ~domains:1 ~seed_lo:1 ~seed_hi:101 config in
  Alcotest.(check bool) "campaign found bugs to compare" true
    (Pqs.Campaign.reports c <> []);
  List.iter
    (fun (o : Pqs.Campaign.outcome) ->
      if o.Pqs.Campaign.round <> Pqs.Runner.run_round config ~db_seed:o.seed then
        Alcotest.fail (Printf.sprintf "round %d diverges" o.Pqs.Campaign.seed))
    c.Pqs.Campaign.outcomes

(* ---------- the INTERSECT/EXCEPT probe ---------- *)

(* The compound operators probe their right operand without collecting
   it (a probed SELECT skips DISTINCT and ORDER BY).  Every corpus
   containment statement and its EXCEPT twin must equal the result
   derived from the right SELECT run on its own through the full
   pipeline: the deduplicated left rows that (do not) occur on the
   right, or the first operand's error. *)
let test_probe_equivalence () =
  let outcome session q =
    match Engine.Session.query session q with
    | Ok rs -> Ok rs.Ex.rs_rows
    | Error e -> Error (Engine.Errors.show e)
    | exception Engine.Errors.Crash m -> Error ("crash: " ^ m)
  in
  let show = function
    | Ok rows -> "rows [" ^ show_rows rows ^ "]"
    | Error e -> "error " ^ e
  in
  let checked = ref 0 in
  let check ~dialect ~what session left right op =
    let expected =
      match (outcome session left, outcome session right) with
      | Ok l, Ok r ->
          let keep x = List.exists (Ex.Row_eq.equal x) r = (op = A.Intersect) in
          Ok (Ex.dedup (List.filter keep l))
      | (Error _ as e), _ | _, (Error _ as e) -> e
    in
    let q = A.Q_compound (op, left, right) in
    let got = outcome session q in
    incr checked;
    if show got <> show expected then
      Alcotest.failf "%s: %s gives %s, expected %s" what
        (Sqlast.Sql_printer.query dialect q)
        (show got) (show expected)
  in
  List.iter
    (fun dialect ->
      List.iter
        (fun (label, bugs) ->
          for seed = 1 to 200 do
            let db = Pqs.Corpus.build ~bugs ~seed dialect in
            let session = db.Pqs.Corpus.session in
            let sources = Pqs.Corpus.sources session in
            let what =
              Printf.sprintf "%s seed %d, %s" (Dialect.name dialect) seed label
            in
            for _ = 1 to 3 do
              match Pqs.Corpus.query db sources with
              | None -> ()
              | Some (_, t) -> (
                  match Pqs.Gen_query.containment_stmt t with
                  | A.Select_stmt (A.Q_compound (A.Intersect, left, right)) ->
                      check ~dialect ~what session left right A.Intersect;
                      check ~dialect ~what session left right A.Except
                  | _ -> Alcotest.fail "containment statement shape")
            done
          done)
        [
          ("bug-free", Engine.Bug.empty_set);
          ( "catalog bugs",
            Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect) );
        ])
    [ Dialect.Sqlite_like; Dialect.Mysql_like; Dialect.Postgres_like ];
  Alcotest.(check bool) "statements checked" true (!checked > 3000)

(* ---------- sessions ---------- *)

(* a session produces working results end to end — LIMIT/OFFSET slices,
   VALUES, FROM-less SELECTs — including EXPLAIN ANALYZE batch
   annotations *)
let test_compiled_session () =
  let session = fixture Dialect.Sqlite_like in
  check_rows session "SELECT c0 FROM t0 WHERE c0 > 0 ORDER BY c0"
    [ "1"; "2"; "2" ];
  check_rows session "SELECT c0 FROM t0 ORDER BY c0 LIMIT 2 OFFSET 1"
    [ "-3"; "1" ];
  check_rows session "SELECT c0 FROM t0 ORDER BY c0 DESC LIMIT 10 OFFSET 3"
    [ "-3"; "NULL" ];
  check_rows session "SELECT c0 FROM t0 ORDER BY c0 LIMIT 1 OFFSET 9" [];
  check_rows session "VALUES (1, 'a'), (NULL, 'b')" [ "1|a"; "NULL|b" ];
  check_rows session "SELECT 1 + 2" [ "3" ];
  check_rows session "SELECT 1 WHERE 1 = 2" [];
  let lines = rows_of session "EXPLAIN ANALYZE SELECT * FROM t0 WHERE c0 > 0" in
  Alcotest.(check bool)
    ("a batches= annotation is present in: " ^ String.concat " | " lines)
    true
    (List.exists
       (fun l ->
         let re = "batches=" in
         let ll = String.length l and lr = String.length re in
         let rec go i = i + lr <= ll && (String.sub l i lr = re || go (i + 1)) in
         go 0)
       lines)

(* Per-row allocation of the SELECT path: minor words per table row of
   each query, over 20 executions after one warm-up, on a 1,000-row
   sqlite table of (i, NULL).  The totals include the scan, WHERE, the
   projection and, for the INTERSECT, the probe; for DISTINCT and UNION,
   the keyed row table (whose arrays past 256 words are major-heap and
   not counted) and the collected result.  Each bound is 1.15x the
   figure of evaluation closures that return bare values and truth
   values and raise their errors (8.6-8.7 words/row WHERE-only, 22.8 for
   the INTERSECT) and of a row table that stores each row's hash beside
   it and probes without a closure (33.0 DISTINCT, 74.5 UNION).  An [Ok]
   per column read and a dialect value per boolean node exceed every
   WHERE and INTERSECT bound (10.6-12.8 and 30.9 words/row), and a
   [Hashtbl] of rows, with a bucket cell per key and a closure per
   comparison, the DISTINCT and UNION ones (42.7 and 102.1). *)
let alloc_queries =
  [
    ("SELECT c0 FROM t WHERE c0 < 0", 9.9);
    ("SELECT c0 FROM t WHERE c0 < 0 AND c1 IS NULL", 10.0);
    ("SELECT c0 FROM t WHERE c0 IN (-1, -2, -3)", 10.0);
    ("SELECT c0 FROM t WHERE c0 > 2000 OR c0 BETWEEN -5 AND -1", 10.0);
    ( "VALUES (5, NULL) INTERSECT SELECT c0, c1 FROM t WHERE c0 > 0",
      26.2 );
    ("SELECT DISTINCT c0 FROM t", 37.9);
    ("SELECT c0 FROM t UNION SELECT c0 FROM t", 85.7);
  ]

(* A join of [t] with the 10-row [u], in words per pair (10,000 pairs):
   ON holds on 9,955 of them and WHERE on none, so the figure is the
   join's own per-pair cost plus the sides' scans spread over the pairs.
   The bound is 1.25x the figure of a join whose pairs ON and WHERE
   read in the SELECT's loop (1.48 words/pair); collecting the pairs
   before the loop, a combined tuple and list cells each, reads 13.7. *)
let alloc_join =
  ("SELECT t.c0 FROM t JOIN u ON t.c0 >= u.d0 WHERE t.c1 = 'x'", 1.85)

let test_per_row_allocation () =
  let rows = 1000 and runs = 20 in
  let session = Engine.Session.create Dialect.Sqlite_like in
  exec session "CREATE TABLE t(c0 INT, c1 TEXT)";
  exec session
    ("INSERT INTO t(c0, c1) VALUES "
    ^ String.concat ", " (List.init rows (Printf.sprintf "(%d, NULL)")));
  exec session "CREATE TABLE u(d0 INT)";
  exec session
    ("INSERT INTO u(d0) VALUES "
    ^ String.concat ", " (List.init 10 (Printf.sprintf "(%d)")));
  List.iter
    (fun (sql, per, bound) ->
      let q =
        match parse_sql sql with
        | A.Select_stmt q -> q
        | _ -> Alcotest.fail ("not a query: " ^ sql)
      in
      let run () =
        match Engine.Session.query session q with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Engine.Errors.show e)
      in
      run ();
      let w0 = Gc.minor_words () in
      for _ = 1 to runs do
        run ()
      done;
      let per_row =
        (Gc.minor_words () -. w0) /. float_of_int (runs * rows * per)
      in
      let unit = if per = 1 then "row" else "pair" in
      Printf.printf "%-60s %.2f words/%s\n" sql per_row unit;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f words/%s <= %.2f" sql per_row unit bound)
        true (per_row <= bound))
    (List.map (fun (sql, bound) -> (sql, 1, bound)) alloc_queries
    @ [ (fst alloc_join, 10, snd alloc_join) ])

(* ---------- boolean and value contexts agree ---------- *)

(* The env of the fixture's [t0]. *)
let t0_env session =
  let ctx = Engine.Session.ctx session in
  let schema =
    match Storage.Catalog.find_table ctx.Ex.catalog "t0" with
    | Some ts -> ts.Storage.Catalog.schema
    | None -> Alcotest.fail "no t0"
  in
  Ex.table_env ctx schema ~alias:"t0"

(* [Eval.compile_pred] writes the boolean operators once and
   [Eval.compile] the value ones, each wrapping the other: on every
   generated expression and fixture row, the truth value (or error) of
   the one must be [Eval.value_tvl] of the other's value (or the same
   error), bug-free and under each dialect's whole catalog.  And an
   expression either context compiles as infallible returns no error
   there. *)
let test_bool_value_agreement () =
  let checked = ref 0 and infallible_checked = ref 0 in
  List.iter
    (fun dialect ->
      List.iter
        (fun bugs ->
          let session = fixture ~bugs dialect in
          let ti = table_info session "t0" in
          let env = t0_env session in
          let rows = Pqs.Schema_info.rows_of_table session "t0" in
          let pool =
            List.concat_map Array.to_list rows
            |> List.filter (fun v -> not (Value.is_null v))
          in
          let show = function
            | Ok t -> Tvl.show t
            | Error e -> Engine.Errors.show e
          in
          for seed = 1 to 300 do
            let gen =
              {
                Pqs.Gen_expr.rng = Pqs.Rng.make ~seed;
                max_depth = 4;
                scope = Pqs.Gen_expr.scope ~pool dialect [ ti ];
              }
            in
            List.iter
              (fun e ->
                let pred, pred_ok = Engine.Eval.compile_pred_checked env e
                and value, value_ok = Engine.Eval.compile_checked env e in
                let infallible context ok = function
                  | Error err when ok ->
                      Alcotest.failf
                        "%s, %d bugs, %s: compiled infallible in %s context, \
                         but raised %s"
                        (Dialect.name dialect)
                        (List.length (Engine.Bug.to_list bugs))
                        (Sqlast.Sql_printer.expr dialect e)
                        context (Engine.Errors.show err)
                  | _ -> if ok then incr infallible_checked
                in
                List.iter
                  (fun row ->
                    env.Engine.Eval.cur := [| row |];
                    let via_pred = Engine.Eval.run pred
                    and via_value =
                      Engine.Eval.run (fun () ->
                          Engine.Eval.value_tvl env (value ()))
                    in
                    infallible "boolean" pred_ok via_pred;
                    infallible "value" value_ok (Engine.Eval.run value);
                    incr checked;
                    if show via_pred <> show via_value then
                      Alcotest.failf "%s, %d bugs, %s: %s in boolean context, %s \
                                      from its value"
                        (Dialect.name dialect)
                        (List.length (Engine.Bug.to_list bugs))
                        (Sqlast.Sql_printer.expr dialect e)
                        (show via_pred) (show via_value))
                  rows)
              [ Pqs.Gen_expr.condition gen; Pqs.Gen_expr.scalar gen ]
          done)
        [
          Engine.Bug.empty_set;
          Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect);
        ])
    [ Dialect.Sqlite_like; Dialect.Mysql_like; Dialect.Postgres_like ];
  Alcotest.(check bool) "compared enough evaluations" true (!checked > 15000);
  Alcotest.(check bool) "checked enough infallible evaluations" true
    (!infallible_checked > 20000)

(* ---------- first error in evaluation order ---------- *)

(* Each statement runs on a fresh fixture in every dialect; the outcome
   is its first error, or its rows or affected count.  Unknown columns
   ([x1], [x2], ...) fail only when evaluated, so each names the operand
   that failed first.  The golden was captured from the evaluator before
   compiled expressions raised their errors: it pins SQL's left-to-right
   order, every short circuit (a CASE branch not taken, AND/OR, an IN
   item after a match), and the statement stages (ON before WHERE before
   projection and ORDER BY keys; a constant SELECT projects first). *)
let error_order_golden =
  [
    ( "SELECT * FROM t0 WHERE x1 = x2",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT * FROM t0 WHERE (c0 + x1) < (x2 + c0)",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT * FROM t0 WHERE x1 IS NOT DISTINCT FROM x2",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT * FROM t0 WHERE c0 IN (x1, x2)",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT * FROM t0 WHERE c0 IN (c0, x1)",
      [
        "rows (Int 1L)|(Text \"Abc\")|(Real 0.5)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null; (Int -3L)|Null|(Real 0.)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null";
        "rows (Int 1L)|(Text \"Abc\")|(Real 0.5)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null; (Int -3L)|Null|(Real 0.)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null";
        "rows (Int 1L)|(Text \"Abc\")|(Real 0.5)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null; (Int -3L)|Null|(Real 0.)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null";
      ] );
    ( "SELECT * FROM t0 WHERE c0 NOT IN (99, x1, x2)",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT COALESCE(x1, x2) FROM t0",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT NULLIF(c0, x1), ABS(x2) FROM t0",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT ABS(x1, x2) FROM t0",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT LEAST(x1, 1) FROM t0",
      [
        "error [Invalid_function] no such function in sqlite dialect";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT CASE WHEN 1 = 0 THEN x1 ELSE c0 END FROM t0",
      [
        "rows (Int 1L); (Int 2L); Null; (Int -3L); (Int 2L)";
        "rows (Int 1L); (Int 2L); Null; (Int -3L); (Int 2L)";
        "rows (Int 1L); (Int 2L); Null; (Int -3L); (Int 2L)";
      ] );
    ( "SELECT CASE c0 WHEN 99 THEN x1 ELSE c1 END FROM t0",
      [
        "rows (Text \"Abc\"); (Text \"abc\"); (Text \"zzz\"); Null; (Text \"abc\")";
        "rows (Text \"Abc\"); (Text \"abc\"); (Text \"zzz\"); Null; (Text \"abc\")";
        "rows (Text \"Abc\"); (Text \"abc\"); (Text \"zzz\"); Null; (Text \"abc\")";
      ] );
    ( "SELECT CASE WHEN x1 THEN x2 END FROM t0",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT CASE x1 WHEN x2 THEN 1 END FROM t0",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT * FROM t0 WHERE 1 = 0 AND x1 = 1",
      [
        "rows ";
        "rows ";
        "rows ";
      ] );
    ( "SELECT * FROM t0 WHERE c0 IS NULL AND x1 = 1",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT * FROM t0 WHERE 1 = 1 OR x1",
      [
        "rows (Int 1L)|(Text \"Abc\")|(Real 0.5)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null; Null|(Text \"zzz\")|(Real 2.)|(Text \"yy\"); (Int -3L)|Null|(Real 0.)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null";
        "rows (Int 1L)|(Text \"Abc\")|(Real 0.5)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null; Null|(Text \"zzz\")|(Real 2.)|(Text \"yy\"); (Int -3L)|Null|(Real 0.)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null";
        "rows (Int 1L)|(Text \"Abc\")|(Real 0.5)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null; Null|(Text \"zzz\")|(Real 2.)|(Text \"yy\"); (Int -3L)|Null|(Real 0.)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null";
      ] );
    ( "SELECT * FROM t0 WHERE x1 IS TRUE OR x2",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT * FROM t0 WHERE NOT (x1 IS NULL)",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT * FROM t0 WHERE c0 BETWEEN x1 AND x2",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT * FROM t0 WHERE c1 LIKE x1 ESCAPE x2",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT * FROM t0 WHERE c1 LIKE 'a%' ESCAPE 'xy'",
      [
        "error [Invalid_function] ESCAPE expression must be a single character";
        "error [Invalid_function] ESCAPE expression must be a single character";
        "error [Invalid_function] ESCAPE expression must be a single character";
      ] );
    ( "SELECT * FROM t0 WHERE c1 GLOB x1",
      [
        "error [No_such_column] no such column: x1";
        "error [Invalid_function] GLOB is sqlite-specific";
        "error [Invalid_function] GLOB is sqlite-specific";
      ] );
    ( "SELECT * FROM t0 WHERE CAST(x1 AS INTEGER) = x2",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT * FROM t0 WHERE c0 + 9223372036854775807 > x1",
      [
        "error [No_such_column] no such column: x1";
        "error [Out_of_range] BIGINT value is out of range";
        "error [Out_of_range] BIGINT value is out of range";
      ] );
    ( "SELECT * FROM t0 WHERE c3 = 1 AND x1 = 1",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [Type_error] operator does not exist: (Text \"x%\") vs (Int 1L)";
      ] );
    ( "SELECT * FROM t0 WHERE (c1 = 1) = (c0 = 'a')",
      [
        "rows (Int 1L)|(Text \"Abc\")|(Real 0.5)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null; (Int 2L)|(Text \"abc\")|(Real -1.5)|Null";
        "rows (Int 1L)|(Text \"Abc\")|(Real 0.5)|(Text \"x%\"); (Int 2L)|(Text \"abc\")|(Real -1.5)|Null; (Int 2L)|(Text \"abc\")|(Real -1.5)|Null";
        "error [Type_error] operator does not exist: (Text \"Abc\") vs (Int 1L)";
      ] );
    ( "SELECT * FROM t0 WHERE c1 < 'b' IN (c0 = 'a', x1)",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [Type_error] operator does not exist: (Int 1L) vs (Text \"a\")";
      ] );
    ( "SELECT * FROM t0 WHERE -c0 < x1 OR c2 / 0 > x2",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT * FROM t0 JOIN t1 ON x1 = d0 WHERE x2 = 1",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT * FROM t0 LEFT JOIN t1 ON d0 = c0 AND x1 = 1",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT x1 FROM t0 JOIN t1 ON x2 = 1 WHERE x3 = 1",
      [
        "error [No_such_column] no such column: x2";
        "error [No_such_column] no such column: x2";
        "error [No_such_column] no such column: x2";
      ] );
    ( "SELECT x1 FROM t0 WHERE x2 = 1",
      [
        "error [No_such_column] no such column: x2";
        "error [No_such_column] no such column: x2";
        "error [No_such_column] no such column: x2";
      ] );
    ( "SELECT x1 FROM t0 WHERE c0 > 100",
      [
        "rows ";
        "rows ";
        "rows ";
      ] );
    ( "SELECT x2 FROM t0 WHERE c0 < 2 OR x1 = 1",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "VALUES (1) INTERSECT SELECT x2 FROM t0 WHERE c0 < 2 OR x1 = 1",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT x1, x2 FROM t0",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT c0 FROM t0 ORDER BY x1",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT x1 FROM t0 ORDER BY x2",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT DISTINCT c0 FROM t0 ORDER BY c0 LIMIT 2",
      [
        "rows Null; (Int -3L)";
        "rows Null; (Int -3L)";
        "rows Null; (Int -3L)";
      ] );
    ( "SELECT x1 WHERE x2 = 1",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT 1 WHERE x1 = x2",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "VALUES (1, x1), (x2, 2)",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT c0 FROM t0 GROUP BY c0 HAVING x1 = 1",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT COUNT(*) FROM t0 HAVING x1 > x2",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "SELECT SUM(x1) FROM t0 WHERE x2 = 0",
      [
        "error [No_such_column] no such column: x2";
        "error [No_such_column] no such column: x2";
        "error [No_such_column] no such column: x2";
      ] );
    ( "SELECT SUM(c0), x1 FROM t0",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "DELETE FROM t0 WHERE x1 = x2",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "DELETE FROM t0 WHERE c0 < 0 AND x1 = 1",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "UPDATE t0 SET c0 = x1 WHERE x2 = 1",
      [
        "error [No_such_column] no such column: x2";
        "error [No_such_column] no such column: x2";
        "error [No_such_column] no such column: x2";
      ] );
    ( "UPDATE t0 SET c0 = x1, c2 = x2",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
    ( "INSERT INTO t0(c0) VALUES (x1 + x2)",
      [
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
        "error [No_such_column] no such column: x1";
      ] );
  ]

let error_order_outcome dialect sql =
  let session = fixture dialect in
  match Engine.Session.execute session (parse_sql sql) with
  | Ok (Engine.Session.Rows rs) -> "rows " ^ show_rows rs.Ex.rs_rows
  | Ok (Engine.Session.Affected n) -> Printf.sprintf "affected %d" n
  | Ok Engine.Session.Done -> "done"
  | Error e -> "error " ^ Engine.Errors.show e

let error_order_dialects =
  [ Dialect.Sqlite_like; Dialect.Mysql_like; Dialect.Postgres_like ]

let test_error_order () =
  List.iter
    (fun (sql, expected) ->
      List.iter2
        (fun dialect want ->
          Alcotest.(check string)
            (Printf.sprintf "%s (%s)" sql (Dialect.name dialect))
            want
            (error_order_outcome dialect sql))
        error_order_dialects expected)
    error_order_golden

(* Joins: the ON, WHERE, projection and FROM errors in the order the
   engine meets them, the LEFT join's extension and layout over an empty
   derived table, and the forced swap's row order.  [late] fails on the
   last pair whose t1.d0 is 4, after pairs that pass. *)
let late = "CASE WHEN t1.d0 = 4 THEN abs(-9223372036854775807 - 1) ELSE 9 END"

let join_golden =
  [
    ( false,
      "SELECT * FROM t0 JOIN t1 ON t0.c0 < " ^ late ^ " WHERE x9 = 1",
      [
        "error [Out_of_range] integer overflow";
        "error [Out_of_range] BIGINT value is out of range";
        "error [Out_of_range] BIGINT value is out of range";
      ] );
    ( false,
      "SELECT t0.c0 + x8 FROM t0 JOIN t1 ON t0.c0 < " ^ late,
      [
        "error [Out_of_range] integer overflow";
        "error [Out_of_range] BIGINT value is out of range";
        "error [Out_of_range] BIGINT value is out of range";
      ] );
    ( false,
      "SELECT * FROM t1 JOIN t0 ON (CASE WHEN t1.d0 = 4 THEN t0.c1 END) > \
       t1.d0 OR t1.d0 < 4 WHERE t0.c0 / (t1.d0 - 1) >= 0",
      [
        "rows (Int 2L)|(Int 2L)|(Text \"abc\")|(Real -1.5)|Null; (Int 2L)|(Int 2L)|(Text \"abc\")|(Real -1.5)|Null; (Int 2L)|(Int 1L)|(Text \"Abc\")|(Real 0.5)|(Text \"x%\"); (Int 4L)|(Int 2L)|(Text \"abc\")|(Real -1.5)|Null; (Int 4L)|(Int 2L)|(Text \"abc\")|(Real -1.5)|Null; (Int 4L)|(Int 1L)|(Text \"Abc\")|(Real 0.5)|(Text \"x%\")";
        "rows (Int 2L)|(Int 2L)|(Text \"abc\")|(Real -1.5)|Null; (Int 2L)|(Int 2L)|(Text \"abc\")|(Real -1.5)|Null; (Int 2L)|(Int 1L)|(Text \"Abc\")|(Real 0.5)|(Text \"x%\")";
        "error [Type_error] operator does not exist: (Text \"Abc\") vs (Int 4L)";
      ] );
    ( false,
      "SELECT * FROM t1 AS a JOIN t1 AS b ON CASE WHEN a.d0 = 4 AND b.d0 = 4 \
       THEN abs(-9223372036854775807 - 1) ELSE 1 END > 0 JOIN t0 ON t0.c0 + \
       x7 > 0",
      [
        "error [Out_of_range] integer overflow";
        "error [Out_of_range] BIGINT value is out of range";
        "error [Out_of_range] BIGINT value is out of range";
      ] );
    ( false,
      "SELECT * FROM t0 JOIN t1 ON t0.c0 < " ^ late ^ ", nosuch",
      [
        "error [Out_of_range] integer overflow";
        "error [Out_of_range] BIGINT value is out of range";
        "error [Out_of_range] BIGINT value is out of range";
      ] );
    ( false,
      "SELECT * FROM t0 JOIN t1 ON t0.c0 = t1.d0, nosuch",
      [
        "error [No_such_table] no such table: nosuch";
        "error [No_such_table] no such table: nosuch";
        "error [No_such_table] no such table: nosuch";
      ] );
    ( false,
      "SELECT * FROM t1 LEFT JOIN (SELECT c0 FROM t0 WHERE c0 > 100) AS d ON \
       t1.d0 = d.c0",
      [
        "rows (Int 1L); (Int 2L); (Int 4L)";
        "rows (Int 1L); (Int 2L); (Int 4L)";
        "rows (Int 1L); (Int 2L); (Int 4L)";
      ] );
    ( false,
      "SELECT d.c0 FROM t1 LEFT JOIN (SELECT c0 FROM t0 WHERE c0 > 100) AS d \
       ON t1.d0 = d.c0",
      [
        "error [No_such_table] no such table: d";
        "error [No_such_table] no such table: d";
        "error [No_such_table] no such table: d";
      ] );
    ( false,
      "SELECT * FROM t1 LEFT JOIN (SELECT c0 FROM t0 WHERE c0 > 1) AS d ON \
       t1.d0 = d.c0",
      [
        "rows (Int 1L)|Null; (Int 2L)|(Int 2L); (Int 2L)|(Int 2L); (Int 4L)|Null";
        "rows (Int 1L)|Null; (Int 2L)|(Int 2L); (Int 2L)|(Int 2L); (Int 4L)|Null";
        "rows (Int 1L)|Null; (Int 2L)|(Int 2L); (Int 2L)|(Int 2L); (Int 4L)|Null";
      ] );
    ( false,
      "SELECT t0.c0, t1.d0 FROM t0 JOIN t1 ON t0.c0 <= t1.d0 JOIN t1 AS b ON \
       b.d0 < t1.d0",
      [
        "rows (Int 1L)|(Int 4L); (Int 1L)|(Int 4L); (Int 1L)|(Int 2L); (Int 2L)|(Int 4L); (Int 2L)|(Int 4L); (Int 2L)|(Int 2L); (Int -3L)|(Int 4L); (Int -3L)|(Int 4L); (Int -3L)|(Int 2L); (Int 2L)|(Int 4L); (Int 2L)|(Int 4L); (Int 2L)|(Int 2L)";
        "rows (Int 1L)|(Int 4L); (Int 1L)|(Int 4L); (Int 1L)|(Int 2L); (Int 2L)|(Int 4L); (Int 2L)|(Int 4L); (Int 2L)|(Int 2L); (Int -3L)|(Int 4L); (Int -3L)|(Int 4L); (Int -3L)|(Int 2L); (Int 2L)|(Int 4L); (Int 2L)|(Int 4L); (Int 2L)|(Int 2L)";
        "rows (Int 1L)|(Int 4L); (Int 1L)|(Int 4L); (Int 1L)|(Int 2L); (Int 2L)|(Int 4L); (Int 2L)|(Int 4L); (Int 2L)|(Int 2L); (Int -3L)|(Int 4L); (Int -3L)|(Int 4L); (Int -3L)|(Int 2L); (Int 2L)|(Int 4L); (Int 2L)|(Int 4L); (Int 2L)|(Int 2L)";
      ] );
    ( false,
      "SELECT a.d0, t0.c0, t1.d0 FROM t1 AS a, t0 JOIN t1 ON t0.c0 = t1.d0 \
       WHERE a.d0 < 4",
      [
        "rows (Int 1L)|(Int 1L)|(Int 1L); (Int 1L)|(Int 2L)|(Int 2L); (Int 1L)|(Int 2L)|(Int 2L); (Int 2L)|(Int 1L)|(Int 1L); (Int 2L)|(Int 2L)|(Int 2L); (Int 2L)|(Int 2L)|(Int 2L)";
        "rows (Int 1L)|(Int 1L)|(Int 1L); (Int 1L)|(Int 2L)|(Int 2L); (Int 1L)|(Int 2L)|(Int 2L); (Int 2L)|(Int 1L)|(Int 1L); (Int 2L)|(Int 2L)|(Int 2L); (Int 2L)|(Int 2L)|(Int 2L)";
        "rows (Int 1L)|(Int 1L)|(Int 1L); (Int 1L)|(Int 2L)|(Int 2L); (Int 1L)|(Int 2L)|(Int 2L); (Int 2L)|(Int 1L)|(Int 1L); (Int 2L)|(Int 2L)|(Int 2L); (Int 2L)|(Int 2L)|(Int 2L)";
      ] );
    ( false,
      "VALUES (2) INTERSECT SELECT t0.c0 FROM t0 JOIN t1 ON t0.c0 < " ^ late,
      [
        "error [Out_of_range] integer overflow";
        "error [Out_of_range] BIGINT value is out of range";
        "error [Out_of_range] BIGINT value is out of range";
      ] );
    ( false,
      "VALUES (1, 1) INTERSECT SELECT t0.c0, t1.d0 FROM t0 JOIN t1 ON t0.c0 = \
       t1.d0 WHERE t0.c2 < 1 AND t1.d0 + x6 > 0",
      [
        "error [No_such_column] no such column: x6";
        "error [No_such_column] no such column: x6";
        "error [No_such_column] no such column: x6";
      ] );
    ( false,
      "VALUES (1, 1), (2, 4) INTERSECT SELECT t0.c0, t1.d0 FROM t0 JOIN t1 ON \
       t0.c0 <= t1.d0",
      [
        "rows (Int 1L)|(Int 1L); (Int 2L)|(Int 4L)";
        "rows (Int 1L)|(Int 1L); (Int 2L)|(Int 4L)";
        "rows (Int 1L)|(Int 1L); (Int 2L)|(Int 4L)";
      ] );
    ( false,
      "VALUES (-3, NULL) EXCEPT SELECT t0.c0, t1.d0 FROM t0 LEFT JOIN t1 ON \
       t0.c0 = t1.d0",
      [
        "rows ";
        "rows ";
        "rows ";
      ] );
    ( true,
      "SELECT t0.c0, t1.d0 FROM t0 JOIN t1 ON t0.c0 <= t1.d0",
      [
        "rows (Int -3L)|(Int 1L); (Int 1L)|(Int 1L); (Int 2L)|(Int 2L); (Int -3L)|(Int 2L); (Int 2L)|(Int 2L); (Int 1L)|(Int 2L); (Int 2L)|(Int 4L); (Int -3L)|(Int 4L); (Int 2L)|(Int 4L); (Int 1L)|(Int 4L)";
        "rows (Int -3L)|(Int 1L); (Int 1L)|(Int 1L); (Int 2L)|(Int 2L); (Int -3L)|(Int 2L); (Int 2L)|(Int 2L); (Int 1L)|(Int 2L); (Int 2L)|(Int 4L); (Int -3L)|(Int 4L); (Int 2L)|(Int 4L); (Int 1L)|(Int 4L)";
        "rows (Int -3L)|(Int 1L); (Int 1L)|(Int 1L); (Int 2L)|(Int 2L); (Int -3L)|(Int 2L); (Int 2L)|(Int 2L); (Int 1L)|(Int 2L); (Int 2L)|(Int 4L); (Int -3L)|(Int 4L); (Int 2L)|(Int 4L); (Int 1L)|(Int 4L)";
      ] );
    ( true,
      "SELECT t0.c0, t1.d0 FROM t0 CROSS JOIN t1 WHERE t0.c0 > 1",
      [
        "rows (Int 2L)|(Int 1L); (Int 2L)|(Int 1L); (Int 2L)|(Int 2L); (Int 2L)|(Int 2L); (Int 2L)|(Int 4L); (Int 2L)|(Int 4L)";
        "rows (Int 2L)|(Int 1L); (Int 2L)|(Int 1L); (Int 2L)|(Int 2L); (Int 2L)|(Int 2L); (Int 2L)|(Int 4L); (Int 2L)|(Int 4L)";
        "rows (Int 2L)|(Int 1L); (Int 2L)|(Int 1L); (Int 2L)|(Int 2L); (Int 2L)|(Int 2L); (Int 2L)|(Int 4L); (Int 2L)|(Int 4L)";
      ] );
    ( true,
      "SELECT t0.c0, t1.d0 FROM t0 LEFT JOIN t1 ON t0.c0 = t1.d0",
      [
        "rows (Int 1L)|(Int 1L); (Int 2L)|(Int 2L); Null|Null; (Int -3L)|Null; (Int 2L)|(Int 2L)";
        "rows (Int 1L)|(Int 1L); (Int 2L)|(Int 2L); Null|Null; (Int -3L)|Null; (Int 2L)|(Int 2L)";
        "rows (Int 1L)|(Int 1L); (Int 2L)|(Int 2L); Null|Null; (Int -3L)|Null; (Int 2L)|(Int 2L)";
      ] );
    ( true,
      "SELECT t0.c0, t1.d0, b.d0 FROM t0 JOIN t1 ON t0.c0 <= t1.d0 JOIN t1 AS \
       b ON b.d0 < t1.d0",
      [
        "rows (Int 1L)|(Int 4L)|(Int 1L); (Int 2L)|(Int 4L)|(Int 1L); (Int -3L)|(Int 4L)|(Int 1L); (Int 2L)|(Int 4L)|(Int 1L); (Int 1L)|(Int 2L)|(Int 1L); (Int 2L)|(Int 2L)|(Int 1L); (Int -3L)|(Int 2L)|(Int 1L); (Int 2L)|(Int 2L)|(Int 1L); (Int 1L)|(Int 4L)|(Int 2L); (Int 2L)|(Int 4L)|(Int 2L); (Int -3L)|(Int 4L)|(Int 2L); (Int 2L)|(Int 4L)|(Int 2L)";
        "rows (Int 1L)|(Int 4L)|(Int 1L); (Int 2L)|(Int 4L)|(Int 1L); (Int -3L)|(Int 4L)|(Int 1L); (Int 2L)|(Int 4L)|(Int 1L); (Int 1L)|(Int 2L)|(Int 1L); (Int 2L)|(Int 2L)|(Int 1L); (Int -3L)|(Int 2L)|(Int 1L); (Int 2L)|(Int 2L)|(Int 1L); (Int 1L)|(Int 4L)|(Int 2L); (Int 2L)|(Int 4L)|(Int 2L); (Int -3L)|(Int 4L)|(Int 2L); (Int 2L)|(Int 4L)|(Int 2L)";
        "rows (Int 1L)|(Int 4L)|(Int 1L); (Int 2L)|(Int 4L)|(Int 1L); (Int -3L)|(Int 4L)|(Int 1L); (Int 2L)|(Int 4L)|(Int 1L); (Int 1L)|(Int 2L)|(Int 1L); (Int 2L)|(Int 2L)|(Int 1L); (Int -3L)|(Int 2L)|(Int 1L); (Int 2L)|(Int 2L)|(Int 1L); (Int 1L)|(Int 4L)|(Int 2L); (Int 2L)|(Int 4L)|(Int 2L); (Int -3L)|(Int 4L)|(Int 2L); (Int 2L)|(Int 4L)|(Int 2L)";
      ] );
    ( true,
      "SELECT t0.c0, t1.d0, a.d0 FROM t0 JOIN t1 ON t0.c0 <= t1.d0, t1 AS a \
       WHERE a.d0 > 1",
      [
        "rows (Int -3L)|(Int 1L)|(Int 2L); (Int 1L)|(Int 1L)|(Int 2L); (Int 2L)|(Int 2L)|(Int 2L); (Int -3L)|(Int 2L)|(Int 2L); (Int 2L)|(Int 2L)|(Int 2L); (Int 1L)|(Int 2L)|(Int 2L); (Int 2L)|(Int 4L)|(Int 2L); (Int -3L)|(Int 4L)|(Int 2L); (Int 2L)|(Int 4L)|(Int 2L); (Int 1L)|(Int 4L)|(Int 2L); (Int -3L)|(Int 1L)|(Int 4L); (Int 1L)|(Int 1L)|(Int 4L); (Int 2L)|(Int 2L)|(Int 4L); (Int -3L)|(Int 2L)|(Int 4L); (Int 2L)|(Int 2L)|(Int 4L); (Int 1L)|(Int 2L)|(Int 4L); (Int 2L)|(Int 4L)|(Int 4L); (Int -3L)|(Int 4L)|(Int 4L); (Int 2L)|(Int 4L)|(Int 4L); (Int 1L)|(Int 4L)|(Int 4L)";
        "rows (Int -3L)|(Int 1L)|(Int 2L); (Int 1L)|(Int 1L)|(Int 2L); (Int 2L)|(Int 2L)|(Int 2L); (Int -3L)|(Int 2L)|(Int 2L); (Int 2L)|(Int 2L)|(Int 2L); (Int 1L)|(Int 2L)|(Int 2L); (Int 2L)|(Int 4L)|(Int 2L); (Int -3L)|(Int 4L)|(Int 2L); (Int 2L)|(Int 4L)|(Int 2L); (Int 1L)|(Int 4L)|(Int 2L); (Int -3L)|(Int 1L)|(Int 4L); (Int 1L)|(Int 1L)|(Int 4L); (Int 2L)|(Int 2L)|(Int 4L); (Int -3L)|(Int 2L)|(Int 4L); (Int 2L)|(Int 2L)|(Int 4L); (Int 1L)|(Int 2L)|(Int 4L); (Int 2L)|(Int 4L)|(Int 4L); (Int -3L)|(Int 4L)|(Int 4L); (Int 2L)|(Int 4L)|(Int 4L); (Int 1L)|(Int 4L)|(Int 4L)";
        "rows (Int -3L)|(Int 1L)|(Int 2L); (Int 1L)|(Int 1L)|(Int 2L); (Int 2L)|(Int 2L)|(Int 2L); (Int -3L)|(Int 2L)|(Int 2L); (Int 2L)|(Int 2L)|(Int 2L); (Int 1L)|(Int 2L)|(Int 2L); (Int 2L)|(Int 4L)|(Int 2L); (Int -3L)|(Int 4L)|(Int 2L); (Int 2L)|(Int 4L)|(Int 2L); (Int 1L)|(Int 4L)|(Int 2L); (Int -3L)|(Int 1L)|(Int 4L); (Int 1L)|(Int 1L)|(Int 4L); (Int 2L)|(Int 2L)|(Int 4L); (Int -3L)|(Int 2L)|(Int 4L); (Int 2L)|(Int 2L)|(Int 4L); (Int 1L)|(Int 2L)|(Int 4L); (Int 2L)|(Int 4L)|(Int 4L); (Int -3L)|(Int 4L)|(Int 4L); (Int 2L)|(Int 4L)|(Int 4L); (Int 1L)|(Int 4L)|(Int 4L)";
      ] );
    ( true,
      "SELECT * FROM t0 JOIN t1 ON t0.c0 < " ^ late,
      [
        "error [Out_of_range] integer overflow";
        "error [Out_of_range] BIGINT value is out of range";
        "error [Out_of_range] BIGINT value is out of range";
      ] );
  ]

let join_outcome dialect (swap, sql) =
  let session = fixture dialect in
  let r =
    if swap then
      match parse_sql sql with
      | A.Select_stmt q ->
          Engine.Session.query_forced session
            ~force:{ Ex.no_force with Ex.f_swap_join = true }
            q
          |> Result.map (fun rs -> Engine.Session.Rows rs)
      | _ -> Alcotest.fail ("not a query: " ^ sql)
    else Engine.Session.execute session (parse_sql sql)
  in
  match r with
  | Ok (Engine.Session.Rows rs) -> "rows " ^ show_rows rs.Ex.rs_rows
  | Ok _ -> "not rows"
  | Error e -> "error " ^ Engine.Errors.show e

let test_join_golden () =
  List.iter
    (fun (swap, sql, expected) ->
      List.iter2
        (fun dialect want ->
          Alcotest.(check string)
            (Printf.sprintf "%s%s (%s)" sql
               (if swap then " [forced swap]" else "")
               (Dialect.name dialect))
            want
            (join_outcome dialect (swap, sql)))
        error_order_dialects expected)
    join_golden

(* ---------- a probe that meets its answer early ---------- *)

(* Each statement runs on a fresh session of its dialect holding [t];
   the outcome is its rows or its first error.  The golden was captured
   before probed SELECTs stopped at their answer: an error on a row
   after the match still surfaces, and EXCEPT and an INTERSECT with
   several left rows return the same rows. *)
let sqlite_t =
  [
    "CREATE TABLE t(c0 INTEGER, c1 TEXT)";
    "INSERT INTO t(c0, c1) VALUES (1, 'a'), (2, 'b'), (3, 'c'), (2, 'b')";
  ]

let probe_golden =
  [
    ( Dialect.Sqlite_like,
      [
        "CREATE TABLE t(c0 INTEGER)";
        "INSERT INTO t(c0) VALUES (1), (-9223372036854775808)";
      ],
      "VALUES (1) INTERSECT SELECT c0 FROM t WHERE abs(c0) >= 0",
      "error [Out_of_range] integer overflow" );
    ( Dialect.Postgres_like,
      [
        "CREATE TABLE t(c0 BIGINT, c1 TEXT)";
        "INSERT INTO t(c0, c1) VALUES (1, 'a'), (2, 'b')";
      ],
      "VALUES (1) INTERSECT SELECT c0 FROM t WHERE c0 = 1 OR c1 > 0",
      "error [Type_error] operator does not exist: (Text \"b\") vs (Int 0L)" );
    ( Dialect.Sqlite_like,
      sqlite_t,
      "VALUES (1) EXCEPT SELECT c0 FROM t WHERE c0 > 0",
      "rows " );
    ( Dialect.Sqlite_like,
      sqlite_t,
      "VALUES (2), (1) EXCEPT SELECT c0 FROM t WHERE c0 < 3",
      "rows " );
    ( Dialect.Sqlite_like,
      sqlite_t,
      "VALUES (3, 'c'), (9, 'z') EXCEPT SELECT c0, c1 FROM t",
      "rows (Int 9L)|(Text \"z\")" );
    ( Dialect.Sqlite_like,
      sqlite_t,
      "VALUES (1), (2), (7) INTERSECT SELECT c0 FROM t WHERE c0 > 0",
      "rows (Int 1L); (Int 2L)" );
    ( Dialect.Sqlite_like,
      sqlite_t,
      "VALUES (2), (1), (2) INTERSECT SELECT DISTINCT c0 FROM t ORDER BY c0",
      "rows (Int 2L); (Int 1L)" );
    ( Dialect.Sqlite_like,
      sqlite_t,
      "VALUES (1) INTERSECT SELECT c0 FROM t WHERE c0 > 0 ORDER BY c1 + 1",
      "rows (Int 1L)" );
  ]

let probe_outcome_in session sql =
  match Engine.Session.execute session (parse_sql sql) with
  | Ok (Engine.Session.Rows rs) -> "rows " ^ show_rows rs.Ex.rs_rows
  | Ok _ -> "not rows"
  | Error e -> "error " ^ Engine.Errors.show e

let probe_outcome dialect setup sql =
  let session = Engine.Session.create dialect in
  List.iter (exec session) setup;
  probe_outcome_in session sql

let test_probe_golden () =
  List.iter
    (fun (dialect, setup, sql, want) ->
      Alcotest.(check string)
        (Printf.sprintf "%s (%s)" sql (Dialect.name dialect))
        want
        (probe_outcome dialect setup sql))
    probe_golden

(* A probed SELECT whose WHERE, items and keys are infallible stops at
   the match: on a table whose first row matches, its FILTER event says
   so and reads fewer tuples than the same SELECT run alone.  A fallible
   WHERE runs to the end. *)
let test_probe_stops () =
  let dialect = Dialect.Sqlite_like in
  let recorder = Trace.create ~capacity:256 () in
  let session = Engine.Session.create ~recorder dialect in
  List.iter (exec session) sqlite_t;
  let filter sql =
    Trace.begin_round recorder ~seed:0 ~dialect;
    ignore (probe_outcome_in session sql);
    match
      List.filter_map
        (fun (e : Trace.entry) ->
          match e.Trace.event with
          | Trace.Event.Op { op = "FILTER"; detail; rows_in; rows_out; _ } ->
              Some (detail, rows_in, rows_out)
          | _ -> None)
        (Trace.events recorder)
    with
    | [ f ] -> f
    | _ -> Alcotest.failf "%s: expected one FILTER event" sql
  in
  let event = Alcotest.(triple string int int) in
  Alcotest.check event "alone" ("WHERE", 4, 4)
    (filter "SELECT c0 FROM t WHERE c0 > 0");
  Alcotest.check event "probed" ("WHERE (stopped)", 1, 1)
    (filter "VALUES (1) INTERSECT SELECT c0 FROM t WHERE c0 > 0");
  Alcotest.check event "two left keys" ("WHERE (stopped)", 2, 2)
    (filter "VALUES (2), (1) EXCEPT SELECT c0 FROM t WHERE c0 > 0");
  Alcotest.check event "fallible WHERE" ("WHERE", 4, 4)
    (filter "VALUES (1) INTERSECT SELECT c0 FROM t WHERE abs(c0) > 0");
  Alcotest.check event "fallible item" ("WHERE", 4, 4)
    (filter "VALUES (1) INTERSECT SELECT abs(c0) FROM t WHERE c0 > 0");
  Alcotest.check event "LIMIT" ("WHERE", 4, 4)
    (filter "VALUES (1) INTERSECT SELECT c0 FROM t WHERE c0 > 0 LIMIT 9");
  Alcotest.check event "never met" ("WHERE", 4, 4)
    (filter "VALUES (7) INTERSECT SELECT c0 FROM t WHERE c0 > 0")

(* ---------- infallible expressions ---------- *)

(* Shapes that can raise come out fallible in both contexts; a plain
   sqlite comparison conjunction is infallible. *)
let test_fallible_cases () =
  let infallible dialect sql =
    let env = t0_env (fixture dialect) in
    let e =
      match Sqlparse.Parser.parse_expr sql with
      | Ok e -> e
      | Error err -> Alcotest.fail (Sqlparse.Parser.show_error err)
    in
    let _, value_ok = Engine.Eval.compile_checked env e
    and _, pred_ok = Engine.Eval.compile_pred_checked env e in
    Alcotest.(check bool)
      (Printf.sprintf "%s (%s): both contexts agree" sql (Dialect.name dialect))
      value_ok pred_ok;
    value_ok
  in
  List.iter
    (fun (dialect, sql) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s) is fallible" sql (Dialect.name dialect))
        false (infallible dialect sql))
    [
      (Dialect.Sqlite_like, "abs(c0)");
      (Dialect.Sqlite_like, "c1 LIKE c3 ESCAPE c0");
      (Dialect.Sqlite_like, "x1 = 1");
      (Dialect.Sqlite_like, "sum(c0) > 1");
      (Dialect.Postgres_like, "c0 = 'a'");
      (Dialect.Mysql_like, "c0 + 9223372036854775807");
    ];
  Alcotest.(check bool) "sqlite comparisons are infallible" true
    (infallible Dialect.Sqlite_like "(c0 > 1) AND (c1 <> 'zz') OR c2 IS NULL")

let () =
  Alcotest.run "compile"
    [
      ( "expressions",
        [
          Alcotest.test_case "sqlite battery" `Quick (fun () ->
              test_expr_battery Dialect.Sqlite_like ());
          Alcotest.test_case "all dialects" `Quick test_dialect_exprs;
          Alcotest.test_case "injected expression bugs" `Quick test_bug_exprs;
          Alcotest.test_case "coverage parity" `Quick test_coverage_parity;
          Alcotest.test_case "first error in evaluation order" `Quick
            test_error_order;
          Alcotest.test_case "joins keep their outcomes" `Quick
            test_join_golden;
          Alcotest.test_case "boolean and value contexts agree" `Quick
            test_bool_value_agreement;
          Alcotest.test_case "fallible shapes" `Quick test_fallible_cases;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "1,000-seed equivalence" `Quick
            test_equivalence_sweep;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "aggregation" `Quick test_aggregation;
          Alcotest.test_case "views" `Quick test_views;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "round parity, bug-free" `Quick test_round_parity;
          Alcotest.test_case "round parity, injected catalog" `Slow
            test_round_parity_bug_catalog;
          Alcotest.test_case "campaign parity" `Quick test_campaign_parity;
        ] );
      ( "probe",
        [
          Alcotest.test_case "INTERSECT/EXCEPT probe equals the full pipeline"
            `Quick test_probe_equivalence;
          Alcotest.test_case "a settled probe keeps results and errors" `Quick
            test_probe_golden;
          Alcotest.test_case "a settled infallible probe stops" `Quick
            test_probe_stops;
        ] );
      ( "api",
        [
          Alcotest.test_case "compiled session end to end" `Quick
            test_compiled_session;
          Alcotest.test_case "per-row allocation" `Quick
            test_per_row_allocation;
        ] );
    ]
