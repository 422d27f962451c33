(* Cross-cutting property tests: compound-query algebra, ORDER BY/DISTINCT
   postconditions, literal round-trips through the parser, session
   determinism, and reducer structure. *)

open Sqlval
module A = Sqlast.Ast

let value_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Value.Null);
        (4, map (fun i -> Value.Int (Int64.of_int i)) (int_range (-1000) 1000));
        ( 1,
          map
            (fun i -> Value.Int i)
            (oneofl [ 0L; 1L; -1L; Int64.max_int; 2851427734582196970L ]) );
        (2, map (fun f -> Value.Real f) (float_bound_inclusive 100.0));
        ( 3,
          map
            (fun s -> Value.Text s)
            (string_size ~gen:(char_range ' ' 'z') (0 -- 6)) );
        ( 1,
          map
            (fun s -> Value.Blob s)
            (string_size ~gen:(char_range 'a' 'f') (0 -- 4)) );
      ])

let rows_gen = QCheck.Gen.(list_size (0 -- 8) (list_repeat 2 value_gen))

let rows_arb =
  QCheck.make
    ~print:(fun rows ->
      String.concat ";"
        (List.map
           (fun r -> String.concat "," (List.map Value.show r))
           rows))
    rows_gen

let session () = Engine.Session.create Dialect.Sqlite_like

let values_query rows : A.query =
  A.Q_values (List.map (fun r -> List.map (fun v -> A.Lit v) r) rows)

let run_rows s q =
  match Engine.Session.query s q with
  | Ok rs -> rs.Engine.Executor.rs_rows
  | Error e -> QCheck.Test.fail_reportf "query failed: %s" (Engine.Errors.show e)

let canonical rows =
  List.sort compare
    (List.map
       (fun r -> Array.to_list (Array.map Value.to_display r))
       rows)

(* ---------- compound algebra ---------- *)

let prop_intersect_self =
  QCheck.Test.make ~name:"A INTERSECT A = dedup A" ~count:300 rows_arb
    (fun rows ->
      QCheck.assume (rows <> []);
      let s = session () in
      let a = values_query rows in
      let inter = run_rows s (A.Q_compound (A.Intersect, a, a)) in
      let union_dedup = run_rows s (A.Q_compound (A.Union, a, a)) in
      canonical inter = canonical union_dedup)

let prop_except_self =
  QCheck.Test.make ~name:"A EXCEPT A = empty" ~count:300 rows_arb (fun rows ->
      QCheck.assume (rows <> []);
      let s = session () in
      let a = values_query rows in
      run_rows s (A.Q_compound (A.Except, a, a)) = [])

let prop_union_all_cardinality =
  QCheck.Test.make ~name:"|A UNION ALL B| = |A| + |B|" ~count:300
    (QCheck.pair rows_arb rows_arb) (fun (ra, rb) ->
      QCheck.assume (ra <> [] && rb <> []);
      let s = session () in
      let u =
        run_rows s (A.Q_compound (A.Union_all, values_query ra, values_query rb))
      in
      List.length u = List.length ra + List.length rb)

let prop_union_commutative_cardinality =
  QCheck.Test.make ~name:"|A UNION B| = |B UNION A|" ~count:300
    (QCheck.pair rows_arb rows_arb) (fun (ra, rb) ->
      QCheck.assume (ra <> [] && rb <> []);
      let s = session () in
      let ab =
        run_rows s (A.Q_compound (A.Union, values_query ra, values_query rb))
      in
      let ba =
        run_rows s (A.Q_compound (A.Union, values_query rb, values_query ra))
      in
      canonical ab = canonical ba)

(* ---------- ORDER BY / DISTINCT over real tables ---------- *)

let table_of_rows s rows =
  (match
     Engine.Session.execute s
       (A.Create_table
          {
            A.ct_name = "t0";
            ct_if_not_exists = false;
            ct_columns =
              [
                { A.col_name = "c0"; col_type = Datatype.Any; col_collate = None; col_constraints = [] };
                { A.col_name = "c1"; col_type = Datatype.Any; col_collate = None; col_constraints = [] };
              ];
            ct_constraints = [];
            ct_without_rowid = false;
            ct_engine = None;
            ct_inherits = None;
          })
   with
  | Ok _ -> ()
  | Error e -> QCheck.Test.fail_reportf "create: %s" (Engine.Errors.show e));
  if rows <> [] then
    match
      Engine.Session.execute s
        (A.Insert
           {
             table = "t0";
             columns = [];
             rows = List.map (fun r -> List.map (fun v -> A.Lit v) r) rows;
             action = A.On_conflict_abort;
           })
    with
    | Ok _ -> ()
    | Error e -> QCheck.Test.fail_reportf "insert: %s" (Engine.Errors.show e)

let select ?(distinct = false) ?(order = []) () =
  A.Q_select
    {
      A.sel_distinct = distinct;
      sel_items = [ A.Star ];
      sel_from = [ A.F_table { name = "t0"; alias = None } ];
      sel_where = None;
      sel_group_by = [];
      sel_having = None;
      sel_order_by = order;
      sel_limit = None;
      sel_offset = None;
    }

let prop_order_by_sorted =
  QCheck.Test.make ~name:"ORDER BY yields sorted output" ~count:300 rows_arb
    (fun rows ->
      let s = session () in
      table_of_rows s rows;
      let out = run_rows s (select ~order:[ (A.col "c0", A.Asc) ] ()) in
      let keys = List.map (fun r -> r.(0)) out in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
            Value.compare_total a b <= 0 && sorted rest
        | _ -> true
      in
      List.length out = List.length rows && sorted keys)

(* DISTINCT over [rows]; no two output rows may be equal under
   [Executor.Row_eq], the identity DISTINCT itself uses (display strings
   are not: [0] and ['0'] print alike) *)
let distinct_rows rows =
  let s = session () in
  table_of_rows s rows;
  run_rows s (select ~distinct:true ())

let rec no_duplicate_rows = function
  | [] -> true
  | r :: rest ->
      (not (List.exists (Engine.Executor.Row_eq.equal r) rest))
      && no_duplicate_rows rest

let prop_distinct_no_duplicates =
  QCheck.Test.make ~name:"DISTINCT output has no duplicates" ~count:300
    rows_arb (fun rows -> no_duplicate_rows (distinct_rows rows))

let test_distinct_int_text () =
  let out =
    distinct_rows
      [
        [ Value.Int Int64.max_int; Value.Int 0L ];
        [ Value.Int Int64.max_int; Value.Text "0" ];
      ]
  in
  Alcotest.(check int) "0 and '0' are two rows" 2 (List.length out);
  Alcotest.(check bool) "no duplicates" true (no_duplicate_rows out)

let prop_distinct_idempotent =
  QCheck.Test.make ~name:"DISTINCT is idempotent" ~count:200 rows_arb
    (fun rows ->
      let s = session () in
      table_of_rows s rows;
      let once = canonical (run_rows s (select ~distinct:true ())) in
      let twice = canonical (run_rows s (select ~distinct:true ())) in
      once = twice)

(* ---------- literal round-trip through printer + parser ---------- *)

let prop_literal_roundtrip =
  QCheck.Test.make ~name:"literal -> SQL text -> parser -> same value"
    ~count:800
    (QCheck.make ~print:Value.show value_gen)
    (fun v ->
      let sql = Value.to_sql_literal v in
      match Sqlparse.Parser.parse_expr sql with
      | Ok (A.Lit v') -> Value.equal v v'
      | Ok other ->
          QCheck.Test.fail_reportf "parsed non-literal %s from %s"
            (A.show_expr other) sql
      | Error e ->
          QCheck.Test.fail_reportf "unparseable literal %s: %s" sql
            (Sqlparse.Parser.show_error e))

(* ---------- session determinism ---------- *)

let prop_runner_deterministic =
  QCheck.Test.make ~name:"runner is a deterministic function of the seed"
    ~count:10 QCheck.small_nat (fun seed ->
      let go () =
        let config =
          Pqs.Runner.Config.make ~seed:(seed + 1) Dialect.Sqlite_like
        in
        let stats = Pqs.Runner.run ~max_queries:60 config in
        ( stats.Pqs.Stats.queries,
          stats.Pqs.Stats.statements,
          stats.Pqs.Stats.pivots,
          List.length stats.Pqs.Stats.reports )
      in
      go () = go ())

(* ---------- reducer structure ---------- *)

let prop_reducer_subsequence =
  QCheck.Test.make ~name:"reduced script is a subsequence of the original"
    ~count:100
    (QCheck.make ~print:(fun n -> string_of_int n) QCheck.Gen.(1 -- 8))
    (fun n ->
      let stmts =
        List.init n (fun i ->
            A.Insert
              {
                table = "t0";
                columns = [];
                rows = [ [ A.int_lit (Int64.of_int i) ] ];
                action = A.On_conflict_abort;
              })
        @ [ A.Select_stmt (A.Q_values [ [ A.int_lit 1L ] ]) ]
      in
      (* arbitrary check: statements 0 and n-1 are needed *)
      let needed =
        List.filteri (fun i _ -> i = 0 || i = n - 1) stmts
      in
      let check candidate =
        List.for_all
          (fun s -> List.exists (A.equal_stmt s) candidate)
          needed
      in
      let reduced = Pqs.Reducer.reduce check stmts in
      (* subsequence test *)
      let rec subseq xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _, [] -> false
        | x :: xs', y :: ys' ->
            if A.equal_stmt x y then subseq xs' ys' else subseq xs ys'
      in
      check reduced && subseq reduced stmts)

(* ---------- print/parse/execute agreement ---------- *)

(* Execute a random statement stream twice: directly, and through the
   printer+parser.  Every statement must succeed/fail identically and the
   final table contents must match — the printer and parser are
   semantically transparent. *)
let prop_print_parse_execute dialect =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "execute = execute . parse . print (%s)"
         (Dialect.name dialect))
    ~count:60 QCheck.small_nat
    (fun seed ->
      let rng = Pqs.Rng.make ~seed:(seed + 77) in
      let direct = Engine.Session.create dialect in
      let reparsed = Engine.Session.create dialect in
      let cfg = Pqs.Gen_db.Config.(make dialect |> with_rng rng) in
      let feed stmt =
        let r1 =
          match Engine.Session.execute direct stmt with
          | Ok _ -> "ok"
          | Error e -> Engine.Errors.show_code e.Engine.Errors.code
          | exception Engine.Errors.Crash _ -> "crash"
        in
        let sql = Sqlast.Sql_printer.stmt dialect stmt in
        let r2 =
          match Sqlparse.Parser.parse_stmt sql with
          | Error e ->
              QCheck.Test.fail_reportf "unparseable %s: %s" sql
                (Sqlparse.Parser.show_error e)
          | Ok stmt' -> (
              match Engine.Session.execute reparsed stmt' with
              | Ok _ -> "ok"
              | Error e -> Engine.Errors.show_code e.Engine.Errors.code
              | exception Engine.Errors.Crash _ -> "crash")
        in
        if r1 <> r2 then
          QCheck.Test.fail_reportf "outcome diverged on %s: %s vs %s" sql r1 r2
      in
      List.iter feed (Pqs.Gen_db.initial_statements cfg);
      List.iter feed (Pqs.Gen_db.fill_statements cfg direct);
      for _ = 1 to 10 do
        List.iter feed (Pqs.Gen_db.random_statements cfg direct)
      done;
      (* final state comparison *)
      let dump session =
        Pqs.Schema_info.tables_of_session session
        |> List.map (fun (ti : Pqs.Schema_info.table_info) ->
               ( ti.Pqs.Schema_info.ti_name,
                 Pqs.Schema_info.rows_of_table session
                   ti.Pqs.Schema_info.ti_name
                 |> List.map (fun row ->
                        Array.to_list (Array.map Value.show row)) ))
      in
      if dump direct <> dump reparsed then
        QCheck.Test.fail_reportf "final states diverged (seed %d)" seed
      else true)

(* ---------- parser robustness ---------- *)

(* the parser is total: any byte soup yields Ok or Error, never an
   exception *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser never raises" ~count:2000
    (QCheck.make
       ~print:(fun s -> String.escaped s)
       QCheck.Gen.(string_size ~gen:(char_range ' ' '~') (0 -- 60)))
    (fun junk ->
      (match Sqlparse.Parser.parse_script junk with
      | Ok _ | Error _ -> ());
      (match Sqlparse.Parser.parse_expr junk with Ok _ | Error _ -> ());
      true)

(* fragments that look like SQL exercise deeper parser paths *)
let prop_parser_total_sqlish =
  let words =
    [| "SELECT"; "FROM"; "WHERE"; "t0"; "c0"; "("; ")"; ","; "'a'"; "1";
       "CREATE"; "TABLE"; "INDEX"; "NOT"; "NULL"; "IS"; "IN"; "LIKE"; "AND";
       "OR"; "BETWEEN"; "CASE"; "WHEN"; "END"; "*"; "="; "<=>"; ";"; "--x";
       "X'ff'"; "CAST"; "AS"; "INT"; "VALUES"; "INSERT"; "INTO" |]
  in
  QCheck.Test.make ~name:"parser never raises (sql-ish soup)" ~count:2000
    (QCheck.make
       ~print:(fun ws -> String.concat " " ws)
       QCheck.Gen.(
         list_size (0 -- 15) (map (fun i -> words.(i mod Array.length words)) small_nat)))
    (fun ws ->
      let text = String.concat " " ws in
      (match Sqlparse.Parser.parse_script text with Ok _ | Error _ -> ());
      true)

(* ---------- row identity ---------- *)

(* The printed row key the engine once used for DISTINCT, compounds and
   GROUP BY: the reference the typed identity must agree with on rows
   without NUL bytes (with them, this encoding merged distinct rows). *)
let printed_key (row : Value.t array) =
  String.concat "\x00"
    (Array.to_list
       (Array.map
          (fun v ->
            match v with
            | Value.Text s -> "t:" ^ s
            | Value.Int i -> "i:" ^ Int64.to_string i
            | Value.Real r ->
                if Numeric.real_is_exact_int r then
                  "i:" ^ Int64.to_string (Int64.of_float r)
                else "r:" ^ string_of_float r
            | Value.Blob s -> "b:" ^ s
            | Value.Bool b -> "i:" ^ if b then "1" else "0"
            | Value.Null -> "n")
          row))

(* a small pool with many cross-type and 12-digit collisions, plus
   random values *)
let identity_value_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            [
              Value.Null; Value.Int 0L; Value.Int 1L; Value.Int (-1L);
              Value.Real 0.; Value.Real (-0.); Value.Real 1.; Value.Real (-1.);
              Value.Bool true; Value.Bool false; Value.Real 0.3;
              Value.Real (0.1 +. 0.2); Value.Real 0.30000000000001;
              Value.Real 0.3001; Value.Real 1e20; Value.Real 9007199254740992.;
              Value.Int 9007199254740992L; Value.Real Float.nan;
              Value.Real Float.infinity; Value.Real Float.neg_infinity;
              Value.Text "a"; Value.Blob "a"; Value.Text "1"; Value.Text "";
              Value.Blob ""; Value.Text "i:1";
            ] );
        (2, map (fun i -> Value.Int (Int64.of_int i)) (int_range (-3) 3));
        (2, map (fun i -> Value.Real (float_of_int i)) (int_range (-3) 3));
        (1, map (fun f -> Value.Real f) (float_bound_inclusive 4.0));
        ( 1,
          map
            (fun s -> Value.Text s)
            (string_size ~gen:(char_range ' ' 'z') (0 -- 3)) );
        ( 1,
          map
            (fun s -> Value.Blob s)
            (string_size ~gen:(char_range ' ' 'z') (0 -- 3)) );
      ])

let identity_pair_arb =
  let row = QCheck.Gen.(map Array.of_list (list_size (0 -- 3) identity_value_gen)) in
  QCheck.make
    ~print:(fun (a, b) ->
      let show r = String.concat "," (List.map Value.show (Array.to_list r)) in
      "[" ^ show a ^ "] vs [" ^ show b ^ "]")
    QCheck.Gen.(pair row row)

let prop_row_identity_matches_printed_key =
  QCheck.Test.make ~name:"typed row identity = printed row key" ~count:5000
    identity_pair_arb (fun (a, b) ->
      let module R = Engine.Executor.Row_eq in
      let same = R.equal a b in
      same = String.equal (printed_key a) (printed_key b)
      && R.equal a a
      && ((not same) || R.hash a = R.hash b))

let test_row_identity_cases () =
  let module R = Engine.Executor.Row_eq in
  let check msg expected a b =
    Alcotest.(check bool) msg expected (R.equal [| a |] [| b |]);
    Alcotest.(check bool) (msg ^ " (printed key)") expected
      (printed_key [| a |] = printed_key [| b |]);
    if expected then
      Alcotest.(check int) (msg ^ " (hash)") (R.hash [| a |]) (R.hash [| b |])
  in
  check "1 = 1.0" true (Value.Int 1L) (Value.Real 1.0);
  check "1 = TRUE" true (Value.Int 1L) (Value.Bool true);
  check "1.0 = TRUE" true (Value.Real 1.0) (Value.Bool true);
  check "0.1+0.2 = 0.3 to 12 digits" true (Value.Real (0.1 +. 0.2))
    (Value.Real 0.3);
  check "'a' <> X'61'" false (Value.Text "a") (Value.Blob "a");
  check "NULL = NULL" true Value.Null Value.Null;
  check "0.3 <> 0.3001" false (Value.Real 0.3) (Value.Real 0.3001);
  Alcotest.(check bool) "widths differ" false
    (R.equal [| Value.Int 1L |] [| Value.Int 1L; Value.Null |])

(* ---------- the keyed row table against a naive reference ---------- *)

(* The row-keyed operators and the plan-diff multiset comparison, each
   against an O(n^2) reference that compares rows with [Row_eq.equal]
   only: no hash, so a hash that splits equal rows or a table that loses
   an entry or reorders its keys shows. *)
let row_eq = Engine.Executor.Row_eq.equal

let naive_dedup rows =
  List.rev
    (List.fold_left
       (fun acc r -> if List.exists (row_eq r) acc then acc else r :: acc)
       [] rows)

let naive_count rows r = List.length (List.filter (row_eq r) rows)

let naive_same_multiset a b =
  List.compare_lengths a b = 0
  && List.for_all (fun r -> naive_count a r = naive_count b r) (a @ b)

let show_row r = String.concat "," (List.map Value.show (Array.to_list r))
let show_rows rows = String.concat "; " (List.map show_row rows)

(* 1-40 rows of one width (1-3) from the identity generator (enough
   distinct rows to grow a table past its initial size), and a second
   list: a reordering of the first, the reordering with one row replaced
   or dropped, or an independent list *)
let keyed_arb =
  let open QCheck.Gen in
  let gen =
    int_range 1 3 >>= fun width ->
    let row = map Array.of_list (list_repeat width identity_value_gen) in
    list_size (1 -- 40) row >>= fun a ->
    shuffle_l a >>= fun shuffled ->
    row >>= fun other ->
    int_range 0 (List.length a - 1) >>= fun k ->
    list_size (0 -- 40) row >>= fun indep ->
    oneofl
      [
        shuffled;
        List.mapi (fun i r -> if i = k then other else r) shuffled;
        List.filteri (fun i _ -> i <> k) shuffled;
        indep;
      ]
    >|= fun b -> (a, b)
  in
  QCheck.make
    ~print:(fun (a, b) -> "[" ^ show_rows a ^ "] vs [" ^ show_rows b ^ "]")
    gen

let prop_multiset_matches_naive =
  QCheck.Test.make ~name:"plan-diff multiset = naive count" ~count:2000
    keyed_arb (fun (a, b) ->
      let c = Pqs.Plan_diff.counts a in
      let expected = naive_same_multiset a b in
      (* a check leaves the counts as they were: the same answer twice,
         and the default's own rows reversed still match afterwards *)
      Pqs.Plan_diff.matches c b = expected
      && Pqs.Plan_diff.matches c b = expected
      && Pqs.Plan_diff.matches c (List.rev a))

(* [SELECT DISTINCT * FROM (VALUES a)], [VALUES a UNION VALUES b] and
   [SELECT cols, COUNT(star) FROM (VALUES a) GROUP BY cols] on the
   engine: first occurrences in first-occurrence order, and each group
   as its first row and its size *)
let from_values rows : A.from_item =
  A.F_sub { sub = values_query (List.map Array.to_list rows); alias = "v" }

let columns rows =
  List.init (Array.length (List.hd rows)) (fun i ->
      A.col (Printf.sprintf "column%d" (i + 1)))

let prop_keyed_operators_match_naive =
  QCheck.Test.make ~name:"DISTINCT, UNION, GROUP BY = naive dedup"
    ~count:1000 keyed_arb (fun (a, b) ->
      let s = session () in
      let select ~distinct ~items ~group_by =
        A.Q_select
          {
            A.sel_distinct = distinct;
            sel_items = items;
            sel_from = [ from_values a ];
            sel_where = None;
            sel_group_by = group_by;
            sel_having = None;
            sel_order_by = [];
            sel_limit = None;
            sel_offset = None;
          }
      in
      let check what expected got =
        show_rows expected = show_rows got
        || QCheck.Test.fail_reportf "%s: expected [%s], got [%s]" what
             (show_rows expected) (show_rows got)
      in
      let distinct =
        run_rows s (select ~distinct:true ~items:[ A.Star ] ~group_by:[])
      in
      let groups =
        let cols = columns a in
        run_rows s
          (select ~distinct:false
             ~items:
               (List.map (fun c -> A.Sel_expr (c, None)) cols
               @ [ A.Sel_expr (A.Agg (A.A_count_star, None), None) ])
             ~group_by:cols)
      in
      let naive_groups =
        List.map
          (fun r ->
            Array.append r [| Value.Int (Int64.of_int (naive_count a r)) |])
          (naive_dedup a)
      in
      check "DISTINCT" (naive_dedup a) distinct
      && check "GROUP BY" naive_groups groups
      &&
      if b = [] || Array.length (List.hd b) <> Array.length (List.hd a) then
        true
      else
        check "UNION" (naive_dedup (a @ b))
          (run_rows s
             (A.Q_compound
                ( A.Union,
                  values_query (List.map Array.to_list a),
                  values_query (List.map Array.to_list b) ))))

(* ---------- REAL text against Printf ---------- *)

(* [Value.float_to_text] makes no Printf call; this is the Printf
   rendering it must print byte for byte *)
let printf_float_text f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_nan f then "(0.0/0.0)"
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else Printf.sprintf "%.17g" f

(* random bit patterns (every class: denormals, NaNs, huge and tiny),
   integral values on both sides of 1e15, and dyadic fractions *)
let float_text_arb =
  QCheck.make ~print:(fun f -> Printf.sprintf "%h" f)
    QCheck.Gen.(
      frequency
        [
          (3, map Int64.float_of_bits ui64);
          ( 2,
            map
              (fun (i, e) -> Float.ldexp (Int64.to_float i) e)
              (pair int64 (int_range (-60) 0)) );
          ( 2,
            map
              (fun i -> float_of_int i)
              (oneof
                 [
                   int_range (-1000) 1000;
                   int_range (-999_999_999_999_999) 999_999_999_999_999;
                   int_range (-(1 lsl 60)) (1 lsl 60);
                 ]) );
          ( 2,
            map
              (fun (k, j) -> float_of_int k /. Float.ldexp 1.0 j)
              (pair (int_range (-100_000) 100_000) (int_range 1 30)) );
        ])

let prop_float_text_printf =
  QCheck.Test.make ~name:"REAL text = Printf reference" ~count:20000
    float_text_arb (fun f -> Value.float_to_text f = printf_float_text f)

let test_float_text_edges () =
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "%h" f) (printf_float_text f) (Value.float_to_text f))
    [
      0.0; -0.0; 1.0; -1.0; 0.5; -0.5; 999999999999999.0;
      -999999999999999.0; 1e15; -1e15; 1e16; 5e-324; 2.2250738585072014e-308;
      Float.max_float; -.Float.max_float; Float.min_float; Float.nan;
      -.Float.nan; Float.infinity; Float.neg_infinity; 0.1; 1.0 /. 3.0;
      9007199254740993.0; 4611686018427387904.0;
    ]

let () =
  Alcotest.run "properties"
    [
      ( "compound algebra",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_intersect_self;
            prop_except_self;
            prop_union_all_cardinality;
            prop_union_commutative_cardinality;
          ] );
      ( "select postconditions",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_order_by_sorted;
            prop_distinct_no_duplicates;
            prop_distinct_idempotent;
          ]
        @ [
            Alcotest.test_case "DISTINCT keeps 0 and '0' apart" `Quick
              test_distinct_int_text;
          ] );
      ( "row identity",
        Alcotest.test_case "fixed cases" `Quick test_row_identity_cases
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_row_identity_matches_printed_key;
               prop_multiset_matches_naive;
               prop_keyed_operators_match_naive;
             ] );
      ( "REAL text",
        Alcotest.test_case "edge cases" `Quick test_float_text_edges
        :: List.map QCheck_alcotest.to_alcotest [ prop_float_text_printf ] );
      ( "round trips",
        List.map QCheck_alcotest.to_alcotest [ prop_literal_roundtrip ] );
      ( "determinism",
        List.map QCheck_alcotest.to_alcotest [ prop_runner_deterministic ] );
      ( "reducer",
        List.map QCheck_alcotest.to_alcotest [ prop_reducer_subsequence ] );
      ( "parser robustness",
        List.map QCheck_alcotest.to_alcotest
          [ prop_parser_total; prop_parser_total_sqlish ] );
      ( "print/parse/execute",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_print_parse_execute Dialect.Sqlite_like;
            prop_print_parse_execute Dialect.Mysql_like;
            prop_print_parse_execute Dialect.Postgres_like;
          ] );
    ]
