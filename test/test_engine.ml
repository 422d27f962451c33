(* Engine tests: basic SQL behaviour per dialect, plus the paper listings
   transcribed as regression tests — with the corresponding injected bug
   disabled the engine is correct, with it enabled the paper's buggy
   behaviour reproduces. *)

open Sqlval
module A = Sqlast.Ast

let exec session stmt =
  match Engine.Session.execute session stmt with
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected error: %s" (Engine.Errors.show e)

let exec_err session stmt =
  match Engine.Session.execute session stmt with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> e

let rows session q =
  match Engine.Session.query session q with
  | Ok rs -> rs.Engine.Executor.rs_rows
  | Error e -> Alcotest.failf "query failed: %s" (Engine.Errors.show e)

let simple_select ?(distinct = false) ?where ?(items = [ A.Star ])
    ?(group_by = []) ?having ?(order_by = []) ?limit tables =
  A.Q_select
    {
      sel_distinct = distinct;
      sel_items = items;
      sel_from =
        List.map (fun name -> A.F_table { name; alias = None }) tables;
      sel_where = where;
      sel_group_by = group_by;
      sel_having = having;
      sel_order_by = order_by;
      sel_limit = limit;
      sel_offset = None;
    }

let create_t0 ?(ty = Datatype.Any) ?collate ?(constraints = [])
    ?(table_constraints = []) ?(without_rowid = false) ?engine ?inherits
    ?(extra_columns = []) session name =
  ignore
    (exec session
       (A.Create_table
          {
            ct_name = name;
            ct_if_not_exists = false;
            ct_columns =
              {
                col_name = "c0";
                col_type = ty;
                col_collate = collate;
                col_constraints = constraints;
              }
              :: extra_columns;
            ct_constraints = table_constraints;
            ct_without_rowid = without_rowid;
            ct_engine = engine;
            ct_inherits = inherits;
          }))

let insert_values session table values =
  ignore
    (exec session
       (A.Insert
          {
            table;
            columns = [];
            rows = List.map (fun v -> [ A.Lit v ]) values;
            action = A.On_conflict_abort;
          }))

let int_ i = Value.Int (Int64.of_int i)

(* ---------- basics ---------- *)

let test_create_insert_select () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  create_t0 s "t0";
  insert_values s "t0" [ int_ 1; int_ 2; Value.Null ];
  let r = rows s (simple_select [ "t0" ]) in
  Alcotest.(check int) "three rows" 3 (List.length r);
  let r =
    rows s
      (simple_select ~where:(A.Binary (A.Gt, A.col "c0", A.int_lit 1L)) [ "t0" ])
  in
  Alcotest.(check int) "filtered" 1 (List.length r)

let test_dialect_gates () =
  let s = Engine.Session.create Dialect.Postgres_like in
  (* postgres requires typed columns *)
  let e =
    exec_err s
      (A.Create_table
         {
           ct_name = "t0";
           ct_if_not_exists = false;
           ct_columns =
             [
               {
                 col_name = "c0";
                 col_type = Datatype.Any;
                 col_collate = None;
                 col_constraints = [];
               };
             ];
           ct_constraints = [];
           ct_without_rowid = false;
           ct_engine = None;
           ct_inherits = None;
         })
  in
  Alcotest.(check bool) "pg requires type" true
    (Engine.Errors.equal_code e.Engine.Errors.code Engine.Errors.Syntax_error);
  (* WHERE over an integer is a type error in postgres *)
  create_t0 ~ty:(Datatype.Int { width = Datatype.Regular; unsigned = false }) s "t1";
  insert_values s "t1" [ int_ 1 ];
  (match Engine.Session.query s (simple_select ~where:(A.col "c0") [ "t1" ]) with
  | Error e ->
      Alcotest.(check bool) "pg boolean where" true
        (Engine.Errors.equal_code e.Engine.Errors.code Engine.Errors.Type_error)
  | Ok _ -> Alcotest.fail "expected type error");
  (* the same is fine in sqlite *)
  let s2 = Engine.Session.create Dialect.Sqlite_like in
  create_t0 s2 "t1";
  insert_values s2 "t1" [ int_ 1 ];
  Alcotest.(check int) "sqlite implicit bool" 1
    (List.length (rows s2 (simple_select ~where:(A.col "c0") [ "t1" ])))

let test_unique_constraint () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  create_t0 ~constraints:[ A.C_unique ] s "t0";
  insert_values s "t0" [ int_ 1 ];
  let e =
    exec_err s
      (A.Insert
         {
           table = "t0";
           columns = [];
           rows = [ [ A.int_lit 1L ] ];
           action = A.On_conflict_abort;
         })
  in
  Alcotest.(check bool) "unique violation" true
    (Engine.Errors.equal_code e.Engine.Errors.code Engine.Errors.Unique_violation);
  (* NULLs never conflict *)
  insert_values s "t0" [ Value.Null; Value.Null ];
  Alcotest.(check int) "nulls ok" 3 (List.length (rows s (simple_select [ "t0" ])));
  (* OR IGNORE skips *)
  ignore
    (exec s
       (A.Insert
          {
            table = "t0";
            columns = [];
            rows = [ [ A.int_lit 1L ] ];
            action = A.On_conflict_ignore;
          }));
  Alcotest.(check int) "ignore skipped" 3
    (List.length (rows s (simple_select [ "t0" ])));
  (* OR REPLACE replaces *)
  ignore
    (exec s
       (A.Insert
          {
            table = "t0";
            columns = [];
            rows = [ [ A.int_lit 1L ] ];
            action = A.On_conflict_replace;
          }));
  Alcotest.(check int) "replace kept count" 3
    (List.length (rows s (simple_select [ "t0" ])))

let test_update_delete () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  create_t0 s "t0";
  insert_values s "t0" [ int_ 1; int_ 2; int_ 3 ];
  (match
     exec s
       (A.Update
          {
            table = "t0";
            assignments = [ ("c0", A.int_lit 9L) ];
            where = Some (A.Binary (A.Eq, A.col "c0", A.int_lit 2L));
            action = A.On_conflict_abort;
          })
   with
  | Engine.Session.Affected n -> Alcotest.(check int) "one updated" 1 n
  | _ -> Alcotest.fail "expected affected");
  (match
     exec s (A.Delete { table = "t0"; where = Some (A.Binary (A.Gt, A.col "c0", A.int_lit 2L)) })
   with
  | Engine.Session.Affected n -> Alcotest.(check int) "two deleted" 2 n
  | _ -> Alcotest.fail "expected affected");
  Alcotest.(check int) "one row left" 1
    (List.length (rows s (simple_select [ "t0" ])))

let test_index_scan_equivalence () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  create_t0 s "t0";
  insert_values s "t0" (List.map int_ [ 5; 3; 8; 3; 1 ]);
  let q = simple_select ~where:(A.Binary (A.Eq, A.col "c0", A.int_lit 3L)) [ "t0" ] in
  let before = rows s q in
  ignore
    (exec s
       (A.Create_index
          {
            ci_name = "i0";
            ci_if_not_exists = false;
            ci_table = "t0";
            ci_unique = false;
            ci_columns =
              [ { ic_expr = A.col "c0"; ic_collate = None; ic_desc = false } ];
            ci_where = None;
          }));
  let after = rows s q in
  Alcotest.(check int) "same cardinality" (List.length before) (List.length after)

let test_transactions () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  create_t0 s "t0";
  insert_values s "t0" [ int_ 1 ];
  ignore (exec s A.Begin_txn);
  insert_values s "t0" [ int_ 2 ];
  ignore (exec s A.Rollback_txn);
  Alcotest.(check int) "rolled back" 1 (List.length (rows s (simple_select [ "t0" ])));
  ignore (exec s A.Begin_txn);
  insert_values s "t0" [ int_ 3 ];
  ignore (exec s A.Commit_txn);
  Alcotest.(check int) "committed" 2 (List.length (rows s (simple_select [ "t0" ])))

let test_aggregates () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  create_t0 s "t0";
  insert_values s "t0" [ int_ 1; int_ 2; Value.Null ];
  let items =
    [
      A.Sel_expr (A.Agg (A.A_count_star, None), None);
      A.Sel_expr (A.Agg (A.A_count, Some (A.col "c0")), None);
      A.Sel_expr (A.Agg (A.A_sum, Some (A.col "c0")), None);
      A.Sel_expr (A.Agg (A.A_min, Some (A.col "c0")), None);
      A.Sel_expr (A.Agg (A.A_max, Some (A.col "c0")), None);
      A.Sel_expr (A.Agg (A.A_avg, Some (A.col "c0")), None);
    ]
  in
  match rows s (simple_select ~items [ "t0" ]) with
  | [ row ] ->
      Alcotest.(check string) "count star" "3" (Value.to_display row.(0));
      Alcotest.(check string) "count c0" "2" (Value.to_display row.(1));
      Alcotest.(check string) "sum" "3" (Value.to_display row.(2));
      Alcotest.(check string) "min" "1" (Value.to_display row.(3));
      Alcotest.(check string) "max" "2" (Value.to_display row.(4));
      Alcotest.(check string) "avg" "1.5" (Value.to_display row.(5))
  | rs -> Alcotest.failf "expected one row, got %d" (List.length rs)

let test_group_by_having () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  create_t0 s "t0";
  insert_values s "t0" [ int_ 1; int_ 1; int_ 2 ];
  let q =
    simple_select
      ~items:
        [
          A.Sel_expr (A.col "c0", None);
          A.Sel_expr (A.Agg (A.A_count_star, None), None);
        ]
      ~group_by:[ A.col "c0" ]
      ~having:(A.Binary (A.Gt, A.Agg (A.A_count_star, None), A.int_lit 1L))
      [ "t0" ]
  in
  match rows s q with
  | [ row ] ->
      Alcotest.(check string) "group key" "1" (Value.to_display row.(0));
      Alcotest.(check string) "count" "2" (Value.to_display row.(1))
  | rs -> Alcotest.failf "expected one group, got %d" (List.length rs)

let test_distinct_order_limit () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  create_t0 s "t0";
  insert_values s "t0" (List.map int_ [ 3; 1; 3; 2; 1 ]);
  let q =
    simple_select ~distinct:true
      ~order_by:[ (A.col "c0", A.Desc) ]
      ~limit:2L [ "t0" ]
  in
  let r = rows s q in
  Alcotest.(check (list string)) "distinct desc limit" [ "3"; "2" ]
    (List.map (fun row -> Value.to_display row.(0)) r)

let test_join () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  create_t0 s "t0";
  create_t0 s "t1";
  insert_values s "t0" [ int_ 1; int_ 2 ];
  insert_values s "t1" [ int_ 2; int_ 3 ];
  (* cross product *)
  let r = rows s (simple_select [ "t0"; "t1" ]) in
  Alcotest.(check int) "cross join" 4 (List.length r);
  (* inner join with ON *)
  let q =
    A.Q_select
      {
        sel_distinct = false;
        sel_items = [ A.Star ];
        sel_from =
          [
            A.F_join
              {
                kind = A.Inner;
                left = A.F_table { name = "t0"; alias = None };
                right = A.F_table { name = "t1"; alias = None };
                on =
                  Some
                    (A.Binary
                       ( A.Eq,
                         A.col ~table:"t0" "c0",
                         A.col ~table:"t1" "c0" ));
              };
          ];
        sel_where = None;
        sel_group_by = [];
        sel_having = None;
        sel_order_by = [];
        sel_limit = None;
        sel_offset = None;
      }
  in
  Alcotest.(check int) "inner join" 1 (List.length (rows s q))

let test_views () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  create_t0 s "t0";
  insert_values s "t0" [ int_ 1; int_ 2; int_ 2 ];
  ignore
    (exec s
       (A.Create_view { name = "v0"; query = simple_select ~distinct:true [ "t0" ] }));
  Alcotest.(check int) "view rows" 2 (List.length (rows s (simple_select [ "v0" ])));
  let r =
    rows s
      (simple_select ~where:(A.Binary (A.Ge, A.col "c0", A.int_lit 1L)) [ "v0" ])
  in
  Alcotest.(check int) "view with where" 2 (List.length r)

let test_compound () =
  let s = Engine.Session.create Dialect.Sqlite_like in
  create_t0 s "t0";
  insert_values s "t0" [ int_ 1; int_ 2 ];
  let values_q vs = A.Q_values (List.map (fun v -> [ A.Lit v ]) vs) in
  let inter =
    A.Q_compound (A.Intersect, values_q [ int_ 2; int_ 5 ], simple_select [ "t0" ])
  in
  Alcotest.(check int) "intersect" 1 (List.length (rows s inter));
  let union =
    A.Q_compound (A.Union, values_q [ int_ 2; int_ 5 ], simple_select [ "t0" ])
  in
  Alcotest.(check int) "union" 3 (List.length (rows s union));
  let except =
    A.Q_compound (A.Except, simple_select [ "t0" ], values_q [ int_ 2 ])
  in
  Alcotest.(check int) "except" 1 (List.length (rows s except))

let test_inheritance_scan () =
  let s = Engine.Session.create Dialect.Postgres_like in
  create_t0
    ~ty:(Datatype.Int { width = Datatype.Regular; unsigned = false })
    s "t0";
  create_t0
    ~ty:(Datatype.Int { width = Datatype.Regular; unsigned = false })
    ~inherits:"t0" s "t1";
  insert_values s "t0" [ int_ 1 ];
  insert_values s "t1" [ int_ 2 ];
  Alcotest.(check int) "parent scan includes child" 2
    (List.length (rows s (simple_select [ "t0" ])));
  Alcotest.(check int) "child scan is child only" 1
    (List.length (rows s (simple_select [ "t1" ])))

(* ---------- paper listings ---------- *)

(* Listing 1: partial index + IS NOT *)
let listing1 ~bugged () =
  let bugs =
    if bugged then Engine.Bug.singleton Engine.Bug.Sq_partial_index_implies_not_null
    else Engine.Bug.empty_set
  in
  let s = Engine.Session.create ~bugs Dialect.Sqlite_like in
  create_t0 s "t0";
  ignore
    (exec s
       (A.Create_index
          {
            ci_name = "i0";
            ci_if_not_exists = false;
            ci_table = "t0";
            ci_unique = false;
            ci_columns =
              [ { ic_expr = A.int_lit 1L; ic_collate = None; ic_desc = false } ];
            ci_where =
              Some (A.Is { negated = true; arg = A.col "c0"; rhs = A.Is_null });
          }));
  insert_values s "t0" [ int_ 0; int_ 1; int_ 2; int_ 3; Value.Null ];
  let q =
    simple_select
      ~where:
        (A.Is { negated = true; arg = A.col ~table:"t0" "c0"; rhs = A.Is_expr (A.int_lit 1L) })
      [ "t0" ]
  in
  rows s q

let test_listing1 () =
  (* correct: 0,2,3 and NULL are fetched (NULL IS NOT 1 is TRUE) *)
  Alcotest.(check int) "correct fetches NULL too" 4 (List.length (listing1 ~bugged:false ()));
  Alcotest.(check int) "bug drops the NULL pivot" 3 (List.length (listing1 ~bugged:true ()))

(* Listing 4: WITHOUT ROWID + NOCASE index *)
let listing4 ~bugged () =
  let bugs =
    if bugged then Engine.Bug.singleton Engine.Bug.Sq_nocase_unique_pk_collapse
    else Engine.Bug.empty_set
  in
  let s = Engine.Session.create ~bugs Dialect.Sqlite_like in
  create_t0 ~ty:Datatype.Text ~constraints:[ A.C_primary_key ]
    ~without_rowid:true s "t0";
  ignore
    (exec s
       (A.Create_index
          {
            ci_name = "i0";
            ci_if_not_exists = false;
            ci_table = "t0";
            ci_unique = false;
            ci_columns =
              [
                {
                  ic_expr = A.col "c0";
                  ic_collate = Some Collation.Nocase;
                  ic_desc = false;
                };
              ];
            ci_where = None;
          }));
  insert_values s "t0" [ Value.Text "A" ];
  insert_values s "t0" [ Value.Text "a" ];
  rows s (simple_select [ "t0" ])

let test_listing4 () =
  Alcotest.(check int) "correct keeps both rows" 2 (List.length (listing4 ~bugged:false ()));
  Alcotest.(check int) "bug collapses to one row" 1 (List.length (listing4 ~bugged:true ()))

(* Listing 5 class: RTRIM comparison *)
let listing5 ~bugged () =
  let bugs =
    if bugged then Engine.Bug.singleton Engine.Bug.Sq_rtrim_compare_asymmetric
    else Engine.Bug.empty_set
  in
  let s = Engine.Session.create ~bugs Dialect.Sqlite_like in
  create_t0 ~collate:Collation.Rtrim s "t0";
  insert_values s "t0" [ Value.Text " " ];
  (* under RTRIM, ' ' = '' *)
  rows s
    (simple_select ~where:(A.Binary (A.Eq, A.col "c0", A.text_lit "")) [ "t0" ])

let test_listing5 () =
  Alcotest.(check int) "correct fetches" 1 (List.length (listing5 ~bugged:false ()));
  (* buggy comparison trims left (' ' -> '') vs right ('') — both equal;
     trigger the asymmetry the other way around *)
  let bugs = Engine.Bug.singleton Engine.Bug.Sq_rtrim_compare_asymmetric in
  let s = Engine.Session.create ~bugs Dialect.Sqlite_like in
  create_t0 ~collate:Collation.Rtrim s "t0";
  insert_values s "t0" [ Value.Text "" ];
  let r =
    rows s
      (simple_select ~where:(A.Binary (A.Eq, A.col "c0", A.text_lit "  ")) [ "t0" ])
  in
  Alcotest.(check int) "bug misses row" 0 (List.length r);
  let s2 = Engine.Session.create Dialect.Sqlite_like in
  create_t0 ~collate:Collation.Rtrim s2 "t0";
  insert_values s2 "t0" [ Value.Text "" ];
  let r2 =
    rows s2
      (simple_select ~where:(A.Binary (A.Eq, A.col "c0", A.text_lit "  ")) [ "t0" ])
  in
  Alcotest.(check int) "correct fetches row" 1 (List.length r2)

(* Listing 7: LIKE on INT-affinity column *)
let listing7 ~bugged () =
  let bugs =
    if bugged then Engine.Bug.singleton Engine.Bug.Sq_like_int_affinity_opt
    else Engine.Bug.empty_set
  in
  let s = Engine.Session.create ~bugs Dialect.Sqlite_like in
  create_t0
    ~ty:(Datatype.Int { width = Datatype.Regular; unsigned = false })
    ~collate:Collation.Nocase ~constraints:[ A.C_unique ] s "t0";
  insert_values s "t0" [ Value.Text "./" ];
  rows s
    (simple_select
       ~where:
         (A.Like
            {
              negated = false;
              arg = A.col ~table:"t0" "c0";
              pattern = A.text_lit "./";
              escape = None;
            })
       [ "t0" ])

let test_listing7 () =
  Alcotest.(check int) "correct matches" 1 (List.length (listing7 ~bugged:false ()));
  Alcotest.(check int) "bug fetches no rows" 0 (List.length (listing7 ~bugged:true ()))

(* Listing 2: '' - huge integer *)
let test_listing2 () =
  let run ~bugged =
    let bugs =
      if bugged then Engine.Bug.singleton Engine.Bug.Sq_text_int_subtract_real
      else Engine.Bug.empty_set
    in
    let s = Engine.Session.create ~bugs Dialect.Sqlite_like in
    let q =
      A.Q_select
        {
          sel_distinct = false;
          sel_items =
            [
              A.Sel_expr
                ( A.Binary (A.Sub, A.text_lit "", A.int_lit 2851427734582196970L),
                  None );
            ];
          sel_from = [];
          sel_where = None;
          sel_group_by = [];
          sel_having = None;
          sel_order_by = [];
          sel_limit = None;
          sel_offset = None;
        }
    in
    match rows s q with
    | [ [| v |] ] -> v
    | _ -> Alcotest.fail "expected one value"
  in
  Alcotest.(check string) "correct exact" "-2851427734582196970"
    (Value.to_display (run ~bugged:false));
  Alcotest.(check string) "bug loses precision" "-2851427734582196736"
    (Value.to_display (run ~bugged:true))

(* Listing 13: double negation *)
let test_listing13 () =
  let run ~bugged =
    let bugs =
      if bugged then Engine.Bug.singleton Engine.Bug.My_double_negation_fold
      else Engine.Bug.empty_set
    in
    let s = Engine.Session.create ~bugs Dialect.Mysql_like in
    create_t0 ~ty:(Datatype.Int { width = Datatype.Regular; unsigned = false }) s "t0";
    insert_values s "t0" [ int_ 1 ];
    rows s
      (simple_select
         ~where:
           (A.Binary
              ( A.Neq,
                A.int_lit 123L,
                A.Unary (A.Not, A.Unary (A.Not, A.int_lit 123L)) ))
         [ "t0" ])
  in
  Alcotest.(check int) "correct fetches row" 1 (List.length (run ~bugged:false));
  Alcotest.(check int) "bug drops row" 0 (List.length (run ~bugged:true))

(* Listing 15: inheritance + GROUP BY *)
let test_listing15 () =
  let run ~bugged =
    let bugs =
      if bugged then Engine.Bug.singleton Engine.Bug.Pg_inherit_group_by_dedup
      else Engine.Bug.empty_set
    in
    let s = Engine.Session.create ~bugs Dialect.Postgres_like in
    let int_ty = Datatype.Int { width = Datatype.Regular; unsigned = false } in
    ignore
      (exec s
         (A.Create_table
            {
              ct_name = "t0";
              ct_if_not_exists = false;
              ct_columns =
                [
                  {
                    col_name = "c0";
                    col_type = int_ty;
                    col_collate = None;
                    col_constraints = [ A.C_primary_key ];
                  };
                  {
                    col_name = "c1";
                    col_type = int_ty;
                    col_collate = None;
                    col_constraints = [];
                  };
                ];
              ct_constraints = [];
              ct_without_rowid = false;
              ct_engine = None;
              ct_inherits = None;
            }));
    create_t0 ~ty:int_ty ~inherits:"t0" s "t1";
    ignore
      (exec s
         (A.Insert
            {
              table = "t0";
              columns = [ "c0"; "c1" ];
              rows = [ [ A.int_lit 0L; A.int_lit 0L ] ];
              action = A.On_conflict_abort;
            }));
    ignore
      (exec s
         (A.Insert
            {
              table = "t1";
              columns = [ "c0"; "c1" ];
              rows = [ [ A.int_lit 0L; A.int_lit 1L ] ];
              action = A.On_conflict_abort;
            }));
    rows s
      (simple_select
         ~items:[ A.Sel_expr (A.col "c0", None); A.Sel_expr (A.col "c1", None) ]
         ~group_by:[ A.col "c0"; A.col "c1" ]
         [ "t0" ])
  in
  Alcotest.(check int) "correct: two groups" 2 (List.length (run ~bugged:false));
  Alcotest.(check int) "bug merges into one" 1 (List.length (run ~bugged:true))

(* Listing 14: CHECK TABLE ... FOR UPGRADE crash *)
let test_listing14 () =
  let bugs = Engine.Bug.singleton Engine.Bug.My_check_upgrade_expr_index_crash in
  let s = Engine.Session.create ~bugs Dialect.Mysql_like in
  create_t0 ~ty:(Datatype.Int { width = Datatype.Regular; unsigned = false }) s "t0";
  ignore
    (exec s
       (A.Create_index
          {
            ci_name = "i0";
            ci_if_not_exists = false;
            ci_table = "t0";
            ci_unique = false;
            ci_columns =
              [
                {
                  ic_expr = A.Binary (A.Add, A.col "c0", A.int_lit 1L);
                  ic_collate = None;
                  ic_desc = false;
                };
              ];
            ci_where = None;
          }));
  insert_values s "t0" [ int_ 1 ];
  (match
     Engine.Session.execute s (A.Check_table { table = "t0"; for_upgrade = true })
   with
  | exception Engine.Errors.Crash _ -> ()
  | _ -> Alcotest.fail "expected a crash");
  (* without the bug no crash *)
  let s2 = Engine.Session.create Dialect.Mysql_like in
  create_t0 ~ty:(Datatype.Int { width = Datatype.Regular; unsigned = false }) s2 "t0";
  insert_values s2 "t0" [ int_ 1 ];
  ignore (exec s2 (A.Check_table { table = "t0"; for_upgrade = true }))

(* Listing 10: REAL PK + UPDATE OR REPLACE corruption *)
let test_listing10 () =
  let bugs = Engine.Bug.singleton Engine.Bug.Sq_real_pk_or_replace_corrupt in
  let s = Engine.Session.create ~bugs Dialect.Sqlite_like in
  ignore
    (exec s
       (A.Create_table
          {
            ct_name = "t1";
            ct_if_not_exists = false;
            ct_columns =
              [
                {
                  col_name = "c0";
                  col_type = Datatype.Any;
                  col_collate = None;
                  col_constraints = [];
                };
                {
                  col_name = "c1";
                  col_type = Datatype.Real;
                  col_collate = None;
                  col_constraints = [ A.C_primary_key ];
                };
              ];
            ct_constraints = [];
            ct_without_rowid = false;
            ct_engine = None;
            ct_inherits = None;
          }));
  ignore
    (exec s
       (A.Insert
          {
            table = "t1";
            columns = [ "c0"; "c1" ];
            rows =
              [
                [ A.int_lit 1L; A.int_lit 9223372036854775807L ];
                [ A.int_lit 1L; A.int_lit 0L ];
              ];
            action = A.On_conflict_abort;
          }));
  ignore
    (exec s
       (A.Update
          {
            table = "t1";
            assignments = [ ("c1", A.int_lit 1L) ];
            where = None;
            action = A.On_conflict_replace;
          }));
  let e = exec_err s (A.Select_stmt (simple_select [ "t1" ])) in
  Alcotest.(check bool) "malformed database" true
    (Engine.Errors.equal_code e.Engine.Errors.code Engine.Errors.Malformed_database)

(* engine/oracle soundness probe: mysql <=> out-of-range *)
let test_listing12 () =
  let run ~bugged =
    let bugs =
      if bugged then Engine.Bug.singleton Engine.Bug.My_null_safe_eq_out_of_range
      else Engine.Bug.empty_set
    in
    let s = Engine.Session.create ~bugs Dialect.Mysql_like in
    create_t0 ~ty:(Datatype.Int { width = Datatype.Tiny; unsigned = false }) s "t0";
    insert_values s "t0" [ Value.Null ];
    rows s
      (simple_select
         ~where:
           (A.Unary
              ( A.Not,
                A.Binary (A.Null_safe_eq, A.col ~table:"t0" "c0", A.int_lit 2035382037L) ))
         [ "t0" ])
  in
  Alcotest.(check int) "correct fetches row" 1 (List.length (run ~bugged:false));
  Alcotest.(check int) "bug drops row" 0 (List.length (run ~bugged:true))

(* ALTER TABLE ... RENAME COLUMN rewrites partial-index predicates along
   with the index definitions: later writes still maintain the index (they
   used to fail with "no such column" on the old name) and index scans see
   the rows they add *)
let test_rename_partial_index () =
  let session = Engine.Session.create Dialect.Sqlite_like in
  let sql s =
    match Sqlparse.Parser.parse_stmt s with
    | Ok st -> exec session st
    | Error e -> Alcotest.fail (Sqlparse.Parser.show_error e)
  in
  List.iter
    (fun s -> ignore (sql s))
    [
      "CREATE TABLE t1(c0 INT PRIMARY KEY, c1 TEXT)";
      "INSERT INTO t1 VALUES (1, 'a')";
      "CREATE INDEX i0 ON t1(c1) WHERE (c0 IS NOT NULL)";
      "ALTER TABLE t1 RENAME COLUMN c0 TO k";
      "INSERT INTO t1 VALUES (2, 'b')";
      "INSERT OR REPLACE INTO t1 VALUES (1, 'c')";
    ];
  let lines q =
    match sql q with
    | Engine.Session.Rows rs ->
        List.map
          (fun r -> String.concat "|" (Array.to_list (Array.map Value.to_display r)))
          rs.Engine.Executor.rs_rows
    | _ -> Alcotest.fail "expected rows"
  in
  let q = "SELECT * FROM t1 WHERE c1 = 'b' AND k IS NOT NULL" in
  Alcotest.(check (list string)) "partial-index plan"
    [ "SCAN t1 USING index-eq(i0)" ] (lines ("EXPLAIN " ^ q));
  Alcotest.(check (list string)) "inserted row found" [ "2|b" ] (lines q);
  Alcotest.(check (list string)) "primary-key range sees every row"
    [ "1|c"; "2|b" ] (lines "SELECT * FROM t1 WHERE k >= 1")

(* ALTER TABLE must not leave stale names in the table's CHECKs and
   partial-index predicates: every later write evaluates them *)
let script session stmts =
  List.map
    (fun s ->
      match Sqlparse.Parser.parse_stmt s with
      | Ok st -> Engine.Session.execute session st
      | Error e -> Alcotest.fail (Sqlparse.Parser.show_error e))
    stmts

let ok_all what results =
  List.iter
    (function
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" what (Engine.Errors.show e))
    results

let row_lines session q =
  List.map
    (fun r -> String.concat "|" (Array.to_list (Array.map Value.to_display r)))
    (rows session
       (match Sqlparse.Parser.parse_stmt q with
       | Ok (A.Select_stmt q) -> q
       | _ -> Alcotest.fail "expected a SELECT"))

let test_rename_column_check () =
  let session = Engine.Session.create Dialect.Sqlite_like in
  ok_all "setup"
    (script session
       [
         "CREATE TABLE t0(c0 INT PRIMARY KEY, c1 INT CHECK (c1 > 0))";
         "INSERT INTO t0 VALUES (1, 2)";
         "ALTER TABLE t0 RENAME COLUMN c1 TO c9";
         "INSERT INTO t0 VALUES (2, 3)";
       ]);
  (match script session [ "INSERT INTO t0 VALUES (3, -1)" ] with
  | [ Error e ] ->
      Alcotest.(check string) "the CHECK follows the rename" "Check_violation"
        (Engine.Errors.show_code e.Engine.Errors.code)
  | _ -> Alcotest.fail "the renamed CHECK must reject -1");
  Alcotest.(check (list string)) "rows" [ "1|2"; "2|3" ]
    (row_lines session "SELECT * FROM t0 ORDER BY c0")

let test_drop_column_in_predicate () =
  let session = Engine.Session.create Dialect.Sqlite_like in
  ok_all "setup"
    (script session
       [
         "CREATE TABLE t0(c0 INT PRIMARY KEY, c1 INT, c2 INT UNIQUE)";
         "INSERT INTO t0 VALUES (1, 2, 3)";
         "CREATE INDEX i0 ON t0(c2) WHERE c1 IS NOT NULL";
         "CREATE TABLE t1(c0 INT, c1 INT CHECK (c1 > 0))";
       ]);
  List.iter
    (fun (what, stmt) ->
      match script session [ stmt ] with
      | [ Error _ ] -> ()
      | _ -> Alcotest.failf "DROP COLUMN named by %s must be refused" what)
    [
      ("a partial-index predicate", "ALTER TABLE t0 DROP COLUMN c1");
      ("a CHECK", "ALTER TABLE t1 DROP COLUMN c1");
    ];
  ok_all "conflicting replace"
    (script session [ "INSERT OR REPLACE INTO t0 VALUES (1, 5, 3)" ]);
  Alcotest.(check (list string)) "full scan" [ "1|5|3" ]
    (row_lines session "SELECT * FROM t0");
  Alcotest.(check (list string)) "primary-key probe" [ "1|5|3" ]
    (row_lines session "SELECT * FROM t0 WHERE c0 = 1")

let test_rename_table_partial_index () =
  let session = Engine.Session.create Dialect.Sqlite_like in
  ok_all "setup"
    (script session
       [
         "CREATE TABLE t0(c0 INT PRIMARY KEY, c1 INT)";
         "INSERT INTO t0 VALUES (1, 2)";
         "CREATE INDEX i0 ON t0(c1) WHERE t0.c1 > 0";
         "ALTER TABLE t0 RENAME TO t1";
         "INSERT INTO t1 VALUES (2, 3)";
         "INSERT OR REPLACE INTO t1 VALUES (1, 3)";
       ]);
  Alcotest.(check (list string)) "primary-key probe" [ "1|3" ]
    (row_lines session "SELECT * FROM t1 WHERE c0 = 1");
  Alcotest.(check (list string)) "partial-index scan sees every row"
    [ "1|3"; "2|3" ]
    (row_lines session
       "SELECT * FROM (SELECT * FROM t1 WHERE c1 = 3 AND t1.c1 > 0) AS s \
        ORDER BY c0")

(* Row identity is per value: two rows whose BLOBs hold NUL bytes stay
   distinct under DISTINCT, GROUP BY and UNION even when their columns'
   bytes, run together, are the same *)
let test_distinct_nul_bytes () =
  let session = Engine.Session.create Dialect.Sqlite_like in
  ok_all "setup"
    (script session
       [
         "CREATE TABLE t0(c0 BLOB, c1 BLOB)";
         "INSERT INTO t0 VALUES (X'61', X'6200623a63')";
         "INSERT INTO t0 VALUES (X'6100623a62', X'63')";
       ]);
  List.iter
    (fun q ->
      Alcotest.(check int) q 2 (List.length (row_lines session q)))
    [
      "SELECT DISTINCT * FROM t0";
      "SELECT c0, c1 FROM t0 GROUP BY c0, c1";
      "SELECT * FROM t0 UNION SELECT * FROM t0";
    ]

(* Error text golden: [Errors.show] of one error from each kind of
   formatted-message site (no such table or column, UNIQUE, NOT NULL,
   CHECK, value/column arity, unknown INSERT column, function arity), the
   same in every dialect.  The texts were taken while messages were built
   with [Format]; they pin that the [Printf] build prints the same bytes. *)
let test_error_text () =
  let sql s =
    match Sqlparse.Parser.parse_stmt s with
    | Ok st -> st
    | Error e -> Alcotest.fail (Sqlparse.Parser.show_error e)
  in
  let expected =
    [
      "[No_such_table] no such table: t9";
      "[No_such_column] no such column: c9";
      "[Unique_violation] UNIQUE constraint failed: t0.c0";
      "[Not_null_violation] NOT NULL constraint failed: t0.c1";
      "[Check_violation] CHECK constraint failed: t0";
      "[Syntax_error] 1 values for 3 columns";
      "[No_such_column] table t0 has no column named c9";
      "[Invalid_function] wrong number of arguments to ABS";
    ]
  in
  List.iter
    (fun dialect ->
      let session = Engine.Session.create dialect in
      List.iter
        (fun s -> ignore (exec session (sql s)))
        [
          "CREATE TABLE t0(c0 INT PRIMARY KEY, c1 INT NOT NULL, c2 INT CHECK (c2 > 0))";
          "INSERT INTO t0 VALUES (1, 1, 1)";
        ];
      let shown =
        List.map
          (fun s -> Engine.Errors.show (exec_err session (sql s)))
          [
            "SELECT * FROM t9";
            "SELECT c9 FROM t0";
            "INSERT INTO t0 VALUES (1, 2, 2)";
            "INSERT INTO t0 VALUES (2, NULL, 2)";
            "INSERT INTO t0 VALUES (3, 3, -3)";
            "INSERT INTO t0 VALUES (4)";
            "INSERT INTO t0(c9) VALUES (4)";
            "SELECT ABS(1, 2)";
          ]
      in
      Alcotest.(check (list string)) (Dialect.name dialect) expected shown)
    [ Dialect.Sqlite_like; Dialect.Mysql_like; Dialect.Postgres_like ]

(* HEX() golden: the hex text of INT, REAL, TEXT and BLOB values, from
   table columns and from literals, in every dialect.  The texts were
   taken while each byte was printed with [Printf "%02X"]; they pin the
   table-driven encoder to the same bytes. *)
let test_hex_golden () =
  let expected =
    [
      "2D32313437343833363438|31652B3230|6361665C|0A1B";
      "37|2D312E35||";
      "615A|323535|2D312E35|00FF7F||NULL|322E30|"
      ^ "302E3130303030303030303030303030303031|2D302E30|"
      ^ "302E3333333333333333333333333333333331";
    ]
  in
  List.iter
    (fun dialect ->
      let session = Engine.Session.create dialect in
      ok_all "setup"
        (script session
           [
             "CREATE TABLE h(c0 INT, c1 REAL, c2 TEXT, c3 BLOB)";
             "INSERT INTO h VALUES (-2147483648, 1e20, 'caf\\', X'0A1b'), \
              (7, -1.5, '', X'')";
           ]);
      Alcotest.(check (list string))
        (Dialect.name dialect) expected
        (row_lines session "SELECT HEX(c0), HEX(c1), HEX(c2), HEX(c3) FROM h"
        @ row_lines session
            "SELECT HEX('aZ'), HEX(255), HEX(-1.5), HEX(X'00ff7f'), HEX(''), \
             HEX(NULL), HEX(2.0), HEX(0.1), HEX(-0.0), HEX(1.0/3)"))
    [ Dialect.Sqlite_like; Dialect.Mysql_like; Dialect.Postgres_like ]

let () =
  Alcotest.run "engine"
    [
      ( "basics",
        [
          Alcotest.test_case "create/insert/select" `Quick test_create_insert_select;
          Alcotest.test_case "dialect gates" `Quick test_dialect_gates;
          Alcotest.test_case "error text" `Quick test_error_text;
          Alcotest.test_case "HEX() text" `Quick test_hex_golden;
          Alcotest.test_case "unique constraints" `Quick test_unique_constraint;
          Alcotest.test_case "update/delete" `Quick test_update_delete;
          Alcotest.test_case "index scan equivalence" `Quick test_index_scan_equivalence;
          Alcotest.test_case "rename column keeps partial index" `Quick
            test_rename_partial_index;
          Alcotest.test_case "rename column rewrites CHECK" `Quick
            test_rename_column_check;
          Alcotest.test_case "drop column named by a predicate" `Quick
            test_drop_column_in_predicate;
          Alcotest.test_case "rename table keeps partial index" `Quick
            test_rename_table_partial_index;
          Alcotest.test_case "transactions" `Quick test_transactions;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "group by/having" `Quick test_group_by_having;
          Alcotest.test_case "distinct/order/limit" `Quick test_distinct_order_limit;
          Alcotest.test_case "distinct rows with NUL bytes" `Quick
            test_distinct_nul_bytes;
          Alcotest.test_case "joins" `Quick test_join;
          Alcotest.test_case "views" `Quick test_views;
          Alcotest.test_case "compound queries" `Quick test_compound;
          Alcotest.test_case "inheritance scan" `Quick test_inheritance_scan;
        ] );
      ( "paper listings",
        [
          Alcotest.test_case "listing 1 (partial index IS NOT)" `Quick test_listing1;
          Alcotest.test_case "listing 2 (text - int precision)" `Quick test_listing2;
          Alcotest.test_case "listing 4 (nocase without rowid)" `Quick test_listing4;
          Alcotest.test_case "listing 5 (rtrim compare)" `Quick test_listing5;
          Alcotest.test_case "listing 7 (like int affinity)" `Quick test_listing7;
          Alcotest.test_case "listing 10 (real pk corruption)" `Quick test_listing10;
          Alcotest.test_case "listing 12 (null-safe eq range)" `Quick test_listing12;
          Alcotest.test_case "listing 13 (double negation)" `Quick test_listing13;
          Alcotest.test_case "listing 14 (check table crash)" `Quick test_listing14;
          Alcotest.test_case "listing 15 (inheritance group by)" `Quick test_listing15;
        ] );
    ]
