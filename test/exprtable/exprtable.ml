(* Bounded-exhaustive expression table: the PQS oracle interpreter
   ([Pqs.Interp]) against the engine's WHERE, without indexes.

   Per dialect, one table [t0(k, a, b)] per ordered pair of column types
   holds every pair of the 18 probe values below (the rows the engine
   accepts; postgres rejects mistyped ones).  For each of ~3,200
   expressions -- every binary operator over column/column and
   column/literal, unary operators and their pairs, IS forms, BETWEEN, IN,
   LIKE/GLOB with fixed patterns, functions, casts, CASE and COLLATE, each
   bare, under NOT and under IS NULL -- it runs [SELECT k FROM t0 WHERE e]
   and compares each row's membership with the interpreter's verdict on
   that row as the pivot.  A disagreement is a row the interpreter judges
   TRUE that the engine leaves out, a row it judges FALSE or NULL that
   the engine returns, or an engine error on a query the interpreter
   evaluates on every row.  Rows the interpreter refuses are not
   compared.  Each expression the engine compiles as infallible
   ([Eval.compile_pred_checked]) is also evaluated on every row, and
   must not raise on any.

   Run: dune exec test/exprtable/exprtable.exe -- [-d DIALECT] [-b BUG]...
   Prints one summary line per dialect and the first disagreements; exits
   1 iff there is a disagreement or an infallible expression raised.  With an injected expression bug on
   (e.g. -b My_double_negation_fold -d mysql) it must find one. *)

open Sqlval
module A = Sqlast.Ast

let probe_values =
  Value.
    [
      Null;
      Int 0L;
      Int 1L;
      Int (-1L);
      Int Int64.max_int;
      Int Int64.min_int;
      Real 1.5;
      Real 0.0;
      Real (-0.5);
      Text "";
      Text "a";
      Text "A";
      Text "a ";
      Text "1";
      Text "10";
      Text "1.5";
      Blob "1";
      Bool true;
    ]

let int_ = Datatype.Int { width = Datatype.Regular; unsigned = false }

(* declared type and collation of [a] and [b] *)
let column_types = function
  | Dialect.Sqlite_like ->
      [
        (Datatype.Any, None);
        (int_, None);
        (Datatype.Real, None);
        (Datatype.Text, None);
        (Datatype.Blob, None);
        (Datatype.Text, Some Collation.Nocase);
        (Datatype.Text, Some Collation.Rtrim);
      ]
  | Dialect.Mysql_like ->
      [
        (int_, None);
        (Datatype.Int { width = Datatype.Regular; unsigned = true }, None);
        (Datatype.Real, None);
        (Datatype.Text, None);
        (Datatype.Blob, None);
      ]
  | Dialect.Postgres_like ->
      [
        (Datatype.Int { width = Datatype.Big; unsigned = false }, None);
        (Datatype.Real, None);
        (Datatype.Text, None);
        (Datatype.Bool, None);
        (Datatype.Blob, None);
      ]

let col c = A.Col { table = None; column = c }
let a = col "a"
let b = col "b"
let lits = List.map (fun v -> A.Lit v) probe_values
let text s = A.Lit (Value.Text s)
let int i = A.Lit (Value.Int (Int64.of_int i))

let binops =
  A.
    [
      Eq; Neq; Lt; Le; Gt; Ge; Null_safe_eq; And; Or; Add; Sub; Mul; Div; Rem;
      Concat; Bit_and; Bit_or; Shift_left; Shift_right;
    ]

let unops = A.[ Not; Neg; Pos; Bit_not ]

(* the expressions before decoration; [x] is one column, [y] the other *)
let base_for x y =
  let binary =
    List.concat_map
      (fun op ->
        A.Binary (op, x, y) :: List.map (fun l -> A.Binary (op, x, l)) lits)
      binops
  in
  let unary =
    List.concat_map
      (fun u ->
        A.Unary (u, x)
        :: List.concat_map
             (fun u2 ->
               let uu = A.Unary (u, A.Unary (u2, x)) in
               [ uu; A.Binary (A.Eq, uu, y) ])
             unops)
      unops
  in
  let is_forms =
    List.concat_map
      (fun negated ->
        List.map
          (fun rhs -> A.Is { negated; arg = x; rhs })
          A.[ Is_null; Is_true; Is_false; Is_expr y; Is_distinct_from y ])
      [ false; true ]
  in
  let between =
    List.concat_map
      (fun negated ->
        List.map
          (fun (lo, hi) -> A.Between { negated; arg = x; lo; hi })
          [
            (y, int 10);
            (int 0, y);
            (int 0, int 1);
            (int (-1), A.Lit (Value.Real 1.5));
            (text "a", text "b");
            (text "", text "a ");
            (A.Lit Value.Null, int 1);
            (text "1", text "10");
          ])
      [ false; true ]
  in
  let in_list =
    List.concat_map
      (fun negated ->
        List.map
          (fun list -> A.In_list { negated; arg = x; list })
          [
            [ y ];
            [ int 0; int 1 ];
            [ text "a"; text "1" ];
            [ A.Lit (Value.Real 1.5); A.Lit Value.Null ];
            [ y; text "A"; int (-1) ];
            [ A.Lit (Value.Blob "1"); A.Lit (Value.Bool true) ];
          ])
      [ false; true ]
  in
  let patterns =
    List.map text [ "a"; "A"; "a%"; "%"; "_"; "1%"; "a_"; ""; "*"; "[a]*"; "?" ]
  in
  let like_glob =
    List.concat_map
      (fun negated ->
        A.Like { negated; arg = x; pattern = y; escape = None }
        :: A.Glob { negated; arg = x; pattern = y }
        :: List.concat_map
             (fun pattern ->
               [
                 A.Like { negated; arg = x; pattern; escape = None };
                 A.Glob { negated; arg = x; pattern };
               ])
             patterns)
      [ false; true ]
  in
  let funcs =
    List.concat_map
      (fun f -> [ A.Func (f, [ x ]); A.Func (f, [ x; y ]) ])
      A.
        [
          F_abs; F_length; F_lower; F_upper; F_coalesce; F_ifnull; F_nullif;
          F_typeof; F_trim; F_ltrim; F_rtrim; F_hex; F_round; F_sign; F_least;
          F_greatest; F_quote; F_instr;
        ]
    @ A.
        [
          Func (F_substr, [ x; int 2 ]);
          Func (F_substr, [ x; int (-1); int 1 ]);
          Func (F_replace, [ x; text "a"; y ]);
          Func (F_coalesce, [ x; y; int 0 ]);
        ]
  in
  let casts =
    List.map
      (fun ty -> A.Cast (ty, x))
      Datatype.[ Any; int_; Real; Text; Blob; Bool ]
  in
  let case =
    A.
      [
        Case { operand = None; branches = [ (x, y) ]; else_ = Some x };
        Case { operand = Some x; branches = [ (y, int 1) ]; else_ = Some (int 0) };
        Case { operand = Some x; branches = [ (text "a", x) ]; else_ = None };
      ]
  in
  let collate =
    List.concat_map
      (fun c ->
        [
          A.Binary (A.Eq, A.Collate (x, c), y);
          A.Binary (A.Lt, A.Collate (x, c), text "a");
        ])
      Collation.[ Binary; Nocase; Rtrim ]
  in
  List.concat
    [ binary; unary; is_forms; between; in_list; like_glob; funcs; casts; case;
      collate ]

(* every base expression bare, under NOT and under IS NULL *)
let expressions =
  List.concat_map
    (fun e -> [ e; A.Unary (A.Not, e); A.Is { negated = false; arg = e; rhs = A.Is_null } ])
    (base_for a b @ base_for b a)

type counts = {
  mutable tables : int;
  mutable queries : int;
  mutable verdicts : int;
  mutable engine_errors : int;
  mutable refusals : int;
  mutable disagreements : int;
  mutable infallible : int;
  mutable infallible_errors : int;
}

let max_shown = 10

let show_row row =
  String.concat ", " (Array.to_list (Array.map Value.show row))

let report dialect ty_a ty_b e fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "  %s t0(a %s, b %s): %s\n    %s\n" (Dialect.name dialect)
        ty_a ty_b
        (Sqlast.Sql_printer.expr dialect e)
        s)
    fmt

let column name (ty, collate) =
  { A.col_name = name; col_type = ty; col_collate = collate; col_constraints = [] }

let type_name (ty, collate) =
  (match Datatype.to_sql ty with "" -> "(untyped)" | s -> s)
  ^ match collate with Some c -> " COLLATE " ^ Collation.show c | None -> ""

let run_table ~bugs dialect counts (ta, tb) =
  let session = Engine.Session.create ~bugs dialect in
  let exec stmt = ignore (Engine.Session.execute session stmt) in
  exec
    (A.Create_table
       {
         A.ct_name = "t0";
         ct_if_not_exists = false;
         ct_columns =
           [ column "k" (int_, None); column "a" ta; column "b" tb ];
         ct_constraints = [];
         ct_without_rowid = false;
         ct_engine = None;
         ct_inherits = None;
       });
  let k = ref 0 in
  List.iter
    (fun va ->
      List.iter
        (fun vb ->
          incr k;
          exec
            (A.Insert
               {
                 table = "t0";
                 columns = [];
                 rows = [ [ int !k; A.Lit va; A.Lit vb ] ];
                 action = A.On_conflict_abort;
               }))
        probe_values)
    probe_values;
  let ti =
    List.find
      (fun ti -> ti.Pqs.Schema_info.ti_name = "t0")
      (Pqs.Schema_info.tables_of_session session)
  in
  let rows =
    List.map
      (fun row ->
        let key = match row.(0) with Value.Int i -> Int64.to_int i | _ -> -1 in
        (key, row, Pqs.Interp.env_of_pivot dialect [ (ti, row) ]))
      (Pqs.Schema_info.rows_of_table session "t0")
  in
  let env =
    let ctx = Engine.Session.ctx session in
    match Storage.Catalog.find_table ctx.Engine.Executor.catalog "t0" with
    | Some ts ->
        Engine.Executor.table_env ctx ts.Storage.Catalog.schema ~alias:"t0"
    | None -> failwith "no t0"
  in
  let member = Hashtbl.create 512 in
  counts.tables <- counts.tables + 1;
  List.iter
    (fun e ->
      counts.queries <- counts.queries + 1;
      let query =
        A.Q_select
          {
            A.sel_distinct = false;
            sel_items = [ A.Sel_expr (col "k", None) ];
            sel_from = [ A.F_table { name = "t0"; alias = None } ];
            sel_where = Some e;
            sel_group_by = [];
            sel_having = None;
            sel_order_by = [];
            sel_limit = None;
            sel_offset = None;
          }
      in
      let verdicts =
        List.map (fun (key, row, env) -> (key, row, Pqs.Interp.eval_tvl env e)) rows
      in
      let disagree () =
        counts.disagreements <- counts.disagreements + 1;
        counts.disagreements <= max_shown
      in
      (match Engine.Eval.compile_pred_checked env e with
      | pred, true ->
          counts.infallible <- counts.infallible + 1;
          List.iter
            (fun (_, row, _) ->
              env.Engine.Eval.cur := [| row |];
              match Engine.Eval.run pred with
              | Ok _ -> ()
              | Error err ->
                  counts.infallible_errors <- counts.infallible_errors + 1;
                  if counts.infallible_errors <= max_shown then
                    report dialect (type_name ta) (type_name tb) e
                      "compiled infallible, but raised %s on row (%s)"
                      (Engine.Errors.show err) (show_row row))
            rows
      | _, false -> ());
      match Engine.Session.query session query with
      | Error err ->
          counts.engine_errors <- counts.engine_errors + 1;
          if
            List.for_all (fun (_, _, v) -> Result.is_ok v) verdicts
            && disagree ()
          then
            report dialect (type_name ta) (type_name tb) e
              "engine error %s, but the interpreter evaluates every row"
              (Engine.Errors.show err)
      | Ok rs ->
          Hashtbl.reset member;
          List.iter
            (fun r ->
              match r.(0) with
              | Value.Int i -> Hashtbl.replace member (Int64.to_int i) ()
              | _ -> ())
            rs.Engine.Executor.rs_rows;
          List.iter
            (fun (key, row, verdict) ->
              match verdict with
              | Error _ -> counts.refusals <- counts.refusals + 1
              | Ok t ->
                  counts.verdicts <- counts.verdicts + 1;
                  let selected = Hashtbl.mem member key in
                  if selected <> Tvl.equal t Tvl.True && disagree () then
                    report dialect (type_name ta) (type_name tb) e
                      "row (%s): interpreter %s, engine %s" (show_row row)
                      (Tvl.show t)
                      (if selected then "selects it" else "leaves it out"))
            verdicts)
    expressions

let run_dialect ~bugs dialect =
  let counts =
    {
      tables = 0;
      queries = 0;
      verdicts = 0;
      engine_errors = 0;
      refusals = 0;
      disagreements = 0;
      infallible = 0;
      infallible_errors = 0;
    }
  in
  let types = column_types dialect in
  List.iter
    (fun ta -> List.iter (fun tb -> run_table ~bugs dialect counts (ta, tb)) types)
    types;
  Printf.printf
    "exprtable %s: tables=%d queries=%d row_verdicts=%d engine_errors=%d \
     interp_refusals=%d disagreements=%d infallible=%d \
     infallible_errors=%d\n\
     %!"
    (Dialect.name dialect) counts.tables counts.queries counts.verdicts
    counts.engine_errors counts.refusals counts.disagreements counts.infallible
    counts.infallible_errors;
  counts.disagreements + counts.infallible_errors

let () =
  let dialects = ref [] and bugs = ref [] in
  let fail msg =
    prerr_endline msg;
    exit 2
  in
  Arg.parse
    [
      ( "-d",
        Arg.String
          (fun s ->
            match Dialect.of_name s with
            | Some d -> dialects := !dialects @ [ d ]
            | None -> fail ("unknown dialect " ^ s)),
        "DIALECT  run only this dialect (repeatable; default: all three)" );
      ( "-b",
        Arg.String
          (fun s ->
            match Engine.Bug.of_string s with
            | Some bug -> bugs := bug :: !bugs
            | None -> fail ("unknown bug " ^ s)),
        "BUG  inject this engine bug (repeatable)" );
    ]
    (fun arg -> fail ("unexpected argument " ^ arg))
    "exprtable [-d DIALECT]... [-b BUG]...";
  let dialects = if !dialects = [] then Dialect.all else !dialects in
  let bugs = Engine.Bug.set_of_list !bugs in
  let failures =
    List.fold_left (fun n d -> n + run_dialect ~bugs d) 0 dialects
  in
  exit (if failures = 0 then 0 else 1)
