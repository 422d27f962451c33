(* SQL abstract syntax shared by the engine, the parser and PQS.

   The AST is a superset of the three dialects: dialect-specific constructs
   (IS over scalars, <=>, WITHOUT ROWID, ENGINE=, INHERITS, PRAGMA, ...) are
   present unconditionally; each dialect's generator only produces its own
   subset and the printer spells them in the dialect's syntax. *)

open Sqlval

type unop =
  | Not
  | Neg
  | Pos
  | Bit_not
[@@deriving show { with_path = false }, eq]

type binop =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | Null_safe_eq  (* mysql's <=>; printed as IS in sqlite *)
  | And
  | Or
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Concat
  | Bit_and
  | Bit_or
  | Shift_left
  | Shift_right
[@@deriving show { with_path = false }, eq]

(* Scalar functions implemented by all dialects (the engine rejects the ones
   a dialect lacks, mirroring per-dialect feature sets). *)
type func =
  | F_abs
  | F_length
  | F_lower
  | F_upper
  | F_coalesce
  | F_ifnull
  | F_nullif
  | F_typeof (* sqlite *)
  | F_trim
  | F_ltrim
  | F_rtrim
  | F_substr
  | F_replace
  | F_instr
  | F_hex
  | F_round
  | F_sign
  | F_least (* mysql/postgres *)
  | F_greatest (* mysql/postgres *)
  | F_quote (* sqlite *)
[@@deriving show { with_path = false }, eq]

type agg_func =
  | A_count_star
  | A_count
  | A_sum
  | A_avg
  | A_min
  | A_max
  | A_total (* sqlite *)
[@@deriving show { with_path = false }, eq]

type expr =
  | Lit of Value.t
  | Col of { table : string option; column : string }
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Is of { negated : bool; arg : expr; rhs : is_rhs }
  | Between of { negated : bool; arg : expr; lo : expr; hi : expr }
  | In_list of { negated : bool; arg : expr; list : expr list }
  | Like of { negated : bool; arg : expr; pattern : expr; escape : expr option }
  | Glob of { negated : bool; arg : expr; pattern : expr } (* sqlite *)
  | Cast of Datatype.t * expr
  | Func of func * expr list
  | Agg of agg_func * expr option
  | Case of {
      operand : expr option;
      branches : (expr * expr) list;
      else_ : expr option;
    }
  | Collate of expr * Collation.t

and is_rhs =
  | Is_null
  | Is_true
  | Is_false
  | Is_expr of expr (* sqlite: IS / IS NOT over arbitrary scalars *)
  | Is_distinct_from of expr (* postgres *)
[@@deriving show { with_path = false }, eq]

type col_constraint =
  | C_primary_key
  | C_unique
  | C_not_null
  | C_default of expr
  | C_check of expr
[@@deriving show { with_path = false }, eq]

type column_def = {
  col_name : string;
  col_type : Datatype.t;
  col_collate : Collation.t option;
  col_constraints : col_constraint list;
}
[@@deriving show { with_path = false }, eq]

type table_constraint =
  | T_primary_key of string list
  | T_unique of string list
  | T_check of expr
[@@deriving show { with_path = false }, eq]

(* mysql storage engines; Csv is the "non-standard storage engine" example
   from the paper's background section *)
type table_engine = E_innodb | E_memory | E_myisam | E_csv
[@@deriving show { with_path = false }, eq]

type create_table = {
  ct_name : string;
  ct_if_not_exists : bool;
  ct_columns : column_def list;
  ct_constraints : table_constraint list;
  ct_without_rowid : bool; (* sqlite *)
  ct_engine : table_engine option; (* mysql *)
  ct_inherits : string option; (* postgres *)
}
[@@deriving show { with_path = false }, eq]

type indexed_column = {
  ic_expr : expr; (* column reference or expression index *)
  ic_collate : Collation.t option;
  ic_desc : bool;
}
[@@deriving show { with_path = false }, eq]

type create_index = {
  ci_name : string;
  ci_if_not_exists : bool;
  ci_table : string;
  ci_unique : bool;
  ci_columns : indexed_column list;
  ci_where : expr option; (* partial index *)
}
[@@deriving show { with_path = false }, eq]

type order_dir = Asc | Desc [@@deriving show { with_path = false }, eq]

type select_item =
  | Star
  | Table_star of string
  | Sel_expr of expr * string option (* expression with optional alias *)
[@@deriving show { with_path = false }, eq]

type join_kind = Inner | Left | Cross
[@@deriving show { with_path = false }, eq]

type compound_op = Union | Union_all | Intersect | Except
[@@deriving show { with_path = false }, eq]

type from_item =
  | F_table of { name : string; alias : string option }
  | F_join of {
      kind : join_kind;
      left : from_item;
      right : from_item;
      on : expr option;
    }
  | F_sub of { sub : query; alias : string } (* derived table *)
[@@deriving show { with_path = false }, eq]

and select = {
  sel_distinct : bool;
  sel_items : select_item list;
  sel_from : from_item list; (* comma-separated cross product *)
  sel_where : expr option;
  sel_group_by : expr list;
  sel_having : expr option;
  sel_order_by : (expr * order_dir) list;
  sel_limit : int64 option;
  sel_offset : int64 option;
}

and query =
  | Q_select of select
  | Q_values of expr list list
  | Q_compound of compound_op * query * query
[@@deriving show { with_path = false }, eq]

type conflict_action = On_conflict_abort | On_conflict_ignore | On_conflict_replace
[@@deriving show { with_path = false }, eq]

type alter_action =
  | Rename_table of string
  | Rename_column of { old_name : string; new_name : string }
  | Add_column of column_def
  | Drop_column of string
[@@deriving show { with_path = false }, eq]

type stmt =
  | Create_table of create_table
  | Drop_table of { if_exists : bool; name : string }
  | Alter_table of { table : string; action : alter_action }
  | Create_index of create_index
  | Drop_index of { if_exists : bool; name : string }
  | Reindex of string option (* sqlite/postgres *)
  | Create_view of { name : string; query : query }
  | Drop_view of { if_exists : bool; name : string }
  | Insert of {
      table : string;
      columns : string list; (* empty = all columns in order *)
      rows : expr list list;
      action : conflict_action;
    }
  | Update of {
      table : string;
      assignments : (string * expr) list;
      where : expr option;
      action : conflict_action;
    }
  | Delete of { table : string; where : expr option }
  | Select_stmt of query
  | Vacuum of { full : bool } (* postgres has FULL; sqlite plain *)
  | Analyze of string option
  | Check_table of { table : string; for_upgrade : bool } (* mysql *)
  | Repair_table of string (* mysql *)
  | Set_option of { global : bool; name : string; value : Value.t } (* my/pg *)
  | Pragma of { name : string; value : Value.t option } (* sqlite *)
  | Create_statistics of { name : string; table : string; columns : string list }
    (* postgres *)
  | Discard_all (* postgres *)
  | Begin_txn
  | Commit_txn
  | Rollback_txn
  | Explain of query (* prints the access plan; never generated by PQS *)
  | Explain_analyze of query
    (* executes the query and prints the plan annotated with per-operator
       actuals (rows in/out, B-tree visits, wall time) *)
[@@deriving show { with_path = false }, eq]

(* ------------------------------------------------------------------ *)
(* Helpers used across generators and tests                           *)

let lit v = Lit v
let int_lit i = Lit (Value.Int i)
let text_lit s = Lit (Value.Text s)
let null_lit = Lit Value.Null
let col ?table column = Col { table; column }
let not_ e = Unary (Not, e)
let isnull e = Is { negated = false; arg = e; rhs = Is_null }

(* Statement-kind labels used by the Figure 3 reproduction; categories follow
   the paper's axis labels. *)
let stmt_kind = function
  | Create_table _ -> "CREATE TABLE"
  | Drop_table _ -> "DROP TABLE"
  | Alter_table _ -> "ALTER TABLE"
  | Create_index _ -> "CREATE INDEX"
  | Drop_index _ -> "DROP INDEX"
  | Reindex _ -> "REINDEX"
  | Create_view _ -> "CREATE VIEW"
  | Drop_view _ -> "DROP VIEW"
  | Insert _ -> "INSERT"
  | Update _ -> "UPDATE"
  | Delete _ -> "DELETE"
  | Select_stmt _ -> "SELECT"
  | Vacuum _ -> "VACUUM"
  | Analyze _ -> "ANALYZE"
  | Check_table _ | Repair_table _ -> "REPAIR/CHECK TABLE"
  | Set_option _ | Pragma _ -> "OPTION"
  | Create_statistics _ -> "CREATE STATS"
  | Discard_all -> "DISCARD"
  | Begin_txn | Commit_txn | Rollback_txn -> "TRANSACTION"
  | Explain _ | Explain_analyze _ -> "EXPLAIN"

(* All kinds in the display order of the paper's Figure 3 (bottom-up). *)
let all_stmt_kinds =
  [
    "CREATE TABLE"; "INSERT"; "SELECT"; "CREATE INDEX"; "ALTER TABLE";
    "UPDATE"; "OPTION"; "ANALYZE"; "REINDEX"; "VACUUM"; "CREATE VIEW";
    "TRANSACTION"; "DROP INDEX"; "REPAIR/CHECK TABLE"; "CREATE STATS";
    "DISCARD"; "DROP TABLE"; "DROP VIEW"; "DELETE";
  ]

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Lit _ | Col _ -> acc
  | Unary (_, a) | Cast (_, a) | Collate (a, _) -> fold_expr f acc a
  | Binary (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Is { arg; rhs; _ } -> (
      let acc = fold_expr f acc arg in
      match rhs with
      | Is_null | Is_true | Is_false -> acc
      | Is_expr b | Is_distinct_from b -> fold_expr f acc b)
  | Between { arg; lo; hi; _ } ->
      fold_expr f (fold_expr f (fold_expr f acc arg) lo) hi
  | In_list { arg; list; _ } ->
      List.fold_left (fold_expr f) (fold_expr f acc arg) list
  | Like { arg; pattern; escape; _ } ->
      let acc = fold_expr f (fold_expr f acc arg) pattern in
      Option.fold ~none:acc ~some:(fold_expr f acc) escape
  | Glob { arg; pattern; _ } -> fold_expr f (fold_expr f acc arg) pattern
  | Func (_, args) -> List.fold_left (fold_expr f) acc args
  | Agg (_, arg) -> Option.fold ~none:acc ~some:(fold_expr f acc) arg
  | Case { operand; branches; else_ } ->
      let acc = Option.fold ~none:acc ~some:(fold_expr f acc) operand in
      let acc =
        List.fold_left
          (fun acc (c, r) -> fold_expr f (fold_expr f acc c) r)
          acc branches
      in
      Option.fold ~none:acc ~some:(fold_expr f acc) else_

let expr_size e = fold_expr (fun n _ -> n + 1) 0 e

(* Bottom-up rewrite: [f] sees each node after its children were rewritten
   and may replace it. *)
let rec map_expr f e =
  let r = map_expr f in
  let e' =
    match e with
    | Lit _ | Col _ -> e
    | Unary (op, a) -> Unary (op, r a)
    | Binary (op, a, b) -> Binary (op, r a, r b)
    | Is { negated; arg; rhs } ->
        let rhs' =
          match rhs with
          | Is_null | Is_true | Is_false -> rhs
          | Is_expr b -> Is_expr (r b)
          | Is_distinct_from b -> Is_distinct_from (r b)
        in
        Is { negated; arg = r arg; rhs = rhs' }
    | Between { negated; arg; lo; hi } ->
        Between { negated; arg = r arg; lo = r lo; hi = r hi }
    | In_list { negated; arg; list } ->
        In_list { negated; arg = r arg; list = List.map r list }
    | Like { negated; arg; pattern; escape } ->
        Like { negated; arg = r arg; pattern = r pattern; escape = Option.map r escape }
    | Glob { negated; arg; pattern } ->
        Glob { negated; arg = r arg; pattern = r pattern }
    | Cast (ty, a) -> Cast (ty, r a)
    | Func (fn, args) -> Func (fn, List.map r args)
    | Agg (a, arg) -> Agg (a, Option.map r arg)
    | Case { operand; branches; else_ } ->
        Case
          {
            operand = Option.map r operand;
            branches = List.map (fun (c, v) -> (r c, r v)) branches;
            else_ = Option.map r else_;
          }
    | Collate (a, c) -> Collate (r a, c)
  in
  f e'

(* [map_expr f] over every expression of a query, derived tables and
   compound arms included. *)
let rec map_query f q =
  let e = map_expr f in
  let rec from = function
    | F_table _ as it -> it
    | F_join j ->
        F_join { j with left = from j.left; right = from j.right; on = Option.map e j.on }
    | F_sub { sub; alias } -> F_sub { sub = map_query f sub; alias }
  in
  let item = function
    | Sel_expr (x, alias) -> Sel_expr (e x, alias)
    | (Star | Table_star _) as it -> it
  in
  match q with
  | Q_values rows -> Q_values (List.map (List.map e) rows)
  | Q_compound (op, a, b) -> Q_compound (op, map_query f a, map_query f b)
  | Q_select s ->
      Q_select
        {
          s with
          sel_items = List.map item s.sel_items;
          sel_from = List.map from s.sel_from;
          sel_where = Option.map e s.sel_where;
          sel_group_by = List.map e s.sel_group_by;
          sel_having = Option.map e s.sel_having;
          sel_order_by = List.map (fun (x, d) -> (e x, d)) s.sel_order_by;
        }

(* [map_expr f] over every expression of a statement: column defaults and
   CHECKs, index keys and predicates, VALUES rows, SET and WHERE, and
   queries. *)
let map_stmt f stmt =
  let e = map_expr f and q = map_query f in
  let column c =
    {
      c with
      col_constraints =
        List.map
          (function
            | C_default x -> C_default (e x)
            | C_check x -> C_check (e x)
            | (C_primary_key | C_unique | C_not_null) as k -> k)
          c.col_constraints;
    }
  in
  match stmt with
  | Create_table ct ->
      Create_table
        {
          ct with
          ct_columns = List.map column ct.ct_columns;
          ct_constraints =
            List.map
              (function
                | T_check x -> T_check (e x)
                | (T_primary_key _ | T_unique _) as k -> k)
              ct.ct_constraints;
        }
  | Alter_table { table; action = Add_column c } ->
      Alter_table { table; action = Add_column (column c) }
  | Create_index ci ->
      Create_index
        {
          ci with
          ci_columns =
            List.map (fun ic -> { ic with ic_expr = e ic.ic_expr }) ci.ci_columns;
          ci_where = Option.map e ci.ci_where;
        }
  | Create_view v -> Create_view { v with query = q v.query }
  | Insert i -> Insert { i with rows = List.map (List.map e) i.rows }
  | Update u ->
      Update
        {
          u with
          assignments = List.map (fun (c, x) -> (c, e x)) u.assignments;
          where = Option.map e u.where;
        }
  | Delete d -> Delete { d with where = Option.map e d.where }
  | Select_stmt x -> Select_stmt (q x)
  | Explain x -> Explain (q x)
  | Explain_analyze x -> Explain_analyze (q x)
  | Alter_table _ | Drop_table _ | Drop_index _ | Reindex _ | Drop_view _
  | Vacuum _ | Analyze _ | Check_table _ | Repair_table _ | Set_option _
  | Pragma _ | Create_statistics _ | Discard_all | Begin_txn | Commit_txn
  | Rollback_txn ->
      stmt

(* All aggregate sub-expressions, outermost first, deduplicated. *)
let collect_aggs e =
  let aggs =
    fold_expr
      (fun acc e -> match e with Agg _ -> e :: acc | _ -> acc)
      [] e
    |> List.rev
  in
  List.fold_left (fun acc a -> if List.exists (equal_expr a) acc then acc else acc @ [ a ]) [] aggs

let has_agg e = collect_aggs e <> []

let rec query_has_agg = function
  | Q_select s ->
      s.sel_group_by <> []
      || List.exists
           (function Sel_expr (e, _) -> has_agg e | Star | Table_star _ -> false)
           s.sel_items
      || (match s.sel_having with Some h -> has_agg h | None -> false)
  | Q_values _ -> false
  | Q_compound (_, a, b) -> query_has_agg a || query_has_agg b

let expr_columns e =
  fold_expr
    (fun acc e ->
      match e with
      | Col { table; column } -> (table, column) :: acc
      | _ -> acc)
    [] e
  |> List.rev

(* Maximum nesting depth; generators bound it (paper Algorithm 1). *)
let rec expr_depth e =
  let child_depth es = List.fold_left (fun d x -> max d (expr_depth x)) 0 es in
  match e with
  | Lit _ | Col _ -> 1
  | Unary (_, a) | Cast (_, a) | Collate (a, _) -> 1 + expr_depth a
  | Binary (_, a, b) -> 1 + child_depth [ a; b ]
  | Is { arg; rhs; _ } -> (
      match rhs with
      | Is_null | Is_true | Is_false -> 1 + expr_depth arg
      | Is_expr b | Is_distinct_from b -> 1 + child_depth [ arg; b ])
  | Between { arg; lo; hi; _ } -> 1 + child_depth [ arg; lo; hi ]
  | In_list { arg; list; _ } -> 1 + child_depth (arg :: list)
  | Like { arg; pattern; escape; _ } ->
      1 + child_depth (arg :: pattern :: Option.to_list escape)
  | Glob { arg; pattern; _ } -> 1 + child_depth [ arg; pattern ]
  | Func (_, args) -> 1 + child_depth args
  | Agg (_, arg) -> 1 + child_depth (Option.to_list arg)
  | Case { operand; branches; else_ } ->
      let es =
        Option.to_list operand
        @ List.concat_map (fun (c, r) -> [ c; r ]) branches
        @ Option.to_list else_
      in
      1 + child_depth es
