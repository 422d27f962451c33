open Sqlval
module A = Sqlast.Ast

module Config = struct
  type t = {
    rng : Rng.t;
    dialect : Dialect.t;
    table_count : int;
    max_columns : int;
    min_rows : int;
    max_rows : int;
    extra_statements : int;
  }

  let make ?(seed = 1) dialect =
    {
      rng = Rng.make ~seed;
      dialect;
      table_count = 2;
      max_columns = 3;
      min_rows = 1;
      max_rows = 6;
      extra_statements = 8;
    }

  let with_rng rng t = { t with rng }
  let with_table_count table_count t = { t with table_count }
  let with_max_columns max_columns t = { t with max_columns }
  let with_max_rows max_rows t = { t with max_rows }
  let with_extra_statements extra_statements t = { t with extra_statements }
end

type config = Config.t

open Config

let is_sqlite cfg = Dialect.equal cfg.dialect Dialect.Sqlite_like
let is_mysql cfg = Dialect.equal cfg.dialect Dialect.Mysql_like
let is_pg cfg = Dialect.equal cfg.dialect Dialect.Postgres_like

(* ------------------------------------------------------------------ *)
(* CREATE TABLE                                                         *)

let random_type cfg : Datatype.t =
  let rng = cfg.rng in
  match cfg.dialect with
  | Dialect.Sqlite_like ->
      Rng.pick_weighted rng
        [
          (4, Datatype.Any);
          (3, Datatype.Int { width = Datatype.Regular; unsigned = false });
          (3, Datatype.Text);
          (1, Datatype.Real);
          (1, Datatype.Blob);
        ]
  | Dialect.Mysql_like ->
      let width =
        Rng.pick rng Datatype.[ Tiny; Small; Medium; Regular; Big ]
      in
      Rng.pick_weighted rng
        [
          (3, Datatype.Int { width; unsigned = false });
          (2, Datatype.Int { width; unsigned = true });
          (3, Datatype.Text);
          (1, Datatype.Real);
          (1, Datatype.Blob);
          (1, Datatype.Bool);
        ]
  | Dialect.Postgres_like ->
      let width = Rng.pick rng Datatype.[ Small; Regular; Big ] in
      Rng.pick_weighted rng
        [
          (4, Datatype.Int { width; unsigned = false });
          (1, Datatype.Serial);
          (3, Datatype.Text);
          (1, Datatype.Real);
          (2, Datatype.Bool);
          (1, Datatype.Blob);
        ]

let random_collation cfg (ty : Datatype.t) =
  (* collations matter for text comparisons; sqlite is where the paper
     exercised them *)
  if not (is_sqlite cfg) then None
  else
    match ty with
    | Datatype.Text | Datatype.Any ->
        if Rng.chance cfg.rng 0.4 then
          Some (Rng.pick cfg.rng [ Collation.Nocase; Collation.Rtrim ])
        else None
    | Datatype.Int _ ->
        (* sqlite permits collations on any column; paper Listing 7 uses
           "c0 INT UNIQUE COLLATE NOCASE" *)
        if Rng.chance cfg.rng 0.2 then Some Collation.Nocase else None
    | _ -> None

let create_table_def cfg ~name ~inherit_from : A.create_table =
  let rng = cfg.rng in
  let ncols = Rng.int_in rng 1 cfg.max_columns in
  let mk_col i =
    let ty = random_type cfg in
    let constraints = ref [] in
    if Rng.chance rng 0.12 then constraints := A.C_not_null :: !constraints;
    if Rng.chance rng 0.18 then constraints := A.C_unique :: !constraints;
    if Rng.chance rng 0.12 then
      constraints :=
        A.C_default (A.Lit (Gen_expr.literal_for_column rng cfg.dialect ty))
        :: !constraints;
    (* lenient CHECK constraints: NULL passes, and the excluded literal is
       rarely generated, so inserts mostly succeed *)
    if Rng.chance rng 0.1 then begin
      let name = Printf.sprintf "c%d" i in
      let excluded = Gen_expr.literal_for_column rng cfg.dialect ty in
      constraints :=
        A.C_check (A.Binary (A.Neq, A.col name, A.Lit excluded)) :: !constraints
    end;
    {
      A.col_name = Printf.sprintf "c%d" i;
      col_type = ty;
      col_collate = random_collation cfg ty;
      col_constraints = !constraints;
    }
  in
  let columns = List.init ncols mk_col in
  (* primary key: single column or composite table constraint *)
  let pk_col = Rng.chance rng 0.35 in
  let columns, constraints =
    if pk_col then
      let idx = Rng.int rng ncols in
      ( List.mapi
          (fun i c ->
            if i = idx then
              { c with A.col_constraints = A.C_primary_key :: c.A.col_constraints }
            else c)
          columns,
        [] )
    else if ncols >= 2 && Rng.chance rng 0.2 then
      let cols = Rng.sample rng 2 (List.map (fun c -> c.A.col_name) columns) in
      (columns, [ A.T_primary_key cols ])
    else (columns, [])
  in
  let has_pk = pk_col || constraints <> [] in
  let without_rowid = is_sqlite cfg && has_pk && Rng.chance rng 0.35 in
  let engine =
    if not (is_mysql cfg) then None
    else
      Rng.pick_weighted rng
        [
          (5, None);
          (1, Some A.E_innodb);
          (2, Some A.E_memory);
          (1, Some A.E_myisam);
          (1, Some A.E_csv);
        ]
  in
  {
    A.ct_name = name;
    ct_if_not_exists = false;
    ct_columns = columns;
    ct_constraints = constraints;
    ct_without_rowid = without_rowid;
    ct_engine = engine;
    ct_inherits = inherit_from;
  }

let initial_statements cfg =
  let rec build i parents acc =
    if i > cfg.table_count then List.rev acc
    else
      let name = Printf.sprintf "t%d" (i - 1) in
      let inherit_from =
        if is_pg cfg && parents <> [] && Rng.chance cfg.rng 0.4 then
          Some (Rng.pick cfg.rng parents)
        else None
      in
      let ct = create_table_def cfg ~name ~inherit_from in
      build (i + 1) (name :: parents) (A.Create_table ct :: acc)
  in
  build 1 [] []

(* ------------------------------------------------------------------ *)
(* INSERT                                                               *)

let insert_stmt ?(existing_rows = []) cfg (ti : Schema_info.table_info) :
    A.stmt =
  let rng = cfg.rng in
  let cols = ti.Schema_info.ti_columns in
  (* use an explicit column subset half of the time *)
  let chosen =
    if Rng.chance rng 0.5 then cols
    else
      let k = Rng.int_in rng 1 (List.length cols) in
      let sampled = Rng.sample rng k cols in
      (* keep schema order *)
      List.filter (fun c -> List.memq c sampled) cols
  in
  let chosen = if chosen = [] then cols else chosen in
  let nrows = Rng.int_in rng 1 3 in
  let fresh_row () =
    List.map
      (fun (c : Schema_info.column_info) ->
        A.Lit (Gen_expr.literal_for_column rng cfg.dialect c.Schema_info.ci_type))
      chosen
  in
  let row _ =
    (* occasionally clone an existing row (mutating one column): near
       duplicates exercise DISTINCT, GROUP BY and unique-index paths *)
    match existing_rows with
    | (r : Value.t array) :: _
      when List.length chosen = List.length cols
           && Array.length r = List.length cols
           && Rng.chance rng 0.3 ->
        let r =
          if List.length existing_rows > 1 then Rng.pick rng existing_rows
          else r
        in
        if Array.length r <> List.length cols then fresh_row ()
        else
          let mutate_at =
            if Rng.chance rng 0.6 then Some (Rng.int rng (Array.length r))
            else None
          in
          List.mapi
            (fun i (c : Schema_info.column_info) ->
              if mutate_at = Some i then
                A.Lit
                  (Gen_expr.literal_for_column rng cfg.dialect
                     c.Schema_info.ci_type)
              else A.Lit r.(i))
            cols
    | _ -> fresh_row ()
  in
  let action =
    Rng.pick_weighted rng
      [
        (7, A.On_conflict_abort);
        (2, A.On_conflict_ignore);
        (if is_pg cfg then 0 else 2), A.On_conflict_replace;
      ]
  in
  A.Insert
    {
      table = ti.Schema_info.ti_name;
      columns =
        (if List.length chosen = List.length cols && Rng.bool rng then []
         else List.map (fun c -> c.Schema_info.ci_name) chosen);
      rows = List.init nrows row;
      action;
    }

let fill_statements cfg session =
  Schema_info.tables_of_session session
  |> List.concat_map (fun (ti : Schema_info.table_info) ->
         let missing = cfg.min_rows - ti.Schema_info.ti_row_count in
         if missing <= 0 then []
         else List.init missing (fun _ -> insert_stmt cfg ti))

(* ------------------------------------------------------------------ *)
(* Other statements                                                     *)

let table_pool session (ti : Schema_info.table_info) =
  Schema_info.rows_of_table session ti.Schema_info.ti_name
  |> List.concat_map Array.to_list
  |> List.filter (fun v -> not (Value.is_null v))

let update_stmt cfg (ti : Schema_info.table_info) session : A.stmt =
  let rng = cfg.rng in
  let pool = table_pool session ti in
  let c = Rng.pick rng ti.Schema_info.ti_columns in
  let value =
    (* half of the time assign an existing value, provoking conflicts the
       way the paper's OR REPLACE findings need *)
    match pool with
    | v :: _ when Rng.chance rng 0.35 ->
        let v = if List.length pool > 1 then Rng.pick rng pool else v in
        A.Lit v
    | _ ->
        A.Lit (Gen_expr.literal_for_column rng cfg.dialect c.Schema_info.ci_type)
  in
  let where =
    if Rng.chance rng 0.75 then
      Some
        (Gen_expr.condition
           {
             Gen_expr.rng;
             max_depth = 2;
             scope = Gen_expr.scope ~pool cfg.dialect [ ti ];
           })
    else None
  in
  let action =
    if is_sqlite cfg then
      Rng.pick_weighted rng
        [
          (7, A.On_conflict_abort);
          (1, A.On_conflict_ignore);
          (2, A.On_conflict_replace);
        ]
    else A.On_conflict_abort
  in
  A.Update
    {
      table = ti.Schema_info.ti_name;
      assignments = [ (c.Schema_info.ci_name, value) ];
      where;
      action;
    }

let delete_stmt cfg (ti : Schema_info.table_info) session : A.stmt =
  let where =
    Some
      (Gen_expr.condition
         {
           Gen_expr.rng = cfg.rng;
           max_depth = 2;
           scope = Gen_expr.scope ~pool:(table_pool session ti) cfg.dialect [ ti ];
         })
  in
  A.Delete { table = ti.Schema_info.ti_name; where }

let index_expr cfg (ti : Schema_info.table_info) : A.expr =
  let rng = cfg.rng in
  let col () =
    let c = Rng.pick rng ti.Schema_info.ti_columns in
    A.col c.Schema_info.ci_name
  in
  (* postgres type-checks index expressions: arithmetic only over numeric
     columns there *)
  let numeric_col () =
    let numeric =
      List.filter
        (fun (c : Schema_info.column_info) ->
          match c.Schema_info.ci_type with
          | Datatype.Int _ | Datatype.Serial | Datatype.Real -> true
          | Datatype.Any -> not (is_pg cfg)
          | _ -> not (is_pg cfg) && not (is_mysql cfg))
        ti.Schema_info.ti_columns
    in
    match numeric with
    | [] -> None
    | cs -> Some (A.col (Rng.pick rng cs).Schema_info.ci_name)
  in
  let arith mk =
    match numeric_col () with Some c -> mk c | None -> col ()
  in
  Rng.pick_weighted rng
    [
      (6, col ());
      (1, arith (fun c -> A.Binary (A.Add, c, A.int_lit 1L)));
      (1, arith (fun c -> A.Binary (A.Add, A.int_lit 1L, c)));
      ( (if is_sqlite cfg then 2 else 0),
        A.Like
          { negated = false; arg = col (); pattern = A.text_lit ""; escape = None } );
      ((if is_sqlite cfg then 1 else 0), A.Binary (A.Concat, col (), A.int_lit 1L));
      (1, A.int_lit 1L);
    ]

let create_index_stmt cfg (ti : Schema_info.table_info) ~name : A.stmt =
  let rng = cfg.rng in
  let one () =
    let e = index_expr cfg ti in
    let coll =
      if is_sqlite cfg && Rng.chance rng 0.3 then
        Some (Rng.pick rng [ Collation.Nocase; Collation.Rtrim; Collation.Binary ])
      else None
    in
    { A.ic_expr = e; ic_collate = coll; ic_desc = Rng.chance rng 0.3 }
  in
  let ncols = Rng.pick_weighted rng [ (5, 1); (4, 2) ] in
  let columns = List.init ncols (fun _ -> one ()) in
  let where =
    if (is_sqlite cfg || is_pg cfg) && Rng.chance rng 0.35 then
      let c = Rng.pick rng ti.Schema_info.ti_columns in
      let cref = A.col c.Schema_info.ci_name in
      Some
        (Rng.pick_weighted rng
           [
             (4, A.Is { negated = true; arg = cref; rhs = A.Is_null });
             ( 2,
               A.Binary
                 ( A.Gt,
                   cref,
                   A.Lit
                     (Gen_expr.literal_for_column rng cfg.dialect
                        c.Schema_info.ci_type) ) );
           ])
    else None
  in
  (* postgres WHERE must be boolean: the Gt form above can mismatch types;
     restrict pg partial predicates to IS NOT NULL *)
  let where =
    match (where, cfg.dialect) with
    | Some (A.Binary (A.Gt, cref, A.Lit lit)), Dialect.Postgres_like ->
        if Value.is_null lit then
          Some (A.Is { negated = true; arg = cref; rhs = A.Is_null })
        else Some (A.Binary (A.Gt, cref, A.Lit lit))
    | w, _ -> w
  in
  A.Create_index
    {
      A.ci_name = name;
      ci_if_not_exists = false;
      ci_table = ti.Schema_info.ti_name;
      ci_unique = Rng.chance rng 0.3;
      ci_columns = columns;
      ci_where = where;
    }

let view_stmt cfg (ti : Schema_info.table_info) ~name : A.stmt =
  let rng = cfg.rng in
  let items =
    if Rng.bool rng then [ A.Star ]
    else
      List.map
        (fun (c : Schema_info.column_info) ->
          A.Sel_expr (A.col c.Schema_info.ci_name, None))
        ti.Schema_info.ti_columns
  in
  let q =
    A.Q_select
      {
        A.sel_distinct = Rng.chance rng 0.5;
        sel_items = items;
        sel_from = [ A.F_table { name = ti.Schema_info.ti_name; alias = None } ];
        sel_where = None;
        sel_group_by = [];
        sel_having = None;
        sel_order_by = [];
        sel_limit = None;
        sel_offset = None;
      }
  in
  A.Create_view { name; query = q }

let option_stmt cfg : A.stmt =
  let rng = cfg.rng in
  match cfg.dialect with
  | Dialect.Sqlite_like ->
      let name, value =
        Rng.pick_weighted rng
          [
            (4, ("case_sensitive_like", Value.Int (Int64.of_int (Rng.int rng 2))));
            (1, ("reverse_unordered_selects", Value.Int 0L));
            (1, ("cell_size_check", Value.Int (Int64.of_int (Rng.int rng 2))));
            (1, ("legacy_file_format", Value.Int 0L));
          ]
      in
      A.Pragma { name; value = Some value }
  | Dialect.Mysql_like ->
      let name, value =
        Rng.pick rng
          [
            ("key_cache_division_limit", Value.Int (Int64.of_int (Rng.int_in rng 1 100)));
            ("sort_buffer_size", Value.Int 262144L);
            ("max_heap_table_size", Value.Int 16777216L);
          ]
      in
      A.Set_option { global = Rng.bool rng; name; value }
  | Dialect.Postgres_like ->
      let name, value =
        Rng.pick rng
          [
            ("enable_seqscan", Value.Bool (Rng.bool rng));
            ("enable_indexscan", Value.Bool (Rng.bool rng));
            ("work_mem", Value.Int (Int64.of_int (Rng.int_in rng 64 8192)));
          ]
      in
      A.Set_option { global = false; name; value }

let maintenance_stmt cfg session : A.stmt =
  let rng = cfg.rng in
  let tables = Schema_info.tables_of_session session in
  let table () =
    match tables with
    | [] -> "t0"
    | ts -> (Rng.pick rng ts).Schema_info.ti_name
  in
  match cfg.dialect with
  | Dialect.Sqlite_like ->
      Rng.pick_weighted rng
        [
          (3, A.Vacuum { full = false });
          (3, A.Reindex None);
          (2, A.Analyze (Some (table ())));
          (2, A.Analyze None);
        ]
  | Dialect.Mysql_like ->
      Rng.pick_weighted rng
        [
          (3, A.Check_table { table = table (); for_upgrade = Rng.chance rng 0.4 });
          (3, A.Repair_table (table ()));
          (2, A.Analyze (Some (table ())));
        ]
  | Dialect.Postgres_like ->
      Rng.pick_weighted rng
        [
          (2, A.Vacuum { full = false });
          (2, A.Vacuum { full = true });
          (2, A.Reindex None);
          (3, A.Analyze None);
          (1, A.Discard_all);
        ]

let alter_stmt cfg (ti : Schema_info.table_info) : A.stmt =
  let rng = cfg.rng in
  let col () = (Rng.pick rng ti.Schema_info.ti_columns).Schema_info.ci_name in
  let fresh = Rng.identifier rng ~prefix:"c" in
  let action =
    Rng.pick_weighted rng
      [
        (4, A.Rename_column { old_name = col (); new_name = fresh });
        ( 3,
          A.Add_column
            {
              A.col_name = fresh;
              col_type = random_type cfg;
              col_collate = None;
              col_constraints = [];
            } );
        (1, A.Drop_column (col ()));
      ]
  in
  A.Alter_table { table = ti.Schema_info.ti_name; action }

let stats_stmt cfg (ti : Schema_info.table_info) ~name : A.stmt option =
  if List.length ti.Schema_info.ti_columns < 2 then None
  else
    let cols =
      Rng.sample cfg.rng 2
        (List.map (fun c -> c.Schema_info.ci_name) ti.Schema_info.ti_columns)
    in
    Some (A.Create_statistics { name; table = ti.Schema_info.ti_name; columns = cols })

(* ------------------------------------------------------------------ *)

let random_statements cfg session : A.stmt list =
  let rng = cfg.rng in
  let tables = Schema_info.tables_of_session session in
  match tables with
  | [] -> []
  | _ -> (
      let ti = Rng.pick rng tables in
      match
        Rng.pick_weighted rng
          [
            (8, `Insert);
            (4, `Update);
            (2, `Delete);
            (6, `Index);
            (2, `View);
            (3, `Option);
            (3, `Maintenance);
            (2, `Alter);
            ((if is_pg cfg then 2 else 0), `Stats);
            (1, `Txn);
            (1, `Drop_index);
          ]
      with
      | `Insert ->
          [
            insert_stmt
              ~existing_rows:
                (Schema_info.rows_of_table session ti.Schema_info.ti_name)
              cfg ti;
          ]
      | `Update -> [ update_stmt cfg ti session ]
      | `Delete -> [ delete_stmt cfg ti session ]
      | `Index ->
          let ci = create_index_stmt cfg ti ~name:(Rng.identifier rng ~prefix:"i") in
          (* stats invite the planner's skip-scan (paper Listing 6 pairs
             CREATE INDEX with ANALYZE) *)
          if Rng.chance rng 0.4 then [ ci; A.Analyze None ] else [ ci ]
      | `View -> [ view_stmt cfg ti ~name:(Rng.identifier rng ~prefix:"v") ]
      | `Option -> [ option_stmt cfg ]
      | `Maintenance -> [ maintenance_stmt cfg session ]
      | `Alter -> [ alter_stmt cfg ti ]
      | `Stats -> (
          match stats_stmt cfg ti ~name:(Rng.identifier rng ~prefix:"s") with
          | Some s -> [ s ]
          | None -> [ insert_stmt cfg ti ])
      | `Txn ->
          let inner = insert_stmt cfg ti in
          let closing = if Rng.chance rng 0.5 then A.Commit_txn else A.Rollback_txn in
          [ A.Begin_txn; inner; closing ]
      | `Drop_index -> (
          match Schema_info.index_names_of_session session with
          | [] -> [ insert_stmt cfg ti ]
          | names -> [ A.Drop_index { if_exists = false; name = Rng.pick rng names } ]))
