open Sqlval
module A = Sqlast.Ast

let ( let* ) = Result.bind

let cov (ctx : Executor.ctx) point =
  match ctx.Executor.coverage with None -> () | Some c -> Coverage.hit c point

let err code fmt = Errors.makef code fmt

(* ------------------------------------------------------------------ *)
(* Write plans                                                          *)

(* A table's compiled row expressions, kept on its catalog entry across
   statements: CHECKs, index keys and partial-index predicates compile
   against the table's columns on first use, then run on the row in slot
   0 of the env's tuple.  The plan is rebuilt when the table's schema
   version, the LIKE pragma (compiled LIKE closures capture it) or the
   coverage instrument changes; dialect and bugs are fixed per session,
   like the catalog itself. *)
type index_plan = {
  ix : Storage.Index.t;
  slot : int;
  compiled : (Eval.thunk array * Eval.pred option) Lazy.t;
}

type plan = {
  env : Eval.env;
  version : int;
  checks : Eval.pred list Lazy.t;
  indexes : index_plan list;
}

type Storage.Catalog.compiled += Plan of plan

let compile_index env slot (ix : Storage.Index.t) =
  let key (ic : A.indexed_column) = Eval.compile env ic.A.ic_expr in
  let keys () = Array.of_list (List.map key ix.Storage.Index.definition) in
  let where () = Option.map (Eval.compile_pred env) ix.Storage.Index.where in
  { ix; slot; compiled = lazy (keys (), where ()) }

let plan ctx (ts : Storage.Catalog.table_state) =
  let schema = ts.Storage.Catalog.schema in
  match ts.Storage.Catalog.compiled with
  | Plan p
    when p.version = schema.Storage.Schema.version
         && p.env.Eval.case_sensitive_like
            = Options.case_sensitive_like ctx.Executor.options
         && p.env.Eval.coverage == ctx.Executor.coverage ->
      p
  | _ ->
      let env =
        Executor.table_env ctx schema ~alias:schema.Storage.Schema.table_name
      in
      let checks = schema.Storage.Schema.checks in
      let p =
        {
          env;
          version = schema.Storage.Schema.version;
          checks = lazy (List.map (Eval.compile_pred env) checks);
          indexes =
            List.mapi (compile_index env)
              (Storage.Catalog.indexes_on ctx.Executor.catalog
                 schema.Storage.Schema.table_name);
        }
      in
      ts.Storage.Catalog.compiled <- Plan p;
      p

let set_row p values = !(p.env.Eval.cur).(0) <- values

(* Is [pred], compiled against the plan's env, TRUE on the row last set? *)
let holds pred = Result.map (Tvl.equal Tvl.True) (Eval.run pred)

(* ------------------------------------------------------------------ *)
(* Index entries                                                        *)

type entry = Pending | Absent | Key of Value.t array | Failed of Errors.t

let eval_entry p ip values =
  set_row p values;
  let keys, where = Lazy.force ip.compiled in
  let entry () =
    match where with
    | Some pred when not (Tvl.equal (pred ()) Tvl.True) -> Absent
    | _ -> Key (Array.map (fun key -> key ()) keys)
  in
  match Eval.run entry with Ok entry -> entry | Error e -> Failed e

(* One row's entries under every index of its plan, each evaluated at
   most once, on first use. *)
type row_entries = { plan : plan; row : Storage.Row.t; memo : entry array }

let row_entries p row =
  { plan = p; row; memo = Array.make (List.length p.indexes) Pending }

let entry m ip =
  match m.memo.(ip.slot) with
  | Pending ->
      let e = eval_entry m.plan ip m.row.Storage.Row.values in
      m.memo.(ip.slot) <- e;
      e
  | e -> e

let resolved_collations (schema : Storage.Schema.table)
    (definition : A.indexed_column list) : Collation.t array =
  Array.of_list
    (List.map
       (fun (ic : A.indexed_column) ->
         match ic.A.ic_collate with
         | Some c -> c
         | None -> (
             match ic.A.ic_expr with
             | A.Col { column; _ } -> (
                 match Storage.Schema.find_column schema column with
                 | Some (_, col) -> col.Storage.Schema.collation
                 | None -> Collation.Binary)
             | _ -> Collation.Binary))
       definition)

let build_index_entries ctx (ts : Storage.Catalog.table_state)
    (ix : Storage.Index.t) : (unit, Errors.t) result =
  Storage.Index.clear ix;
  let rows = Storage.Heap.to_list ts.Storage.Catalog.heap in
  let p = plan ctx ts in
  (* a new index is not in the plan yet *)
  let ip =
    match List.find_opt (fun ip -> ip.ix == ix) p.indexes with
    | Some ip -> ip
    | None -> compile_index p.env (-1) ix
  in
  let rec go = function
    | [] -> Ok ()
    | (row : Storage.Row.t) :: rest -> (
        match eval_entry p ip row.Storage.Row.values with
        | Pending | Absent -> go rest
        | Failed e -> Error e
        | Key key ->
            let conflicts =
              Storage.Index.unique_conflicts ix ~key
                ~rowid:row.Storage.Row.rowid
            in
            if conflicts <> [] then
              Error
                (err Errors.Unique_violation "UNIQUE constraint failed: %s.%s"
                   ts.Storage.Catalog.schema.Storage.Schema.table_name
                   ix.Storage.Index.index_name)
            else begin
              Storage.Index.add ix ~key ~rowid:row.Storage.Row.rowid;
              go rest
            end)
  in
  go rows

(* ------------------------------------------------------------------ *)
(* CREATE TABLE                                                         *)

let check_column_type (ctx : Executor.ctx) (c : A.column_def) =
  match (ctx.Executor.dialect, c.A.col_type) with
  | Dialect.Sqlite_like, Datatype.Serial ->
      Error (err Errors.Syntax_error "SERIAL is not supported by sqlite")
  | Dialect.Sqlite_like, Datatype.Int { unsigned = true; _ } ->
      Error (err Errors.Syntax_error "unsigned types are mysql-specific")
  | Dialect.Sqlite_like, _ -> Ok ()
  | Dialect.Mysql_like, Datatype.Any ->
      Error (err Errors.Syntax_error "column %s requires a type" c.A.col_name)
  | Dialect.Mysql_like, Datatype.Serial ->
      Error (err Errors.Syntax_error "SERIAL shorthand not modeled for mysql")
  | Dialect.Mysql_like, _ -> Ok ()
  | Dialect.Postgres_like, Datatype.Any ->
      Error (err Errors.Syntax_error "column %s requires a type" c.A.col_name)
  | Dialect.Postgres_like, Datatype.Int { unsigned = true; _ } ->
      Error (err Errors.Syntax_error "unsigned types are mysql-specific")
  | Dialect.Postgres_like, Datatype.Blob ->
      Ok () (* bytea *)
  | Dialect.Postgres_like, _ -> Ok ()

let implicit_index_name table n = Printf.sprintf "%s_autoindex_%d" table n

let create_unique_index_internal ctx (ts : Storage.Catalog.table_state)
    ~name ~columns : (unit, Errors.t) result =
  let schema = ts.Storage.Catalog.schema in
  let definition =
    List.map
      (fun c -> { A.ic_expr = A.col c; ic_collate = None; ic_desc = false })
      columns
  in
  let collations = resolved_collations schema definition in
  let ix =
    Storage.Index.create ~name ~table:schema.Storage.Schema.table_name
      ~unique:true ~definition ~collations ~where:None
  in
  let* () = build_index_entries ctx ts ix in
  Storage.Catalog.add_index ctx.Executor.catalog ix;
  Ok ()

let create_table ctx (ct : A.create_table) : (unit, Errors.t) result =
  cov ctx "ddl.create_table";
  let catalog = ctx.Executor.catalog in
  let name = ct.A.ct_name in
  if Storage.Catalog.table_exists catalog name
     || Storage.Catalog.view_exists catalog name
  then
    if ct.A.ct_if_not_exists then Ok ()
    else Error (err Errors.Object_exists "table %s already exists" name)
  else begin
    (* dialect feature gates *)
    let* () =
      if ct.A.ct_without_rowid then begin
        let has_pk =
          List.exists
            (function
              | A.T_primary_key _ -> true
              | A.T_unique _ | A.T_check _ -> false)
            ct.A.ct_constraints
          || List.exists
               (fun c -> List.mem A.C_primary_key c.A.col_constraints)
               ct.A.ct_columns
        in
        if not (Dialect.equal ctx.Executor.dialect Dialect.Sqlite_like) then
          Error (err Errors.Syntax_error "WITHOUT ROWID is sqlite-specific")
        else if has_pk then begin
          cov ctx "ddl.without_rowid";
          Ok ()
        end
        else
          Error
            (err Errors.Syntax_error
               "PRIMARY KEY missing on table %s WITHOUT ROWID" name)
      end
      else Ok ()
    in
    let* () =
      match ct.A.ct_engine with
      | Some _ when not (Dialect.equal ctx.Executor.dialect Dialect.Mysql_like)
        ->
          Error (err Errors.Syntax_error "ENGINE is mysql-specific")
      | _ -> Ok ()
    in
    let* parent =
      match ct.A.ct_inherits with
      | None -> Ok None
      | Some p ->
          if not (Dialect.equal ctx.Executor.dialect Dialect.Postgres_like)
          then Error (err Errors.Syntax_error "INHERITS is postgres-specific")
          else (
            cov ctx "ddl.inherits";
            match Storage.Catalog.find_table catalog p with
            | Some ts -> Ok (Some ts.Storage.Catalog.schema)
            | None -> Error (err Errors.No_such_table "no such table: %s" p))
    in
    let rec check_cols = function
      | [] -> Ok ()
      | c :: rest ->
          let* () = check_column_type ctx c in
          if c.A.col_type = Datatype.Serial then cov ctx "ddl.serial";
          check_cols rest
    in
    let* () = check_cols ct.A.ct_columns in
    (* duplicate column names *)
    let names = List.map (fun c -> String.lowercase_ascii c.A.col_name) ct.A.ct_columns in
    let* () =
      if List.length (List.sort_uniq compare names) <> List.length names then
        Error (err Errors.Syntax_error "duplicate column name in table %s" name)
      else Ok ()
    in
    (* primary key resolution *)
    let col_pk =
      List.filter_map
        (fun c ->
          if List.mem A.C_primary_key c.A.col_constraints then Some c.A.col_name
          else None)
        ct.A.ct_columns
    in
    let table_pk =
      List.filter_map
        (function
          | A.T_primary_key cols -> Some cols
          | A.T_unique _ | A.T_check _ -> None)
        ct.A.ct_constraints
    in
    let* primary_key =
      match (col_pk, table_pk) with
      | [], [] -> Ok []
      | pk, [] -> Ok pk
      | [], [ pk ] -> Ok pk
      | _ -> Error (err Errors.Syntax_error "multiple primary keys for table %s" name)
    in
    (* columns: parent's first (postgres merges same-named), then own *)
    let own_columns =
      List.map
        (fun (c : A.column_def) ->
          let collation =
            Option.value ~default:Collation.Binary c.A.col_collate
          in
          let not_null =
            List.mem A.C_not_null c.A.col_constraints
            || (List.exists
                  (fun pk -> String.lowercase_ascii pk = String.lowercase_ascii c.A.col_name)
                  primary_key
               &&
               (* sqlite rowid tables historically allow NULL PKs *)
               (ct.A.ct_without_rowid
               || not (Dialect.equal ctx.Executor.dialect Dialect.Sqlite_like)))
          in
          let default =
            List.find_map
              (function A.C_default e -> Some e | _ -> None)
              c.A.col_constraints
          in
          {
            Storage.Schema.name = c.A.col_name;
            ty = c.A.col_type;
            collation;
            not_null;
            default;
            in_primary_key =
              List.exists
                (fun pk ->
                  String.lowercase_ascii pk = String.lowercase_ascii c.A.col_name)
                primary_key;
            single_unique = List.mem A.C_unique c.A.col_constraints;
          })
        ct.A.ct_columns
    in
    let columns =
      match parent with
      | None -> Array.of_list own_columns
      | Some p ->
          (* postgres: parent columns come first; same-named own columns
             merge into (and are subsumed by) the parent's *)
          let parent_cols = Array.to_list p.Storage.Schema.columns in
          let own_extra =
            List.filter
              (fun (c : Storage.Schema.column) ->
                not
                  (List.exists
                     (fun (pc : Storage.Schema.column) ->
                       String.lowercase_ascii pc.Storage.Schema.name
                       = String.lowercase_ascii c.Storage.Schema.name)
                     parent_cols))
              own_columns
          in
          Array.of_list (parent_cols @ own_extra)
    in
    let table_uniques =
      List.filter_map
        (function
          | A.T_unique cols -> Some cols
          | A.T_primary_key _ | A.T_check _ -> None)
        ct.A.ct_constraints
    in
    (* CHECK constraints: table-level plus column-level, all evaluated in
       row context *)
    let checks =
      List.filter_map
        (function A.T_check e -> Some e | A.T_primary_key _ | A.T_unique _ -> None)
        ct.A.ct_constraints
      @ List.concat_map
          (fun (c : A.column_def) ->
            List.filter_map
              (function A.C_check e -> Some e | _ -> None)
              c.A.col_constraints)
          ct.A.ct_columns
    in
    (* note: as in postgres, the child does NOT inherit the parent's
       primary key or unique constraints — the root of paper Listing 15 *)
    let schema =
      Storage.Schema.make_table ~primary_key
        ~without_rowid:ct.A.ct_without_rowid ?engine:ct.A.ct_engine
        ?inherits:ct.A.ct_inherits ~table_uniques ~checks ~columns name
    in
    let ts = Storage.Catalog.add_table catalog schema in
    (* implicit unique indexes: PK then column uniques then table uniques *)
    let counter = ref 0 in
    let next_name () =
      incr counter;
      implicit_index_name name !counter
    in
    let* () =
      if primary_key = [] then Ok ()
      else
        create_unique_index_internal ctx ts ~name:(next_name ())
          ~columns:primary_key
    in
    let rec make_uniques = function
      | [] -> Ok ()
      | cols :: rest ->
          let* () =
            create_unique_index_internal ctx ts ~name:(next_name ()) ~columns:cols
          in
          make_uniques rest
    in
    let single_uniques =
      List.filter_map
        (fun (c : A.column_def) ->
          if List.mem A.C_unique c.A.col_constraints then Some [ c.A.col_name ]
          else None)
        ct.A.ct_columns
    in
    make_uniques (single_uniques @ table_uniques)
  end

let drop_table ctx ~if_exists name =
  cov ctx "ddl.drop_table";
  let catalog = ctx.Executor.catalog in
  if Storage.Catalog.table_exists catalog name then begin
    (* refuse to drop a parent with children (postgres needs CASCADE) *)
    if Storage.Catalog.children_of catalog name <> [] then
      Error (err Errors.Txn_state "cannot drop table %s: other objects depend on it" name)
    else begin
      ignore (Storage.Catalog.drop_table catalog name);
      Ok ()
    end
  end
  else if if_exists then Ok ()
  else Error (err Errors.No_such_table "no such table: %s" name)

(* ------------------------------------------------------------------ *)
(* ALTER TABLE                                                          *)

(* Rewrite the column references [rename] maps in the expressions stored
   with a table — its CHECK constraints and the definitions and
   partial-index predicates of its indexes — so they follow an ALTER TABLE
   rename.  Indexes [skip] selects keep their stale definition. *)
let rename_refs catalog (schema : Storage.Schema.table) ~table
    ?(skip = fun _ -> false) rename =
  let rw =
    A.map_expr (fun node ->
        match node with
        | A.Col { table; column } ->
            Option.value ~default:node (rename table column)
        | _ -> node)
  in
  schema.Storage.Schema.checks <- List.map rw schema.Storage.Schema.checks;
  catalog.Storage.Catalog.indexes <-
    List.map
      (fun (k, ix) ->
        if
          String.lowercase_ascii ix.Storage.Index.on_table
          = String.lowercase_ascii table
          && not (skip ix)
        then
          (* the record fields are immutable, so rebuild the index *)
          ( k,
            {
              ix with
              Storage.Index.definition =
                List.map
                  (fun (ic : A.indexed_column) ->
                    { ic with A.ic_expr = rw ic.A.ic_expr })
                  ix.Storage.Index.definition;
              where = Option.map rw ix.Storage.Index.where;
            } )
        else (k, ix))
      catalog.Storage.Catalog.indexes

let alter_table ctx name (action : A.alter_action) : (unit, Errors.t) result =
  let catalog = ctx.Executor.catalog in
  match Storage.Catalog.find_table catalog name with
  | None -> Error (err Errors.No_such_table "no such table: %s" name)
  | Some ts -> (
      let schema = ts.Storage.Catalog.schema in
      (* every action changes what the table's write plan compiles *)
      Storage.Schema.bump_version schema;
      match action with
      | A.Rename_table new_name ->
          cov ctx "ddl.alter_rename_table";
          if Storage.Catalog.table_exists catalog new_name then
            Error (err Errors.Object_exists "table %s already exists" new_name)
          else begin
            catalog.Storage.Catalog.tables <-
              List.map
                (fun (k, v) ->
                  if k = String.lowercase_ascii name then
                    (String.lowercase_ascii new_name, v)
                  else (k, v))
                catalog.Storage.Catalog.tables;
            schema.Storage.Schema.table_name <- new_name;
            (* keep index back-references in sync *)
            catalog.Storage.Catalog.indexes <-
              List.map
                (fun (k, ix) ->
                  if
                    String.lowercase_ascii ix.Storage.Index.on_table
                    = String.lowercase_ascii name
                  then (k, { ix with Storage.Index.on_table = new_name })
                  else (k, ix))
                catalog.Storage.Catalog.indexes;
            (* and table-qualified columns in CHECKs and index predicates *)
            rename_refs catalog schema ~table:new_name (fun table column ->
                match table with
                | Some t
                  when String.lowercase_ascii t = String.lowercase_ascii name
                  ->
                    Some (A.Col { table = Some new_name; column })
                | _ -> None);
            Ok ()
          end
      | A.Rename_column { old_name; new_name } -> (
          cov ctx "ddl.alter_rename_column";
          match Storage.Schema.find_column schema old_name with
          | None ->
              Error (err Errors.No_such_column "no such column: %s" old_name)
          | Some (i, col) ->
              if Storage.Schema.find_column schema new_name <> None then
                Error
                  (err Errors.Object_exists "duplicate column name: %s" new_name)
              else begin
                schema.Storage.Schema.columns.(i) <-
                  { col with Storage.Schema.name = new_name };
                schema.Storage.Schema.primary_key <-
                  List.map
                    (fun pk ->
                      if String.lowercase_ascii pk = String.lowercase_ascii old_name
                      then new_name
                      else pk)
                    schema.Storage.Schema.primary_key;
                (* rewrite CHECKs, index definitions and partial-index
                   predicates; the injected Listing 8 defect leaves
                   expression indexes pointing at the old name *)
                let buggy ix =
                  Dialect.equal ctx.Executor.dialect Dialect.Sqlite_like
                  && Bug.on ctx.Executor.bugs Bug.Sq_alter_rename_expr_index
                  && Storage.Index.is_expression_index ix
                in
                if List.exists buggy (Storage.Catalog.indexes_on catalog name)
                then schema.Storage.Schema.broken_expr_index <- true;
                rename_refs catalog schema ~table:name ~skip:buggy
                  (fun table column ->
                    if
                      String.lowercase_ascii column
                      = String.lowercase_ascii old_name
                    then Some (A.Col { table; column = new_name })
                    else None);
                Ok ()
              end)
      | A.Add_column cd -> (
          cov ctx "ddl.alter_add_column";
          let* () = check_column_type ctx cd in
          match Storage.Schema.find_column schema cd.A.col_name with
          | Some _ ->
              Error
                (err Errors.Object_exists "duplicate column name: %s"
                   cd.A.col_name)
          | None ->
              let default =
                List.find_map
                  (function A.C_default e -> Some e | _ -> None)
                  cd.A.col_constraints
              in
              let* default_value =
                match default with
                | None -> Ok Value.Null
                | Some e -> Eval.run (Eval.compile (Executor.eval_env ctx) e)
              in
              let col =
                {
                  Storage.Schema.name = cd.A.col_name;
                  ty = cd.A.col_type;
                  collation =
                    Option.value ~default:Collation.Binary cd.A.col_collate;
                  not_null = List.mem A.C_not_null cd.A.col_constraints;
                  default;
                  in_primary_key = false;
                  single_unique = false;
                }
              in
              if col.Storage.Schema.not_null && default = None
                 && Storage.Heap.row_count ts.Storage.Catalog.heap > 0
              then
                Error
                  (err Errors.Not_null_violation
                     "cannot add NOT NULL column %s without default"
                     cd.A.col_name)
              else begin
                schema.Storage.Schema.checks <-
                  schema.Storage.Schema.checks
                  @ List.filter_map
                      (function A.C_check e -> Some e | _ -> None)
                      cd.A.col_constraints;
                schema.Storage.Schema.columns <-
                  Array.append schema.Storage.Schema.columns [| col |];
                (* widen existing rows *)
                let heap = ts.Storage.Catalog.heap in
                List.iter
                  (fun (r : Storage.Row.t) ->
                    ignore
                      (Storage.Heap.insert_with_rowid heap
                         ~rowid:r.Storage.Row.rowid
                         (Array.append r.Storage.Row.values [| default_value |])))
                  (Storage.Heap.to_list heap);
                Ok ()
              end)
      | A.Drop_column cname -> (
          cov ctx "ddl.alter_drop_column";
          match Storage.Schema.find_column schema cname with
          | None -> Error (err Errors.No_such_column "no such column: %s" cname)
          | Some (i, col) ->
              let names e =
                A.expr_columns e
                |> List.exists (fun (_, c) ->
                       String.lowercase_ascii c = String.lowercase_ascii cname)
              in
              (* an index key, a partial-index predicate or a CHECK naming
                 the column would be left dangling *)
              let referenced =
                List.exists names schema.Storage.Schema.checks
                || Storage.Catalog.indexes_on catalog name
                   |> List.exists (fun ix ->
                          List.exists
                            (fun (ic : A.indexed_column) -> names ic.A.ic_expr)
                            ix.Storage.Index.definition
                          || Option.fold ~none:false ~some:names
                               ix.Storage.Index.where)
              in
              if col.Storage.Schema.in_primary_key || referenced then
                Error
                  (err Errors.Syntax_error
                     "cannot drop column %s: used by an index, CHECK or \
                      primary key"
                     cname)
              else if Array.length schema.Storage.Schema.columns <= 1 then
                Error (err Errors.Syntax_error "cannot drop the only column")
              else begin
                schema.Storage.Schema.columns <-
                  Array.of_list
                    (List.filteri
                       (fun j _ -> j <> i)
                       (Array.to_list schema.Storage.Schema.columns));
                let heap = ts.Storage.Catalog.heap in
                List.iter
                  (fun (r : Storage.Row.t) ->
                    let values =
                      Array.of_list
                        (List.filteri
                           (fun j _ -> j <> i)
                           (Array.to_list r.Storage.Row.values))
                    in
                    ignore
                      (Storage.Heap.insert_with_rowid heap
                         ~rowid:r.Storage.Row.rowid values))
                  (Storage.Heap.to_list heap);
                Ok ()
              end))

(* ------------------------------------------------------------------ *)
(* CREATE INDEX / views                                                 *)

let create_index ctx (ci : A.create_index) : (unit, Errors.t) result =
  cov ctx "ddl.create_index";
  let catalog = ctx.Executor.catalog in
  if Storage.Catalog.index_exists catalog ci.A.ci_name then
    if ci.A.ci_if_not_exists then Ok ()
    else Error (err Errors.Object_exists "index %s already exists" ci.A.ci_name)
  else
    match Storage.Catalog.find_table catalog ci.A.ci_table with
    | None -> Error (err Errors.No_such_table "no such table: %s" ci.A.ci_table)
    | Some ts ->
        let schema = ts.Storage.Catalog.schema in
        let* () =
          if ci.A.ci_where <> None then
            if Dialect.equal ctx.Executor.dialect Dialect.Mysql_like then
              Error
                (err Errors.Syntax_error "partial indexes are not supported")
            else begin
              cov ctx "ddl.partial_index_def";
              Ok ()
            end
          else Ok ()
        in
        if ci.A.ci_unique then cov ctx "ddl.unique_index";
        let has_expr =
          List.exists
            (fun (ic : A.indexed_column) ->
              match ic.A.ic_expr with A.Col _ -> false | _ -> true)
            ci.A.ci_columns
        in
        if has_expr then cov ctx "ddl.expr_index";
        if List.exists (fun ic -> ic.A.ic_collate <> None) ci.A.ci_columns then
          cov ctx "ddl.collate_index";
        (* every referenced column must exist *)
        let missing =
          List.concat_map
            (fun (ic : A.indexed_column) -> A.expr_columns ic.A.ic_expr)
            ci.A.ci_columns
          @ (match ci.A.ci_where with
            | Some w -> A.expr_columns w
            | None -> [])
          |> List.filter (fun (_, c) -> Storage.Schema.find_column schema c = None)
        in
        let* () =
          match missing with
          | [] -> Ok ()
          | (_, c) :: _ ->
              Error (err Errors.No_such_column "no such column: %s" c)
        in
        let collations = resolved_collations schema ci.A.ci_columns in
        let ix =
          Storage.Index.create ~name:ci.A.ci_name ~table:ci.A.ci_table
            ~unique:ci.A.ci_unique ~definition:ci.A.ci_columns ~collations
            ~where:ci.A.ci_where
        in
        let* () = build_index_entries ctx ts ix in
        Storage.Catalog.add_index catalog ix;
        Ok ()

let drop_index ctx ~if_exists name =
  cov ctx "ddl.drop_index";
  if Storage.Catalog.drop_index ctx.Executor.catalog name then Ok ()
  else if if_exists then Ok ()
  else Error (err Errors.No_such_index "no such index: %s" name)

let create_view ctx name query =
  cov ctx "ddl.create_view";
  let catalog = ctx.Executor.catalog in
  if Storage.Catalog.view_exists catalog name
     || Storage.Catalog.table_exists catalog name
  then Error (err Errors.Object_exists "view %s already exists" name)
  else
    (* validate by running once *)
    let* _rs = Compile.run_query ctx query in
    Storage.Catalog.add_view catalog
      { Storage.Catalog.view_name = name; view_query = query };
    Ok ()

let drop_view ctx ~if_exists name =
  cov ctx "ddl.drop_view";
  if Storage.Catalog.drop_view ctx.Executor.catalog name then Ok ()
  else if if_exists then Ok ()
  else Error (err Errors.No_such_view "no such view: %s" name)
