open Sqlval

type column_info = {
  ci_name : string;
  ci_type : Datatype.t;
  ci_collation : Collation.t;
  ci_not_null : bool;
}

type table_info = {
  ti_name : string;
  ti_columns : column_info list;
  ti_without_rowid : bool;
  ti_engine : Sqlast.Ast.table_engine option;
  ti_has_children : bool;
  ti_row_count : int;
}

let pp_table_info fmt ti =
  Format.fprintf fmt "%s(%s)%s" ti.ti_name
    (String.concat ", "
       (List.map
          (fun c -> c.ci_name ^ " " ^ Datatype.to_sql c.ci_type)
          ti.ti_columns))
    (if ti.ti_without_rowid then " WITHOUT ROWID" else "")

let tables_of_session session =
  let catalog = Engine.Session.catalog session in
  List.filter_map
    (fun name ->
      match Storage.Catalog.find_table catalog name with
      | None -> None
      | Some ts ->
          let schema = ts.Storage.Catalog.schema in
          let columns =
            Array.to_list schema.Storage.Schema.columns
            |> List.map (fun (c : Storage.Schema.column) ->
                   {
                     ci_name = c.Storage.Schema.name;
                     ci_type = c.Storage.Schema.ty;
                     ci_collation = c.Storage.Schema.collation;
                     ci_not_null = c.Storage.Schema.not_null;
                   })
          in
          Some
            {
              ti_name = schema.Storage.Schema.table_name;
              ti_columns = columns;
              ti_without_rowid = schema.Storage.Schema.without_rowid;
              ti_engine = schema.Storage.Schema.engine;
              ti_has_children =
                Storage.Catalog.children_of catalog name <> [];
              ti_row_count = Storage.Heap.row_count ts.Storage.Catalog.heap;
            })
    (Storage.Catalog.table_names catalog)

let contains_substring needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let index_names_of_session session =
  Storage.Catalog.index_names (Engine.Session.catalog session)
  |> List.filter (fun n ->
         (* skip the implicit constraint autoindexes *)
         not (contains_substring "_autoindex_" n))

let rows_of_table session table =
  let catalog = Engine.Session.catalog session in
  match Storage.Catalog.find_table catalog table with
  | None -> []
  | Some ts ->
      (* like SELECT *, the scan includes postgres-inherited child rows
         projected onto the parent's columns *)
      Engine.Executor.scan_table (Engine.Session.ctx session) ts
      |> List.map (fun (r : Storage.Row.t) -> Array.copy r.Storage.Row.values)

let view_pivot_sources session =
  let catalog = Engine.Session.catalog session in
  List.filter_map
    (fun name ->
      match Storage.Catalog.find_view catalog name with
      | None -> None
      | Some v -> (
          match
            Engine.Compile.run_query
              (Engine.Session.ctx session)
              v.Storage.Catalog.view_query
          with
          | Error _ -> None
          | Ok rs ->
              let width = List.length rs.Engine.Executor.rs_columns in
              (* column names must be plain identifiers to be referenced *)
              let ok_name n =
                n <> ""
                && String.for_all
                     (fun c ->
                       (c >= 'a' && c <= 'z')
                       || (c >= 'A' && c <= 'Z')
                       || (c >= '0' && c <= '9')
                       || c = '_')
                     n
              in
              if width = 0 || not (List.for_all ok_name rs.Engine.Executor.rs_columns)
              then None
              else
                let columns =
                  List.map
                    (fun n ->
                      {
                        ci_name = n;
                        ci_type = Datatype.Any;
                        ci_collation = Collation.Binary;
                        ci_not_null = false;
                      })
                    rs.Engine.Executor.rs_columns
                in
                Some
                  ( {
                      ti_name = name;
                      ti_columns = columns;
                      ti_without_rowid = false;
                      ti_engine = None;
                      ti_has_children = false;
                      ti_row_count = List.length rs.Engine.Executor.rs_rows;
                    },
                    rs.Engine.Executor.rs_rows )))
    (Storage.Catalog.view_names catalog)
