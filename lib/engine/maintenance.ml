open Sqlval
module A = Sqlast.Ast

let cov (ctx : Executor.ctx) point =
  match ctx.Executor.coverage with None -> () | Some c -> Coverage.hit c point

let bug (ctx : Executor.ctx) b = Bug.on ctx.Executor.bugs b
let is_dialect (ctx : Executor.ctx) d = Dialect.equal ctx.Executor.dialect d

let index_mentions_like (ix : Storage.Index.t) =
  let has_like e =
    A.fold_expr
      (fun acc x -> acc || match x with A.Like _ -> true | _ -> false)
      false e
  in
  List.exists (fun (ic : A.indexed_column) -> has_like ic.A.ic_expr)
    ix.Storage.Index.definition
  || Option.fold ~none:false ~some:has_like ix.Storage.Index.where

let all_indexes (ctx : Executor.ctx) =
  List.map snd ctx.Executor.catalog.Storage.Catalog.indexes

(* Rebuild every index of a table from its heap. *)
let rebuild_table_indexes ctx (ts : Storage.Catalog.table_state) =
  List.iter
    (Ddl.build_index_entries ctx ts)
    (Storage.Catalog.indexes_on ctx.Executor.catalog
       ts.Storage.Catalog.schema.Storage.Schema.table_name)

(* ------------------------------------------------------------------ *)
(* VACUUM                                                               *)

let vacuum ctx ~full =
  cov ctx (if full then "maint.vacuum_full" else "maint.vacuum");
  if is_dialect ctx Dialect.Mysql_like then
    Eval.failf Errors.Syntax_error "VACUUM is not supported; use OPTIMIZE";
  if full && is_dialect ctx Dialect.Sqlite_like then
    Eval.failf Errors.Syntax_error "VACUUM FULL is postgres-specific";
  (* Listing 9: LIKE expression index + flipped case_sensitive_like *)
  if
    is_dialect ctx Dialect.Sqlite_like
    && bug ctx Bug.Sq_pragma_like_index_vacuum
    && Options.like_pragma_touched ctx.Executor.options
    && List.exists index_mentions_like (all_indexes ctx)
  then
    let ix = List.find index_mentions_like (all_indexes ctx) in
    Eval.failf Errors.Malformed_database
      "malformed database schema (%s) - non-deterministic functions \
       prohibited in index expressions"
      ix.Storage.Index.index_name
  else if
    (* intended-class variant: pragma change with a NOCASE index *)
    is_dialect ctx Dialect.Sqlite_like
    && bug ctx Bug.Sq_intended_pragma_vacuum
    && Options.like_pragma_touched ctx.Executor.options
    && List.exists
         (fun ix ->
           Array.exists
             (fun c -> Collation.equal c Collation.Nocase)
             ix.Storage.Index.collations)
         (all_indexes ctx)
  then
    Eval.failf Errors.Internal_error "schema and data disagree after PRAGMA change"
  else if
    is_dialect ctx Dialect.Sqlite_like
    && bug ctx Bug.Sq_vacuum_partial_index_corrupt
    && List.exists Storage.Index.is_partial (all_indexes ctx)
  then begin
    Storage.Catalog.corrupt ctx.Executor.catalog
      "database disk image is malformed";
    Eval.failf Errors.Malformed_database "database disk image is malformed"
  end
  else if
    is_dialect ctx Dialect.Postgres_like && full
    && bug ctx Bug.Pg_intended_vacuum_full_deadlock
  then Eval.failf Errors.Internal_error "deadlock detected"
  else begin
    (* compact each heap: renumber rowids, then rebuild indexes *)
    let tables =
      List.map snd ctx.Executor.catalog.Storage.Catalog.tables
    in
    let skip_index_rebuild =
      is_dialect ctx Dialect.Sqlite_like
      && bug ctx Bug.Sq_vacuum_index_desync
    in
    List.iter
      (fun (ts : Storage.Catalog.table_state) ->
        let rows = Storage.Heap.to_list ts.Storage.Catalog.heap in
        Storage.Heap.clear ts.Storage.Catalog.heap;
        List.iter
          (fun (r : Storage.Row.t) ->
            ignore
              (Storage.Heap.insert ts.Storage.Catalog.heap
                 r.Storage.Row.values))
          rows;
        if not skip_index_rebuild then begin
          (* postgres Listing 18: expression-index expressions are
             re-evaluated during VACUUM; with the intended-class
             defect enabled an overflow surfaces here *)
          (* width-aware overflow: postgres evaluates 1 + c0 in
             the column's width, so re-evaluation at VACUUM time
             overflows for boundary values (Listing 18) *)
          let width_overflow () =
            Storage.Catalog.indexes_on ctx.Executor.catalog
              ts.Storage.Catalog.schema.Storage.Schema.table_name
            |> List.exists (fun ix ->
                   List.exists
                     (fun (ic : A.indexed_column) ->
                       match ic.A.ic_expr with
                       | A.Binary (A.Add, A.Col { column; _ }, A.Lit (Value.Int k))
                       | A.Binary (A.Add, A.Lit (Value.Int k), A.Col { column; _ })
                         -> (
                           match
                             Storage.Schema.find_column
                               ts.Storage.Catalog.schema column
                           with
                           | Some (i, col) -> (
                               match col.Storage.Schema.ty with
                               | Datatype.Int _ | Datatype.Serial ->
                                   let width =
                                     match col.Storage.Schema.ty with
                                     | Datatype.Int { width; _ } -> width
                                     | _ -> Datatype.Regular
                                   in
                                   let _, hi = Datatype.int_range width in
                                   Storage.Heap.to_list
                                     ts.Storage.Catalog.heap
                                   |> List.exists (fun (r : Storage.Row.t) ->
                                          match Storage.Row.get r i with
                                          | Value.Int v ->
                                              k > 0L && v > Int64.sub hi k
                                          | _ -> false)
                               | _ -> false)
                           | None -> false)
                       | _ -> false)
                     ix.Storage.Index.definition)
          in
          if
            is_dialect ctx Dialect.Postgres_like
            && bug ctx Bug.Pg_intended_vacuum_overflow
            && width_overflow ()
          then Eval.failf Errors.Out_of_range "integer out of range"
          else if is_dialect ctx Dialect.Postgres_like then
            (* a failed postgres rebuild is caught: with the
               defect an overflow is raised again with postgres's
               message, and without it the rebuild skips failing
               rows, as the optimized index build does in
               postgres *)
            Eval.catch (rebuild_table_indexes ctx) ts ~error:(fun e ->
                if not (bug ctx Bug.Pg_intended_vacuum_overflow) then ()
                else if
                  Errors.equal_code e.Errors.code Errors.Out_of_range
                then Eval.failf Errors.Out_of_range "integer out of range"
                else Eval.fail e)
          else rebuild_table_indexes ctx ts
        end)
      tables
  end

(* ------------------------------------------------------------------ *)
(* REINDEX                                                              *)

let reindex ctx target =
  cov ctx "maint.reindex";
  if is_dialect ctx Dialect.Mysql_like then
    Eval.failf Errors.Syntax_error "REINDEX is not supported";
  if
    is_dialect ctx Dialect.Postgres_like && bug ctx Bug.Pg_reindex_deadlock
  then Eval.failf Errors.Internal_error "deadlock detected"
  else if
    (* intended-class: REINDEX re-parses stored boolean literals
       strictly and rejects them *)
    is_dialect ctx Dialect.Postgres_like
    && bug ctx Bug.Pg_intended_bool_cast_error
    && List.exists
         (fun (_, ts) ->
           Array.exists
             (fun (c : Storage.Schema.column) ->
               c.Storage.Schema.ty = Datatype.Bool)
             ts.Storage.Catalog.schema.Storage.Schema.columns
           && Storage.Catalog.indexes_on ctx.Executor.catalog
                ts.Storage.Catalog.schema.Storage.Schema.table_name
              <> [])
         ctx.Executor.catalog.Storage.Catalog.tables
  then
    Eval.failf Errors.Type_error "invalid input syntax for type boolean: \"2\""
  else begin
    let indexes =
      match target with
      | None -> all_indexes ctx
      | Some name -> (
          match Storage.Catalog.find_index ctx.Executor.catalog name with
          | Some ix -> [ ix ]
          | None -> [])
    in
    List.iter
      (fun (ix : Storage.Index.t) ->
          match
            Storage.Catalog.find_table ctx.Executor.catalog
              ix.Storage.Index.on_table
          with
          | None -> ()
          | Some ts ->
              (* Listing 8 class: a renamed column left an expression
                 index stale *)
              if
                ts.Storage.Catalog.schema.Storage.Schema.broken_expr_index
                && Storage.Index.is_expression_index ix
              then
                Eval.failf Errors.Malformed_database
                  "malformed database schema (%s) - no such column"
                  ix.Storage.Index.index_name
              else if
                (* REINDEX/RTRIM class: keys rebuilt untrimmed collide
                   detection is inverted — rebuilt keys *lose* the
                   collation folding, so previously-distinct entries
                   spuriously collide *)
                is_dialect ctx Dialect.Sqlite_like
                && bug ctx Bug.Sq_reindex_rtrim_unique
                && ix.Storage.Index.unique
                && Array.exists
                     (fun c -> Collation.equal c Collation.Rtrim)
                     ix.Storage.Index.collations
                &&
                (* two rows whose keys differ only in trailing spaces
                   would now collide... or the inverse: distinct-under-
                   rtrim keys get folded; either way, report *)
                Storage.Heap.row_count ts.Storage.Catalog.heap >= 2
              then
                Eval.failf Errors.Unique_violation
                  "UNIQUE constraint failed: index '%s'"
                  ix.Storage.Index.index_name
              else Ddl.build_index_entries ctx ts ix)
      indexes
  end

(* ------------------------------------------------------------------ *)
(* ANALYZE                                                              *)

let analyze ctx target =
  cov ctx "maint.analyze";
  ignore target;
  (* postgres crash class: extended statistics over boolean columns *)
  if
    is_dialect ctx Dialect.Postgres_like
    && bug ctx Bug.Pg_stats_analyze_crash
    && List.exists
         (fun (_, (s : Storage.Catalog.statistics)) ->
           match
             Storage.Catalog.find_table ctx.Executor.catalog
               s.Storage.Catalog.stat_table
           with
           | Some ts ->
               List.exists
                 (fun c ->
                   match
                     Storage.Schema.find_column ts.Storage.Catalog.schema c
                   with
                   | Some (_, col) -> col.Storage.Schema.ty = Datatype.Bool
                   | None -> false)
                 s.Storage.Catalog.stat_columns
           | None -> false)
         ctx.Executor.catalog.Storage.Catalog.stats
  then
    raise (Errors.Crash "segfault: null extended-statistics slot in ANALYZE")
  else ctx.Executor.catalog.Storage.Catalog.analyzed <- true

(* ------------------------------------------------------------------ *)
(* CHECK / REPAIR TABLE (mysql)                                         *)

let check_table ctx ~table ~for_upgrade =
  cov ctx "maint.check_table";
  if not (is_dialect ctx Dialect.Mysql_like) then
    Eval.failf Errors.Syntax_error "CHECK TABLE is mysql-specific";
  match Storage.Catalog.find_table ctx.Executor.catalog table with
  | None -> Eval.failf Errors.No_such_table "no such table: %s" table
  | Some ts ->
      let indexes =
        Storage.Catalog.indexes_on ctx.Executor.catalog
          ts.Storage.Catalog.schema.Storage.Schema.table_name
      in
      (* Listing 14 / CVE-2019-2879 *)
      if
        for_upgrade
        && bug ctx Bug.My_check_upgrade_expr_index_crash
        && List.exists Storage.Index.is_expression_index indexes
      then
        raise
          (Errors.Crash
             "segfault: CHECK TABLE ... FOR UPGRADE on expression index")
      else if
        bug ctx Bug.My_check_table_false_corrupt
        && List.exists
             (fun ix ->
               ix.Storage.Index.unique
               &&
               let has_null = ref false in
               Storage.Index.iter
                 (fun key _ ->
                   if Array.exists Value.is_null key then has_null := true)
                 ix;
               !has_null)
             indexes
      then Eval.failf Errors.Internal_error "Table '%s' check: Corrupt" table

let repair_table ctx table =
  cov ctx "maint.repair_table";
  if not (is_dialect ctx Dialect.Mysql_like) then
    Eval.failf Errors.Syntax_error "REPAIR TABLE is mysql-specific";
  match Storage.Catalog.find_table ctx.Executor.catalog table with
  | None -> Eval.failf Errors.No_such_table "no such table: %s" table
  | Some ts ->
      if
        bug ctx Bug.My_repair_marks_crashed
        && ts.Storage.Catalog.schema.Storage.Schema.engine = Some A.E_myisam
      then
        Eval.failf Errors.Internal_error
          "Table '%s' is marked as crashed and last (automatic?) repair \
           failed"
          table
      else rebuild_table_indexes ctx ts

(* ------------------------------------------------------------------ *)
(* CREATE STATISTICS / DISCARD (postgres)                               *)

let create_statistics ctx ~name ~table ~columns =
  cov ctx "maint.create_statistics";
  if not (is_dialect ctx Dialect.Postgres_like) then
    Eval.failf Errors.Syntax_error "CREATE STATISTICS is postgres-specific";
  if Storage.Catalog.statistics_exists ctx.Executor.catalog name then
    Eval.failf Errors.Object_exists "statistics %s already exist" name;
  match Storage.Catalog.find_table ctx.Executor.catalog table with
  | None -> Eval.failf Errors.No_such_table "no such table: %s" table
  | Some ts ->
      List.iter
        (fun c ->
          if Storage.Schema.find_column ts.Storage.Catalog.schema c = None then
            Eval.failf Errors.No_such_column "no such column: %s" c)
        columns;
      if List.length columns < 2 then
        Eval.failf Errors.Syntax_error "extended statistics require at least 2 columns";
      Storage.Catalog.add_statistics ctx.Executor.catalog
        {
          Storage.Catalog.stat_name = name;
          stat_table = table;
          stat_columns = columns;
        }

let discard_all ctx =
  cov ctx "maint.discard";
  if not (is_dialect ctx Dialect.Postgres_like) then
    Eval.failf Errors.Syntax_error "DISCARD is postgres-specific"
