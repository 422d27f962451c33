open Sqlval
module A = Sqlast.Ast

let ( let* ) = Result.bind

let cov (ctx : Executor.ctx) point =
  match ctx.Executor.coverage with None -> () | Some c -> Coverage.hit c point

let bug (ctx : Executor.ctx) b = Bug.on ctx.Executor.bugs b
let err code fmt = Errors.makef code fmt

let find_table (ctx : Executor.ctx) table =
  match Storage.Catalog.find_table ctx.Executor.catalog table with
  | Some ts -> Ok ts
  | None ->
      if Storage.Catalog.view_exists ctx.Executor.catalog table then
        Error (err Errors.Unsupported "cannot modify view %s" table)
      else Error (err Errors.No_such_table "no such table: %s" table)

(* ------------------------------------------------------------------ *)
(* Index maintenance helpers                                            *)

let indexes_of ctx (ts : Storage.Catalog.table_state) =
  Storage.Catalog.indexes_on ctx.Executor.catalog
    ts.Storage.Catalog.schema.Storage.Schema.table_name

(* Apply [apply] to each of [ips] holding an entry for the row, with the
   entry's key and the row's rowid; stops at the first key that fails to
   evaluate.  The [apply]s are top-level, so a row builds no closure. *)
let rec iter_entries m apply = function
  | [] -> Ok ()
  | (ip : Ddl.index_plan) :: rest -> (
      match Ddl.entry m ip with
      | Ddl.Key key ->
          apply ip.Ddl.ix ~key ~rowid:m.Ddl.row.Storage.Row.rowid;
          iter_entries m apply rest
      | Ddl.Absent | Ddl.Pending -> iter_entries m apply rest
      | Ddl.Failed e -> Error e)

let attach m ips = iter_entries m Storage.Index.add ips
let remove_entry ix ~key ~rowid = ignore (Storage.Index.remove ix ~key ~rowid)

(* Undoing a failed [attach] over the same [ips] detaches exactly the
   entries it added: it stops at the same memoized failure. *)
let detach m ips = iter_entries m remove_entry ips

(* Evaluate the entries without touching an index. *)
let force m ips = iter_entries m (fun _ ~key:_ ~rowid:_ -> ()) ips

let remove_row p ts (row : Storage.Row.t) =
  let* () = detach (Ddl.row_entries p row) p.Ddl.indexes in
  Storage.Heap.delete ts.Storage.Catalog.heap row.Storage.Row.rowid;
  Ok ()

(* OR REPLACE: remove every row the candidate conflicts with *)
let remove_victims p ts conflicts =
  List.concat_map snd conflicts
  |> List.sort_uniq Int64.compare
  |> List.fold_left
       (fun acc id ->
         let* () = acc in
         match Storage.Heap.find ts.Storage.Catalog.heap id with
         | Some victim -> remove_row p ts victim
         | None -> Ok ())
       (Ok ())

(* The implicit primary-key index is the first autoindex over the PK
   columns; used by the Listing 4 injection. *)
let pk_index ctx (ts : Storage.Catalog.table_state) =
  let schema = ts.Storage.Catalog.schema in
  if schema.Storage.Schema.primary_key = [] then None
  else
    indexes_of ctx ts
    |> List.find_opt (fun ix ->
           ix.Storage.Index.unique
           && List.map
                (fun (ic : A.indexed_column) ->
                  match ic.A.ic_expr with
                  | A.Col { column; _ } -> String.lowercase_ascii column
                  | _ -> "?")
                ix.Storage.Index.definition
              = List.map String.lowercase_ascii schema.Storage.Schema.primary_key)

(* Listing 4 injection, decided once per statement: the primary-key index
   of a sqlite WITHOUT ROWID table ... *)
let buggy_pk_index ctx (ts : Storage.Catalog.table_state) =
  if
    ts.Storage.Catalog.schema.Storage.Schema.without_rowid
    && Dialect.equal ctx.Executor.dialect Dialect.Sqlite_like
    && bug ctx Bug.Sq_nocase_unique_pk_collapse
  then pk_index ctx ts
  else None

(* ... whose PK column also carries a NOCASE index: the PK probe folds
   case *)
let nocase_pk_collapse ctx ts = function
  | Some pk
    when List.exists
           (fun other ->
             other.Storage.Index.index_name <> pk.Storage.Index.index_name
             && Array.exists
                  (fun c -> Collation.equal c Collation.Nocase)
                  other.Storage.Index.collations)
           (indexes_of ctx ts) ->
      Some pk
  | _ -> None

let is_index (ix : Storage.Index.t) = function
  | Some (o : Storage.Index.t) ->
      o.Storage.Index.index_name = ix.Storage.Index.index_name
  | None -> false

(* Listing 4's conflicts: the candidate's key folded under NOCASE, and
   when that misses, a NOCASE scan of the whole index. *)
let collapsed_conflicts ix ~rowid key =
  let key =
    Array.map
      (fun v ->
        match v with
        | Value.Text s -> Value.Text (Collation.key Collation.Nocase s)
        | _ -> v)
      key
  in
  match Storage.Index.unique_conflicts ix ~key ~rowid with
  | [] when Array.exists (function Value.Text _ -> true | _ -> false) key ->
      (* the buggy folded key may not hit the binary index entries: probe
         under NOCASE manually *)
      let acc = ref [] in
      Storage.Index.iter
        (fun k id ->
          if
            (not (Int64.equal id rowid))
            && Array.length k = Array.length key
            && Array.for_all2
                 (fun a b ->
                   match (a, b) with
                   | Value.Text x, Value.Text y ->
                       Collation.equal_under Collation.Nocase x y
                   | _ -> Value.equal a b)
                 k key
          then acc := id :: !acc)
        ix;
      !acc
  | conflicts -> conflicts

(* Conflicting rowids for a candidate row across the unique indexes of
   [ips], consed onto [acc] as (index, conflicting rowids) pairs.
   [collapse] is the statement's {!nocase_pk_collapse}. *)
let rec conflicts_from collapse m acc = function
  | [] -> Ok (List.rev acc)
  | (ip : Ddl.index_plan) :: rest -> (
      let ix = ip.Ddl.ix in
      if not ix.Storage.Index.unique then conflicts_from collapse m acc rest
      else
        match Ddl.entry m ip with
        | Ddl.Absent | Ddl.Pending -> conflicts_from collapse m acc rest
        | Ddl.Failed e -> Error e
        | Ddl.Key key -> (
            let rowid = m.Ddl.row.Storage.Row.rowid in
            match
              if is_index ix collapse then collapsed_conflicts ix ~rowid key
              else Storage.Index.unique_conflicts ix ~key ~rowid
            with
            | [] -> conflicts_from collapse m acc rest
            | conflicts ->
                conflicts_from collapse m ((ix, conflicts) :: acc) rest))

let unique_conflicts_for ~collapse m =
  conflicts_from collapse m [] m.Ddl.plan.Ddl.indexes

let unique_error (ts : Storage.Catalog.table_state) (ix : Storage.Index.t) =
  let col =
    match ix.Storage.Index.definition with
    | { A.ic_expr = A.Col { column; _ }; _ } :: _ -> column
    | _ -> ix.Storage.Index.index_name
  in
  err Errors.Unique_violation "UNIQUE constraint failed: %s.%s"
    ts.Storage.Catalog.schema.Storage.Schema.table_name col

(* ------------------------------------------------------------------ *)
(* Value preparation                                                    *)

let not_null_check (ctx : Executor.ctx) (schema : Storage.Schema.table) values
    =
  let rec go i =
    if i >= Array.length schema.Storage.Schema.columns then Ok ()
    else
      let col = schema.Storage.Schema.columns.(i) in
      if col.Storage.Schema.not_null && Value.is_null values.(i) then begin
        cov ctx "dml.not_null_check";
        Error
          (err Errors.Not_null_violation "NOT NULL constraint failed: %s.%s"
             schema.Storage.Schema.table_name col.Storage.Schema.name)
      end
      else go (i + 1)
  in
  go 0

(* CHECK constraint enforcement: a check passes when it evaluates TRUE or
   NULL (SQL semantics); the sqlite pragma ignore_check_constraints skips
   enforcement entirely. *)
let check_constraints (ctx : Executor.ctx) (p : Ddl.plan)
    (schema : Storage.Schema.table) values =
  let skip =
    Dialect.equal ctx.Executor.dialect Dialect.Sqlite_like
    && Options.ignore_check_constraints ctx.Executor.options
  in
  if skip || schema.Storage.Schema.checks = [] then Ok ()
  else begin
    cov ctx "dml.check_constraint";
    Ddl.set_row p values;
    let rec go = function
      | [] -> Ok ()
      | check :: rest -> (
          match Eval.run check with
          | Ok (Tvl.True | Tvl.Unknown) -> go rest
          | Ok Tvl.False ->
              Error
                (err Errors.Check_violation "CHECK constraint failed: %s"
                   schema.Storage.Schema.table_name)
          | Error e -> Error e)
    in
    go (Lazy.force p.Ddl.checks)
  end

(* Coerce one value into its column, per dialect. *)
let store_value (ctx : Executor.ctx) (col : Storage.Schema.column) v =
  Result.map_error
    (fun msg -> Errors.make Errors.Type_error msg)
    (Coerce.store ctx.Executor.dialect col.Storage.Schema.ty v)

(* sqlite: a single-column INTEGER PRIMARY KEY is an alias for the rowid;
   inserting NULL assigns the next rowid *)
let rowid_alias_column (ctx : Executor.ctx) (schema : Storage.Schema.table) =
  if
    Dialect.equal ctx.Executor.dialect Dialect.Sqlite_like
    && (not schema.Storage.Schema.without_rowid)
  then
    match schema.Storage.Schema.primary_key with
    | [ pk ] -> (
        match Storage.Schema.find_column schema pk with
        | Some (i, col) -> (
            match col.Storage.Schema.ty with
            | Datatype.Int { width = Datatype.Regular; unsigned = false } ->
                Some i
            | _ -> None)
        | None -> None)
    | _ -> None
  else None

(* ------------------------------------------------------------------ *)
(* INSERT                                                               *)

let insert ctx ~table ~columns ~rows ~action =
  cov ctx "dml.insert";
  (match action with
  | A.On_conflict_ignore -> cov ctx "dml.insert_ignore"
  | A.On_conflict_replace -> cov ctx "dml.insert_replace"
  | A.On_conflict_abort -> ());
  let* ts = find_table ctx table in
  let schema = ts.Storage.Catalog.schema in
  let ncols = Array.length schema.Storage.Schema.columns in
  (* map provided column names to indices *)
  let* targets =
    if columns = [] then
      Ok (List.init ncols (fun i -> i))
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | c :: rest -> (
            match Storage.Schema.find_column schema c with
            | Some (i, _) -> go (i :: acc) rest
            | None ->
                Error
                  (err Errors.No_such_column "table %s has no column named %s"
                     table c))
      in
      go [] columns
  in
  (* literals are stored as they are; only other expressions need an env *)
  let env = lazy (Executor.eval_env ctx) in
  let p = Ddl.plan ctx ts in
  let heap = ts.Storage.Catalog.heap in
  let rowid_alias = rowid_alias_column ctx schema in
  let buggy_pk = buggy_pk_index ctx ts in
  let collapse = nocase_pk_collapse ctx ts buggy_pk in
  (* the defaults of the columns the statement leaves out *)
  let default_of =
    Array.mapi
      (fun i (col : Storage.Schema.column) ->
        match col.Storage.Schema.default with
        | Some d when not (List.mem i targets) ->
            Some (Eval.compile (Lazy.force env) d)
        | _ -> None)
      schema.Storage.Schema.columns
  in
  let insert_one exprs : (bool, Errors.t) result =
    if List.length exprs <> List.length targets then
      Error
        (err Errors.Syntax_error "%d values for %d columns" (List.length exprs)
           (List.length targets))
    else begin
      (* start from defaults/NULLs *)
      let values = Array.make ncols Value.Null in
      let* () =
        let rec defaults i =
          if i >= ncols then Ok ()
          else
            let col = schema.Storage.Schema.columns.(i) in
            let* () =
              match default_of.(i) with
              | Some d ->
                  cov ctx "dml.default_value";
                  let* v = Eval.run d in
                  let* v = store_value ctx col v in
                  values.(i) <- v;
                  Ok ()
              | _ -> Ok ()
            in
            (* postgres SERIAL auto-assignment *)
            (match col.Storage.Schema.ty with
            | Datatype.Serial when not (List.mem i targets) ->
                values.(i) <- Value.Int schema.Storage.Schema.serial_next;
                schema.Storage.Schema.serial_next <-
                  Int64.add schema.Storage.Schema.serial_next 1L
            | _ -> ());
            defaults (i + 1)
        in
        defaults 0
      in
      let* () =
        let rec assign targets exprs =
          match (targets, exprs) with
          | [], [] -> Ok ()
          | i :: ts', e :: es ->
              let col = schema.Storage.Schema.columns.(i) in
              let* raw =
                match e with
                | A.Lit v -> Ok v
                | e -> Eval.run (Eval.compile (Lazy.force env) e)
              in
              let* v =
                match store_value ctx col raw with
                | Ok v -> Ok v
                | Error e ->
                    if action = A.On_conflict_ignore then Ok Value.Null
                      (* mysql non-strict IGNORE: NULL fallback *)
                    else Error e
              in
              (* injected (intended-class): INSERT IGNORE still errors on
                 clamped out-of-range values *)
              let* () =
                if
                  action = A.On_conflict_ignore
                  && Dialect.equal ctx.Executor.dialect Dialect.Mysql_like
                  && bug ctx Bug.My_intended_ignore_clamp
                  &&
                  match (col.Storage.Schema.ty, v) with
                  | Datatype.Int { width; unsigned = false }, Value.Int stored
                    -> (
                      let lo, hi = Datatype.int_range width in
                      (stored = lo || stored = hi)
                      &&
                      match raw with
                      | Value.Int orig -> orig < lo || orig > hi
                      | _ -> false)
                  | _ -> false
                then
                  Error
                    (err Errors.Internal_error
                       "Data truncated for column '%s' despite IGNORE"
                       col.Storage.Schema.name)
                else Ok ()
              in
              values.(i) <- v;
              assign ts' es
          | _ -> Error (err Errors.Syntax_error "values/columns arity mismatch")
        in
        assign targets exprs
      in
      (* sqlite rowid alias: NULL primary key auto-assigns *)
      (match rowid_alias with
      | Some i when Value.is_null values.(i) ->
          values.(i) <- Value.Int heap.Storage.Heap.next_rowid
      | _ -> ());
      (* a failed NOT NULL or CHECK aborts the statement, or under IGNORE
         skips the row *)
      let admit = function
        | Ok () -> Ok true
        | Error _ when action = A.On_conflict_ignore -> Ok false
        | Error e -> Error e
      in
      let* not_null = admit (not_null_check ctx schema values) in
      let* checked = admit (check_constraints ctx p schema values) in
      if not (not_null && checked) then Ok false
      else begin
        let candidate =
          Storage.Row.make ~rowid:heap.Storage.Heap.next_rowid values
        in
        let m = Ddl.row_entries p candidate in
        (* the heap gives the candidate's rowid to the next insert *)
        let insert_row () =
          ignore (Storage.Heap.insert heap values);
          match attach m p.Ddl.indexes with
          | Ok () -> Ok true
          | Error e ->
              (* atomicity: index-key evaluation failed, undo the row *)
              ignore (detach m p.Ddl.indexes);
              Storage.Heap.delete heap candidate.Storage.Row.rowid;
              Error e
        in
        cov ctx "dml.unique_check";
        let* conflicts = unique_conflicts_for ~collapse m in
        match (conflicts, action) with
        | [], _ -> insert_row ()
        | _ :: _, A.On_conflict_ignore -> Ok false
        | (ix, _) :: _, A.On_conflict_abort when is_index ix buggy_pk ->
            (* Listing 4: the insert "succeeds" but the table's primary-key
               b-tree (the WITHOUT ROWID storage) keeps only the first,
               case-folded entry — so scans see one row while the heap (and
               the pivot-row selection) holds both *)
            ignore (Storage.Heap.insert heap values);
            let* () =
              attach m
                (List.filter
                   (fun (other : Ddl.index_plan) ->
                     other.Ddl.ix.Storage.Index.index_name
                     <> ix.Storage.Index.index_name)
                   p.Ddl.indexes)
            in
            Ok true
        | (ix, _) :: _, A.On_conflict_abort -> Error (unique_error ts ix)
        | conflicts, _ ->
            (* OR REPLACE *)
            let* () = remove_victims p ts conflicts in
            (* Listing 10-style corruption: OR REPLACE resolving conflicts
               on two unique indexes at once *)
            if
              action = A.On_conflict_replace
              && List.length conflicts >= 2
              && bug ctx Bug.Sq_or_replace_two_unique_corrupt
              && Dialect.equal ctx.Executor.dialect Dialect.Sqlite_like
            then
              Storage.Catalog.corrupt ctx.Executor.catalog
                "database disk image is malformed";
            insert_row ()
      end
    end
  in
  (* sqlite WITHOUT ROWID + real-affinity PK + blob key: corruption *)
  let* inserted =
    let rec go n = function
      | [] -> Ok n
      | exprs :: rest ->
          let* ok = insert_one exprs in
          go (if ok then n + 1 else n) rest
    in
    go 0 rows
  in
  (if
     Dialect.equal ctx.Executor.dialect Dialect.Sqlite_like
     && bug ctx Bug.Sq_blob_pk_without_rowid_corrupt
     && schema.Storage.Schema.without_rowid
   then
     let pk_cols =
       List.filter_map
         (fun pk -> Storage.Schema.find_column schema pk)
         schema.Storage.Schema.primary_key
     in
     let has_blob_pk =
       Storage.Heap.to_list ts.Storage.Catalog.heap
       |> List.exists (fun (r : Storage.Row.t) ->
              List.exists
                (fun (i, _) ->
                  match Storage.Row.get r i with
                  | Value.Blob _ -> true
                  | _ -> false)
                pk_cols)
     in
     if has_blob_pk then
       Storage.Catalog.corrupt ctx.Executor.catalog
         "database disk image is malformed");
  Ok inserted

(* ------------------------------------------------------------------ *)
(* UPDATE                                                               *)

let update ctx ~table ~assignments ~where ~action =
  cov ctx "dml.update";
  (match action with
  | A.On_conflict_ignore -> cov ctx "dml.update_ignore"
  | A.On_conflict_replace -> cov ctx "dml.update_replace"
  | A.On_conflict_abort -> ());
  let* ts = find_table ctx table in
  let schema = ts.Storage.Catalog.schema in
  (* mysql CSV-engine update defect *)
  let* () =
    if
      Dialect.equal ctx.Executor.dialect Dialect.Mysql_like
      && bug ctx Bug.My_csv_engine_update_error
      && schema.Storage.Schema.engine = Some A.E_csv
    then
      Error
        (err Errors.Internal_error
           "Got error 1 'unknown error' from storage engine CSV")
    else Ok ()
  in
  let* targets =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (c, e) :: rest -> (
          match Storage.Schema.find_column schema c with
          | Some (i, col) -> go ((i, col, e) :: acc) rest
          | None -> Error (err Errors.No_such_column "no such column: %s" c))
    in
    go [] assignments
  in
  let p = Ddl.plan ctx ts in
  let where = Option.map (Eval.compile_pred p.Ddl.env) where in
  let targets =
    List.map (fun (i, col, e) -> (i, col, Eval.compile p.Ddl.env e)) targets
  in
  let heap = ts.Storage.Catalog.heap in
  let rows = Storage.Heap.to_list heap in
  (* the buggy variant skips partial indexes entirely *)
  let maintained =
    if
      Dialect.equal ctx.Executor.dialect Dialect.Sqlite_like
      && bug ctx Bug.Sq_partial_index_update_skip
    then
      List.filter
        (fun (ip : Ddl.index_plan) -> not (Storage.Index.is_partial ip.Ddl.ix))
        p.Ddl.indexes
    else p.Ddl.indexes
  in
  let unique (ip : Ddl.index_plan) = ip.Ddl.ix.Storage.Index.unique in
  let uniques = List.filter unique p.Ddl.indexes in
  let collapse = nocase_pk_collapse ctx ts (buggy_pk_index ctx ts) in
  let update_one (row : Storage.Row.t) : (bool, Errors.t) result =
    Ddl.set_row p row.Storage.Row.values;
    let* matches =
      match where with None -> Ok true | Some w -> Ddl.holds w
    in
    if not matches then Ok false
    else begin
      let new_values = Array.copy row.Storage.Row.values in
      let* () =
        let rec apply = function
          | [] -> Ok ()
          | (i, col, e) :: rest ->
              let* v = Eval.run e in
              let* v = store_value ctx col v in
              (* taint tracking for the injected postgres index-NULL bug *)
              if
                Dialect.equal ctx.Executor.dialect Dialect.Postgres_like
                && Value.is_null row.Storage.Row.values.(i)
                && not (Value.is_null v)
              then schema.Storage.Schema.tainted_null_update <- true;
              new_values.(i) <- v;
              apply rest
        in
        apply targets
      in
      let constraint_result =
        match not_null_check ctx schema new_values with
        | Error e -> Error e
        | Ok () -> check_constraints ctx p schema new_values
      in
      match (constraint_result, action) with
      | Error _, A.On_conflict_ignore -> Ok false (* keep the old row *)
      | Error e, (A.On_conflict_abort | A.On_conflict_replace) -> Error e
      | Ok (), _ ->
      let candidate = Storage.Row.make ~rowid:row.Storage.Row.rowid new_values in
      let old_m = Ddl.row_entries p row in
      let new_m = Ddl.row_entries p candidate in
      cov ctx "dml.unique_check";
      (* evaluate the keys the detach and the unique check need before
         touching an index, so a key that fails to evaluate leaves the old
         row indexed; then detach it, so self-conflicts don't count *)
      let* () = force old_m maintained in
      let* () = force new_m uniques in
      ignore (detach old_m maintained);
      let* conflicts = unique_conflicts_for ~collapse new_m in
      match (conflicts, action) with
      | [], _ -> (
          ignore
            (Storage.Heap.insert_with_rowid heap ~rowid:row.Storage.Row.rowid
               new_values);
          match attach new_m maintained with
          | Ok () -> Ok true
          | Error e ->
              (* atomicity: restore the previous row version *)
              ignore (detach new_m maintained);
              ignore
                (Storage.Heap.insert_with_rowid heap
                   ~rowid:row.Storage.Row.rowid row.Storage.Row.values);
              ignore (attach old_m maintained);
              Error e)
      | _ :: _, A.On_conflict_ignore ->
          (* keep the old row *)
          let* () = attach old_m maintained in
          Ok false
      | (ix, _) :: _, A.On_conflict_abort ->
          let* () = attach old_m maintained in
          Error (unique_error ts ix)
      | conflicts, A.On_conflict_replace ->
          let* () = remove_victims p ts conflicts in
          (* Listing 10: UPDATE OR REPLACE over a REAL primary key corrupts
             the database *)
          (if
             Dialect.equal ctx.Executor.dialect Dialect.Sqlite_like
             && bug ctx Bug.Sq_real_pk_or_replace_corrupt
             &&
             List.exists
               (fun pk ->
                 match Storage.Schema.find_column schema pk with
                 | Some (_, col) ->
                     Datatype.affinity col.Storage.Schema.ty = Datatype.A_real
                 | None -> false)
               schema.Storage.Schema.primary_key
           then
             Storage.Catalog.corrupt ctx.Executor.catalog
               "database disk image is malformed");
          ignore
            (Storage.Heap.insert_with_rowid heap ~rowid:row.Storage.Row.rowid
               new_values);
          let* () = attach new_m maintained in
          Ok true
    end
  in
  let rec go n = function
    | [] -> Ok n
    | row :: rest ->
        let* changed = update_one row in
        go (if changed then n + 1 else n) rest
  in
  go 0 rows

(* ------------------------------------------------------------------ *)
(* DELETE                                                               *)

let delete ctx ~table ~where =
  cov ctx "dml.delete";
  let* ts = find_table ctx table in
  let p = Ddl.plan ctx ts in
  let where = Option.map (Eval.compile_pred p.Ddl.env) where in
  let rows = Storage.Heap.to_list ts.Storage.Catalog.heap in
  let rec go n = function
    | [] -> Ok n
    | (row : Storage.Row.t) :: rest ->
        Ddl.set_row p row.Storage.Row.values;
        let* matches =
          match where with None -> Ok true | Some w -> Ddl.holds w
        in
        if matches then
          let* () = remove_row p ts row in
          go (n + 1) rest
        else go n rest
  in
  go 0 rows
