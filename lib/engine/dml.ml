open Sqlval
module A = Sqlast.Ast

let cov (ctx : Executor.ctx) point =
  match ctx.Executor.coverage with None -> () | Some c -> Coverage.hit c point

let bug (ctx : Executor.ctx) b = Bug.on ctx.Executor.bugs b
let err code fmt = Errors.makef code fmt

let find_table (ctx : Executor.ctx) table =
  match Storage.Catalog.find_table ctx.Executor.catalog table with
  | Some ts -> ts
  | None ->
      if Storage.Catalog.view_exists ctx.Executor.catalog table then
        Eval.failf Errors.Unsupported "cannot modify view %s" table
      else Eval.failf Errors.No_such_table "no such table: %s" table

(* ------------------------------------------------------------------ *)
(* Index maintenance helpers                                            *)

let indexes_of ctx (ts : Storage.Catalog.table_state) =
  Storage.Catalog.indexes_on ctx.Executor.catalog
    ts.Storage.Catalog.schema.Storage.Schema.table_name

(* Apply [apply] to each of [ips] holding an entry for the row, with the
   entry's key and the row's rowid; raises at the first key that fails to
   evaluate.  The [apply]s are top-level, so a row builds no closure. *)
let rec iter_entries m apply = function
  | [] -> ()
  | (ip : Ddl.index_plan) :: rest -> (
      match Ddl.entry m ip with
      | Ddl.Key key ->
          apply ip.Ddl.ix ~key ~rowid:m.Ddl.row.Storage.Row.rowid;
          iter_entries m apply rest
      | Ddl.Absent | Ddl.Pending -> iter_entries m apply rest
      | Ddl.Failed e -> Eval.fail e)

let attach m ips = iter_entries m Storage.Index.add ips
let remove_entry ix ~key ~rowid = ignore (Storage.Index.remove ix ~key ~rowid)

(* Undoing a failed [attach] over the same [ips] detaches exactly the
   entries it added: it stops at the same memoized failure. *)
let detach m ips = iter_entries m remove_entry ips

(* An undo step: it stops at the failure the undone step raised, and
   that error is already the statement's. *)
let undo step m ips = Eval.catch (step m) ips ~error:ignore

(* Evaluate the entries without touching an index. *)
let force m ips = iter_entries m (fun _ ~key:_ ~rowid:_ -> ()) ips

let remove_row p ts (row : Storage.Row.t) =
  detach (Ddl.row_entries p row) p.Ddl.indexes;
  Storage.Heap.delete ts.Storage.Catalog.heap row.Storage.Row.rowid

(* OR REPLACE: remove every row the candidate conflicts with *)
let remove_victims p ts conflicts =
  List.concat_map snd conflicts
  |> List.sort_uniq Int64.compare
  |> List.iter (fun id ->
         match Storage.Heap.find ts.Storage.Catalog.heap id with
         | Some victim -> remove_row p ts victim
         | None -> ())

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
  | [] -> List.rev acc
  | (ip : Ddl.index_plan) :: rest -> (
      let ix = ip.Ddl.ix in
      if not ix.Storage.Index.unique then conflicts_from collapse m acc rest
      else
        match Ddl.entry m ip with
        | Ddl.Absent | Ddl.Pending -> conflicts_from collapse m acc rest
        | Ddl.Failed e -> Eval.fail e
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
  Array.iteri
    (fun i (col : Storage.Schema.column) ->
      if col.Storage.Schema.not_null && Value.is_null values.(i) then begin
        cov ctx "dml.not_null_check";
        Eval.failf Errors.Not_null_violation "NOT NULL constraint failed: %s.%s"
          schema.Storage.Schema.table_name col.Storage.Schema.name
      end)
    schema.Storage.Schema.columns

(* CHECK constraint enforcement: a check passes when it evaluates TRUE or
   NULL (SQL semantics); the sqlite pragma ignore_check_constraints skips
   enforcement entirely. *)
let check_constraints (ctx : Executor.ctx) (p : Ddl.plan)
    (schema : Storage.Schema.table) values =
  let skip =
    Dialect.equal ctx.Executor.dialect Dialect.Sqlite_like
    && Options.ignore_check_constraints ctx.Executor.options
  in
  if not (skip || schema.Storage.Schema.checks = []) then begin
    cov ctx "dml.check_constraint";
    Ddl.set_row p values;
    List.iter
      (fun (check : Eval.pred) ->
        match check () with
        | Tvl.True | Tvl.Unknown -> ()
        | Tvl.False ->
            Eval.failf Errors.Check_violation "CHECK constraint failed: %s"
              schema.Storage.Schema.table_name)
      (Lazy.force p.Ddl.checks)
  end

(* Coerce one value into its column, per dialect. *)
let store_value (ctx : Executor.ctx) (col : Storage.Schema.column) v =
  match Coerce.store ctx.Executor.dialect col.Storage.Schema.ty v with
  | Ok v -> v
  | Error msg -> Eval.fail (Errors.make Errors.Type_error msg)

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
  let ts = find_table ctx table in
  let schema = ts.Storage.Catalog.schema in
  let ncols = Array.length schema.Storage.Schema.columns in
  (* map provided column names to indices *)
  let targets =
    if columns = [] then List.init ncols (fun i -> i)
    else
      List.map
        (fun c ->
          match Storage.Schema.find_column schema c with
          | Some (i, _) -> i
          | None ->
              Eval.failf Errors.No_such_column "table %s has no column named %s"
                table c)
        columns
  in
  (* literals are stored as they are; only other expressions need an env *)
  let env = lazy (Executor.eval_env ctx) in
  let p = Ddl.plan ctx ts in
  let heap = ts.Storage.Catalog.heap in
  let rowid_alias = rowid_alias_column ctx schema in
  let buggy_pk = buggy_pk_index ctx ts in
  let collapse = nocase_pk_collapse ctx ts buggy_pk in
  let ignore_errors = action = A.On_conflict_ignore in
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
  (* a failed NOT NULL or CHECK aborts the statement, or under IGNORE
     skips the row *)
  let admits check values =
    if ignore_errors then
      Eval.catch (fun () -> check values; true) () ~error:(fun _ -> false)
    else begin
      check values;
      true
    end
  in
  (* whether the row was inserted *)
  let insert_one exprs =
    if List.length exprs <> List.length targets then
      Eval.failf Errors.Syntax_error "%d values for %d columns" (List.length exprs)
        (List.length targets);
    (* start from defaults/NULLs *)
    let values = Array.make ncols Value.Null in
    Array.iteri
      (fun i (col : Storage.Schema.column) ->
        (match default_of.(i) with
        | Some d ->
            cov ctx "dml.default_value";
            values.(i) <- store_value ctx col (d ())
        | None -> ());
        (* postgres SERIAL auto-assignment *)
        match col.Storage.Schema.ty with
        | Datatype.Serial when not (List.mem i targets) ->
            values.(i) <- Value.Int schema.Storage.Schema.serial_next;
            schema.Storage.Schema.serial_next <-
              Int64.add schema.Storage.Schema.serial_next 1L
        | _ -> ())
      schema.Storage.Schema.columns;
    List.iter2
      (fun i e ->
        let col = schema.Storage.Schema.columns.(i) in
        let raw =
          match e with
          | A.Lit v -> v
          | e -> Eval.compile (Lazy.force env) e ()
        in
        let v =
          match Coerce.store ctx.Executor.dialect col.Storage.Schema.ty raw with
          | Ok v -> v
          (* IGNORE, as in mysql's non-strict mode: a value the column
             cannot store becomes NULL *)
          | Error _ when ignore_errors -> Value.Null
          | Error msg -> Eval.fail (Errors.make Errors.Type_error msg)
        in
        (* injected (intended-class): INSERT IGNORE still errors on
           clamped out-of-range values *)
        if
          ignore_errors
          && Dialect.equal ctx.Executor.dialect Dialect.Mysql_like
          && bug ctx Bug.My_intended_ignore_clamp
          &&
          match (col.Storage.Schema.ty, v) with
          | Datatype.Int { width; unsigned = false }, Value.Int stored -> (
              let lo, hi = Datatype.int_range width in
              (stored = lo || stored = hi)
              &&
              match raw with
              | Value.Int orig -> orig < lo || orig > hi
              | _ -> false)
          | _ -> false
        then
          Eval.failf Errors.Internal_error
            "Data truncated for column '%s' despite IGNORE"
            col.Storage.Schema.name;
        values.(i) <- v)
      targets exprs;
    (* sqlite rowid alias: NULL primary key auto-assigns *)
    (match rowid_alias with
    | Some i when Value.is_null values.(i) ->
        values.(i) <- Value.Int heap.Storage.Heap.next_rowid
    | _ -> ());
    let not_null = admits (not_null_check ctx schema) values in
    let checked = admits (check_constraints ctx p schema) values in
    if not (not_null && checked) then false
    else begin
      let candidate =
        Storage.Row.make ~rowid:heap.Storage.Heap.next_rowid values
      in
      let m = Ddl.row_entries p candidate in
      (* the heap gives the candidate's rowid to the next insert *)
      let insert_row () =
        ignore (Storage.Heap.insert heap values);
        Eval.catch (attach m) p.Ddl.indexes ~error:(fun e ->
            (* atomicity: index-key evaluation failed, undo the row *)
            undo detach m p.Ddl.indexes;
            Storage.Heap.delete heap candidate.Storage.Row.rowid;
            Eval.fail e);
        true
      in
      cov ctx "dml.unique_check";
      match (unique_conflicts_for ~collapse m, action) with
      | [], _ -> insert_row ()
      | _ :: _, A.On_conflict_ignore -> false
      | (ix, _) :: _, A.On_conflict_abort when is_index ix buggy_pk ->
          (* Listing 4: the insert "succeeds" but the table's primary-key
             b-tree (the WITHOUT ROWID storage) keeps only the first,
             case-folded entry — so scans see one row while the heap (and
             the pivot-row selection) holds both *)
          ignore (Storage.Heap.insert heap values);
          attach m
            (List.filter
               (fun (other : Ddl.index_plan) ->
                 other.Ddl.ix.Storage.Index.index_name
                 <> ix.Storage.Index.index_name)
               p.Ddl.indexes);
          true
      | (ix, _) :: _, A.On_conflict_abort -> Eval.fail (unique_error ts ix)
      | conflicts, _ ->
          (* OR REPLACE *)
          remove_victims p ts conflicts;
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
  in
  let inserted =
    List.fold_left (fun n exprs -> if insert_one exprs then n + 1 else n) 0 rows
  in
  (* sqlite WITHOUT ROWID + real-affinity PK + blob key: corruption *)
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
  inserted

(* ------------------------------------------------------------------ *)
(* UPDATE                                                               *)

let update ctx ~table ~assignments ~where ~action =
  cov ctx "dml.update";
  (match action with
  | A.On_conflict_ignore -> cov ctx "dml.update_ignore"
  | A.On_conflict_replace -> cov ctx "dml.update_replace"
  | A.On_conflict_abort -> ());
  let ts = find_table ctx table in
  let schema = ts.Storage.Catalog.schema in
  (* mysql CSV-engine update defect *)
  if
    Dialect.equal ctx.Executor.dialect Dialect.Mysql_like
    && bug ctx Bug.My_csv_engine_update_error
    && schema.Storage.Schema.engine = Some A.E_csv
  then
    Eval.failf Errors.Internal_error
      "Got error 1 'unknown error' from storage engine CSV";
  let targets =
    List.map
      (fun (c, e) ->
        match Storage.Schema.find_column schema c with
        | Some (i, col) -> (i, col, e)
        | None -> Eval.failf Errors.No_such_column "no such column: %s" c)
      assignments
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
  (* a failed NOT NULL or CHECK aborts the statement, or under IGNORE
     keeps the old row *)
  let admits new_values =
    let check () =
      not_null_check ctx schema new_values;
      check_constraints ctx p schema new_values;
      true
    in
    match action with
    | A.On_conflict_ignore -> Eval.catch check () ~error:(fun _ -> false)
    | A.On_conflict_abort | A.On_conflict_replace -> check ()
  in
  (* whether the row changed *)
  let rec update_one (row : Storage.Row.t) =
    Ddl.set_row p row.Storage.Row.values;
    match where with
    | Some w when not (Tvl.equal (w ()) Tvl.True) -> false
    | _ -> update_matched row
  and update_matched (row : Storage.Row.t) =
    let new_values = Array.copy row.Storage.Row.values in
    List.iter
      (fun (i, col, e) ->
        let v = store_value ctx col (e ()) in
        (* taint tracking for the injected postgres index-NULL bug *)
        if
          Dialect.equal ctx.Executor.dialect Dialect.Postgres_like
          && Value.is_null row.Storage.Row.values.(i)
          && not (Value.is_null v)
        then schema.Storage.Schema.tainted_null_update <- true;
        new_values.(i) <- v)
      targets;
    admits new_values && replace_row row new_values
  and replace_row (row : Storage.Row.t) new_values =
    let candidate = Storage.Row.make ~rowid:row.Storage.Row.rowid new_values in
    let old_m = Ddl.row_entries p row in
    let new_m = Ddl.row_entries p candidate in
    cov ctx "dml.unique_check";
    (* evaluate the keys the detach and the unique check need before
       touching an index, so a key that fails to evaluate leaves the old
       row indexed; then detach it, so self-conflicts don't count *)
    force old_m maintained;
    force new_m uniques;
    detach old_m maintained;
    match (unique_conflicts_for ~collapse new_m, action) with
    | [], _ ->
        ignore
          (Storage.Heap.insert_with_rowid heap ~rowid:row.Storage.Row.rowid
             new_values);
        Eval.catch (attach new_m) maintained ~error:(fun e ->
            (* atomicity: restore the previous row version *)
            undo detach new_m maintained;
            ignore
              (Storage.Heap.insert_with_rowid heap ~rowid:row.Storage.Row.rowid
                 row.Storage.Row.values);
            undo attach old_m maintained;
            Eval.fail e);
        true
    | _ :: _, A.On_conflict_ignore ->
        (* keep the old row *)
        attach old_m maintained;
        false
    | (ix, _) :: _, A.On_conflict_abort ->
        attach old_m maintained;
        Eval.fail (unique_error ts ix)
    | conflicts, A.On_conflict_replace ->
        remove_victims p ts conflicts;
        (* Listing 10: UPDATE OR REPLACE over a REAL primary key corrupts
           the database *)
        (if
           Dialect.equal ctx.Executor.dialect Dialect.Sqlite_like
           && bug ctx Bug.Sq_real_pk_or_replace_corrupt
           && List.exists
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
        attach new_m maintained;
        true
  in
  List.fold_left (fun n row -> if update_one row then n + 1 else n) 0 rows

(* ------------------------------------------------------------------ *)
(* DELETE                                                               *)

let delete ctx ~table ~where =
  cov ctx "dml.delete";
  let ts = find_table ctx table in
  let p = Ddl.plan ctx ts in
  let where = Option.map (Eval.compile_pred p.Ddl.env) where in
  List.fold_left
    (fun n (row : Storage.Row.t) ->
      Ddl.set_row p row.Storage.Row.values;
      match where with
      | Some w when not (Tvl.equal (w ()) Tvl.True) -> n
      | _ ->
          remove_row p ts row;
          n + 1)
    0
    (Storage.Heap.to_list ts.Storage.Catalog.heap)
