open Sqlval
module A = Sqlast.Ast

(* handles for the per-query profiling counters, resolved once per
   session: these fire several times per statement, so the registry
   lookup (a string-keyed hash per inc) would dominate the telemetry
   overhead budget if paid on every bump *)
type profile = {
  p_btree_nodes : Telemetry.counter_handle;
  p_btree_entries : Telemetry.counter_handle;
  p_index_rows : Telemetry.counter_handle;
  p_heap_rows : Telemetry.counter_handle;
  p_scan_rows : Telemetry.counter_handle;
  p_plan : Telemetry.counter_handle array; (* indexed by [plan_index] *)
}

(* the planner's access paths form a closed set, so the per-path series of
   minidb_plan_choices_total can be pre-resolved like the rest *)
let plan_index = function
  | Planner.Full_scan -> 0
  | Planner.Index_eq _ -> 1
  | Planner.Index_range _ -> 2
  | Planner.Index_like_prefix _ -> 3
  | Planner.Partial_index_scan _ -> 4
  | Planner.Skip_scan _ -> 5
  | Planner.Or_union _ -> 6

let plan_labels =
  [|
    "full_scan"; "index_eq"; "index_range"; "index_like_prefix";
    "partial_index"; "skip_scan"; "or_union";
  |]

let make_profile tele =
  {
    p_btree_nodes = Telemetry.counter_handle tele "minidb_btree_node_visits_total";
    p_btree_entries =
      Telemetry.counter_handle tele "minidb_btree_entries_scanned_total";
    p_index_rows = Telemetry.counter_handle tele "minidb_index_rows_total";
    p_heap_rows = Telemetry.counter_handle tele "minidb_heap_rows_scanned_total";
    p_scan_rows = Telemetry.counter_handle tele "minidb_rows_scanned_total";
    p_plan =
      Array.map
        (fun label ->
          Telemetry.counter_handle tele
            ~labels:[ ("path", label) ]
            "minidb_plan_choices_total")
        plan_labels;
  }

(* A forced access path for one scan site.  Sites are keyed by the
   lowercase effective alias, the lowercase base-table name AND the scan's
   WHERE clause: a path derived for one (schema, where) pair is only sound
   at a scan with the same schema and the same residual filter, so an
   identical key is both necessary and sufficient (a view-internal scan of
   the same table has a different WHERE and is never matched). *)
type forced_site = {
  fs_alias : string;
  fs_table : string;
  fs_where : A.expr option;
  fs_path : Planner.path;
}

type forced = {
  f_sites : forced_site list;
  f_swap_join : bool;
      (* iterate two-table inner/cross joins right-major; binding order
         (and therefore projection) is unchanged, only scan order moves *)
}

let no_force = { f_sites = []; f_swap_join = false }

let show_forced f =
  let sites =
    List.map (fun s -> s.fs_alias ^ "=" ^ Planner.show_path s.fs_path) f.f_sites
  in
  let sites = if f.f_swap_join then sites @ [ "swap-join" ] else sites in
  String.concat ";" sites

type ctx = {
  dialect : Dialect.t;
  bugs : Bug.set;
  options : Options.t;
  coverage : Coverage.t option;
  catalog : Storage.Catalog.t;
  telemetry : Telemetry.t;
  profile : profile;
  recorder : Trace.t;
      (* flight recorder: planner decisions and per-operator annotations
         stream into it when enabled (runner rounds, EXPLAIN ANALYZE) *)
  force : forced option;
      (* plan-diff oracle: override the planner at matching scan sites *)
}

let forced_path_for ctx ~alias ~table ~where =
  match ctx.force with
  | None -> None
  | Some f ->
      let alias = Eval.lower alias and table = Eval.lower table in
      List.find_map
        (fun s ->
          if
            String.equal s.fs_alias alias
            && String.equal s.fs_table table
            && Option.equal A.equal_expr s.fs_where where
          then Some s.fs_path
          else None)
        f.f_sites

let swap_join_forced ctx =
  match ctx.force with Some f -> f.f_swap_join | None -> false

(* ------------------------------------------------------------------ *)
(* Flight-recorder operator annotations.  All call sites are guarded on
   [tracing ctx] so the disabled path costs one branch and never calls
   the clock or counts rows. *)

let tracing ctx = Trace.enabled ctx.recorder
let op_clock ctx = if tracing ctx then Telemetry.Clock.now_ns_int () else 0

(* Rows per trace batch.  The pipeline pushes rows one at a time; an
   operator event reports its row count as [batches_of] batches. *)
let block_size = 64

let batches_of n = Stdlib.max 1 ((n + block_size - 1) / block_size)

let op_event ctx ~op ?(detail = "") ~rows_in ~rows_out ~batches
    ?(btree = (0, 0)) ~t0 () =
  if tracing ctx then begin
    let now = Telemetry.Clock.now_ns_int () in
    Trace.record_at ctx.recorder ~now_ns:now
      (Trace.Event.Op
         {
           op;
           detail;
           rows_in;
           rows_out;
           batches;
           btree_nodes = fst btree;
           btree_entries = snd btree;
           dur_ns = now - t0;
         })
  end

(* indexes a path reads, for charging B-tree visits to the scan operator *)
let rec path_indexes = function
  | Planner.Full_scan -> []
  | Planner.Index_eq { index; _ }
  | Planner.Index_range { index; _ }
  | Planner.Index_like_prefix { index; _ }
  | Planner.Partial_index_scan { index }
  | Planner.Skip_scan { index } ->
      [ index ]
  | Planner.Or_union paths -> List.concat_map path_indexes paths

let path_btree_profile path =
  List.fold_left
    (fun (n, e) ix ->
      let n', e' = Storage.Index.tree_profile ix in
      (n + n', e + e'))
    (0, 0) (path_indexes path)

type result_set = { rs_columns : string list; rs_rows : Value.t array list }

let pp_result_set fmt rs =
  Format.fprintf fmt "%s@." (String.concat "|" rs.rs_columns);
  List.iter
    (fun row ->
      Format.fprintf fmt "%s@."
        (String.concat "|" (List.map Value.to_display (Array.to_list row))))
    rs.rs_rows

let cov ctx point =
  match ctx.coverage with None -> () | Some c -> Coverage.hit c point

let bug ctx b = Bug.on ctx.bugs b

(* Run [f] and charge the B-tree read work it caused on [index] (scraped
   as deltas of the tree's cumulative profile) to the engine counters. *)
let profile_index ctx index f =
  if not (Telemetry.enabled ctx.telemetry) then f ()
  else begin
    let n0, e0 = Storage.Index.tree_profile index in
    let r = f () in
    let n1, e1 = Storage.Index.tree_profile index in
    Telemetry.inc_handle ~by:(n1 - n0) ctx.profile.p_btree_nodes;
    Telemetry.inc_handle ~by:(e1 - e0) ctx.profile.p_btree_entries;
    r
  end

let count_index_rows ctx rowids =
  if Telemetry.enabled ctx.telemetry then
    Telemetry.inc_handle ~by:(List.length rowids) ctx.profile.p_index_rows;
  rowids

(* ------------------------------------------------------------------ *)
(* Evaluation environments                                             *)

let eval_env ctx : Eval.env =
  {
    (Eval.const_env ~bugs:ctx.bugs
       ~case_sensitive_like:(Options.case_sensitive_like ctx.options)
       ctx.dialect)
    with
    Eval.coverage = ctx.coverage;
  }

let table_env ctx (schema : Storage.Schema.table) ~alias =
  Eval.with_layout (eval_env ctx) [ Eval.binding_of_table schema ~alias ]

(* ------------------------------------------------------------------ *)
(* Table scans                                                         *)

(* Project a child row onto the parent's columns by column name. *)
let project_child (parent : Storage.Schema.table) (child : Storage.Schema.table)
    (row : Storage.Row.t) : Storage.Row.t =
  let values =
    Array.map
      (fun (pc : Storage.Schema.column) ->
        match Storage.Schema.find_column child pc.Storage.Schema.name with
        | Some (i, _) -> Storage.Row.get row i
        | None -> Value.Null)
      parent.Storage.Schema.columns
  in
  Storage.Row.make ~rowid:row.Storage.Row.rowid values

let rec scan_table ctx (ts : Storage.Catalog.table_state) : Storage.Row.t list
    =
  let own = Storage.Heap.to_list ts.Storage.Catalog.heap in
  if Telemetry.enabled ctx.telemetry then
    Telemetry.inc_handle ~by:(List.length own) ctx.profile.p_heap_rows;
  let parent = ts.Storage.Catalog.schema in
  match
    Storage.Catalog.children_of ctx.catalog parent.Storage.Schema.table_name
  with
  | [] -> own
  | children ->
      own
      @ List.concat_map
          (fun child_name ->
            match Storage.Catalog.find_table ctx.catalog child_name with
            | None -> []
            | Some child_ts ->
                List.map
                  (project_child parent child_ts.Storage.Catalog.schema)
                  (scan_table ctx child_ts))
          children

(* The implicit unique index over the primary-key columns, if any: for
   WITHOUT ROWID tables it *is* the table storage, so full scans read
   through it (which is what makes the Listing 4 defect observable). *)
let pk_index_of ctx (schema : Storage.Schema.table) =
  if schema.Storage.Schema.primary_key = [] then None
  else
    Storage.Catalog.indexes_on ctx.catalog schema.Storage.Schema.table_name
    |> List.find_opt (fun ix ->
           ix.Storage.Index.unique
           && List.map
                (fun (ic : A.indexed_column) ->
                  match ic.A.ic_expr with
                  | A.Col { column; _ } -> String.lowercase_ascii column
                  | _ -> "?")
                ix.Storage.Index.definition
              = List.map String.lowercase_ascii
                  schema.Storage.Schema.primary_key)

(* Candidate rowids for a single-table WHERE via the planner; [None] means
   scan everything. *)
let rec path_rowids ?(distinct = false) ctx (path : Planner.path) :
    int64 list option =
  match path with
  | Planner.Full_scan -> None
  | Planner.Index_eq { index; key } ->
      Some
        (count_index_rows ctx
           (profile_index ctx index (fun () ->
                Storage.Index.find_rowids index key)))
  | Planner.Index_range { index; lo; hi } ->
      let rowids =
        profile_index ctx index (fun () ->
            let acc = ref [] in
            let wrap = Option.map (fun (v, incl) -> ([| v |], incl)) in
            Storage.Index.iter_range ?lo:(wrap lo) ?hi:(wrap hi)
              (fun _ rowid -> acc := rowid :: !acc)
              index;
            List.rev !acc)
      in
      Some (count_index_rows ctx rowids)
  | Planner.Index_like_prefix { index; prefix } ->
      let rowids =
        profile_index ctx index (fun () ->
            let acc = ref [] in
            Storage.Index.iter_range
              ~lo:([| Value.Text prefix |], true)
              ~hi:([| Value.Text (prefix ^ "\255") |], true)
              (fun _ rowid -> acc := rowid :: !acc)
              index;
            List.rev !acc)
      in
      Some (count_index_rows ctx rowids)
  | Planner.Partial_index_scan { index } ->
      let rowids =
        profile_index ctx index (fun () ->
            let acc = ref [] in
            Storage.Index.iter (fun _ rowid -> acc := rowid :: !acc) index;
            List.rev !acc)
      in
      Some (count_index_rows ctx rowids)
  | Planner.Skip_scan { index } ->
      Some
        (count_index_rows ctx
           (profile_index ctx index (fun () ->
                skip_scan_rowids ~distinct ctx index)))
  | Planner.Or_union paths ->
      let first_non_empty = ref false in
      let rowids =
        List.concat_map
          (fun p ->
            if
              !first_non_empty
              && Dialect.equal ctx.dialect Dialect.Sqlite_like
              && bug ctx Bug.Sq_or_index_dedup
            then [] (* buggy: later branches skipped once one matched *)
            else
              match path_rowids ~distinct ctx p with
              | Some ids ->
                  if ids <> [] then first_non_empty := true;
                  ids
              | None -> [])
          paths
      in
      Some (List.sort_uniq Int64.compare rowids)

and skip_scan_rowids ?(distinct = false) ctx (index : Storage.Index.t) =
  let acc = ref [] in
  if
    distinct
    && Dialect.equal ctx.dialect Dialect.Sqlite_like
    && bug ctx Bug.Sq_skip_scan_distinct
  then begin
    (* buggy: the skip-scan enumerates distinct leading-key values and the
       DISTINCT flag makes it emit only one row per leading value *)
    let seen = Hashtbl.create 16 in
    Storage.Index.iter
      (fun key rowid ->
        let k = if Array.length key = 0 then "" else Value.show key.(0) in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.replace seen k ();
          acc := rowid :: !acc
        end)
      index
  end
  else Storage.Index.iter (fun _ rowid -> acc := rowid :: !acc) index;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* FROM evaluation                                                     *)

type from_ctx = {
  in_join : bool; (* more than one base table in the query *)
  select : A.select; (* the SELECT the scan serves *)
}

let expr_has f e = A.fold_expr (fun acc x -> acc || f x) false e

(* The mysql MEMORY-join triggers: a CAST in the SELECT's WHERE or items,
   an IFNULL in its WHERE.  Walked only by the gate that reads them. *)
let has_cast (s : A.select) =
  let cast = expr_has (function A.Cast _ -> true | _ -> false) in
  (match s.A.sel_where with Some w -> cast w | None -> false)
  || List.exists
       (function A.Sel_expr (e, _) -> cast e | A.Star | A.Table_star _ -> false)
       s.A.sel_items

let has_ifnull (s : A.select) =
  match s.A.sel_where with
  | Some w -> expr_has (function A.Func (A.F_ifnull, _) -> true | _ -> false) w
  | None -> false

(* The one-binding tuples of the heap rows at [rowids], in that order
   (rowids with no row are skipped). *)
let fetch_tuples heap rowids =
  let rec go acc = function
    | [] -> List.rev acc
    | rowid :: rest -> (
        match Storage.Heap.find heap rowid with
        | Some r -> go ([| r.Storage.Row.values |] :: acc) rest
        | None -> go acc rest)
  in
  go [] rowids

(* The access path of one base-table scan site, and whether it was
   forced: a join side takes the full scan, any other site the forced
   path that matches it, else the planner's default.  The planner's env
   resolves the table's columns (values irrelevant) so collation and
   affinity checks see the schema. *)
let scan_path ctx ~in_join ~alias ~table (schema : Storage.Schema.table)
    ~where =
  if in_join then (Planner.Full_scan, false)
  else
    match forced_path_for ctx ~alias ~table ~where with
    | Some p -> (p, true)
    | None ->
        ( Telemetry.Span.timed ctx.telemetry Telemetry.Phase.Plan (fun () ->
              Planner.choose (table_env ctx schema ~alias) ctx.catalog schema
                ~where),
          false )

(* coverage points of the paths, in [plan_index] order *)
let plan_points = Array.map (fun label -> "plan." ^ label) plan_labels

(* An executed scan's coverage: its path, and a DESC index range read. *)
let count_plan ctx path =
  match ctx.coverage with
  | None -> ()
  | Some c ->
      Coverage.hit c plan_points.(plan_index path);
      if Planner.reads_desc_range path then Coverage.hit c "plan.desc_index"

(* Scan one base table under [where]: injected planner/index bug gates,
   access-path choice (with forced-plan override), rowid fetch, and the
   SCAN flight-recorder annotation, which reports how many [block_size]
   batches the rows make.  The rows come back as one-binding tuples, the
   shape the SELECT pipeline's FROM loop reads. *)
let scan_rows ctx fctx ~where ~table:name ~alias:alias_name
    (ts : Storage.Catalog.table_state) : Value.t array array list =
  let schema = ts.Storage.Catalog.schema in
          let postgres = Dialect.equal ctx.dialect Dialect.Postgres_like in
          (* read only by the postgres triggers below *)
          let table_indexes =
            if postgres then
              Storage.Catalog.indexes_on ctx.catalog
                schema.Storage.Schema.table_name
            else []
          in
          (* postgres Listing 16 class: extended statistics + an
             expression/partial index break planning with an internal
             error (or, for the duplicate report, a crash) *)
          let stats_trigger =
            postgres
            && Storage.Catalog.statistics_on ctx.catalog
                 schema.Storage.Schema.table_name
               <> []
            && List.exists
                 (fun ix ->
                   Storage.Index.is_expression_index ix
                   || Storage.Index.is_partial ix)
                 table_indexes
            && where <> None
          in
          if stats_trigger && bug ctx Bug.Pg_dup_bitmapset_crash then
            raise
              (Errors.Crash "segfault: negative bitmapset member in planner")
          else if stats_trigger && bug ctx Bug.Pg_stats_expr_index_bitmapset
          then
            Eval.fail
              (Errors.make Errors.Internal_error
                 "negative bitmapset member not allowed");
          (* postgres Listing 17 class: an index over rows whose NULLs
             were overwritten by UPDATE trips an internal error on
             ordered comparisons *)
          let null_taint_trigger =
            postgres
            && schema.Storage.Schema.tainted_null_update
            && table_indexes <> []
            && (match where with
               | Some w ->
                   expr_has
                     (function
                       | A.Binary ((A.Lt | A.Le | A.Gt | A.Ge), _, _) -> true
                       | _ -> false)
                     w
               | None -> false)
          in
          if
            null_taint_trigger
            && (bug ctx Bug.Pg_index_null_value_error
               || bug ctx Bug.Pg_dup_index_null_error)
          then
            Eval.failf Errors.Internal_error
              "found unexpected null value in index \"%s\""
              (match table_indexes with
              | ix :: _ -> ix.Storage.Index.index_name
              | [] -> "?");
          (* mysql Listing 11 class: MEMORY-engine rows vanish from joins
             whose condition contains a CAST (or IFNULL for the duplicate
             report) *)
          let memory_bug =
            fctx.in_join
            && Dialect.equal ctx.dialect Dialect.Mysql_like
            && schema.Storage.Schema.engine = Some A.E_memory
            && ((bug ctx Bug.My_memory_join_cast && has_cast fctx.select)
               || (bug ctx Bug.My_dup_memory_join && has_ifnull fctx.select))
          in
          if memory_bug then []
          else begin
            (match schema.Storage.Schema.engine with
            | Some A.E_memory -> cov ctx "ddl.engine_memory"
            | Some A.E_csv -> cov ctx "ddl.engine_csv"
            | Some A.E_myisam -> cov ctx "ddl.engine_myisam"
            | Some A.E_innodb | None -> ());
            let path, forced =
              scan_path ctx ~in_join:fctx.in_join ~alias:alias_name ~table:name
                schema ~where
            in
            if not fctx.in_join then
              Telemetry.inc_handle ctx.profile.p_plan.(plan_index path);
            count_plan ctx path;
            let shown_path =
              if tracing ctx then
                Planner.show_path path ^ if forced then " (forced)" else ""
              else ""
            in
            if tracing ctx && not fctx.in_join then
              Trace.record ctx.recorder
                (Trace.Event.Plan { table = alias_name; path = shown_path });
            let scan_t0 = op_clock ctx in
            let scan_b0 =
              if tracing ctx then path_btree_profile path else (0, 0)
            in
            let heap = ts.Storage.Catalog.heap in
            let full_scan () =
              match
                if schema.Storage.Schema.without_rowid then
                  pk_index_of ctx schema
                else None
              with
              | Some pk ->
                  (* WITHOUT ROWID: the PK b-tree is the table *)
                  let acc = ref [] in
                  Storage.Index.iter (fun _ rowid -> acc := rowid :: !acc) pk;
                  fetch_tuples heap (List.sort Int64.compare !acc)
              | _ ->
                  List.map
                    (fun r -> [| r.Storage.Row.values |])
                    (scan_table ctx ts)
            in
            let rows =
              match path_rowids ~distinct:fctx.select.A.sel_distinct ctx path with
              | None ->
                  let rows = full_scan () in
                  if Telemetry.enabled ctx.telemetry then
                    Telemetry.inc_handle ~by:(List.length rows)
                      ctx.profile.p_scan_rows;
                  rows
              | Some rowids -> fetch_tuples heap rowids
            in
            if tracing ctx then begin
              let b1 = path_btree_profile path in
              let n_out = List.length rows in
              op_event ctx ~op:"SCAN"
                ~detail:(alias_name ^ " USING " ^ shown_path)
                ~rows_in:(Storage.Heap.row_count heap)
                ~rows_out:n_out
                ~batches:(batches_of n_out)
                ~btree:(fst b1 - fst scan_b0, snd b1 - snd scan_b0)
                ~t0:scan_t0 ()
            end;
            rows
          end

(* ------------------------------------------------------------------ *)
(* Output shaping shared by the pipeline's operators                   *)

let output_columns ?(named = true) (bindings_sample : Eval.binding list)
    items : string list =
  let names b = Array.to_list (Array.map (fun (n, _, _) -> n) b.Eval.b_columns) in
  let item_columns = function
    | A.Star -> List.concat_map names bindings_sample
    | A.Table_star t -> (
        let t = Eval.lower t in
        match
          List.find_opt (fun b -> b.Eval.b_alias = t) bindings_sample
        with
        | Some b -> names b
        | None ->
            Eval.failf Errors.No_such_table "no such table: %s" t)
    | A.Sel_expr (_, Some alias) -> [ alias ]
    | A.Sel_expr (A.Col { column; _ }, None) -> [ column ]
    | A.Sel_expr (e, None) ->
        [ (if named then Sqlast.Sql_printer.expr Dialect.Sqlite_like e else "") ]
  in
  List.concat_map item_columns items

(* Row identity.  Bools and integral Reals are the matching Int; other
   Reals are identified by their [string_of_float] form (12 significant
   digits, so the containment check's [VALUES (0.3)] matches a stored
   [0.1+0.2]); TEXT is never BLOB. *)
module Row_eq = struct
  type t = Value.t array

  let int_of = function
    | Value.Int i -> Some i
    | Value.Bool b -> Some (if b then 1L else 0L)
    | Value.Real r when Numeric.real_is_exact_int r -> Some (Int64.of_float r)
    | _ -> None

  let value_equal a b =
    match (a, b) with
    | Value.Null, Value.Null -> true
    | Value.Int x, Value.Int y -> Int64.equal x y
    | Value.Text x, Value.Text y | Value.Blob x, Value.Blob y -> String.equal x y
    | Value.Real x, Value.Real y
      when not (Numeric.real_is_exact_int x || Numeric.real_is_exact_int y) ->
        (* IEEE [=]: NaNs fall through to their printed form *)
        x = y || String.equal (string_of_float x) (string_of_float y)
    | _ -> (
        match (int_of a, int_of b) with
        | Some i, Some j -> Int64.equal i j
        | _ -> false)

  (* top-level rather than a local closure over [a] and [b], which
     would be allocated per comparison *)
  let rec equal_below a b i =
    i < 0 || (value_equal a.(i) b.(i) && equal_below a b (i - 1))

  let equal a b =
    Array.length a = Array.length b && equal_below a b (Array.length a - 1)

  (* An integer's hash, mixed in OCaml: the multiply spreads the low bits
     upward and the shift folds the high bits back down. *)
  let int_hash i =
    let h = i * 0x1E3779B97F4A7C15 in
    h lxor (h lsr 32)

  (* Equal values hash alike: Int, Bool and integral Real through their
     integer; any other Real through the printed form it is compared
     by. *)
  let value_hash = function
    | Value.Null -> 0
    | Value.Int i -> int_hash (Int64.to_int i)
    | Value.Bool b -> int_hash (Bool.to_int b)
    | Value.Real r ->
        if Numeric.real_is_exact_int r then int_hash (int_of_float r)
        else Hashtbl.hash (string_of_float r)
    | Value.Text s -> Hashtbl.hash s
    | Value.Blob s -> Hashtbl.hash s + 1

  let hash a =
    let h = ref 7 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 31) + value_hash (Array.unsafe_get a i)
    done;
    !h
end

(* Entries in insertion order, each with its hash beside its key, and
   chained in [heads]/[next] by entry number + 1 (0 ends a chain), at
   most two per head on average.  A probe compares hashes before rows;
   growing relinks the stored hashes without rehashing a row.  The
   arrays are allocated at the first add; up to 256 keys each fits the
   minor heap. *)
module Row_tbl = struct
  type 'a t = {
    hint : int;
    mutable heads : int array;
    mutable next : int array;
    mutable keys : Value.t array array;
    mutable hashes : int array;
    mutable vals : 'a array;
    mutable size : int;
  }

  let create hint =
    {
      hint = Stdlib.max 4 hint;
      heads = [||];
      next = [||];
      keys = [||];
      hashes = [||];
      vals = [||];
      size = 0;
    }

  let length t = t.size

  (* The entry holding a row equal to [key] (hash [h]) along the chain
     from entry [e1 - 1], or -1.  The loop takes the table rather than
     closing over it, so a probe allocates nothing. *)
  let rec find_from t key h e1 =
    if e1 = 0 then -1
    else
      let e = e1 - 1 in
      if
        Array.unsafe_get t.hashes e = h
        && Row_eq.equal (Array.unsafe_get t.keys e) key
      then e
      else find_from t key h (Array.unsafe_get t.next e)

  let find t key h =
    if t.size = 0 then -1
    else
      find_from t key h
        (Array.unsafe_get t.heads (h land (Array.length t.heads - 1)))

  let find_opt t key =
    let e = find t key (Row_eq.hash key) in
    if e < 0 then None else Some (Array.unsafe_get t.vals e)

  let link t e =
    let b = t.hashes.(e) land (Array.length t.heads - 1) in
    t.next.(e) <- t.heads.(b);
    t.heads.(b) <- e + 1

  let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

  (* Append entry [key -> v] (hash [h]).  The first add sizes the entry
     arrays to the hint, at most 256: [Array.make] of more words than
     the minor heap takes forces a minor collection when its fill value
     is young, as [v] usually is.  A full table doubles each entry array
     onto itself instead, which forces none, and relinks every entry
     into half as many heads. *)
  let add t key h v =
    let e = t.size in
    if e = Array.length t.keys then begin
      if e = 0 then begin
        let n = Stdlib.min t.hint 256 in
        t.keys <- Array.make n key;
        t.hashes <- Array.make n 0;
        t.next <- Array.make n 0;
        t.vals <- Array.make n v
      end
      else begin
        t.keys <- Array.append t.keys t.keys;
        t.hashes <- Array.append t.hashes t.hashes;
        t.next <- Array.append t.next t.next;
        t.vals <- Array.append t.vals t.vals
      end;
      t.heads <- Array.make (pow2_at_least (Array.length t.keys / 2) 2) 0;
      for i = 0 to e - 1 do
        link t i
      done
    end;
    t.keys.(e) <- key;
    t.hashes.(e) <- h;
    t.vals.(e) <- v;
    t.size <- e + 1;
    link t e

  let find_or_add t key make =
    let h = Row_eq.hash key in
    let e = find t key h in
    if e >= 0 then Array.unsafe_get t.vals e
    else begin
      let v = make () in
      add t key h v;
      v
    end

  let add_new t key v =
    let h = Row_eq.hash key in
    find t key h < 0
    && begin
         add t key h v;
         true
       end

  let fold f t acc =
    let acc = ref acc in
    for e = t.size - 1 downto 0 do
      acc := f t.keys.(e) t.vals.(e) !acc
    done;
    !acc
end

let dedup rows =
  match rows with
  | [] | [ _ ] -> rows
  | _ ->
      let seen = Row_tbl.create (List.length rows) in
      List.filter (fun r -> Row_tbl.add_new seen r ()) rows

let select_has_agg (s : A.select) =
  s.A.sel_group_by <> []
  || List.exists
       (function
         | A.Sel_expr (e, _) -> A.has_agg e
         | A.Star | A.Table_star _ -> false)
       s.A.sel_items
  || (match s.A.sel_having with Some h -> A.has_agg h | None -> false)

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)

(* The aggregation operator works over whatever tuple representation the
   pipeline carries; [eval] evaluates an expression against one tuple. *)
let compute_agg ctx ~eval tuples (agg : A.expr) : Value.t =
  match agg with
  | A.Agg (f, arg) -> (
      (match f with
      | A.A_count_star -> cov ctx "agg.count_star"
      | A.A_count -> cov ctx "agg.count"
      | A.A_sum -> cov ctx "agg.sum"
      | A.A_avg -> cov ctx "agg.avg"
      | A.A_min -> cov ctx "agg.min"
      | A.A_max -> cov ctx "agg.max"
      | A.A_total -> cov ctx "agg.total");
      (* injected crash: MIN/MAX over a COLLATE expression *)
      (match (f, arg) with
      | (A.A_min | A.A_max), Some a
        when Dialect.equal ctx.dialect Dialect.Sqlite_like
             && bug ctx Bug.Sq_agg_collate_crash
             && expr_has (function A.Collate _ -> true | _ -> false) a ->
          raise
            (Errors.Crash
               "segfault: stale collation sequence in aggregate comparator")
      | _ -> ());
      (* the argument over each tuple, in order *)
      let values name =
        match arg with
        | Some a -> List.map (fun tuple -> eval tuple a) tuples
        | None ->
            Eval.fail
              (Errors.make Errors.Invalid_function (name ^ " requires an argument"))
      in
      match f with
      | A.A_count_star -> Value.Int (Int64.of_int (List.length tuples))
      | A.A_count -> (
          match arg with
          | None -> Value.Int (Int64.of_int (List.length tuples))
          | Some _ ->
              let vs = values "COUNT" in
              let n = List.length (List.filter (fun v -> not (Value.is_null v)) vs) in
              Value.Int (Int64.of_int n))
      | A.A_sum | A.A_avg | A.A_total -> (
          let vs = values "SUM" in
          let nums =
            List.filter_map
              (fun v ->
                if Value.is_null v then None else Some (Coerce.to_numeric v))
              vs
          in
          match f with
          | A.A_total ->
              let total =
                List.fold_left
                  (fun acc v ->
                    match v with
                    | Value.Int i -> acc +. Int64.to_float i
                    | Value.Real r -> acc +. r
                    | _ -> acc)
                  0.0 nums
              in
              Value.Real total
          | A.A_sum | A.A_avg ->
              if nums = [] then Value.Null
              else begin
                let all_int =
                  List.for_all
                    (fun v -> match v with Value.Int _ -> true | _ -> false)
                    nums
                in
                let s =
                  if all_int then begin
                    let overflow = ref false in
                    let s =
                      List.fold_left
                        (fun acc v ->
                          match v with
                          | Value.Int i -> (
                              match Numeric.checked_add acc i with
                              | Some r -> r
                              | None ->
                                  overflow := true;
                                  acc)
                          | _ -> acc)
                        0L nums
                    in
                    if !overflow then
                      Eval.fail (Errors.make Errors.Out_of_range "integer overflow")
                    else Value.Int s
                  end
                  else
                    Value.Real
                      (List.fold_left
                         (fun acc v ->
                           match v with
                           | Value.Int i -> acc +. Int64.to_float i
                           | Value.Real r -> acc +. r
                           | _ -> acc)
                         0.0 nums)
                in
                if f = A.A_avg then
                  let total =
                    match s with
                    | Value.Int i -> Int64.to_float i
                    | Value.Real r -> r
                    | _ -> 0.0
                  in
                  Value.Real (total /. float_of_int (List.length nums))
                else s
              end
          | _ -> assert false)
      | A.A_min | A.A_max -> (
          let non_null = List.filter (fun v -> not (Value.is_null v)) (values "MIN") in
          match non_null with
          | [] -> Value.Null
          | first :: rest ->
              let keep =
                match f with
                | A.A_min -> fun c -> c < 0
                | _ -> fun c -> c > 0
              in
              List.fold_left
                (fun acc v -> if keep (Value.compare_total v acc) then v else acc)
                first rest))
  | _ -> Eval.fail (Errors.make Errors.Internal_error "compute_agg on non-aggregate")

let group_tuples ctx ~eval (s : A.select) tuples =
  if s.A.sel_group_by = [] then
    (* one group over everything, even when empty *)
    [ tuples ]
  else begin
    (* postgres Listing 15 class: inherited tables break the primary-key
       functional dependency the grouping relies on *)
    let group_exprs =
      let pk_only =
        Dialect.equal ctx.dialect Dialect.Postgres_like
        && bug ctx Bug.Pg_inherit_group_by_dedup
        &&
        match s.A.sel_from with
        | [ A.F_table { name; _ } ] -> (
            match Storage.Catalog.find_table ctx.catalog name with
            | Some ts ->
                let schema = ts.Storage.Catalog.schema in
                Storage.Catalog.children_of ctx.catalog
                  schema.Storage.Schema.table_name
                <> []
                && schema.Storage.Schema.primary_key <> []
                && List.for_all
                     (fun pk ->
                       List.exists
                         (fun g ->
                           match g with
                           | A.Col { column; _ } ->
                               String.lowercase_ascii column
                               = String.lowercase_ascii pk
                           | _ -> false)
                         s.A.sel_group_by)
                     schema.Storage.Schema.primary_key
            | None -> false)
        | _ -> false
      in
      if pk_only then
        (* buggy: group by the primary key columns only *)
        match s.A.sel_from with
        | [ A.F_table { name; _ } ] -> (
            match Storage.Catalog.find_table ctx.catalog name with
            | Some ts ->
                List.map
                  (fun pk -> A.col pk)
                  ts.Storage.Catalog.schema.Storage.Schema.primary_key
            | None -> s.A.sel_group_by)
        | _ -> s.A.sel_group_by
      else s.A.sel_group_by
    in
    let groups = Row_tbl.create 16 in
    List.iter
      (fun tuple ->
        (* the group key of [tuple] *)
        let k = Array.of_list (List.map (eval tuple) group_exprs) in
        let group = Row_tbl.find_or_add groups k (fun () -> ref []) in
        group := tuple :: !group)
      tuples;
    Row_tbl.fold (fun _ group acc -> List.rev !group :: acc) groups []
  end

let substitute_aggs ctx ~eval group e =
  (* each aggregate's value, computed in the order the walk meets them *)
  let table =
    List.fold_left
      (fun acc a -> (a, compute_agg ctx ~eval group a) :: acc)
      [] (A.collect_aggs e)
    |> List.rev
  in
  A.map_expr
    (fun node ->
      match node with
      | A.Agg _ -> (
          match List.find_opt (fun (a, _) -> A.equal_expr a node) table with
          | Some (_, v) -> A.Lit v
          | None -> node)
      | _ -> node)
    e
