(* Database catalog: tables (schema + heap), indexes, views and extended
   statistics, with case-insensitive name lookup and creation-ordered
   introspection (the analogue of sqlite_master / information_schema, which
   the paper's tool queries for state, Section 3.4).

   The [corruption] field models on-disk corruption: once set, statements
   that touch the database report the dialect's "malformed database" error —
   the strongest signal of the paper's error oracle (Listing 10). *)

(* What the engine compiles from a table (its write plan).  Storage only
   carries it: the engine checks it against [Schema.version] before use,
   and snapshots start without one. *)
type compiled = ..
type compiled += Not_compiled

type table_state = {
  schema : Schema.table;
  heap : Heap.t;
  mutable compiled : compiled;
}

type view = { view_name : string; view_query : Sqlast.Ast.query }

type statistics = {
  stat_name : string;
  stat_table : string;
  stat_columns : string list;
}

type t = {
  mutable tables : (string * table_state) list; (* key: lowercase name *)
  mutable indexes : (string * Index.t) list;
  mutable views : (string * view) list;
  mutable stats : (string * statistics) list;
  mutable corruption : string option;
  mutable analyzed : bool; (* ANALYZE ran: planner may use statistics *)
}

let create () =
  {
    tables = [];
    indexes = [];
    views = [];
    stats = [];
    corruption = None;
    analyzed = false;
  }

let norm = Schema.lower_name

(* ---- tables ---- *)

let find_table t name = List.assoc_opt (norm name) t.tables
let table_exists t name = find_table t name <> None

let add_table t (schema : Schema.table) =
  let state = { schema; heap = Heap.create (); compiled = Not_compiled } in
  t.tables <- t.tables @ [ (norm schema.Schema.table_name, state) ];
  state

let drop_table t name =
  let key = norm name in
  let existed = List.mem_assoc key t.tables in
  t.tables <- List.remove_assoc key t.tables;
  t.indexes <-
    List.filter (fun (_, ix) -> norm ix.Index.on_table <> key) t.indexes;
  existed

let table_names t = List.map (fun (_, ts) -> ts.schema.Schema.table_name) t.tables

(* postgres table inheritance: direct children of a table *)
let children_of t name =
  List.filter_map
    (fun (_, ts) ->
      match ts.schema.Schema.inherits with
      | Some parent when norm parent = norm name ->
          Some ts.schema.Schema.table_name
      | _ -> None)
    t.tables

(* ---- indexes ---- *)

let find_index t name = List.assoc_opt (norm name) t.indexes
let index_exists t name = find_index t name <> None

(* the index set is part of a table's write plan *)
let bump_table t name =
  Option.iter (fun ts -> Schema.bump_version ts.schema) (find_table t name)

let add_index t (ix : Index.t) =
  t.indexes <- t.indexes @ [ (norm ix.Index.index_name, ix) ];
  bump_table t ix.Index.on_table

let drop_index t name =
  match find_index t name with
  | None -> false
  | Some ix ->
      t.indexes <- List.remove_assoc (norm name) t.indexes;
      bump_table t ix.Index.on_table;
      true

let indexes_on t table_name =
  List.filter_map
    (fun (_, ix) ->
      if Schema.name_equal ix.Index.on_table table_name then Some ix else None)
    t.indexes

let index_names t = List.map (fun (_, ix) -> ix.Index.index_name) t.indexes

(* ---- views ---- *)

let find_view t name = List.assoc_opt (norm name) t.views
let view_exists t name = find_view t name <> None

let add_view t (v : view) = t.views <- t.views @ [ (norm v.view_name, v) ]

let drop_view t name =
  let key = norm name in
  let existed = List.mem_assoc key t.views in
  t.views <- List.remove_assoc key t.views;
  existed

let view_names t = List.map (fun (_, v) -> v.view_name) t.views

(* ---- extended statistics (postgres CREATE STATISTICS) ---- *)

let add_statistics t (s : statistics) =
  t.stats <- t.stats @ [ (norm s.stat_name, s) ]

let statistics_exists t name = List.mem_assoc (norm name) t.stats
let statistics_on t table = List.filter (fun (_, s) -> norm s.stat_table = norm table) t.stats |> List.map snd

(* ---- corruption ---- *)

let corrupt t msg = if t.corruption = None then t.corruption <- Some msg
let corruption t = t.corruption

(* ---- snapshots (transactions) ---- *)

type snapshot = {
  snap_tables : (string * table_state) list;
  snap_indexes : (string * Index.t) list;
  snap_views : (string * view) list;
  snap_stats : (string * statistics) list;
  snap_corruption : string option;
  snap_analyzed : bool;
}

let snapshot t =
  {
    snap_tables =
      List.map
        (fun (k, ts) ->
          ( k,
            {
              schema = Schema.copy_table ts.schema;
              heap = Heap.deep_copy ts.heap;
              compiled = Not_compiled;
            } ))
        t.tables;
    snap_indexes = List.map (fun (k, ix) -> (k, Index.copy ix)) t.indexes;
    snap_views = t.views;
    snap_stats = t.stats;
    snap_corruption = t.corruption;
    snap_analyzed = t.analyzed;
  }

let restore t snap =
  t.tables <- snap.snap_tables;
  t.indexes <- snap.snap_indexes;
  t.views <- snap.snap_views;
  t.stats <- snap.snap_stats;
  t.corruption <- snap.snap_corruption;
  t.analyzed <- snap.snap_analyzed
