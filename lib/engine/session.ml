open Sqlval
module A = Sqlast.Ast

(* kind labels of minidb_statement_seconds / minidb_statements_total;
   indexed so per-statement recording goes through pre-resolved handles *)
let kind_names =
  [| "select"; "insert"; "update"; "delete"; "ddl"; "txn"; "explain"; "maint" |]

type t = {
  dialect : Dialect.t;
  catalog : Storage.Catalog.t;
  bugs : Bug.set;
  options : Options.t;
  coverage : Coverage.t option;
  telemetry : Telemetry.t;
  recorder : Trace.t;
  exec_hist : Telemetry.histogram_handle;
  kind_handles :
    (Telemetry.histogram_handle * Telemetry.counter_handle) array;
  profile : Executor.profile;
  rng : Random.State.t Lazy.t;
      (* made from the seed on first use; only the key-cache bug gate
         draws from it *)
  mutable txn_snapshot : Storage.Catalog.snapshot option;
}

type exec_result =
  | Rows of Executor.result_set
  | Affected of int
  | Done

let pp_exec_result fmt = function
  | Rows rs -> Executor.pp_result_set fmt rs
  | Affected n -> Format.fprintf fmt "affected %d" n
  | Done -> Format.pp_print_string fmt "ok"

let kind_handles telemetry =
  Array.map
    (fun kind ->
      ( Telemetry.histogram_handle telemetry
          ~labels:[ ("kind", kind) ]
          "minidb_statement_seconds",
        Telemetry.counter_handle telemetry
          ~labels:[ ("kind", kind) ]
          "minidb_statements_total" ))
    kind_names

(* noop telemetry resolves every handle to the inert one, so sessions
   without telemetry share one set; no writer mutates them *)
let noop_kind_handles = kind_handles Telemetry.noop
let noop_profile = Executor.make_profile Telemetry.noop

let create ?(seed = 42) ?(bugs = Bug.empty_set) ?coverage
    ?(telemetry = Telemetry.noop) ?(recorder = Trace.noop) dialect =
  let on = Telemetry.enabled telemetry in
  {
    dialect;
    catalog = Storage.Catalog.create ();
    bugs;
    options = Options.create dialect;
    coverage;
    telemetry;
    recorder;
    exec_hist =
      Telemetry.histogram_handle telemetry
        ~labels:[ ("phase", "execute") ]
        "minidb_phase_seconds";
    kind_handles = (if on then kind_handles telemetry else noop_kind_handles);
    profile = (if on then Executor.make_profile telemetry else noop_profile);
    rng = lazy (Random.State.make [| seed |]);
    txn_snapshot = None;
  }

let dialect t = t.dialect
let catalog t = t.catalog
let bugs t = t.bugs
let options t = t.options

let ctx t : Executor.ctx =
  {
    Executor.dialect = t.dialect;
    bugs = t.bugs;
    options = t.options;
    coverage = t.coverage;
    catalog = t.catalog;
    telemetry = t.telemetry;
    profile = t.profile;
    recorder = t.recorder;
    force = None;
  }

let table_names t = Storage.Catalog.table_names t.catalog
let view_names t = Storage.Catalog.view_names t.catalog

let cov t point =
  match t.coverage with None -> () | Some c -> Coverage.hit c point

(* Statements that read or write the database are rejected once the
   database is corrupted (paper: 'malformed database disk image' is always
   unexpected). *)
let touches_data = function
  | A.Begin_txn | A.Commit_txn | A.Rollback_txn | A.Set_option _ | A.Pragma _
  | A.Discard_all ->
      false
  | A.Create_table _ | A.Drop_table _ | A.Alter_table _ | A.Create_index _
  | A.Drop_index _ | A.Reindex _ | A.Create_view _ | A.Drop_view _
  | A.Insert _ | A.Update _ | A.Delete _ | A.Select_stmt _ | A.Vacuum _
  | A.Analyze _ | A.Check_table _ | A.Repair_table _ | A.Create_statistics _
  | A.Explain _ | A.Explain_analyze _ ->
      true

let set_option t ~global ~name ~value =
  cov t (match t.dialect with Dialect.Sqlite_like -> "maint.pragma" | _ -> "maint.set_option");
  if Dialect.equal t.dialect Dialect.Sqlite_like then
    Eval.failf Errors.Syntax_error "SET is not supported; use PRAGMA";
  (* Listing 3: SET GLOBAL key_cache_division_limit nondeterministically
     fails *)
  if
    Dialect.equal t.dialect Dialect.Mysql_like
    && Bug.on t.bugs Bug.My_set_key_cache_nondet
    && String.lowercase_ascii name = "key_cache_division_limit"
    && global
    && Random.State.int (Lazy.force t.rng) 4 = 0
  then
    Eval.failf Errors.Invalid_option "ERROR 1210 (HY000): Incorrect arguments to SET"
  else Options.set t.options name value

let pragma t ~name ~value =
  cov t "maint.pragma";
  if not (Dialect.equal t.dialect Dialect.Sqlite_like) then
    Eval.failf Errors.Syntax_error "PRAGMA is sqlite-specific";
  match value with
  | None -> () (* a read; unknown pragmas are silently ignored, like sqlite *)
  | Some v ->
      (* sqlite ignores an unknown pragma, and a mistyped value *)
      Eval.catch (Options.set t.options name) v ~error:ignore

(* index into [kind_names], the [kind=...] dimension of
   minidb_statement_seconds / minidb_statements_total *)
let stmt_kind_index = function
  | A.Select_stmt _ -> 0
  | A.Insert _ -> 1
  | A.Update _ -> 2
  | A.Delete _ -> 3
  | A.Create_table _ | A.Drop_table _ | A.Alter_table _ | A.Create_index _
  | A.Drop_index _ | A.Create_view _ | A.Drop_view _ ->
      4
  | A.Begin_txn | A.Commit_txn | A.Rollback_txn -> 5
  | A.Explain _ | A.Explain_analyze _ -> 6
  | A.Reindex _ | A.Vacuum _ | A.Analyze _ | A.Check_table _
  | A.Repair_table _ | A.Create_statistics _ | A.Discard_all | A.Set_option _
  | A.Pragma _ ->
      7

(* One statement, raising its error with [Eval.fail]. *)
let exec_stmt t (stmt : A.stmt) =
  let c = ctx t in
  (match Storage.Catalog.corruption t.catalog with
  | Some msg when touches_data stmt ->
      Eval.fail (Errors.make Errors.Malformed_database msg)
  | _ -> ());
  match stmt with
  | A.Create_table ct ->
      Ddl.create_table c ct;
      Done
  | A.Drop_table { if_exists; name } ->
      Ddl.drop_table c ~if_exists name;
      Done
  | A.Alter_table { table; action } ->
      Ddl.alter_table c table action;
      Done
  | A.Create_index ci ->
      Ddl.create_index c ci;
      Done
  | A.Drop_index { if_exists; name } ->
      Ddl.drop_index c ~if_exists name;
      Done
  | A.Reindex target ->
      Maintenance.reindex c target;
      Done
  | A.Create_view { name; query } ->
      Ddl.create_view c name query;
      Done
  | A.Drop_view { if_exists; name } ->
      Ddl.drop_view c ~if_exists name;
      Done
  | A.Insert { table; columns; rows; action } ->
      Affected (Dml.insert c ~table ~columns ~rows ~action)
  | A.Update { table; assignments; where; action } ->
      Affected (Dml.update c ~table ~assignments ~where ~action)
  | A.Delete { table; where } -> Affected (Dml.delete c ~table ~where)
  | A.Select_stmt q -> Rows (Compile.query c q)
  | A.Vacuum { full } ->
      Maintenance.vacuum c ~full;
      Done
  | A.Analyze target ->
      Maintenance.analyze c target;
      Done
  | A.Check_table { table; for_upgrade } ->
      Maintenance.check_table c ~table ~for_upgrade;
      Done
  | A.Repair_table table ->
      Maintenance.repair_table c table;
      Done
  | A.Set_option { global; name; value } ->
      set_option t ~global ~name ~value;
      Done
  | A.Pragma { name; value } ->
      pragma t ~name ~value;
      Done
  | A.Create_statistics { name; table; columns } ->
      Maintenance.create_statistics c ~name ~table ~columns;
      Done
  | A.Discard_all ->
      Maintenance.discard_all c;
      Done
  | A.Begin_txn ->
      cov t "maint.begin";
      if t.txn_snapshot <> None then
        Eval.failf Errors.Txn_state "cannot start a transaction within a transaction";
      t.txn_snapshot <- Some (Storage.Catalog.snapshot t.catalog);
      Done
  | A.Commit_txn ->
      cov t "maint.commit";
      if t.txn_snapshot = None then
        Eval.failf Errors.Txn_state "cannot commit - no transaction is active";
      t.txn_snapshot <- None;
      Done
  | A.Explain q ->
      cov t "admin.explain";
      Rows (Explain.run c q)
  | A.Explain_analyze q ->
      cov t "admin.explain_analyze";
      Rows (Explain.run_analyze c q)
  | A.Rollback_txn -> (
      cov t "maint.rollback";
      match t.txn_snapshot with
      | None -> Eval.failf Errors.Txn_state "cannot rollback - no transaction is active"
      | Some snap ->
          Storage.Catalog.restore t.catalog snap;
          t.txn_snapshot <- None;
          Done)

(* The one catch that makes a statement's result: the first error any
   layer raises.  [Errors.Crash] is not caught. *)
let execute_raw t stmt = Eval.run (fun () -> exec_stmt t stmt)

(* One clock pair covers the phase histogram, the per-kind latency
   histogram and the statement counter, all through handles resolved at
   session creation; the simulated SEGFAULT ([Errors.Crash]) still
   propagates and is still timed. *)
let execute t (stmt : A.stmt) : (exec_result, Errors.t) result =
  if not (Telemetry.enabled t.telemetry) then execute_raw t stmt
  else begin
    let kind_hist, kind_count = t.kind_handles.(stmt_kind_index stmt) in
    let record t0 =
      let dt = Telemetry.Clock.now () -. t0 in
      Telemetry.observe_handle t.exec_hist dt;
      Telemetry.observe_handle kind_hist dt;
      Telemetry.inc_handle kind_count
    in
    let t0 = Telemetry.Clock.now () in
    match execute_raw t stmt with
    | r ->
        record t0;
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        record t0;
        Printexc.raise_with_backtrace e bt
  end

let plan_lines ?force t q =
  Explain.query_lines { (ctx t) with Executor.force } q

let query t q =
  match execute t (A.Select_stmt q) with
  | Ok (Rows rs) -> Ok rs
  | Ok _ -> Error (Errors.make Errors.Internal_error "query returned no rows")
  | Error e -> Error e

(* Plan-diff re-executions: run a query under a forced plan without going
   through [execute], so oracle re-runs neither count as campaign
   statements nor perturb the per-kind telemetry; coverage is stripped too,
   so forced runs can never add coverage hits a plain run would not. *)
let query_forced t ~force q =
  Compile.run_query
    { (ctx t) with Executor.force = Some force; coverage = None }
    q
