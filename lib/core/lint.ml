(* The static-analysis self-check oracle.

   Bridges lib/analysis to the PQS loop: builds Analysis environments from
   the live session's catalog (the same Schema_info snapshot the
   generators use), typechecks every containment query, and — when no
   injected bug is enabled — lints the access path the planner would pick
   for each single-table scan in it.  Any error diagnostic becomes a
   [Bug_report.Lint] report.

   Design constraints that keep the oracle campaign-neutral (a run with
   the lint oracle must report the identical bug set as one without it on
   the same seeds):

   - only [Select_stmt] / [Explain] statements are analyzed, and only when
     they executed successfully: generated DDL/DML may legitimately fail
     (dropped tables, duplicate keys) and those expected errors must keep
     flowing to the error oracle untouched;
   - plan linting is gated on an empty bug set: with injected planner
     bugs enabled the planner intentionally produces inconsistent paths,
     and flagging them would change which report fires first;
   - the oracle is appended after [Oracle.defaults], so on any event the
     paper's oracles keep report priority. *)

open Sqlval
module A = Sqlast.Ast

(* ------------------------------------------------------------------ *)
(* Environment builders                                               *)

let table_of_info (ti : Schema_info.table_info) : Analysis.Typecheck.table =
  {
    Analysis.Typecheck.tab_name = ti.Schema_info.ti_name;
    tab_columns =
      List.map
        (fun (ci : Schema_info.column_info) ->
          {
            Analysis.Typecheck.col_name = ci.Schema_info.ci_name;
            col_type = ci.Schema_info.ci_type;
            col_collation = ci.Schema_info.ci_collation;
            col_nullability =
              (if ci.Schema_info.ci_not_null then
                 Analysis.Nullability.Not_null
               else Analysis.Nullability.Maybe_null);
          })
        ti.Schema_info.ti_columns;
  }

let env_of_session session : Analysis.env =
  let tables =
    Schema_info.tables_of_session session |> List.map table_of_info
  in
  (* views contribute untyped, binary-collation columns, mirroring how
     view rows re-enter the engine *)
  let views =
    Schema_info.views_of_session session
    |> List.map (fun (name, cols) ->
           {
             Analysis.Typecheck.tab_name = name;
             tab_columns =
               List.map
                 (fun c ->
                   {
                     Analysis.Typecheck.col_name = c;
                     col_type = Datatype.Any;
                     col_collation = Collation.Binary;
                     col_nullability = Analysis.Nullability.Maybe_null;
                   })
                 cols;
           })
  in
  Analysis.env (Engine.Session.dialect session) (tables @ views)

let env_of_pivot dialect (pivot : (Schema_info.table_info * Value.t array) list)
    : Analysis.env =
  let tables =
    List.map
      (fun ((ti : Schema_info.table_info), row) ->
        {
          Analysis.Typecheck.tab_name = ti.Schema_info.ti_name;
          tab_columns =
            List.mapi
              (fun i (ci : Schema_info.column_info) ->
                let v =
                  if i < Array.length row then row.(i) else Value.Null
                in
                {
                  Analysis.Typecheck.col_name = ci.Schema_info.ci_name;
                  col_type = ci.Schema_info.ci_type;
                  col_collation = ci.Schema_info.ci_collation;
                  col_nullability = Analysis.Nullability.of_value v;
                })
              ti.Schema_info.ti_columns;
        })
      pivot
  in
  Analysis.env dialect tables

(* ------------------------------------------------------------------ *)
(* Statement and plan analysis                                        *)

let check_stmt session stmt = Analysis.check_stmt (env_of_session session) stmt

(* Single-table scans inside the query (including derived tables and
   compound arms), each paired with its WHERE clause — exactly the shapes
   the planner handles (Explain.from_lines mirrors the same walk). *)
let rec scan_sites session (q : A.query) acc =
  match q with
  | A.Q_values _ -> acc
  | A.Q_compound (_, a, b) -> scan_sites session b (scan_sites session a acc)
  | A.Q_select s ->
      let acc =
        List.fold_left
          (fun acc it -> sub_sites session it acc)
          acc s.A.sel_from
      in
      (match s.A.sel_from with
      | [ A.F_table { name; _ } ] -> (
          let catalog = Engine.Session.catalog session in
          match Storage.Catalog.find_table catalog name with
          | Some ts ->
              (ts.Storage.Catalog.schema, s.A.sel_where) :: acc
          | None -> acc)
      | _ -> acc)

and sub_sites session (it : A.from_item) acc =
  match it with
  | A.F_table _ -> acc
  | A.F_join { left; right; _ } ->
      sub_sites session right (sub_sites session left acc)
  | A.F_sub { sub; _ } -> scan_sites session sub acc

let lint_plans session (q : A.query) : Analysis.Diagnostic.t list =
  let ctx = Engine.Session.ctx session in
  let env = Engine.Executor.eval_env ctx in
  let catalog = Engine.Session.catalog session in
  scan_sites session q []
  |> List.concat_map (fun (schema, where) ->
         let path = Engine.Planner.choose env catalog schema ~where in
         Analysis.lint_plan env catalog schema ~where path)

(* ------------------------------------------------------------------ *)
(* The oracle                                                         *)

let verdict_of diags =
  match List.filter Analysis.Diagnostic.is_error diags with
  | [] -> Oracle.Pass
  | errs ->
      Oracle.Report
        {
          kind = Bug_report.Lint;
          message =
            "static analysis: "
            ^ String.concat "; "
                (List.map Analysis.Diagnostic.to_string errs);
        }

let analyze ctx (stmt : A.stmt) =
  let session = ctx.Oracle.ctx_session in
  match stmt with
  | A.Select_stmt q | A.Explain q | A.Explain_analyze q ->
      Telemetry.Span.timed ctx.Oracle.ctx_telemetry Telemetry.Phase.Lint (fun () ->
          let tdiags = check_stmt session stmt in
          let pdiags =
            (* with injected bugs enabled the planner intentionally produces
               inconsistent paths; lint them only on a clean engine *)
            if Engine.Bug.to_list (Engine.Session.bugs session) = [] then
              lint_plans session q
            else []
          in
          verdict_of (tdiags @ pdiags))
  | _ -> Oracle.Pass

let oracle : Oracle.t =
  Oracle.make ~name:"lint" (fun ctx event ->
      match event with
      | Oracle.Statement (stmt, Oracle.Succeeded _) -> analyze ctx stmt
      | Oracle.Containment_check { Oracle.check_stmt = stmt; _ } ->
          analyze ctx stmt
      | Oracle.Statement (_, (Oracle.Failed _ | Oracle.Crashed _))
      | Oracle.Database_ready ->
          Oracle.Pass)

(* ------------------------------------------------------------------ *)
(* Seed-corpus sweep (make lint / sqlancer lint / test_analysis)       *)

type sweep_result = {
  sw_seeds : int;
  sw_queries : int;  (** containment statements analyzed *)
  sw_plans : int;  (** single-table scan sites linted *)
  sw_diags : (int * Analysis.Diagnostic.t) list;
      (** every type/nullability/plan diagnostic, tagged with its seed *)
  sw_simplify_diags : (int * Analysis.Diagnostic.t) list;
      (** simplification/interval findings (always-true, dead-case-branch,
          unsat-predicate, out-of-interval) — advisory warnings about the
          generated predicates, counted separately from [sw_diags] *)
}

(* Every WHERE clause in the query, including derived tables and compound
   arms — the inputs of the interval and simplification lints. *)
let rec where_sites (q : A.query) acc =
  match q with
  | A.Q_values _ -> acc
  | A.Q_compound (_, a, b) -> where_sites b (where_sites a acc)
  | A.Q_select s ->
      let acc =
        List.fold_left (fun acc it -> where_subs it acc) acc s.A.sel_from
      in
      (match s.A.sel_where with Some w -> w :: acc | None -> acc)

and where_subs (it : A.from_item) acc =
  match it with
  | A.F_table _ -> acc
  | A.F_join { left; right; _ } -> where_subs right (where_subs left acc)
  | A.F_sub { sub; _ } -> where_sites sub acc

let sweep ?(queries_per_seed = 3) ~seed_lo ~seed_hi dialect : sweep_result =
  let queries = ref 0 and plans = ref 0 in
  let diags = ref [] and simplify_diags = ref [] in
  for seed = seed_lo to seed_hi do
    let db = Corpus.build ~seed dialect in
    let session = db.Corpus.session in
    let sources = Corpus.sources session in
    let csl =
      Engine.Options.case_sensitive_like (Engine.Session.options session)
    in
    (* interval domains over the declared schema and a column-free
       folding environment: the simplification lints need no pivot *)
    let idom =
      Analysis.Interval.of_tables dialect
        (Schema_info.tables_of_session session |> List.map table_of_info)
    in
    let cenv = Analysis.Const_fold.const_env ~case_sensitive_like:csl dialect in
    for _ = 1 to queries_per_seed do
      match Corpus.query db sources with
      | None -> ()
      | Some (_, t) ->
          let stmt = Gen_query.containment_stmt t in
          incr queries;
          let tdiags = check_stmt session stmt in
          let pdiags =
            match stmt with
            | A.Select_stmt q | A.Explain q | A.Explain_analyze q ->
                plans := !plans + List.length (scan_sites session q []);
                lint_plans session q
            | _ -> []
          in
          List.iter
            (fun d -> diags := (seed, d) :: !diags)
            (tdiags @ pdiags);
          (match stmt with
          | A.Select_stmt q | A.Explain q | A.Explain_analyze q ->
              List.iter
                (fun w ->
                  List.iter
                    (fun d -> simplify_diags := (seed, d) :: !simplify_diags)
                    (Analysis.Interval.check idom w
                    @ Analysis.Simplify.where_diagnostics cenv w))
                (where_sites q [])
          | _ -> ())
    done
  done;
  {
    sw_seeds = max 0 (seed_hi - seed_lo + 1);
    sw_queries = !queries;
    sw_plans = !plans;
    sw_diags = List.rev !diags;
    sw_simplify_diags = List.rev !simplify_diags;
  }

(* self-registration: the CLI flag, reducer and replay arms all derive
   from this entry *)
let () =
  Oracle.Registry.register
    {
      Oracle.Registry.reg_name = "lint";
      reg_doc = "add the static-analysis self-check oracle (see Analysis)";
      reg_flag = Some "lint";
      reg_default = false;
      reg_kinds = [ Bug_report.Lint ];
      reg_make = (fun () -> oracle);
      (* static-analysis findings depend on schema state at analysis time,
         not on replay behaviour *)
      reg_recheck = Oracle.Registry.Not_recheckable;
    }
