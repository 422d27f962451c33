(* The plan-space differential oracle.

   PQS validates one execution per query, so planner defects that only
   fire under a particular access path (skip scans, OR-index dedup, DESC
   index ranges) are caught only when the default plan happens to take
   that path.  Here each scan site of a synthesized SELECT runs under its
   enumerable plans ({!Engine.Planner.enumerate}) and each join under
   both join orders, and the result multisets must agree: with no
   injected defect every enumerated path is a sound superset of the
   matching rows and the executor re-applies the WHERE filter.

   Only minimal witnesses run per plan, never the whole query: the
   projections, sorts, compound arms and subqueries around a scan are
   plan-invariant, and re-running them would roughly double the
   campaign's query cost for no extra signal.  A scan site's witness is
   [SELECT (DISTINCT) * FROM site WHERE site-where], with [max_plans]
   forced runs per query in all; the join swap's is a two-table product,
   checked once per database over [max_pairs] table pairs
   ({!check_join_orders}).  Witnesses carry no LIMIT/OFFSET/GROUP BY/ORDER
   BY, so their results are scan-order-insensitive and compare as
   multisets under {!Engine.Executor.Row_eq}, the row identity of the
   engine's own DISTINCT and compound dedup.  The default plan's rows
   are counted once per witness into an {!Engine.Executor.Row_tbl}, each
   row hashed once, and every forced plan's rows are checked against
   those counts without changing them (~94 rows per join-order pair on
   the query-heavy workload, where this comparison used to cost four
   times the two joins it compares).  A divergence report therefore
   already carries a minimal, self-contained witness query.

   Campaign neutrality: re-executions go through
   {!Engine.Session.query_forced} (no statement counting, no coverage
   hits, no randomness), and the oracle is appended after
   [Oracle.defaults] so the paper's oracles keep report priority. *)

open Sqlval
module A = Sqlast.Ast

(* Forced runs per synthesized query, summed over its scan sites. *)
let max_plans = 4

(* Catalog table pairs the per-database join-order check swaps. *)
let max_pairs = 2

(* ------------------------------------------------------------------ *)
(* Minimal per-site reproductions                                      *)

(* [SELECT (DISTINCT) * FROM items WHERE where] — no LIMIT, ORDER BY or
   grouping, so the result multiset is scan-order-insensitive and any two
   sound plans must produce it identically. *)
let minimal_select ~distinct ~from ~where =
  A.Q_select
    {
      A.sel_distinct = distinct;
      sel_items = [ A.Star ];
      sel_from = from;
      sel_where = where;
      sel_group_by = [];
      sel_having = None;
      sel_order_by = [];
      sel_limit = None;
      sel_offset = None;
    }

(* One comparison unit: a minimal witness query and the forced plans to
   re-run it under (each compared against its default execution). *)
type variant_group = {
  vg_query : A.query;
  vg_forces : Engine.Executor.forced list;
}

(* One single-base-table scan site (the shape the planner handles): its
   witness and one force per enumerated path other than the planner's
   default, keyed by the site's effective alias and WHERE clause as the
   executor applies a forced path.  DISTINCT is copied from the owning
   select because distinct-sensitive paths must see it. *)
let site_group session ~name ~alias ~where ~distinct =
  let catalog = Engine.Session.catalog session in
  match Storage.Catalog.find_table catalog name with
  | None -> None
  | Some ts -> (
      let schema = ts.Storage.Catalog.schema in
      (* the planner counts no coverage, so plan enumeration (oracle
         work) adds no hits the campaign would not have *)
      let env =
        Engine.Executor.table_env (Engine.Session.ctx session) schema ~alias
      in
      let default = Engine.Planner.choose env catalog schema ~where in
      let dsig = Engine.Planner.signature default in
      let force p =
        {
          Engine.Executor.f_sites =
            [
              {
                Engine.Executor.fs_alias = String.lowercase_ascii alias;
                fs_table = String.lowercase_ascii name;
                fs_where = where;
                fs_path = p;
              };
            ];
          f_swap_join = false;
        }
      in
      match
        Engine.Planner.enumerate env catalog schema ~where
        |> List.filter (fun p -> Engine.Planner.signature p <> dsig)
      with
      | [] -> None
      | paths ->
          Some
            {
              vg_query =
                minimal_select ~distinct
                  ~from:[ A.F_table { name; alias = Some alias } ]
                  ~where;
              vg_forces = List.map force paths;
            })

(* Prepends each scan site's group to [acc], visiting a select's FROM
   subqueries before its own site. *)
let rec site_groups session (q : A.query) acc =
  match q with
  | A.Q_values _ -> acc
  | A.Q_compound (_, a, b) -> site_groups session b (site_groups session a acc)
  | A.Q_select s -> (
      let acc =
        List.fold_left (fun acc it -> item_groups session it acc) acc
          s.A.sel_from
      in
      match s.A.sel_from with
      | [ A.F_table { name; alias } ] -> (
          match
            site_group session ~name
              ~alias:(Option.value ~default:name alias)
              ~where:s.A.sel_where ~distinct:s.A.sel_distinct
          with
          | Some g -> g :: acc
          | None -> acc)
      | _ -> acc)

and item_groups session (it : A.from_item) acc =
  match it with
  | A.F_table _ -> acc
  | A.F_join { left; right; _ } ->
      item_groups session right (item_groups session left acc)
  | A.F_sub { sub; _ } -> site_groups session sub acc

(* Cap the total forced-run fan-out at [n], keeping group order. *)
let rec cap_groups n = function
  | [] -> []
  | _ when n <= 0 -> []
  | g :: rest ->
      let k = List.length g.vg_forces in
      if k <= n then g :: cap_groups (n - k) rest
      else
        [ { g with vg_forces = List.filteri (fun i _ -> i < n) g.vg_forces } ]

(* ------------------------------------------------------------------ *)
(* The differential check                                              *)

type divergence = {
  dv_witness : string;  (* SQL of the minimal witness query *)
  dv_forced : Engine.Executor.forced;  (* the disagreeing plan *)
  dv_default_rows : int;
  dv_forced_rows : int;
  dv_cardinalities : (string * int) list;
      (* per-plan row counts on the witness, default first;
         -1 = plan errored *)
  dv_default_plan : string list;
  dv_forced_plan : string list;
}

type outcome = { oc_plans : int; oc_divergence : divergence option }

(* The query whose plans are compared: a containment check is
   [VALUES (pivot) INTERSECT query] and the INTERSECT would mask any
   divergence away from the pivot row, so the inner query is extracted. *)
let target_query (q : A.query) =
  match q with
  | A.Q_compound (A.Intersect, A.Q_values _, inner) -> inner
  | q -> q

let message d =
  let cards =
    String.concat ", "
      (List.map (fun (l, n) -> Printf.sprintf "%s=%d" l n) d.dv_cardinalities)
  in
  Printf.sprintf
    "plan divergence on witness `%s`: forced plan [%s] returned %d rows, \
     default returned %d (cardinalities: %s); default plan: %s; forced \
     plan: %s"
    d.dv_witness
    (Engine.Executor.show_forced d.dv_forced)
    d.dv_forced_rows d.dv_default_rows cards
    (String.concat " | " d.dv_default_plan)
    (String.concat " | " d.dv_forced_plan)

(* The default plan's rows of one witness as a multiset: each distinct
   row (under {!Engine.Executor.Row_eq}) with its entry number and its
   count, hashed once.  A forced plan's rows are checked against it
   without changing it, tallying into an array of their own, so every
   plan of a group reads the same counts whatever the plans before it
   returned. *)
type tally = { t_entry : int; mutable t_count : int }

type counts = { c_rows : int; c_table : tally Engine.Executor.Row_tbl.t }

let counts rows =
  let n = List.length rows in
  let table = Engine.Executor.Row_tbl.create n in
  let fresh () =
    { t_entry = Engine.Executor.Row_tbl.length table; t_count = 0 }
  in
  List.iter
    (fun r ->
      let t = Engine.Executor.Row_tbl.find_or_add table r fresh in
      t.t_count <- t.t_count + 1)
    rows;
  { c_rows = n; c_table = table }

let matches c rows =
  List.compare_length_with rows c.c_rows = 0
  &&
  let seen = Array.make (Engine.Executor.Row_tbl.length c.c_table) 0 in
  List.for_all
    (fun r ->
      match Engine.Executor.Row_tbl.find_opt c.c_table r with
      | None -> false
      | Some t ->
          let n = seen.(t.t_entry) + 1 in
          seen.(t.t_entry) <- n;
          n <= t.t_count)
    rows

(* Run the groups until the first divergence; within the divergent group
   every plan runs so the report carries all cardinalities. *)
let run_groups session (groups : variant_group list) : outcome =
  let run force w =
    match Engine.Session.query_forced session ~force w with
    | Ok rs -> Some rs.Engine.Executor.rs_rows
    | Error _ | (exception Engine.Errors.Crash _) -> None
  in
  let diverge g =
    match run Engine.Executor.no_force g.vg_query with
    | None -> None
    | Some base ->
        let results =
          List.map (fun force -> (force, run force g.vg_query)) g.vg_forces
        in
        let base_counts = counts base in
        let card (f, r) =
          ( Engine.Executor.show_forced f,
            match r with Some rows -> List.length rows | None -> -1 )
        in
        List.find_map
          (fun (force, rows) ->
            match rows with
            | Some rows when not (matches base_counts rows) ->
                Some
                  {
                    dv_witness =
                      Sqlast.Sql_printer.query
                        (Engine.Session.dialect session)
                        g.vg_query;
                    dv_forced = force;
                    dv_default_rows = List.length base;
                    dv_forced_rows = List.length rows;
                    dv_cardinalities =
                      ("default", List.length base) :: List.map card results;
                    dv_default_plan =
                      Engine.Session.plan_lines session g.vg_query;
                    dv_forced_plan =
                      Engine.Session.plan_lines ~force session g.vg_query;
                  }
            | _ -> None)
          results
  in
  let rec go plans = function
    | [] -> { oc_plans = plans; oc_divergence = None }
    | g :: rest -> (
        let plans = plans + List.length g.vg_forces in
        match diverge g with
        | Some _ as d -> { oc_plans = plans; oc_divergence = d }
        | None -> go plans rest)
  in
  go 0 groups

let check_query session (q : A.query) : outcome =
  run_groups session
    (cap_groups max_plans (site_groups session (target_query q) []))

(* The join-order differential.  The executor's swapped join produces the
   same combination multiset as the default order for any inner/cross
   join — a property of the join machinery and the stored data, not of
   the query around it — so it is checked once per database over catalog
   table pairs rather than once per synthesized query (per-query swap
   re-execution costs ~2x the join, the dominant query cost, for a
   signal identical across queries sharing the join shape). *)
let check_join_orders session : outcome =
  let swap = { Engine.Executor.f_sites = []; f_swap_join = true } in
  let witness a b =
    minimal_select ~distinct:false
      ~from:
        [
          A.F_table { name = a; alias = Some "pd_l" };
          A.F_table { name = b; alias = Some "pd_r" };
        ]
      ~where:None
  in
  let tables =
    Schema_info.tables_of_session session
    |> List.map (fun (ti : Schema_info.table_info) -> ti.Schema_info.ti_name)
  in
  let pairs =
    match tables with
    | [] -> []
    | [ t ] -> [ (t, t) ] (* a self-join still drives both loop orders *)
    | ts ->
        let rec consecutive = function
          | a :: (b :: _ as rest) -> (a, b) :: consecutive rest
          | _ -> []
        in
        List.filteri (fun i _ -> i < max_pairs) (consecutive ts)
  in
  run_groups session
    (List.map
       (fun (a, b) -> { vg_query = witness a b; vg_forces = [ swap ] })
       pairs)

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)

let oracle () : Oracle.t =
  Oracle.make ~name:"plan_diff" (fun ctx event ->
      let checked oc =
        if oc.oc_plans > 0 then
          Telemetry.inc ctx.Oracle.ctx_telemetry ~by:oc.oc_plans
            "pqs_plans_enumerated_total";
        match oc.oc_divergence with
        | None -> Oracle.Pass
        | Some d ->
            Telemetry.inc ctx.Oracle.ctx_telemetry
              "pqs_plan_divergences_total";
            Oracle.Report { kind = Bug_report.Plan_diff; message = message d }
      in
      match event with
      | Oracle.Containment_check { Oracle.check_stmt = A.Select_stmt q; _ } ->
          Telemetry.Span.timed ctx.Oracle.ctx_telemetry
            Telemetry.Phase.Plan_diff (fun () ->
              checked (check_query ctx.Oracle.ctx_session q))
      | Oracle.Database_ready ->
          Telemetry.Span.timed ctx.Oracle.ctx_telemetry
            Telemetry.Phase.Plan_diff (fun () ->
              checked (check_join_orders ctx.Oracle.ctx_session))
      | Oracle.Containment_check _ | Oracle.Statement _ -> Oracle.Pass)

(* ------------------------------------------------------------------ *)
(* Seed-corpus sweep (make plandiff / sqlancer plan-diff / tests)      *)

type sweep_result = {
  pd_seeds : int;
  pd_queries : int;  (** synthesized queries checked *)
  pd_plans : int;  (** forced plans executed *)
  pd_containment_seeds : int list;
      (** seeds on which the containment check itself failed (pivot row
          missing), ascending and deduplicated *)
  pd_divergences : (int * string) list;
      (** every plan divergence, tagged with its seed *)
}

(* Deterministic index DDL on top of the generated schema, so every seed
   has a non-trivial plan space: a composite index (skip scans), a DESC
   single-column index (descending ranges) and plain single-column
   indexes (OR unions, probes).  Random DDL alone creates these shapes
   too rarely for a bounded sweep. *)
let add_plan_indexes (db : Corpus.t) =
  Schema_info.tables_of_session db.Corpus.session
  |> List.iter (fun (ti : Schema_info.table_info) ->
         let t = ti.Schema_info.ti_name in
         let cols =
           List.map
             (fun (ci : Schema_info.column_info) -> ci.Schema_info.ci_name)
             ti.Schema_info.ti_columns
         in
         let ic ?(desc = false) c =
           { A.ic_expr = A.col c; ic_collate = None; ic_desc = desc }
         in
         let mk name columns =
           Corpus.exec db
             (A.Create_index
                {
                  A.ci_name = Printf.sprintf "pdx_%s_%s" t name;
                  ci_if_not_exists = false;
                  ci_table = t;
                  ci_unique = false;
                  ci_columns = columns;
                  ci_where = None;
                })
         in
         match cols with
         | c0 :: c1 :: _ ->
             mk "comp" [ ic c0; ic c1 ];
             mk "desc" [ ic ~desc:true c0 ];
             mk "one" [ ic c1 ]
         | [ c0 ] ->
             mk "desc" [ ic ~desc:true c0 ];
             mk "one" [ ic c0 ]
         | [] -> ())

(* Directed plan probes: pivot-valued shapes that exercise the
   distinctive access paths (composite-index skip scan under DISTINCT, OR
   union over two indexes, strict range over the DESC index).  Random
   synthesis emits equality/OR conjunct WHEREs too rarely for a bounded
   sweep to reach those paths. *)
let directed_probes (ti : Schema_info.table_info) (row : Value.t array) =
  let cols = ti.Schema_info.ti_columns in
  let value i = if i < Array.length row then row.(i) else Value.Null in
  let col i = A.col (List.nth cols i).Schema_info.ci_name in
  let eq i = A.Binary (A.Eq, col i, A.Lit (value i)) in
  let select ?(distinct = false) items where =
    A.Q_select
      {
        A.sel_distinct = distinct;
        sel_items = items;
        sel_from = [ A.F_table { name = ti.Schema_info.ti_name; alias = None } ];
        sel_where = Some where;
        sel_group_by = [];
        sel_having = None;
        sel_order_by = [];
        sel_limit = None;
        sel_offset = None;
      }
  in
  select ~distinct:true [ A.Sel_expr (col 0, None) ] (eq 0)
  :: select [ A.Star ] (A.Binary (A.Gt, col 0, A.Lit (value 0)))
  :: select [ A.Star ] (A.Binary (A.Lt, col 0, A.Lit (value 0)))
  ::
  (if List.length cols >= 2 then
     [
       select ~distinct:true [ A.Sel_expr (col 0, None) ] (eq 1);
       select [ A.Star ] (A.Binary (A.Or, eq 0, eq 1));
     ]
   else [])

let sweep ?(bugs = Engine.Bug.empty_set) ~seed_lo ~seed_hi dialect :
    sweep_result =
  let queries = ref 0 and plans = ref 0 in
  let containment_seeds = ref [] in
  let divergences = ref [] in
  for seed = seed_lo to seed_hi do
    let db = Corpus.build ~bugs ~seed dialect in
    let session = db.Corpus.session in
    add_plan_indexes db;
    let record run =
      match run () with
      | oc ->
          plans := !plans + oc.oc_plans;
          Option.iter
            (fun d -> divergences := (seed, message d) :: !divergences)
            oc.oc_divergence
      | exception Engine.Errors.Crash _ -> ()
    in
    let check q =
      incr queries;
      record (fun () -> check_query session q)
    in
    let sources = Corpus.sources session in
    for _ = 1 to Corpus.queries_per_seed do
      match Corpus.query db sources with
      | None -> ()
      | Some (_, t) ->
          (* would the containment oracle fire on this query? *)
          let containment_fired =
            match
              Engine.Session.query session
                (match Gen_query.containment_stmt t with
                | A.Select_stmt q -> q
                | _ -> A.Q_select t.Gen_query.query)
            with
            | Ok rs -> rs.Engine.Executor.rs_rows = []
            | Error _ -> false
            | exception Engine.Errors.Crash _ -> false
          in
          if containment_fired && not (List.mem seed !containment_seeds) then
            containment_seeds := seed :: !containment_seeds;
          check (A.Q_select t.Gen_query.query)
    done;
    List.iter
      (fun ((ti : Schema_info.table_info), rows) ->
        List.iter check (directed_probes ti (Rng.pick db.Corpus.rng rows)))
      sources;
    (* the per-database join-order differential, as the oracle runs it *)
    record (fun () -> check_join_orders session)
  done;
  {
    pd_seeds = max 0 (seed_hi - seed_lo + 1);
    pd_queries = !queries;
    pd_plans = !plans;
    pd_containment_seeds = List.sort compare (List.rev !containment_seeds);
    pd_divergences = List.rev !divergences;
  }

(* Seeds on which plan-diff diverged but the containment check passed:
   the bug classes only this oracle surfaces. *)
let exclusive_seeds (r : sweep_result) =
  List.sort_uniq compare (List.map fst r.pd_divergences)
  |> List.filter (fun s -> not (List.mem s r.pd_containment_seeds))

(* self-registration; the recheck rebuilds the database and re-runs the
   multi-plan comparison, so reduced scripts must keep diverging *)
let () =
  let recheck ~dialect ~bugs ~oracle:_ stmts =
    let session = Oracle.Registry.replay ~dialect ~bugs stmts in
    let diverged check =
      match check session with
      | oc -> oc.oc_divergence <> None
      | exception Engine.Errors.Crash _ -> false
    in
    (* on the final SELECT if the script ends in one (a per-query site
       divergence), and over the join-order witnesses either way (a
       Database_ready divergence has no trigger SELECT) *)
    (match List.rev stmts with
    | A.Select_stmt q :: _ -> diverged (fun s -> check_query s q)
    | _ -> false)
    || diverged check_join_orders
  in
  Oracle.Registry.register
    {
      Oracle.Registry.reg_name = "plan_diff";
      reg_doc =
        "add the plan-space differential oracle: re-execute every \
         containment query under each enumerable access plan and \
         cross-check the result multisets";
      reg_flag = Some "plan-diff";
      reg_default = false;
      reg_kinds = [ Bug_report.Plan_diff ];
      reg_make = (fun () -> oracle ());
      reg_recheck = Oracle.Registry.Custom recheck;
    }
