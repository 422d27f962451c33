(* The plan-space differential oracle.

   PQS validates one execution per query, so planner defects that only
   fire under a particular access path (skip scans, OR-index dedup, DESC
   index ranges) are caught only when the default plan happens to take
   that path.  This oracle turns the planner itself into a test surface:
   each synthesized SELECT is re-executed under every enumerable plan
   ({!Engine.Planner.enumerate} + forced join orders) and the result
   multisets are cross-checked.  Any divergence is a bug by construction —
   with no injected defects every enumerated path is a sound superset of
   the matching rows and the executor re-applies the WHERE filter, so all
   plans must agree.

   The differential does not re-run the whole query per plan — the
   projections, sorts, compound arms and subqueries around a scan are
   plan-invariant, so re-evaluating them per forced plan would roughly
   double the campaign's query cost for no extra signal.  Instead each
   scan site is reduced to a minimal reproduction
   [SELECT (DISTINCT) * FROM site WHERE site-where] (DISTINCT copied from
   the owning select because distinct-sensitive access paths behave
   differently under it), and only that witness is executed under the
   default and each forced plan.  The join-order swap is likewise checked
   through minimal two-table witnesses, once per database
   ({!check_join_orders}) since its signal does not depend on the
   surrounding query.  Witnesses carry no LIMIT/OFFSET/GROUP BY/ORDER
   BY, so their results are scan-order-insensitive by construction and
   can be compared as multisets under {!Engine.Executor.Row_eq}, the
   same typed row identity the engine's own DISTINCT and compound dedup
   use (integral Reals and Bools are Ints; other Reals match on their 12
   significant digits).  A divergence report therefore already carries a
   minimal, self-contained witness query.

   ({!query_stable} remains the guard for whole-query forcing via
   {!enumerate_forced}: LIMIT/OFFSET break ties by scan order, and a
   grouped select picks representative tuples in scan order unless every
   output is a group key or an order-insensitive aggregate.)

   Campaign neutrality: re-executions go through
   {!Engine.Session.query_forced} (no statement counting, no coverage
   hits, no randomness), and the oracle is appended after
   [Oracle.defaults] so the paper's oracles keep report priority. *)

open Sqlval
module A = Sqlast.Ast

(* ------------------------------------------------------------------ *)
(* Order-stability guard                                               *)

let agg_order_insensitive = function
  | A.A_count_star | A.A_count | A.A_min | A.A_max -> true
  | A.A_sum | A.A_avg | A.A_total -> false

let select_has_agg (s : A.select) =
  s.A.sel_group_by <> []
  || List.exists
       (function
         | A.Sel_expr (e, _) -> A.has_agg e
         | A.Star | A.Table_star _ -> false)
       s.A.sel_items
  || (match s.A.sel_having with Some h -> A.has_agg h | None -> false)

(* Is one output expression of an aggregate select independent of which
   tuple represents its group?  Either it is a whole order-insensitive
   aggregate, or it is aggregate-free and equal to a group key. *)
let agg_output_stable group_by e =
  match e with
  | A.Agg (f, _) -> agg_order_insensitive f
  | e ->
      (not (A.has_agg e)) && List.exists (fun g -> A.equal_expr g e) group_by

let rec query_stable (q : A.query) =
  match q with
  | A.Q_values _ -> true
  | A.Q_compound (_, a, b) -> query_stable a && query_stable b
  | A.Q_select s ->
      s.A.sel_limit = None
      && s.A.sel_offset = None
      && List.for_all from_stable s.A.sel_from
      && (if select_has_agg s then
            s.A.sel_having = None
            && List.for_all
                 (function
                   | A.Sel_expr (e, _) -> agg_output_stable s.A.sel_group_by e
                   | A.Star | A.Table_star _ -> false)
                 s.A.sel_items
            && List.for_all
                 (fun (e, _) -> agg_output_stable s.A.sel_group_by e)
                 s.A.sel_order_by
          else true)

and from_stable = function
  | A.F_table _ -> true
  | A.F_join { left; right; _ } -> from_stable left && from_stable right
  | A.F_sub { sub; _ } -> query_stable sub

(* ------------------------------------------------------------------ *)
(* Forced-plan enumeration                                             *)

(* Single-base-table scan sites (the shapes the planner handles), each
   with its effective alias, WHERE clause — the key under which the
   executor applies a forced path — and the owning select's DISTINCT
   flag (distinct-sensitive paths must see it). *)
let rec scan_sites session (q : A.query) acc =
  match q with
  | A.Q_values _ -> acc
  | A.Q_compound (_, a, b) -> scan_sites session b (scan_sites session a acc)
  | A.Q_select s -> (
      let acc =
        List.fold_left (fun acc it -> sub_sites session it acc) acc s.A.sel_from
      in
      match s.A.sel_from with
      | [ A.F_table { name; alias } ] -> (
          let catalog = Engine.Session.catalog session in
          match Storage.Catalog.find_table catalog name with
          | Some ts ->
              ( Option.value ~default:name alias,
                name,
                ts.Storage.Catalog.schema,
                s.A.sel_where,
                s.A.sel_distinct )
              :: acc
          | None -> acc)
      | _ -> acc)

and sub_sites session (it : A.from_item) acc =
  match it with
  | A.F_table _ -> acc
  | A.F_join { left; right; _ } ->
      sub_sites session right (sub_sites session left acc)
  | A.F_sub { sub; _ } -> scan_sites session sub acc

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

(* Selects whose own FROM the executor can run right-major (a two-item
   comma FROM or an inner/cross F_join), shallowly: joins inside an F_sub
   are collected as their own sites by the recursion. *)
let rec join_sites (q : A.query) acc =
  match q with
  | A.Q_values _ -> acc
  | A.Q_compound (_, a, b) -> join_sites b (join_sites a acc)
  | A.Q_select s ->
      let acc =
        List.fold_left (fun acc it -> item_join_sites it acc) acc s.A.sel_from
      in
      let swappable =
        (match s.A.sel_from with [ _; _ ] -> true | _ -> false)
        || List.exists item_has_swappable s.A.sel_from
      in
      if swappable then (s.A.sel_distinct, s.A.sel_from, s.A.sel_where) :: acc
      else acc

and item_join_sites (it : A.from_item) acc =
  match it with
  | A.F_table _ -> acc
  | A.F_join { left; right; _ } ->
      item_join_sites right (item_join_sites left acc)
  | A.F_sub { sub; _ } -> join_sites sub acc

and item_has_swappable = function
  | A.F_table _ | A.F_sub _ -> false
  | A.F_join { kind = A.Inner | A.Cross; _ } -> true
  | A.F_join { kind = A.Left; left; right; _ } ->
      item_has_swappable left || item_has_swappable right

(* One comparison unit: a minimal witness query and the forced plans to
   re-run it under (each compared against its default execution). *)
type variant_group = {
  vg_query : A.query;
  vg_forces : Engine.Executor.forced list;
}

(* Cap the total forced-run fan-out at [n], keeping group order. *)
let rec cap_groups n = function
  | [] -> []
  | _ when n <= 0 -> []
  | g :: rest ->
      let k = List.length g.vg_forces in
      if k <= n then g :: cap_groups (n - k) rest
      else
        [ { g with vg_forces = List.filteri (fun i _ -> i < n) g.vg_forces } ]

let variant_groups ?(max_plans = 4) session (q : A.query) :
    variant_group list =
  let ctx = Engine.Session.ctx session in
  let catalog = Engine.Session.catalog session in
  let site_groups =
    scan_sites session q []
    |> List.filter_map (fun (alias, table, schema, where, distinct) ->
           (* coverage is stripped: plan enumeration is oracle work and
              must not add coverage hits the campaign would not have *)
           let env =
             {
               (Engine.Executor.table_env ctx schema ~alias) with
               Engine.Eval.coverage = None;
             }
           in
           let default = Engine.Planner.choose env catalog schema ~where in
           let dsig = Engine.Planner.signature default in
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
                       ~from:
                         [ A.F_table { name = table; alias = Some alias } ]
                       ~where;
                   vg_forces =
                     List.map
                       (fun p ->
                         {
                           Engine.Executor.f_sites =
                             [
                               {
                                 Engine.Executor.fs_alias =
                                   String.lowercase_ascii alias;
                                 fs_table = String.lowercase_ascii table;
                                 fs_where = where;
                                 fs_path = p;
                               };
                             ];
                           f_swap_join = false;
                         })
                       paths;
                 })
  in
  cap_groups max_plans site_groups

(* All forced-plan variants of [q] worth comparing against the default
   execution of [q] itself: the join-order swap (one global toggle, when
   a swappable join is present) plus one force per (scan site,
   non-default enumerated path), capped at [max_plans] with the swap
   first.  Empty when the query is not order-stable — unlike the minimal
   witnesses of {!variant_groups}, whole-query comparison is only sound
   on scan-order-insensitive queries. *)
let enumerate_forced ?(max_plans = 4) session (q : A.query) :
    Engine.Executor.forced list =
  if not (query_stable q) then []
  else begin
    let sites =
      variant_groups ~max_plans:Stdlib.max_int session q
      |> List.concat_map (fun g -> g.vg_forces)
    in
    let swaps =
      if join_sites q [] <> [] then
        [ { Engine.Executor.f_sites = []; f_swap_join = true } ]
      else []
    in
    List.filteri (fun i _ -> i < max_plans) (swaps @ sites)
  end

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

let no_outcome = { oc_plans = 0; oc_divergence = None }

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

(* Run all groups until the first divergence; within the divergent group
   every plan runs so the report carries all cardinalities. *)
let run_groups session (groups : variant_group list) : outcome =
  let run force w =
    try
      match Engine.Session.query_forced session ~force w with
      | Ok rs -> Some rs
      | Error _ -> None
    with Engine.Errors.Crash _ -> None
  in
  let plans = ref 0 in
  let divergence = ref None in
  List.iter
    (fun g ->
      if Option.is_none !divergence then begin
        plans := !plans + List.length g.vg_forces;
        match run Engine.Executor.no_force g.vg_query with
        | None -> ()
        | Some base ->
            let base_rows = List.length base.Engine.Executor.rs_rows in
            let results =
              List.map
                (fun force ->
                  let label = Engine.Executor.show_forced force in
                  match run force g.vg_query with
                  | None -> (force, label, -1, None)
                  | Some rs ->
                      ( force,
                        label,
                        List.length rs.Engine.Executor.rs_rows,
                        Some rs.Engine.Executor.rs_rows ))
                g.vg_forces
            in
            let cards =
              ("default", base_rows)
              :: List.map (fun (_, l, n, _) -> (l, n)) results
            in
            divergence :=
              List.find_map
                (fun (force, _, n, c) ->
                  match c with
                  | Some rows
                    when not
                           (Engine.Executor.same_multiset
                              base.Engine.Executor.rs_rows rows) ->
                      Some
                        {
                          dv_witness =
                            Sqlast.Sql_printer.query
                              (Engine.Session.dialect session)
                              g.vg_query;
                          dv_forced = force;
                          dv_default_rows = base_rows;
                          dv_forced_rows = n;
                          dv_cardinalities = cards;
                          dv_default_plan =
                            Engine.Session.plan_lines session g.vg_query;
                          dv_forced_plan =
                            Engine.Session.plan_lines ~force session
                              g.vg_query;
                        }
                  | _ -> None)
                results
      end)
    groups;
  { oc_plans = !plans; oc_divergence = !divergence }

let check_query ?max_plans session (q : A.query) : outcome =
  run_groups session (variant_groups ?max_plans session (target_query q))

(* The join-order differential.  The executor's swapped join produces the
   same combination multiset as the default order for any inner/cross
   join — a property of the join machinery and the stored data, not of
   the query around it — so it is checked once per database over catalog
   table pairs rather than once per synthesized query (per-query swap
   re-execution costs ~2x the join, the dominant query cost, for a
   signal identical across queries sharing the join shape). *)
let check_join_orders ?(max_pairs = 2) session : outcome =
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

let oracle ?(max_plans = 4) () : Oracle.t =
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
              checked (check_query ~max_plans ctx.Oracle.ctx_session q))
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

let sweep ?(queries_per_seed = 3) ?(max_plans = 4)
    ?(bugs = Engine.Bug.empty_set) ~seed_lo ~seed_hi dialect : sweep_result =
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
      record (fun () -> check_query ~max_plans session q)
    in
    let sources = Corpus.sources session in
    for _ = 1 to queries_per_seed do
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
