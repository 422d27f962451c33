(* EXPLAIN: a human-readable access-plan description.

   Real engines print bytecode (sqlite) or plan trees (postgres); this
   prints the planner's chosen access path per base table plus the
   pipeline stages, which is what the examples and the REPL need to make
   planner behaviour observable. *)

module A = Sqlast.Ast

let rec from_lines ctx ~in_join (item : A.from_item) ~where : string list =
  match item with
  | A.F_table { name; alias } -> (
      let label =
        match alias with Some a -> name ^ " AS " ^ a | None -> name
      in
      match Storage.Catalog.find_table ctx.Executor.catalog name with
      | Some ts ->
          let path, forced =
            Executor.scan_path ctx ~in_join
              ~alias:(Option.value ~default:name alias)
              ~table:name ts.Storage.Catalog.schema ~where
          in
          [
            Printf.sprintf "SCAN %s USING %s%s" label (Planner.show_path path)
              (if forced then " (forced)" else "");
          ]
      | None ->
          if Storage.Catalog.view_exists ctx.Executor.catalog name then
            [ Printf.sprintf "EXPAND VIEW %s" label ]
          else [ Printf.sprintf "SCAN %s (no such table)" label ])
  | A.F_join { kind; left; right; _ } ->
      let kw =
        match kind with
        | A.Inner -> "NESTED LOOP JOIN"
        | A.Left -> "NESTED LOOP LEFT JOIN"
        | A.Cross -> "NESTED LOOP CROSS JOIN"
      in
      let kw =
        match kind with
        | (A.Inner | A.Cross) when Executor.swap_join_forced ctx ->
            kw ^ " (forced swap)"
        | _ -> kw
      in
      from_lines ctx ~in_join:true left ~where:None
      @ from_lines ctx ~in_join:true right ~where:None
      @ [ kw ]
  | A.F_sub { alias; _ } -> [ Printf.sprintf "MATERIALIZE SUBQUERY AS %s" alias ]

let rec query_lines ctx (q : A.query) : string list =
  match q with
  | A.Q_values rows -> [ Printf.sprintf "VALUES (%d rows)" (List.length rows) ]
  | A.Q_compound (op, a, b) ->
      let kw =
        match op with
        | A.Union -> "UNION"
        | A.Union_all -> "UNION ALL"
        | A.Intersect -> "INTERSECT"
        | A.Except -> "EXCEPT"
      in
      query_lines ctx a @ query_lines ctx b @ [ "COMPOUND " ^ kw ]
  | A.Q_select s ->
      let scans =
        match s.A.sel_from with
        | [ single ] -> from_lines ctx ~in_join:false single ~where:s.A.sel_where
        | items ->
            List.concat_map
              (fun it -> from_lines ctx ~in_join:true it ~where:None)
              items
            @
            if List.length items = 2 && Executor.swap_join_forced ctx then
              [ "SWAP JOIN ORDER (forced)" ]
            else []
      in
      let stages =
        (if s.A.sel_group_by <> [] then [ "GROUP BY" ] else [])
        @ (if s.A.sel_having <> None then [ "FILTER HAVING" ] else [])
        @ (if s.A.sel_distinct then [ "DISTINCT" ] else [])
        @ (if s.A.sel_order_by <> [] then [ "SORT" ] else [])
        @
        if s.A.sel_limit <> None || s.A.sel_offset <> None then [ "LIMIT" ]
        else []
      in
      scans @ stages

(* A one-column result set of plan lines. *)
let plan_rows lines =
  {
    Executor.rs_columns = [ "plan" ];
    rs_rows = List.map (fun l -> [| Sqlval.Value.Text l |]) lines;
  }

let run ctx (q : A.query) = plan_rows (query_lines ctx q)

(* EXPLAIN ANALYZE: execute the query under a private flight recorder and
   render the per-operator annotations it collected (rows in/out, batches,
   B-tree visits, wall time) as plan lines, postgres-style. *)
let run_analyze ctx (q : A.query) =
  let recorder = Trace.create ~capacity:512 () in
  Trace.begin_round recorder ~seed:0 ~dialect:ctx.Executor.dialect;
  let ctx = { ctx with Executor.recorder } in
  let t0 = Telemetry.Clock.now_ns_int () in
  let rs = Compile.query ctx q in
  let total_ns = Telemetry.Clock.now_ns_int () - t0 in
  let ms ns = float_of_int ns /. 1e6 in
  let op_line (e : Trace.entry) =
    match e.Trace.event with
    | Trace.Event.Op
        { op; detail; rows_in; rows_out; batches; btree_nodes;
          btree_entries; dur_ns } ->
        let btree =
          if btree_nodes = 0 && btree_entries = 0 then ""
          else Printf.sprintf " btree=%d/%d" btree_nodes btree_entries
        in
        let batched =
          if batches <= 0 then ""
          else
            Printf.sprintf " batches=%d rows/batch=%.1f" batches
              (float_of_int rows_out /. float_of_int batches)
        in
        let detail = if detail = "" then "" else " " ^ detail in
        Some
          (Printf.sprintf "%s%s (in=%d out=%d%s%s %.3f ms)" op detail
             rows_in rows_out batched btree (ms dur_ns))
    | _ -> None
  in
  let lines = List.filter_map op_line (Trace.events recorder) in
  let lines =
    lines
    @ [
        Printf.sprintf "RESULT (rows=%d total=%.3f ms)"
          (List.length rs.Executor.rs_rows)
          (ms total_ns);
      ]
  in
  plan_rows lines
