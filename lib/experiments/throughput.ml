(* Section 3.4 reproduction: statement throughput and the row-count
   trade-off.

   Paper: "SQLancer generates 5,000 to 20,000 statements per second,
   depending on the DBMS under test", and restricting tables to 10-30 rows
   avoids join blow-up (100 rows across 3 joined tables would already mean
   a million-row cross product). *)

open Sqlval

let time f =
  let t0 = Telemetry.Clock.now () in
  let r = f () in
  (r, Telemetry.Clock.now () -. t0)

let per_dialect ~queries =
  List.map
    (fun d ->
      let config = Pqs.Runner.Config.make ~seed:13 d in
      let stats, elapsed =
        time (fun () -> Pqs.Runner.run ~max_queries:queries config)
      in
      (d, stats, elapsed))
    Dialect.all

let rows_sweep ~queries =
  List.map
    (fun max_rows ->
      let config =
        Pqs.Runner.Config.make ~seed:13 ~max_rows Dialect.Sqlite_like
      in
      let stats, elapsed =
        time (fun () -> Pqs.Runner.run ~max_queries:queries config)
      in
      (max_rows, stats, elapsed))
    [ 5; 15; 30; 100 ]

let run ~queries () =
  let rows =
    per_dialect ~queries
    |> List.map (fun (d, (stats : Pqs.Stats.t), elapsed) ->
           [
             Dialect.display_name d;
             string_of_int stats.Pqs.Stats.statements;
             Printf.sprintf "%.2f" elapsed;
             Printf.sprintf "%.0f"
               (float_of_int stats.Pqs.Stats.statements /. elapsed);
           ])
  in
  Fmt_table.print
    ~title:
      "Throughput (paper Sec. 3.4: 5,000-20,000 statements/second, \
       DBMS-dependent)"
    ~columns:[ "DBMS"; "statements"; "seconds"; "stmts/s" ]
    rows;
  let rows =
    rows_sweep ~queries:(queries / 2)
    |> List.map (fun (max_rows, (stats : Pqs.Stats.t), elapsed) ->
           [
             string_of_int max_rows;
             Printf.sprintf "%.2f" elapsed;
             Printf.sprintf "%.0f"
               (float_of_int stats.Pqs.Stats.statements /. elapsed);
           ])
  in
  Fmt_table.print
    ~title:
      "Rows-per-table sweep (paper Sec. 3.4: low row counts keep joined \
       queries from blowing up)"
    ~columns:[ "max rows"; "seconds"; "stmts/s" ]
    rows
