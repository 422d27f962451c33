(* Telemetry overhead benchmark.

   Runs the same fixed seed range twice — once with the Noop sink and once
   with a live metrics registry — asserts the merged bug-report sets are
   identical (the campaign-neutrality contract), and records both walls
   plus the overhead fraction in BENCH_telemetry.json.  The acceptance
   budget is <5% overhead; the configurations run interleaved and each
   keeps its best wall, so GC pauses, scheduler hiccups and system drift
   don't land on one side of the comparison. *)

open Sqlval

let json ~dialect ~databases ~noop_wall ~live_wall ~overhead ~identical
    ~spans ~statements =
  String.concat "\n"
    [
      "{";
      "  \"benchmark\": \"telemetry\",";
      Printf.sprintf "  \"dialect\": %S," (Dialect.name dialect);
      Printf.sprintf "  \"databases\": %d," databases;
      Printf.sprintf "  \"statements\": %d," statements;
      Printf.sprintf "  \"noop_wall_s\": %.4f," noop_wall;
      Printf.sprintf "  \"enabled_wall_s\": %.4f," live_wall;
      Printf.sprintf "  \"overhead_fraction\": %.4f," overhead;
      Printf.sprintf "  \"spans_recorded\": %d," spans;
      Printf.sprintf "  \"budget_fraction\": 0.05,";
      Printf.sprintf "  \"within_budget\": %b," (overhead < 0.05);
      Printf.sprintf "  \"identical_reports\": %b" identical;
      "}";
    ]
  ^ "\n"

let databases = 500
let out = "BENCH_telemetry.json"

let run () =
  let dialect = Dialect.Sqlite_like in
  let bugs = Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect) in
  let seed_lo = 1 and seed_hi = 1 + databases in
  let campaign telemetry () =
    let config = Pqs.Runner.Config.make ~bugs ~telemetry dialect in
    let c = Pqs.Campaign.run ~domains:1 ~seed_lo ~seed_hi config in
    (c, c.Pqs.Campaign.elapsed)
  in
  ignore (campaign Telemetry.noop ()) (* warm-up: fault code paths in *);
  let live_tele = Telemetry.create () in
  let (noop_c, noop_wall), (live_c, live_wall) =
    Bench.best_interleaved ~batch:6 ~max_runs:6 ~settle:0.0
      (campaign Telemetry.noop) (campaign live_tele)
  in
  let overhead =
    if noop_wall <= 0.0 then 0.0 else (live_wall -. noop_wall) /. noop_wall
  in
  let identical =
    List.map Bench.report_key (Pqs.Campaign.reports noop_c)
    = List.map Bench.report_key (Pqs.Campaign.reports live_c)
  in
  let spans =
    (* phase histograms carry a {phase=...} label per series, so sum counts
       across the whole snapshot rather than looking one series up *)
    List.fold_left
      (fun acc (s : Telemetry.sample) ->
        match s.Telemetry.s_value with
        | Telemetry.Histogram { count; _ }
          when s.Telemetry.s_name = "pqs_phase_seconds"
               || s.Telemetry.s_name = "minidb_phase_seconds" ->
            acc + count
        | _ -> acc)
      0
      (Telemetry.snapshot live_tele)
  in
  let statements = noop_c.Pqs.Campaign.stats.Pqs.Stats.statements in
  let oc = open_out out in
  output_string oc
    (json ~dialect ~databases ~noop_wall ~live_wall ~overhead ~identical
       ~spans ~statements);
  close_out oc;
  let row label wall (c : Pqs.Campaign.t) =
    [
      label;
      string_of_int c.Pqs.Campaign.stats.Pqs.Stats.statements;
      string_of_int (List.length (Pqs.Campaign.reports c));
      Printf.sprintf "%.3f" wall;
      Printf.sprintf "%.0f"
        (float_of_int c.Pqs.Campaign.stats.Pqs.Stats.statements /. wall);
    ]
  in
  Fmt_table.print
    ~title:
      (Printf.sprintf
         "Telemetry overhead — %d databases, best of 6 interleaved; \
          overhead %.1f%% \
          (budget 5%%), %d spans, report sets identical: %b (written to %s)"
         databases (100.0 *. overhead) spans identical out)
    ~columns:[ "sink"; "statements"; "reports"; "seconds"; "stmts/s" ]
    [ row "noop" noop_wall noop_c; row "enabled" live_wall live_c ];
  if overhead >= 0.05 then
    Printf.printf
      "WARNING: telemetry overhead %.1f%% exceeds the 5%% budget\n"
      (100.0 *. overhead);
  if not identical then
    Printf.printf
      "WARNING: enabling telemetry changed the report set — \
       campaign-neutrality violated\n"
