(* Flight-recorder overhead benchmark (the `bench trace` gate).

   Runs the same fixed seed range twice — once with the recorder disabled
   (the Noop sink) and once with always-on flight recording — asserts the
   merged bug-report sets are identical (tracing, like telemetry, must be
   campaign-neutral: it never draws randomness or changes control flow),
   and records both walls plus the overhead fraction in BENCH_trace.json.
   The acceptance budget is <5% overhead; the configurations run
   interleaved and each keeps its best wall, so GC pauses and system drift
   don't land on one side of the comparison. *)

open Sqlval

let json ~dialect ~databases ~off_wall ~on_wall ~overhead ~identical
    ~statements ~reports =
  String.concat "\n"
    [
      "{";
      "  \"benchmark\": \"trace\",";
      Printf.sprintf "  \"dialect\": %S," (Dialect.name dialect);
      Printf.sprintf "  \"databases\": %d," databases;
      Printf.sprintf "  \"statements\": %d," statements;
      Printf.sprintf "  \"reports\": %d," reports;
      Printf.sprintf "  \"recorder_off_wall_s\": %.4f," off_wall;
      Printf.sprintf "  \"recorder_on_wall_s\": %.4f," on_wall;
      Printf.sprintf "  \"overhead_fraction\": %.4f," overhead;
      Printf.sprintf "  \"budget_fraction\": 0.05,";
      Printf.sprintf "  \"within_budget\": %b," (overhead < 0.05);
      Printf.sprintf "  \"identical_reports\": %b" identical;
      "}";
    ]
  ^ "\n"

let databases = 500
let out = "BENCH_trace.json"

let run () =
  let dialect = Dialect.Sqlite_like in
  let bugs = Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect) in
  let seed_lo = 1 and seed_hi = 1 + databases in
  let campaign ~trace () =
    (* settle the heap outside the timed region so a major collection
       owed to the previous iteration's garbage never lands mid-run *)
    Gc.full_major ();
    let config = Pqs.Runner.Config.make ~bugs ~trace dialect in
    let c = Pqs.Campaign.run ~domains:1 ~seed_lo ~seed_hi config in
    (c, c.Pqs.Campaign.elapsed)
  in
  (* warm up both arms: fault code paths in and let each arm's first-run
     costs (lazy forcing, page faults, branch history) fall outside the
     timed comparison *)
  ignore (campaign ~trace:false ());
  ignore (campaign ~trace:true ());
  let (off_c, off_wall), (on_c, on_wall) =
    Bench.best_interleaved ~batch:7 ~max_runs:28 ~settle:0.04
      (campaign ~trace:false) (campaign ~trace:true)
  in
  let overhead =
    if off_wall <= 0.0 then 0.0 else (on_wall -. off_wall) /. off_wall
  in
  let identical =
    List.map Bench.report_key (Pqs.Campaign.reports off_c)
    = List.map Bench.report_key (Pqs.Campaign.reports on_c)
  in
  let statements = off_c.Pqs.Campaign.stats.Pqs.Stats.statements in
  let reports = List.length (Pqs.Campaign.reports off_c) in
  let oc = open_out out in
  output_string oc
    (json ~dialect ~databases ~off_wall ~on_wall ~overhead ~identical
       ~statements ~reports);
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
         "Flight-recorder overhead — %d databases, interleaved minima; \
          overhead %.1f%% (budget 5%%), report sets identical: %b (written \
          to %s)"
         databases (100.0 *. overhead) identical out)
    ~columns:[ "recorder"; "statements"; "reports"; "seconds"; "stmts/s" ]
    [ row "noop" off_wall off_c; row "on" on_wall on_c ];
  if overhead >= 0.05 then
    Printf.printf
      "WARNING: flight-recorder overhead %.1f%% exceeds the 5%% budget\n"
      (100.0 *. overhead);
  if not identical then
    Printf.printf
      "WARNING: enabling the flight recorder changed the report set — \
       campaign-neutrality violated\n"
