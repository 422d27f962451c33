(* Plan-diff oracle overhead benchmark (the `bench plandiff` gate).

   Runs the same fixed seed range twice — once with the paper's default
   oracles and once with the plan-space differential oracle appended at
   its default fan-out cap of 4 forced plans per query — asserts the
   merged bug-report sets are identical (the oracle's re-executions go
   through Session.query_forced, which counts no statements, records no
   coverage and draws no randomness, so on a bug-free engine it must be
   campaign-neutral), and records both walls plus the overhead fraction
   in BENCH_plandiff.json.  The acceptance budget is <15% overhead; the
   configurations run interleaved and each keeps its best wall
   ([Bench.best_interleaved]). *)

open Sqlval

let budget = 0.15

let json ~dialect ~databases ~off_wall ~on_wall ~overhead ~identical
    ~statements ~plan_checks ~reports =
  String.concat "\n"
    [
      "{";
      "  \"benchmark\": \"plandiff\",";
      Printf.sprintf "  \"dialect\": %S," (Dialect.name dialect);
      Printf.sprintf "  \"databases\": %d," databases;
      Printf.sprintf "  \"statements\": %d," statements;
      Printf.sprintf "  \"plan_checks\": %d," plan_checks;
      Printf.sprintf "  \"reports\": %d," reports;
      Printf.sprintf "  \"max_plans\": %d," Pqs.Plan_diff.max_plans;
      Printf.sprintf "  \"oracle_off_wall_s\": %.4f," off_wall;
      Printf.sprintf "  \"oracle_on_wall_s\": %.4f," on_wall;
      Printf.sprintf "  \"overhead_fraction\": %.4f," overhead;
      Printf.sprintf "  \"budget_fraction\": %.2f," budget;
      Printf.sprintf "  \"within_budget\": %b," (overhead < budget);
      Printf.sprintf "  \"identical_reports\": %b" identical;
      "}";
    ]
  ^ "\n"

let databases = 500
let out = "BENCH_plandiff.json"

let run () =
  let dialect = Dialect.Sqlite_like in
  let seed_lo = 1 and seed_hi = 1 + databases in
  let campaign ~plan_diff () =
    Gc.full_major ();
    let oracles =
      if plan_diff then
        Pqs.Oracle.defaults @ [ Pqs.Plan_diff.oracle () ]
      else Pqs.Oracle.defaults
    in
    let config = Pqs.Runner.Config.make ~oracles dialect in
    let c = Pqs.Campaign.run ~domains:1 ~seed_lo ~seed_hi config in
    (c, c.Pqs.Campaign.elapsed)
  in
  ignore (campaign ~plan_diff:false ());
  ignore (campaign ~plan_diff:true ());
  let (off_c, off_wall), (on_c, on_wall) =
    Bench.best_interleaved ~batch:7 ~max_runs:28 ~settle:0.04
      (campaign ~plan_diff:false) (campaign ~plan_diff:true)
  in
  let overhead =
    if off_wall <= 0.0 then 0.0 else (on_wall -. off_wall) /. off_wall
  in
  let identical =
    List.map Bench.report_key (Pqs.Campaign.reports off_c)
    = List.map Bench.report_key (Pqs.Campaign.reports on_c)
  in
  let statements = off_c.Pqs.Campaign.stats.Pqs.Stats.statements in
  let plan_checks = on_c.Pqs.Campaign.stats.Pqs.Stats.plan_checks in
  let reports = List.length (Pqs.Campaign.reports off_c) in
  let oc = open_out out in
  output_string oc
    (json ~dialect ~databases ~off_wall ~on_wall ~overhead ~identical
       ~statements ~plan_checks ~reports);
  close_out oc;
  let row label wall (c : Pqs.Campaign.t) =
    [
      label;
      string_of_int c.Pqs.Campaign.stats.Pqs.Stats.statements;
      string_of_int c.Pqs.Campaign.stats.Pqs.Stats.plan_checks;
      string_of_int (List.length (Pqs.Campaign.reports c));
      Printf.sprintf "%.3f" wall;
      Printf.sprintf "%.0f"
        (float_of_int c.Pqs.Campaign.stats.Pqs.Stats.statements /. wall);
    ]
  in
  Fmt_table.print
    ~title:
      (Printf.sprintf
         "Plan-diff oracle overhead — %d databases, fan-out cap 4, \
          interleaved minima; overhead %.1f%% (budget %.0f%%), report sets \
          identical: %b (written to %s)"
         databases (100.0 *. overhead) (100.0 *. budget) identical out)
    ~columns:
      [ "oracles"; "statements"; "plan-checks"; "reports"; "seconds"; "stmts/s" ]
    [ row "defaults" off_wall off_c; row "defaults+plan-diff" on_wall on_c ];
  if overhead >= budget then
    Printf.printf
      "WARNING: plan-diff oracle overhead %.1f%% exceeds the %.0f%% budget\n"
      (100.0 *. overhead) (100.0 *. budget);
  if not identical then
    Printf.printf
      "WARNING: enabling the plan-diff oracle changed the report set — \
       campaign-neutrality violated\n"
