(* Campaign throughput benchmark.

   Runs the same fixed seed range twice — sequentially (one domain) and
   sharded across N domains — asserts that the merged bug-report sets are
   identical (the campaign determinism contract), and records both
   statements/sec numbers in BENCH_campaign.json so later PRs have a perf
   trajectory.  On a multi-core host the campaign number should approach
   [domains] times the sequential one; the JSON records the visible core
   count so single-core CI results are interpretable. *)

open Sqlval

let json ~dialect ~databases ~domains ~cores ~seq ~par ~identical =
  let line (c : Pqs.Campaign.t) =
    Printf.sprintf
      "{ \"statements\": %d, \"queries\": %d, \"reports\": %d, \
       \"wall_s\": %.3f, \"statements_per_sec\": %.1f }"
      c.Pqs.Campaign.stats.Pqs.Stats.statements
      c.Pqs.Campaign.stats.Pqs.Stats.queries
      (List.length (Pqs.Campaign.reports c))
      c.Pqs.Campaign.elapsed
      (Pqs.Campaign.statements_per_sec c)
  in
  let speedup =
    let s = Pqs.Campaign.statements_per_sec seq in
    if s <= 0.0 then 0.0 else Pqs.Campaign.statements_per_sec par /. s
  in
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"benchmark\": \"campaign\",";
      Printf.sprintf "  \"dialect\": %S," (Dialect.name dialect);
      Printf.sprintf "  \"databases\": %d," databases;
      Printf.sprintf "  \"domains\": %d," domains;
      Printf.sprintf "  \"cores\": %d," cores;
      Printf.sprintf "  \"sequential\": %s," (line seq);
      Printf.sprintf "  \"campaign\": %s," (line par);
      Printf.sprintf "  \"speedup\": %.2f," speedup;
      Printf.sprintf "  \"identical_reports\": %b" identical;
      "}";
    ]
  ^ "\n"

let run ?(domains = 4) ?(databases = 64) ?(out = "BENCH_campaign.json") () =
  let dialect = Dialect.Sqlite_like in
  let bugs = Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect) in
  let config = Pqs.Runner.Config.make ~bugs dialect in
  let seed_lo = 1 and seed_hi = 1 + databases in
  let seq = Pqs.Campaign.run ~domains:1 ~seed_lo ~seed_hi config in
  let par = Pqs.Campaign.run ~domains ~seed_lo ~seed_hi config in
  let identical =
    List.map Bench.report_key (Pqs.Campaign.reports seq)
    = List.map Bench.report_key (Pqs.Campaign.reports par)
  in
  let cores = Domain.recommended_domain_count () in
  let oc = open_out out in
  output_string oc
    (json ~dialect ~databases ~domains ~cores ~seq ~par ~identical);
  close_out oc;
  let row label (c : Pqs.Campaign.t) =
    [
      label;
      string_of_int c.Pqs.Campaign.stats.Pqs.Stats.statements;
      string_of_int (List.length (Pqs.Campaign.reports c));
      Printf.sprintf "%.2f" c.Pqs.Campaign.elapsed;
      Printf.sprintf "%.0f" (Pqs.Campaign.statements_per_sec c);
    ]
  in
  Fmt_table.print
    ~title:
      (Printf.sprintf
         "Campaign throughput — %d databases, %d domains on %d core(s); \
          report sets identical: %b (written to %s)"
         databases domains cores identical out)
    ~columns:[ "mode"; "statements"; "reports"; "seconds"; "stmts/s" ]
    [ row "sequential" seq; row (Printf.sprintf "%d domains" domains) par ]
