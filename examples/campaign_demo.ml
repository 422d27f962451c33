(* The Campaign API in a few lines: build an immutable config, pick the
   oracle set, shard a seed range across domains (one database round per
   seed, as the paper's one-worker-per-database prescribes), and read the
   deterministically merged report.  The same range on 1 domain yields the
   identical bug set.

     dune exec examples/campaign_demo.exe *)

let () =
  let dialect = Sqlval.Dialect.Sqlite_like in
  (* every catalog bug of the dialect is live: the campaign should find
     several across the seed range *)
  let bugs = Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect) in
  let config =
    Pqs.Runner.Config.make ~bugs
      ~oracles:(Pqs.Oracle.defaults @ [ Pqs.Oracle.metamorphic () ])
      dialect
  in
  let campaign =
    Pqs.Campaign.run ~domains:2 ~seed_lo:1 ~seed_hi:41
      ~trace:"campaign.jsonl" config
  in
  Printf.printf "%d domains, %.2fs wall, %.0f statements/s\n"
    campaign.Pqs.Campaign.domains campaign.Pqs.Campaign.elapsed
    (Pqs.Campaign.statements_per_sec campaign);
  Printf.printf "%s\n\n" (Pqs.Stats.summary campaign.Pqs.Campaign.stats);
  List.iter
    (fun (r : Pqs.Bug_report.t) ->
      Printf.printf "seed %d [%s] %s\n" r.Pqs.Bug_report.seed
        (Pqs.Bug_report.oracle_label r.Pqs.Bug_report.oracle)
        r.Pqs.Bug_report.message)
    (Pqs.Campaign.reports campaign);
  print_endline
    "heartbeat trace (one record per round, a one-shard fleet) written to \
     campaign.jsonl; render it with: sqlancer top --trace campaign.jsonl --once"
