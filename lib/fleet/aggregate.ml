open Sqlval
open Pqs

type shard_state = Running | Done | Stalled | Killed | Crashed

let state_name = function
  | Running -> "running"
  | Done -> "done"
  | Stalled -> "stalled"
  | Killed -> "killed"
  | Crashed -> "crashed"

type shard = {
  sh_shard : int;
  sh_slot : int;
  mutable sh_state : shard_state;
  mutable sh_lo : int;
  mutable sh_hi : int;
  mutable sh_next : int;
  mutable sh_seq : int;
  mutable sh_rounds : int;
  mutable sh_reports : int;
  mutable sh_rate : float;
  mutable sh_last : float;
}

type finding = {
  f_fingerprint : string;
  f_oracle : string;
  f_shard : int;
  f_seed : int;
  f_bundle : string option;
  f_count : int;
}

type t = {
  agg_dialect : Dialect.t;
  universe : string list;
  shards_tbl : (int, shard) Hashtbl.t;
  mutable agg_rounds : int;
  mutable agg_stats : Stats.t;
  mutable agg_total_reports : int;
  findings_tbl : (string, finding) Hashtbl.t;
  mutable findings_order : string list;  (** reverse discovery order *)
  agg_telemetry : Telemetry.t;
}

let create ~dialect =
  {
    agg_dialect = dialect;
    universe = Gen_bias.universe dialect;
    shards_tbl = Hashtbl.create 16;
    agg_rounds = 0;
    agg_stats = Stats.empty;
    agg_total_reports = 0;
    findings_tbl = Hashtbl.create 16;
    findings_order = [];
    agg_telemetry = Telemetry.create ();
  }

let dialect t = t.agg_dialect

let get_shard t ~shard ~slot ~now =
  match Hashtbl.find_opt t.shards_tbl shard with
  | Some s -> s
  | None ->
      let s =
        {
          sh_shard = shard;
          sh_slot = slot;
          sh_state = Running;
          sh_lo = 0;
          sh_hi = 0;
          sh_next = 0;
          sh_seq = -1;
          sh_rounds = 0;
          sh_reports = 0;
          sh_rate = 0.0;
          sh_last = now;
        }
      in
      Hashtbl.replace t.shards_tbl shard s;
      s

let note_spawn t ~shard ~slot ~lo ~hi ~now =
  let s = get_shard t ~shard ~slot ~now in
  s.sh_lo <- lo;
  s.sh_hi <- hi;
  s.sh_next <- lo;
  s.sh_last <- now;
  s.sh_state <- Running

let feed t ~now (hb : Heartbeat.t) =
  let s = get_shard t ~shard:hb.Heartbeat.shard ~slot:hb.Heartbeat.slot ~now in
  s.sh_lo <- hb.Heartbeat.range_lo;
  s.sh_hi <- hb.Heartbeat.range_hi;
  s.sh_next <- hb.Heartbeat.next_seed;
  s.sh_seq <- max s.sh_seq hb.Heartbeat.seq;
  s.sh_rounds <- s.sh_rounds + hb.Heartbeat.rounds;
  s.sh_reports <- s.sh_reports + List.length hb.Heartbeat.reports;
  s.sh_rate <- hb.Heartbeat.rounds_per_sec;
  s.sh_last <- now;
  t.agg_rounds <- t.agg_rounds + hb.Heartbeat.rounds;
  t.agg_stats <- Stats.merge t.agg_stats hb.Heartbeat.stats;
  t.agg_total_reports <- t.agg_total_reports + List.length hb.Heartbeat.reports;
  List.iter
    (fun (r : Heartbeat.report_meta) ->
      match Hashtbl.find_opt t.findings_tbl r.Heartbeat.rm_fingerprint with
      | Some f ->
          Hashtbl.replace t.findings_tbl r.Heartbeat.rm_fingerprint
            { f with f_count = f.f_count + 1 }
      | None ->
          Hashtbl.replace t.findings_tbl r.Heartbeat.rm_fingerprint
            {
              f_fingerprint = r.Heartbeat.rm_fingerprint;
              f_oracle = r.Heartbeat.rm_oracle;
              f_shard = hb.Heartbeat.shard;
              f_seed = r.Heartbeat.rm_seed;
              f_bundle = r.Heartbeat.rm_bundle;
              f_count = 1;
            };
          t.findings_order <- r.Heartbeat.rm_fingerprint :: t.findings_order)
    hb.Heartbeat.reports;
  List.iter
    (fun sample -> Telemetry.record_sample t.agg_telemetry sample)
    hb.Heartbeat.telemetry

let set_state t ~shard state =
  match Hashtbl.find_opt t.shards_tbl shard with
  | Some s -> s.sh_state <- state
  | None -> ()

let find_shard t shard = Hashtbl.find_opt t.shards_tbl shard

let shards t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.shards_tbl []
  |> List.sort (fun a b -> compare a.sh_shard b.sh_shard)

let rounds t = t.agg_rounds
let stats t = t.agg_stats

let findings t =
  List.rev_map (fun fp -> Hashtbl.find t.findings_tbl fp) t.findings_order

let distinct_reports t = Hashtbl.length t.findings_tbl
let total_reports t = t.agg_total_reports

let oracle_funnel t =
  let tbl = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ f ->
      let prev =
        match Hashtbl.find_opt tbl f.f_oracle with Some n -> n | None -> 0
      in
      Hashtbl.replace tbl f.f_oracle (prev + f.f_count))
    t.findings_tbl;
  Hashtbl.fold (fun o n acc -> (o, n) :: acc) tbl []
  |> List.sort (fun (oa, a) (ob, b) ->
         match compare b a with 0 -> compare oa ob | c -> c)

let telemetry t = t.agg_telemetry

let live_count t ~now ~stall_after =
  Hashtbl.fold
    (fun _ s acc ->
      if s.sh_state = Running && now -. s.sh_last <= stall_after then acc + 1
      else acc)
    t.shards_tbl 0

(* ------------------------------------------------------------------ *)
(* The exact-merge projection                                          *)

type totals = {
  tt_rounds : int;
  tt_stats : Stats.t;
  tt_fingerprints : (string * string) list;
}

let totals t =
  let fps =
    Hashtbl.fold
      (fun fp f acc -> List.init f.f_count (fun _ -> (fp, f.f_oracle)) @ acc)
      t.findings_tbl []
  in
  {
    tt_rounds = t.agg_rounds;
    tt_stats = t.agg_stats;
    tt_fingerprints = List.sort compare fps;
  }

let totals_of_stats ~fingerprint (s : Stats.t) =
  let fps =
    List.map
      (fun (r : Bug_report.t) ->
        (fingerprint r, Bug_report.oracle_token r.Bug_report.oracle))
      s.Stats.reports
  in
  {
    tt_rounds = s.Stats.databases;
    tt_stats = { s with Stats.reports = [] };
    tt_fingerprints = List.sort compare fps;
  }

let equal_totals a b =
  a.tt_rounds = b.tt_rounds
  && Stats.counters a.tt_stats = Stats.counters b.tt_stats
  && Frontier.points a.tt_stats.Stats.frontier
     = Frontier.points b.tt_stats.Stats.frontier
  && a.tt_fingerprints = b.tt_fingerprints

let diff_totals a b =
  let diffs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> diffs := s :: !diffs) fmt in
  if a.tt_rounds <> b.tt_rounds then
    note "rounds: %d vs %d" a.tt_rounds b.tt_rounds;
  List.iter2
    (fun (name, x) (_, y) -> if x <> y then note "%s: %d vs %d" name x y)
    (Stats.counters a.tt_stats)
    (Stats.counters b.tt_stats);
  let fa = a.tt_stats.Stats.frontier and fb = b.tt_stats.Stats.frontier in
  if Frontier.points fa <> Frontier.points fb then
    note "frontier: %d vs %d points" (Frontier.cardinal fa)
      (Frontier.cardinal fb);
  if a.tt_fingerprints <> b.tt_fingerprints then
    note "fingerprints: %d vs %d"
      (List.length a.tt_fingerprints)
      (List.length b.tt_fingerprints);
  List.rev !diffs

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

let export_registry t ~now ~stall_after ~elapsed =
  let reg = Telemetry.create () in
  Telemetry.set_gauge reg "pqs_fleet_shards_live"
    (float_of_int (live_count t ~now ~stall_after));
  Telemetry.set_gauge reg "pqs_fleet_shards_total"
    (float_of_int (Hashtbl.length t.shards_tbl));
  Telemetry.inc reg ~by:t.agg_rounds "pqs_fleet_rounds_total";
  Telemetry.inc reg ~by:t.agg_stats.Stats.statements
    "pqs_fleet_statements_total";
  Telemetry.inc reg ~by:t.agg_total_reports "pqs_fleet_reports_total";
  Telemetry.set_gauge reg "pqs_fleet_distinct_fingerprints"
    (float_of_int (distinct_reports t));
  Telemetry.set_gauge reg "pqs_fleet_rounds_per_sec"
    (if elapsed > 0.0 then float_of_int t.agg_rounds /. elapsed else 0.0);
  let labels = [ ("dialect", Dialect.name t.agg_dialect) ] in
  Telemetry.set_gauge reg ~labels "pqs_fleet_frontier_points_hit"
    (float_of_int (Frontier.hit_in ~universe:t.universe t.agg_stats.Stats.frontier));
  Telemetry.set_gauge reg ~labels "pqs_fleet_frontier_fraction"
    (Frontier.fraction ~universe:t.universe t.agg_stats.Stats.frontier);
  List.iter
    (fun s ->
      Telemetry.set_gauge reg
        ~labels:[ ("shard", string_of_int s.sh_shard) ]
        "pqs_fleet_shard_rounds_per_sec" s.sh_rate)
    (shards t);
  Telemetry.merge_into ~dst:reg ~src:t.agg_telemetry;
  reg

let snapshot_json t ~elapsed ~status =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let c = t.agg_stats in
  add "{\n  \"type\": \"fleet\",\n  \"version\": %d,\n" Heartbeat.current_version;
  add "  \"dialect\": %s,\n" (Json.quote (Dialect.name t.agg_dialect));
  add "  \"status\": %s,\n" (Json.quote status);
  add "  \"elapsed_s\": %.3f,\n" elapsed;
  add "  \"rounds\": %d,\n" t.agg_rounds;
  add "  \"statements\": %d,\n" c.Stats.statements;
  add "  \"queries\": %d,\n" c.Stats.queries;
  add "  \"reports\": %d,\n" t.agg_total_reports;
  add "  \"distinct_reports\": %d,\n" (distinct_reports t);
  add "  \"rounds_per_sec\": %.2f,\n"
    (if elapsed > 0.0 then float_of_int t.agg_rounds /. elapsed else 0.0);
  add "  \"frontier\": {\"hit\": %d, \"universe\": %d, \"fraction\": %.4f},\n"
    (Frontier.hit_in ~universe:t.universe t.agg_stats.Stats.frontier)
    (List.length t.universe)
    (Frontier.fraction ~universe:t.universe t.agg_stats.Stats.frontier);
  add "  \"shards\": [";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      add
        "\n    {\"shard\": %d, \"slot\": %d, \"state\": %s, \"range\": [%d, \
         %d], \"next\": %d, \"rounds\": %d, \"reports\": %d, \"rps\": %.2f}"
        s.sh_shard s.sh_slot
        (Json.quote (state_name s.sh_state))
        s.sh_lo s.sh_hi s.sh_next s.sh_rounds s.sh_reports s.sh_rate)
    (shards t);
  add "\n  ],\n  \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      add
        "\n    {\"fingerprint\": %s, \"oracle\": %s, \"first_shard\": %d, \
         \"first_seed\": %d, \"count\": %d%s}"
        (Json.quote f.f_fingerprint) (Json.quote f.f_oracle) f.f_shard f.f_seed
        f.f_count
        (match f.f_bundle with
        | Some path -> Printf.sprintf ", \"bundle\": %s" (Json.quote path)
        | None -> ""))
    (findings t);
  add "\n  ]\n}\n";
  Buffer.contents b
