(* Coverage-guided generation benchmark.

   Two gates for the frontier subsystem, recorded in BENCH_frontier.json:

   - Detection speedup: for every injected SQLite bug, hunt seeds 1..
     blind and guided and count containment checks to the first
     detection.  The acceptance target is a >= 1.5x median speedup with a
     guided report set that is identical to or a superset of the blind
     one (guided must never *lose* a bug the blind campaign finds).

   - Accounting overhead: frontier recording runs even with --guided off
     (fingerprints per query, one fold per round), so its cost is
     estimated in isolation — fingerprinting a synthesized corpus and
     replaying a blind campaign's per-round point lists through
     of_points/union — and compared against the campaign wall.  Budget:
     <= 5%. *)

open Sqlval

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* containment checks issued until [bug] is first detected, hunting
   seeds 1.. (None when the budget runs out first).  Guided hunts thread
   one bias frontier across rounds, exactly like a campaign worker. *)
let checks_to_detect ~budget ~guided bug =
  let dialect = (Engine.Bug.info bug).Engine.Bug.dialect in
  let config =
    Pqs.Runner.Config.make
      ~bugs:(Engine.Bug.set_of_list [ bug ])
      ~guided dialect
  in
  let bias = ref Frontier.empty in
  let rec go seed checks =
    if checks >= budget then None
    else
      let st = Pqs.Runner.run_round ~bias config ~db_seed:seed in
      let checks = checks + st.Pqs.Stats.queries in
      if st.Pqs.Stats.reports <> [] then Some checks else go (seed + 1) checks
  in
  go 1 0

(* a corpus of synthesized query ASTs, for timing fingerprint extraction
   on realistic inputs *)
let query_corpus ~dialect ~seeds ~per_seed =
  List.concat_map
    (fun seed ->
      let db = Pqs.Corpus.build ~seed dialect in
      let sources = Pqs.Corpus.sources db.Pqs.Corpus.session in
      List.init per_seed Fun.id
      |> List.filter_map (fun _ ->
             Pqs.Corpus.query db sources
             |> Option.map (fun (_, t) -> t.Pqs.Gen_query.query)))
    seeds

let json ~budget ~bugs ~speedup ~meets_target ~blind_detected
    ~guided_detected ~superset ~campaign_wall ~overhead ~per_bug =
  let bug_row (name, b, g) =
    let cell = function Some c -> string_of_int c | None -> "null" in
    Printf.sprintf
      "    {\"bug\": %S, \"blind_checks\": %s, \"guided_checks\": %s}" name
      (cell b) (cell g)
  in
  String.concat "\n"
    ([
       "{";
       "  \"benchmark\": \"frontier\",";
       "  \"dialect\": \"sqlite\",";
       Printf.sprintf "  \"budget_checks\": %d," budget;
       Printf.sprintf "  \"bugs\": %d," bugs;
       Printf.sprintf "  \"median_speedup\": %.3f," speedup;
       "  \"target_speedup\": 1.5,";
       Printf.sprintf "  \"meets_target\": %b," meets_target;
       Printf.sprintf "  \"blind_detected\": %d," blind_detected;
       Printf.sprintf "  \"guided_detected\": %d," guided_detected;
       Printf.sprintf "  \"superset_reports\": %b," superset;
       Printf.sprintf "  \"campaign_wall_s\": %.4f," campaign_wall;
       Printf.sprintf "  \"accounting_overhead_fraction\": %.4f," overhead;
       "  \"overhead_budget_fraction\": 0.05,";
       Printf.sprintf "  \"within_overhead_budget\": %b," (overhead < 0.05);
       "  \"per_bug\": [";
     ]
    @ [ String.concat ",\n" (List.map bug_row per_bug) ]
    @ [ "  ]"; "}" ])
  ^ "\n"

let budget = 300
let overhead_databases = 125
let out = "BENCH_frontier.json"

let run () =
  let dialect = Dialect.Sqlite_like in
  let catalog = Engine.Bug.for_dialect dialect in
  let rows =
    List.map
      (fun bug ->
        let blind = checks_to_detect ~budget ~guided:false bug in
        let guided = checks_to_detect ~budget ~guided:true bug in
        (bug, blind, guided))
      catalog
  in
  (* a bug neither mode detects within the budget says nothing about the
     speedup; one-sided misses count the miss at the full budget *)
  let ratios =
    List.filter_map
      (fun (_, b, g) ->
        match (b, g) with
        | None, None -> None
        | b, g ->
            let v = function
              | Some c -> float_of_int (max 1 c)
              | None -> float_of_int budget
            in
            Some (v b /. v g))
      rows
  in
  let speedup = median ratios in
  let superset =
    List.for_all (fun (_, b, g) -> b = None || g <> None) rows
  in
  let detected which =
    List.length (List.filter (fun r -> which r <> None) rows)
  in
  let blind_detected = detected (fun (_, b, _) -> b) in
  let guided_detected = detected (fun (_, _, g) -> g) in
  (* ---- accounting overhead, guidance off ---- *)
  let config =
    Pqs.Runner.Config.make ~bugs:Engine.Bug.empty_set ~guided:false dialect
  in
  let c =
    Pqs.Campaign.run ~domains:1 ~seed_lo:1
      ~seed_hi:(1 + overhead_databases) config
  in
  (* best-of-3 campaign wall: the denominator of the overhead fraction is
     the noisiest term, and rounds are deterministic per seed, so minima
     are comparable (same idiom as the telemetry/trace gates) *)
  let wall =
    List.fold_left
      (fun acc _ ->
        let c' =
          Pqs.Campaign.run ~domains:1 ~seed_lo:1
            ~seed_hi:(1 + overhead_databases) config
        in
        min acc c'.Pqs.Campaign.elapsed)
      c.Pqs.Campaign.elapsed [ (); () ]
  in
  let per_round_points =
    List.map
      (fun (o : Pqs.Campaign.outcome) ->
        Frontier.points o.Pqs.Campaign.round.Pqs.Stats.frontier
        |> List.concat_map (fun (p, e) ->
               List.init e.Frontier.hits (fun _ -> p)))
      c.Pqs.Campaign.outcomes
  in
  (* best-of-batches microbench: per-batch means, minimum across batches
     (robust to scheduler noise, same idiom as the campaign wall above) *)
  let time ~outer ~inner f =
    let best = ref infinity in
    for _ = 1 to outer do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to inner do
        f ()
      done;
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int inner in
      if dt < !best then best := dt
    done;
    !best
  in
  let fold_cost =
    time ~outer:6 ~inner:10 (fun () ->
        ignore
          (List.fold_left
             (fun acc pts ->
               Frontier.union acc (Frontier.of_points ~seed:1 pts))
             Frontier.empty per_round_points))
  in
  let corpus = query_corpus ~dialect ~seeds:[ 11; 12; 13 ] ~per_seed:8 in
  let fp_cost =
    if corpus = [] then 0.0
    else
      time ~outer:6 ~inner:50 (fun () ->
          List.iter (fun q -> ignore (Pqs.Gen_bias.fingerprint q)) corpus)
      /. float_of_int (List.length corpus)
  in
  let queries = c.Pqs.Campaign.stats.Pqs.Stats.queries in
  let overhead =
    if wall <= 0.0 then 0.0
    else (fold_cost +. (fp_cost *. float_of_int queries)) /. wall
  in
  let per_bug =
    List.map (fun (bug, b, g) -> (Engine.Bug.show bug, b, g)) rows
  in
  let oc = open_out out in
  output_string oc
    (json ~budget ~bugs:(List.length catalog) ~speedup
       ~meets_target:(speedup >= 1.5) ~blind_detected ~guided_detected
       ~superset ~campaign_wall:wall ~overhead ~per_bug);
  close_out oc;
  let cell = function Some c -> string_of_int c | None -> "miss" in
  Fmt_table.print
    ~title:
      (Printf.sprintf
         "Guided vs blind time-to-first-detection — budget %d checks/bug; \
          median speedup %.2fx (target 1.5x), guided superset: %b, \
          accounting overhead %.2f%% of a %d-database blind campaign \
          (budget 5%%) (written to %s)"
         budget speedup superset (100.0 *. overhead) overhead_databases out)
    ~columns:[ "bug"; "blind checks"; "guided checks" ]
    (List.map (fun (name, b, g) -> [ name; cell b; cell g ]) per_bug);
  if speedup < 1.5 then
    Printf.printf
      "WARNING: guided median speedup %.2fx below the 1.5x target\n" speedup;
  if not superset then
    Printf.printf
      "WARNING: guided hunting missed a bug the blind hunt detects\n";
  if overhead >= 0.05 then
    Printf.printf
      "WARNING: frontier accounting overhead %.1f%% exceeds the 5%% budget\n"
      (100.0 *. overhead)
