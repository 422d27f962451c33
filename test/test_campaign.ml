(* The campaign orchestrator's contracts: sharded runs merge to the exact
   sequential result, bug-free campaigns raise no verdict at all (not even
   one ground-truth confirmation withholds), Stats.merge obeys its monoid
   laws, and the runner accepts swapped-in oracle sets. *)

open Sqlval

(* ---------- determinism: N domains == 1 domain ---------- *)

let report_key (r : Pqs.Bug_report.t) =
  ( (r.Pqs.Bug_report.seed, Pqs.Bug_report.oracle_label r.Pqs.Bug_report.oracle),
    (r.Pqs.Bug_report.message, Pqs.Bug_report.script r) )

let strip_reports (s : Pqs.Stats.t) = { s with Pqs.Stats.reports = [] }

let test_determinism () =
  let bugs = Engine.Bug.set_of_list (Engine.Bug.for_dialect Dialect.Sqlite_like) in
  let config = Pqs.Runner.Config.make ~bugs Dialect.Sqlite_like in
  let seq = Pqs.Campaign.run ~domains:1 ~seed_lo:1 ~seed_hi:65 config in
  let par = Pqs.Campaign.run ~domains:4 ~seed_lo:1 ~seed_hi:65 config in
  Alcotest.(check int)
    "same database count" 65 (par.Pqs.Campaign.stats.Pqs.Stats.databases + 1);
  Alcotest.(check bool) "campaign found bugs to compare" true
    (Pqs.Campaign.reports seq <> []);
  Alcotest.(check (list (pair (pair int string) (pair string string))))
    "identical sorted bug-report sets"
    (List.map report_key (Pqs.Campaign.reports seq))
    (List.map report_key (Pqs.Campaign.reports par));
  (* the merged stats agree on every counter, not just the reports *)
  Alcotest.(check bool) "identical merged stats" true
    (strip_reports seq.Pqs.Campaign.stats
    = strip_reports par.Pqs.Campaign.stats);
  (* and outcomes come back in ascending seed order regardless of worker *)
  let seeds = List.map (fun o -> o.Pqs.Campaign.seed) par.Pqs.Campaign.outcomes in
  Alcotest.(check (list int)) "outcomes sorted by seed"
    (List.init 64 (fun i -> i + 1))
    seeds

let test_coverage_merging () =
  let cov = Engine.Coverage.create () in
  let config = Pqs.Runner.Config.make ~coverage:cov Dialect.Sqlite_like in
  let _ = Pqs.Campaign.run ~domains:3 ~seed_lo:1 ~seed_hi:7 config in
  Alcotest.(check bool) "worker coverage merged into the campaign instrument"
    true
    (Engine.Coverage.points_hit cov > 0);
  (* the functional union of two instruments sums their hits *)
  let a = Engine.Coverage.create () and b = Engine.Coverage.create () in
  Engine.Coverage.hit a "binop.eq";
  Engine.Coverage.hit b "binop.eq";
  Engine.Coverage.hit b "binop.neq";
  let u = Engine.Coverage.union a b in
  Alcotest.(check int) "union sums hits" 2 (Engine.Coverage.hit_count u "binop.eq");
  Alcotest.(check int) "union keeps both" 1 (Engine.Coverage.hit_count u "binop.neq")

(* ---------- the trace is a one-shard fleet ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* what [sqlancer top --trace] sees: the trace through the fleet view *)
let view_totals path =
  let v =
    Fleet.Fleet_view.create ~dialect:Dialect.Sqlite_like ~source:path
      (fun () -> [ path ])
  in
  Fleet.Fleet_view.refresh v;
  (v, Fleet.Aggregate.totals (Fleet.Fleet_view.aggregate v))

let lines_totals lines =
  let agg = Fleet.Aggregate.create ~dialect:Dialect.Sqlite_like in
  List.iter
    (fun line ->
      match Pqs.Heartbeat.decode line with
      | Ok hb -> Fleet.Aggregate.feed agg ~now:0.0 hb
      | Error e -> Alcotest.failf "trace line failed to decode: %s" e)
    lines;
  Fleet.Aggregate.totals agg

let check_totals label expected actual =
  if not (Fleet.Aggregate.equal_totals expected actual) then
    Alcotest.failf "%s:\n%s" label
      (String.concat "\n" (Fleet.Aggregate.diff_totals expected actual))

(* feeding the trace into the fleet aggregate gives exactly the
   campaign's own merged stats: counters, frontier hits and first seeds,
   and the multiset of minimized-repro fingerprints *)
let test_trace_exact_merge () =
  let dialect = Dialect.Sqlite_like in
  let bugs = Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect) in
  let config = Pqs.Runner.Config.make ~bugs dialect in
  let seed_lo = 1 and seed_hi = 21 in
  let path = Filename.temp_file "pqs_campaign" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun domains ->
          let label = Printf.sprintf "-j %d" domains in
          let c =
            Pqs.Campaign.run ~domains ~trace:path ~seed_lo ~seed_hi config
          in
          let expected =
            Fleet.Aggregate.totals_of_stats
              ~fingerprint:(fun r ->
                Pqs.Bug_report.fingerprint (Pqs.Reducer.reduce_report r ~bugs))
              c.Pqs.Campaign.stats
          in
          Alcotest.(check bool) (label ^ ": the catalog produced findings") true
            (expected.Fleet.Aggregate.tt_fingerprints <> []);
          let v, totals = view_totals path in
          check_totals (label ^ ": trace vs campaign") expected totals;
          Alcotest.(check bool) (label ^ ": the watermark reached seed_hi") true
            (Fleet.Fleet_view.complete v);
          (* a torn last line: every cut inside it aggregates exactly the
             complete lines before it *)
          let text = read_file path in
          let lines = String.split_on_char '\n' (String.trim text) in
          let before = lines_totals (List.filteri (fun i _ -> i < 19) lines) in
          Alcotest.(check int) (label ^ ": one line per round") 20
            (List.length lines);
          let last = String.rindex_from text (String.length text - 2) '\n' + 1 in
          for cut = last to String.length text - 1 do
            write_file path (String.sub text 0 cut);
            let v, totals = view_totals path in
            check_totals
              (Printf.sprintf "%s: cut at byte %d" label cut)
              before totals;
            Alcotest.(check bool) (label ^ ": a torn trace is incomplete") false
              (Fleet.Fleet_view.complete v)
          done;
          (* a rerun truncating the trace under a live view rebuilds the
             view instead of double counting *)
          write_file path text;
          let v, _ = view_totals path in
          write_file path (String.concat "\n" (List.filteri (fun i _ -> i < 5) lines) ^ "\n");
          Fleet.Fleet_view.refresh v;
          check_totals (label ^ ": truncated under a live view")
            (lines_totals (List.filteri (fun i _ -> i < 5) lines))
            (Fleet.Aggregate.totals (Fleet.Fleet_view.aggregate v)))
        [ 1; 2 ])

(* ---------- the periodic metrics export ---------- *)

(* [metrics_path] is written only mid-run, each time by atomic rename;
   the one export at exit is the caller's ([sqlancer campaign --metrics]) *)
let test_metrics_export () =
  let path = Filename.temp_file "pqs_metrics" ".prom" in
  Sys.remove path;
  let config =
    Pqs.Runner.Config.make ~telemetry:(Telemetry.create ()) Dialect.Sqlite_like
  in
  let run every =
    ignore
      (Pqs.Campaign.run ~domains:1 ~metrics_every:every ~metrics_path:path
         ~seed_lo:1 ~seed_hi:9 config)
  in
  run 1e9;
  Alcotest.(check bool) "no export at exit" false (Sys.file_exists path);
  run 0.0;
  let text = read_file path in
  Alcotest.(check bool) "mid-run snapshot carries the round counter" true
    (String.length text > 0
    && List.exists
         (String.starts_with ~prefix:"pqs_rounds_total")
         (String.split_on_char '\n' text));
  Alcotest.(check bool) "last write is a mid-run snapshot" false
    (List.exists
       (String.starts_with ~prefix:"pqs_phase_seconds")
       (String.split_on_char '\n' text));
  Alcotest.(check bool) "no temp file left" false
    (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

(* ---------- soundness: zero unconfirmed verdicts ---------- *)

(* On the engine without injected bugs every oracle verdict is a false
   alarm, including the ones ground-truth confirmation withholds: the
   [false_positives] counter must stay 0, not absorb them. *)
let check_bug_free label config ~seed_lo ~seed_hi =
  let c = Pqs.Campaign.run ~domains:1 ~seed_lo ~seed_hi config in
  let stats = c.Pqs.Campaign.stats in
  Alcotest.(check int) (label ^ ": databases") (seed_hi - seed_lo)
    stats.Pqs.Stats.databases;
  Alcotest.(check int) (label ^ ": unconfirmed verdicts") 0
    stats.Pqs.Stats.false_positives;
  Alcotest.(check (list string))
    (label ^ ": reports") []
    (List.map
       (fun (r : Pqs.Bug_report.t) -> r.Pqs.Bug_report.message)
       (Pqs.Campaign.reports c))

let test_bug_free_dialects () =
  List.iter
    (fun dialect ->
      check_bug_free (Dialect.name dialect)
        (Pqs.Runner.Config.make dialect)
        ~seed_lo:7 ~seed_hi:1007)
    [ Dialect.Sqlite_like; Dialect.Mysql_like; Dialect.Postgres_like ]

(* the write-heavy shape: 80 extra DDL/DML statements per database *)
let test_bug_free_write_heavy () =
  check_bug_free "write-heavy"
    (Pqs.Runner.Config.make ~extra_statements:80 ~pivots_per_db:1
       ~queries_per_pivot:2 Dialect.Sqlite_like)
    ~seed_lo:1 ~seed_hi:301

(* ---------- Stats.merge monoid laws ---------- *)

let sample_stats seed =
  (* real stats from real rounds, so the laws are checked on reachable
     values (canonical truth-value keys, chronological reports) *)
  let bugs = Engine.Bug.set_of_list [ Engine.Bug.Sq_case_null_when ] in
  let config = Pqs.Runner.Config.make ~bugs Dialect.Sqlite_like in
  Pqs.Runner.run_round config ~db_seed:seed

let test_merge_laws () =
  let a = sample_stats 3 and b = sample_stats 17 and c = sample_stats 7919 in
  Alcotest.(check bool) "associative" true
    (Pqs.Stats.merge (Pqs.Stats.merge a b) c
    = Pqs.Stats.merge a (Pqs.Stats.merge b c));
  Alcotest.(check bool) "left identity" true
    (Pqs.Stats.merge Pqs.Stats.empty a = a);
  Alcotest.(check bool) "right identity" true
    (Pqs.Stats.merge a Pqs.Stats.empty = a);
  (* merge_all is the left fold *)
  Alcotest.(check bool) "merge_all folds left" true
    (Pqs.Stats.merge_all [ a; b; c ]
    = Pqs.Stats.merge (Pqs.Stats.merge a b) c)

let test_merge_counters () =
  let a = sample_stats 3 and b = sample_stats 17 in
  let m = Pqs.Stats.merge a b in
  Alcotest.(check int) "statements add" m.Pqs.Stats.statements
    (a.Pqs.Stats.statements + b.Pqs.Stats.statements);
  Alcotest.(check int) "reports concatenate"
    (List.length m.Pqs.Stats.reports)
    (List.length a.Pqs.Stats.reports + List.length b.Pqs.Stats.reports);
  let total tv = List.fold_left (fun acc (_, n) -> acc + n) 0 tv in
  Alcotest.(check int) "truth values add"
    (total m.Pqs.Stats.truth_values)
    (total a.Pqs.Stats.truth_values + total b.Pqs.Stats.truth_values)

(* ---------- oracle swapping ---------- *)

(* a stub that cries wolf on every containment check, whatever the engine
   returned *)
let wolf_oracle =
  Pqs.Oracle.make ~name:"wolf" (fun _ -> function
    | Pqs.Oracle.Containment_check _ ->
        Pqs.Oracle.Report
          { kind = Pqs.Bug_report.Error_oracle; message = "wolf!" }
    | _ -> Pqs.Oracle.Pass)

let test_oracle_swap () =
  (* with the stub swapped in, even a correct engine "fails" on the first
     containment check of every round *)
  let config =
    Pqs.Runner.Config.make ~oracles:[ wolf_oracle ] Dialect.Sqlite_like
  in
  let stats = Pqs.Runner.run ~max_queries:20 config in
  Alcotest.(check bool) "stub oracle reports" true
    (stats.Pqs.Stats.reports <> []);
  Alcotest.(check bool) "stub reports carry its message" true
    (List.for_all
       (fun (r : Pqs.Bug_report.t) -> r.Pqs.Bug_report.message = "wolf!")
       stats.Pqs.Stats.reports);
  (* with no oracles at all, nothing can be reported even with every
     catalog bug enabled *)
  let bugs = Engine.Bug.set_of_list (Engine.Bug.for_dialect Dialect.Sqlite_like) in
  let deaf =
    Pqs.Runner.Config.make ~bugs ~oracles:[] Dialect.Sqlite_like
  in
  let stats = Pqs.Runner.run ~max_queries:60 deaf in
  Alcotest.(check int) "no oracles, no reports" 0
    (List.length stats.Pqs.Stats.reports)

let test_default_oracles_preserved () =
  (* the pluggable default set still hunts like the hard-wired loop did *)
  let bugs = Engine.Bug.set_of_list [ Engine.Bug.Sq_case_null_when ] in
  let rec go = function
    | [] -> Alcotest.fail "bug not detected through the oracle API"
    | seed :: rest -> (
        let config = Pqs.Runner.Config.make ~seed ~bugs Dialect.Sqlite_like in
        match Pqs.Runner.hunt config ~max_queries:8000 with
        | Some r ->
            Alcotest.(check string) "containment oracle" "Contains"
              (Pqs.Bug_report.oracle_label r.Pqs.Bug_report.oracle)
        | None -> go rest)
  in
  go [ 7; 77; 777 ]

let () =
  Alcotest.run "campaign"
    [
      ( "campaign",
        [
          Alcotest.test_case "N-domain == sequential" `Quick test_determinism;
          Alcotest.test_case "coverage merging" `Quick test_coverage_merging;
          Alcotest.test_case "heartbeat trace exact merge" `Quick
            test_trace_exact_merge;
          Alcotest.test_case "periodic metrics export" `Quick
            test_metrics_export;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "bug-free dialects, seeds 7-1006" `Quick
            test_bug_free_dialects;
          Alcotest.test_case "bug-free write-heavy, 300 seeds" `Quick
            test_bug_free_write_heavy;
        ] );
      ( "stats",
        [
          Alcotest.test_case "merge monoid laws" `Quick test_merge_laws;
          Alcotest.test_case "merge counters" `Quick test_merge_counters;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "stub oracle swap" `Quick test_oracle_swap;
          Alcotest.test_case "defaults still detect" `Quick
            test_default_oracles_preserved;
        ] );
    ]
