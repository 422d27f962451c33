(* The telemetry subsystem's contracts:

   - registry semantics: counters only add, gauges overwrite, histograms
     bucket correctly (including overflow past the last bound), and the
     noop sink records nothing;
   - merge obeys the same monoid laws as [Stats.merge] — associative,
     fresh registry as identity, bucket layouts preserved, mismatched
     layouts rejected — witnessed on [snapshot]s;
   - spans: [Span.time]/[Span.timed] record one observation per call into
     the right [_phase_seconds{phase=...}] series, also when the timed
     function raises, and the [Phase] taxonomy is internally consistent;
   - exporters: the Prometheus text is byte-exact for a known registry
     (cumulative buckets ending at +Inf), and the JSON / Chrome-trace
     documents parse with the strict [Json] codec;
   - neutrality: a campaign run with a live registry reports the
     identical bug set and merged stats as the same run on the noop
     sink. *)

open Sqlval

open Json_check

(* ---------- registry semantics ---------- *)

let test_counters () =
  let t = Telemetry.create () in
  Telemetry.inc t "a_total";
  Telemetry.inc t "a_total" ~by:4;
  Alcotest.(check int) "increments add" 5 (Telemetry.counter_value t "a_total");
  Alcotest.(check int) "missing counter reads 0" 0
    (Telemetry.counter_value t "absent_total");
  Telemetry.inc t ~labels:[ ("kind", "x") ] "b_total";
  Telemetry.inc t ~labels:[ ("kind", "y") ] "b_total" ~by:2;
  Telemetry.inc t ~labels:[ ("kind", "x") ] "b_total";
  Alcotest.(check int) "labels split series (x)" 2
    (Telemetry.counter_value t ~labels:[ ("kind", "x") ] "b_total");
  Alcotest.(check int) "labels split series (y)" 2
    (Telemetry.counter_value t ~labels:[ ("kind", "y") ] "b_total");
  Alcotest.(check int) "unlabelled series is distinct" 0
    (Telemetry.counter_value t "b_total");
  (* label canonicalisation: key order is irrelevant *)
  Telemetry.inc t ~labels:[ ("b", "2"); ("a", "1") ] "c_total";
  Alcotest.(check int) "label order is canonicalised" 1
    (Telemetry.counter_value t ~labels:[ ("a", "1"); ("b", "2") ] "c_total")

let test_gauges_and_type_clash () =
  let t = Telemetry.create () in
  Telemetry.set_gauge t "g" 3.0;
  Telemetry.set_gauge t "g" 1.5;
  (match Telemetry.snapshot t with
  | [ { Telemetry.s_name = "g"; s_value = Telemetry.Gauge v; _ } ] ->
      Alcotest.(check (float 0.0)) "gauge overwrites" 1.5 v
  | _ -> Alcotest.fail "expected exactly one gauge sample");
  Alcotest.check_raises "type clash rejected"
    (Invalid_argument "Telemetry.inc: g is not a counter") (fun () ->
      Telemetry.inc t "g")

let test_histograms () =
  let t = Telemetry.create () in
  let buckets = [| 1.0; 2.0; 4.0 |] in
  List.iter
    (Telemetry.observe t ~buckets "h_seconds")
    [ 0.5; 1.0; 1.5; 2.0; 9.0 ];
  Alcotest.(check int) "count" 5 (Telemetry.histogram_count t "h_seconds");
  Alcotest.(check (float 1e-9)) "sum" 14.0 (Telemetry.histogram_sum t "h_seconds");
  (match Telemetry.snapshot t with
  | [ { Telemetry.s_value = Telemetry.Histogram { buckets; count; _ }; _ } ] ->
      Alcotest.(check (list (pair (float 0.0) int)))
        "cumulative buckets; overflow only in +Inf"
        [ (1.0, 2); (2.0, 4); (4.0, 4) ]
        buckets;
      Alcotest.(check int) "+Inf (count) covers the overflow" 5 count
  | _ -> Alcotest.fail "expected exactly one histogram sample");
  (* quantiles interpolate inside the holding bucket *)
  let q = Telemetry.quantile t "h_seconds" in
  let check_q name expect q_v =
    match q_v with
    | Some v -> Alcotest.(check (float 1e-9)) name expect v
    | None -> Alcotest.fail (name ^ ": expected Some")
  in
  check_q "p40 inside first bucket" 1.0 (q 0.4);
  check_q "p80 inside second bucket" 2.0 (q 0.8);
  check_q "p100 clamps to last bound" 4.0 (q 1.0);
  Alcotest.(check bool) "missing histogram has no quantile" true
    (Telemetry.quantile t "absent_seconds" 0.5 = None)

let test_noop () =
  let t = Telemetry.noop in
  Alcotest.(check bool) "noop is disabled" false (Telemetry.enabled t);
  Alcotest.(check bool) "create () is enabled" true
    (Telemetry.enabled (Telemetry.create ()));
  Telemetry.inc t "a_total";
  Telemetry.set_gauge t "g" 1.0;
  Telemetry.observe t "h_seconds" 0.1;
  Telemetry.inc_handle (Telemetry.counter_handle t "a_total");
  Telemetry.observe_handle (Telemetry.histogram_handle t "h_seconds") 0.1;
  Telemetry.Span.timed t Telemetry.Phase.Interp (fun () -> ());
  ignore (Telemetry.Span.time t "x" (fun () -> 42));
  Alcotest.(check (list reject)) "noop snapshot stays empty" []
    (Telemetry.snapshot t);
  Alcotest.(check string) "noop exports no series" ""
    (Telemetry.to_prometheus t)

let test_handles () =
  let t = Telemetry.create () in
  let c = Telemetry.counter_handle t ~labels:[ ("kind", "select") ] "s_total" in
  Telemetry.inc_handle c;
  Telemetry.inc_handle c ~by:2;
  (* the handle aliases the same cell the string API resolves *)
  Telemetry.inc t ~labels:[ ("kind", "select") ] "s_total";
  Alcotest.(check int) "handle and string API share the cell" 4
    (Telemetry.counter_value t ~labels:[ ("kind", "select") ] "s_total");
  let h = Telemetry.histogram_handle t "lat_seconds" in
  Telemetry.observe_handle h 0.25;
  Telemetry.observe t "lat_seconds" 0.75;
  Alcotest.(check int) "histogram handle shares the series" 2
    (Telemetry.histogram_count t "lat_seconds");
  (* merging mutates cells in place, so handles made before a merge still
     point at the live series *)
  let src = Telemetry.create () in
  Telemetry.inc src ~labels:[ ("kind", "select") ] "s_total" ~by:10;
  Telemetry.merge_into ~dst:t ~src;
  Telemetry.inc_handle c;
  Alcotest.(check int) "handle survives merge_into" 15
    (Telemetry.counter_value t ~labels:[ ("kind", "select") ] "s_total")

(* ---------- merge monoid laws ---------- *)

(* registries with overlapping and disjoint series of all three kinds *)
let sample_registry salt =
  let t = Telemetry.create () in
  Telemetry.inc t "shared_total" ~by:salt;
  Telemetry.inc t ~labels:[ ("w", string_of_int (salt mod 2)) ] "labelled_total";
  Telemetry.inc t (Printf.sprintf "only_%d_total" salt);
  Telemetry.set_gauge t "load" (float_of_int salt);
  List.iter
    (fun i -> Telemetry.observe t "lat_seconds" (float_of_int (salt + i) *. 1e-4))
    [ 0; 1; 2 ];
  t

let test_merge_laws () =
  let snap = Telemetry.snapshot in
  let a = sample_registry 1 and b = sample_registry 2 and c = sample_registry 3 in
  Alcotest.(check bool) "associative" true
    (snap (Telemetry.merge (Telemetry.merge a b) c)
    = snap (Telemetry.merge a (Telemetry.merge b c)));
  Alcotest.(check bool) "left identity" true
    (snap (Telemetry.merge (Telemetry.create ()) a) = snap a);
  Alcotest.(check bool) "right identity" true
    (snap (Telemetry.merge a (Telemetry.create ())) = snap a);
  (* merge sums every series *)
  let m = Telemetry.merge a b in
  Alcotest.(check int) "counters add" 3 (Telemetry.counter_value m "shared_total");
  Alcotest.(check int) "disjoint series survive" 1
    (Telemetry.counter_value m "only_2_total");
  Alcotest.(check int) "histogram counts add" 6
    (Telemetry.histogram_count m "lat_seconds");
  Alcotest.(check (float 1e-9)) "histogram sums add"
    (Telemetry.histogram_sum a "lat_seconds"
    +. Telemetry.histogram_sum b "lat_seconds")
    (Telemetry.histogram_sum m "lat_seconds");
  (* the sources are not consumed *)
  Alcotest.(check int) "merge leaves sources intact" 1
    (Telemetry.counter_value a "shared_total")

let test_merge_buckets () =
  let custom = [| 0.5; 1.0 |] in
  let a = Telemetry.create () and b = Telemetry.create () in
  Telemetry.observe a ~buckets:custom "h_seconds" 0.25;
  Telemetry.observe b ~buckets:custom "h_seconds" 0.75;
  (match Telemetry.snapshot (Telemetry.merge a b) with
  | [ { Telemetry.s_value = Telemetry.Histogram { buckets; _ }; _ } ] ->
      Alcotest.(check (list (pair (float 0.0) int)))
        "custom layout preserved through merge"
        [ (0.5, 1); (1.0, 2) ]
        buckets
  | _ -> Alcotest.fail "expected exactly one histogram sample");
  let c = Telemetry.create () in
  Telemetry.observe c ~buckets:[| 0.5; 2.0 |] "h_seconds" 0.25;
  Alcotest.check_raises "mismatched layouts rejected"
    (Invalid_argument "Telemetry.merge: histogram h_seconds has mismatched buckets")
    (fun () -> Telemetry.merge_into ~dst:a ~src:c)

(* ---------- clock and spans ---------- *)

let test_clock_monotonic () =
  Alcotest.(check string) "backed by the monotonic clock" "clock_monotonic"
    Telemetry.Clock.source;
  let prev = ref (Telemetry.Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let now = Telemetry.Clock.now_ns () in
    if Int64.compare now !prev < 0 then Alcotest.fail "clock went backwards";
    prev := now
  done

let test_span_time () =
  let t = Telemetry.create () in
  Alcotest.(check int) "span returns its body's value" 42
    (Telemetry.Span.time t "gen_db" (fun () -> 42));
  Alcotest.(check int) "one observation per call" 1
    (Telemetry.histogram_count t
       ~labels:[ ("phase", "gen_db") ]
       "pqs_phase_seconds");
  Alcotest.(check bool) "duration is non-negative" true
    (Telemetry.histogram_sum t ~labels:[ ("phase", "gen_db") ] "pqs_phase_seconds"
    >= 0.0);
  (* the duration is recorded even when the body raises, and the
     exception propagates *)
  (match Telemetry.Span.time t "gen_db" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure msg ->
      Alcotest.(check string) "exception propagates" "boom" msg);
  Alcotest.(check int) "raising bodies are still timed" 2
    (Telemetry.histogram_count t
       ~labels:[ ("phase", "gen_db") ]
       "pqs_phase_seconds");
  (* pre-resolved span handles share the series *)
  let h = Telemetry.Span.handle t "gen_db" in
  Telemetry.Span.time_with h (fun () -> ());
  Alcotest.(check int) "Span.handle shares the series" 3
    (Telemetry.histogram_count t
       ~labels:[ ("phase", "gen_db") ]
       "pqs_phase_seconds")

let test_phase_taxonomy () =
  (* every taxonomy phase records into its own series of the right family *)
  let t = Telemetry.create () in
  List.iter
    (fun p -> Telemetry.Span.timed t p (fun () -> ()))
    Telemetry.Phase.all;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Telemetry.Phase.name p ^ " recorded once")
        1
        (Telemetry.histogram_count t
           ~labels:[ ("phase", Telemetry.Phase.name p) ]
           (Telemetry.Phase.metric p)))
    Telemetry.Phase.all;
  let names = List.map Telemetry.Phase.name Telemetry.Phase.all in
  Alcotest.(check int) "phase names are distinct"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check bool) "families are pqs_ or minidb_" true
    (List.for_all
       (fun p ->
         let m = Telemetry.Phase.metric p in
         m = "pqs_phase_seconds" || m = "minidb_phase_seconds")
       Telemetry.Phase.all);
  (* Span.timed and the string API hit the same series *)
  Telemetry.Span.time t "rectify" (fun () -> ());
  Alcotest.(check int) "Span.timed aliases the string-keyed series" 2
    (Telemetry.histogram_count t
       ~labels:[ ("phase", "rectify") ]
       "pqs_phase_seconds")

(* ---------- exporters ---------- *)

let test_prometheus_golden () =
  let t = Telemetry.create () in
  Telemetry.inc t ~labels:[ ("kind", "select") ] "minidb_statements_total" ~by:7;
  Telemetry.set_gauge t "pqs_campaign_domains" 4.0;
  List.iter
    (Telemetry.observe t ~buckets:[| 0.1; 1.0 |] "pqs_round_seconds")
    [ 0.05; 0.5; 5.0 ];
  let expected =
    String.concat "\n"
      [
        "# HELP minidb_statements_total Statements executed by the engine, \
         by statement kind.";
        "# TYPE minidb_statements_total counter";
        "minidb_statements_total{kind=\"select\"} 7";
        "# HELP pqs_campaign_domains Worker domains of the campaign.";
        "# TYPE pqs_campaign_domains gauge";
        "pqs_campaign_domains 4";
        "# HELP pqs_round_seconds Wall time of one complete database round \
         (one seed).";
        "# TYPE pqs_round_seconds histogram";
        "pqs_round_seconds_bucket{le=\"0.1\"} 1";
        "pqs_round_seconds_bucket{le=\"1\"} 2";
        "pqs_round_seconds_bucket{le=\"+Inf\"} 3";
        "pqs_round_seconds_sum 5.55";
        "pqs_round_seconds_count 3";
        "";
      ]
  in
  Alcotest.(check string) "byte-exact exposition" expected
    (Telemetry.to_prometheus t)

let test_json_export () =
  let t = Telemetry.create () in
  Telemetry.inc t ~labels:[ ("kind", "select") ] "minidb_statements_total" ~by:7;
  Telemetry.set_gauge t "pqs_campaign_domains" 4.0;
  List.iter
    (Telemetry.observe t ~buckets:[| 0.1; 1.0 |] "pqs_round_seconds")
    [ 0.05; 0.5; 5.0 ];
  let doc = parse_json (Telemetry.to_json t) in
  Alcotest.(check string) "clock is identified" "clock_monotonic"
    (jstr (member "clock" doc));
  let metrics = jarr (member "metrics" doc) in
  Alcotest.(check int) "one object per series" 3 (List.length metrics);
  let find name =
    List.find (fun m -> jstr (member "name" m) = name) metrics
  in
  let counter = find "minidb_statements_total" in
  Alcotest.(check string) "counter type" "counter" (jstr (member "type" counter));
  Alcotest.(check (float 0.0)) "counter value" 7.0 (jnum (member "value" counter));
  Alcotest.(check string) "labels round-trip" "select"
    (jstr (member "kind" (member "labels" counter)));
  let hist = find "pqs_round_seconds" in
  Alcotest.(check (float 0.0)) "histogram count" 3.0 (jnum (member "count" hist));
  let buckets = jarr (member "buckets" hist) in
  Alcotest.(check int) "buckets include +Inf" 3 (List.length buckets);
  let last = List.nth buckets 2 in
  Alcotest.(check string) "last bucket is +Inf" "+Inf" (jstr (member "le" last));
  Alcotest.(check (float 0.0)) "+Inf holds the total count" 3.0
    (jnum (member "count" last));
  let cum = List.map (fun b -> jnum (member "count" b)) buckets in
  Alcotest.(check bool) "bucket counts are cumulative" true
    (List.sort compare cum = cum)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_write_file_by_suffix () =
  let t = Telemetry.create () in
  Telemetry.inc t "pqs_rounds_total";
  let json_path = Filename.temp_file "tele" ".json" in
  let prom_path = Filename.temp_file "tele" ".prom" in
  Telemetry.write_file t json_path;
  Telemetry.write_file t prom_path;
  let j = read_file json_path and p = read_file prom_path in
  Sys.remove json_path;
  Sys.remove prom_path;
  ignore (parse_json j : Json.t);
  Alcotest.(check bool) ".json writes the JSON snapshot" true
    (String.length j > 0 && j.[0] = '{');
  Alcotest.(check bool) "other suffixes write Prometheus text" true
    (String.length p > 6 && String.sub p 0 6 = "# HELP")

let test_chrome_trace () =
  let events =
    [
      Telemetry.Trace.process_name "pqs campaign";
      Telemetry.Trace.thread_name ~tid:1 "worker 1";
      Telemetry.Trace.complete ~name:"seed 5"
        ~args:[ ("seed", Telemetry.Trace.Int 5) ]
        ~ts_us:100.0 ~dur_us:250.5 ~tid:1 ();
    ]
  in
  let doc = parse_json (Telemetry.Trace.to_json events) in
  let evs = jarr (member "traceEvents" doc) in
  Alcotest.(check int) "all events emitted" 3 (List.length evs);
  let complete =
    List.find (fun e -> jstr (member "ph" e) = "X") evs
  in
  Alcotest.(check string) "complete event name" "seed 5"
    (jstr (member "name" complete));
  Alcotest.(check (float 0.0)) "microsecond timestamp" 100.0
    (jnum (member "ts" complete));
  Alcotest.(check (float 1e-9)) "duration" 250.5 (jnum (member "dur" complete));
  Alcotest.(check (float 0.0)) "args carried through" 5.0
    (jnum (member "seed" (member "args" complete)));
  Alcotest.(check int) "metadata events use ph=M" 2
    (List.length (List.filter (fun e -> jstr (member "ph" e) = "M") evs))

(* ---------- campaign neutrality ---------- *)

let report_key (r : Pqs.Bug_report.t) =
  ( (r.Pqs.Bug_report.seed, Pqs.Bug_report.oracle_label r.Pqs.Bug_report.oracle),
    (r.Pqs.Bug_report.message, Pqs.Bug_report.script r) )

let strip_reports (s : Pqs.Stats.t) = { s with Pqs.Stats.reports = [] }

let test_campaign_neutral () =
  let bugs =
    Engine.Bug.set_of_list (Engine.Bug.for_dialect Dialect.Sqlite_like)
  in
  let run telemetry =
    let config = Pqs.Runner.Config.make ~bugs ~telemetry Dialect.Sqlite_like in
    Pqs.Campaign.run ~domains:2 ~seed_lo:1 ~seed_hi:21 config
  in
  let tele = Telemetry.create () in
  let off = run Telemetry.noop and on = run tele in
  Alcotest.(check bool) "campaign found bugs to compare" true
    (Pqs.Campaign.reports off <> []);
  Alcotest.(check (list (pair (pair int string) (pair string string))))
    "identical bug-report sets with telemetry on"
    (List.map report_key (Pqs.Campaign.reports off))
    (List.map report_key (Pqs.Campaign.reports on));
  Alcotest.(check bool) "identical merged stats with telemetry on" true
    (strip_reports off.Pqs.Campaign.stats = strip_reports on.Pqs.Campaign.stats);
  (* and the registry actually observed the run: per-worker registries
     were merged after the join *)
  Alcotest.(check int) "rounds counted" 20
    (Telemetry.counter_value tele "pqs_rounds_total");
  Alcotest.(check int) "statements counted"
    on.Pqs.Campaign.stats.Pqs.Stats.statements
    (Telemetry.counter_value tele "pqs_statements_total");
  Alcotest.(check int) "round latency histogram filled" 20
    (Telemetry.histogram_count tele "pqs_round_seconds");
  Alcotest.(check bool) "loop phase spans recorded" true
    (Telemetry.histogram_count tele
       ~labels:[ ("phase", "gen_db") ]
       "pqs_phase_seconds"
    > 0);
  Alcotest.(check bool) "engine phase spans recorded" true
    (Telemetry.histogram_count tele
       ~labels:[ ("phase", "execute") ]
       "minidb_phase_seconds"
    > 0)

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges and type clash" `Quick
            test_gauges_and_type_clash;
          Alcotest.test_case "histograms and quantiles" `Quick test_histograms;
          Alcotest.test_case "noop sink" `Quick test_noop;
          Alcotest.test_case "pre-resolved handles" `Quick test_handles;
        ] );
      ( "merge",
        [
          Alcotest.test_case "monoid laws" `Quick test_merge_laws;
          Alcotest.test_case "bucket layouts" `Quick test_merge_buckets;
        ] );
      ( "spans",
        [
          Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "span timing" `Quick test_span_time;
          Alcotest.test_case "phase taxonomy" `Quick test_phase_taxonomy;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "json snapshot" `Quick test_json_export;
          Alcotest.test_case "write_file suffix" `Quick
            test_write_file_by_suffix;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "telemetry neutrality" `Quick test_campaign_neutral;
        ] );
    ]
