(* The benchmark's own contracts: the tail percentile it reports, digests
   that repeat across runs, how a report on the engine without injected
   bugs is counted, and every workload passing its output checks on a tiny
   seed range. *)

open Perfbench

let ramp n = Stat.sorted (List.init n (fun i -> float_of_int (i + 1)))

let test_tail () =
  let check n expected =
    Alcotest.(check (option (pair (float 0.) (float 0.))))
      (Printf.sprintf "tail of %d samples" n) expected (Stat.tail (ramp n))
  in
  (* p99 needs 1000 samples for ten beyond it; fewer fall back down the
     ladder, and under 20 there is no tail at all *)
  check 10_000 (Some (99.9, 9990.));
  check 1000 (Some (99., 990.));
  check 999 (Some (95., 950.));
  check 100 (Some (90., 90.));
  check 20 (Some (50., 10.));
  check 19 None;
  Alcotest.(check (float 0.)) "median" 3. (Stat.median [ 5.; 1.; 3.; 2.; 4. ]);
  Alcotest.(check (float 0.)) "ratio of nothing" 0. (Stat.ratio 1. 0.)

let digest_of w =
  let _, batches = Measure.setup (Smoke.tiny w) in
  Measure.digest batches

let test_digest_stable () =
  List.iter
    (fun (w : Workload.t) ->
      Alcotest.(check string) (w.name ^ " digest repeats") (digest_of w) (digest_of w))
    [ Workload.hunt_default; Workload.write_heavy_j2; Workload.bug_hunt ]

(* query-heavy's round 1001041 reports a plan_diff divergence on the engine
   without injected bugs (an index-like scan misses rows the full scan
   returns); it reproduces, so it is flagged and the result line's
   [failed] stays 0 *)
let test_reproducing_report_flagged () =
  let w = { Workload.query_heavy with Workload.batch = 1 } in
  let s = Measure.summarize w 0 (Measure.run_batch w 0 ~seed_lo:1001041) in
  Alcotest.(check int) "one report" 1 s.Measure.reports;
  Alcotest.(check int) "no failure" 0 (List.length s.Measure.failures);
  Alcotest.(check (list string)) "flagged"
    [ "plan_diff (no injected bug, reproduces)" ]
    (List.map (fun (f : Measure.failure) -> f.what) s.Measure.flagged)

let test_smoke () = Alcotest.(check bool) "every workload passes" true (Smoke.run ~seed:2)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "digest stability" `Quick test_digest_stable;
          Alcotest.test_case "reproducing report flagged" `Quick
            test_reproducing_report_flagged;
          Alcotest.test_case "smoke" `Quick test_smoke;
        ] );
    ]
