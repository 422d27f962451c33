(* The fleet observability contracts:

   - the heartbeat codec: a golden record pins the wire format, decode o
     encode is the identity on the mergeable payload (qcheck), so is
     [Json.parse] o [Json.quote] on arbitrary byte strings, every
     proper prefix of an encoding is rejected (a torn write can never
     decode), unsupported versions are rejected, unknown fields are
     ignored (records can grow);
   - the tailer: complete lines only, a trailing unterminated line is
     buffered until its newline arrives, in-place truncation and
     file replacement both surface as [Rotated] without losing the old
     file's tail, [drain] discards a crashed writer's torn last line;
   - the range queue: chunked leases cover the range exactly once, and a
     requeued tail is served before fresh chunks;
   - the split/merge law: folding synthetic heartbeat deltas into an
     {!Fleet.Aggregate} gives the same {!Fleet.Aggregate.totals} no
     matter how the deltas are split across shards or interleaved
     (qcheck), with findings deduplicated to the first-discovering
     shard;
   - [Telemetry.record_sample]: recording every sample of a snapshot
     equals merging the snapshotted registry;
   - end to end: a real forked 2-worker fleet over a seeded bug catalog
     produces totals exactly equal to a sequential campaign's, including
     when one shard is SIGKILLed mid-lease (the unfinished tail is
     requeued). *)

open Sqlval

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* stats holding the named counters (the rest 0) and [frontier] *)
let stats_of ?(frontier = Frontier.empty) counters =
  Pqs.Stats.with_counters
    { Pqs.Stats.empty with Pqs.Stats.frontier }
    (fun name -> Option.value ~default:0 (List.assoc_opt name counters))

(* ------------------------------------------------------------------ *)
(* Heartbeat codec                                                      *)

let golden_heartbeat =
  {
    Pqs.Heartbeat.version = 1;
    shard = 3;
    slot = 1;
    seq = 2;
    at = 12.5;
    range_lo = 64;
    range_hi = 96;
    next_seed = 72;
    rounds = 8;
    rounds_per_sec = 41.5;
    stats =
      stats_of
        ~frontier:
          (Frontier.of_entries
             [
               ("shape:join", { Frontier.hits = 5; first_seed = 64 });
               ("expr:like", { Frontier.hits = 2; first_seed = 65 });
             ])
        [
          ("databases", 8);
          ("pivots", 32);
          ("queries", 40);
          ("statements", 120);
          ("interp_failures", 1);
          ("negative_checks", 4);
          ("plan_checks", 2);
          ("const_checks", 3);
          ("const_divergences", 1);
          ("truth_true", 30);
          ("truth_false", 8);
          ("truth_unknown", 2);
        ];
    reports =
      [
        {
          Pqs.Heartbeat.rm_fingerprint = "0123abcd";
          rm_oracle = "containment";
          rm_seed = 65;
          rm_bundle = Some "bundles/seed-65";
        };
        {
          Pqs.Heartbeat.rm_fingerprint = "ff00";
          rm_oracle = "error";
          rm_seed = 70;
          rm_bundle = None;
        };
      ];
    telemetry =
      [
        {
          Telemetry.s_name = "pqs_rounds_total";
          s_labels = [];
          s_value = Telemetry.Counter 8;
        };
        {
          Telemetry.s_name = "pqs_shard_gauge";
          s_labels = [ ("k", "v") ];
          s_value = Telemetry.Gauge 2.5;
        };
      ];
  }

let golden_line =
  "{\"type\":\"heartbeat\",\"v\":1,\"shard\":3,\"slot\":1,\"seq\":2,\
   \"at\":12.500,\"range\":[64,96],\"next\":72,\"rounds\":8,\"rps\":41.5,\
   \"stats\":{\"databases\":8,\"pivots\":32,\"queries\":40,\
   \"statements\":120,\"interp_failures\":1,\"false_positives\":0,\
   \"negative_checks\":4,\"lint_checks\":0,\"lint_diagnostics\":0,\
   \"plan_checks\":2,\"plan_divergences\":0,\"const_checks\":3,\
   \"const_divergences\":1,\"truth_true\":30,\"truth_false\":8,\
   \"truth_unknown\":2},\"points\":[{\"p\":\"expr:like\",\"h\":2,\"s\":65},\
   {\"p\":\"shape:join\",\"h\":5,\"s\":64}],\"reports\":[{\"fp\":\
   \"0123abcd\",\"oracle\":\"containment\",\"seed\":65,\"bundle\":\
   \"bundles/seed-65\"},{\"fp\":\"ff00\",\"oracle\":\"error\",\"seed\":70}],\
   \"telemetry\":[{\"name\":\"pqs_rounds_total\",\"labels\":{},\
   \"type\":\"counter\",\"value\":8},{\"name\":\"pqs_shard_gauge\",\
   \"labels\":{\"k\":\"v\"},\"type\":\"gauge\",\"value\":2.5}]}"

let test_golden () =
  check Alcotest.string "encoding is pinned" golden_line
    (Pqs.Heartbeat.encode golden_heartbeat);
  match Pqs.Heartbeat.decode golden_line with
  | Error e -> Alcotest.failf "golden line failed to decode: %s" e
  | Ok hb ->
      checkb "payload round-trips" true
        (Pqs.Heartbeat.equal_payload golden_heartbeat hb);
      check Alcotest.int "shard" 3 hb.Pqs.Heartbeat.shard;
      check Alcotest.int "next watermark" 72 hb.Pqs.Heartbeat.next_seed;
      check Alcotest.int "rounds" 8 hb.Pqs.Heartbeat.rounds;
      check
        (Alcotest.float 1e-9)
        "rate" 41.5 hb.Pqs.Heartbeat.rounds_per_sec;
      checkb "telemetry round-trips" true
        (hb.Pqs.Heartbeat.telemetry = golden_heartbeat.Pqs.Heartbeat.telemetry)

let test_partial_writes () =
  let line = Pqs.Heartbeat.encode golden_heartbeat in
  for len = 0 to String.length line - 1 do
    match Pqs.Heartbeat.decode (String.sub line 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "torn prefix of %d bytes decoded" len
  done

let test_versioning () =
  let future =
    Pqs.Heartbeat.encode
      { golden_heartbeat with Pqs.Heartbeat.version = 99 }
  in
  (match Pqs.Heartbeat.decode future with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unsupported version accepted");
  (* unknown fields are ignored so records can grow *)
  let grown =
    "{\"type\":\"heartbeat\",\"future_field\":[1,2],"
    ^ String.sub golden_line 1 (String.length golden_line - 1)
  in
  match Pqs.Heartbeat.decode grown with
  | Error e -> Alcotest.failf "grown record rejected: %s" e
  | Ok hb ->
      checkb "grown record keeps payload" true
        (Pqs.Heartbeat.equal_payload golden_heartbeat hb)

(* floats chosen to survive the codec's decimal formatting *)
let gen_heartbeat =
  let open QCheck.Gen in
  let name =
    oneofl
      [ "shape:join"; "expr:like\"quoted\""; "plan\\path"; "a b\nc"; "x" ]
  in
  let small = int_bound 50 in
  let* shard = int_bound 9 in
  let* slot = int_bound 3 in
  let* seq = int_bound 20 in
  let* at8 = int_bound 10_000 in
  let* lo = int_bound 100 in
  let* span = int_bound 64 in
  let* rounds = int_bound 32 in
  let* rps4 = int_bound 2_000 in
  let* counts = list_size (return 16) small in
  let* points =
    list_size (int_bound 6)
      (let* p = name in
       let* hits = int_range 1 9 in
       let* first_seed = int_bound 100 in
       return (p, { Frontier.hits; first_seed }))
  in
  let* reports =
    list_size (int_bound 3)
      (let* fp = string_size ~gen:(char_range 'a' 'f') (return 8) in
       let* oracle = oneofl [ "containment"; "error"; "crash" ] in
       let* seed = int_bound 100 in
       let* bundle = opt (oneofl [ "b/1"; "dir with space/2" ]) in
       return
         {
           Pqs.Heartbeat.rm_fingerprint = fp;
           rm_oracle = oracle;
           rm_seed = seed;
           rm_bundle = bundle;
         })
  in
  let* samples =
    list_size (int_bound 3)
      (oneof
         [
           (let* v = small in
            return
              {
                Telemetry.s_name = "pqs_rounds_total";
                s_labels = [];
                s_value = Telemetry.Counter v;
              });
           (let* v4 = int_bound 400 in
            return
              {
                Telemetry.s_name = "pqs_gauge";
                s_labels = [ ("dialect", "sqlite") ];
                s_value = Telemetry.Gauge (float_of_int v4 /. 4.0);
              });
           (let* c1 = small in
            let* c2 = small in
            return
              {
                Telemetry.s_name = "pqs_round_seconds";
                s_labels = [];
                s_value =
                  Telemetry.Histogram
                    {
                      buckets = [ (0.25, c1); (0.5, c1 + c2) ];
                      sum = float_of_int (c1 + c2) /. 4.0;
                      count = c1 + c2;
                    };
              });
         ])
  in
  let names = List.map fst (Pqs.Stats.counters Pqs.Stats.empty) in
  let stats =
    stats_of ~frontier:(Frontier.of_entries points) (List.combine names counts)
  in
  return
    {
      Pqs.Heartbeat.version = Pqs.Heartbeat.current_version;
      shard;
      slot;
      seq;
      at = float_of_int at8 /. 8.0;
      range_lo = lo;
      range_hi = lo + span;
      next_seed = lo + min span rounds;
      rounds;
      rounds_per_sec = float_of_int rps4 /. 4.0;
      stats;
      reports;
      telemetry = samples;
    }

let test_roundtrip =
  QCheck.Test.make ~count:300 ~name:"decode o encode = id"
    (QCheck.make gen_heartbeat) (fun hb ->
      match Pqs.Heartbeat.decode (Pqs.Heartbeat.encode hb) with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok hb' ->
          Pqs.Heartbeat.equal_payload hb hb'
          && hb'.Pqs.Heartbeat.shard = hb.Pqs.Heartbeat.shard
          && hb'.Pqs.Heartbeat.slot = hb.Pqs.Heartbeat.slot
          && hb'.Pqs.Heartbeat.seq = hb.Pqs.Heartbeat.seq
          && hb'.Pqs.Heartbeat.range_lo = hb.Pqs.Heartbeat.range_lo
          && hb'.Pqs.Heartbeat.range_hi = hb.Pqs.Heartbeat.range_hi
          && hb'.Pqs.Heartbeat.next_seed = hb.Pqs.Heartbeat.next_seed
          && hb'.Pqs.Heartbeat.rounds = hb.Pqs.Heartbeat.rounds
          && hb'.Pqs.Heartbeat.rounds_per_sec
             = hb.Pqs.Heartbeat.rounds_per_sec
          && hb'.Pqs.Heartbeat.at = hb.Pqs.Heartbeat.at
          && hb'.Pqs.Heartbeat.reports = hb.Pqs.Heartbeat.reports
          && hb'.Pqs.Heartbeat.telemetry = hb.Pqs.Heartbeat.telemetry)

(* the one codec's string escaping round-trips every byte string,
   control and non-ASCII bytes included *)
let test_json_quote =
  QCheck.Test.make ~count:1000 ~name:"parse o quote = id"
    QCheck.(string_gen Gen.char)
    (fun s -> Json.parse (Json.quote s) = Ok (Json.Str s))

(* ------------------------------------------------------------------ *)
(* Tailer                                                               *)

let temp_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pqs-test-tail-%d-%s" (Unix.getpid ()) tag)

let append path s =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc s;
  close_out oc

let lines events =
  List.filter_map
    (function Fleet.Tail.Line l -> Some l | Fleet.Tail.Rotated -> None)
    events

let rotations events =
  List.length (List.filter (fun e -> e = Fleet.Tail.Rotated) events)

let test_tail_partial () =
  let path = temp_path "partial" in
  if Sys.file_exists path then Sys.remove path;
  let t = Fleet.Tail.create path in
  check (Alcotest.list Alcotest.string) "missing file: no lines" []
    (lines (Fleet.Tail.poll t));
  append path "alpha\nbeta\n";
  check
    (Alcotest.list Alcotest.string)
    "complete lines" [ "alpha"; "beta" ]
    (lines (Fleet.Tail.poll t));
  append path "gam";
  check (Alcotest.list Alcotest.string) "torn line withheld" []
    (lines (Fleet.Tail.poll t));
  append path "ma\n";
  check
    (Alcotest.list Alcotest.string)
    "torn line completed" [ "gamma" ]
    (lines (Fleet.Tail.poll t));
  append path "delta\ntorn-tail";
  let drained = Fleet.Tail.drain t in
  check
    (Alcotest.list Alcotest.string)
    "drain discards the torn tail" [ "delta" ] (lines drained);
  Fleet.Tail.close t;
  Sys.remove path

let test_tail_truncation () =
  let path = temp_path "trunc" in
  if Sys.file_exists path then Sys.remove path;
  append path "one\ntwo\n";
  let t = Fleet.Tail.create path in
  check (Alcotest.list Alcotest.string) "initial" [ "one"; "two" ]
    (lines (Fleet.Tail.poll t));
  (* in-place truncation: the writer restarted its file *)
  let oc = open_out path in
  output_string oc "fresh\n";
  close_out oc;
  let ev = Fleet.Tail.poll t in
  checkb "truncation surfaces Rotated" true (rotations ev >= 1);
  check (Alcotest.list Alcotest.string) "fresh content" [ "fresh" ] (lines ev);
  Fleet.Tail.close t;
  Sys.remove path

let test_tail_rotation () =
  let path = temp_path "rot" in
  let old = path ^ ".1" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; old ];
  append path "kept\n";
  let t = Fleet.Tail.create path in
  check (Alcotest.list Alcotest.string) "initial" [ "kept" ]
    (lines (Fleet.Tail.poll t));
  (* logrotate: rename, then a new file appears at the same path *)
  append path "late\n";
  Sys.rename path old;
  append path "rotated\n";
  let ev = Fleet.Tail.poll t in
  checkb "rotation surfaces Rotated" true (rotations ev = 1);
  check
    (Alcotest.list Alcotest.string)
    "old tail drained before the new file" [ "late"; "rotated" ] (lines ev);
  Fleet.Tail.close t;
  List.iter Sys.remove [ path; old ]

(* ------------------------------------------------------------------ *)
(* Range queue                                                          *)

let test_range_queue () =
  let q = Fleet.Range_queue.create ~chunk:10 ~lo:0 ~hi:25 in
  check Alcotest.int "pending covers the range" 25
    (Fleet.Range_queue.pending q);
  let l1 = Fleet.Range_queue.lease q in
  let l2 = Fleet.Range_queue.lease q in
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "first chunk"
    (Some (0, 10))
    l1;
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "second chunk"
    (Some (10, 20))
    l2;
  (* a killed shard's unfinished tail jumps the queue *)
  Fleet.Range_queue.requeue q ~lo:13 ~hi:20;
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "requeued tail first"
    (Some (13, 20))
    (Fleet.Range_queue.lease q);
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "then the last short chunk"
    (Some (20, 25))
    (Fleet.Range_queue.lease q);
  Fleet.Range_queue.requeue q ~lo:5 ~hi:5;
  checkb "empty requeue ignored" true (Fleet.Range_queue.is_empty q);
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "exhausted" None (Fleet.Range_queue.lease q)

(* ------------------------------------------------------------------ *)
(* Split/merge law                                                      *)

(* cut [deltas] into [cuts]-determined consecutive batches and turn each
   batch into one heartbeat of the given shard *)
let heartbeats_of_batches ~shard deltas cuts =
  let batches =
    List.fold_left
      (fun (batches, cur, i) d ->
        if List.mem i cuts && cur <> [] then
          (List.rev cur :: batches, [ d ], i + 1)
        else (batches, d :: cur, i + 1))
      ([], [], 0) deltas
    |> fun (batches, cur, _) ->
    List.rev (if cur = [] then batches else List.rev cur :: batches)
  in
  List.mapi
    (fun seq batch ->
      let stats = Pqs.Stats.merge_all (List.map fst batch) in
      let reports = List.concat_map snd batch in
      {
        Pqs.Heartbeat.version = Pqs.Heartbeat.current_version;
        shard;
        slot = shard mod 2;
        seq;
        at = float_of_int seq;
        range_lo = 0;
        range_hi = List.length deltas;
        next_seed = 0;
        rounds = List.length batch;
        rounds_per_sec = 1.0;
        stats;
        reports;
        telemetry = [];
      })
    batches

let gen_split_case =
  let open QCheck.Gen in
  let* n = int_range 1 24 in
  let* deltas =
    list_size (return n)
      (let* dbs = int_range 1 3 in
       let* stmts = int_bound 20 in
       let* point = oneofl [ "a"; "b"; "c"; "d" ] in
       let* seed = int_bound 50 in
       let* report =
         opt
           (let* fp = oneofl [ "fp1"; "fp2"; "fp3" ] in
            return
              {
                Pqs.Heartbeat.rm_fingerprint = fp;
                rm_oracle = "containment";
                rm_seed = seed;
                rm_bundle = None;
              })
       in
       return
         ( stats_of
             ~frontier:(Frontier.of_points ~seed [ point ])
             [ ("databases", dbs); ("statements", stmts) ],
           Option.to_list report ))
  in
  let* cuts = list_size (int_bound 6) (int_bound (max 1 (n - 1))) in
  let* split_at = int_bound n in
  return (deltas, cuts, split_at)

let feed_all agg hbs =
  List.iteri (fun i hb -> Fleet.Aggregate.feed agg ~now:(float_of_int i) hb) hbs

let test_split_merge =
  QCheck.Test.make ~count:200
    ~name:"aggregate totals are split-invariant"
    (QCheck.make gen_split_case) (fun (deltas, cuts, split_at) ->
      let dialect = Dialect.Sqlite_like in
      (* reference: everything as one shard, one heartbeat per delta *)
      let ref_agg = Fleet.Aggregate.create ~dialect in
      feed_all ref_agg (heartbeats_of_batches ~shard:1 deltas []);
      (* split: two shards with arbitrary batch boundaries, interleaved *)
      let left = List.filteri (fun i _ -> i < split_at) deltas in
      let right = List.filteri (fun i _ -> i >= split_at) deltas in
      let h1 = heartbeats_of_batches ~shard:1 left cuts in
      let h2 = heartbeats_of_batches ~shard:2 right cuts in
      let rec interleave a b =
        match (a, b) with
        | [], rest | rest, [] -> rest
        | x :: xs, y :: ys -> x :: y :: interleave xs ys
      in
      let split_agg = Fleet.Aggregate.create ~dialect in
      feed_all split_agg (interleave h1 h2);
      let r = Fleet.Aggregate.totals ref_agg in
      let s = Fleet.Aggregate.totals split_agg in
      if not (Fleet.Aggregate.equal_totals r s) then
        QCheck.Test.fail_reportf "totals diverge:\n%s"
          (String.concat "\n" (Fleet.Aggregate.diff_totals r s))
      else true)

let test_finding_dedup () =
  let dialect = Dialect.Sqlite_like in
  let agg = Fleet.Aggregate.create ~dialect in
  let report seed =
    {
      Pqs.Heartbeat.rm_fingerprint = "same-bug";
      rm_oracle = "containment";
      rm_seed = seed;
      rm_bundle = None;
    }
  in
  let delta shard seed =
    List.hd
      (heartbeats_of_batches ~shard
         [ (Pqs.Stats.empty, [ report seed ]) ]
         [])
  in
  Fleet.Aggregate.feed agg ~now:0.0 (delta 2 40);
  Fleet.Aggregate.feed agg ~now:1.0 (delta 1 10);
  Fleet.Aggregate.feed agg ~now:2.0 (delta 3 90);
  check Alcotest.int "one distinct finding" 1
    (Fleet.Aggregate.distinct_reports agg);
  check Alcotest.int "three total reports" 3
    (Fleet.Aggregate.total_reports agg);
  match Fleet.Aggregate.findings agg with
  | [ f ] ->
      check Alcotest.int "first-discovering shard wins" 2
        f.Fleet.Aggregate.f_shard;
      check Alcotest.int "its seed is kept" 40 f.Fleet.Aggregate.f_seed;
      check Alcotest.int "occurrences counted" 3 f.Fleet.Aggregate.f_count
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_record_sample_law () =
  let src = Telemetry.create () in
  Telemetry.inc src ~by:7 "pqs_rounds_total";
  Telemetry.inc src ~labels:[ ("dialect", "sqlite") ] ~by:3 "pqs_hits";
  Telemetry.set_gauge src "pqs_rate" 12.5;
  List.iter
    (fun v -> Telemetry.observe src "pqs_round_seconds" v)
    [ 0.001; 0.02; 0.3; 5.0 ];
  (* recording every sample of a snapshot = merging the registry *)
  let via_samples = Telemetry.create () in
  Telemetry.inc via_samples ~by:2 "pqs_rounds_total";
  List.iter (Telemetry.record_sample via_samples) (Telemetry.snapshot src);
  let via_merge = Telemetry.create () in
  Telemetry.inc via_merge ~by:2 "pqs_rounds_total";
  Telemetry.merge_into ~dst:via_merge ~src;
  checkb "record_sample snapshot = merge_into" true
    (Telemetry.snapshot via_samples = Telemetry.snapshot via_merge)

(* ------------------------------------------------------------------ *)
(* End to end                                                           *)

let fleet_dir tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pqs-test-fleet-%d-%s" (Unix.getpid ()) tag)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let run_reference ~bugs ~dialect ~seed_lo ~seed_hi =
  let config = Pqs.Runner.Config.make ~bugs dialect in
  let c = Pqs.Campaign.run ~domains:1 ~seed_lo ~seed_hi config in
  Fleet.Aggregate.totals_of_stats
    ~fingerprint:(fun r ->
      Pqs.Bug_report.fingerprint (Pqs.Reducer.reduce_report r ~bugs))
    c.Pqs.Campaign.stats

let test_fleet_end_to_end () =
  let dialect = Dialect.Sqlite_like in
  let bugs = Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect) in
  let seed_lo = 1 and seed_hi = 25 in
  let reference = run_reference ~bugs ~dialect ~seed_lo ~seed_hi in
  let dir = fleet_dir "e2e" in
  rm_rf dir;
  let fc =
    {
      (Fleet.Supervisor.default ~dir) with
      Fleet.Supervisor.workers = 2;
      chunk = 8;
      heartbeat_every = 4;
    }
  in
  let r =
    Fleet.Supervisor.run fc
      (Pqs.Runner.Config.make ~bugs dialect)
      ~seed_lo ~seed_hi
  in
  let merged = Fleet.Aggregate.totals r.Fleet.Supervisor.agg in
  if not (Fleet.Aggregate.equal_totals reference merged) then
    Alcotest.failf "fleet totals diverge from the sequential reference:\n%s"
      (String.concat "\n" (Fleet.Aggregate.diff_totals reference merged));
  check Alcotest.int "no decode errors" 0 r.Fleet.Supervisor.decode_errors;
  checkb "snapshots exported" true
    (Sys.file_exists (Filename.concat dir "fleet.json")
    && Sys.file_exists (Filename.concat dir "metrics.prom"));
  rm_rf dir

let test_fleet_kill_recovery () =
  let dialect = Dialect.Sqlite_like in
  let bugs = Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect) in
  let seed_lo = 1 and seed_hi = 65 in
  let reference = run_reference ~bugs ~dialect ~seed_lo ~seed_hi in
  let dir = fleet_dir "chaos" in
  rm_rf dir;
  (* long leases, early kill, tight poll: the SIGKILL must land while
     the victim still has an unfinished tail to requeue *)
  let fc =
    {
      (Fleet.Supervisor.default ~dir) with
      Fleet.Supervisor.workers = 2;
      chunk = 32;
      heartbeat_every = 2;
      poll = 0.005;
      chaos_kill_after = Some 4;
    }
  in
  let r =
    Fleet.Supervisor.run fc
      (Pqs.Runner.Config.make ~bugs dialect)
      ~seed_lo ~seed_hi
  in
  check Alcotest.int "exactly one chaos kill" 1 r.Fleet.Supervisor.chaos_kills;
  checkb "the unfinished tail was requeued" true
    (r.Fleet.Supervisor.requeued_seeds > 0);
  let merged = Fleet.Aggregate.totals r.Fleet.Supervisor.agg in
  if not (Fleet.Aggregate.equal_totals reference merged) then
    Alcotest.failf "post-kill totals diverge (lost or double-merged seeds):\n%s"
      (String.concat "\n" (Fleet.Aggregate.diff_totals reference merged));
  rm_rf dir

let () =
  Alcotest.run "fleet"
    [
      ( "heartbeat",
        [
          Alcotest.test_case "golden record" `Quick test_golden;
          Alcotest.test_case "torn prefixes rejected" `Quick
            test_partial_writes;
          Alcotest.test_case "versioning" `Quick test_versioning;
          QCheck_alcotest.to_alcotest test_roundtrip;
          QCheck_alcotest.to_alcotest test_json_quote;
        ] );
      ( "tail",
        [
          Alcotest.test_case "partial lines" `Quick test_tail_partial;
          Alcotest.test_case "truncation" `Quick test_tail_truncation;
          Alcotest.test_case "rotation" `Quick test_tail_rotation;
        ] );
      ( "range queue",
        [ Alcotest.test_case "lease and requeue" `Quick test_range_queue ] );
      ( "merge",
        [
          QCheck_alcotest.to_alcotest test_split_merge;
          Alcotest.test_case "finding dedup" `Quick test_finding_dedup;
          Alcotest.test_case "record_sample law" `Quick
            test_record_sample_law;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "exact merge" `Quick test_fleet_end_to_end;
          Alcotest.test_case "kill recovery" `Quick test_fleet_kill_recovery;
        ] );
    ]
