(* Fleet observability benchmark — the `make fleet` gate.

   Three checks over one fixed seed range:

   1. Scaling: runs the fleet at 1 worker and at N workers and records
      both rounds/sec.  The gate is per-core efficiency
      [(rate_N / rate_1) / min(N, cores)] >= 0.8 — on a multi-core host
      that demands near-linear speedup, on a single-core CI box it
      demands the N-process fleet stays within 20% of one process (the
      supervisor + heartbeat overhead bound).  The visible core count is
      recorded so the number is interpretable either way.

   2. Exact merge: the N-worker aggregate's {!Fleet.Aggregate.totals}
      (rounds, counters, frontier, minimized-repro fingerprint multiset)
      must equal the same projection of a sequential
      {!Pqs.Campaign.run} over the identical seed range.

   3. Kill recovery: a run with [chaos_kill_after] SIGKILLs one shard
      mid-lease; the supervisor must requeue the unfinished tail
      (requeued_seeds > 0) and the final totals must still be exact —
      no seed lost, none double-merged.

   Writes BENCH_fleet.json. *)

open Sqlval

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let temp_fleet_dir tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pqs-fleet-bench-%d-%s" (Unix.getpid ()) tag)

(* the reference applies the worker's own reduction, so fingerprints are
   computed from identical minimized repros on both sides *)
let reference_totals ~bugs (c : Pqs.Campaign.t) =
  Fleet.Aggregate.totals_of_stats
    ~fingerprint:(fun r ->
      Pqs.Bug_report.fingerprint (Pqs.Reducer.reduce_report r ~bugs))
    c.Pqs.Campaign.stats

let make_config ~bugs dialect =
  Pqs.Runner.Config.make ~bugs ~telemetry:(Telemetry.create ()) dialect

let run_fleet ~bugs ~dialect ~workers ~chunk ?chaos ~tag ~seed_lo ~seed_hi ()
    =
  let dir = temp_fleet_dir tag in
  rm_rf dir;
  let fc =
    {
      (Fleet.Supervisor.default ~dir) with
      Fleet.Supervisor.workers;
      chunk;
      heartbeat_every = 8;
      chaos_kill_after = chaos;
    }
  in
  let r =
    Fleet.Supervisor.run fc (make_config ~bugs dialect) ~seed_lo ~seed_hi
  in
  rm_rf dir;
  r

let rate (r : Fleet.Supervisor.result) =
  if r.Fleet.Supervisor.elapsed > 0.0 then
    float_of_int (Fleet.Aggregate.rounds r.Fleet.Supervisor.agg)
    /. r.Fleet.Supervisor.elapsed
  else 0.0

let json ~dialect ~databases ~workers ~cores ~rate1 ~raten ~scaling
    ~efficiency ~merge_ok ~chaos ~pass =
  let rk, chaos_merge_ok = chaos in
  String.concat "\n"
    [
      "{";
      "  \"benchmark\": \"fleet\",";
      Printf.sprintf "  \"dialect\": %S," (Dialect.name dialect);
      Printf.sprintf "  \"databases\": %d," databases;
      Printf.sprintf "  \"workers\": %d," workers;
      Printf.sprintf "  \"cores\": %d," cores;
      Printf.sprintf "  \"rounds_per_sec_1\": %.1f," rate1;
      Printf.sprintf "  \"rounds_per_sec_%d\": %.1f," workers raten;
      Printf.sprintf "  \"scaling\": %.3f," scaling;
      Printf.sprintf "  \"efficiency_per_core\": %.3f," efficiency;
      Printf.sprintf "  \"exact_merge\": %b," merge_ok;
      Printf.sprintf
        "  \"kill_recovery\": { \"chaos_kills\": %d, \"requeued_seeds\": \
         %d, \"rounds\": %d, \"exact_merge\": %b },"
        rk.Fleet.Supervisor.chaos_kills rk.Fleet.Supervisor.requeued_seeds
        (Fleet.Aggregate.rounds rk.Fleet.Supervisor.agg)
        chaos_merge_ok;
      Printf.sprintf "  \"pass\": %b" pass;
      "}";
    ]
  ^ "\n"

let workers = 4
let databases = 187
let out = "BENCH_fleet.json"

let run () =
  let dialect = Dialect.Sqlite_like in
  let bugs = Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect) in
  let seed_lo = 1 and seed_hi = 1 + databases in
  Printf.printf "\nFleet bench: %d databases, up to %d workers...\n%!"
    databases workers;
  (* sequential reference for the exact-merge projection *)
  let seq =
    Pqs.Campaign.run ~domains:1 ~seed_lo ~seed_hi
      (make_config ~bugs dialect)
  in
  let reference = reference_totals ~bugs seq in
  (* scaling: 1 worker vs N workers *)
  let r1 =
    run_fleet ~bugs ~dialect ~workers:1 ~chunk:32 ~tag:"w1" ~seed_lo ~seed_hi
      ()
  in
  let rn =
    run_fleet ~bugs ~dialect ~workers ~chunk:32 ~tag:"wn" ~seed_lo ~seed_hi ()
  in
  let merged = Fleet.Aggregate.totals rn.Fleet.Supervisor.agg in
  let merge_ok = Fleet.Aggregate.equal_totals reference merged in
  if not merge_ok then begin
    Printf.printf "exact-merge FAILED:\n";
    List.iter (Printf.printf "  %s\n")
      (Fleet.Aggregate.diff_totals reference merged)
  end;
  (* kill recovery: SIGKILL one shard a quarter of the way in; long
     leases so the killed shard has an unfinished tail to requeue *)
  let rk =
    run_fleet ~bugs ~dialect ~workers:2 ~chunk:(max 16 (databases / 2))
      ~chaos:(databases / 4) ~tag:"chaos" ~seed_lo ~seed_hi ()
  in
  let chaos_merge_ok =
    Fleet.Aggregate.equal_totals reference
      (Fleet.Aggregate.totals rk.Fleet.Supervisor.agg)
  in
  if not chaos_merge_ok then begin
    Printf.printf "kill-recovery exact-merge FAILED:\n";
    List.iter (Printf.printf "  %s\n")
      (Fleet.Aggregate.diff_totals reference
         (Fleet.Aggregate.totals rk.Fleet.Supervisor.agg))
  end;
  let cores = Domain.recommended_domain_count () in
  let rate1 = rate r1 and raten = rate rn in
  let scaling = if rate1 > 0.0 then raten /. rate1 else 0.0 in
  let efficiency = scaling /. float_of_int (min workers (max 1 cores)) in
  let recovered =
    rk.Fleet.Supervisor.chaos_kills = 1
    && rk.Fleet.Supervisor.requeued_seeds > 0
    && chaos_merge_ok
  in
  let pass = efficiency >= 0.8 && merge_ok && recovered in
  let oc = open_out out in
  output_string oc
    (json ~dialect ~databases ~workers ~cores ~rate1 ~raten ~scaling
       ~efficiency ~merge_ok
       ~chaos:(rk, chaos_merge_ok)
       ~pass);
  close_out oc;
  let row label (r : Fleet.Supervisor.result) extra =
    [
      label;
      string_of_int (Fleet.Aggregate.rounds r.Fleet.Supervisor.agg);
      string_of_int
        (Fleet.Aggregate.distinct_reports r.Fleet.Supervisor.agg);
      Printf.sprintf "%.2f" r.Fleet.Supervisor.elapsed;
      Printf.sprintf "%.0f" (rate r);
      extra;
    ]
  in
  Fmt_table.print
    ~title:
      (Printf.sprintf
         "Fleet scaling — %d databases on %d core(s); efficiency %.2f \
          (gate >= 0.80), exact merge %b, kill recovery %b (written to %s)"
         databases cores efficiency merge_ok recovered out)
    ~columns:
      [ "mode"; "rounds"; "distinct"; "seconds"; "rounds/s"; "notes" ]
    [
      row "1 worker" r1 "";
      row (Printf.sprintf "%d workers" workers) rn
        (if merge_ok then "merge exact" else "MERGE MISMATCH");
      row "2 workers + SIGKILL" rk
        (Printf.sprintf "requeued %d seed(s)%s"
           rk.Fleet.Supervisor.requeued_seeds
           (if chaos_merge_ok then ", merge exact" else ", MERGE MISMATCH"));
    ];
  if not pass then exit 1
