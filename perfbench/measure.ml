(* The untraced, end-to-end measurement of one workload, and the output
   checks that run beside it. *)

module Campaign = Pqs.Campaign
module Stats = Pqs.Stats
module Bug_report = Pqs.Bug_report
module Reducer = Pqs.Reducer
module Oracle = Pqs.Oracle
module Runner = Pqs.Runner

let now = Telemetry.Clock.now

(* ---------- one batch ---------- *)

(* Whether a finding's reduced script still shows its bug.  The reducer
   keeps a script unchanged when the original does not show the bug on
   replay, so only [Lost] is the reducer's fault. *)
type replay = Manifests | Lost | Not_replayable

type finding = {
  report : Bug_report.t;  (** with its reduced script *)
  fingerprint : string;
  replay : replay;
}

type batch = {
  campaign : Campaign.t;
  raised : (int * string) list;  (** seeds whose round raised *)
  findings : finding list;  (** bug-hunt's reduced reports *)
  reduce_s : float;  (** time in [Reducer.reduce_report] *)
}

(* [Campaign.run] lets a raising round escape; re-run the batch seed by seed
   so the other rounds still count and the raising ones are named *)
let campaign ~domains ~seed_lo ~seed_hi config =
  match Campaign.run ~domains ~seed_lo ~seed_hi config with
  | c -> (c, [])
  | exception _ ->
      let one s =
        match Campaign.run ~domains:1 ~seed_lo:s ~seed_hi:(s + 1) config with
        | c -> Ok c
        | exception e -> Error (s, Printexc.to_string e)
      in
      let runs = List.init (seed_hi - seed_lo) (fun i -> one (seed_lo + i)) in
      let ok = List.filter_map Result.to_option runs in
      let raised =
        List.filter_map (function Error x -> Some x | Ok _ -> None) runs
      in
      let outcomes = List.concat_map (fun c -> c.Campaign.outcomes) ok in
      ( {
          Campaign.stats =
            Stats.merge_all (List.map (fun o -> o.Campaign.round) outcomes);
          outcomes;
          domains = 1;
          elapsed =
            List.fold_left (fun a c -> a +. c.Campaign.elapsed) 0. ok;
          dialect = config.Runner.Config.dialect;
        },
        raised )

(* Reduce every report, then re-check each reduced script; only the
   reduction is timed. *)
let reduce_all ~bugs reports =
  let t0 = now () in
  let reduced = List.map (fun r -> Reducer.reduce_report r ~bugs) reports in
  let reduce_s = now () -. t0 in
  let findings =
    List.map
      (fun (r : Bug_report.t) ->
        let stmts = Option.value r.Bug_report.reduced ~default:r.statements in
        let check =
          Reducer.manifestation_check ~dialect:r.Bug_report.dialect ~bugs
            ~oracle:r.Bug_report.oracle
        in
        let replay =
          if check stmts then Manifests
          else if check r.Bug_report.statements then Lost
          else Not_replayable
        in
        { report = r; fingerprint = Bug_report.fingerprint r; replay })
      reduced
  in
  (findings, reduce_s)

(* Batch [k] of workload [w]: seeds [seed_lo, seed_lo + w.batch).
   [instrument] rewrites the config (the traced run attaches telemetry
   and timing oracles); [reduce] reduces bug-hunt findings. *)
let run_batch ?(instrument = Fun.id) ?domains ?(reduce = true) (w : Workload.t)
    k ~seed_lo =
  let domains = Option.value domains ~default:w.Workload.domains in
  let config = instrument (Workload.config_for w k) in
  let bugs = config.Runner.Config.bugs in
  let campaign, raised =
    campaign ~domains ~seed_lo ~seed_hi:(seed_lo + w.batch) config
  in
  let findings, reduce_s =
    if w.bugs && reduce then reduce_all ~bugs (Campaign.reports campaign)
    else ([], 0.)
  in
  { campaign; raised; findings; reduce_s }

(* ---------- output checks ---------- *)

(* A failed operation is an output the benchmark can show wrong: a report
   on the engine without injected bugs that its own script does not
   reproduce, a reduced script that lost a bug its original showed, or a
   raising round.  A flagged verdict is not shown wrong, but is still
   counted: the runner's ground-truth check rejected an oracle verdict and
   reported nothing; a bug-hunt report does not replay, so the reducer kept
   it whole; or a report on the engine without injected bugs reproduces.
   Such a report is a real divergence between two executions of the
   engine, and whether the engine or the oracle's rewrite is at fault needs
   a person: plan_diff finds index-like scans that miss rows a full scan
   returns, const_opt's NULL-BETWEEN folding is suspect.  Both kinds count
   toward [failed_share]; only failures count in the result line's
   [failed]. *)
type failure = { batch : int; seed : int; what : string }

(* What the run keeps of a batch: counters, times and checks, not the
   rounds' reports and scripts, so memory stays flat however long it runs.
   Times are in reference seconds ({!Calib}). *)
type summary = {
  stats : Stats.t;  (** without reports; they are counted in [reports] *)
  reports : int;
  walls : float list;  (** per round *)
  elapsed : float;
  reduce_s : float;
  fingerprints : string list;  (** of the reduced findings, else the reports *)
  failures : failure list;
  flagged : failure list;
  findings : int;
}

let unconfirmed = "unconfirmed"

(* the batch's (failures, flagged verdicts) *)
let failures (w : Workload.t) k b =
  let at seed what = { batch = k; seed; what } in
  let unconfirmed =
    List.concat_map
      (fun (o : Campaign.outcome) ->
        List.init o.round.Stats.false_positives (fun _ -> at o.seed unconfirmed))
      b.campaign.Campaign.outcomes
  in
  let finding f why =
    at f.report.Bug_report.seed
      (Bug_report.oracle_token f.report.Bug_report.oracle ^ " (" ^ why ^ ")")
  in
  let with_replay r why =
    List.filter_map
      (fun f -> if f.replay = r then Some (finding f why) else None)
      b.findings
  in
  let lost = with_replay Lost "reduced script lost the bug" in
  let not_replayable = with_replay Not_replayable "report does not replay" in
  let unreproduced, reproduced =
    if w.bugs then ([], [])
    else
      List.partition_map
        (fun (r : Bug_report.t) ->
          let reproduces =
            Reducer.manifestation_check ~dialect:r.Bug_report.dialect
              ~bugs:Engine.Bug.empty_set ~oracle:r.Bug_report.oracle
              r.Bug_report.statements
          in
          let f =
            at r.Bug_report.seed
              (Bug_report.oracle_token r.Bug_report.oracle
              ^ " (no injected bug, "
              ^ (if reproduces then "reproduces" else "does not reproduce")
              ^ ")")
          in
          if reproduces then Either.Right f else Either.Left f)
        (Campaign.reports b.campaign)
  in
  let raised = List.map (fun (seed, e) -> at seed ("raised " ^ e)) b.raised in
  ( lost @ unreproduced @ raised,
    unconfirmed @ not_replayable @ reproduced )

let summarize ?(speed = 1.) (w : Workload.t) k b =
  let c = b.campaign in
  let failures, flagged = failures w k b in
  {
    stats = { c.Campaign.stats with Stats.reports = [] };
    reports = List.length (Campaign.reports c);
    walls = List.map (fun (o : Campaign.outcome) -> o.wall *. speed) c.outcomes;
    elapsed = c.elapsed *. speed;
    reduce_s = b.reduce_s *. speed;
    fingerprints =
      (if b.findings <> [] then List.map (fun f -> f.fingerprint) b.findings
       else List.map Bug_report.fingerprint (Campaign.reports c));
    failures;
    flagged;
    findings = List.length b.findings;
  }

(* One digest over the merged counters and the fingerprint set: two runs of
   the same code over the same seeds print the same digest. *)
let digest summaries =
  let s = Stats.merge_all (List.map (fun x -> x.stats) summaries) in
  let counters =
    Stats.
      [
        s.databases; s.pivots; s.queries; s.statements; s.interp_failures;
        s.false_positives; s.negative_checks; s.lint_checks;
        s.lint_diagnostics; s.plan_checks; s.plan_divergences; s.const_checks;
        s.const_divergences;
      ]
    @ List.map snd s.Stats.truth_values
    @ List.map (fun x -> x.reports) summaries
  in
  let fps =
    List.sort_uniq compare (List.concat_map (fun x -> x.fingerprints) summaries)
  in
  Digest.to_hex
    (Digest.string
       (String.concat " " (List.map string_of_int counters)
       ^ "|" ^ String.concat "," fps))

(* Which oracle and report kind raised an unconfirmed verdict at [seed]:
   the round is re-run with oracles that note every [Report] verdict. *)
let unconfirmed_kinds (w : Workload.t) k seed =
  let config = Workload.config_for w k in
  let fired = ref [] in
  let note o =
    Oracle.make ~name:(Oracle.name o) (fun ctx ev ->
        let v = Oracle.observe o ctx ev in
        (match v with
        | Oracle.Report { kind; _ } ->
            fired :=
              (Oracle.name o ^ "/" ^ Bug_report.oracle_token kind) :: !fired
        | Oracle.Pass -> ());
        v)
  in
  let config =
    Runner.Config.with_oracles (List.map note config.Runner.Config.oracles) config
  in
  ignore (Runner.run_round config ~db_seed:seed);
  String.concat "+" (List.sort_uniq compare !fired)

(* ---------- process facts ---------- *)

(* peak resident set (VmHWM) in MB; falls back to the OCaml heap's peak *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> None
            | Some l -> (
                match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
                | Some kb -> Some (float_of_int kb /. 1024.)
                | None -> go ())
          in
          go ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

(* lines of OCaml under [dir], the size figure kept beside the performance
   numbers; None without it *)
let source_lines dir =
  let rec walk path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc e -> acc + walk (Filename.concat path e))
        0 (Sys.readdir path)
    else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
    then
      In_channel.with_open_bin path In_channel.input_all
      |> String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0
    else 0
  in
  if Sys.file_exists dir && Sys.is_directory dir then Some (walk dir) else None

(* ---------- the end-to-end run ---------- *)

type metric = { name : string; unit : string; value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let setups = 5

(* One set-up: build the configs and run the warm-up batches, which fill
   caches and grow the heap before anything is timed.  The warm-up seeds are
   the same in every run, so set-up time does not depend on [--seed].
   Returns the set-up's time in reference seconds. *)
let setup (w : Workload.t) =
  let base = Workload.base_seed 0 in
  let before = Calib.speed ~domains:w.domains () in
  let t0 = now () in
  let batches =
    List.init w.warmup_batches (fun k ->
        summarize w k (run_batch w k ~seed_lo:(base + (k * w.batch))))
  in
  let took = now () -. t0 in
  (took *. (before +. Calib.speed ~domains:w.domains ()) /. 2., batches)

(* Run [step] on the batches after the warm-up until [seconds] have passed,
   and at least once per dialect; returns the results in batch order. *)
let timed_batches (w : Workload.t) ~base ~seconds step =
  let k0 = w.warmup_batches and cycle = Array.length w.dialects in
  let t0 = now () in
  let rec go k acc =
    if k >= k0 + cycle && now () -. t0 >= seconds then List.rev acc
    else go (k + 1) (step k ~seed_lo:(base + (k * w.batch)) :: acc)
  in
  go k0 []

let shown = 5

(* Consecutive batches grouped into windows of at least [window_s]
   reference seconds.  A throughput is the median of its windows' rates,
   so a few slow seconds on a shared machine do not move it. *)
let window_s = 1.

let windows ss =
  let time x = x.elapsed +. x.reduce_s in
  let rec go acc cur t = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        let t = t +. time x in
        if t >= window_s then go (List.rev (x :: cur) :: acc) [] 0. rest
        else go acc (x :: cur) t rest
  in
  go [] [] 0. ss

let median_rate ss count =
  Stat.median
    (List.map
       (fun win ->
         let sum f = List.fold_left (fun a x -> a +. f x) 0. win in
         Stat.ratio (sum count) (sum (fun x -> x.elapsed +. x.reduce_s)))
       (windows ss))

(* runs of equal adjacent elements, with their lengths *)
let rec runs_of = function
  | [] -> []
  | x :: rest -> (
      match runs_of rest with
      | (y, n) :: tl when y = x -> (x, n + 1) :: tl
      | l -> (x, 1) :: l)

let run (w : Workload.t) ~seed ~seconds =
  let base = Workload.base_seed seed in
  let setups = List.init setups (fun _ -> setup w) in
  let warm_digest = digest (snd (List.hd setups)) in
  let setup_digests_agree =
    List.for_all (fun (_, ss) -> digest ss = warm_digest) setups
  in
  (* sharding must not change the result: the first timed batch again,
     inline, against its sharded run below *)
  let j1 =
    if w.domains = 1 then None
    else
      let k = w.warmup_batches in
      Some (summarize w k (run_batch ~domains:1 w k ~seed_lo:(base + (k * w.batch))))
  in
  let ss =
    timed_batches w ~base ~seconds (fun k ~seed_lo ->
        let b = run_batch w k ~seed_lo in
        summarize ~speed:(Calib.speed ~domains:w.domains ()) w k b)
  in
  let j1_agrees =
    match j1 with None -> true | Some j -> digest [ j ] = digest [ List.hd ss ]
  in
  let stats = Stats.merge_all (List.map (fun x -> x.stats) ss) in
  let walls = Stat.sorted (List.concat_map (fun x -> x.walls) ss) in
  let rounds = Array.length walls in
  let sum f = List.fold_left (fun a x -> a +. f x) 0. ss in
  let campaign_s = sum (fun x -> x.elapsed) in
  let reduce_s = sum (fun x -> x.reduce_s) in
  let wall = campaign_s +. reduce_s in
  let fails = List.concat_map (fun x -> x.failures) ss in
  let flagged = List.concat_map (fun x -> x.flagged) ss in
  let failed = List.length fails in
  (* every dialect of bug-hunt must keep finding bugs *)
  let detects =
    (not w.bugs)
    || Array.for_all
         (fun d ->
           List.exists
             (fun (k, x) -> Workload.dialect_of w k = d && x.findings > 0)
             (List.mapi (fun i x -> (w.warmup_batches + i, x)) ss))
         w.dialects
  in
  let checks =
    [
      ("set-up digests agree", setup_digests_agree);
      ("domains:1 digest equals the sharded one", j1_agrees);
      ("every dialect reports findings", detects);
      ("containment checks ran", stats.Stats.queries > 0);
    ]
  in
  let first label l =
    List.filteri (fun i _ -> i < shown) (runs_of l)
    |> List.map (fun (f, n) ->
           let what =
             if f.what = unconfirmed then
               unconfirmed ^ " " ^ unconfirmed_kinds w f.batch f.seed
             else f.what
           in
           Printf.sprintf "%s: seed %d %s (x%d)" label f.seed what n)
  in
  let fps = List.sort_uniq compare (List.concat_map (fun x -> x.fingerprints) ss) in
  let m name unit value = { name; unit; value } in
  let per_s count = median_rate ss (fun x -> float_of_int (count x)) in
  let metrics =
    [
      m "rounds_per_s" "rounds/s" (per_s (fun x -> List.length x.walls));
      m "stmts_per_s" "stmts/s" (per_s (fun x -> x.stats.Stats.statements));
      m "checks_per_s" "checks/s" (per_s (fun x -> x.stats.Stats.queries));
      m "round_p50_ms" "ms" (Stat.percentile walls 50. *. 1000.);
      m "round_p99_ms" "ms" (Stat.percentile walls 99. *. 1000.);
      m "setup_s" "s" (Stat.median (List.map fst setups));
      m "peak_rss_mb" "MB" (peak_rss_mb ());
    ]
  in
  let tail =
    match Stat.tail walls with
    | Some (p, v) -> Printf.sprintf "p%g = %.3f ms" p (v *. 1000.)
    | None -> "none"
  in
  let notes =
    [
      Printf.sprintf
        "workload %s: %d rounds in %d batches and %d windows, %.3f \
         reference s (campaign %.3f, reduction %.3f); set-up: median of %d"
        w.name rounds (List.length ss) (List.length (windows ss)) wall
        campaign_s reduce_s (List.length setups);
      Printf.sprintf
        "round walls: n=%d, highest percentile with >=10 samples beyond: %s"
        rounds tail;
      Printf.sprintf
        "failed_share = %.6g ratio (%d failed and %d flagged of %d checks)"
        (Stat.ratio_i (failed + List.length flagged) stats.Stats.queries)
        failed (List.length flagged) stats.Stats.queries;
      Printf.sprintf "findings_per_s = %.6g findings/s (%d distinct)"
        (Stat.ratio (float_of_int (List.length fps)) wall)
        (List.length fps);
      Printf.sprintf "warm-up digest %s; run digest %s (seeds %d..%d)"
        warm_digest (digest ss)
        (base + (w.warmup_batches * w.batch))
        (base + ((w.warmup_batches + List.length ss) * w.batch) - 1);
      (match source_lines "lib" with
      | Some n -> Printf.sprintf "lib/ lines: %d" n
      | None -> "lib/ lines: not found");
    ]
    @ List.map
        (fun (name, ok) ->
          Printf.sprintf "check %s: %s" name (if ok then "ok" else "FAILED"))
        checks
    @ first "failed" fails
    @ first "flagged" flagged
  in
  {
    correct = List.for_all snd checks;
    attempted = stats.Stats.queries;
    failed;
    metrics;
    notes;
  }
