(* The A/B primitives the overhead benches share: the report-set key
   their "identical reports" checks compare, and interleaved best-wall
   sampling of two campaign configurations. *)

let report_key (r : Pqs.Bug_report.t) =
  (r.Pqs.Bug_report.seed, Pqs.Bug_report.oracle_label r.Pqs.Bug_report.oracle,
   Pqs.Bug_report.script r)

(* Interleaved minima: alternate the two configurations and keep each
   arm's best wall.  Interleaving means slow system drift (CPU frequency,
   page cache, a noisy neighbour) hits both arms equally instead of
   biasing whichever ran second, and run-to-run noise (scheduling, GC
   phase alignment) is almost entirely additive, so the minimum is the
   right estimator of each arm's true cost — a per-pair median was tried
   and measured noisier.

   Sampling is adaptive: each arm's minimum only converges downward
   toward its true floor as samples accumulate, so when the estimate
   sits near the budget boundary (where a single unlucky window on a
   shared-core machine could flip the verdict) we keep taking batches
   until the overhead settles below [settle] or [max_runs] is spent.
   Extra batches refine both arms symmetrically; they cannot bias the
   ratio, only de-noise it.  [batch = max_runs = n] is the fixed
   best-of-[n]. *)
let best_interleaved ~batch ~max_runs ~settle run_a run_b =
  let best cur (c, w) =
    match cur with
    | Some (_, w') when (w' : float) <= w -> cur
    | _ -> Some (c, w)
  in
  let rec go a b runs =
    let a = ref a and b = ref b in
    for _ = 1 to batch do
      a := best !a (run_a ());
      b := best !b (run_b ())
    done;
    let _, wa = Option.get !a and _, wb = Option.get !b in
    let runs = runs + batch in
    if runs >= max_runs || (wb -. wa) /. wa < settle then
      (Option.get !a, Option.get !b)
    else go !a !b runs
  in
  go None None 0
