open Sqlval

type t = {
  databases : int;
  pivots : int;
  queries : int;
  statements : int;
  interp_failures : int;
  false_positives : int;
  reports : Bug_report.t list;
  truth_values : (Tvl.t * int) list;
  negative_checks : int;
  lint_checks : int;
  lint_diagnostics : int;
  plan_checks : int;
  plan_divergences : int;
  const_checks : int;
  const_divergences : int;
  frontier : Frontier.t;
}

(* truth_values is kept on the canonical key set so that [merge] is
   associative and [empty] an exact identity on every reachable value *)
let canonical_truths = [ Tvl.True; Tvl.False; Tvl.Unknown ]

let truth_count tv t =
  match List.assoc_opt t tv with Some n -> n | None -> 0

let canonical_truth_values tv =
  List.map (fun t -> (t, truth_count tv t)) canonical_truths

let empty =
  {
    databases = 0;
    pivots = 0;
    queries = 0;
    statements = 0;
    interp_failures = 0;
    false_positives = 0;
    reports = [];
    truth_values = canonical_truth_values [];
    negative_checks = 0;
    lint_checks = 0;
    lint_diagnostics = 0;
    plan_checks = 0;
    plan_divergences = 0;
    const_checks = 0;
    const_divergences = 0;
    frontier = Frontier.empty;
  }

let set_truth tv n t =
  {
    t with
    truth_values =
      List.map
        (fun (t', m) -> if Tvl.equal tv t' then (t', n) else (t', m))
        t.truth_values;
  }

(* the one definition of the additive counters: name, read, write.  The
   heartbeat codec, [merge] and [Aggregate.diff_totals] all walk it, so
   none of them can drift from the record shape *)
let fields =
  [
    ("databases", (fun t -> t.databases), fun n t -> { t with databases = n });
    ("pivots", (fun t -> t.pivots), fun n t -> { t with pivots = n });
    ("queries", (fun t -> t.queries), fun n t -> { t with queries = n });
    ("statements", (fun t -> t.statements), fun n t -> { t with statements = n });
    ( "interp_failures",
      (fun t -> t.interp_failures),
      fun n t -> { t with interp_failures = n } );
    ( "false_positives",
      (fun t -> t.false_positives),
      fun n t -> { t with false_positives = n } );
    ( "negative_checks",
      (fun t -> t.negative_checks),
      fun n t -> { t with negative_checks = n } );
    ("lint_checks", (fun t -> t.lint_checks), fun n t -> { t with lint_checks = n });
    ( "lint_diagnostics",
      (fun t -> t.lint_diagnostics),
      fun n t -> { t with lint_diagnostics = n } );
    ("plan_checks", (fun t -> t.plan_checks), fun n t -> { t with plan_checks = n });
    ( "plan_divergences",
      (fun t -> t.plan_divergences),
      fun n t -> { t with plan_divergences = n } );
    ( "const_checks",
      (fun t -> t.const_checks),
      fun n t -> { t with const_checks = n } );
    ( "const_divergences",
      (fun t -> t.const_divergences),
      fun n t -> { t with const_divergences = n } );
    ("truth_true", (fun t -> truth_count t.truth_values Tvl.True), set_truth Tvl.True);
    ( "truth_false",
      (fun t -> truth_count t.truth_values Tvl.False),
      set_truth Tvl.False );
    ( "truth_unknown",
      (fun t -> truth_count t.truth_values Tvl.Unknown),
      set_truth Tvl.Unknown );
  ]

let counters t = List.map (fun (name, get, _) -> (name, get t)) fields

let with_counters t value =
  List.fold_left (fun t (name, _, set) -> set (value name) t) t fields

let merge a b =
  let sum =
    List.fold_left
      (fun t (_, get, set) -> set (get a + get b) t)
      empty fields
  in
  {
    sum with
    reports = a.reports @ b.reports;
    frontier = Frontier.union a.frontier b.frontier;
  }

let merge_all = List.fold_left merge empty

let summary t =
  Printf.sprintf
    "databases=%d pivots=%d containment-checks=%d statements=%d \
     interp-failures=%d false-positives=%d negative-checks=%d \
     lint-checks=%d lint-diagnostics=%d plan-checks=%d plan-divergences=%d \
     const-checks=%d const-divergences=%d frontier-points=%d findings=%d"
    t.databases t.pivots t.queries t.statements t.interp_failures
    t.false_positives t.negative_checks t.lint_checks t.lint_diagnostics
    t.plan_checks t.plan_divergences t.const_checks t.const_divergences
    (Frontier.cardinal t.frontier)
    (List.length t.reports)

let pp fmt t = Format.pp_print_string fmt (summary t)
