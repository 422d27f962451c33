(** Shared detection harness: hunt every catalog bug once and reuse the
    results across the Table 2/3 and Figure 2/3 reproductions. *)

type outcome = {
  bug : Engine.Bug.t;
  report : Pqs.Bug_report.t option;  (** None = not detected in budget *)
  queries_budget : int;
}

type t = outcome list

(** The detection budget: each hunt runs up to [budget] queries per seed,
    retrying [seeds] in order until a finding.  The paper driver
    ([bin/experiments.exe], both modes) and the detection-matrix test
    read these. *)
val budget : int

val seeds : int list

(** Hunt each bug at the detection budget.  [progress] prints one line
    per bug. *)
val run_all : ?progress:bool -> unit -> t

val detected : t -> outcome list
val missed : t -> outcome list

(** Detections grouped per dialect with the paper's status labels. *)
val by_dialect : t -> Sqlval.Dialect.t -> outcome list

(** Reduce every detection's report (expensive; cached in the outcome
    list returned). *)
val with_reductions : t -> t
