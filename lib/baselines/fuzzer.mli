(** SQLsmith-style random query fuzzer (paper Sections 1, 4.1, 6).

    Generates the same random databases and queries as PQS but has no
    containment oracle: it can only observe crashes and (optionally)
    corruption-class errors.  The paper's argument is that such fuzzers
    "cannot detect logic bugs" — the baseline experiment quantifies this
    against the injected-bug catalog. *)

type config = {
  dialect : Sqlval.Dialect.t;
  bugs : Engine.Bug.set;
  seed : int;
  (* which signals the fuzzer reacts to *)
  detect_errors : bool;
      (** flag corruption/internal-class errors (an AFL-style sanitizer
          would see these); ordinary errors are noise to a fuzzer *)
}

val default_config :
  ?seed:int -> ?bugs:Engine.Bug.set -> Sqlval.Dialect.t -> config

(** First finding within the budget, if any. *)
val hunt : config -> max_queries:int -> Pqs.Bug_report.t option
