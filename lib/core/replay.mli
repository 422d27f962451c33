(** Replay harness: re-run a repro bundle and confirm its verdict.

    [repro.sql] scripts written by the flight recorder ({!Trace.Bundle})
    are self-describing — a [-- key: value] header names the dialect, the
    seed, the oracle token and the enabled injected bugs, and the rest is
    plain SQL.  {!check_file} parses the header, re-runs the script under
    the same bug set and re-checks the oracle verdict with
    {!Reducer.manifestation_check}. *)

type outcome = {
  path : string;
  oracle : Bug_report.oracle;
  recheckable : bool;
      (** [false] for metamorphic bundles, whose verdicts cannot be
          re-derived from the statement list alone (they count as
          reproduced) *)
  reproduced : bool;
  detail : string;
}

(** Replay one [repro.sql].  [Error] means the bundle itself is broken
    (unreadable, bad header, unparsable SQL) — distinct from a readable
    bundle whose verdict does not reproduce ([Ok] with
    [reproduced = false]). *)
val check_file : string -> (outcome, string) result
