(** Test-case reduction.

    SQLancer "automatically deletes SQL statements that are unnecessary to
    reproduce a bug" (paper Section 4.1); reduced test cases averaged 3.71
    statements (Figure 2).  This reducer greedily drops statements, trims
    multi-row INSERTs and strips decorations from the final query, checking
    after each candidate step that the bug still manifests.

    Manifestation is checked by replaying the script on a fresh session
    with the same injected-bug set; for containment-class findings the
    script is additionally replayed on a *correct* engine (empty bug set)
    to confirm the pivot row is genuinely expected — the role the paper's
    manual verification played.  That correct replay runs first: both
    replays are deterministic, so the order changes no verdict, but a
    candidate that drops a statement the pivot row needs fails on the
    correct engine far more often than one that loses the bug fails on the
    buggy engine, so most failing candidates cost one replay, not two. *)

type check = Sqlast.Ast.stmt list -> bool
(** Does the bug still manifest for this script? *)

(** Ground truth for a verdict: replay [stmts] on a correct engine (empty
    bug set) and check that its final SELECT fetches a row (containment)
    or fetches none (non-containment).  Always [true] for the other
    kinds, which observe their divergence directly. *)
val correct_engine_agrees :
  dialect:Sqlval.Dialect.t -> oracle:Bug_report.oracle -> check

(** Build the manifestation check for a report. *)
val manifestation_check :
  dialect:Sqlval.Dialect.t ->
  bugs:Engine.Bug.set ->
  oracle:Bug_report.oracle ->
  check

(** Greedy reduction to a locally-minimal statement list.  The final
    statement (the detecting query, for containment findings) is kept. *)
val reduce : check -> Sqlast.Ast.stmt list -> Sqlast.Ast.stmt list

(** Reduce and attach the result to the report. *)
val reduce_report : Bug_report.t -> bugs:Engine.Bug.set -> Bug_report.t
