(** Immutable run statistics.

    The old [Runner.stats] was a mutable record that could not be shared or
    merged across workers.  [Stats.t] is a pure value: every runner round
    produces one, and campaigns combine them with {!merge}, which is
    associative with {!empty} as identity — so an N-domain campaign folded
    in seed order reports exactly the same totals (and the same report
    list) as a sequential run over the same seeds. *)

open Sqlval

type t = {
  databases : int;
  pivots : int;
  queries : int;  (** containment checks issued *)
  statements : int;
  interp_failures : int;
      (** expressions the oracle could not evaluate (regenerated) *)
  false_positives : int;
      (** containment misses not confirmed by the correct engine *)
  reports : Bug_report.t list;  (** in chronological order *)
  truth_values : (Tvl.t * int) list;
      (** distribution of raw condition truth values before rectification,
          always in canonical [TRUE; FALSE; UNKNOWN] key order *)
  negative_checks : int;
      (** how many checks were of the non-containment variant *)
  lint_checks : int;
      (** always 0: the static lint oracle is gone, but the heartbeat and
          summary formats keep the field until counters are keyed by
          oracle (ROADMAP item 5) *)
  lint_diagnostics : int;  (** always 0, like [lint_checks] *)
  plan_checks : int;
      (** containment checks that returned rows while the plan-diff oracle
          was configured: the checks that reached it *)
  plan_divergences : int;
      (** plan-diff oracle reports recorded (cross-plan result
          disagreements) *)
  const_checks : int;
      (** containment checks that returned rows while the const-opt oracle
          was configured: the checks that reached it.  The oracle samples
          them and re-executes only some (positive checks that found the
          pivot and that it could simplify); its own
          [pqs_const_checks_total] counter counts those re-executions *)
  const_divergences : int;
      (** const-opt oracle reports recorded (original vs simplified
          result disagreements) *)
  frontier : Frontier.t;
      (** coverage frontier: clause-combination / expression-kind /
          planner-path points the run exercised ({!Gen_bias} owns the
          vocabulary); merged with [Frontier.union], whose canonical
          representation keeps structural equality intact for the
          determinism tests *)
}

val empty : t

(** [merge a b] adds every counter, appends [b]'s reports after [a]'s and
    sums the truth-value distributions.  Associative; [empty] is a left and
    right identity (truth values are kept in canonical key order, as
    [empty] and every round's stats hold them). *)
val merge : t -> t -> t

(** The additive counters — every field except [reports] and [frontier],
    with the truth-value distribution split into [truth_true],
    [truth_false] and [truth_unknown] — as a named list in declaration
    order.  This walk is the counters' one definition: {!merge}, the
    heartbeat codec and the fleet aggregate's diff all go through it. *)
val counters : t -> (string * int) list

(** [with_counters t value] sets every counter named by {!counters} to
    [value name], keeping [reports] and [frontier]. *)
val with_counters : t -> (string -> int) -> t

(** Fold {!merge} over the list, left to right, starting from {!empty}. *)
val merge_all : t list -> t

(** One-line [key=value] summary for CLIs and traces. *)
val summary : t -> string

val pp : Format.formatter -> t -> unit
