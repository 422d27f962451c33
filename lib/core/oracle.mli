(** Pluggable test oracles.

    The paper hard-wires three oracles into the main loop: containment
    (steps 6–7), expected errors, and crashes.  Follow-on systems host many
    more behind the same generate/check skeleton, so the runner exposes
    them as first-class values of signature {!S}: the runner emits
    {!event}s — one per executed statement, one per synthesized containment
    check, one when a database finishes generating — and each oracle in
    [Runner.Config.oracles] maps the event to a {!verdict}.  The first
    [Report] verdict of the round wins and becomes a {!Bug_report.t}.

    Oracles must be deterministic functions of the [context] and [event]
    (draw randomness only from [ctx_rng]) so that campaign runs merge
    deterministically across workers. *)

open Sqlval

(** Everything an oracle may inspect.  [ctx_rng] is a private random
    stream, seeded from the database seed independently of the generator's
    stream, so observing it never perturbs query synthesis. *)
type context = {
  ctx_dialect : Dialect.t;
  ctx_session : Engine.Session.t;
  ctx_db_seed : int;
  ctx_rng : Rng.t;
  ctx_telemetry : Telemetry.t;
      (** the runner's registry ({!Telemetry.noop} unless enabled); oracles
          may time themselves into it but must not branch on it *)
}

(** How one statement execution ended. *)
type outcome =
  | Succeeded of Engine.Session.exec_result
  | Failed of Engine.Errors.t
  | Crashed of string  (** the simulated SEGFAULT *)

(** One synthesized containment check (paper steps 3–7). *)
type check = {
  check_stmt : Sqlast.Ast.stmt;
  negative : bool;
      (** rectified-to-FALSE variant: the pivot row must be absent *)
  pivot_found : bool;  (** did the result set contain the pivot row? *)
  check_pivot : (Schema_info.table_info * Value.t array) list;
      (** the pivot row(s) the check was synthesized from, one per FROM
          source (paper step 2); value-level oracles (const-opt) fold
          these into the query as constants *)
}

type event =
  | Statement of Sqlast.Ast.stmt * outcome
      (** any statement the runner executed, including the containment
          query itself when it errors or crashes *)
  | Containment_check of check
      (** a containment query that returned a result set *)
  | Database_ready
      (** database generation finished; whole-database oracles (e.g.
          metamorphic partition checks) run here against [ctx_session] *)

type verdict =
  | Pass
  | Report of { kind : Bug_report.oracle; message : string }

(** The ORACLE signature. *)
module type S = sig
  val name : string
  val observe : context -> event -> verdict
end

type t = (module S)

val name : t -> string
val observe : t -> context -> event -> verdict

(** Build an oracle from a function (stub oracles, tests, one-offs). *)
val make : name:string -> (context -> event -> verdict) -> t

(** The paper's error oracle: any statement error not in the
    {!Expected_errors} whitelist. *)
val error_oracle : t

(** The paper's crash oracle: simulated SEGFAULTs. *)
val crash_oracle : t

(** The pivoted-query containment oracle, both polarities: a positive
    check whose result set misses the pivot row, or a negative
    (rectified-to-FALSE) check that contains it. *)
val containment : t

(** Metamorphic aggregate-partition oracle (paper Section 7 future work):
    on [Database_ready], checks up to four random partition relations via
    {!Metamorphic.check}.  Reports under {!Bug_report.Metamorphic}. *)
val metamorphic : unit -> t

(** [error_oracle; crash_oracle; containment] — the paper's oracle set and
    the runner default. *)
val defaults : t list

(** Fold the oracles over an event; the first [Report] wins. *)
val first_report :
  t list -> context -> event -> (Bug_report.oracle * string) option

(** The oracle registry: one table mapping an oracle's stable name to its
    constructor, documentation, CLI flag, report kinds and
    reduction-recheck strategy.  The CLI's oracle flags, the reducer's
    manifestation checks and the replay harness's recheckability arms all
    derive from it, so adding an oracle means registering one entry
    instead of editing three dispatchers.

    The paper's trio and the metamorphic oracle register here; [Plan_diff]
    and [Const_opt] self-register at the bottom of their modules (the [pqs]
    library is linked with [-linkall] so registration is unconditional). *)
module Registry : sig
  (** How a report of this oracle is re-checked when the reducer shrinks
      its statement list (see [Reducer.manifestation_check]). *)
  type recheck =
    | Not_recheckable
        (** the verdict is not re-derivable from the statement list alone
            (metamorphic); reduction is a no-op and replay trusts
            the bundle *)
    | Replay_outcome
        (** re-run the script and decide from the replay outcome (crash /
            unexpected error / final SELECT row count vs ground truth) *)
    | Custom of
        (dialect:Sqlval.Dialect.t ->
        bugs:Engine.Bug.set ->
        oracle:Bug_report.oracle ->
        Sqlast.Ast.stmt list ->
        bool)  (** oracle-specific recheck (plan-diff re-runs all plans) *)

  type entry = {
    reg_name : string;  (** stable identifier, e.g. ["plan_diff"] *)
    reg_doc : string;  (** one-line description (also the CLI flag doc) *)
    reg_flag : string option;
        (** CLI flag that adds the oracle to a run ([--metamorphic],
            [--plan-diff], [--const-opt]); [None] for always-on defaults *)
    reg_default : bool;  (** member of {!defaults} *)
    reg_kinds : Bug_report.oracle list;
        (** report kinds this oracle emits (containment covers both
            polarities) *)
    reg_make : unit -> t;  (** fresh instance with default parameters *)
    reg_recheck : recheck;
  }

  val register : entry -> unit
  (** Insert (or, by name, replace) an entry.  Registration order is
      display order. *)

  val all : unit -> entry list
  val find : string -> entry option

  (** The entry whose [reg_kinds] contains the report kind. *)
  val find_kind : Bug_report.oracle -> entry option

  val replay :
    dialect:Sqlval.Dialect.t ->
    bugs:Engine.Bug.set ->
    Sqlast.Ast.stmt list ->
    Engine.Session.t
  (** The prologue of a [Custom] recheck: run the script on a fresh
      session, ignoring statement errors and stopping at the first crash,
      and return the session for the oracle to re-derive its verdict on. *)
end
