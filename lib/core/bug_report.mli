(** Bug reports produced by the PQS oracles. *)

open Sqlval

type oracle =
  | Containment
  | Non_containment
      (** the rectified-to-FALSE variant: the pivot row was unexpectedly
          contained (paper Section 7 extension) *)
  | Error_oracle
  | Crash
  | Metamorphic
      (** an aggregate partition relation was violated (paper Section 7
          future work; see {!Metamorphic} and [Oracle.metamorphic]) *)
  | Plan_diff
      (** the same query returned different result multisets under two
          enumerated access plans (see [Plan_diff.oracle]) *)
  | Const_opt
      (** folding the pivot row's values into the query as constants and
          simplifying changed the containment verdict (CODDTest-style
          constant-optimization oracle; see [Const_opt.oracle]) *)

val pp_oracle : Format.formatter -> oracle -> unit
val show_oracle : oracle -> string
val equal_oracle : oracle -> oracle -> bool

(** The display label used by the evaluation tables (paper Table 3 column
    names: Contains / Error / SEGFAULT). *)
val oracle_label : oracle -> string

(** Stable machine-readable token ([containment], [error], [crash], ...)
    written into repro-bundle headers and parsed back by the replay
    harness. *)
val oracle_token : oracle -> string

val oracle_of_token : string -> oracle option

type t = {
  dialect : Dialect.t;
  oracle : oracle;
  message : string;  (** what the oracle observed *)
  statements : Sqlast.Ast.stmt list;
      (** full reproduction script, the offending statement last *)
  reduced : Sqlast.Ast.stmt list option;  (** after test-case reduction *)
  seed : int;
  phase : string;
      (** funnel phase in which the oracle fired ([gen_db],
          [database_ready], [containment], ...) *)
  bundle : string option;
      (** path of the repro bundle's [repro.sql], when one was written *)
}

val pp : Format.formatter -> t -> unit

(** The reproduction script as SQL text (reduced if available), one
    statement per line — the unit in which the paper counts test-case LOC
    (Figure 2). *)
val script : t -> string

val loc : t -> int

(** Deduplication fingerprint: hex digest of the oracle token plus the
    (reduced) reproduction script.  Reduction is deterministic, so the
    same underlying bug found by different shards fingerprints
    identically — fleet-wide dedup keys on this. *)
val fingerprint : t -> string
