(** Feature-point coverage instrumentation.

    The paper reports line/branch coverage of the DBMS under a 24-hour
    SQLancer run (Table 4).  We cannot instrument machine code, so the
    engine registers named feature points (operator evaluations per dialect,
    planner decisions, DDL/DML paths, maintenance commands) and counts hits;
    the Table 4 reproduction reports the hit fraction per dialect. *)

type t

val create : unit -> t

(** Declare-and-count: hits register the point in the universe on first use;
    the static universe below seeds the denominator so that unexercised
    features count against coverage. *)
val hit : t -> string -> unit

val hit_count : t -> string -> int
val points_hit : t -> int
val universe_size : t -> int
val fraction : t -> float

(** Merge the hits of [src] into [dst] (used to aggregate worker runs). *)
val merge_into : dst:t -> src:t -> unit

(** Functional variant: a fresh instrument holding the summed hits of both
    arguments — campaign workers' private instruments fold into a total. *)
val union : t -> t -> t

(** Every point with its hit count, sorted by point name: the canonical
    comparable view of an instrument (the monoid-law property tests
    compare {!union} results through it). *)
val points : t -> (string * int) list

(** All statically declared feature points. *)
val static_universe : string list
