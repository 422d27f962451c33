(** The coverage frontier: which named feature points a campaign has and
    has not exercised.

    A frontier is an immutable value mapping point names (query-shape
    fingerprints, expression kinds, planner paths — the caller decides the
    vocabulary) to hit counts plus the earliest seed that first hit them.
    Frontiers obey the same monoid laws as [Stats]: {!union} is
    associative {e and} commutative with {!empty} as identity, so
    campaign shards can merge their frontiers in any grouping and arrive
    at the identical value.  The representation is canonical (a sorted
    association list), so structural equality [( = )] is frontier
    equality — the law tests rely on this.

    Universe-relative views ({!fraction}, {!cold}, {!coldest}) take the
    vocabulary as an explicit [universe] so the frontier itself stays a
    pure mergeable value; points outside the universe are never dropped
    (they count as extras, mirroring [Engine.Coverage]). *)

type entry = {
  hits : int;  (** times the point was exercised *)
  first_seed : int;
      (** smallest seed (campaign round id) that first hit the point —
          merging takes the minimum, so the value is shard-independent *)
}

type t

val empty : t

(** [hit t ~seed point] counts one exercise of [point] by round [seed]. *)
val hit : t -> seed:int -> string -> t

(** [of_points ~seed points] counts each listed point once (duplicates
    accumulate). *)
val of_points : seed:int -> string list -> t

(** Associative, commutative; {!empty} is a two-sided identity.  Hit
    counts add, [first_seed] takes the minimum. *)
val union : t -> t -> t

(** A copy that shares no point string or entry with [t].  A frontier
    merged from many rounds' frontiers shares theirs, and keeping it
    would keep alive every major-heap pool those were allocated in. *)
val copy : t -> t

(** All points with their entries, sorted by point name. *)
val points : t -> (string * entry) list

(** Rebuild a frontier from decoded [(point, entry)] pairs (the inverse
    of {!points}); input may be unsorted and may carry duplicates, which
    combine as in {!union}. *)
val of_entries : (string * entry) list -> t

(** Hit count of one point (0 when never hit). *)
val hits : t -> string -> int

(** Number of distinct points hit. *)
val cardinal : t -> int

(** {1 Universe-relative views} *)

(** How many universe points the frontier has hit. *)
val hit_in : universe:string list -> t -> int

(** Fraction of [universe] points hit, in [0, 1]. *)
val fraction : universe:string list -> t -> float

(** Universe points never hit, in universe order — the stale frontier
    [sqlancer top] lists and guided generation aims at. *)
val cold : universe:string list -> t -> string list

(** Up to [n] universe points with the fewest hits (never-hit points
    first, then ascending hit count; ties in universe order). *)
val coldest : ?n:int -> universe:string list -> t -> (string * int) list

(** {1 Export} *)

(** JSON snapshot:
    [{"universe":N,"hit":N,"fraction":F,"points":[{"point":..,"hits":..,
    "first_seed":..},...],"cold":[...],"bundles":[...]}].  [bundles]
    cross-links the repro bundles the campaign wrote alongside this
    frontier (empty list when none). *)
val to_json : universe:string list -> ?bundles:string list -> t -> string

val write_json :
  universe:string list -> ?bundles:string list -> t -> string -> unit
