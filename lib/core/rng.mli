(** Seeded random source for all PQS generators.

    Everything PQS does is a deterministic function of the seed, which makes
    detections replayable (the paper's test-case reduction relies on
    reproducibility). *)

type t

val make : seed:int -> t

(** Independent stream derived from this one (per-worker streams). *)
val split : t -> t

val int : t -> int -> int
(** [int t n] is uniform in [0, n-1]; [n] must be positive. *)

val int_in : t -> int -> int -> int
(** inclusive range *)

val int64 : t -> int64
val bool : t -> bool
val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val pick : t -> 'a list -> 'a
(** uniform choice; the list must be non-empty. *)

val pick_array : t -> 'a array -> 'a
(** [pick] over an array: the same draw, without walking a list. *)

(** A weighted choice whose running totals are computed once. *)
type 'a weighted

val weighted : (int * 'a) list -> 'a weighted
(** the table of [(weight, item)] pairs; zero weights are allowed (their
    items are never drawn), but some weight must be positive. *)

val draw : t -> 'a weighted -> 'a
(** one weighted choice: a single [int t total] draw. *)

val pick_weighted : t -> (int * 'a) list -> 'a
(** weighted choice over a list built at the call, drawn as {!draw}
    draws; weights must be non-negative, some positive. *)

val shuffle : t -> 'a list -> 'a list

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] draws up to [k] elements without replacement. *)

val identifier : t -> prefix:string -> string
(** fresh-ish identifier like ["t3"]. *)

val small_string : t -> string
(** short ASCII string biased toward the paper's interesting shapes
    (empty, spaces, case variants, './', digit prefixes). *)

val interesting_int : t -> int64
(** integer biased toward boundaries (0, ±1, type range edges, large
    64-bit values like the one in paper Listing 2). *)

val interesting_real : t -> float
