(** SQL runtime values.

    A value is one of the SQL storage classes. [Bool] exists as a distinct
    storage class only in the postgres-like dialect; the sqlite-like and
    mysql-like dialects encode booleans as integers (see {!Coerce}). *)

type t =
  | Null
  | Int of int64
  | Real of float
  | Text of string
  | Blob of string
  | Bool of bool

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool

(** Storage class of a value, used for cross-class ordering and affinity. *)
type storage_class = C_null | C_bool | C_int | C_real | C_text | C_blob

val storage_class : t -> storage_class
val class_rank : storage_class -> int

val is_null : t -> bool
val is_numeric : t -> bool

(** [compare_total ?collation a b] is a total order over values following the
    SQLite cross-class ordering (NULL < BOOL < numeric < TEXT < BLOB), with
    integers and reals compared numerically across classes.  Text is compared
    under [collation] (default binary).  This order is what indexes use. *)
val compare_total : ?collation:Collation.t -> t -> t -> int

(** [compare_total ~collation], without the option box a labelled
    optional argument allocates per call: for per-row comparisons. *)
val compare_collated : Collation.t -> t -> t -> int

(** Numeric comparison of an integer and a real without losing precision for
    integers beyond 2^53. *)
val compare_int_real : int64 -> float -> int

(** Render as a SQL literal (single quotes doubled, blobs as X'..'). *)
val to_sql_literal : t -> string

(** Canonical text rendering of a float, shared by the SQL printer and the
    TEXT coercions (the engine's and the PQS interpreter's) so that
    printing and re-parsing round-trips: [Printf "%.1f"] for an integral
    value with |f| < 1e15, [Printf "%.17g"] otherwise, and
    [(0.0/0.0)], [1e999], [-1e999] for NaN and the infinities.  It makes
    no [Printf] call: an integral value writes its integer's digits and
    [".0"] (keeping the sign of [-0.0]), any other goes straight to the
    runtime's float formatter. *)
val float_to_text : float -> string

(** Upper-case hex digits of each byte, two per byte (the text of
    [HEX()] and of [X'..'] literals), from a 16-digit table. *)
val hex_of_string : string -> string

(** Human-readable rendering used by result-set printers ([NULL] unquoted). *)
val to_display : t -> string

(** Hash compatible with {!equal}. *)
val hash : t -> int
