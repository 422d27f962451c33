(** Column data types across the three dialect personalities.

    The sqlite-like dialect allows columns with no declared type ([Any]) and
    treats declarations as affinities; the mysql-like dialect adds integer
    widths and UNSIGNED variants; the postgres-like dialect enforces types
    strictly and has a true BOOLEAN and SERIAL. *)

type int_width = Tiny | Small | Medium | Regular | Big

val pp_int_width : Format.formatter -> int_width -> unit
val equal_int_width : int_width -> int_width -> bool

type t =
  | Any  (** sqlite column declared without a type *)
  | Int of { width : int_width; unsigned : bool }
  | Real
  | Text
  | Blob
  | Bool
  | Serial  (** postgres auto-incrementing integer *)

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool

(** SQL spelling in a CREATE TABLE, e.g. ["TINYINT UNSIGNED"], ["INT"]. *)
val to_sql : t -> string

val of_sql : string -> t option

(** Inclusive signed range of an integer width, e.g. Tiny = [-128, 127]. *)
val int_range : int_width -> int64 * int64

(** Inclusive unsigned maximum of an integer width as an Int64 holding the
    unsigned bit pattern (Big maps to 0xFFFF...F = -1L). *)
val unsigned_max : int_width -> int64

(** SQLite type affinity derived from the declared type (the paper's
    Listing 7 bug depends on INTEGER affinity on the column). *)
type affinity = A_integer | A_real | A_text | A_blob | A_numeric | A_none

val pp_affinity : Format.formatter -> affinity -> unit
val equal_affinity : affinity -> affinity -> bool
val affinity : t -> affinity
