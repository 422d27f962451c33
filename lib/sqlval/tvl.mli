(** SQL three-valued logic.

    Expressions evaluated in a boolean context yield TRUE, FALSE or UNKNOWN
    (NULL); PQS's rectification step (paper Algorithm 3) branches on exactly
    these three outcomes. *)

type t = True | False | Unknown

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
val of_bool : bool -> t

(** [Ok t], built once per truth value: boolean contexts run per row, and
    a fresh [Ok] would be allocated on each. *)
val ok : t -> (t, 'e) result

(** [to_bool ~null:b t] collapses UNKNOWN to [b], as a WHERE clause does with
    [b = false]. *)
val to_bool : null:bool -> t -> bool

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t

(** Kleene logic over a lazily evaluated right operand (SQL engines may or
    may not short-circuit; semantics are identical for pure operands). *)
val and_lazy : t -> (unit -> t) -> t

val or_lazy : t -> (unit -> t) -> t
val all : t list
