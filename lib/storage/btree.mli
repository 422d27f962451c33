(** In-memory B-tree.

    This is the ordered structure backing every index of the engine (the
    paper's findings lean heavily on index interactions: partial indexes,
    collating-sequence keys, skip-scan, REINDEX).  Keys are ordered by the
    functor argument; duplicate keys are allowed and preserved in insertion
    order, so UNIQUE enforcement is done by the caller via {!find_all}. *)

module Make (Ord : sig
  type key

  val compare : key -> key -> int
end) : sig
  type 'v t

  val create : unit -> 'v t
  val length : 'v t -> int
  val is_empty : 'v t -> bool

  (** Insert a binding; duplicates of [key] are kept. *)
  val insert : 'v t -> Ord.key -> 'v -> unit

  (** Remove the first binding with this exact key and value (values compared
      with [veq]); returns whether a binding was removed. *)
  val remove : veq:('v -> 'v -> bool) -> 'v t -> Ord.key -> 'v -> bool

  (** All values bound to keys equal to [key], in insertion order. *)
  val find_all : 'v t -> Ord.key -> 'v list

  val mem : 'v t -> Ord.key -> bool

  (** In-order traversal. *)
  val iter : (Ord.key -> 'v -> unit) -> 'v t -> unit

  val to_list : 'v t -> (Ord.key * 'v) list

  (** In-order traversal of keys in [\[lo, hi\]]; [None] bounds are open.
      Bounds are inclusive or exclusive per the flags. *)
  val iter_range :
    ?lo:Ord.key * bool ->
    ?hi:Ord.key * bool ->
    (Ord.key -> 'v -> unit) ->
    'v t ->
    unit

  val min_binding : 'v t -> (Ord.key * 'v) option
  val max_binding : 'v t -> (Ord.key * 'v) option

  (** Validate B-tree structural invariants (node fill, key ordering, uniform
      leaf depth); raises [Invalid_argument] on violation.  Used by the
      property-based tests. *)
  val check_invariants : 'v t -> unit

  (** Entry counts of the nodes in walk order (a node, then its subtrees
      left to right); the tests pin node shapes with it. *)
  val shape : 'v t -> int list

  (** [(nodes_visited, entries_scanned)] accumulated by read-path traversals
      ({!iter}, {!iter_range}, {!find_all}, …) over the tree's lifetime.
      Insert/delete rebalancing is not counted.  Telemetry scrapes deltas of
      these around index operations. *)
  val profile : 'v t -> int * int
end
