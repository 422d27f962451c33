(** Table heap: rowid-addressed row storage.

    Scan order is rowid order, like a rowid table.  Rowids grow
    monotonically and are never reused (until VACUUM rebuilds the heap).
    The sorted rowid order is cached between the writes that change it
    (a new rowid, a delete, a clear). *)

type t = {
  mutable rows : (int64, Row.t) Hashtbl.t;
  mutable next_rowid : int64;
  mutable scans : int;  (** full scans started (read-path profiling) *)
  mutable rows_scanned : int;  (** rows those scans produced *)
  mutable order : int64 list option;
      (** cached {!rowids_sorted}; [None] when a write made it stale *)
}

val create : unit -> t
val row_count : t -> int

(** Allocate the next rowid without inserting. *)
val alloc_rowid : t -> int64

(** Insert values under a fresh rowid; returns the stored row. *)
val insert : t -> Sqlval.Value.t array -> Row.t

(** Insert (or overwrite) under a caller-chosen rowid; used by UPDATE
    in-place rewrites and transaction rollback. *)
val insert_with_rowid : t -> rowid:int64 -> Sqlval.Value.t array -> Row.t

val delete : t -> int64 -> unit
val find : t -> int64 -> Row.t option

(** All live rowids in ascending order (the scan order). *)
val rowids_sorted : t -> int64 list

val iter : (Row.t -> unit) -> t -> unit
val to_list : t -> Row.t list

(** Drop every row and reset the rowid counter (VACUUM's rebuild). *)
val clear : t -> unit

(** Shallow copy: shares row objects. *)
val copy : t -> t

(** Deep copy: fresh rows, used by transaction snapshots. *)
val deep_copy : t -> t

(** [(scans, rows_scanned)] accumulated by {!iter}/{!to_list} over this
    heap's lifetime; copies start from zero. *)
val profile : t -> int * int
