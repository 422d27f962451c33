(** Random database generation (paper step 1 and Section 3.3).

    Creates tables with CREATE TABLE, fills them with INSERT, and explores
    the state space with further DDL/DML: UPDATE, DELETE, ALTER TABLE,
    CREATE INDEX (incl. unique/partial/expression/collated indexes), views,
    run-time options, and the dialect-specific statements the paper calls
    out (REPAIR/CHECK TABLE for mysql; DISCARD and CREATE STATISTICS for
    postgres; PRAGMA, VACUUM and REINDEX for sqlite). *)

(** Generation configuration, built with {!Config.make} and narrowed with
    the [with_*] setters:

    {[
      Gen_db.Config.(make dialect |> with_rng rng |> with_max_rows 5)
    ]}

    The record is private: read any field, but construct and update only
    through the builder, so new knobs can be added without breaking
    callers. *)
module Config : sig
  type t = private {
    rng : Rng.t;
    dialect : Sqlval.Dialect.t;
    table_count : int;  (** tables per database (paper uses few) *)
    max_columns : int;
    min_rows : int;  (** paper Section 3.4: low row counts (10–30) *)
    max_rows : int;
    extra_statements : int;  (** additional random DDL/DML statements *)
  }

  (** Defaults: 2 tables, 3 columns, 1–6 rows, 8 extra statements; [seed]
      (default 1) seeds a fresh {!Rng.t}. *)
  val make : ?seed:int -> Sqlval.Dialect.t -> t

  val with_rng : Rng.t -> t -> t
  val with_table_count : int -> t -> t
  val with_max_columns : int -> t -> t
  val with_max_rows : int -> t -> t
  val with_extra_statements : int -> t -> t
end

type config = Config.t

(** The CREATE TABLE statements opening a database round. *)
val initial_statements : config -> Sqlast.Ast.stmt list

(** INSERTs that bring every table to at least [min_rows] rows (the paper
    ensures each table holds at least one row). *)
val fill_statements : config -> Engine.Session.t -> Sqlast.Ast.stmt list

(** One INSERT of 1–3 random rows into the table; rows occasionally clone
    (and slightly mutate) an existing row so near-duplicates occur. *)
val insert_stmt :
  ?existing_rows:Sqlval.Value.t array list ->
  config ->
  Schema_info.table_info ->
  Sqlast.Ast.stmt

(** One more random statement group (usually a single statement; BEGIN ...
    COMMIT pairs arrive as a group), chosen from the current schema. *)
val random_statements : config -> Engine.Session.t -> Sqlast.Ast.stmt list
