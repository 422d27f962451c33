(** The three dialect personalities of the engine under test.

    These mirror the three DBMS the paper evaluated.  The variant lives at
    the bottom of the library stack because value coercion, expression
    semantics and SQL rendering all depend on it. *)

type t = Sqlite_like | Mysql_like | Postgres_like

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
val all : t list

(** Short lowercase name used by CLIs and reports: "sqlite", "mysql",
    "postgres". *)
val name : t -> string

val of_name : string -> t option

(** Display name used in tables, mirroring the paper: "SQLite", "MySQL",
    "PostgreSQL". *)
val display_name : t -> string
