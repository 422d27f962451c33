type t = Sqlite_like | Mysql_like | Postgres_like
[@@deriving show { with_path = false }, eq]

let all = [ Sqlite_like; Mysql_like; Postgres_like ]

let name = function
  | Sqlite_like -> "sqlite"
  | Mysql_like -> "mysql"
  | Postgres_like -> "postgres"

let of_name s =
  match String.lowercase_ascii s with
  | "sqlite" -> Some Sqlite_like
  | "mysql" -> Some Mysql_like
  | "postgres" | "postgresql" -> Some Postgres_like
  | _ -> None

let display_name = function
  | Sqlite_like -> "SQLite"
  | Mysql_like -> "MySQL"
  | Postgres_like -> "PostgreSQL"
