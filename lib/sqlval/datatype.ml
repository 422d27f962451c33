type int_width = Tiny | Small | Medium | Regular | Big
[@@deriving show { with_path = false }, eq]

type t =
  | Any
  | Int of { width : int_width; unsigned : bool }
  | Real
  | Text
  | Blob
  | Bool
  | Serial
[@@deriving show { with_path = false }, eq]

let width_to_sql = function
  | Tiny -> "TINYINT"
  | Small -> "SMALLINT"
  | Medium -> "MEDIUMINT"
  | Regular -> "INT"
  | Big -> "BIGINT"

let to_sql = function
  | Any -> ""
  | Int { width; unsigned } ->
      if unsigned then width_to_sql width ^ " UNSIGNED" else width_to_sql width
  | Real -> "REAL"
  | Text -> "TEXT"
  | Blob -> "BLOB"
  | Bool -> "BOOLEAN"
  | Serial -> "SERIAL"

let of_sql s =
  let s = String.uppercase_ascii (String.trim s) in
  let unsigned = Filename.check_suffix s " UNSIGNED" in
  let base = if unsigned then Filename.chop_suffix s " UNSIGNED" else s in
  let int width = Some (Int { width; unsigned }) in
  match base with
  | "" -> Some Any
  | "TINYINT" -> int Tiny
  | "SMALLINT" -> int Small
  | "MEDIUMINT" -> int Medium
  | "INT" | "INTEGER" -> int Regular
  | "BIGINT" -> int Big
  | "REAL" | "DOUBLE" | "FLOAT" -> if unsigned then None else Some Real
  | "TEXT" | "VARCHAR" -> if unsigned then None else Some Text
  | "BLOB" -> if unsigned then None else Some Blob
  | "BOOLEAN" | "BOOL" -> if unsigned then None else Some Bool
  | "SERIAL" -> if unsigned then None else Some Serial
  | _ -> None

let int_range = function
  | Tiny -> (-128L, 127L)
  | Small -> (-32768L, 32767L)
  | Medium -> (-8388608L, 8388607L)
  | Regular -> (-2147483648L, 2147483647L)
  | Big -> (Int64.min_int, Int64.max_int)

let unsigned_max = function
  | Tiny -> 255L
  | Small -> 65535L
  | Medium -> 16777215L
  | Regular -> 4294967295L
  | Big -> -1L (* 0xFFFFFFFFFFFFFFFF as an unsigned bit pattern *)

type affinity = A_integer | A_real | A_text | A_blob | A_numeric | A_none
[@@deriving show { with_path = false }, eq]

let affinity = function
  | Any -> A_none
  | Int _ | Serial -> A_integer
  | Real -> A_real
  | Text -> A_text
  | Blob -> A_none
  | Bool -> A_numeric
