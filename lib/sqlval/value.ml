type t =
  | Null
  | Int of int64
  | Real of float
  | Text of string
  | Blob of string
  | Bool of bool
[@@deriving show { with_path = false }, eq]

type storage_class = C_null | C_bool | C_int | C_real | C_text | C_blob

let storage_class = function
  | Null -> C_null
  | Bool _ -> C_bool
  | Int _ -> C_int
  | Real _ -> C_real
  | Text _ -> C_text
  | Blob _ -> C_blob

let class_rank = function
  | C_null -> 0
  | C_bool -> 1
  | C_int -> 2
  | C_real -> 2 (* integers and reals compare numerically across classes *)
  | C_text -> 3
  | C_blob -> 4

let is_null = function Null -> true | _ -> false

let is_numeric = function
  | Int _ | Real _ -> true
  | Null | Bool _ | Text _ | Blob _ -> false

(* Comparing an int64 with a float must not round the integer: beyond 2^53 the
   conversion loses precision, which is exactly the bug class of paper
   Listing 2.  We compare exactly by cases on the float's magnitude. *)
let compare_int_real i r =
  if Float.is_nan r then 1 (* NaN sorts below every integer, like SQLite *)
  else if r = Float.infinity then -1
  else if r = Float.neg_infinity then 1
  else if r >= 9.223372036854775808e18 then -1
  else if r < -9.223372036854775808e18 then 1
  else
    let ri = Int64.of_float r in
    let c = Int64.compare i ri in
    if c <> 0 then c
    else
      (* same integer part: fractional part breaks the tie *)
      let frac = r -. Int64.to_float ri in
      if frac > 0.0 then -1 else if frac < 0.0 then 1 else 0

let compare_numeric a b =
  match (a, b) with
  | Int x, Int y -> Int64.compare x y
  | Real x, Real y -> Float.compare x y
  | Int x, Real y -> compare_int_real x y
  | Real x, Int y -> -compare_int_real y x
  | _ -> invalid_arg "Value.compare_numeric: non-numeric argument"

let compare_collated collation a b =
  let ca = class_rank (storage_class a) and cb = class_rank (storage_class b) in
  if ca <> cb then compare ca cb
  else
    match (a, b) with
    | Null, Null -> 0
    | Bool x, Bool y -> Bool.compare x y
    | (Int _ | Real _), (Int _ | Real _) -> compare_numeric a b
    | Text x, Text y -> Collation.compare collation x y
    | Blob x, Blob y -> String.compare x y
    | _ -> assert false

let compare_total ?(collation = Collation.Binary) a b =
  compare_collated collation a b

let hex_digits = "0123456789ABCDEF"

let hex_of_string s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done;
  Bytes.unsafe_to_string b

let escape_single_quotes s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The C primitive behind [Printf]'s [%g]: the same bytes, without
   interpreting a format per call. *)
external format_float : string -> float -> string = "caml_format_float"

(* [Printf "%.1f"] of an integral [f] with |f| < 1e15: its integer's
   decimal digits followed by [".0"], written into one string. *)
let integral_text f =
  let n = int_of_float f in
  let neg = n < 0 || Float.sign_bit f in
  let a = abs n in
  let rec digits a k = if a < 10 then k else digits (a / 10) (k + 1) in
  let len = digits a 1 + if neg then 3 else 2 in
  let b = Bytes.create len in
  if neg then Bytes.unsafe_set b 0 '-';
  Bytes.unsafe_set b (len - 2) '.';
  Bytes.unsafe_set b (len - 1) '0';
  let rec fill a i =
    Bytes.unsafe_set b i (Char.unsafe_chr (48 + (a mod 10)));
    if a >= 10 then fill (a / 10) (i - 1)
  in
  fill a (len - 3);
  Bytes.unsafe_to_string b

let float_to_text f =
  if Float.is_integer f && Float.abs f < 1e15 then integral_text f
  else if Float.is_nan f then "(0.0/0.0)"
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else format_float "%.17g" f

let to_sql_literal = function
  | Null -> "NULL"
  | Int i -> Int64.to_string i
  | Real r -> float_to_text r
  | Text s -> "'" ^ escape_single_quotes s ^ "'"
  | Blob s -> "X'" ^ hex_of_string s ^ "'"
  | Bool true -> "TRUE"
  | Bool false -> "FALSE"

let to_display = function
  | Null -> "NULL"
  | Int i -> Int64.to_string i
  | Real r -> float_to_text r
  | Text s -> s
  | Blob s -> "x'" ^ hex_of_string s ^ "'"
  | Bool b -> if b then "t" else "f"

let hash = function
  | Null -> 17
  | Int i -> Int64.to_int i lxor 0x5a5a
  | Real r -> Hashtbl.hash r
  | Text s -> Hashtbl.hash s
  | Blob s -> Hashtbl.hash s lxor 0x33
  | Bool b -> if b then 3 else 5
