type error = string

(* [to_tvl] runs per row in every boolean context: its results are
   built once *)
let ok_of_bool b = Tvl.ok (Tvl.of_bool b)
let not_boolean = Error "argument of WHERE must be type boolean"

let to_tvl dialect (v : Value.t) : (Tvl.t, error) result =
  match dialect with
  | Dialect.Postgres_like -> (
      match v with
      | Value.Null -> Tvl.ok Tvl.Unknown
      | Value.Bool b -> ok_of_bool b
      | Value.Int _ | Value.Real _ | Value.Text _ | Value.Blob _ -> not_boolean)
  | Dialect.Sqlite_like | Dialect.Mysql_like -> (
      match v with
      | Value.Null -> Tvl.ok Tvl.Unknown
      | Value.Bool b -> ok_of_bool b
      | Value.Int i -> ok_of_bool (i <> 0L)
      | Value.Real r -> ok_of_bool (r <> 0.0)
      | Value.Text s | Value.Blob s -> (
          match Numeric.numeric_prefix s with
          | `Int i -> ok_of_bool (i <> 0L)
          | `Real r -> ok_of_bool (r <> 0.0)
          | `None -> Tvl.ok Tvl.False))

let to_numeric (v : Value.t) : Value.t =
  match v with
  | Value.Null -> Value.Null
  | Value.Int _ | Value.Real _ -> v
  | Value.Bool b -> Value.Int (if b then 1L else 0L)
  | Value.Text s | Value.Blob s -> (
      match Numeric.numeric_prefix s with
      | `Int i -> Value.Int i
      | `Real r -> Value.Real r
      | `None -> Value.Int 0L)

let to_text dialect (v : Value.t) : string =
  match v with
  | Value.Null -> "" (* callers must special-case NULL; kept total *)
  | Value.Int i -> Int64.to_string i
  | Value.Real r -> Value.float_to_text r
  | Value.Text s -> s
  | Value.Blob s -> s
  | Value.Bool b -> (
      match dialect with
      | Dialect.Postgres_like -> if b then "true" else "false"
      | Dialect.Sqlite_like | Dialect.Mysql_like -> if b then "1" else "0")

let real_to_int_if_exact r =
  if Numeric.real_is_exact_int r then Value.Int (Int64.of_float r)
  else Value.Real r

let apply_affinity (aff : Datatype.affinity) (v : Value.t) : Value.t =
  match (aff, v) with
  | _, Value.Null -> Value.Null
  | (Datatype.A_integer | Datatype.A_numeric), Value.Text s -> (
      match Numeric.parse_exact s with
      | Some (`Int i) -> Value.Int i
      | Some (`Real r) -> real_to_int_if_exact r
      | None -> v)
  | (Datatype.A_integer | Datatype.A_numeric), Value.Real r ->
      real_to_int_if_exact r
  | (Datatype.A_integer | Datatype.A_numeric), Value.Bool b ->
      Value.Int (if b then 1L else 0L)
  | (Datatype.A_integer | Datatype.A_numeric), (Value.Int _ | Value.Blob _) -> v
  | Datatype.A_real, Value.Text s -> (
      match Numeric.parse_exact s with
      | Some (`Int i) -> Value.Real (Int64.to_float i)
      | Some (`Real r) -> Value.Real r
      | None -> v)
  | Datatype.A_real, Value.Int i -> Value.Real (Int64.to_float i)
  | Datatype.A_real, Value.Bool b -> Value.Real (if b then 1.0 else 0.0)
  | Datatype.A_real, (Value.Real _ | Value.Blob _) -> v
  | Datatype.A_text, (Value.Int _ | Value.Real _ | Value.Bool _) ->
      Value.Text (to_text Dialect.Sqlite_like v)
  | Datatype.A_text, (Value.Text _ | Value.Blob _) -> v
  | (Datatype.A_blob | Datatype.A_none), _ -> v

let clamp_signed width i =
  let lo, hi = Datatype.int_range width in
  if i < lo then lo else if i > hi then hi else i

let clamp_unsigned width i =
  if i < 0L then 0L
  else
    match width with
    | Datatype.Big -> i (* unsigned BIGINT clamp at Int64.max: substitution *)
    | w ->
        let hi = Datatype.unsigned_max w in
        if i > hi then hi else i

let mysql_round_to_int r =
  if Float.is_nan r then 0L
  else if r >= 9.2233720368547758e18 then Int64.max_int
  else if r <= -9.2233720368547758e18 then Int64.min_int
  else Int64.of_float (Float.round r)

let mysql_store_int ~width ~unsigned (v : Value.t) : Value.t =
  let as_int =
    match to_numeric v with
    | Value.Int i -> i
    | Value.Real r -> mysql_round_to_int r
    | Value.Null | Value.Text _ | Value.Blob _ | Value.Bool _ -> 0L
  in
  let clamped =
    if unsigned then clamp_unsigned width as_int else clamp_signed width as_int
  in
  Value.Int clamped

let mysql_store (ty : Datatype.t) (v : Value.t) : (Value.t, error) result =
  match (ty, v) with
  | _, Value.Null -> Ok Value.Null
  | Datatype.Int { width; unsigned }, _ ->
      Ok (mysql_store_int ~width ~unsigned v)
  | Datatype.Serial, _ ->
      Ok (mysql_store_int ~width:Datatype.Regular ~unsigned:false v)
  | Datatype.Bool, _ ->
      Ok (mysql_store_int ~width:Datatype.Tiny ~unsigned:false v)
  | Datatype.Real, _ -> (
      match to_numeric v with
      | Value.Int i -> Ok (Value.Real (Int64.to_float i))
      | Value.Real r -> Ok (Value.Real r)
      | _ -> Ok (Value.Real 0.0))
  | Datatype.Text, _ -> Ok (Value.Text (to_text Dialect.Mysql_like v))
  | Datatype.Blob, _ -> (
      match v with
      | Value.Blob _ -> Ok v
      | _ -> Ok (Value.Blob (to_text Dialect.Mysql_like v)))
  | Datatype.Any, _ -> Ok v

let pg_type_name (v : Value.t) =
  match v with
  | Value.Null -> "unknown"
  | Value.Int _ -> "integer"
  | Value.Real _ -> "double precision"
  | Value.Text _ -> "text"
  | Value.Blob _ -> "bytea"
  | Value.Bool _ -> "boolean"

let pg_store (ty : Datatype.t) (v : Value.t) : (Value.t, error) result =
  let mismatch () =
    Error
      (Printf.sprintf "column is of type %s but expression is of type %s"
         (Datatype.to_sql ty) (pg_type_name v))
  in
  match (ty, v) with
  | _, Value.Null -> Ok Value.Null
  | Datatype.Int { width; _ }, Value.Int i ->
      let lo, hi = Datatype.int_range width in
      if i < lo || i > hi then Error "integer out of range" else Ok v
  | Datatype.Serial, Value.Int i ->
      let lo, hi = Datatype.int_range Datatype.Regular in
      if i < lo || i > hi then Error "integer out of range" else Ok v
  | Datatype.Real, Value.Int i -> Ok (Value.Real (Int64.to_float i))
  | Datatype.Real, Value.Real _ -> Ok v
  | Datatype.Text, Value.Text _ -> Ok v
  | Datatype.Blob, Value.Blob _ -> Ok v
  | Datatype.Bool, Value.Bool _ -> Ok v
  | Datatype.Any, _ -> Ok v
  | (Datatype.Int _ | Datatype.Serial | Datatype.Real | Datatype.Text
    | Datatype.Blob | Datatype.Bool), _ ->
      mismatch ()

let store dialect ty v =
  match dialect with
  | Dialect.Sqlite_like -> Ok (apply_affinity (Datatype.affinity ty) v)
  | Dialect.Mysql_like -> mysql_store ty v
  | Dialect.Postgres_like -> pg_store ty v

let sqlite_cast_int (v : Value.t) =
  match v with
  | Value.Null -> Value.Null
  | Value.Int _ -> v
  | Value.Real r ->
      if Float.is_nan r then Value.Int 0L
      else if r >= 9.2233720368547758e18 then Value.Int Int64.max_int
      else if r <= -9.2233720368547758e18 then Value.Int Int64.min_int
      else Value.Int (Int64.of_float (Float.trunc r))
  | Value.Bool b -> Value.Int (if b then 1L else 0L)
  | Value.Text s | Value.Blob s -> (
      match Numeric.numeric_prefix s with
      | `Int i -> Value.Int i
      | `Real r ->
          if Numeric.real_is_exact_int r then Value.Int (Int64.of_float r)
          else Value.Int (Int64.of_float (Float.trunc r))
      | `None -> Value.Int 0L)

let sqlite_cast_real (v : Value.t) =
  match to_numeric v with
  | Value.Int i -> Value.Real (Int64.to_float i)
  | Value.Real r -> Value.Real r
  | Value.Null -> Value.Null
  | _ -> Value.Real 0.0

let sqlite_cast (ty : Datatype.t) (v : Value.t) : Value.t =
  match ty with
  | Datatype.Int _ | Datatype.Serial | Datatype.Bool -> sqlite_cast_int v
  | Datatype.Real -> sqlite_cast_real v
  | Datatype.Text -> (
      match v with
      | Value.Null -> Value.Null
      | _ -> Value.Text (to_text Dialect.Sqlite_like v))
  | Datatype.Blob -> (
      match v with
      | Value.Null -> Value.Null
      | Value.Blob _ -> v
      | _ -> Value.Blob (to_text Dialect.Sqlite_like v))
  | Datatype.Any -> apply_affinity Datatype.A_numeric v

let mysql_cast_unsigned (v : Value.t) : Value.t =
  match to_numeric v with
  | Value.Null -> Value.Null
  | Value.Int i ->
      if i >= 0L then Value.Int i else Value.Real (Numeric.unsigned_to_float i)
  | Value.Real r ->
      let i = mysql_round_to_int r in
      if i >= 0L then Value.Int i else Value.Real (Numeric.unsigned_to_float i)
  | _ -> Value.Int 0L

let mysql_cast (ty : Datatype.t) (v : Value.t) : (Value.t, error) result =
  match (ty, v) with
  | _, Value.Null -> Ok Value.Null
  | Datatype.Int { unsigned = true; _ }, _ -> Ok (mysql_cast_unsigned v)
  | (Datatype.Int _ | Datatype.Serial | Datatype.Bool), _ -> (
      match to_numeric v with
      | Value.Int i -> Ok (Value.Int i)
      | Value.Real r -> Ok (Value.Int (mysql_round_to_int r))
      | _ -> Ok (Value.Int 0L))
  | Datatype.Real, _ -> Ok (sqlite_cast_real v)
  | Datatype.Text, _ -> Ok (Value.Text (to_text Dialect.Mysql_like v))
  | Datatype.Blob, _ -> Ok (Value.Blob (to_text Dialect.Mysql_like v))
  | Datatype.Any, _ -> Ok v

let pg_cast (ty : Datatype.t) (v : Value.t) : (Value.t, error) result =
  let invalid what s =
    Error (Printf.sprintf "invalid input syntax for type %s: \"%s\"" what s)
  in
  match (ty, v) with
  | _, Value.Null -> Ok Value.Null
  | (Datatype.Int _ | Datatype.Serial), _ -> (
      let width =
        match ty with Datatype.Int { width; _ } -> width | _ -> Datatype.Regular
      in
      let check i =
        let lo, hi = Datatype.int_range width in
        if i < lo || i > hi then Error "integer out of range" else Ok (Value.Int i)
      in
      match v with
      | Value.Int i -> check i
      | Value.Real r -> check (mysql_round_to_int r)
      | Value.Bool b -> check (if b then 1L else 0L)
      | Value.Text s -> (
          match Numeric.parse_exact s with
          | Some (`Int i) -> check i
          | Some (`Real r) -> check (mysql_round_to_int r)
          | None -> invalid "integer" s)
      | Value.Blob _ -> Error "cannot cast type bytea to integer"
      | Value.Null -> assert false)
  | Datatype.Real, Value.Int i -> Ok (Value.Real (Int64.to_float i))
  | Datatype.Real, Value.Real _ -> Ok v
  | Datatype.Real, Value.Text s -> (
      match Numeric.parse_exact s with
      | Some (`Int i) -> Ok (Value.Real (Int64.to_float i))
      | Some (`Real r) -> Ok (Value.Real r)
      | None -> invalid "double precision" s)
  | Datatype.Real, (Value.Bool _ | Value.Blob _) ->
      Error "cannot cast to double precision"
  | Datatype.Text, _ -> Ok (Value.Text (to_text Dialect.Postgres_like v))
  | Datatype.Bool, Value.Bool _ -> Ok v
  | Datatype.Bool, Value.Int i -> Ok (Value.Bool (i <> 0L))
  | Datatype.Bool, Value.Text s -> (
      match String.lowercase_ascii (String.trim s) with
      | "t" | "true" | "yes" | "on" | "1" -> Ok (Value.Bool true)
      | "f" | "false" | "no" | "off" | "0" -> Ok (Value.Bool false)
      | _ -> invalid "boolean" s)
  | Datatype.Bool, (Value.Real _ | Value.Blob _) ->
      Error "cannot cast to boolean"
  | Datatype.Blob, Value.Blob _ -> Ok v
  | Datatype.Blob, Value.Text s -> Ok (Value.Blob s)
  | Datatype.Blob, (Value.Int _ | Value.Real _ | Value.Bool _) ->
      Error "cannot cast to bytea"
  | Datatype.Any, _ -> Ok v

let cast dialect ty v =
  match dialect with
  | Dialect.Sqlite_like -> Ok (sqlite_cast ty v)
  | Dialect.Mysql_like -> mysql_cast ty v
  | Dialect.Postgres_like -> pg_cast ty v
