open Sqlval
module A = Sqlast.Ast

type binding = {
  b_value : Value.t;
  b_type : Datatype.t;
  b_collation : Collation.t;
}

type env = {
  dialect : Dialect.t;
  case_sensitive_like : bool;
  lookup : table:string option -> column:string -> (binding, string) result;
}

(* Each pivot column's binding is built once; a lookup compares names
   case-insensitively without allocating.  A column name resolves when
   exactly one in-scope table (the named one, if any) has it; within a
   table the first column of that name counts. *)
let env_of_pivot ?(case_sensitive_like = false) dialect pivot =
  let tables =
    Array.of_list
      (List.map
         (fun ((ti : Schema_info.table_info), values) ->
           ( ti.Schema_info.ti_name,
             Array.of_list
               (List.mapi
                  (fun i (c : Schema_info.column_info) ->
                    ( c.Schema_info.ci_name,
                      Ok
                        {
                          b_value = values.(i);
                          b_type = c.Schema_info.ci_type;
                          b_collation = c.Schema_info.ci_collation;
                        } ))
                  ti.Schema_info.ti_columns) ))
         pivot)
  in
  let name_equal = Storage.Schema.name_equal in
  let rec in_table column cols i =
    if i >= Array.length cols then None
    else
      let name, b = cols.(i) in
      if name_equal name column then Some b else in_table column cols (i + 1)
  in
  let lookup ~table ~column =
    let rec go i found =
      if i >= Array.length tables then found
      else
        let name, cols = tables.(i) in
        let hit =
          match table with
          | Some t when not (name_equal t name) -> None
          | _ -> in_table column cols 0
        in
        match (hit, found) with
        | None, _ -> go (i + 1) found
        | Some b, None -> go (i + 1) (Some b)
        | Some _, Some _ -> Some (Error ("ambiguous column name: " ^ column))
    in
    match go 0 None with
    | Some r -> r
    | None -> Error ("no such column: " ^ column)
  in
  { dialect; case_sensitive_like; lookup }

(* ------------------------------------------------------------------ *)
(* refusals                                                            *)

(* The interpreter refuses an expression it cannot evaluate on the pivot
   (an unknown column, a dialect's type error, ...).  A node returns a
   bare value; a refusal leaves it as [Refused], raised with
   [raise_notrace] and caught once per expression by {!eval} and
   {!eval_tvl}.  Operands are bound with [let], left to right (OCaml
   evaluates a call's arguments right to left), so the first refusal in
   that order is the expression's. *)
exception Refused of string

let refuse msg = raise_notrace (Refused msg)
let get = function Ok v -> v | Error msg -> refuse msg

(* ------------------------------------------------------------------ *)
(* helpers                                                             *)

let is_sqlite env = Dialect.equal env.dialect Dialect.Sqlite_like
let is_mysql env = Dialect.equal env.dialect Dialect.Mysql_like
let is_pg env = Dialect.equal env.dialect Dialect.Postgres_like

let truth env (v : Value.t) : Tvl.t = get (Coerce.to_tvl env.dialect v)

let encode env (t : Tvl.t) : Value.t =
  if is_pg env then
    match t with
    | Tvl.True -> Value.Bool true
    | Tvl.False -> Value.Bool false
    | Tvl.Unknown -> Value.Null
  else
    match t with
    | Tvl.True -> Value.Int 1L
    | Tvl.False -> Value.Int 0L
    | Tvl.Unknown -> Value.Null

(* An unresolvable column has no metadata here; evaluating it refuses. *)
let rec meta_of env (e : A.expr) : (Datatype.t * Collation.t) option =
  match e with
  | A.Col { table; column } -> (
      match env.lookup ~table ~column with
      | Ok b -> Some (b.b_type, b.b_collation)
      | Error _ -> None)
  | A.Collate (inner, c) -> (
      match meta_of env inner with
      | Some (dt, _) -> Some (dt, c)
      | None -> Some (Datatype.Any, c))
  | A.Cast (ty, _) -> Some (ty, Collation.Binary)
  | A.Unary (A.Pos, inner) -> meta_of env inner
  | _ -> None

let rec coll_of env (e : A.expr) : Collation.t option =
  match e with
  | A.Collate (_, c) -> Some c
  | A.Col _ -> (
      match meta_of env e with
      | Some (_, c) when not (Collation.equal c Collation.Binary) -> Some c
      | _ -> None)
  | A.Unary (A.Pos, inner) -> coll_of env inner
  | _ -> None

let cmp_collation env a b =
  match coll_of env a with
  | Some c -> c
  | None -> ( match coll_of env b with Some c -> c | None -> Collation.Binary)

let affinity_adjust env ea eb va vb =
  let aff e = Option.map (fun (dt, _) -> Datatype.affinity dt) (meta_of env e) in
  let numericish = function
    | Some Datatype.A_integer | Some Datatype.A_real | Some Datatype.A_numeric ->
        true
    | _ -> false
  in
  let textish a = a = Some Datatype.A_text in
  let aa = aff ea and ab = aff eb in
  let to_num v =
    match v with
    | Value.Text _ | Value.Blob _ -> Coerce.apply_affinity Datatype.A_numeric v
    | _ -> v
  in
  let to_text v =
    match v with
    | Value.Int _ | Value.Real _ -> Coerce.apply_affinity Datatype.A_text v
    | _ -> v
  in
  if numericish aa && not (numericish ab) then (va, to_num vb)
  else if numericish ab && not (numericish aa) then (to_num va, vb)
  else if textish aa && ab = None then (va, to_text vb)
  else if textish ab && aa = None then (to_text va, vb)
  else (va, vb)

let pg_comparable a b =
  let open Value in
  match (storage_class a, storage_class b) with
  | C_null, _ | _, C_null -> true
  | (C_int | C_real), (C_int | C_real) -> true
  | C_text, C_text | C_blob, C_blob | C_bool, C_bool -> true
  | _ -> false

let mysql_cmp_values a b =
  match (a, b) with
  | Value.Text _, Value.Text _ | Value.Blob _, Value.Blob _ -> (a, b)
  | _ -> (Coerce.to_numeric a, Coerce.to_numeric b)

(* ------------------------------------------------------------------ *)
(* main interpreter                                                    *)

let rec value env (e : A.expr) : Value.t =
  match e with
  | A.Lit v -> v
  | A.Col { table; column } -> (get (env.lookup ~table ~column)).b_value
  | A.Collate (inner, _) -> value env inner
  | A.Unary (op, inner) -> unary env op inner
  | A.Binary (op, a, b) -> binary env op a b
  | A.Is { negated; arg; rhs } -> is_pred env ~negated arg rhs
  | A.Between { negated; arg; lo; hi } -> between env ~negated arg lo hi
  | A.In_list { negated; arg; list } -> in_list env ~negated arg list
  | A.Like { negated; arg; pattern; escape } ->
      like env ~negated arg pattern escape
  | A.Glob { negated; arg; pattern } -> glob env ~negated arg pattern
  | A.Cast (ty, inner) ->
      let v = value env inner in
      get (Coerce.cast env.dialect ty v)
  | A.Func (f, args) -> func env f args
  | A.Agg _ -> refuse "aggregate in oracle interpreter"
  | A.Case { operand; branches; else_ } -> case env operand branches else_

and tvl env e = truth env (value env e)

and unary env op inner =
  match op with
  | A.Not -> encode env (Tvl.not_ (tvl env inner))
  | A.Pos -> value env inner
  | A.Neg -> (
      let v = value env inner in
      if Value.is_null v then Value.Null
      else if is_pg env then
        match v with
        | Value.Int i -> (
            match Numeric.checked_neg i with
            | Some r -> Value.Int r
            | None -> refuse "BIGINT value is out of range")
        | Value.Real r -> Value.Real (-.r)
        | _ -> refuse "operator does not exist: - non-numeric"
      else
        match Coerce.to_numeric v with
        | Value.Int i -> (
            match Numeric.checked_neg i with
            | Some r -> Value.Int r
            | None -> Value.Real 9.223372036854775808e18)
        | Value.Real r -> Value.Real (-.r)
        | _ -> Value.Null)
  | A.Bit_not -> (
      let v = value env inner in
      if Value.is_null v then Value.Null
      else if is_pg env then
        match v with
        | Value.Int i -> Value.Int (Int64.lognot i)
        | _ -> refuse "~ requires integer"
      else
        match Coerce.sqlite_cast_int v with
        | Value.Int i -> Value.Int (Int64.lognot i)
        | _ -> Value.Null)

and compare_tvl env op ea eb va vb : Tvl.t =
  let coll = cmp_collation env ea eb in
  let null_safe = op = A.Null_safe_eq in
  if null_safe then begin
    if is_pg env && not (pg_comparable va vb) then
      refuse "operator does not exist (mismatched types)"
    else
      let eq =
        match (va, vb) with
        | Value.Null, Value.Null -> true
        | Value.Null, _ | _, Value.Null -> false
        | _ ->
            let va, vb =
              if is_sqlite env then affinity_adjust env ea eb va vb
              else if is_mysql env then mysql_cmp_values va vb
              else (va, vb)
            in
            Value.compare_total ~collation:coll va vb = 0
      in
      Tvl.of_bool eq
  end
  else if Value.is_null va || Value.is_null vb then Tvl.Unknown
  else if is_pg env && not (pg_comparable va vb) then
    refuse "operator does not exist (mismatched types)"
  else
    let va, vb =
      if is_sqlite env then affinity_adjust env ea eb va vb
      else if is_mysql env then mysql_cmp_values va vb
      else (va, vb)
    in
    let c = Value.compare_total ~collation:coll va vb in
    let holds =
      match op with
      | A.Eq -> c = 0
      | A.Neq -> c <> 0
      | A.Lt -> c < 0
      | A.Le -> c <= 0
      | A.Gt -> c > 0
      | A.Ge -> c >= 0
      | _ -> invalid_arg "compare_tvl"
    in
    Tvl.of_bool holds

and binary env op a b =
  match op with
  | A.And ->
      let ta = tvl env a in
      if Tvl.equal ta Tvl.False then encode env Tvl.False
      else
        let tb = tvl env b in
        encode env (Tvl.and_ ta tb)
  | A.Or ->
      let ta = tvl env a in
      if Tvl.equal ta Tvl.True then encode env Tvl.True
      else
        let tb = tvl env b in
        encode env (Tvl.or_ ta tb)
  | A.Concat when is_mysql env -> binary env A.Or a b
  | A.Concat ->
      let va = value env a in
      let vb = value env b in
      if Value.is_null va || Value.is_null vb then Value.Null
      else
        Value.Text
          (Coerce.to_text env.dialect va ^ Coerce.to_text env.dialect vb)
  | A.Eq | A.Neq | A.Lt | A.Le | A.Gt | A.Ge | A.Null_safe_eq ->
      let va = value env a in
      let vb = value env b in
      encode env (compare_tvl env op a b va vb)
  | A.Add | A.Sub | A.Mul | A.Div | A.Rem -> arith env op a b
  | A.Bit_and | A.Bit_or | A.Shift_left | A.Shift_right -> bitop env op a b

and arith env op ea eb =
  let va = value env ea in
  let vb = value env eb in
  if Value.is_null va || Value.is_null vb then Value.Null
  else
    let na, nb =
      if is_pg env then
        let num v =
          match v with
          | Value.Int _ | Value.Real _ -> v
          | _ -> refuse "operator does not exist (non-numeric operand)"
        in
        let x = num va in
        let y = num vb in
        (x, y)
      else (Coerce.to_numeric va, Coerce.to_numeric vb)
    in
    let as_real x y f =
      let fx = match x with Value.Int i -> Int64.to_float i | Value.Real r -> r | _ -> 0.0 in
      let fy = match y with Value.Int i -> Int64.to_float i | Value.Real r -> r | _ -> 0.0 in
      f fx fy
    in
    match (na, nb) with
    | Value.Int x, Value.Int y -> (
        let overflowed real_op =
          if is_sqlite env then Value.Real (as_real na nb real_op)
          else refuse "BIGINT value is out of range"
        in
        match op with
        | A.Add -> (
            match Numeric.checked_add x y with
            | Some r -> Value.Int r
            | None -> overflowed ( +. ))
        | A.Sub -> (
            match Numeric.checked_sub x y with
            | Some r -> Value.Int r
            | None -> overflowed ( -. ))
        | A.Mul -> (
            match Numeric.checked_mul x y with
            | Some r -> Value.Int r
            | None -> overflowed ( *. ))
        | A.Div ->
            if is_mysql env then
              if y = 0L then Value.Null
              else Value.Real (Int64.to_float x /. Int64.to_float y)
            else if y = 0L then
              if is_pg env then refuse "division by zero" else Value.Null
            else if x = Int64.min_int && y = -1L then
              if is_pg env then refuse "BIGINT value is out of range"
              else Value.Real 9.223372036854775808e18
            else Value.Int (Int64.div x y)
        | A.Rem ->
            if y = 0L then
              if is_pg env then refuse "division by zero" else Value.Null
            else if x = Int64.min_int && y = -1L then Value.Int 0L
            else Value.Int (Int64.rem x y)
        | _ -> invalid_arg "arith")
    | (Value.Int _ | Value.Real _), (Value.Int _ | Value.Real _) -> (
        let f op x y =
          match op with
          | A.Add -> x +. y
          | A.Sub -> x -. y
          | A.Mul -> x *. y
          | A.Div -> x /. y
          | A.Rem -> Float.rem x y
          | _ -> invalid_arg "arith"
        in
        match op with
        | (A.Div | A.Rem) when as_real na nb (fun _ y -> y) = 0.0 ->
            if is_pg env then refuse "division by zero" else Value.Null
        | _ -> Value.Real (as_real na nb (f op)))
    | _ -> Value.Null

and bitop env op ea eb =
  let va = value env ea in
  let vb = value env eb in
  if Value.is_null va || Value.is_null vb then Value.Null
  else if is_pg env then
    match (va, vb) with
    | Value.Int x, Value.Int y -> (
        match op with
        | A.Bit_and -> Value.Int (Int64.logand x y)
        | A.Bit_or -> Value.Int (Int64.logor x y)
        | A.Shift_left ->
            if y < 0L || y > 63L then Value.Int 0L
            else Value.Int (Int64.shift_left x (Int64.to_int y))
        | A.Shift_right ->
            if y < 0L || y > 63L then Value.Int 0L
            else Value.Int (Int64.shift_right x (Int64.to_int y))
        | _ -> invalid_arg "bitop")
    | _ -> refuse "operator does not exist (bitop on non-integers)"
  else
    match (Coerce.sqlite_cast_int va, Coerce.sqlite_cast_int vb) with
    | Value.Int x, Value.Int y -> (
        let shift dir x y =
          let y, dir = if y < 0L then (Int64.neg y, not dir) else (y, dir) in
          if y > 63L then 0L
          else if dir then Int64.shift_left x (Int64.to_int y)
          else Int64.shift_right x (Int64.to_int y)
        in
        match op with
        | A.Bit_and -> Value.Int (Int64.logand x y)
        | A.Bit_or -> Value.Int (Int64.logor x y)
        | A.Shift_left -> Value.Int (shift true x y)
        | A.Shift_right -> Value.Int (shift false x y)
        | _ -> invalid_arg "bitop")
    | _ -> Value.Null

and is_pred env ~negated arg rhs =
  let finish t = encode env (if negated then Tvl.not_ t else t) in
  match rhs with
  | A.Is_null -> finish (Tvl.of_bool (Value.is_null (value env arg)))
  | A.Is_true | A.Is_false -> (
      match value env arg with
      | Value.Null -> finish Tvl.False
      | v ->
          let want = match rhs with A.Is_true -> Tvl.True | _ -> Tvl.False in
          finish (Tvl.of_bool (Tvl.equal (truth env v) want)))
  | A.Is_expr other ->
      if not (is_sqlite env) then refuse "IS over scalars is sqlite-specific"
      else
        let va = value env arg in
        let vb = value env other in
        finish (compare_tvl env A.Null_safe_eq arg other va vb)
  | A.Is_distinct_from other ->
      if not (is_pg env) then refuse "IS DISTINCT FROM is postgres-specific"
      else
        let va = value env arg in
        let vb = value env other in
        finish (Tvl.not_ (compare_tvl env A.Null_safe_eq arg other va vb))

and between env ~negated arg lo hi =
  let coll =
    match coll_of env arg with
    | Some c -> c
    | None -> cmp_collation env lo hi
  in
  let v = value env arg in
  let vl = value env lo in
  let vh = value env hi in
  if is_pg env && not (pg_comparable v vl && pg_comparable v vh) then
    refuse "operator does not exist (mismatched types)"
  else
    let cmp x ex y ey =
      if Value.is_null x || Value.is_null y then None
      else
        let x, y =
          if is_sqlite env then affinity_adjust env ex ey x y
          else if is_mysql env then mysql_cmp_values x y
          else (x, y)
        in
        Some (Value.compare_total ~collation:coll x y)
    in
    let ge_lo =
      match cmp v arg vl lo with
      | None -> Tvl.Unknown
      | Some c -> Tvl.of_bool (c >= 0)
    in
    let le_hi =
      match cmp v arg vh hi with
      | None -> Tvl.Unknown
      | Some c -> Tvl.of_bool (c <= 0)
    in
    let t = Tvl.and_ ge_lo le_hi in
    encode env (if negated then Tvl.not_ t else t)

and in_list env ~negated arg list =
  let v = value env arg in
  if Value.is_null v then encode env Tvl.Unknown
  else
    let rec walk saw_null = function
      | [] -> if saw_null then Tvl.Unknown else Tvl.False
      | item :: rest ->
          let vi = value env item in
          if Value.is_null vi then walk true rest
          else if Tvl.equal (compare_tvl env A.Eq arg item v vi) Tvl.True then
            Tvl.True
          else walk saw_null rest
    in
    let t = walk false list in
    encode env (if negated then Tvl.not_ t else t)

and like env ~negated arg pattern escape =
  let v = value env arg in
  let p = value env pattern in
  let esc =
    match escape with
    | None -> None
    | Some e -> (
        match value env e with
        | Value.Text s when String.length s = 1 -> Some s.[0]
        | Value.Null -> None
        | _ -> refuse "ESCAPE expression must be a single character")
  in
  if Value.is_null v || Value.is_null p then encode env Tvl.Unknown
  else if
    is_pg env
    && not
         (match (v, p) with
         | Value.Text _, Value.Text _ -> true
         | _ -> false)
  then refuse "operator does not exist (LIKE on non-text)"
  else
    let case_sensitive =
      match env.dialect with
      | Dialect.Postgres_like -> true
      | Dialect.Mysql_like -> false
      | Dialect.Sqlite_like -> env.case_sensitive_like
    in
    let matched =
      Like_matcher.like ~case_sensitive ?escape:esc
        ~pattern:(Coerce.to_text env.dialect p)
        (Coerce.to_text env.dialect v)
    in
    let t = Tvl.of_bool matched in
    encode env (if negated then Tvl.not_ t else t)

and glob env ~negated arg pattern =
  if not (is_sqlite env) then refuse "GLOB is sqlite-specific"
  else
    let v = value env arg in
    let p = value env pattern in
    if Value.is_null v || Value.is_null p then encode env Tvl.Unknown
    else
      let matched =
        Like_matcher.glob
          ~pattern:(Coerce.to_text env.dialect p)
          (Coerce.to_text env.dialect v)
      in
      let t = Tvl.of_bool matched in
      encode env (if negated then Tvl.not_ t else t)

and case env operand branches else_ =
  let otherwise () =
    match else_ with Some e -> value env e | None -> Value.Null
  in
  match operand with
  | None ->
      let rec walk = function
        | [] -> otherwise ()
        | (cond, result) :: rest ->
            if Tvl.equal (tvl env cond) Tvl.True then value env result
            else walk rest
      in
      walk branches
  | Some op_expr ->
      let v = value env op_expr in
      let rec walk = function
        | [] -> otherwise ()
        | (cond, result) :: rest ->
            let vc = value env cond in
            if Tvl.equal (compare_tvl env A.Eq op_expr cond v vc) Tvl.True then
              value env result
            else walk rest
      in
      walk branches

(* ---- scalar functions: correct reference semantics ---- *)

and func env f args =
  let available =
    match (f, env.dialect) with
    | (A.F_typeof | A.F_quote), Dialect.Sqlite_like -> true
    | (A.F_typeof | A.F_quote), _ -> false
    | A.F_ifnull, (Dialect.Sqlite_like | Dialect.Mysql_like) -> true
    | A.F_ifnull, Dialect.Postgres_like -> false
    | A.F_instr, (Dialect.Sqlite_like | Dialect.Mysql_like) -> true
    | A.F_instr, Dialect.Postgres_like -> false
    | (A.F_least | A.F_greatest), (Dialect.Mysql_like | Dialect.Postgres_like)
      ->
        true
    | (A.F_least | A.F_greatest), Dialect.Sqlite_like -> false
    | _ -> true
  in
  if not available then refuse "no such function in this dialect"
  else
    let rec values = function
      | [] -> []
      | a :: rest ->
          let v = value env a in
          v :: values rest
    in
    apply env f (values args) args

and apply env f vs arg_exprs =
  let strict = is_pg env in
  let text v = Coerce.to_text env.dialect v in
  let any_null = List.exists Value.is_null vs in
  let null_or k = if any_null then Value.Null else k () in
  match (f, vs) with
  | A.F_abs, [ v ] ->
      null_or (fun () ->
          if strict && not (Value.is_numeric v) then refuse "abs(non-numeric)"
          else
            match Coerce.to_numeric v with
            | Value.Int i ->
                if i = Int64.min_int then
                  if is_sqlite env then refuse "integer overflow"
                  else refuse "BIGINT value is out of range"
                else Value.Int (Int64.abs i)
            | Value.Real r -> Value.Real (Float.abs r)
            | _ -> Value.Int 0L)
  | A.F_length, [ v ] ->
      null_or (fun () ->
          match v with
          | Value.Text s | Value.Blob s ->
              Value.Int (Int64.of_int (String.length s))
          | _ ->
              if strict then refuse "length(non-text)"
              else Value.Int (Int64.of_int (String.length (text v))))
  | A.F_lower, [ v ] ->
      null_or (fun () ->
          if strict && not (match v with Value.Text _ -> true | _ -> false)
          then refuse "lower(non-text)"
          else Value.Text (String.lowercase_ascii (text v)))
  | A.F_upper, [ v ] ->
      null_or (fun () ->
          if strict && not (match v with Value.Text _ -> true | _ -> false)
          then refuse "upper(non-text)"
          else Value.Text (String.uppercase_ascii (text v)))
  | A.F_coalesce, [] -> refuse "COALESCE needs arguments"
  | A.F_coalesce, vs -> (
      match List.find_opt (fun v -> not (Value.is_null v)) vs with
      | Some v -> v
      | None -> Value.Null)
  | A.F_ifnull, [ a; b ] -> if Value.is_null a then b else a
  | A.F_nullif, [ a; b ] ->
      if Value.is_null a then Value.Null
      else if Value.is_null b then a
      else
        let coll =
          match arg_exprs with
          | a0 :: b0 :: _ -> cmp_collation env a0 b0
          | _ -> Collation.Binary
        in
        if Value.compare_total ~collation:coll a b = 0 then Value.Null else a
  | A.F_typeof, [ v ] ->
      Value.Text
        (match v with
        | Value.Null -> "null"
        | Value.Int _ -> "integer"
        | Value.Real _ -> "real"
        | Value.Text _ -> "text"
        | Value.Blob _ -> "blob"
        | Value.Bool _ -> "integer")
  | A.F_trim, [ v ] ->
      null_or (fun () ->
          if strict && not (match v with Value.Text _ -> true | _ -> false)
          then refuse "trim(non-text)"
          else begin
            (* spaces only, unlike String.trim *)
            let s = text v in
            let n = String.length s in
            let i = ref 0 and j = ref n in
            while !i < n && s.[!i] = ' ' do incr i done;
            while !j > !i && s.[!j - 1] = ' ' do decr j done;
            Value.Text (String.sub s !i (!j - !i))
          end)
  | A.F_ltrim, [ v ] ->
      null_or (fun () ->
          if strict && not (match v with Value.Text _ -> true | _ -> false)
          then refuse "ltrim(non-text)"
          else
            let s = text v in
            let n = String.length s in
            let i = ref 0 in
            while !i < n && s.[!i] = ' ' do incr i done;
            Value.Text (String.sub s !i (n - !i)))
  | A.F_rtrim, [ v ] ->
      null_or (fun () ->
          if strict && not (match v with Value.Text _ -> true | _ -> false)
          then refuse "rtrim(non-text)"
          else
            let s = text v in
            let j = ref (String.length s) in
            while !j > 0 && s.[!j - 1] = ' ' do decr j done;
            Value.Text (String.sub s 0 !j))
  | A.F_substr, (v :: rest as all) when List.length all >= 2 && List.length all <= 3 ->
      null_or (fun () ->
          let s = text v in
          let nums =
            List.map
              (fun x ->
                match Coerce.to_numeric x with
                | Value.Int i -> Int64.to_int i
                | Value.Real r -> int_of_float r
                | _ -> 0)
              rest
          in
          let len = String.length s in
          let start, count =
            match nums with
            | [ st ] -> (st, len)
            | [ st; ct ] -> (st, ct)
            | _ -> (1, len)
          in
          let start0 =
            if start > 0 then start - 1
            else if start < 0 then max 0 (len + start)
            else 0
          in
          let count = max 0 count in
          let start0 = min start0 len in
          let count = min count (len - start0) in
          Value.Text (String.sub s start0 count))
  | A.F_replace, [ s; f_; t_ ] ->
      null_or (fun () ->
          let s = text s and f_ = text f_ and t_ = text t_ in
          if f_ = "" then Value.Text s
          else begin
            let buf = Buffer.create (String.length s) in
            let flen = String.length f_ in
            let i = ref 0 in
            while !i <= String.length s - flen do
              if String.sub s !i flen = f_ then begin
                Buffer.add_string buf t_;
                i := !i + flen
              end
              else begin
                Buffer.add_char buf s.[!i];
                incr i
              end
            done;
            Buffer.add_string buf (String.sub s !i (String.length s - !i));
            Value.Text (Buffer.contents buf)
          end)
  | A.F_instr, [ hay; needle ] ->
      null_or (fun () ->
          let h = text hay and n = text needle in
          let hl = String.length h and nl = String.length n in
          let rec find i =
            if i + nl > hl then 0
            else if String.sub h i nl = n then i + 1
            else find (i + 1)
          in
          Value.Int (Int64.of_int (find 0)))
  | A.F_hex, [ v ] ->
      null_or (fun () -> Value.Text (Value.hex_of_string (text v)))
  | A.F_round, (v :: rest as all) when List.length all >= 1 && List.length all <= 2 ->
      null_or (fun () ->
          if strict && not (Value.is_numeric v) then refuse "round(non-numeric)"
          else
            let digits =
              match rest with
              | [ d ] -> (
                  match Coerce.to_numeric d with
                  | Value.Int i -> Int64.to_int i
                  | Value.Real r -> int_of_float r
                  | _ -> 0)
              | _ -> 0
            in
            match Coerce.to_numeric v with
            | Value.Int i -> Value.Real (Int64.to_float i)
            | Value.Real r ->
                let scale = 10.0 ** float_of_int (max 0 digits) in
                Value.Real (Float.round (r *. scale) /. scale)
            | _ -> Value.Real 0.0)
  | A.F_sign, [ v ] ->
      null_or (fun () ->
          match Coerce.to_numeric v with
          | Value.Int i -> Value.Int (Int64.of_int (compare i 0L))
          | Value.Real r -> Value.Int (Int64.of_int (compare r 0.0))
          | _ -> Value.Null)
  | (A.F_least | A.F_greatest), [] -> refuse "LEAST/GREATEST need arguments"
  | (A.F_least | A.F_greatest), vs ->
      let non_null = List.filter (fun v -> not (Value.is_null v)) vs in
      if is_mysql env && List.length non_null <> List.length vs then Value.Null
      else if non_null = [] then Value.Null
      else
        let keep =
          match f with A.F_least -> fun c -> c < 0 | _ -> fun c -> c > 0
        in
        List.fold_left
          (fun acc v -> if keep (Value.compare_total v acc) then v else acc)
          (List.hd non_null) (List.tl non_null)
  | A.F_quote, [ v ] -> Value.Text (Value.to_sql_literal v)
  | _, _ -> refuse "wrong number of arguments"

(* ------------------------------------------------------------------ *)
(* entry points: one catch per expression                              *)

let eval env e = match value env e with v -> Ok v | exception Refused msg -> Error msg
let eval_tvl env e = match tvl env e with t -> Ok t | exception Refused msg -> Error msg
