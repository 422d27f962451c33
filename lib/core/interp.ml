open Sqlval
module A = Sqlast.Ast

let ( let* ) = Result.bind

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

let const_env ?(case_sensitive_like = false) dialect =
  {
    dialect;
    case_sensitive_like;
    lookup = (fun ~table:_ ~column -> Error ("no such column: " ^ column));
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
(* helpers                                                             *)

let is_sqlite env = Dialect.equal env.dialect Dialect.Sqlite_like
let is_mysql env = Dialect.equal env.dialect Dialect.Mysql_like
let is_pg env = Dialect.equal env.dialect Dialect.Postgres_like

let truth env (v : Value.t) : (Tvl.t, string) result =
  Coerce.to_tvl env.dialect v

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

let rec eval env (e : A.expr) : (Value.t, string) result =
  match e with
  | A.Lit v -> Ok v
  | A.Col { table; column } ->
      let* b = env.lookup ~table ~column in
      Ok b.b_value
  | A.Collate (inner, _) -> eval env inner
  | A.Unary (op, inner) -> unary env op inner
  | A.Binary (op, a, b) -> binary env op a b
  | A.Is { negated; arg; rhs } -> is_pred env ~negated arg rhs
  | A.Between { negated; arg; lo; hi } -> between env ~negated arg lo hi
  | A.In_list { negated; arg; list } -> in_list env ~negated arg list
  | A.Like { negated; arg; pattern; escape } ->
      like env ~negated arg pattern escape
  | A.Glob { negated; arg; pattern } -> glob env ~negated arg pattern
  | A.Cast (ty, inner) ->
      let* v = eval env inner in
      Coerce.cast env.dialect ty v
  | A.Func (f, args) -> func env f args
  | A.Agg _ -> Error "aggregate in oracle interpreter"
  | A.Case { operand; branches; else_ } -> case env operand branches else_

and eval_tvl env e =
  let* v = eval env e in
  truth env v

and unary env op inner =
  match op with
  | A.Not ->
      let* t = eval_tvl env inner in
      Ok (encode env (Tvl.not_ t))
  | A.Pos -> eval env inner
  | A.Neg -> (
      let* v = eval env inner in
      if Value.is_null v then Ok Value.Null
      else if is_pg env then
        match v with
        | Value.Int i -> (
            match Numeric.checked_neg i with
            | Some r -> Ok (Value.Int r)
            | None -> Error "BIGINT value is out of range")
        | Value.Real r -> Ok (Value.Real (-.r))
        | _ -> Error "operator does not exist: - non-numeric"
      else
        match Coerce.to_numeric v with
        | Value.Int i -> (
            match Numeric.checked_neg i with
            | Some r -> Ok (Value.Int r)
            | None -> Ok (Value.Real 9.223372036854775808e18))
        | Value.Real r -> Ok (Value.Real (-.r))
        | _ -> Ok Value.Null)
  | A.Bit_not -> (
      let* v = eval env inner in
      if Value.is_null v then Ok Value.Null
      else if is_pg env then
        match v with
        | Value.Int i -> Ok (Value.Int (Int64.lognot i))
        | _ -> Error "~ requires integer"
      else
        match Coerce.sqlite_cast_int v with
        | Value.Int i -> Ok (Value.Int (Int64.lognot i))
        | _ -> Ok Value.Null)

and compare_tvl env op ea eb va vb : (Tvl.t, string) result =
  let coll = cmp_collation env ea eb in
  let null_safe = op = A.Null_safe_eq in
  if null_safe then begin
    if is_pg env && not (pg_comparable va vb) then
      Error "operator does not exist (mismatched types)"
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
      Ok (Tvl.of_bool eq)
  end
  else if Value.is_null va || Value.is_null vb then Ok Tvl.Unknown
  else if is_pg env && not (pg_comparable va vb) then
    Error "operator does not exist (mismatched types)"
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
    Ok (Tvl.of_bool holds)

and binary env op a b =
  match op with
  | A.And ->
      let* ta = eval_tvl env a in
      if Tvl.equal ta Tvl.False then Ok (encode env Tvl.False)
      else
        let* tb = eval_tvl env b in
        Ok (encode env (Tvl.and_ ta tb))
  | A.Or ->
      let* ta = eval_tvl env a in
      if Tvl.equal ta Tvl.True then Ok (encode env Tvl.True)
      else
        let* tb = eval_tvl env b in
        Ok (encode env (Tvl.or_ ta tb))
  | A.Concat when is_mysql env -> binary env A.Or a b
  | A.Concat ->
      let* va = eval env a in
      let* vb = eval env b in
      if Value.is_null va || Value.is_null vb then Ok Value.Null
      else
        Ok
          (Value.Text
             (Coerce.to_text env.dialect va ^ Coerce.to_text env.dialect vb))
  | A.Eq | A.Neq | A.Lt | A.Le | A.Gt | A.Ge | A.Null_safe_eq ->
      let* va = eval env a in
      let* vb = eval env b in
      let* t = compare_tvl env op a b va vb in
      Ok (encode env t)
  | A.Add | A.Sub | A.Mul | A.Div | A.Rem -> arith env op a b
  | A.Bit_and | A.Bit_or | A.Shift_left | A.Shift_right -> bitop env op a b

and arith env op ea eb =
  let* va = eval env ea in
  let* vb = eval env eb in
  if Value.is_null va || Value.is_null vb then Ok Value.Null
  else
    let* na, nb =
      if is_pg env then
        let num v =
          match v with
          | Value.Int _ | Value.Real _ -> Ok v
          | _ -> Error "operator does not exist (non-numeric operand)"
        in
        let* x = num va in
        let* y = num vb in
        Ok (x, y)
      else Ok (Coerce.to_numeric va, Coerce.to_numeric vb)
    in
    let as_real x y f =
      let fx = match x with Value.Int i -> Int64.to_float i | Value.Real r -> r | _ -> 0.0 in
      let fy = match y with Value.Int i -> Int64.to_float i | Value.Real r -> r | _ -> 0.0 in
      f fx fy
    in
    match (na, nb) with
    | Value.Int x, Value.Int y -> (
        let overflowed real_op =
          if is_sqlite env then
            Ok (Value.Real (as_real na nb real_op))
          else Error "BIGINT value is out of range"
        in
        match op with
        | A.Add -> (
            match Numeric.checked_add x y with
            | Some r -> Ok (Value.Int r)
            | None -> overflowed ( +. ))
        | A.Sub -> (
            match Numeric.checked_sub x y with
            | Some r -> Ok (Value.Int r)
            | None -> overflowed ( -. ))
        | A.Mul -> (
            match Numeric.checked_mul x y with
            | Some r -> Ok (Value.Int r)
            | None -> overflowed ( *. ))
        | A.Div ->
            if is_mysql env then
              if y = 0L then Ok Value.Null
              else Ok (Value.Real (Int64.to_float x /. Int64.to_float y))
            else if y = 0L then
              if is_pg env then Error "division by zero" else Ok Value.Null
            else if x = Int64.min_int && y = -1L then
              if is_pg env then Error "BIGINT value is out of range"
              else Ok (Value.Real 9.223372036854775808e18)
            else Ok (Value.Int (Int64.div x y))
        | A.Rem ->
            if y = 0L then
              if is_pg env then Error "division by zero" else Ok Value.Null
            else if x = Int64.min_int && y = -1L then Ok (Value.Int 0L)
            else Ok (Value.Int (Int64.rem x y))
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
            if is_pg env then Error "division by zero" else Ok Value.Null
        | _ -> Ok (Value.Real (as_real na nb (f op))))
    | _ -> Ok Value.Null

and bitop env op ea eb =
  let* va = eval env ea in
  let* vb = eval env eb in
  if Value.is_null va || Value.is_null vb then Ok Value.Null
  else if is_pg env then
    match (va, vb) with
    | Value.Int x, Value.Int y -> (
        match op with
        | A.Bit_and -> Ok (Value.Int (Int64.logand x y))
        | A.Bit_or -> Ok (Value.Int (Int64.logor x y))
        | A.Shift_left ->
            if y < 0L || y > 63L then Ok (Value.Int 0L)
            else Ok (Value.Int (Int64.shift_left x (Int64.to_int y)))
        | A.Shift_right ->
            if y < 0L || y > 63L then Ok (Value.Int 0L)
            else Ok (Value.Int (Int64.shift_right x (Int64.to_int y)))
        | _ -> invalid_arg "bitop")
    | _ -> Error "operator does not exist (bitop on non-integers)"
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
        | A.Bit_and -> Ok (Value.Int (Int64.logand x y))
        | A.Bit_or -> Ok (Value.Int (Int64.logor x y))
        | A.Shift_left -> Ok (Value.Int (shift true x y))
        | A.Shift_right -> Ok (Value.Int (shift false x y))
        | _ -> invalid_arg "bitop")
    | _ -> Ok Value.Null

and is_pred env ~negated arg rhs =
  let finish t =
    let t = if negated then Tvl.not_ t else t in
    Ok (encode env t)
  in
  match rhs with
  | A.Is_null ->
      let* v = eval env arg in
      finish (Tvl.of_bool (Value.is_null v))
  | A.Is_true | A.Is_false -> (
      let* v = eval env arg in
      match v with
      | Value.Null -> finish Tvl.False
      | _ ->
          let want = match rhs with A.Is_true -> Tvl.True | _ -> Tvl.False in
          let* t = truth env v in
          finish (Tvl.of_bool (Tvl.equal t want)))
  | A.Is_expr other ->
      if not (is_sqlite env) then Error "IS over scalars is sqlite-specific"
      else
        let* va = eval env arg in
        let* vb = eval env other in
        let* t = compare_tvl env A.Null_safe_eq arg other va vb in
        finish t
  | A.Is_distinct_from other ->
      if not (is_pg env) then Error "IS DISTINCT FROM is postgres-specific"
      else
        let* va = eval env arg in
        let* vb = eval env other in
        let* t = compare_tvl env A.Null_safe_eq arg other va vb in
        finish (Tvl.not_ t)

and between env ~negated arg lo hi =
  let coll =
    match coll_of env arg with
    | Some c -> c
    | None -> cmp_collation env lo hi
  in
  let* v = eval env arg in
  let* vl = eval env lo in
  let* vh = eval env hi in
  if is_pg env && not (pg_comparable v vl && pg_comparable v vh) then
    Error "operator does not exist (mismatched types)"
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
    let t = if negated then Tvl.not_ t else t in
    Ok (encode env t)

and in_list env ~negated arg list =
  let* v = eval env arg in
  if Value.is_null v then Ok (encode env Tvl.Unknown)
  else
    let rec walk saw_null = function
      | [] -> Ok (if saw_null then Tvl.Unknown else Tvl.False)
      | item :: rest ->
          let* vi = eval env item in
          if Value.is_null vi then walk true rest
          else
            let* t = compare_tvl env A.Eq arg item v vi in
            if Tvl.equal t Tvl.True then Ok Tvl.True else walk saw_null rest
    in
    let* t = walk false list in
    let t = if negated then Tvl.not_ t else t in
    Ok (encode env t)

and like env ~negated arg pattern escape =
  let* v = eval env arg in
  let* p = eval env pattern in
  let* esc =
    match escape with
    | None -> Ok None
    | Some e -> (
        let* ve = eval env e in
        match ve with
        | Value.Text s when String.length s = 1 -> Ok (Some s.[0])
        | Value.Null -> Ok None
        | _ -> Error "ESCAPE expression must be a single character")
  in
  if Value.is_null v || Value.is_null p then Ok (encode env Tvl.Unknown)
  else if
    is_pg env
    && not
         (match (v, p) with
         | Value.Text _, Value.Text _ -> true
         | _ -> false)
  then Error "operator does not exist (LIKE on non-text)"
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
    Ok (encode env (if negated then Tvl.not_ t else t))

and glob env ~negated arg pattern =
  if not (is_sqlite env) then Error "GLOB is sqlite-specific"
  else
    let* v = eval env arg in
    let* p = eval env pattern in
    if Value.is_null v || Value.is_null p then Ok (encode env Tvl.Unknown)
    else
      let matched =
        Like_matcher.glob
          ~pattern:(Coerce.to_text env.dialect p)
          (Coerce.to_text env.dialect v)
      in
      let t = Tvl.of_bool matched in
      Ok (encode env (if negated then Tvl.not_ t else t))

and case env operand branches else_ =
  match operand with
  | None ->
      let rec walk = function
        | [] -> ( match else_ with Some e -> eval env e | None -> Ok Value.Null)
        | (cond, result) :: rest ->
            let* t = eval_tvl env cond in
            if Tvl.equal t Tvl.True then eval env result else walk rest
      in
      walk branches
  | Some op_expr ->
      let* v = eval env op_expr in
      let rec walk = function
        | [] -> ( match else_ with Some e -> eval env e | None -> Ok Value.Null)
        | (cond, result) :: rest ->
            let* vc = eval env cond in
            let* t = compare_tvl env A.Eq op_expr cond v vc in
            if Tvl.equal t Tvl.True then eval env result else walk rest
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
  if not available then Error "no such function in this dialect"
  else
    let* vs =
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | a :: rest ->
            let* v = eval env a in
            go (v :: acc) rest
      in
      go [] args
    in
    apply env f vs args

and apply env f vs arg_exprs =
  let strict = is_pg env in
  let text v = Coerce.to_text env.dialect v in
  let any_null = List.exists Value.is_null vs in
  let null_or k = if any_null then Ok Value.Null else k () in
  match (f, vs) with
  | A.F_abs, [ v ] ->
      null_or (fun () ->
          if strict && not (Value.is_numeric v) then Error "abs(non-numeric)"
          else
            match Coerce.to_numeric v with
            | Value.Int i ->
                if i = Int64.min_int then
                  if is_sqlite env then Error "integer overflow"
                  else Error "BIGINT value is out of range"
                else Ok (Value.Int (Int64.abs i))
            | Value.Real r -> Ok (Value.Real (Float.abs r))
            | _ -> Ok (Value.Int 0L))
  | A.F_length, [ v ] ->
      null_or (fun () ->
          match v with
          | Value.Text s | Value.Blob s ->
              Ok (Value.Int (Int64.of_int (String.length s)))
          | _ ->
              if strict then Error "length(non-text)"
              else Ok (Value.Int (Int64.of_int (String.length (text v)))))
  | A.F_lower, [ v ] ->
      null_or (fun () ->
          if strict && not (match v with Value.Text _ -> true | _ -> false)
          then Error "lower(non-text)"
          else Ok (Value.Text (String.lowercase_ascii (text v))))
  | A.F_upper, [ v ] ->
      null_or (fun () ->
          if strict && not (match v with Value.Text _ -> true | _ -> false)
          then Error "upper(non-text)"
          else Ok (Value.Text (String.uppercase_ascii (text v))))
  | A.F_coalesce, [] -> Error "COALESCE needs arguments"
  | A.F_coalesce, vs -> (
      match List.find_opt (fun v -> not (Value.is_null v)) vs with
      | Some v -> Ok v
      | None -> Ok Value.Null)
  | A.F_ifnull, [ a; b ] -> Ok (if Value.is_null a then b else a)
  | A.F_nullif, [ a; b ] ->
      if Value.is_null a then Ok Value.Null
      else if Value.is_null b then Ok a
      else
        let coll =
          match (arg_exprs, arg_exprs) with
          | a0 :: b0 :: _, _ -> cmp_collation env a0 b0
          | _ -> Collation.Binary
        in
        if Value.compare_total ~collation:coll a b = 0 then Ok Value.Null
        else Ok a
  | A.F_typeof, [ v ] ->
      Ok
        (Value.Text
           (match v with
           | Value.Null -> "null"
           | Value.Int _ -> "integer"
           | Value.Real _ -> "real"
           | Value.Text _ -> "text"
           | Value.Blob _ -> "blob"
           | Value.Bool _ -> "integer"))
  | A.F_trim, [ v ] ->
      null_or (fun () ->
          if strict && not (match v with Value.Text _ -> true | _ -> false)
          then Error "trim(non-text)"
          else begin
            (* spaces only, unlike String.trim *)
            let s = text v in
            let n = String.length s in
            let i = ref 0 and j = ref n in
            while !i < n && s.[!i] = ' ' do incr i done;
            while !j > !i && s.[!j - 1] = ' ' do decr j done;
            Ok (Value.Text (String.sub s !i (!j - !i)))
          end)
  | A.F_ltrim, [ v ] ->
      null_or (fun () ->
          if strict && not (match v with Value.Text _ -> true | _ -> false)
          then Error "ltrim(non-text)"
          else
            let s = text v in
            let n = String.length s in
            let i = ref 0 in
            while !i < n && s.[!i] = ' ' do incr i done;
            Ok (Value.Text (String.sub s !i (n - !i))))
  | A.F_rtrim, [ v ] ->
      null_or (fun () ->
          if strict && not (match v with Value.Text _ -> true | _ -> false)
          then Error "rtrim(non-text)"
          else
            let s = text v in
            let j = ref (String.length s) in
            while !j > 0 && s.[!j - 1] = ' ' do decr j done;
            Ok (Value.Text (String.sub s 0 !j)))
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
          Ok (Value.Text (String.sub s start0 count)))
  | A.F_replace, [ s; f_; t_ ] ->
      null_or (fun () ->
          let s = text s and f_ = text f_ and t_ = text t_ in
          if f_ = "" then Ok (Value.Text s)
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
            Ok (Value.Text (Buffer.contents buf))
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
          Ok (Value.Int (Int64.of_int (find 0))))
  | A.F_hex, [ v ] ->
      null_or (fun () ->
          Ok (Value.Text (Value.hex_of_string (text v))))
  | A.F_round, (v :: rest as all) when List.length all >= 1 && List.length all <= 2 ->
      null_or (fun () ->
          if strict && not (Value.is_numeric v) then Error "round(non-numeric)"
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
            | Value.Int i -> Ok (Value.Real (Int64.to_float i))
            | Value.Real r ->
                let scale = 10.0 ** float_of_int (max 0 digits) in
                Ok (Value.Real (Float.round (r *. scale) /. scale))
            | _ -> Ok (Value.Real 0.0))
  | A.F_sign, [ v ] ->
      null_or (fun () ->
          match Coerce.to_numeric v with
          | Value.Int i -> Ok (Value.Int (Int64.of_int (compare i 0L)))
          | Value.Real r -> Ok (Value.Int (Int64.of_int (compare r 0.0)))
          | _ -> Ok Value.Null)
  | (A.F_least | A.F_greatest), [] -> Error "LEAST/GREATEST need arguments"
  | (A.F_least | A.F_greatest), vs ->
      let non_null = List.filter (fun v -> not (Value.is_null v)) vs in
      if is_mysql env && List.length non_null <> List.length vs then
        Ok Value.Null
      else if non_null = [] then Ok Value.Null
      else
        let keep =
          match f with A.F_least -> fun c -> c < 0 | _ -> fun c -> c > 0
        in
        Ok
          (List.fold_left
             (fun acc v -> if keep (Value.compare_total v acc) then v else acc)
             (List.hd non_null) (List.tl non_null))
  | A.F_quote, [ v ] -> Ok (Value.Text (Value.to_sql_literal v))
  | _, _ -> Error "wrong number of arguments"

(* ------------------------------------------------------------------ *)
(* compiled containment checks                                         *)

(* The rectifier evaluates an expression, then re-evaluates a decorated
   form of the same expression (NOT e, e IS NULL) to double-check its own
   output — under the tree walker that is up to three full AST walks per
   pivot.  A compiled check shares one memoized evaluation of the base
   expression and derives the decorated forms by value-level combinators
   whose semantics provably match the corresponding AST nodes:

   - [not_]: [unary env A.Not e] is [encode (not (truth (eval e)))];
   - [is_null]: [is_pred ~negated:false e A.Is_null] is
     [encode (of_bool (is_null (eval e)))];

   so rectification's postcondition still checks real evaluations, just
   without walking [e] again. *)
module Compiled = struct
  type t = { value : (Value.t, string) result Lazy.t; env : env }

  let compile env e = { value = lazy (eval env e); env }
  let value t = Lazy.force t.value

  let tvl t =
    let* v = value t in
    truth t.env v

  let not_ t =
    {
      t with
      value =
        lazy
          (let* tv = tvl t in
           Ok (encode t.env (Tvl.not_ tv)));
    }

  let is_null t =
    {
      t with
      value =
        lazy
          (let* v = value t in
           Ok (encode t.env (Tvl.of_bool (Value.is_null v))));
    }
end
