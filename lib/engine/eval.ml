(* Expressions compile to closures over the env's current tuple.

   The per-row rule: a compiled closure returns a bare result — a value
   from [compile], a truth value from [compile_pred] — and an error
   leaves it as the private [Eval_error], raised with [raise_notrace]
   and caught once per statement by [run].  So a node neither wraps its
   result nor re-matches its operands' errors, and a boolean node in a
   boolean context never encodes its truth value as a dialect value for
   its parent to decode.  Operands are bound with [let], in SQL
   evaluation order (OCaml evaluates a call's arguments right to left).
   The walks over IN items, CASE branches and function arguments are
   top-level functions rather than closures made per evaluation; only
   code that runs once per compilation builds closures. *)

open Sqlval
module A = Sqlast.Ast

(* ------------------------------------------------------------------ *)
(* Bindings and slots                                                  *)

(* names are compared lowercase; generated ones already are, so skip the
   copy then *)
let lower = Storage.Schema.lower_name

type binding = {
  b_alias : string; (* lowercase alias (or table name) *)
  b_columns : (string * Datatype.t * Collation.t) array;
}

let binding_of_table (schema : Storage.Schema.table) ~alias =
  {
    b_alias = lower alias;
    b_columns =
      Array.map
        (fun (c : Storage.Schema.column) ->
          (lower c.Storage.Schema.name, c.ty, c.collation))
        schema.Storage.Schema.columns;
  }

let resolve_slot (bindings : binding list) ~table ~column :
    (int * int * Datatype.t * Collation.t, Errors.t) result =
  let col = lower column in
  let lookup bi b =
    let rec go i =
      if i >= Array.length b.b_columns then None
      else
        let name, dt, coll = b.b_columns.(i) in
        if name = col then Some (bi, i, dt, coll) else go (i + 1)
    in
    go 0
  in
  match table with
  | Some t -> (
      let t = lower t in
      let rec find bi = function
        | [] -> None
        | b :: rest -> if b.b_alias = t then Some (bi, b) else find (bi + 1) rest
      in
      match find 0 bindings with
      | None -> Error (Errors.makef Errors.No_such_table "no such table: %s" t)
      | Some (bi, b) -> (
          match lookup bi b with
          | Some r -> Ok r
          | None ->
              Error
                (Errors.makef Errors.No_such_column "no such column: %s.%s" t
                   column)))
  | None -> (
      match List.filter_map Fun.id (List.mapi lookup bindings) with
      | [ r ] -> Ok r
      | [] ->
          Error (Errors.makef Errors.No_such_column "no such column: %s" column)
      | _ :: _ ->
          Error
            (Errors.makef Errors.Ambiguous_column "ambiguous column name: %s"
               column))

type env = {
  dialect : Dialect.t;
  bugs : Bug.set;
  case_sensitive_like : bool;
  coverage : Coverage.t option;
  layout : binding list;
  cur : Value.t array array ref;
}

let null_tuple layout =
  Array.of_list
    (List.map (fun b -> Array.map (fun _ -> Value.Null) b.b_columns) layout)

let with_layout env layout = { env with layout; cur = ref (null_tuple layout) }

let const_env ?(bugs = Bug.empty_set) ?(case_sensitive_like = false) dialect =
  {
    dialect;
    bugs;
    case_sensitive_like;
    coverage = None;
    layout = [];
    cur = ref [||];
  }

let cov env point =
  match env.coverage with None -> () | Some c -> Coverage.hit c point

let bug env b = Bug.on env.bugs b

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)

(* An evaluation error, on its way from the failing node to the
   statement's [run] (or [catch]).  Only [fail] raises it and only those
   two catch it; [Errors.Crash] passes through. *)
exception Eval_error of Errors.t

let fail e = raise_notrace (Eval_error e)
let failf code fmt = Printf.ksprintf (fun m -> fail (Errors.make code m)) fmt
let run f = match f () with v -> Ok v | exception Eval_error e -> Error e
let catch f x ~error = try f x with Eval_error e -> error e

let bool_value dialect (t : Tvl.t) : Value.t =
  match dialect with
  | Dialect.Postgres_like -> (
      match t with
      | Tvl.True -> Value.Bool true
      | Tvl.False -> Value.Bool false
      | Tvl.Unknown -> Value.Null)
  | Dialect.Sqlite_like | Dialect.Mysql_like -> (
      match t with
      | Tvl.True -> Value.Int 1L
      | Tvl.False -> Value.Int 0L
      | Tvl.Unknown -> Value.Null)

let coerce_tvl env (v : Value.t) : Tvl.t =
  match Coerce.to_tvl env.dialect v with
  | Ok t -> t
  | Error msg -> fail (Errors.make Errors.Type_error msg)

(* Truth value of a value, with the mysql TEXT-double truncation bug
   injected here so that every boolean context inherits it. *)
let value_tvl env (v : Value.t) : Tvl.t =
  match v with
  | Value.Text s
    when Dialect.equal env.dialect Dialect.Mysql_like
         && bug env Bug.My_text_double_bool_trunc -> (
      match Numeric.numeric_prefix s with
      | `Real r -> Tvl.of_bool (Int64.of_float (Float.trunc r) <> 0L)
      | `Int _ | `None -> coerce_tvl env v)
  | _ -> coerce_tvl env v

(* ------------------------------------------------------------------ *)
(* Static metadata                                                     *)

let rec column_meta env (e : A.expr) : (Datatype.t * Collation.t) option =
  match e with
  | A.Col { table; column } -> (
      match resolve_slot env.layout ~table ~column with
      | Ok (_, _, dt, coll) -> Some (dt, coll)
      | Error _ -> None)
  | A.Collate (inner, c) -> (
      match column_meta env inner with
      | Some (dt, _) -> Some (dt, c)
      | None -> Some (Datatype.Any, c))
  | A.Cast (ty, _) -> Some (ty, Collation.Binary)
  | A.Unary (A.Pos, inner) -> column_meta env inner
  | _ -> None

(* An operand's static side: its expression and its [column_meta],
   taken while compiling it so that a column reference resolves once. *)
type operand = { o_expr : A.expr; o_meta : (Datatype.t * Collation.t) option }

let operand env e = { o_expr = e; o_meta = column_meta env e }

(* an explicit COLLATE, or a non-BINARY column collation *)
let rec explicit_of (e : A.expr) meta =
  match e with
  | A.Collate (_, c) -> Some c
  | A.Col _ -> (
      match meta with
      | Some (_, c) when not (Collation.equal c Collation.Binary) -> Some c
      | _ -> None)
  | A.Unary (A.Pos, inner) -> explicit_of inner meta
  | _ -> None

let explicit_collation env e = explicit_of e (column_meta env e)

let operand_collation a b =
  match explicit_of a.o_expr a.o_meta with
  | Some c -> c
  | None -> (
      match explicit_of b.o_expr b.o_meta with
      | Some c -> c
      | None -> Collation.Binary)

let comparison_collation env a b =
  operand_collation (operand env a) (operand env b)

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

(* SQLite applies NUMERIC affinity to a TEXT/BLOB operand when the other
   side has numeric affinity (and TEXT affinity symmetrically); the paper's
   Listing 7 class depends on this machinery. *)
let adjust_numeric v =
  match v with
  | Value.Text _ | Value.Blob _ -> Coerce.apply_affinity Datatype.A_numeric v
  | _ -> v

let adjust_text v =
  match v with
  | Value.Int _ | Value.Real _ -> Coerce.apply_affinity Datatype.A_text v
  | _ -> v

(* Which adjustment sqlite's comparison applies to one operand. *)
type adjust = Keep | To_numeric | To_text

let adjust_fn = function
  | Keep -> Fun.id
  | To_numeric -> adjust_numeric
  | To_text -> adjust_text

(* The affinity decision only reads operand metadata, so it can be taken
   once per (expression pair, binding layout) and reused per row — the
   query executor (Engine.Compile) does exactly that via the [*_prep]
   entry points. *)
let sqlite_affinity_sides env a b : adjust * adjust =
  if bug env Bug.Sq_affinity_compare_skip then (Keep, Keep)
  else
    let affinity_of o =
      Option.map (fun (dt, _) -> Datatype.affinity dt) o.o_meta
    in
    let numericish = function
      | Some Datatype.A_integer | Some Datatype.A_real | Some Datatype.A_numeric
        ->
          true
      | Some Datatype.A_text | Some Datatype.A_blob | Some Datatype.A_none
      | None ->
          false
    in
    let textish aff = aff = Some Datatype.A_text in
    let aa = affinity_of a and ab = affinity_of b in
    if numericish aa && not (numericish ab) then (Keep, To_numeric)
    else if numericish ab && not (numericish aa) then (To_numeric, Keep)
    else if textish aa && ab = None then (Keep, To_text)
    else if textish ab && aa = None then (To_text, Keep)
    else (Keep, Keep)

let sqlite_affinity_prep env a b : (Value.t -> Value.t) * (Value.t -> Value.t)
    =
  let ka, kb = sqlite_affinity_sides env a b in
  (adjust_fn ka, adjust_fn kb)

let text_compare env coll a b =
  if Collation.equal coll Collation.Rtrim
     && bug env Bug.Sq_rtrim_compare_asymmetric
  then
    (* trims only the left operand *)
    String.compare (Collation.key Collation.Rtrim a) b
  else Collation.compare coll a b

(* Cross-class comparison like Value.compare_total but with the engine's
   collation hook, so the RTRIM injection point covers it. *)
let compare_values env coll (a : Value.t) (b : Value.t) : int =
  match (a, b) with
  | Value.Text x, Value.Text y -> text_compare env coll x y
  | _ -> Value.compare_collated coll a b

let pg_comparable (a : Value.t) (b : Value.t) =
  let open Value in
  match (storage_class a, storage_class b) with
  | C_null, _ | _, C_null -> true
  | (C_int | C_real), (C_int | C_real) -> true
  | C_text, C_text | C_blob, C_blob | C_bool, C_bool -> true
  | _ -> false

let pg_type_mismatch a b =
  fail
    (Errors.makef Errors.Type_error "operator does not exist: %s vs %s"
       (Value.show a) (Value.show b))

let op_of_compare op c =
  match op with
  | A.Eq -> c = 0
  | A.Neq -> c <> 0
  | A.Lt -> c < 0
  | A.Le -> c <= 0
  | A.Gt -> c > 0
  | A.Ge -> c >= 0
  | _ -> invalid_arg "op_of_compare"

(* mysql compares numerically unless both operands are text or both blob *)
let mysql_compare env coll (va : Value.t) (vb : Value.t) =
  match (va, vb) with
  | Value.Text _, Value.Text _ | Value.Blob _, Value.Blob _ ->
      compare_values env coll va vb
  | _ -> compare_values env coll (Coerce.to_numeric va) (Coerce.to_numeric vb)

let literal_int (e : A.expr) =
  match e with A.Lit (Value.Int i) -> Some i | _ -> None

let int_column_width o =
  match o.o_meta with
  | Some (Datatype.Int { width; _ }, _) -> Some width
  | _ -> None

(* The static slice of a comparison: everything derived from the operand
   expressions and binding metadata (never from row values), computed
   once and replayed per row by {!compare_apply}. *)
type cmp_prep = {
  cp_op : A.binop;
  cp_coll : Collation.t;
  cp_null_safe : bool;
  cp_oor_nullsafe : bool;  (* mysql <=> against an out-of-range literal *)
  cp_fa : Value.t -> Value.t;  (* sqlite affinity pre-adjustment, operand a *)
  cp_fb : Value.t -> Value.t;
  cp_a_kept : bool;  (* [cp_fa] is the identity *)
}

let compare_prep env op a b : cmp_prep =
  let coll = operand_collation a b in
  let null_safe = match op with A.Null_safe_eq -> true | _ -> false in
  (* mysql Listing 12 class: <=> against an out-of-range literal *)
  let out_of_range_nullsafe =
    null_safe
    && Dialect.equal env.dialect Dialect.Mysql_like
    && bug env Bug.My_null_safe_eq_out_of_range
    &&
    let beyond col lit =
      match (int_column_width col, literal_int lit.o_expr) with
      | Some w, Some i ->
          let lo, hi = Datatype.int_range w in
          i < lo || i > hi
      | _ -> false
    in
    beyond a b || beyond b a
  in
  let fa, fb, a_kept =
    match env.dialect with
    | Dialect.Sqlite_like -> (
        let ka, kb = sqlite_affinity_sides env a b in
        let fa = adjust_fn ka and fb = adjust_fn kb and a_kept = ka = Keep in
        (* Listing-7-style folding bug: literals carry no affinity, but the
           buggy constant folder coerces a text literal compared against a
           numeric literal anyway, so 'abc' > 5 goes through 0 > 5. *)
        if bug env Bug.Sq_fold_affinity_cmp then
          let numericish = function
            | Value.Int _ | Value.Real _ -> true
            | _ -> false
          and textish = function Value.Text _ -> true | _ -> false in
          match (a.o_expr, b.o_expr) with
          | A.Lit la, A.Lit lb when numericish la && textish lb ->
              (fa, Coerce.to_numeric, a_kept)
          | A.Lit la, A.Lit lb when textish la && numericish lb ->
              (Coerce.to_numeric, fb, false)
          | _ -> (fa, fb, a_kept)
        else (fa, fb, a_kept))
    | Dialect.Mysql_like | Dialect.Postgres_like -> (Fun.id, Fun.id, true)
  in
  {
    cp_op = op;
    cp_coll = coll;
    cp_null_safe = null_safe;
    cp_oor_nullsafe = out_of_range_nullsafe;
    cp_fa = fa;
    cp_fb = fb;
    cp_a_kept = a_kept;
  }

let compare_rhs (p : cmp_prep) v = if p.cp_a_kept then Some (p.cp_fb v) else None

let compare_apply env (p : cmp_prep) (va : Value.t) (vb : Value.t) : Tvl.t =
  if p.cp_oor_nullsafe then Tvl.Unknown
  else if p.cp_null_safe then begin
    (* null-safe equality never yields NULL *)
    let eq =
      match (va, vb) with
      | Value.Null, Value.Null -> true
      | Value.Null, _ | _, Value.Null -> false
      | _ -> (
          match env.dialect with
          | Dialect.Sqlite_like ->
              compare_values env p.cp_coll (p.cp_fa va) (p.cp_fb vb) = 0
          | Dialect.Mysql_like -> mysql_compare env p.cp_coll va vb = 0
          | Dialect.Postgres_like -> compare_values env p.cp_coll va vb = 0)
    in
    if Dialect.equal env.dialect Dialect.Postgres_like
       && not (pg_comparable va vb)
    then pg_type_mismatch va vb
    else Tvl.of_bool eq
  end
  else if Value.is_null va || Value.is_null vb then Tvl.Unknown
  else
    match env.dialect with
    | Dialect.Sqlite_like ->
        Tvl.of_bool
          (op_of_compare p.cp_op
             (compare_values env p.cp_coll (p.cp_fa va) (p.cp_fb vb)))
    | Dialect.Mysql_like ->
        Tvl.of_bool (op_of_compare p.cp_op (mysql_compare env p.cp_coll va vb))
    | Dialect.Postgres_like ->
        if not (pg_comparable va vb) then pg_type_mismatch va vb
        else
          Tvl.of_bool
            (op_of_compare p.cp_op (compare_values env p.cp_coll va vb))

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)

let overflow_error =
  Errors.make Errors.Out_of_range "BIGINT value is out of range"
let division_by_zero = Errors.make Errors.Division_by_zero "division by zero"

(* postgres arithmetic takes numbers (and NULL) only *)
let pg_check_operand (v : Value.t) =
  match v with
  | Value.Int _ | Value.Real _ | Value.Null -> ()
  | _ ->
      fail
        (Errors.makef Errors.Type_error
           "operator does not exist for operand %s" (Value.show v))

(* an integer result, or the dialect's answer to its overflow *)
let checked_int env (r : int64 option) real_f x y : Value.t =
  match r with
  | Some r -> Value.Int r
  | None -> (
      match env.dialect with
      | Dialect.Sqlite_like ->
          (* sqlite promotes overflowing integer arithmetic to REAL *)
          Value.Real (real_f (Int64.to_float x) (Int64.to_float y))
      | Dialect.Mysql_like | Dialect.Postgres_like -> fail overflow_error)

let int_arith env op (x : int64) (y : int64) : Value.t =
  match op with
  | A.Add -> checked_int env (Numeric.checked_add x y) ( +. ) x y
  | A.Sub -> checked_int env (Numeric.checked_sub x y) ( -. ) x y
  | A.Mul -> checked_int env (Numeric.checked_mul x y) ( *. ) x y
  | A.Div -> (
      match env.dialect with
      | Dialect.Mysql_like ->
          (* mysql / is always real division; NULL on zero *)
          if y = 0L then Value.Null
          else Value.Real (Int64.to_float x /. Int64.to_float y)
      | Dialect.Sqlite_like -> (
          match Numeric.checked_div x y with
          | Some r -> Value.Int r
          | None ->
              if y = 0L then Value.Null
              else Value.Real (Int64.to_float x /. Int64.to_float y))
      | Dialect.Postgres_like -> (
          match Numeric.checked_div x y with
          | Some r -> Value.Int r
          | None -> fail (if y = 0L then division_by_zero else overflow_error)))
  | A.Rem -> (
      match Numeric.checked_rem x y with
      | Some r -> Value.Int r
      | None -> (
          match env.dialect with
          | Dialect.Sqlite_like | Dialect.Mysql_like -> Value.Null
          | Dialect.Postgres_like -> fail division_by_zero))
  | _ -> invalid_arg "int_arith"

(* real division or remainder by zero *)
let real_by_zero env =
  match env.dialect with
  | Dialect.Sqlite_like | Dialect.Mysql_like -> Value.Null
  | Dialect.Postgres_like -> fail division_by_zero

let real_arith env op (x : float) (y : float) : Value.t =
  match op with
  | A.Add -> Value.Real (x +. y)
  | A.Sub -> Value.Real (x -. y)
  | A.Mul -> Value.Real (x *. y)
  | A.Div -> if y = 0.0 then real_by_zero env else Value.Real (x /. y)
  | A.Rem -> if y = 0.0 then real_by_zero env else Value.Real (Float.rem x y)
  | _ -> invalid_arg "real_arith"

let num_arith env op (na : Value.t) (nb : Value.t) : Value.t =
  match (na, nb) with
  | Value.Int x, Value.Int y -> int_arith env op x y
  | Value.Real x, Value.Real y -> real_arith env op x y
  | Value.Int x, Value.Real y -> real_arith env op (Int64.to_float x) y
  | Value.Real x, Value.Int y -> real_arith env op x (Int64.to_float y)
  | _ -> Value.Null

let arith env op (va : Value.t) (vb : Value.t) : Value.t =
  if Value.is_null va || Value.is_null vb then Value.Null
  else
    (* paper Listing 2 class: TEXT operand routes subtraction through
       double precision, losing low bits of large integers *)
    let text_involved =
      match (va, vb) with
      | Value.Text _, _ | _, Value.Text _ -> true
      | _ -> false
    in
    if
      Dialect.equal env.dialect Dialect.Sqlite_like
      && bug env Bug.Sq_text_int_subtract_real
      && (match op with A.Sub -> true | _ -> false)
      && text_involved
    then
      let to_f v =
        match Coerce.to_numeric v with
        | Value.Int i -> Int64.to_float i
        | Value.Real r -> r
        | _ -> 0.0
      in
      let r = to_f va -. to_f vb in
      if Numeric.real_is_exact_int r || Float.is_integer r then
        Value.Int (Int64.of_float r)
      else Value.Real r
    else
      match env.dialect with
      | Dialect.Sqlite_like | Dialect.Mysql_like ->
          num_arith env op (Coerce.to_numeric va) (Coerce.to_numeric vb)
      | Dialect.Postgres_like ->
          pg_check_operand va;
          pg_check_operand vb;
          num_arith env op va vb

(* Bitwise operators work on 64-bit integers; operands are cast the way
   sqlite's CAST AS INTEGER does. *)
let to_int64 (v : Value.t) : int64 option =
  match Coerce.sqlite_cast_int v with Value.Int i -> Some i | _ -> None

let bitop env op (va : Value.t) (vb : Value.t) : Value.t =
  if Value.is_null va || Value.is_null vb then Value.Null
  else
    match env.dialect with
    | Dialect.Postgres_like -> (
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
        | _ -> pg_type_mismatch va vb)
    | Dialect.Sqlite_like | Dialect.Mysql_like -> (
        match (to_int64 va, to_int64 vb) with
        | Some x, Some y -> (
            (* sqlite: a negative shift amount shifts the other way *)
            let shift dir x y =
              let y, dir =
                if y < 0L then (Int64.neg y, not dir) else (y, dir)
              in
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
        | _ -> Value.Null)

(* ------------------------------------------------------------------ *)
(* Scalar functions                                                    *)

let func_available dialect (f : A.func) =
  match (f, dialect) with
  | (A.F_typeof | A.F_quote), Dialect.Sqlite_like -> true
  | (A.F_typeof | A.F_quote), _ -> false
  | A.F_ifnull, (Dialect.Sqlite_like | Dialect.Mysql_like) -> true
  | A.F_ifnull, Dialect.Postgres_like -> false
  | A.F_instr, (Dialect.Sqlite_like | Dialect.Mysql_like) -> true
  | A.F_instr, Dialect.Postgres_like -> false
  | (A.F_least | A.F_greatest), (Dialect.Mysql_like | Dialect.Postgres_like) ->
      true
  | (A.F_least | A.F_greatest), Dialect.Sqlite_like -> false
  | ( ( A.F_abs | A.F_length | A.F_lower | A.F_upper | A.F_coalesce
      | A.F_nullif | A.F_trim | A.F_ltrim | A.F_rtrim | A.F_substr
      | A.F_replace | A.F_hex | A.F_round | A.F_sign ),
      _ ) ->
      true

let wrong_arity name =
  fail
    (Errors.makef Errors.Invalid_function "wrong number of arguments to %s"
       name)

let type_error msg = fail (Errors.make Errors.Type_error msg)

let pg_wants_text name (v : Value.t) =
  match v with
  | Value.Text _ | Value.Null -> ()
  | _ ->
      fail
        (Errors.makef Errors.Type_error "function %s(%s) does not exist" name
           (Value.show v))

let text_of env (v : Value.t) = Coerce.to_text env.dialect v

(* The static slice of a call, from its argument expressions' metadata:
   NULLIF's comparison collation, and whether TYPEOF reports a declared
   INTEGER affinity (the injected intended-class bug below). *)
type func_prep = { fp_nullif_coll : Collation.t; fp_typeof_int : bool }

let func_prep env (f : A.func) (args : operand list) : func_prep =
  {
    fp_nullif_coll =
      (match (f, args) with
      | A.F_nullif, [ x; y ] -> operand_collation x y
      | _ -> Collation.Binary);
    fp_typeof_int =
      (match (f, args) with
      | A.F_typeof, [ o ] -> (
          bug env Bug.Sq_intended_typeof_affinity
          &&
          match o.o_meta with
          | Some (dt, _) -> Datatype.affinity dt = Datatype.A_integer
          | None -> false)
      | _ -> false);
  }

let apply_func env (fp : func_prep) (f : A.func) (args : Value.t list) :
    Value.t =
  let strict_pg = Dialect.equal env.dialect Dialect.Postgres_like in
  let any_null = List.exists Value.is_null args in
  match (f, args) with
  | A.F_abs, [ v ] ->
      if any_null then Value.Null
      else (
        match Coerce.to_numeric v with
        | Value.Int i -> (
            if strict_pg && not (Value.is_numeric v) then
              type_error "abs(non-numeric)"
            else
              match Numeric.checked_neg i with
              | Some n -> Value.Int (if i < 0L then n else i)
              | None -> (
                  match env.dialect with
                  | Dialect.Sqlite_like ->
                      fail (Errors.make Errors.Out_of_range "integer overflow")
                  | _ -> fail overflow_error))
        | Value.Real r -> Value.Real (Float.abs r)
        | _ -> Value.Int 0L)
  | A.F_abs, _ -> wrong_arity "ABS"
  | A.F_length, [ v ] ->
      if any_null then Value.Null
      else (
        match v with
        | Value.Text s | Value.Blob s ->
            Value.Int (Int64.of_int (String.length s))
        | _ ->
            if strict_pg then type_error "length(non-text)"
            else Value.Int (Int64.of_int (String.length (text_of env v))))
  | A.F_length, _ -> wrong_arity "LENGTH"
  | (A.F_lower | A.F_upper), [ v ] ->
      if any_null then Value.Null
      else begin
        if strict_pg then pg_wants_text "lower" v;
        let s = text_of env v in
        Value.Text
          (match f with
          | A.F_lower -> String.lowercase_ascii s
          | _ -> String.uppercase_ascii s)
      end
  | (A.F_lower | A.F_upper), _ -> wrong_arity "LOWER/UPPER"
  | A.F_coalesce, [] -> wrong_arity "COALESCE"
  | A.F_coalesce, vs -> (
      match List.find_opt (fun v -> not (Value.is_null v)) vs with
      | Some v -> v
      | None -> Value.Null)
  | A.F_ifnull, [ a; b ] -> if Value.is_null a then b else a
  | A.F_ifnull, _ -> wrong_arity "IFNULL"
  | A.F_nullif, [ a; b ] ->
      if Value.is_null a then Value.Null
      else if Value.is_null b then a
      else if compare_values env fp.fp_nullif_coll a b = 0 then Value.Null
      else a
  | A.F_nullif, _ -> wrong_arity "NULLIF"
  | A.F_typeof, [ v ] ->
      (* intended-class injection: TYPEOF reports the declared affinity for
         text stored in INTEGER columns (devs: works as documented) *)
      let declared_int = fp.fp_typeof_int in
      Value.Text
        (match v with
        | Value.Null -> "null"
        | Value.Int _ -> "integer"
        | Value.Real _ -> "real"
        | Value.Text _ -> if declared_int then "integer" else "text"
        | Value.Blob _ -> "blob"
        | Value.Bool _ -> "integer")
  | A.F_typeof, _ -> wrong_arity "TYPEOF"
  | (A.F_trim | A.F_ltrim | A.F_rtrim), [ v ] ->
      if any_null then Value.Null
      else begin
        if strict_pg then pg_wants_text "trim" v;
        let s = text_of env v in
        let ltrim s =
          let n = String.length s in
          let i = ref 0 in
          while !i < n && s.[!i] = ' ' do
            incr i
          done;
          String.sub s !i (n - !i)
        in
        let rtrim s =
          let n = ref (String.length s) in
          while !n > 0 && s.[!n - 1] = ' ' do
            decr n
          done;
          String.sub s 0 !n
        in
        Value.Text
          (match f with
          | A.F_trim -> ltrim (rtrim s)
          | A.F_ltrim -> ltrim s
          | _ -> rtrim s)
      end
  | (A.F_trim | A.F_ltrim | A.F_rtrim), _ -> wrong_arity "TRIM"
  | A.F_substr, (v :: ([ _ ] | [ _; _ ] as rest)) ->
      if any_null then Value.Null
      else
        let s = text_of env v in
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
        (* 1-based; negative start counts from the end (sqlite) *)
        let start0 =
          if start > 0 then start - 1
          else if start < 0 then Stdlib.max 0 (len + start)
          else 0
        in
        let count = Stdlib.max 0 count in
        let start0 = Stdlib.min start0 len in
        let count = Stdlib.min count (len - start0) in
        Value.Text (String.sub s start0 count)
  | A.F_substr, _ -> wrong_arity "SUBSTR"
  | A.F_replace, [ s; from_s; to_s ] ->
      if any_null then Value.Null
      else
        let s = text_of env s
        and f_ = text_of env from_s
        and t_ = text_of env to_s in
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
        end
  | A.F_replace, _ -> wrong_arity "REPLACE"
  | A.F_instr, [ hay; needle ] ->
      if any_null then Value.Null
      else
        let h = text_of env hay and n = text_of env needle in
        let hl = String.length h and nl = String.length n in
        let rec find i =
          if i + nl > hl then 0
          else if String.sub h i nl = n then i + 1
          else find (i + 1)
        in
        Value.Int (Int64.of_int (find 0))
  | A.F_instr, _ -> wrong_arity "INSTR"
  | A.F_hex, [ v ] ->
      if any_null then Value.Null
      else
        Value.Text (Value.hex_of_string (text_of env v))
  | A.F_hex, _ -> wrong_arity "HEX"
  | A.F_round, (v :: ([] | [ _ ] as rest)) ->
      if any_null then Value.Null
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
        if strict_pg && not (Value.is_numeric v) then
          type_error "round(non-numeric)"
        else (
          match Coerce.to_numeric v with
          | Value.Int i -> Value.Real (Int64.to_float i)
          | Value.Real r ->
              let scale = 10.0 ** float_of_int (Stdlib.max 0 digits) in
              Value.Real (Float.round (r *. scale) /. scale)
          | _ -> Value.Real 0.0)
  | A.F_round, _ -> wrong_arity "ROUND"
  | A.F_sign, [ v ] ->
      if any_null then Value.Null
      else (
        match Coerce.to_numeric v with
        | Value.Int i -> Value.Int (Int64.of_int (compare i 0L))
        | Value.Real r -> Value.Int (Int64.of_int (compare r 0.0))
        | _ -> Value.Null)
  | A.F_sign, _ -> wrong_arity "SIGN"
  | (A.F_least | A.F_greatest), [] -> wrong_arity "LEAST/GREATEST"
  | (A.F_least | A.F_greatest), vs ->
      let keep c = match f with A.F_least -> c < 0 | _ -> c > 0 in
      (* mysql: NULL poisons; postgres: NULLs are skipped *)
      let non_null = List.filter (fun v -> not (Value.is_null v)) vs in
      let mysql = Dialect.equal env.dialect Dialect.Mysql_like in
      if mysql && List.compare_lengths non_null vs <> 0 then Value.Null
      else (
        match non_null with
        | [] -> Value.Null
        | first :: rest ->
            let cmp =
              if
                mysql
                && bug env Bug.My_least_mixed_types
                && List.exists Value.is_numeric non_null
                && List.exists
                     (fun v -> match v with Value.Text _ -> true | _ -> false)
                     non_null
              then fun v acc ->
                (* buggy: lexicographic over text renderings *)
                String.compare (text_of env v) (text_of env acc)
              else fun v acc -> Value.compare_total v acc
            in
            List.fold_left
              (fun acc v -> if keep (cmp v acc) then v else acc)
              first rest)
  | A.F_quote, [ v ] -> Value.Text (Value.to_sql_literal v)
  | A.F_quote, _ -> wrong_arity "QUOTE"

(* ------------------------------------------------------------------ *)
(* Value-level operator bodies                                         *)

(* The post-operand-evaluation bodies of the operators: every dialect
   quirk and injected bug that depends only on operand *values* (plus
   statically resolvable column metadata) lives here, and {!compile}
   below calls them from its closures. *)

let neg_value env (v : Value.t) : Value.t =
  if Value.is_null v then Value.Null
  else
    match env.dialect with
    | Dialect.Postgres_like -> (
        pg_check_operand v;
        match v with
        | Value.Int i -> (
            match Numeric.checked_neg i with
            | Some r -> Value.Int r
            | None -> fail overflow_error)
        | Value.Real r -> Value.Real (-.r)
        | _ -> Value.Null)
    | Dialect.Sqlite_like | Dialect.Mysql_like -> (
        match Coerce.to_numeric v with
        | Value.Int i -> (
            match Numeric.checked_neg i with
            | Some r -> Value.Int r
            | None -> Value.Real 9.223372036854775808e18)
        | Value.Real r -> Value.Real (-.r)
        | _ -> Value.Null)

let bit_not_value env (v : Value.t) : Value.t =
  if Value.is_null v then Value.Null
  else
    match env.dialect with
    | Dialect.Postgres_like -> (
        match v with
        | Value.Int i -> Value.Int (Int64.lognot i)
        | _ -> type_error "~ requires integer")
    | Dialect.Sqlite_like | Dialect.Mysql_like -> (
        match to_int64 v with
        | Some i -> Value.Int (Int64.lognot i)
        | None -> Value.Null)

(* The static slice of a BETWEEN: collation choice and the two sqlite
   affinity adjustments, all metadata-driven. *)
type between_prep = {
  bp_negated : bool;
  bp_coll : Collation.t;
  bp_lo : (Value.t -> Value.t) * (Value.t -> Value.t);
  bp_hi : (Value.t -> Value.t) * (Value.t -> Value.t);
}

let between_prep env ~negated ~arg ~lo ~hi : between_prep =
  let coll =
    if bug env Bug.Sq_between_collate_ignored
       && Dialect.equal env.dialect Dialect.Sqlite_like
    then Collation.Binary
    else
      match explicit_of arg.o_expr arg.o_meta with
      | Some c -> c
      | None -> operand_collation lo hi
  in
  let adj a b =
    match env.dialect with
    | Dialect.Sqlite_like -> sqlite_affinity_prep env a b
    | Dialect.Mysql_like | Dialect.Postgres_like -> (Fun.id, Fun.id)
  in
  { bp_negated = negated; bp_coll = coll; bp_lo = adj arg lo; bp_hi = adj arg hi }

(* [v] against one non-NULL bound [w]: the comparison's sign, in the
   dialect's terms *)
let between_cmp env (p : between_prep) (fa, fb) (v : Value.t) (w : Value.t) =
  match env.dialect with
  | Dialect.Sqlite_like -> compare_values env p.bp_coll (fa v) (fb w)
  | Dialect.Mysql_like -> mysql_compare env p.bp_coll v w
  | Dialect.Postgres_like -> compare_values env p.bp_coll v w

let between_apply env (p : between_prep) (v : Value.t) (vl : Value.t)
    (vh : Value.t) : Tvl.t =
  if Dialect.equal env.dialect Dialect.Postgres_like
     && not (pg_comparable v vl && pg_comparable v vh)
  then pg_type_mismatch v vl
  else
    let ge_lo =
      if Value.is_null v || Value.is_null vl then Tvl.Unknown
      else Tvl.of_bool (between_cmp env p p.bp_lo v vl >= 0)
    in
    let le_hi =
      if Value.is_null v || Value.is_null vh then Tvl.Unknown
      else Tvl.of_bool (between_cmp env p p.bp_hi v vh <= 0)
    in
    let t = Tvl.and_ ge_lo le_hi in
    if p.bp_negated then Tvl.not_ t else t

(* the IN-list walk fell off the end without a match: NULL items poison
   the verdict to UNKNOWN unless the injected bug forces FALSE *)
let in_empty_tvl env ~saw_null : Tvl.t =
  if saw_null then
    if
      Dialect.equal env.dialect Dialect.Sqlite_like
      && bug env Bug.Sq_null_in_list_false
    then Tvl.False
    else Tvl.Unknown
  else Tvl.False

let like_escape_char (ve : Value.t) : char option =
  match ve with
  | Value.Text s when String.length s = 1 -> Some s.[0]
  | Value.Null -> None
  | _ ->
      fail
        (Errors.make Errors.Invalid_function
           "ESCAPE expression must be a single character")

(* The static slice of a LIKE: case sensitivity and the integer-affinity
   optimization bugs, both decided from the argument's metadata. *)
type like_prep = {
  lp_negated : bool;
  lp_case_sensitive : bool;
  lp_int_affinity_buggy : bool;
}

let like_prep env ~negated ~arg : like_prep =
  let case_sensitive =
    match env.dialect with
    | Dialect.Postgres_like -> true
    | Dialect.Mysql_like -> false
    | Dialect.Sqlite_like ->
        let base = env.case_sensitive_like in
        (* injected: LIKE on a NOCASE column becomes case sensitive *)
        if
          bug env Bug.Sq_nocase_like_case_sensitive
          &&
          match arg.o_meta with
          | Some (_, Collation.Nocase) -> true
          | _ -> false
        then true
        else base
  in
  (* paper Listing 7 class: on an INTEGER-affinity column the optimized
     LIKE compares numeric prefixes instead of text *)
  let int_affinity_buggy =
    Dialect.equal env.dialect Dialect.Sqlite_like
    && ((bug env Bug.Sq_like_int_affinity_opt
         &&
         match arg.o_meta with
         | Some (dt, _) -> Datatype.affinity dt = Datatype.A_integer
         | None -> false)
       || (bug env Bug.Sq_dup_like_opt_nocase
           &&
           match arg.o_meta with
           | Some (dt, c) ->
               Datatype.affinity dt = Datatype.A_integer
               && Collation.equal c Collation.Nocase
           | None -> false))
  in
  {
    lp_negated = negated;
    lp_case_sensitive = case_sensitive;
    lp_int_affinity_buggy = int_affinity_buggy;
  }

let like_apply env (lp : like_prep) (v : Value.t) (p : Value.t)
    (esc : char option) : Tvl.t =
  if Value.is_null v || Value.is_null p then Tvl.Unknown
  else if
    Dialect.equal env.dialect Dialect.Postgres_like
    && not (match (v, p) with Value.Text _, Value.Text _ -> true | _ -> false)
  then pg_type_mismatch v p
  else
    let matched =
      if lp.lp_int_affinity_buggy then
        (* the optimized LIKE ranges over numeric keys: non-numeric text
           never matches, numeric text matches on numeric equality *)
        match
          ( Numeric.parse_exact (text_of env v),
            Numeric.parse_exact (text_of env p) )
        with
        | Some a, Some b -> a = b
        | _ -> false
      else
        Like_matcher.like ~case_sensitive:lp.lp_case_sensitive ?escape:esc
          ~pattern:(text_of env p) (text_of env v)
    in
    Tvl.of_bool (matched <> lp.lp_negated)

let glob_tvl env ~negated (v : Value.t) (p : Value.t) : Tvl.t =
  if Value.is_null v || Value.is_null p then Tvl.Unknown
  else
    let pat = text_of env p in
    let pat =
      (* injected: character-class range upper bounds become exclusive,
         implemented by shrinking each range in the pattern *)
      if bug env Bug.Sq_glob_range_exclusive then begin
        let b = Bytes.of_string pat in
        let n = Bytes.length b in
        for i = 0 to n - 3 do
          if
            Bytes.get b i = '-'
            && i > 0
            && Bytes.get b (i + 1) <> ']'
            && Char.code (Bytes.get b (i + 1)) > 0
          then Bytes.set b (i + 1) (Char.chr (Char.code (Bytes.get b (i + 1)) - 1))
        done;
        Bytes.to_string b
      end
      else pat
    in
    Tvl.of_bool (Like_matcher.glob ~pattern:pat (text_of env v) <> negated)

let cast_value env ty (v : Value.t) : Value.t =
  (* mysql unsigned-cast bug: negative integers keep their signed value *)
  match (env.dialect, ty) with
  | Dialect.Mysql_like, Datatype.Int { unsigned = true; _ }
    when bug env Bug.My_unsigned_cast_signed_compare
         || bug env Bug.My_dup_unsigned_compare -> (
      match Coerce.to_numeric v with
      | Value.Int i -> Value.Int i (* buggy: stays signed *)
      | Value.Real r -> Value.Int (Int64.of_float (Float.round r))
      | Value.Null -> Value.Null
      | _ -> Value.Int 0L)
  | _ -> (
      match Coerce.cast env.dialect ty v with
      | Ok v -> v
      | Error msg -> type_error msg)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

type thunk = unit -> Value.t
type pred = unit -> Tvl.t

let func_point = function
  | A.F_abs -> "abs"
  | A.F_length -> "length"
  | A.F_lower -> "lower"
  | A.F_upper -> "upper"
  | A.F_coalesce -> "coalesce"
  | A.F_ifnull -> "ifnull"
  | A.F_nullif -> "nullif"
  | A.F_typeof -> "typeof"
  | A.F_trim -> "trim"
  | A.F_ltrim -> "ltrim"
  | A.F_rtrim -> "rtrim"
  | A.F_substr -> "substr"
  | A.F_replace -> "replace"
  | A.F_instr -> "instr"
  | A.F_hex -> "hex"
  | A.F_round -> "round"
  | A.F_sign -> "sign"
  | A.F_least -> "least"
  | A.F_greatest -> "greatest"
  | A.F_quote -> "quote"

(* The walks a closure makes per evaluation over its IN items, CASE
   branches or function arguments, kept top-level so that no closure is
   built per evaluation (see the per-row rule at the top). *)

(* IN: the first item equal to [v] makes the verdict TRUE; past the end,
   [in_empty_tvl] decides *)
let rec in_walk env (v : Value.t) saw_null = function
  | [] -> in_empty_tvl env ~saw_null
  | (prep, (ci : thunk)) :: rest -> (
      let vi = ci () in
      if Value.is_null vi then in_walk env v true rest
      else
        match compare_apply env prep v vi with
        | Tvl.True -> Tvl.True
        | Tvl.False | Tvl.Unknown -> in_walk env v saw_null rest)

(* a CASE branch is taken on TRUE, and on UNKNOWN under the injected
   NULL-WHEN bug *)
let case_taken ~buggy_null_when t =
  Tvl.equal t Tvl.True || (buggy_null_when && Tvl.equal t Tvl.Unknown)

(* searched CASE: WHEN conditions in boolean context *)
let rec case_walk ~buggy_null_when (celse : thunk) = function
  | [] -> celse ()
  | ((ccond : pred), (cres : thunk)) :: rest ->
      if case_taken ~buggy_null_when (ccond ()) then cres ()
      else case_walk ~buggy_null_when celse rest

(* simple CASE: each WHEN value compared with the operand's [v] *)
let rec case_operand_walk env ~buggy_null_when (celse : thunk) (v : Value.t) =
  function
  | [] -> celse ()
  | (prep, (ccond : thunk), (cres : thunk)) :: rest ->
      let vc = ccond () in
      if case_taken ~buggy_null_when (compare_apply env prep v vc) then cres ()
      else case_operand_walk env ~buggy_null_when celse v rest

(* function arguments, left to right *)
let rec eval_args = function
  | [] -> []
  | (t : thunk) :: rest ->
      let v = t () in
      v :: eval_args rest

(* mysql Listing 13 class: NOT(NOT x) folded to x's value, in value and
   boolean context alike *)
let double_negation_folded env (inner : A.expr) =
  match inner with
  | A.Unary (A.Not, _) ->
      Dialect.equal env.dialect Dialect.Mysql_like
      && bug env Bug.My_double_negation_fold
  | _ -> false

(* Each compile also reports whether its closure is infallible: [true]
   only when the node's own arm cannot raise for this dialect and bug
   set and every child is infallible.  The fact sits in the arm that
   builds the closure, beside the raise sites it vouches for, and an arm
   that does not vouch reports [false].  Postgres is the strict dialect:
   its truth values, comparisons, arithmetic, casts and several
   functions reject mistyped operands, which the other two coerce. *)
let lenient env = not (Dialect.equal env.dialect Dialect.Postgres_like)

(* [arith]: postgres rejects operands and fails on overflow and on
   division by zero, mysql fails on + - * overflow, and sqlite promotes
   to REAL or returns NULL *)
let arith_infallible env (op : A.binop) =
  match env.dialect with
  | Dialect.Sqlite_like -> true
  | Dialect.Mysql_like -> ( match op with A.Div | A.Rem -> true | _ -> false)
  | Dialect.Postgres_like -> false

(* [apply_func] of [f] over [n] arguments: an arity it accepts, and a
   body that cannot fail.  ABS overflows, and postgres rejects the
   non-text or non-numeric arguments of LENGTH, LOWER/UPPER, the trims
   and ROUND. *)
let func_infallible env (f : A.func) n =
  func_available env.dialect f
  &&
  match (f, n) with
  | (A.F_length | A.F_lower | A.F_upper | A.F_trim | A.F_ltrim | A.F_rtrim), 1
  | A.F_round, (1 | 2) ->
      lenient env
  | (A.F_typeof | A.F_hex | A.F_sign | A.F_quote), 1
  | (A.F_ifnull | A.F_nullif | A.F_instr), 2
  | A.F_substr, (2 | 3)
  | A.F_replace, 3 ->
      true
  | (A.F_coalesce | A.F_least | A.F_greatest), n -> n >= 1
  | _ -> false

(* An expression becomes a closure over [env.cur]: column references are
   resolved to slots, dialect rejections, the mysql double-negation fold
   and every operator's metadata prep happen here, once.
   [compile_checked] writes the value operators and
   [compile_pred_checked] the boolean ones, each once; either wraps the
   other's closures for its own context.  Per run, the closures keep
   SQL's evaluation order and short circuits, fire each coverage point
   once per node evaluated, and raise the first error in evaluation
   order. *)
let rec compile_checked env (e : A.expr) : thunk * bool =
  let dialect = env.dialect in
  match e with
  | A.Lit v -> ((fun () -> v), true)
  | A.Col _ | A.Collate _ | A.Unary (A.Pos, _) ->
      let c, _, ok = compile_operand env e in
      (c, ok)
  | A.Agg _ ->
      let err =
        Errors.make Errors.Invalid_function
          "misuse of aggregate function in scalar context"
      in
      ((fun () -> fail err), false)
  | A.Unary (A.Not, (A.Unary (A.Not, grandchild) as inner))
    when double_negation_folded env inner ->
      (* the inner NOT's coverage point is skipped *)
      let cg, ok = compile_checked env grandchild in
      ( (fun () ->
          cov env "unop.not";
          cg ()),
        ok )
  | A.Unary (A.Neg, inner) ->
      let ci, ok = compile_checked env inner in
      ( (fun () ->
          cov env "unop.neg";
          neg_value env (ci ())),
        ok && lenient env )
  | A.Unary (A.Bit_not, inner) ->
      let ci, ok = compile_checked env inner in
      ( (fun () ->
          cov env "unop.bit_not";
          bit_not_value env (ci ())),
        ok && lenient env )
  | A.Binary (A.Concat, a, b) when Dialect.equal dialect Dialect.Mysql_like ->
      (* mysql: || is logical OR by default; both coverage points fire *)
      let c_or, ok = compile_pred_checked env (A.Binary (A.Or, a, b)) in
      ( (fun () ->
          cov env "binop.concat";
          bool_value dialect (c_or ())),
        ok )
  | A.Binary (A.Concat, a, b) ->
      let ca, ok_a = compile_checked env a in
      let cb, ok_b = compile_checked env b in
      ( (fun () ->
          cov env "binop.concat";
          let va = ca () in
          let vb = cb () in
          if Value.is_null va || Value.is_null vb then Value.Null
          else
            Value.Text (Coerce.to_text dialect va ^ Coerce.to_text dialect vb)),
        ok_a && ok_b )
  | A.Binary (((A.Add | A.Sub | A.Mul | A.Div | A.Rem) as op), a, b) ->
      let point =
        match op with
        | A.Add -> "binop.add"
        | A.Sub -> "binop.sub"
        | A.Mul -> "binop.mul"
        | A.Div -> "binop.div"
        | _ -> "binop.rem"
      in
      let ca, ok_a = compile_checked env a in
      let cb, ok_b = compile_checked env b in
      ( (fun () ->
          cov env point;
          let va = ca () in
          let vb = cb () in
          arith env op va vb),
        ok_a && ok_b && arith_infallible env op )
  | A.Binary
      (((A.Bit_and | A.Bit_or | A.Shift_left | A.Shift_right) as op), a, b) ->
      let point =
        match op with
        | A.Bit_and -> "binop.bit_and"
        | A.Bit_or -> "binop.bit_or"
        | A.Shift_left -> "binop.shl"
        | _ -> "binop.shr"
      in
      let ca, ok_a = compile_checked env a in
      let cb, ok_b = compile_checked env b in
      ( (fun () ->
          cov env point;
          let va = ca () in
          let vb = cb () in
          bitop env op va vb),
        ok_a && ok_b && lenient env )
  | A.Cast (ty, inner) ->
      let ci, ok = compile_checked env inner in
      ( (fun () ->
          cov env "pred.cast";
          cast_value env ty (ci ())),
        ok && lenient env )
  | A.Func (f, args) ->
      let point = "func." ^ func_point f in
      if not (func_available dialect f) then
        let err =
          Errors.makef Errors.Invalid_function "no such function in %s dialect"
            (Dialect.name dialect)
        in
        ( (fun () ->
            cov env point;
            fail err),
          false )
      else
        let compiled = List.map (compile_operand env) args in
        let cargs = List.map (fun (c, _, _) -> c) compiled in
        let fp = func_prep env f (List.map (fun (_, o, _) -> o) compiled) in
        ( (fun () ->
            cov env point;
            apply_func env fp f (eval_args cargs)),
          func_infallible env f (List.length args)
          && List.for_all (fun (_, _, ok) -> ok) compiled )
  | A.Case { operand; branches; else_ } -> (
      let buggy_null_when =
        Dialect.equal dialect Dialect.Sqlite_like
        && Bug.on env.bugs Bug.Sq_case_null_when
      in
      let celse, ok_else =
        match else_ with
        | Some e -> compile_checked env e
        | None -> ((fun () -> Value.Null), true)
      in
      match operand with
      | None ->
          let ok = ref ok_else in
          let cbranches =
            List.map
              (fun (cond, result) ->
                let ccond, ok_c = compile_pred_checked env cond in
                let cres, ok_r = compile_checked env result in
                ok := !ok && ok_c && ok_r;
                (ccond, cres))
              branches
          in
          ( (fun () ->
              cov env "pred.case";
              case_walk ~buggy_null_when celse cbranches),
            !ok )
      | Some op_expr ->
          (* each WHEN value is compared with the operand *)
          let cop, oop, ok_op = compile_operand env op_expr in
          let ok = ref (ok_else && ok_op && lenient env) in
          let cbranches =
            List.map
              (fun (cond, result) ->
                let ccond, ocond, ok_c = compile_operand env cond in
                let cres, ok_r = compile_checked env result in
                ok := !ok && ok_c && ok_r;
                (compare_prep env A.Eq oop ocond, ccond, cres))
              branches
          in
          ( (fun () ->
              cov env "pred.case";
              case_operand_walk env ~buggy_null_when celse (cop ()) cbranches),
            !ok ))
  | A.Unary (A.Not, _)
  | A.Binary
      ( ( A.And | A.Or | A.Eq | A.Neq | A.Lt | A.Le | A.Gt | A.Ge
        | A.Null_safe_eq ),
        _,
        _ )
  | A.Is _ | A.Between _ | A.In_list _ | A.Like _ | A.Glob _ ->
      let p, ok = compile_pred_checked env e in
      ((fun () -> bool_value dialect (p ())), ok)

(* A boolean context — WHERE, ON, HAVING, CASE WHEN, CHECK, a partial
   index's predicate, an operand of AND/OR/NOT/IS TRUE — compiled to a
   closure that returns the truth value itself.  A value operator here
   is [compile_checked]'s closure read through [value_tvl], which only
   postgres's non-boolean values fail. *)
and compile_pred_checked env (e : A.expr) : pred * bool =
  let dialect = env.dialect in
  match e with
  | A.Collate (inner, _) -> compile_pred_checked env inner
  | A.Unary (A.Not, inner) when not (double_negation_folded env inner) -> (
      match inner with
      | A.Lit Value.Null
        when Dialect.equal dialect Dialect.Sqlite_like
             && Bug.on env.bugs Bug.Sq_fold_not_null_true ->
          (* constant folder treats the NULL literal as FALSE under NOT *)
          ( (fun () ->
              cov env "unop.not";
              Tvl.True),
            true )
      | _ ->
          let ci, ok = compile_pred_checked env inner in
          ( (fun () ->
              cov env "unop.not";
              Tvl.not_ (ci ())),
            ok ))
  | A.Binary (A.And, a, b)
    when (match (a, b) with
         | A.Lit Value.Null, _ | _, A.Lit Value.Null -> true
         | _ -> false)
         && Dialect.equal dialect Dialect.Sqlite_like
         && Bug.on env.bugs Bug.Sq_fold_null_and ->
      (* constant folder rewrites `NULL AND x` to NULL without checking
         whether x is FALSE; the operands are never evaluated *)
      ( (fun () ->
          cov env "binop.and";
          Tvl.Unknown),
        true )
  | A.Binary (A.And, a, b) ->
      let ca, ok_a = compile_pred_checked env a in
      let cb, ok_b = compile_pred_checked env b in
      ( (fun () ->
          cov env "binop.and";
          match ca () with Tvl.False -> Tvl.False | ta -> Tvl.and_ ta (cb ())),
        ok_a && ok_b )
  | A.Binary (A.Or, a, b) ->
      let ca, ok_a = compile_pred_checked env a in
      let cb, ok_b = compile_pred_checked env b in
      ( (fun () ->
          cov env "binop.or";
          match ca () with Tvl.True -> Tvl.True | ta -> Tvl.or_ ta (cb ())),
        ok_a && ok_b )
  | A.Binary
      ( (( A.Eq | A.Neq | A.Lt | A.Le | A.Gt | A.Ge | A.Null_safe_eq ) as op),
        a,
        b ) ->
      let point =
        match op with
        | A.Eq -> "binop.eq"
        | A.Neq -> "binop.neq"
        | A.Lt -> "binop.lt"
        | A.Le -> "binop.le"
        | A.Gt -> "binop.gt"
        | A.Ge -> "binop.ge"
        | _ -> "binop.nullsafe_eq"
      in
      let ca, oa, ok_a = compile_operand env a in
      let cb, ob, ok_b = compile_operand env b in
      let prep = compare_prep env op oa ob in
      (* [compare_apply] fails only on postgres's type mismatch *)
      ( (fun () ->
          cov env point;
          let va = ca () in
          let vb = cb () in
          compare_apply env prep va vb),
        ok_a && ok_b && lenient env )
  | A.Is { negated; arg; rhs } -> compile_is env ~negated arg rhs
  | A.Between { negated; arg; lo; hi } ->
      let ca, arg, ok_a = compile_operand env arg in
      let cl, lo, ok_l = compile_operand env lo in
      let ch, hi, ok_h = compile_operand env hi in
      let prep = between_prep env ~negated ~arg ~lo ~hi in
      ( (fun () ->
          cov env "pred.between";
          let v = ca () in
          let vl = cl () in
          let vh = ch () in
          between_apply env prep v vl vh),
        ok_a && ok_l && ok_h && lenient env )
  | A.In_list { negated; arg; list } ->
      let ca, arg, ok_a = compile_operand env arg in
      let ok = ref (ok_a && lenient env) in
      let items =
        List.map
          (fun item ->
            let ci, item, ok_i = compile_operand env item in
            ok := !ok && ok_i;
            (compare_prep env A.Eq arg item, ci))
          list
      in
      ( (fun () ->
          cov env "pred.in";
          let v = ca () in
          if Value.is_null v then Tvl.Unknown
          else
            let t = in_walk env v false items in
            if negated then Tvl.not_ t else t),
        !ok )
  | A.Like { negated; arg; pattern; escape } ->
      let ca, arg, ok_a = compile_operand env arg in
      let cp, ok_p = compile_checked env pattern in
      let cesc = Option.map (compile_checked env) escape in
      let prep = like_prep env ~negated ~arg in
      (* an ESCAPE operand fails unless it is one character, and postgres
         matches text only *)
      ( (fun () ->
          cov env "pred.like";
          let v = ca () in
          let p = cp () in
          let esc =
            match cesc with
            | None -> None
            | Some (ce, _) -> like_escape_char (ce ())
          in
          like_apply env prep v p esc),
        ok_a && ok_p && Option.is_none escape && lenient env )
  | A.Glob { negated; arg; pattern } ->
      if not (Dialect.equal dialect Dialect.Sqlite_like) then
        let err =
          Errors.make Errors.Invalid_function "GLOB is sqlite-specific"
        in
        ( (fun () ->
            cov env "pred.glob";
            fail err),
          false )
      else
        let ca, ok_a = compile_checked env arg in
        let cp, ok_p = compile_checked env pattern in
        ( (fun () ->
            cov env "pred.glob";
            let v = ca () in
            let p = cp () in
            glob_tvl env ~negated v p),
          ok_a && ok_p )
  | _ ->
      let c, ok = compile_checked env e in
      ((fun () -> value_tvl env (c ())), ok && lenient env)

(* [compile_checked] of an operand, with its static side; column
   references, COLLATE and unary [+] resolve here *)
and compile_operand env (e : A.expr) : thunk * operand * bool =
  match e with
  | A.Col { table; column } -> (
      match resolve_slot env.layout ~table ~column with
      | Ok (bi, i, dt, coll) ->
          let cur = env.cur in
          ( (fun () -> (!cur).(bi).(i)),
            { o_expr = e; o_meta = Some (dt, coll) },
            true )
      | Error err ->
          ((fun () -> fail err), { o_expr = e; o_meta = None }, false))
  | A.Collate (inner, c) ->
      let ci, o, ok = compile_operand env inner in
      let dt = match o.o_meta with Some (dt, _) -> dt | None -> Datatype.Any in
      (ci, { o_expr = e; o_meta = Some (dt, c) }, ok)
  | A.Unary (A.Pos, inner) ->
      let ci, o, ok = compile_operand env inner in
      ( (fun () ->
          cov env "unop.pos";
          ci ()),
        { o with o_expr = e },
        ok )
  | A.Cast (ty, _) ->
      let c, ok = compile_checked env e in
      (c, { o_expr = e; o_meta = Some (ty, Collation.Binary) }, ok)
  | _ ->
      let c, ok = compile_checked env e in
      (c, { o_expr = e; o_meta = None }, ok)

and compile_is env ~negated arg rhs : pred * bool =
  let dialect = env.dialect in
  let finish t = if negated then Tvl.not_ t else t in
  (* IS [NOT] over two scalars: null-safe equality, [flip]ped for IS
     DISTINCT FROM *)
  let null_safe other ~flip =
    let ca, oa, ok_a = compile_operand env arg in
    let cb, ob, ok_b = compile_operand env other in
    let prep = compare_prep env A.Null_safe_eq oa ob in
    ( (fun () ->
        cov env "pred.is";
        let va = ca () in
        let vb = cb () in
        let t = compare_apply env prep va vb in
        finish (if flip then Tvl.not_ t else t)),
      ok_a && ok_b && lenient env )
  in
  let rejected msg =
    let err = Errors.make Errors.Invalid_function msg in
    ( (fun () ->
        cov env "pred.is";
        fail err),
      false )
  in
  match rhs with
  | A.Is_null ->
      let ca, ok = compile_checked env arg in
      ( (fun () ->
          cov env "pred.is";
          finish (Tvl.of_bool (Value.is_null (ca ())))),
        ok )
  | A.Is_true | A.Is_false ->
      let want = match rhs with A.Is_true -> Tvl.True | _ -> Tvl.False in
      (* IS TRUE/FALSE of NULL is FALSE; IS NOT TRUE of NULL is TRUE —
         unless the injected Listing-1-adjacent bug flips it *)
      let of_null =
        if
          negated
          && Dialect.equal dialect Dialect.Sqlite_like
          && bug env Bug.Sq_is_not_true_null
        then Tvl.False
        else finish Tvl.False
      in
      let ca, ok = compile_pred_checked env arg in
      ( (fun () ->
          cov env "pred.is";
          match ca () with
          | Tvl.Unknown -> of_null
          | t -> finish (Tvl.of_bool (Tvl.equal t want))),
        ok )
  | A.Is_expr other ->
      if not (Dialect.equal dialect Dialect.Sqlite_like) then
        rejected "IS over scalars is sqlite-specific"
      else null_safe other ~flip:false
  | A.Is_distinct_from other ->
      if not (Dialect.equal dialect Dialect.Postgres_like) then
        rejected "IS DISTINCT FROM is postgres-specific"
      else null_safe other ~flip:true

let compile env e = fst (compile_checked env e)
let compile_pred env e = fst (compile_pred_checked env e)
