open Sqlval
module A = Sqlast.Ast

type pg_ty = P_int | P_real | P_text | P_bool | P_blob

let pg_ty_of_datatype = function
  | Datatype.Int _ | Datatype.Serial -> P_int
  | Datatype.Real -> P_real
  | Datatype.Text -> P_text
  | Datatype.Bool -> P_bool
  | Datatype.Blob -> P_blob
  | Datatype.Any -> P_int

let pg_index = function
  | P_int -> 0
  | P_real -> 1
  | P_text -> 2
  | P_bool -> 3
  | P_blob -> 4

(* an in-scope column with both of its references built once *)
type column = {
  info : Schema_info.column_info;
  qualified : A.expr;
  bare : A.expr;
  ambiguous : bool;  (** another in-scope column has the same name *)
}

type scope = {
  dialect : Dialect.t;
  several_tables : bool;
  columns : column array;
  pg_columns : column array array;  (** [columns] by [pg_index] *)
  pool : Value.t array;
  texts : string array;  (** the pool's text values *)
  glob_texts : string array;  (** its non-empty text values *)
}

type ctx = { rng : Rng.t; max_depth : int; scope : scope }

let scope ?(pool = []) dialect (tables : Schema_info.table_info list) =
  let all =
    List.concat_map
      (fun (ti : Schema_info.table_info) ->
        List.map (fun c -> (ti, c)) ti.Schema_info.ti_columns)
      tables
  in
  let same_name (c : Schema_info.column_info) (_, (c' : Schema_info.column_info)) =
    Storage.Schema.name_equal c.Schema_info.ci_name c'.Schema_info.ci_name
  in
  let columns =
    Array.of_list
      (List.map
         (fun ((ti : Schema_info.table_info), (c : Schema_info.column_info)) ->
           {
             info = c;
             qualified =
               A.Col
                 { table = Some ti.Schema_info.ti_name; column = c.Schema_info.ci_name };
             bare = A.Col { table = None; column = c.Schema_info.ci_name };
             ambiguous = List.length (List.filter (same_name c) all) > 1;
           })
         all)
  in
  let texts keep =
    Array.of_list
      (List.filter_map
         (function Value.Text s when keep s -> Some s | _ -> None)
         pool)
  in
  {
    dialect;
    several_tables = List.length tables > 1;
    columns;
    pg_columns =
      Array.map
        (fun ty ->
          Array.of_list
            (List.filter
               (fun c -> pg_ty_of_datatype c.info.Schema_info.ci_type = ty)
               (Array.to_list columns)))
        [| P_int; P_real; P_text; P_bool; P_blob |];
    pool = Array.of_list pool;
    texts = texts (fun _ -> true);
    glob_texts = texts (fun s -> s <> "");
  }

let dialect ctx = ctx.scope.dialect

(* ------------------------------------------------------------------ *)
(* Draw tables, built once                                              *)

let cmp_ops = [| A.Eq; A.Neq; A.Lt; A.Le; A.Gt; A.Ge |]
let cmp_ops_eq_heavy = [| A.Eq; A.Eq; A.Neq; A.Lt; A.Le; A.Gt; A.Ge |]
let arith_ops = [| A.Add; A.Sub; A.Mul; A.Div; A.Rem |]
let pg_arith_ops = [| A.Add; A.Sub; A.Mul |]
let unary_ops = [| A.Neg; A.Pos; A.Bit_not |]
let bit_ops = [| A.Bit_and; A.Bit_or; A.Shift_left; A.Shift_right |]
let collations = Array.of_list Collation.all

let cast_types =
  [|
    Datatype.Int { width = Datatype.Regular; unsigned = false };
    Datatype.Real;
    Datatype.Text;
    Datatype.Blob;
  |]

let literal_kinds =
  [ (2, `Null); (6, `Int); (3, `Real); (6, `Text); (1, `Blob) ]

let literal_table = Rng.weighted literal_kinds
let pg_literal_table = Rng.weighted ((3, `Bool) :: literal_kinds)

let text_mutations =
  Rng.weighted [ (4, `Same); (2, `Space); (1, `Spaces); (1, `Upper); (1, `Lower) ]

let int_mutations = Rng.weighted [ (5, `Same); (1, `Succ); (1, `Pred) ]

(* ------------------------------------------------------------------ *)
(* Literals                                                             *)

let literal rng dialect : Value.t =
  let table =
    if Dialect.equal dialect Dialect.Postgres_like then pg_literal_table
    else literal_table
  in
  match Rng.draw rng table with
  | `Null -> Value.Null
  | `Int -> Value.Int (Rng.interesting_int rng)
  | `Real -> Value.Real (Rng.interesting_real rng)
  | `Text -> Value.Text (Rng.small_string rng)
  | `Blob -> Value.Blob (Rng.small_string rng)
  | `Bool -> Value.Bool (Rng.bool rng)

let literal_for_column rng dialect (ty : Datatype.t) : Value.t =
  if Rng.chance rng 0.15 then Value.Null
  else
    match (dialect, ty) with
    | Dialect.Sqlite_like, _ ->
        (* sqlite stores anything anywhere *)
        literal rng dialect
    | _, Datatype.Any -> literal rng dialect
    | _, Datatype.Int { width; unsigned } ->
        let lo, hi = Datatype.int_range width in
        if unsigned then
          Value.Int (Int64.of_int (Rng.int_in rng 0 255))
        else if
          (* mysql (non-strict) clamps out-of-range inserts with a warning;
             feeding it such values exercises that path *)
          Dialect.equal dialect Dialect.Mysql_like
          && width <> Datatype.Big
          && Rng.chance rng 0.15
        then Value.Int (Int64.add hi (Int64.of_int (1 + Rng.int rng 1000)))
        else if Rng.chance rng 0.3 then
          Value.Int (if Rng.bool rng then lo else hi)
        else
          let v = Rng.interesting_int rng in
          let v = if v < lo then lo else if v > hi then hi else v in
          Value.Int v
    | _, Datatype.Serial -> Value.Int (Int64.of_int (Rng.int_in rng 1 100))
    | _, Datatype.Real -> Value.Real (Rng.interesting_real rng)
    | _, Datatype.Text -> Value.Text (Rng.small_string rng)
    | _, Datatype.Blob -> Value.Blob (Rng.small_string rng)
    | _, Datatype.Bool -> (
        match dialect with
        | Dialect.Postgres_like -> Value.Bool (Rng.bool rng)
        | _ -> Value.Int (if Rng.bool rng then 1L else 0L))

(* A literal drawn from the database value pool, possibly mutated in ways
   that probe collation/affinity edges (trailing spaces, case flips,
   off-by-one integers). *)
let pooled_literal ctx : Value.t option =
  let pool = ctx.scope.pool in
  if Array.length pool = 0 then None
  else
    let v = Rng.pick_array ctx.rng pool in
    let mutated =
      match v with
      | Value.Text s -> (
          match Rng.draw ctx.rng text_mutations with
          | `Same -> v
          | `Space -> Value.Text (s ^ " ")
          | `Spaces -> Value.Text (s ^ "  ")
          | `Upper -> Value.Text (String.uppercase_ascii s)
          | `Lower -> Value.Text (String.lowercase_ascii s))
      | Value.Int i -> (
          match Rng.draw ctx.rng int_mutations with
          | `Same -> v
          | `Succ -> Value.Int (Int64.add i 1L)
          | `Pred -> Value.Int (Int64.sub i 1L))
      | v -> v
    in
    Some mutated

(* ------------------------------------------------------------------ *)
(* Column references                                                    *)

(* qualify when several tables are in scope or columns are ambiguous *)
let qualify ctx c =
  if c.ambiguous || (ctx.scope.several_tables && Rng.bool ctx.rng)
     || Rng.chance ctx.rng 0.3
  then c.qualified
  else c.bare

let pick_column ctx =
  let cols = ctx.scope.columns in
  if Array.length cols = 0 then None else Some (Rng.pick_array ctx.rng cols)

let random_column ctx : A.expr option =
  match pick_column ctx with None -> None | Some c -> Some (qualify ctx c)

(* ------------------------------------------------------------------ *)
(* Free-form generation (sqlite/mysql; Algorithm 1)                     *)

let free_nodes =
  [
    (6, `Leaf);
    (4, `Comparison);
    (5, `Col_vs_lit);
    (3, `Logical);
    (2, `Not);
    (2, `Arith);
    (1, `Unary_misc);
    (2, `Is_null);
    (2, `Is_bool);
    (2, `Between);
    (2, `In);
    (3, `Like);
    (1, `Case);
    (2, `Cast);
    (1, `Func);
    (1, `Bitop);
  ]

let sqlite_nodes =
  Rng.weighted
    (free_nodes
    @ [ (2, `Is_expr); (2, `Col_is_lit); (2, `Glob); (2, `Collate);
        (1, `Concat); (2, `Or_of_eqs); (1, `Text_minus_int) ])

let mysql_nodes =
  Rng.weighted
    (free_nodes @ [ (2, `Null_safe_eq); (1, `Cast_unsigned); (1, `Least) ])

let other_nodes = Rng.weighted free_nodes

let funcs =
  [
    (A.F_abs, 1); (A.F_length, 1); (A.F_lower, 1); (A.F_upper, 1);
    (A.F_coalesce, 2); (A.F_ifnull, 2); (A.F_nullif, 2);
    (A.F_trim, 1); (A.F_ltrim, 1); (A.F_rtrim, 1); (A.F_substr, 2);
    (A.F_replace, 3); (A.F_instr, 2); (A.F_hex, 1); (A.F_round, 1);
    (A.F_sign, 1);
  ]

let sqlite_funcs = Array.of_list (funcs @ [ (A.F_typeof, 1); (A.F_quote, 1) ])
let other_funcs = Array.of_list funcs

let big_ints = [| 2851427734582196970L; 9007199254740995L; 4611686018427387905L |]

let like_pieces =
  [| "%"; "_"; "a"; "b"; "A"; "0"; "1"; " "; "./"; "ab"; "%a"; "a%"; "_b" |]

let glob_pieces = [| "*"; "?"; "a"; "b"; "[a-c]"; "[^x]"; "0"; "ab" |]

let rec gen_free ctx depth : A.expr =
  if depth >= ctx.max_depth then gen_leaf ctx
  else
    let rng = ctx.rng in
    let sub () = gen_free ctx (depth + 1) in
    let nodes =
      match dialect ctx with
      | Dialect.Sqlite_like -> sqlite_nodes
      | Dialect.Mysql_like -> mysql_nodes
      | Dialect.Postgres_like -> other_nodes
    in
    match Rng.draw rng nodes with
    | `Leaf -> gen_leaf ctx
    | `Comparison ->
        let op = Rng.pick_array rng cmp_ops in
        A.Binary (op, sub (), sub ())
    | `Col_vs_lit -> (
        match random_column ctx with
        | None -> gen_leaf ctx
        | Some col ->
            let op = Rng.pick_array rng cmp_ops_eq_heavy in
            let lit = A.Lit (gen_literal ctx) in
            if Rng.bool rng then A.Binary (op, col, lit)
            else A.Binary (op, lit, col))
    | `Col_is_lit -> (
        (* sqlite's IS / IS NOT over scalars, the Listing 1 shape *)
        match random_column ctx with
        | None -> gen_leaf ctx
        | Some col ->
            A.Is
              {
                negated = Rng.bool rng;
                arg = col;
                rhs = A.Is_expr (A.Lit (gen_literal ctx));
              })
    | `Logical ->
        A.Binary ((if Rng.bool rng then A.And else A.Or), sub (), sub ())
    | `Not -> A.Unary (A.Not, sub ())
    | `Arith ->
        let op = Rng.pick_array rng arith_ops in
        A.Binary (op, sub (), sub ())
    | `Unary_misc -> A.Unary (Rng.pick_array rng unary_ops, sub ())
    | `Is_null -> A.Is { negated = Rng.bool rng; arg = sub (); rhs = A.Is_null }
    | `Is_bool ->
        A.Is
          {
            negated = Rng.bool rng;
            arg = sub ();
            rhs = (if Rng.bool rng then A.Is_true else A.Is_false);
          }
    | `Between ->
        (* often a column between pooled bounds, probing collation edges *)
        let arg =
          if Rng.chance rng 0.5 then
            match random_column ctx with Some c -> c | None -> sub ()
          else sub ()
        in
        let bound () =
          if Rng.chance rng 0.6 then A.Lit (gen_literal ctx) else sub ()
        in
        A.Between { negated = Rng.bool rng; arg; lo = bound (); hi = bound () }
    | `In ->
        let n = Rng.int_in rng 1 3 in
        A.In_list
          {
            negated = Rng.bool rng;
            arg = sub ();
            list = List.init n (fun _ -> sub ());
          }
    | `Like ->
        (* patterns are often derived from stored text values so that exact
           and prefix matches actually occur (paper Listing 7's shape) *)
        let pooled_pattern () =
          let texts = ctx.scope.texts in
          if Array.length texts = 0 then gen_pattern rng
          else
            let s = Rng.pick_array rng texts in
            match Rng.int rng 6 with
            | 0 -> s
            | 1 -> s ^ "%"
            | 2 -> "%" ^ s
            | 3 -> String.uppercase_ascii s
            | 4 -> String.lowercase_ascii s
            | _ -> if s = "" then "%" else String.sub s 0 1 ^ "%"
        in
        let pattern =
          if Rng.chance rng 0.4 then A.Lit (Value.Text (pooled_pattern ()))
          else if Rng.chance rng 0.6 then A.Lit (Value.Text (gen_pattern rng))
          else sub ()
        in
        let arg = if Rng.chance rng 0.6 then gen_leaf ctx else sub () in
        A.Like { negated = Rng.bool rng; arg; pattern; escape = None }
    | `Case ->
        let n = Rng.int_in rng 1 2 in
        A.Case
          {
            operand = (if Rng.bool rng then Some (sub ()) else None);
            branches = List.init n (fun _ -> (sub (), sub ()));
            else_ = (if Rng.bool rng then Some (sub ()) else None);
          }
    | `Cast ->
        let ty = Rng.pick_array rng cast_types in
        A.Cast (ty, sub ())
    | `Cast_unsigned ->
        A.Cast (Datatype.Int { width = Datatype.Big; unsigned = true }, sub ())
    | `Func ->
        let fs =
          if Dialect.equal (dialect ctx) Dialect.Sqlite_like then sqlite_funcs
          else other_funcs
        in
        let f, arity = Rng.pick_array rng fs in
        let arity = match f with A.F_coalesce -> Rng.int_in rng 1 3 | _ -> arity in
        A.Func (f, List.init arity (fun _ -> sub ()))
    | `Bitop ->
        let op = Rng.pick_array rng bit_ops in
        A.Binary (op, sub (), sub ())
    | `Is_expr ->
        A.Is { negated = Rng.bool rng; arg = sub (); rhs = A.Is_expr (sub ()) }
    | `Glob ->
        let pooled_glob () =
          let texts = ctx.scope.glob_texts in
          if Array.length texts = 0 then gen_glob_pattern rng
          else
            (* a character class whose range ends exactly at the stored
               value's first character — the boundary the injected GLOB
               defect gets wrong *)
            let s = Rng.pick_array rng texts in
            let c = s.[0] in
            let lo = Char.chr (max 1 (Char.code c - 2)) in
            Printf.sprintf "[%c-%c]*" lo c
        in
        let pattern =
          if Rng.chance rng 0.4 then A.Lit (Value.Text (pooled_glob ()))
          else if Rng.chance rng 0.5 then
            A.Lit (Value.Text (gen_glob_pattern rng))
          else sub ()
        in
        let arg = if Rng.chance rng 0.6 then gen_leaf ctx else sub () in
        A.Glob { negated = Rng.bool rng; arg; pattern }
    | `Or_of_eqs -> (
        (* (c1 = v1) OR (c2 = v2): the shape the OR-union planner path
           wants *)
        match (random_column ctx, random_column ctx) with
        | Some c1, Some c2 ->
            A.Binary
              ( A.Or,
                A.Binary (A.Eq, c1, A.Lit (gen_literal ctx)),
                A.Binary (A.Eq, c2, A.Lit (gen_literal ctx)) )
        | _ -> gen_leaf ctx)
    | `Text_minus_int ->
        (* TEXT minus a large integer: paper Listing 2's precision shape *)
        A.Binary
          (A.Sub, gen_leaf ctx, A.Lit (Value.Int (Rng.pick_array rng big_ints)))
    | `Collate -> A.Collate (sub (), Rng.pick_array rng collations)
    | `Concat -> A.Binary (A.Concat, sub (), sub ())
    | `Null_safe_eq -> A.Binary (A.Null_safe_eq, sub (), sub ())
    | `Least ->
        let f = if Rng.bool rng then A.F_least else A.F_greatest in
        A.Func (f, List.init (Rng.int_in rng 2 3) (fun _ -> sub ()))

and gen_leaf ctx : A.expr =
  if Rng.chance ctx.rng 0.55 then
    match random_column ctx with
    | Some col -> col
    | None -> A.Lit (gen_literal ctx)
  else A.Lit (gen_literal ctx)

and gen_literal ctx : Value.t =
  if Rng.chance ctx.rng 0.45 then
    match pooled_literal ctx with
    | Some v -> v
    | None -> literal ctx.rng (dialect ctx)
  else literal ctx.rng (dialect ctx)

and gen_pattern rng =
  String.concat ""
    (List.init (Rng.int_in rng 1 3) (fun _ -> Rng.pick_array rng like_pieces))

and gen_glob_pattern rng =
  String.concat ""
    (List.init (Rng.int_in rng 1 3) (fun _ -> Rng.pick_array rng glob_pieces))

(* ------------------------------------------------------------------ *)
(* Type-directed generation (postgres)                                  *)

let pg_pool_literal ctx ty =
  match pooled_literal ctx with
  | Some v
    when (match (ty, v) with
         | P_int, Value.Int _ -> true
         | P_real, Value.Real _ -> true
         | P_text, Value.Text _ -> true
         | P_bool, Value.Bool _ -> true
         | P_blob, Value.Blob _ -> true
         | _ -> false) ->
      Some v
  | _ -> None

let pg_literal rng = function
  | P_int -> Value.Int (Rng.interesting_int rng)
  | P_real -> Value.Real (Rng.interesting_real rng)
  | P_text -> Value.Text (Rng.small_string rng)
  | P_bool -> Value.Bool (Rng.bool rng)
  | P_blob -> Value.Blob (Rng.small_string rng)

let scalar_tys = [| P_int; P_real; P_text; P_bool |]
let ordered_tys = [| P_int; P_real; P_text |]

let pg_bool_nodes =
  Rng.weighted
    [
      (4, `Leaf);
      (6, `Comparison);
      (4, `Logical);
      (2, `Not);
      (3, `Is_null);
      (2, `Is_bool);
      (2, `Between);
      (2, `In);
      (2, `Like);
      (2, `Distinct);
      (1, `Case);
    ]

let pg_int_nodes =
  Rng.weighted [ (6, `Leaf); (3, `Arith); (1, `Neg); (1, `Abs); (1, `Case) ]

let pg_real_nodes = Rng.weighted [ (6, `Leaf); (3, `Arith); (1, `Cast_int) ]

let pg_text_nodes =
  Rng.weighted
    [
      (6, `Leaf); (2, `Concat); (2, `Lower); (1, `Trim); (1, `Substr);
      (1, `Replace); (1, `Cast_int);
    ]

let trims = [| A.F_trim; A.F_ltrim; A.F_rtrim |]

let rec gen_pg ctx depth (ty : pg_ty) : A.expr =
  let rng = ctx.rng in
  let leaf () =
    let cols = ctx.scope.pg_columns.(pg_index ty) in
    if Array.length cols > 0 && Rng.chance rng 0.55 then
      qualify ctx (Rng.pick_array rng cols)
    else
      match (Rng.chance rng 0.45, pg_pool_literal ctx ty) with
      | true, Some v -> A.Lit v
      | _ -> A.Lit (pg_literal rng ty)
  in
  if depth >= ctx.max_depth then leaf ()
  else
    let sub ty' = gen_pg ctx (depth + 1) ty' in
    let scalar_ty () = Rng.pick_array rng scalar_tys in
    match ty with
    | P_bool -> (
        match Rng.draw rng pg_bool_nodes with
        | `Leaf -> leaf ()
        | `Comparison ->
            let t = scalar_ty () in
            let op = Rng.pick_array rng cmp_ops in
            A.Binary (op, sub t, sub t)
        | `Logical ->
            A.Binary ((if Rng.bool rng then A.And else A.Or), sub P_bool, sub P_bool)
        | `Not -> A.Unary (A.Not, sub P_bool)
        | `Is_null ->
            A.Is { negated = Rng.bool rng; arg = sub (scalar_ty ()); rhs = A.Is_null }
        | `Is_bool ->
            A.Is
              {
                negated = Rng.bool rng;
                arg = sub P_bool;
                rhs = (if Rng.bool rng then A.Is_true else A.Is_false);
              }
        | `Between ->
            let t = Rng.pick_array rng ordered_tys in
            A.Between
              { negated = Rng.bool rng; arg = sub t; lo = sub t; hi = sub t }
        | `In ->
            let t = scalar_ty () in
            A.In_list
              {
                negated = Rng.bool rng;
                arg = sub t;
                list = List.init (Rng.int_in rng 1 3) (fun _ -> sub t);
              }
        | `Like ->
            A.Like
              {
                negated = Rng.bool rng;
                arg = sub P_text;
                pattern = A.Lit (Value.Text (gen_pattern rng));
                escape = None;
              }
        | `Distinct ->
            let t = scalar_ty () in
            A.Is
              {
                negated = false;
                arg = sub t;
                rhs = A.Is_distinct_from (sub t);
              }
        | `Case ->
            A.Case
              {
                operand = None;
                branches = [ (sub P_bool, sub P_bool) ];
                else_ = Some (sub P_bool);
              })
    | P_int -> (
        match Rng.draw rng pg_int_nodes with
        | `Leaf -> leaf ()
        | `Arith ->
            (* Div/Rem excluded: division by zero errors in postgres *)
            let op = Rng.pick_array rng pg_arith_ops in
            A.Binary (op, sub P_int, sub P_int)
        | `Neg -> A.Unary (A.Neg, sub P_int)
        | `Abs -> A.Func (A.F_abs, [ sub P_int ])
        | `Case ->
            A.Case
              {
                operand = None;
                branches = [ (sub P_bool, sub P_int) ];
                else_ = Some (sub P_int);
              })
    | P_real -> (
        match Rng.draw rng pg_real_nodes with
        | `Leaf -> leaf ()
        | `Arith ->
            let op = Rng.pick_array rng pg_arith_ops in
            A.Binary (op, sub P_real, sub P_real)
        | `Cast_int -> A.Cast (Datatype.Real, sub P_int))
    | P_text -> (
        match Rng.draw rng pg_text_nodes with
        | `Leaf -> leaf ()
        | `Concat -> A.Binary (A.Concat, sub P_text, sub P_text)
        | `Lower ->
            A.Func ((if Rng.bool rng then A.F_lower else A.F_upper), [ sub P_text ])
        | `Trim ->
            A.Func (Rng.pick_array rng trims, [ sub P_text ])
        | `Substr ->
            A.Func (A.F_substr, [ sub P_text; A.Lit (Value.Int (Int64.of_int (Rng.int_in rng (-3) 4))) ])
        | `Replace -> A.Func (A.F_replace, [ sub P_text; sub P_text; sub P_text ])
        | `Cast_int -> A.Cast (Datatype.Text, sub P_int))
    | P_blob -> leaf ()

(* ------------------------------------------------------------------ *)
(* Simple predicates: bare column-vs-literal shapes used as WHERE
   conjuncts so that index access paths actually fire                    *)

let sqlite_simple_shapes =
  Rng.weighted
    [
      (5, `Cmp); (2, `Is_null); (3, `Is_lit); (2, `Or_eqs); (2, `Like);
      (2, `Between); (1, `In);
    ]

(* no IS-literal or OR-of-equalities shapes outside sqlite *)
let other_simple_shapes =
  Rng.weighted
    [
      (5, `Cmp); (2, `Is_null); (0, `Is_lit); (0, `Or_eqs); (2, `Like);
      (2, `Between); (1, `In);
    ]

let simple_predicate ctx : A.expr =
  let rng = ctx.rng in
  let dialect = dialect ctx in
  match pick_column ctx with
  | None -> A.Lit (literal rng dialect)
  | Some c -> (
      let col = qualify ctx c in
      let dt = c.info.Schema_info.ci_type in
      match dialect with
      | Dialect.Postgres_like -> (
          (* typed: compare against a literal of the column's type *)
          let lit ty = A.Lit (literal_for_column rng dialect ty) in
          match dt with
          | Datatype.Bool ->
              A.Is
                {
                  negated = Rng.bool rng;
                  arg = col;
                  rhs = (if Rng.bool rng then A.Is_true else A.Is_false);
                }
          | _ ->
              let op = Rng.pick_array rng cmp_ops_eq_heavy in
              let l =
                match pooled_literal ctx with
                | Some v
                  when (match (dt, v) with
                       | (Datatype.Int _ | Datatype.Serial), Value.Int _ -> true
                       | Datatype.Real, Value.Real _ -> true
                       | Datatype.Text, Value.Text _ -> true
                       | Datatype.Blob, Value.Blob _ -> true
                       | _ -> false) ->
                    A.Lit v
                | _ -> lit dt
              in
              if Rng.bool rng then A.Binary (op, col, l) else A.Binary (op, l, col))
      | Dialect.Sqlite_like | Dialect.Mysql_like -> (
          let lit = A.Lit (gen_literal ctx) in
          let shapes =
            if Dialect.equal dialect Dialect.Sqlite_like then sqlite_simple_shapes
            else other_simple_shapes
          in
          match Rng.draw rng shapes with
          | `Cmp ->
              let op = Rng.pick_array rng cmp_ops_eq_heavy in
              if Rng.bool rng then A.Binary (op, col, lit)
              else A.Binary (op, lit, col)
          | `Or_eqs -> (
              match random_column ctx with
              | Some col2 ->
                  A.Binary
                    ( A.Or,
                      A.Binary (A.Eq, col, lit),
                      A.Binary (A.Eq, col2, A.Lit (gen_literal ctx)) )
              | None -> A.Binary (A.Eq, col, lit))
          | `Is_null -> A.Is { negated = Rng.bool rng; arg = col; rhs = A.Is_null }
          | `Is_lit -> A.Is { negated = Rng.bool rng; arg = col; rhs = A.Is_expr lit }
          | `Like ->
              let texts = ctx.scope.texts in
              let pattern =
                if Array.length texts > 0 && Rng.chance rng 0.6 then
                  let s = Rng.pick_array rng texts in
                  match Rng.int rng 3 with
                  | 0 -> s
                  | 1 -> s ^ "%"
                  | _ -> String.uppercase_ascii s
                else gen_pattern rng
              in
              A.Like
                {
                  negated = Rng.bool rng;
                  arg = col;
                  pattern = A.text_lit pattern;
                  escape = None;
                }
          | `Between ->
              A.Between
                {
                  negated = Rng.bool rng;
                  arg = col;
                  lo = A.Lit (gen_literal ctx);
                  hi = A.Lit (gen_literal ctx);
                }
          | `In ->
              A.In_list
                {
                  negated = Rng.bool rng;
                  arg = col;
                  list =
                    List.init (Rng.int_in rng 1 3) (fun _ ->
                        A.Lit (gen_literal ctx));
                }))

(* ------------------------------------------------------------------ *)
(* Targeted predicates: guided generation (Gen_bias) asks for a WHERE
   conjunct exercising one specific expression kind.  Shapes reuse the
   random generators' constructors so that everything produced here is
   also reachable blind — guidance changes the sampling distribution,
   never the query language. *)

let pred_funcs =
  [ (A.F_abs, 1); (A.F_length, 1); (A.F_lower, 1); (A.F_upper, 1);
    (A.F_coalesce, 2); (A.F_nullif, 2); (A.F_trim, 1); (A.F_substr, 2);
    (A.F_hex, 1); (A.F_round, 1); (A.F_sign, 1) ]

let sqlite_pred_funcs =
  Array.of_list (pred_funcs @ [ (A.F_typeof, 1); (A.F_quote, 1) ])

let other_pred_funcs = Array.of_list pred_funcs

let predicate_of_kind ctx (kind : string) : A.expr option =
  let rng = ctx.rng in
  match dialect ctx with
  | Dialect.Postgres_like -> (
      let b () = gen_pg ctx 1 P_bool in
      let i () = gen_pg ctx 1 P_int in
      let t () = gen_pg ctx 1 P_text in
      let sc () = gen_pg ctx 1 (Rng.pick_array rng ordered_tys) in
      let cmp_op () = Rng.pick_array rng cmp_ops in
      match kind with
      | "cmp" -> Some (A.Binary (cmp_op (), i (), i ()))
      | "logic" ->
          Some (A.Binary ((if Rng.bool rng then A.And else A.Or), b (), b ()))
      | "not" -> Some (A.Unary (A.Not, b ()))
      | "unary" -> Some (A.Binary (cmp_op (), A.Unary (A.Neg, i ()), i ()))
      | "arith" ->
          let op = Rng.pick_array rng pg_arith_ops in
          Some (A.Binary (cmp_op (), A.Binary (op, i (), i ()), i ()))
      | "concat" ->
          Some (A.Binary (A.Eq, A.Binary (A.Concat, t (), t ()), t ()))
      | "is_null" ->
          Some (A.Is { negated = Rng.bool rng; arg = sc (); rhs = A.Is_null })
      | "is_bool" ->
          Some
            (A.Is
               {
                 negated = Rng.bool rng;
                 arg = b ();
                 rhs = (if Rng.bool rng then A.Is_true else A.Is_false);
               })
      | "is_distinct" ->
          Some
            (A.Is { negated = false; arg = i (); rhs = A.Is_distinct_from (i ()) })
      | "between" ->
          Some
            (A.Between { negated = Rng.bool rng; arg = i (); lo = i (); hi = i () })
      | "in" ->
          Some
            (A.In_list
               {
                 negated = Rng.bool rng;
                 arg = i ();
                 list = List.init (Rng.int_in rng 1 3) (fun _ -> i ());
               })
      | "like" ->
          Some
            (A.Like
               {
                 negated = Rng.bool rng;
                 arg = t ();
                 pattern = A.Lit (Value.Text (gen_pattern rng));
                 escape = None;
               })
      | "case" ->
          Some
            (A.Case
               { operand = None; branches = [ (b (), b ()) ]; else_ = Some (b ()) })
      | "cast" ->
          Some
            (A.Binary (cmp_op (), A.Cast (Datatype.Real, i ()), gen_pg ctx 1 P_real))
      | "func" ->
          Some (A.Binary (cmp_op (), A.Func (A.F_length, [ t () ]), i ()))
      | _ -> None)
  | Dialect.Sqlite_like | Dialect.Mysql_like -> (
      let sqlite = Dialect.equal (dialect ctx) Dialect.Sqlite_like in
      let mysql = Dialect.equal (dialect ctx) Dialect.Mysql_like in
      let leaf () = gen_leaf ctx in
      let lit () = A.Lit (gen_literal ctx) in
      let colf () =
        match random_column ctx with Some c -> c | None -> leaf ()
      in
      let cmp_op () = Rng.pick_array rng cmp_ops_eq_heavy in
      match kind with
      | "cmp" ->
          let col = colf () and l = lit () in
          Some
            (if Rng.bool rng then A.Binary (cmp_op (), col, l)
             else A.Binary (cmp_op (), l, col))
      | "logic" ->
          Some
            (A.Binary
               ( (if Rng.bool rng then A.And else A.Or),
                 simple_predicate ctx,
                 simple_predicate ctx ))
      | "not" -> Some (A.Unary (A.Not, simple_predicate ctx))
      | "unary" ->
          Some (A.Unary (Rng.pick_array rng unary_ops, leaf ()))
      | "arith" ->
          let op = Rng.pick_array rng arith_ops in
          Some (A.Binary (op, leaf (), leaf ()))
      | "concat" when sqlite -> Some (A.Binary (A.Concat, leaf (), leaf ()))
      | "bitop" ->
          let op = Rng.pick_array rng bit_ops in
          Some (A.Binary (op, leaf (), leaf ()))
      | "nullsafe_eq" when mysql ->
          Some (A.Binary (A.Null_safe_eq, colf (), lit ()))
      | "is_null" ->
          Some (A.Is { negated = Rng.bool rng; arg = colf (); rhs = A.Is_null })
      | "is_bool" ->
          Some
            (A.Is
               {
                 negated = Rng.bool rng;
                 arg = simple_predicate ctx;
                 rhs = (if Rng.bool rng then A.Is_true else A.Is_false);
               })
      | "is_expr" when sqlite ->
          Some
            (A.Is { negated = Rng.bool rng; arg = colf (); rhs = A.Is_expr (lit ()) })
      | "between" ->
          Some
            (A.Between
               { negated = Rng.bool rng; arg = colf (); lo = lit (); hi = lit () })
      | "in" ->
          Some
            (A.In_list
               {
                 negated = Rng.bool rng;
                 arg = colf ();
                 list = List.init (Rng.int_in rng 1 3) (fun _ -> lit ());
               })
      | "like" ->
          Some
            (A.Like
               {
                 negated = Rng.bool rng;
                 arg = colf ();
                 pattern = A.text_lit (gen_pattern rng);
                 escape = None;
               })
      | "glob" when sqlite ->
          Some
            (A.Glob
               {
                 negated = Rng.bool rng;
                 arg = colf ();
                 pattern = A.text_lit (gen_glob_pattern rng);
               })
      | "case" ->
          Some
            (A.Case
               {
                 operand = None;
                 branches = [ (simple_predicate ctx, lit ()) ];
                 else_ = Some (lit ());
               })
      | "cast" ->
          let ty =
            if mysql && Rng.bool rng then
              Datatype.Int { width = Datatype.Big; unsigned = true }
            else
              Rng.pick rng
                [
                  Datatype.Int { width = Datatype.Regular; unsigned = false };
                  Datatype.Real;
                  Datatype.Text;
                ]
          in
          Some (A.Cast (ty, leaf ()))
      | "collate" when sqlite ->
          Some
            (A.Binary
               (cmp_op (), A.Collate (colf (), Rng.pick_array rng collations), lit ()))
      | "func" ->
          let fs = if sqlite then sqlite_pred_funcs else other_pred_funcs in
          let f, arity = Rng.pick_array rng fs in
          Some (A.Func (f, List.init arity (fun _ -> leaf ())))
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)

let condition ctx =
  match dialect ctx with
  | Dialect.Postgres_like -> gen_pg ctx 0 P_bool
  | Dialect.Sqlite_like | Dialect.Mysql_like -> gen_free ctx 0

let scalar ctx =
  match dialect ctx with
  | Dialect.Postgres_like -> gen_pg ctx 0 (Rng.pick_array ctx.rng scalar_tys)
  | Dialect.Sqlite_like when Rng.chance ctx.rng 0.12 -> (
      (* TYPEOF over a column: probes sqlite's type flexibility *)
      match random_column ctx with
      | Some col -> A.Func (A.F_typeof, [ col ])
      | None -> gen_free ctx 0)
  | Dialect.Sqlite_like | Dialect.Mysql_like -> gen_free ctx 0
