open Sqlval
module A = Sqlast.Ast

type error = { message : string; position : int }

let pp_error fmt e =
  Format.fprintf fmt "parse error at token %d: %s" e.position e.message

let show_error e = Format.asprintf "%a" pp_error e

exception Fail of string * int

type state = { tokens : Lexer.token array; mutable pos : int }

let cur st = st.tokens.(st.pos)
let peek st k =
  if st.pos + k < Array.length st.tokens then st.tokens.(st.pos + k)
  else Lexer.EOF

let advance st = st.pos <- st.pos + 1
let fail st msg = raise (Fail (msg, st.pos))

let eat_kw st kw =
  match cur st with
  | Lexer.KEYWORD k when k = kw -> advance st
  | t -> fail st (Printf.sprintf "expected %s, found %s" kw (Lexer.show_token t))

let try_kw st kw =
  match cur st with
  | Lexer.KEYWORD k when k = kw ->
      advance st;
      true
  | _ -> false

let eat_op st op =
  match cur st with
  | Lexer.OP o when o = op -> advance st
  | t -> fail st (Printf.sprintf "expected %s, found %s" op (Lexer.show_token t))

let try_op st op =
  match cur st with
  | Lexer.OP o when o = op ->
      advance st;
      true
  | _ -> false

let ident st =
  match cur st with
  | Lexer.IDENT s ->
      advance st;
      s
  | t -> fail st ("expected identifier, found " ^ Lexer.show_token t)

(* ------------------------------------------------------------------ *)
(* Types                                                                *)

let parse_type st : Datatype.t =
  let word () =
    match cur st with
    | Lexer.IDENT s ->
        advance st;
        String.uppercase_ascii s
    | Lexer.KEYWORD ("UNSIGNED" | "SIGNED") as t -> (
        match t with
        | Lexer.KEYWORD k ->
            advance st;
            k
        | _ -> assert false)
    | t -> fail st ("expected type name, found " ^ Lexer.show_token t)
  in
  let base = word () in
  let full =
    match cur st with
    | Lexer.KEYWORD "UNSIGNED" ->
        advance st;
        base ^ " UNSIGNED"
    | Lexer.IDENT s when String.uppercase_ascii s = "PRECISION" ->
        (* DOUBLE PRECISION *)
        advance st;
        base
    | _ -> base
  in
  match full with
  | "UNSIGNED" -> Datatype.Int { width = Datatype.Big; unsigned = true }
  | "SIGNED" -> Datatype.Int { width = Datatype.Big; unsigned = false }
  | "NUMERIC" -> Datatype.Any
  | s -> (
      match Datatype.of_sql s with
      | Some t -> t
      | None -> fail st ("unknown type: " ^ s))

(* ------------------------------------------------------------------ *)
(* Expressions                                                          *)

let func_of_name = function
  | "ABS" -> Some A.F_abs
  | "LENGTH" -> Some A.F_length
  | "LOWER" -> Some A.F_lower
  | "UPPER" -> Some A.F_upper
  | "COALESCE" -> Some A.F_coalesce
  | "IFNULL" -> Some A.F_ifnull
  | "NULLIF" -> Some A.F_nullif
  | "TYPEOF" -> Some A.F_typeof
  | "TRIM" -> Some A.F_trim
  | "LTRIM" -> Some A.F_ltrim
  | "RTRIM" -> Some A.F_rtrim
  | "SUBSTR" | "SUBSTRING" -> Some A.F_substr
  | "REPLACE" -> Some A.F_replace
  | "INSTR" -> Some A.F_instr
  | "HEX" -> Some A.F_hex
  | "ROUND" -> Some A.F_round
  | "SIGN" -> Some A.F_sign
  | "LEAST" -> Some A.F_least
  | "GREATEST" -> Some A.F_greatest
  | "QUOTE" -> Some A.F_quote
  | _ -> None

let agg_of_name = function
  | "COUNT" -> Some A.A_count
  | "SUM" -> Some A.A_sum
  | "AVG" -> Some A.A_avg
  | "MIN" -> Some A.A_min
  | "MAX" -> Some A.A_max
  | "TOTAL" -> Some A.A_total
  | _ -> None

let rec parse_expr_or st : A.expr =
  let lhs = parse_expr_and st in
  if try_kw st "OR" then A.Binary (A.Or, lhs, parse_expr_or st) else lhs

and parse_expr_and st : A.expr =
  let lhs = parse_expr_not st in
  if try_kw st "AND" then A.Binary (A.And, lhs, parse_expr_and st) else lhs

and parse_expr_not st : A.expr =
  if try_kw st "NOT" then A.Unary (A.Not, parse_expr_not st)
  else parse_expr_cmp st

and parse_expr_cmp st : A.expr =
  let lhs = parse_expr_bit st in
  let rec postfix lhs =
    match cur st with
    | Lexer.OP "=" | Lexer.OP "==" ->
        advance st;
        postfix (A.Binary (A.Eq, lhs, parse_expr_bit st))
    | Lexer.OP "<>" | Lexer.OP "!=" ->
        advance st;
        postfix (A.Binary (A.Neq, lhs, parse_expr_bit st))
    | Lexer.OP "<=" ->
        advance st;
        postfix (A.Binary (A.Le, lhs, parse_expr_bit st))
    | Lexer.OP ">=" ->
        advance st;
        postfix (A.Binary (A.Ge, lhs, parse_expr_bit st))
    | Lexer.OP "<" ->
        advance st;
        postfix (A.Binary (A.Lt, lhs, parse_expr_bit st))
    | Lexer.OP ">" ->
        advance st;
        postfix (A.Binary (A.Gt, lhs, parse_expr_bit st))
    | Lexer.OP "<=>" ->
        advance st;
        postfix (A.Binary (A.Null_safe_eq, lhs, parse_expr_bit st))
    | Lexer.KEYWORD "IS" -> (
        advance st;
        let negated = try_kw st "NOT" in
        match cur st with
        | Lexer.KEYWORD "NULL" ->
            advance st;
            postfix (A.Is { negated; arg = lhs; rhs = A.Is_null })
        | Lexer.KEYWORD "TRUE" ->
            advance st;
            postfix (A.Is { negated; arg = lhs; rhs = A.Is_true })
        | Lexer.KEYWORD "FALSE" ->
            advance st;
            postfix (A.Is { negated; arg = lhs; rhs = A.Is_false })
        | Lexer.KEYWORD "DISTINCT" ->
            advance st;
            eat_kw st "FROM";
            let rhs = parse_expr_bit st in
            if negated then postfix (A.Binary (A.Null_safe_eq, lhs, rhs))
            else
              postfix
                (A.Is { negated = false; arg = lhs; rhs = A.Is_distinct_from rhs })
        | _ ->
            let rhs = parse_expr_bit st in
            if negated then
              postfix (A.Is { negated = true; arg = lhs; rhs = A.Is_expr rhs })
            else postfix (A.Binary (A.Null_safe_eq, lhs, rhs)))
    | Lexer.KEYWORD "IN" ->
        advance st;
        eat_op st "(";
        let list = parse_expr_list st in
        eat_op st ")";
        postfix (A.In_list { negated = false; arg = lhs; list })
    | Lexer.KEYWORD "LIKE" ->
        advance st;
        let pattern = parse_expr_bit st in
        let escape =
          if try_kw st "ESCAPE" then Some (parse_expr_bit st) else None
        in
        postfix (A.Like { negated = false; arg = lhs; pattern; escape })
    | Lexer.KEYWORD "GLOB" ->
        advance st;
        let pattern = parse_expr_bit st in
        postfix (A.Glob { negated = false; arg = lhs; pattern })
    | Lexer.KEYWORD "BETWEEN" ->
        advance st;
        let lo = parse_expr_bit st in
        eat_kw st "AND";
        let hi = parse_expr_bit st in
        postfix (A.Between { negated = false; arg = lhs; lo; hi })
    | Lexer.KEYWORD "NOT" when peek st 1 = Lexer.KEYWORD "NULL" ->
        (* sqlite's postfix "expr NOT NULL" (Listing 1 uses it) *)
        advance st;
        advance st;
        postfix (A.Is { negated = true; arg = lhs; rhs = A.Is_null })
    | Lexer.KEYWORD "NOT" -> (
        (* a NOT IN / NOT LIKE / NOT GLOB / NOT BETWEEN *)
        match peek st 1 with
        | Lexer.KEYWORD ("IN" | "LIKE" | "GLOB" | "BETWEEN") -> (
            advance st;
            match cur st with
            | Lexer.KEYWORD "IN" ->
                advance st;
                eat_op st "(";
                let list = parse_expr_list st in
                eat_op st ")";
                postfix (A.In_list { negated = true; arg = lhs; list })
            | Lexer.KEYWORD "LIKE" ->
                advance st;
                let pattern = parse_expr_bit st in
                let escape =
                  if try_kw st "ESCAPE" then Some (parse_expr_bit st) else None
                in
                postfix (A.Like { negated = true; arg = lhs; pattern; escape })
            | Lexer.KEYWORD "GLOB" ->
                advance st;
                let pattern = parse_expr_bit st in
                postfix (A.Glob { negated = true; arg = lhs; pattern })
            | Lexer.KEYWORD "BETWEEN" ->
                advance st;
                let lo = parse_expr_bit st in
                eat_kw st "AND";
                let hi = parse_expr_bit st in
                postfix (A.Between { negated = true; arg = lhs; lo; hi })
            | _ -> assert false)
        | _ -> lhs)
    | _ -> lhs
  in
  postfix lhs

and parse_expr_bit st : A.expr =
  let lhs = parse_expr_add st in
  let rec go lhs =
    match cur st with
    | Lexer.OP "&" ->
        advance st;
        go (A.Binary (A.Bit_and, lhs, parse_expr_add st))
    | Lexer.OP "|" ->
        advance st;
        go (A.Binary (A.Bit_or, lhs, parse_expr_add st))
    | Lexer.OP "<<" ->
        advance st;
        go (A.Binary (A.Shift_left, lhs, parse_expr_add st))
    | Lexer.OP ">>" ->
        advance st;
        go (A.Binary (A.Shift_right, lhs, parse_expr_add st))
    | _ -> lhs
  in
  go lhs

and parse_expr_add st : A.expr =
  let lhs = parse_expr_mul st in
  let rec go lhs =
    match cur st with
    | Lexer.OP "+" ->
        advance st;
        go (A.Binary (A.Add, lhs, parse_expr_mul st))
    | Lexer.OP "-" ->
        advance st;
        go (A.Binary (A.Sub, lhs, parse_expr_mul st))
    | _ -> lhs
  in
  go lhs

and parse_expr_mul st : A.expr =
  let lhs = parse_expr_concat st in
  let rec go lhs =
    match cur st with
    | Lexer.OP "*" ->
        advance st;
        go (A.Binary (A.Mul, lhs, parse_expr_concat st))
    | Lexer.OP "/" ->
        advance st;
        go (A.Binary (A.Div, lhs, parse_expr_concat st))
    | Lexer.OP "%" ->
        advance st;
        go (A.Binary (A.Rem, lhs, parse_expr_concat st))
    | _ -> lhs
  in
  go lhs

and parse_expr_concat st : A.expr =
  let lhs = parse_expr_unary st in
  if try_op st "||" then A.Binary (A.Concat, lhs, parse_expr_concat st)
  else lhs

and parse_expr_unary st : A.expr =
  match cur st with
  | Lexer.OP "-" -> (
      (* fold a directly negated numeric literal so that "-426" parses as
         the literal it was printed from; postfix COLLATE still applies *)
      match peek st 1 with
      | Lexer.INT i when i <> Int64.min_int ->
          advance st;
          advance st;
          collate_loop st (A.Lit (Value.Int (Int64.neg i)))
      | Lexer.FLOAT f ->
          advance st;
          advance st;
          collate_loop st (A.Lit (Value.Real (-.f)))
      | Lexer.BIG_INT digits ->
          (* only "-9223372036854775808" fits int64 once negated *)
          advance st;
          advance st;
          collate_loop st
            (A.Lit
               (match Int64.of_string_opt ("-" ^ digits) with
               | Some i -> Value.Int i
               | None -> Value.Real (-.float_of_string digits)))
      | _ ->
          advance st;
          A.Unary (A.Neg, parse_expr_unary st))
  | Lexer.OP "+" ->
      advance st;
      A.Unary (A.Pos, parse_expr_unary st)
  | Lexer.OP "~" ->
      advance st;
      A.Unary (A.Bit_not, parse_expr_unary st)
  | _ -> parse_expr_postfix st

and parse_expr_postfix st : A.expr = collate_loop st (parse_expr_primary st)

and collate_loop st e : A.expr =
  if try_kw st "COLLATE" then begin
    let name = ident st in
    match Collation.of_keyword name with
    | Some c -> collate_loop st (A.Collate (e, c))
    | None -> fail st ("unknown collation: " ^ name)
  end
  else e

and parse_expr_list st : A.expr list =
  let first = parse_expr_or st in
  let rec go acc =
    if try_op st "," then go (parse_expr_or st :: acc) else List.rev acc
  in
  go [ first ]

and parse_expr_primary st : A.expr =
  match cur st with
  | Lexer.INT i ->
      advance st;
      A.Lit (Value.Int i)
  | Lexer.FLOAT f ->
      advance st;
      A.Lit (Value.Real f)
  | Lexer.BIG_INT digits ->
      advance st;
      A.Lit (Value.Real (float_of_string digits))
  | Lexer.STRING s ->
      advance st;
      A.Lit (Value.Text s)
  | Lexer.BLOB b ->
      advance st;
      A.Lit (Value.Blob b)
  | Lexer.KEYWORD "NULL" ->
      advance st;
      A.Lit Value.Null
  | Lexer.KEYWORD "TRUE" ->
      advance st;
      A.Lit (Value.Bool true)
  | Lexer.KEYWORD "FALSE" ->
      advance st;
      A.Lit (Value.Bool false)
  | Lexer.OP "(" ->
      advance st;
      let e = parse_expr_or st in
      eat_op st ")";
      e
  | Lexer.KEYWORD "CAST" ->
      advance st;
      eat_op st "(";
      let e = parse_expr_or st in
      eat_kw st "AS";
      let ty = parse_type st in
      eat_op st ")";
      A.Cast (ty, e)
  | Lexer.KEYWORD "CASE" ->
      advance st;
      let operand =
        match cur st with
        | Lexer.KEYWORD "WHEN" -> None
        | _ -> Some (parse_expr_or st)
      in
      let rec branches acc =
        if try_kw st "WHEN" then begin
          let c = parse_expr_or st in
          eat_kw st "THEN";
          let r = parse_expr_or st in
          branches ((c, r) :: acc)
        end
        else List.rev acc
      in
      let branches = branches [] in
      let else_ = if try_kw st "ELSE" then Some (parse_expr_or st) else None in
      eat_kw st "END";
      A.Case { operand; branches; else_ }
  | Lexer.KEYWORD "REPLACE" when peek st 1 = Lexer.OP "(" ->
      (* REPLACE is both a keyword (INSERT OR REPLACE) and a function *)
      advance st;
      eat_op st "(";
      let args = parse_expr_list st in
      eat_op st ")";
      A.Func (A.F_replace, args)
  | Lexer.IDENT name when peek st 1 = Lexer.OP "(" -> (
      let upper = String.uppercase_ascii name in
      advance st;
      eat_op st "(";
      if upper = "COUNT" && try_op st "*" then begin
        eat_op st ")";
        A.Agg (A.A_count_star, None)
      end
      else
        match agg_of_name upper with
        | Some agg ->
            let arg = parse_expr_or st in
            eat_op st ")";
            A.Agg (agg, Some arg)
        | None -> (
            match func_of_name upper with
            | Some f ->
                let args =
                  match cur st with
                  | Lexer.OP ")" -> []
                  | _ -> parse_expr_list st
                in
                eat_op st ")";
                A.Func (f, args)
            | None -> fail st ("unknown function: " ^ name)))
  | Lexer.IDENT name -> (
      advance st;
      if try_op st "." then
        let column = ident st in
        A.Col { table = Some name; column }
      else A.Col { table = None; column = name })
  | t -> fail st ("unexpected token in expression: " ^ Lexer.show_token t)

(* ------------------------------------------------------------------ *)
(* Queries                                                              *)

let rec parse_query st : A.query =
  let first = parse_query_atom st in
  let rec go lhs =
    match cur st with
    | Lexer.KEYWORD "UNION" ->
        advance st;
        let op = if try_kw st "ALL" then A.Union_all else A.Union in
        go (A.Q_compound (op, lhs, parse_query_atom st))
    | Lexer.KEYWORD "INTERSECT" ->
        advance st;
        go (A.Q_compound (A.Intersect, lhs, parse_query_atom st))
    | Lexer.KEYWORD "EXCEPT" ->
        advance st;
        go (A.Q_compound (A.Except, lhs, parse_query_atom st))
    | _ -> lhs
  in
  go first

and parse_query_atom st : A.query =
  match cur st with
  | Lexer.KEYWORD "SELECT" -> A.Q_select (parse_select st)
  | Lexer.KEYWORD "VALUES" ->
      advance st;
      let rec rows acc =
        eat_op st "(";
        let row = parse_expr_list st in
        eat_op st ")";
        if try_op st "," then rows (row :: acc) else List.rev (row :: acc)
      in
      A.Q_values (rows [])
  | Lexer.OP "(" ->
      advance st;
      let q = parse_query st in
      eat_op st ")";
      q
  | t -> fail st ("expected SELECT or VALUES, found " ^ Lexer.show_token t)

and parse_select st : A.select =
  eat_kw st "SELECT";
  let distinct = try_kw st "DISTINCT" in
  ignore (try_kw st "ALL");
  let parse_item () =
    if try_op st "*" then A.Star
    else
      match (cur st, peek st 1, peek st 2) with
      | Lexer.IDENT t, Lexer.OP ".", Lexer.OP "*" ->
          advance st;
          advance st;
          advance st;
          A.Table_star t
      | _ ->
          let e = parse_expr_or st in
          let alias =
            if try_kw st "AS" then Some (ident st)
            else
              match cur st with
              | Lexer.IDENT a ->
                  advance st;
                  Some a
              | _ -> None
          in
          A.Sel_expr (e, alias)
  in
  let rec items acc =
    let it = parse_item () in
    if try_op st "," then items (it :: acc) else List.rev (it :: acc)
  in
  let sel_items = items [] in
  let sel_from =
    if try_kw st "FROM" then begin
      let rec from_items acc =
        let it = parse_from_item st in
        if try_op st "," then from_items (it :: acc) else List.rev (it :: acc)
      in
      from_items []
    end
    else []
  in
  let sel_where = if try_kw st "WHERE" then Some (parse_expr_or st) else None in
  let sel_group_by =
    if try_kw st "GROUP" then begin
      eat_kw st "BY";
      parse_expr_list st
    end
    else []
  in
  let sel_having = if try_kw st "HAVING" then Some (parse_expr_or st) else None in
  let sel_order_by =
    if try_kw st "ORDER" then begin
      eat_kw st "BY";
      let one () =
        let e = parse_expr_or st in
        let dir =
          if try_kw st "DESC" then A.Desc
          else begin
            ignore (try_kw st "ASC");
            A.Asc
          end
        in
        (e, dir)
      in
      let rec go acc =
        let x = one () in
        if try_op st "," then go (x :: acc) else List.rev (x :: acc)
      in
      go []
    end
    else []
  in
  let int_value () =
    match cur st with
    | Lexer.INT i ->
        advance st;
        i
    | Lexer.OP "-" -> (
        advance st;
        match cur st with
        | Lexer.INT i ->
            advance st;
            Int64.neg i
        | t -> fail st ("expected integer, found " ^ Lexer.show_token t))
    | t -> fail st ("expected integer, found " ^ Lexer.show_token t)
  in
  let sel_limit = if try_kw st "LIMIT" then Some (int_value ()) else None in
  let sel_offset = if try_kw st "OFFSET" then Some (int_value ()) else None in
  {
    A.sel_distinct = distinct;
    sel_items;
    sel_from;
    sel_where;
    sel_group_by;
    sel_having;
    sel_order_by;
    sel_limit;
    sel_offset;
  }

and parse_from_item st : A.from_item =
  let primary () =
    match cur st with
    | Lexer.OP "(" ->
        (* derived table: ( <query> ) AS alias *)
        advance st;
        let sub = parse_query st in
        eat_op st ")";
        ignore (try_kw st "AS");
        let alias = ident st in
        A.F_sub { sub; alias }
    | _ ->
        let name = ident st in
        let alias =
          if try_kw st "AS" then Some (ident st)
          else
            match cur st with
            | Lexer.IDENT a ->
                advance st;
                Some a
            | _ -> None
        in
        A.F_table { name; alias }
  in
  let rec joins left =
    match cur st with
    | Lexer.KEYWORD "JOIN" ->
        advance st;
        finish_join A.Inner left
    | Lexer.KEYWORD "INNER" ->
        advance st;
        eat_kw st "JOIN";
        finish_join A.Inner left
    | Lexer.KEYWORD "LEFT" ->
        advance st;
        ignore (try_kw st "OUTER");
        eat_kw st "JOIN";
        finish_join A.Left left
    | Lexer.KEYWORD "CROSS" ->
        advance st;
        eat_kw st "JOIN";
        finish_join A.Cross left
    | _ -> left
  and finish_join kind left =
    let right = primary () in
    let on = if try_kw st "ON" then Some (parse_expr_or st) else None in
    joins (A.F_join { kind; left; right; on })
  in
  joins (primary ())

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)

let parse_column_def st : A.column_def =
  let col_name = ident st in
  let col_type =
    match cur st with
    | Lexer.IDENT _ | Lexer.KEYWORD "UNSIGNED" -> parse_type st
    | _ -> Datatype.Any
  in
  let col_collate = ref None in
  let constraints = ref [] in
  let rec go () =
    match cur st with
    | Lexer.KEYWORD "COLLATE" -> (
        advance st;
        let c = ident st in
        match Collation.of_keyword c with
        | Some coll ->
            col_collate := Some coll;
            go ()
        | None -> fail st ("unknown collation: " ^ c))
    | Lexer.KEYWORD "PRIMARY" ->
        advance st;
        eat_kw st "KEY";
        constraints := A.C_primary_key :: !constraints;
        go ()
    | Lexer.KEYWORD "UNIQUE" ->
        advance st;
        constraints := A.C_unique :: !constraints;
        go ()
    | Lexer.KEYWORD "NOT" ->
        advance st;
        eat_kw st "NULL";
        constraints := A.C_not_null :: !constraints;
        go ()
    | Lexer.KEYWORD "DEFAULT" ->
        advance st;
        (* unary level: negative literal defaults are common *)
        let e = parse_expr_unary st in
        constraints := A.C_default e :: !constraints;
        go ()
    | Lexer.KEYWORD "CHECK" ->
        advance st;
        eat_op st "(";
        let e = parse_expr_or st in
        eat_op st ")";
        constraints := A.C_check e :: !constraints;
        go ()
    | _ -> ()
  in
  go ();
  { A.col_name; col_type; col_collate = !col_collate; col_constraints = List.rev !constraints }

let parse_name_list st =
  let rec go acc =
    let n = ident st in
    if try_op st "," then go (n :: acc) else List.rev (n :: acc)
  in
  go []

let parse_create_table st : A.stmt =
  (* after CREATE TABLE *)
  let if_not_exists =
    if try_kw st "IF" then begin
      eat_kw st "NOT";
      eat_kw st "EXISTS";
      true
    end
    else false
  in
  let name = ident st in
  eat_op st "(";
  let columns = ref [] in
  let constraints = ref [] in
  let rec go () =
    (match cur st with
    | Lexer.KEYWORD "PRIMARY" ->
        advance st;
        eat_kw st "KEY";
        eat_op st "(";
        let cols = parse_name_list st in
        eat_op st ")";
        constraints := A.T_primary_key cols :: !constraints
    | Lexer.KEYWORD "UNIQUE" ->
        advance st;
        eat_op st "(";
        let cols = parse_name_list st in
        eat_op st ")";
        constraints := A.T_unique cols :: !constraints
    | Lexer.KEYWORD "CHECK" ->
        advance st;
        eat_op st "(";
        let e = parse_expr_or st in
        eat_op st ")";
        constraints := A.T_check e :: !constraints
    | _ -> columns := parse_column_def st :: !columns);
    if try_op st "," then go ()
  in
  go ();
  eat_op st ")";
  let inherits =
    if try_kw st "INHERITS" then begin
      eat_op st "(";
      let p = ident st in
      eat_op st ")";
      Some p
    end
    else None
  in
  let without_rowid =
    if try_kw st "WITHOUT" then begin
      eat_kw st "ROWID";
      true
    end
    else false
  in
  let engine =
    if try_kw st "ENGINE" then begin
      eat_op st "=";
      match String.uppercase_ascii (ident st) with
      | "INNODB" -> Some A.E_innodb
      | "MEMORY" -> Some A.E_memory
      | "MYISAM" -> Some A.E_myisam
      | "CSV" -> Some A.E_csv
      | e -> fail st ("unknown engine: " ^ e)
    end
    else None
  in
  A.Create_table
    {
      A.ct_name = name;
      ct_if_not_exists = if_not_exists;
      ct_columns = List.rev !columns;
      ct_constraints = List.rev !constraints;
      ct_without_rowid = without_rowid;
      ct_engine = engine;
      ct_inherits = inherits;
    }

let parse_create_index st ~unique : A.stmt =
  let if_not_exists =
    if try_kw st "IF" then begin
      eat_kw st "NOT";
      eat_kw st "EXISTS";
      true
    end
    else false
  in
  let name = ident st in
  eat_kw st "ON";
  let table = ident st in
  eat_op st "(";
  let one () =
    let e = parse_expr_postfix st in
    let e, coll =
      match e with A.Collate (inner, c) -> (inner, Some c) | e -> (e, None)
    in
    let desc = try_kw st "DESC" in
    ignore (try_kw st "ASC");
    { A.ic_expr = e; ic_collate = coll; ic_desc = desc }
  in
  let rec cols acc =
    let c = one () in
    if try_op st "," then cols (c :: acc) else List.rev (c :: acc)
  in
  let columns = cols [] in
  eat_op st ")";
  let where = if try_kw st "WHERE" then Some (parse_expr_or st) else None in
  A.Create_index
    {
      A.ci_name = name;
      ci_if_not_exists = if_not_exists;
      ci_table = table;
      ci_unique = unique;
      ci_columns = columns;
      ci_where = where;
    }

let parse_if_exists st =
  if try_kw st "IF" then begin
    eat_kw st "EXISTS";
    true
  end
  else false

let parse_conflict_prefix st =
  (* after INSERT/UPDATE keyword: OR IGNORE / OR REPLACE / IGNORE *)
  if try_kw st "OR" then
    if try_kw st "IGNORE" then A.On_conflict_ignore
    else if try_kw st "REPLACE" then A.On_conflict_replace
    else fail st "expected IGNORE or REPLACE after OR"
  else if try_kw st "IGNORE" then A.On_conflict_ignore
  else A.On_conflict_abort

let rec parse_stmt_inner st : A.stmt =
  match cur st with
  | Lexer.KEYWORD "EXPLAIN" ->
      advance st;
      let analyze = try_kw st "ANALYZE" in
      (match parse_stmt_inner st with
      | A.Select_stmt q -> if analyze then A.Explain_analyze q else A.Explain q
      | _ -> fail st "EXPLAIN supports only queries")
  | Lexer.KEYWORD "CREATE" -> (
      advance st;
      match cur st with
      | Lexer.KEYWORD "TABLE" ->
          advance st;
          parse_create_table st
      | Lexer.KEYWORD "UNIQUE" ->
          advance st;
          eat_kw st "INDEX";
          parse_create_index st ~unique:true
      | Lexer.KEYWORD "INDEX" ->
          advance st;
          parse_create_index st ~unique:false
      | Lexer.KEYWORD "VIEW" ->
          advance st;
          let name = ident st in
          eat_kw st "AS";
          let q = parse_query st in
          A.Create_view { name; query = q }
      | Lexer.KEYWORD "STATISTICS" ->
          advance st;
          let name = ident st in
          eat_kw st "ON";
          let columns = parse_name_list st in
          eat_kw st "FROM";
          let table = ident st in
          A.Create_statistics { name; table; columns }
      | t -> fail st ("unexpected token after CREATE: " ^ Lexer.show_token t))
  | Lexer.KEYWORD "DROP" -> (
      advance st;
      match cur st with
      | Lexer.KEYWORD "TABLE" ->
          advance st;
          let if_exists = parse_if_exists st in
          A.Drop_table { if_exists; name = ident st }
      | Lexer.KEYWORD "INDEX" ->
          advance st;
          let if_exists = parse_if_exists st in
          A.Drop_index { if_exists; name = ident st }
      | Lexer.KEYWORD "VIEW" ->
          advance st;
          let if_exists = parse_if_exists st in
          A.Drop_view { if_exists; name = ident st }
      | t -> fail st ("unexpected token after DROP: " ^ Lexer.show_token t))
  | Lexer.KEYWORD "ALTER" -> (
      advance st;
      eat_kw st "TABLE";
      let table = ident st in
      match cur st with
      | Lexer.KEYWORD "RENAME" -> (
          advance st;
          match cur st with
          | Lexer.KEYWORD "TO" ->
              advance st;
              A.Alter_table { table; action = A.Rename_table (ident st) }
          | Lexer.KEYWORD "COLUMN" ->
              advance st;
              let old_name = ident st in
              eat_kw st "TO";
              let new_name = ident st in
              A.Alter_table
                { table; action = A.Rename_column { old_name; new_name } }
          | _ ->
              let old_name = ident st in
              eat_kw st "TO";
              let new_name = ident st in
              A.Alter_table
                { table; action = A.Rename_column { old_name; new_name } })
      | Lexer.KEYWORD "ADD" ->
          advance st;
          ignore (try_kw st "COLUMN");
          A.Alter_table { table; action = A.Add_column (parse_column_def st) }
      | Lexer.KEYWORD "DROP" ->
          advance st;
          ignore (try_kw st "COLUMN");
          A.Alter_table { table; action = A.Drop_column (ident st) }
      | t -> fail st ("unexpected token after ALTER TABLE: " ^ Lexer.show_token t))
  | Lexer.KEYWORD "INSERT" ->
      advance st;
      let action = parse_conflict_prefix st in
      eat_kw st "INTO";
      let table = ident st in
      let columns =
        if try_op st "(" then begin
          let cols = parse_name_list st in
          eat_op st ")";
          cols
        end
        else []
      in
      eat_kw st "VALUES";
      let rec rows acc =
        eat_op st "(";
        let row = parse_expr_list st in
        eat_op st ")";
        if try_op st "," then rows (row :: acc) else List.rev (row :: acc)
      in
      let rows = rows [] in
      let action =
        if try_kw st "ON" then begin
          eat_kw st "CONFLICT";
          eat_kw st "DO";
          eat_kw st "NOTHING";
          A.On_conflict_ignore
        end
        else action
      in
      A.Insert { table; columns; rows; action }
  | Lexer.KEYWORD "UPDATE" ->
      advance st;
      let action = parse_conflict_prefix st in
      let table = ident st in
      eat_kw st "SET";
      let one () =
        let c = ident st in
        eat_op st "=";
        (c, parse_expr_or st)
      in
      let rec assignments acc =
        let a = one () in
        if try_op st "," then assignments (a :: acc) else List.rev (a :: acc)
      in
      let assignments = assignments [] in
      let where = if try_kw st "WHERE" then Some (parse_expr_or st) else None in
      A.Update { table; assignments; where; action }
  | Lexer.KEYWORD "DELETE" ->
      advance st;
      eat_kw st "FROM";
      let table = ident st in
      let where = if try_kw st "WHERE" then Some (parse_expr_or st) else None in
      A.Delete { table; where }
  | Lexer.KEYWORD ("SELECT" | "VALUES") -> A.Select_stmt (parse_query st)
  | Lexer.KEYWORD "VACUUM" ->
      advance st;
      A.Vacuum { full = try_kw st "FULL" }
  | Lexer.KEYWORD "REINDEX" -> (
      advance st;
      match cur st with
      | Lexer.IDENT n ->
          advance st;
          A.Reindex (Some n)
      | _ -> A.Reindex None)
  | Lexer.KEYWORD "ANALYZE" -> (
      advance st;
      match cur st with
      | Lexer.IDENT n ->
          advance st;
          A.Analyze (Some n)
      | _ -> A.Analyze None)
  | Lexer.KEYWORD "CHECK" ->
      advance st;
      eat_kw st "TABLE";
      let table = ident st in
      let for_upgrade =
        if try_kw st "FOR" then begin
          eat_kw st "UPGRADE";
          true
        end
        else false
      in
      A.Check_table { table; for_upgrade }
  | Lexer.KEYWORD "REPAIR" ->
      advance st;
      eat_kw st "TABLE";
      A.Repair_table (ident st)
  | Lexer.KEYWORD "SET" ->
      advance st;
      let global = try_kw st "GLOBAL" in
      let name = ident st in
      eat_op st "=";
      let value =
        match parse_expr_primary st with
        | A.Lit v -> v
        | A.Unary (A.Neg, A.Lit (Value.Int i)) -> Value.Int (Int64.neg i)
        | _ -> fail st "expected a literal option value"
      in
      A.Set_option { global; name; value }
  | Lexer.KEYWORD "PRAGMA" ->
      advance st;
      let name = ident st in
      if try_op st "=" then
        let value =
          match parse_expr_primary st with
          | A.Lit v -> v
          | _ -> fail st "expected a literal pragma value"
        in
        A.Pragma { name; value = Some value }
      else A.Pragma { name; value = None }
  | Lexer.KEYWORD "DISCARD" ->
      advance st;
      eat_kw st "ALL";
      A.Discard_all
  | Lexer.KEYWORD "BEGIN" ->
      advance st;
      ignore (try_kw st "TRANSACTION");
      A.Begin_txn
  | Lexer.KEYWORD "COMMIT" ->
      advance st;
      A.Commit_txn
  | Lexer.KEYWORD "ROLLBACK" ->
      advance st;
      A.Rollback_txn
  | t -> fail st ("unexpected token at statement start: " ^ Lexer.show_token t)

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)

let with_tokens input f =
  match Lexer.tokenize input with
  | exception Lexer.Lex_error (message, position) -> Error { message; position }
  | tokens -> (
      let st = { tokens = Array.of_list tokens; pos = 0 } in
      match f st with
      | v -> v
      | exception Fail (message, position) -> Error { message; position })

let parse_expr input =
  with_tokens input (fun st ->
      let e = parse_expr_or st in
      match cur st with
      | Lexer.EOF -> Ok e
      | t -> Error { message = "trailing input: " ^ Lexer.show_token t; position = st.pos })

let parse_stmt input =
  with_tokens input (fun st ->
      let s = parse_stmt_inner st in
      ignore (try_op st ";");
      match cur st with
      | Lexer.EOF -> Ok s
      | t -> Error { message = "trailing input: " ^ Lexer.show_token t; position = st.pos })

let parse_script input =
  with_tokens input (fun st ->
      let rec go acc =
        match cur st with
        | Lexer.EOF -> Ok (List.rev acc)
        | Lexer.OP ";" ->
            advance st;
            go acc
        | _ ->
            let s = parse_stmt_inner st in
            go (s :: acc)
      in
      go [])
