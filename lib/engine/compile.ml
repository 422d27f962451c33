(* The query executor: queries become OCaml closures.

   A query is translated once into a tree of closures over a mutable
   current-row slot, then the operator pipeline (scan, filter, project,
   aggregate, distinct, sort, limit) drives those closures over
   fixed-size row blocks instead of re-walking the expression AST per
   row.  All value-level semantics — every dialect quirk and injected
   bug — come from Eval's shared operator bodies; the closures follow
   Eval.eval's control flow (evaluation order, short circuits, coverage
   points) and pre-resolve what is static (column slots, dialect checks,
   structural bug folds). *)

open Sqlval
module A = Sqlast.Ast

let ( let* ) = Result.bind
let block_size = Executor.block_size
let batches_of = Executor.batches_of

(* ------------------------------------------------------------------ *)
(* Compilation environment                                             *)

(* A compiled scalar expression: evaluate against the row currently in
   [cur].  Compilation resolves column references to value-array slots
   up front; the closures share one Eval.env whose resolver reads the
   current row, so Eval's metadata-driven helpers (collation, affinity,
   LIKE column checks) see the current tuple's column metadata. *)
type thunk = unit -> (Value.t, Errors.t) result

(* The row under evaluation is a tuple: one value array per FROM-clause
   binding, in binding order, with the (identical-per-source) metadata
   hoisted out into the static [layout]. *)
type cenv = {
  env : Eval.env;
  layout : Executor.binding list;  (* null-valued; static metadata *)
  cur : Value.t array array ref;  (* per-binding values of the tuple *)
}

let null_values_of (b : Executor.binding) =
  Array.map (fun _ -> Value.Null) b.Executor.b_values

let make_cenv ctx (layout : Executor.binding list) : cenv =
  let cur = ref (Array.of_list (List.map null_values_of layout)) in
  (* slot memo: a query names a handful of columns, so a list beats
     creating a hash table per select and per join *)
  let cache = ref [] in
  let slot ~table ~column =
    let key = (table, column) in
    match List.assoc_opt key !cache with
    | Some r -> r
    | None ->
        let r = Executor.resolve_slot layout ~table ~column in
        cache := (key, r) :: !cache;
        r
  in
  let resolve ~table ~column =
    match slot ~table ~column with
    | Ok (bi, i, dt, coll) ->
        Ok { Eval.value = (!cur).(bi).(i); datatype = dt; collation = coll }
    | Error e -> Error e
  in
  { env = { (Executor.eval_env ctx) with Eval.resolve }; layout; cur }

let cov env point =
  match env.Eval.coverage with None -> () | Some c -> Coverage.hit c point

let cov_ctx (ctx : Executor.ctx) point =
  match ctx.Executor.coverage with None -> () | Some c -> Coverage.hit c point

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)

(* Mirrors Eval.eval case by case: identical coverage points in
   identical order and multiplicity, identical short-circuiting,
   identical error precedence.  Static decisions (slot lookups, dialect
   rejections, the mysql double-negation fold) happen here, once. *)
let rec compile_expr (c : cenv) (e : A.expr) : thunk =
  let env = c.env in
  let dialect = env.Eval.dialect in
  let tvl (t : thunk) =
    let* v = t () in
    Eval.value_tvl env v
  in
  match e with
  | A.Lit v -> fun () -> Ok v
  | A.Col { table; column } -> (
      match Executor.resolve_slot c.layout ~table ~column with
      | Ok (bi, i, _, _) ->
          let cur = c.cur in
          fun () -> Ok (!cur).(bi).(i)
      | Error err -> fun () -> Error err)
  | A.Collate (inner, _) -> compile_expr c inner
  | A.Agg _ ->
      let err =
        Errors.make Errors.Invalid_function
          "misuse of aggregate function in scalar context"
      in
      fun () -> Error err
  | A.Unary (A.Not, inner) -> (
      match inner with
      | A.Unary (A.Not, grandchild)
        when Dialect.equal dialect Dialect.Mysql_like
             && Bug.on env.Eval.bugs Bug.My_double_negation_fold ->
          (* mysql Listing 13 class: NOT(NOT x) folded away; the inner
             NOT's coverage point is skipped, like Eval *)
          let cg = compile_expr c grandchild in
          fun () ->
            cov env "unop.not";
            cg ()
      (* constant folder treats the NULL literal as FALSE under NOT *)
      | A.Lit Value.Null
        when Dialect.equal dialect Dialect.Sqlite_like
             && Bug.on env.Eval.bugs Bug.Sq_fold_not_null_true ->
          fun () ->
            cov env "unop.not";
            Ok (Eval.bool_value dialect Tvl.True)
      | _ ->
          let ci = compile_expr c inner in
          fun () ->
            cov env "unop.not";
            let* t = tvl ci in
            Ok (Eval.bool_value dialect (Tvl.not_ t)))
  | A.Unary (A.Neg, inner) ->
      let ci = compile_expr c inner in
      fun () ->
        cov env "unop.neg";
        let* v = ci () in
        Eval.neg_value env v
  | A.Unary (A.Pos, inner) ->
      let ci = compile_expr c inner in
      fun () ->
        cov env "unop.pos";
        ci ()
  | A.Unary (A.Bit_not, inner) ->
      let ci = compile_expr c inner in
      fun () ->
        cov env "unop.bit_not";
        let* v = ci () in
        Eval.bit_not_value env v
  | A.Binary (op, a, b) -> compile_binary c op a b
  | A.Is { negated; arg; rhs } -> compile_is c ~negated arg rhs
  | A.Between { negated; arg; lo; hi } ->
      let ca = compile_expr c arg in
      let cl = compile_expr c lo in
      let ch = compile_expr c hi in
      let prep = Eval.between_prep env ~negated ~arg ~lo ~hi in
      fun () ->
        cov env "pred.between";
        let* v = ca () in
        let* vl = cl () in
        let* vh = ch () in
        Eval.between_apply env prep v vl vh
  | A.In_list { negated; arg; list } ->
      let ca = compile_expr c arg in
      let items =
        List.map
          (fun item -> (Eval.compare_prep c.env A.Eq arg item, compile_expr c item))
          list
      in
      fun () ->
        cov env "pred.in";
        let* v = ca () in
        if Value.is_null v then Ok (Eval.bool_value dialect Tvl.Unknown)
        else
          let rec walk saw_null = function
            | [] -> Ok (Eval.in_empty_tvl env ~saw_null)
            | (prep, ci) :: rest ->
                let* vi = ci () in
                if Value.is_null vi then walk true rest
                else
                  let* r = Eval.compare_apply env prep v vi in
                  let* t = Eval.value_tvl env r in
                  if Tvl.equal t Tvl.True then Ok Tvl.True
                  else walk saw_null rest
          in
          let* t = walk false items in
          let t = if negated then Tvl.not_ t else t in
          Ok (Eval.bool_value dialect t)
  | A.Like { negated; arg; pattern; escape } ->
      let ca = compile_expr c arg in
      let cp = compile_expr c pattern in
      let cesc = Option.map (compile_expr c) escape in
      let prep = Eval.like_prep env ~negated ~arg in
      fun () ->
        cov env "pred.like";
        let* v = ca () in
        let* p = cp () in
        let* esc =
          match cesc with
          | None -> Ok None
          | Some ce ->
              let* ve = ce () in
              Eval.like_escape_char ve
        in
        Eval.like_apply env prep v p esc
  | A.Glob { negated; arg; pattern } ->
      if not (Dialect.equal dialect Dialect.Sqlite_like) then
        let err =
          Errors.make Errors.Invalid_function "GLOB is sqlite-specific"
        in
        fun () ->
          cov env "pred.glob";
          Error err
      else
        let ca = compile_expr c arg in
        let cp = compile_expr c pattern in
        fun () ->
          cov env "pred.glob";
          let* v = ca () in
          let* p = cp () in
          Eval.glob_value env ~negated v p
  | A.Cast (ty, inner) ->
      let ci = compile_expr c inner in
      fun () ->
        cov env "pred.cast";
        let* v = ci () in
        Eval.cast_value env ty v
  | A.Func (f, args) ->
      let point = "func." ^ Eval.func_point f in
      if not (Eval.func_available dialect f) then
        let err =
          Errors.makef Errors.Invalid_function "no such function in %s dialect"
            (Dialect.name dialect)
        in
        fun () ->
          cov env point;
          Error err
      else
        let cargs = List.map (compile_expr c) args in
        fun () ->
          cov env point;
          let rec eval_args acc = function
            | [] -> Ok (List.rev acc)
            | t :: rest ->
                let* v = t () in
                eval_args (v :: acc) rest
          in
          let* vs = eval_args [] cargs in
          Eval.apply_func env f vs args
  | A.Case { operand; branches; else_ } ->
      let buggy_null_when =
        Dialect.equal dialect Dialect.Sqlite_like
        && Bug.on env.Eval.bugs Bug.Sq_case_null_when
      in
      let celse = Option.map (compile_expr c) else_ in
      let else_thunk () =
        match celse with Some ce -> ce () | None -> Ok Value.Null
      in
      (match operand with
      | None ->
          let cbranches =
            List.map
              (fun (cond, result) ->
                (compile_expr c cond, compile_expr c result))
              branches
          in
          fun () ->
            cov env "pred.case";
            let rec walk = function
              | [] -> else_thunk ()
              | (ccond, cres) :: rest ->
                  let* t = tvl ccond in
                  let taken =
                    Tvl.equal t Tvl.True
                    || (buggy_null_when && Tvl.equal t Tvl.Unknown)
                  in
                  if taken then cres () else walk rest
            in
            walk cbranches
      | Some op_expr ->
          let cop = compile_expr c op_expr in
          let cbranches =
            List.map
              (fun (cond, result) ->
                ( Eval.compare_prep env A.Eq op_expr cond,
                  compile_expr c cond,
                  compile_expr c result ))
              branches
          in
          fun () ->
            cov env "pred.case";
            let* v = cop () in
            let rec walk = function
              | [] -> else_thunk ()
              | (prep, ccond, cres) :: rest ->
                  let* vc = ccond () in
                  let* r = Eval.compare_apply env prep v vc in
                  let* t = Eval.value_tvl env r in
                  let taken =
                    Tvl.equal t Tvl.True
                    || (buggy_null_when && Tvl.equal t Tvl.Unknown)
                  in
                  if taken then cres () else walk rest
            in
            walk cbranches)

and compile_binary c op a b : thunk =
  let env = c.env in
  let dialect = env.Eval.dialect in
  let tvl (t : thunk) =
    let* v = t () in
    Eval.value_tvl env v
  in
  match op with
  | A.And
    when (match (a, b) with
         | A.Lit Value.Null, _ | _, A.Lit Value.Null -> true
         | _ -> false)
         && Dialect.equal dialect Dialect.Sqlite_like
         && Bug.on env.Eval.bugs Bug.Sq_fold_null_and ->
      (* constant folder rewrites `NULL AND x` to NULL without checking
         whether x is FALSE; operand thunks are skipped, like Eval *)
      fun () ->
        cov env "binop.and";
        Ok (Eval.bool_value dialect Tvl.Unknown)
  | A.And ->
      let ca = compile_expr c a in
      let cb = compile_expr c b in
      fun () ->
        cov env "binop.and";
        let* ta = tvl ca in
        if Tvl.equal ta Tvl.False then Ok (Eval.bool_value dialect Tvl.False)
        else
          let* tb = tvl cb in
          Ok (Eval.bool_value dialect (Tvl.and_ ta tb))
  | A.Or ->
      let ca = compile_expr c a in
      let cb = compile_expr c b in
      fun () ->
        cov env "binop.or";
        let* ta = tvl ca in
        if Tvl.equal ta Tvl.True then Ok (Eval.bool_value dialect Tvl.True)
        else
          let* tb = tvl cb in
          Ok (Eval.bool_value dialect (Tvl.or_ ta tb))
  | A.Concat when Dialect.equal dialect Dialect.Mysql_like ->
      (* mysql: || is logical OR by default; both coverage points fire,
         like Eval's delegation *)
      let c_or = compile_binary c A.Or a b in
      fun () ->
        cov env "binop.concat";
        c_or ()
  | A.Concat ->
      let ca = compile_expr c a in
      let cb = compile_expr c b in
      fun () ->
        cov env "binop.concat";
        let* va = ca () in
        let* vb = cb () in
        if Value.is_null va || Value.is_null vb then Ok Value.Null
        else
          Ok
            (Value.Text
               (Coerce.to_text dialect va ^ Coerce.to_text dialect vb))
  | A.Eq | A.Neq | A.Lt | A.Le | A.Gt | A.Ge | A.Null_safe_eq ->
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
      let ca = compile_expr c a in
      let cb = compile_expr c b in
      let prep = Eval.compare_prep env op a b in
      fun () ->
        cov env point;
        let* va = ca () in
        let* vb = cb () in
        Eval.compare_apply env prep va vb
  | A.Add | A.Sub | A.Mul | A.Div | A.Rem ->
      let point =
        match op with
        | A.Add -> "binop.add"
        | A.Sub -> "binop.sub"
        | A.Mul -> "binop.mul"
        | A.Div -> "binop.div"
        | _ -> "binop.rem"
      in
      let ca = compile_expr c a in
      let cb = compile_expr c b in
      fun () ->
        cov env point;
        let* va = ca () in
        let* vb = cb () in
        Eval.arith env op a b va vb
  | A.Bit_and | A.Bit_or | A.Shift_left | A.Shift_right ->
      let point =
        match op with
        | A.Bit_and -> "binop.bit_and"
        | A.Bit_or -> "binop.bit_or"
        | A.Shift_left -> "binop.shl"
        | _ -> "binop.shr"
      in
      let ca = compile_expr c a in
      let cb = compile_expr c b in
      fun () ->
        cov env point;
        let* va = ca () in
        let* vb = cb () in
        Eval.bitop env op va vb

and compile_is c ~negated arg rhs : thunk =
  let env = c.env in
  let dialect = env.Eval.dialect in
  match rhs with
  | A.Is_null ->
      let ca = compile_expr c arg in
      fun () ->
        cov env "pred.is";
        let* v = ca () in
        Eval.is_finish env ~negated (Tvl.of_bool (Value.is_null v))
  | A.Is_true | A.Is_false ->
      let want = match rhs with A.Is_true -> Tvl.True | _ -> Tvl.False in
      let ca = compile_expr c arg in
      fun () ->
        cov env "pred.is";
        let* v = ca () in
        Eval.is_bool_value env ~negated ~want v
  | A.Is_expr other ->
      if not (Dialect.equal dialect Dialect.Sqlite_like) then
        let err =
          Errors.make Errors.Invalid_function
            "IS over scalars is sqlite-specific"
        in
        fun () ->
          cov env "pred.is";
          Error err
      else
        let ca = compile_expr c arg in
        let cb = compile_expr c other in
        let prep = Eval.compare_prep env A.Null_safe_eq arg other in
        fun () ->
          cov env "pred.is";
          let* va = ca () in
          let* vb = cb () in
          let* r = Eval.compare_apply env prep va vb in
          let* t = Eval.value_tvl env r in
          Eval.is_finish env ~negated t
  | A.Is_distinct_from other ->
      if not (Dialect.equal dialect Dialect.Postgres_like) then
        let err =
          Errors.make Errors.Invalid_function
            "IS DISTINCT FROM is postgres-specific"
        in
        fun () ->
          cov env "pred.is";
          Error err
      else
        let ca = compile_expr c arg in
        let cb = compile_expr c other in
        let prep = Eval.compare_prep env A.Null_safe_eq arg other in
        fun () ->
          cov env "pred.is";
          let* va = ca () in
          let* vb = cb () in
          let* r = Eval.compare_apply env prep va vb in
          let* t = Eval.value_tvl env r in
          Eval.is_finish env ~negated (Tvl.not_ t)


(* ------------------------------------------------------------------ *)
(* Projection                                                          *)

(* A compiled SELECT item: fills output values for the current row. *)
type proj =
  | P_star  (* every binding's values, in binding order *)
  | P_binding of int  (* t.*: one binding's values *)
  | P_error of Errors.t  (* t.* naming no binding: fails at projection *)
  | P_expr of thunk

let compile_items c items =
  List.map
    (function
      | A.Star -> P_star
      | A.Table_star t -> (
          let tl = String.lowercase_ascii t in
          let rec find i = function
            | [] ->
                P_error
                  (Errors.makef Errors.No_such_table "no such table: %s" tl)
            | b :: rest ->
                if b.Executor.b_alias = tl then P_binding i
                else find (i + 1) rest
          in
          find 0 c.layout)
      | A.Sel_expr (e, _) -> P_expr (compile_expr c e))
    items

(* Project the tuple currently in [c.cur] through the compiled item
   list ([tuple] is the same array the caller stored into [c.cur]) into
   one output array, sized before any item runs. *)
let project (tuple : Value.t array array) projs :
    (Value.t array, Errors.t) result =
  let width =
    List.fold_left
      (fun n p ->
        match p with
        | P_star -> Array.fold_left (fun n vs -> n + Array.length vs) n tuple
        | P_binding i -> n + Array.length tuple.(i)
        | P_error _ -> n
        | P_expr _ -> n + 1)
      0 projs
  in
  let out = Array.make width Value.Null in
  let rec go pos = function
    | [] -> Ok out
    | p :: rest -> (
        match p with
        | P_star ->
            let pos =
              Array.fold_left
                (fun pos vs ->
                  Array.blit vs 0 out pos (Array.length vs);
                  pos + Array.length vs)
                pos tuple
            in
            go pos rest
        | P_binding i ->
            let vs = tuple.(i) in
            Array.blit vs 0 out pos (Array.length vs);
            go (pos + Array.length vs) rest
        | P_error e -> Error e
        | P_expr t ->
            let* v = t () in
            out.(pos) <- v;
            go (pos + 1) rest)
  in
  go 0 projs

let rec eval_all acc = function
  | [] -> Ok (List.rev acc)
  | (t : thunk) :: rest ->
      let* v = t () in
      eval_all (v :: acc) rest

(* ------------------------------------------------------------------ *)
(* The batched pipeline                                                *)

(* A materialized FROM item: static per-binding metadata plus the
   tuples, one value array per binding (joins contribute the bindings
   of both sides, concatenated in textual order). *)
type source = {
  src_layout : Executor.binding list;
  src_tuples : Value.t array array list;
}

(* Evaluate the compiled WHERE predicate over the tuples in blocks of
   [block_size], compacting survivors per block; the FILTER operator
   annotation reports the block count. *)
let filter_rows ctx (c : cenv) pred (rows : Value.t array array array) :
    (Value.t array array list, Errors.t) result =
  match pred with
  | None -> Ok (Array.to_list rows)
  | Some p ->
      let filter_t0 = Executor.op_clock ctx in
      let n = Array.length rows in
      let acc = ref [] in
      let err = ref None in
      let i = ref 0 in
      let batches = ref 0 in
      while !err = None && !i < n do
        let hi = Stdlib.min n (!i + block_size) in
        incr batches;
        let j = ref !i in
        while !err = None && !j < hi do
          let row = rows.(!j) in
          c.cur := row;
          (match p () with
          | Ok v -> (
              match Eval.value_tvl c.env v with
              | Ok Tvl.True -> acc := row :: !acc
              | Ok (Tvl.False | Tvl.Unknown) -> ()
              | Error e -> err := Some e)
          | Error e -> err := Some e);
          incr j
        done;
        i := hi
      done;
      (match !err with
      | Some e -> Error e
      | None ->
          let filtered = List.rev !acc in
          if Executor.tracing ctx then
            Executor.op_event ctx ~op:"FILTER" ~detail:"WHERE" ~rows_in:n
              ~rows_out:(List.length filtered)
              ~batches:(Stdlib.max 1 !batches) ~t0:filter_t0 ();
          Ok filtered)

(* GROUP BY / aggregate items / HAVING over the filtered tuples, through
   Executor's aggregation operator.  Group keys and aggregate arguments
   run as closures compiled once per expression; each group's HAVING,
   items and ORDER BY keys are compiled after its aggregates are
   substituted by their values, and evaluated against the group's first
   tuple.  The implicit single group over no rows has no representative
   tuple, so its column references fail to resolve. *)
let aggregate ctx (c : cenv) (s : A.select) filtered :
    ((Value.t array * Value.t list) list, Errors.t) result =
  cov_ctx ctx "exec.group_by";
  let agg_t0 = Executor.op_clock ctx in
  let compiled = ref [] in
  let eval tuple e =
    let t =
      match List.assq_opt e !compiled with
      | Some t -> t
      | None ->
          let t = compile_expr c e in
          compiled := (e, t) :: !compiled;
          t
    in
    c.cur := tuple;
    t ()
  in
  let substitute group e = Executor.substitute_aggs ctx ~eval group e in
  let* groups = Executor.group_tuples ctx ~eval s filtered in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | group :: rest ->
        let gc, rep =
          match group with
          | t :: _ -> (c, t)
          | [] -> (make_cenv ctx [], [||])
        in
        let at_rep e =
          let t = compile_expr gc e in
          gc.cur := rep;
          t ()
        in
        let* keep =
          match s.A.sel_having with
          | None -> Ok true
          | Some h ->
              cov_ctx ctx "exec.having";
              let* h' = substitute group h in
              let* v = at_rep h' in
              let* t = Eval.value_tvl gc.env v in
              Ok (Tvl.equal t Tvl.True)
        in
        if not keep then go acc rest
        else
          let* items =
            let rec sub acc = function
              | [] -> Ok (List.rev acc)
              | A.Sel_expr (e, a) :: more ->
                  let* e' = substitute group e in
                  sub (A.Sel_expr (e', a) :: acc) more
              | it :: more -> sub (it :: acc) more
            in
            sub [] s.A.sel_items
          in
          let projs = compile_items gc items in
          gc.cur := rep;
          let* row = project rep projs in
          let* keys =
            let rec keys acc = function
              | [] -> Ok (List.rev acc)
              | (e, _) :: more ->
                  let* e' = substitute group e in
                  let* v = at_rep e' in
                  keys (v :: acc) more
            in
            keys [] s.A.sel_order_by
          in
          go ((row, keys) :: acc) rest
  in
  let* out = go [] groups in
  if Executor.tracing ctx then
    Executor.op_event ctx ~op:"AGGREGATE"
      ~detail:(if s.A.sel_group_by = [] then "" else "GROUP BY")
      ~rows_in:(List.length filtered) ~rows_out:(List.length out)
      ~batches:(batches_of (List.length filtered))
      ~t0:agg_t0 ();
  Ok out

(* A derived row source (view or FROM subquery): one binding whose
   columns are untyped and binary-collated. *)
let derived_source ~alias columns rows =
  let columns =
    Array.of_list
      (List.map
         (fun cname ->
           (String.lowercase_ascii cname, Datatype.Any, Collation.Binary))
         columns)
  in
  {
    src_layout =
      [
        {
          Executor.b_alias = String.lowercase_ascii alias;
          b_columns = columns;
          b_values = Array.map (fun _ -> Value.Null) columns;
        };
      ];
    src_tuples = List.map (fun row -> [| row |]) rows;
  }

(* One compiled-and-executed SELECT. *)
let rec run_select ctx (s : A.select) : (Executor.result_set, Errors.t) result =
  let where = s.A.sel_where in
  if s.A.sel_from = [] then begin
    (* constant SELECT: project once, keep the row if WHERE passes;
       DISTINCT/ORDER BY/LIMIT do not apply *)
    let c = make_cenv ctx [] in
    let* columns = Executor.output_columns [] s.A.sel_items in
    let projs = compile_items c s.A.sel_items in
    let* row = project [||] projs in
    let* rows =
      match where with
      | None -> Ok [ row ]
      | Some w -> (
          let p = compile_expr c w in
          match p () with
          | Ok v -> (
              match Eval.value_tvl c.env v with
              | Ok Tvl.True -> Ok [ row ]
              | Ok (Tvl.False | Tvl.Unknown) -> Ok []
              | Error e -> Error e)
          | Error e -> Error e)
    in
    Ok { Executor.rs_columns = columns; rs_rows = rows }
  end
  else begin
    let cond_has_cast =
      (match where with Some w -> Executor.has_cast w | None -> false)
      || List.exists
           (function
             | A.Sel_expr (e, _) -> Executor.has_cast e
             | A.Star | A.Table_star _ -> false)
           s.A.sel_items
    in
    let cond_has_ifnull =
      match where with Some w -> Executor.has_ifnull w | None -> false
    in
    let base_table_count =
      let rec count = function
        | A.F_table _ -> 1
        | A.F_join { left; right; _ } -> count left + count right
        | A.F_sub _ -> 1
      in
      List.fold_left (fun acc it -> acc + count it) 0 s.A.sel_from
    in
    let fctx =
      {
        Executor.in_join = base_table_count > 1;
        cond_has_cast;
        cond_has_ifnull;
        distinct = s.A.sel_distinct;
      }
    in
    (* FROM: materialize each comma item, then the cross product (scans
       and their flight-recorder events happen in textual order even
       under a forced join swap) *)
    let* sources =
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
            let* src = materialize ctx fctx ~where item in
            go (src :: acc) rest
      in
      go [] s.A.sel_from
    in
    let layout = List.concat_map (fun src -> src.src_layout) sources in
    let c = make_cenv ctx layout in
    (* WHERE *)
    let pred = Option.map (compile_expr c) where in
    let* filtered, product_nonempty =
      match (sources, pred) with
      | [ a; b ], Some p ->
          (* fused cross product + filter for the two-item comma FROM:
             the predicate runs against the cenv's scratch tuple with the
             halves blitted in, and the combined tuple is allocated only
             for surviving rows; iteration order, coverage, the FILTER
             event's counts and the forced join swap all match the
             materialize-then-filter path *)
          let na = List.length a.src_layout
          and nb = List.length b.src_layout in
          let scratch = !(c.cur) in
          let la = Array.of_list a.src_tuples
          and lb = Array.of_list b.src_tuples in
          let filter_t0 = Executor.op_clock ctx in
          let n = Array.length la * Array.length lb in
          let acc = ref [] in
          let err = ref None in
          let eval_tuple tl tr =
            Array.blit tl 0 scratch 0 na;
            Array.blit tr 0 scratch na nb;
            match p () with
            | Ok v -> (
                match Eval.value_tvl c.env v with
                | Ok Tvl.True -> acc := Array.append tl tr :: !acc
                | Ok (Tvl.False | Tvl.Unknown) -> ()
                | Error e -> err := Some e)
            | Error e -> err := Some e
          in
          let outer, inner, tuple_of =
            if Executor.swap_join_forced ctx then
              (* second table in the outer loop; binding order stays
                 textual so the predicate and projection are unchanged *)
              (lb, la, fun o i -> eval_tuple i o)
            else (la, lb, fun o i -> eval_tuple o i)
          in
          let no = Array.length outer and ni = Array.length inner in
          let oi = ref 0 in
          while !err = None && !oi < no do
            let o = outer.(!oi) in
            let ii = ref 0 in
            while !err = None && !ii < ni do
              tuple_of o inner.(!ii);
              incr ii
            done;
            incr oi
          done;
          (match !err with
          | Some e -> Error e
          | None ->
              let rows = List.rev !acc in
              if Executor.tracing ctx then
                Executor.op_event ctx ~op:"FILTER" ~detail:"WHERE" ~rows_in:n
                  ~rows_out:(List.length rows) ~batches:(batches_of n)
                  ~t0:filter_t0 ();
              Ok (rows, n > 0))
      | _ ->
          let tuples =
            match sources with
            | [] -> []
            | [ a; b ] when Executor.swap_join_forced ctx ->
                (* forced join-order swap for the two-item comma FROM:
                   iterate the second table in the outer loop; binding
                   order stays textual so projection is unchanged *)
                List.concat_map
                  (fun tr ->
                    List.map (fun tl -> Array.append tl tr) a.src_tuples)
                  b.src_tuples
            | first :: rest ->
                List.fold_left
                  (fun acc src ->
                    List.concat_map
                      (fun tl ->
                        List.map (fun tr -> Array.append tl tr) src.src_tuples)
                      acc)
                  first.src_tuples rest
          in
          let* f = filter_rows ctx c pred (Array.of_list tuples) in
          Ok (f, match tuples with [] -> false | _ :: _ -> true)
    in
    (* output columns come from a sample tuple: the runtime layout when
       the FROM produced tuples, nothing when it was empty (observable:
       [*] over an empty product has no columns) *)
    let sample = if product_nonempty then c.layout else [] in
    let* columns = Executor.output_columns sample s.A.sel_items in
    (* projection + ORDER BY keys, or the aggregation operator *)
    let* out_rows_with_keys =
      if Executor.select_has_agg s then aggregate ctx c s filtered
      else
        let projs = compile_items c s.A.sel_items in
        let order_thunks =
          List.map (fun (e, _) -> compile_expr c e) s.A.sel_order_by
        in
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | values :: rest ->
              c.cur := values;
              let* row = project values projs in
              let* ks = eval_all [] order_thunks in
              go ((row, ks) :: acc) rest
        in
        go [] filtered
    in
    (* DISTINCT *)
    let out_rows_with_keys =
      if s.A.sel_distinct then begin
        cov_ctx ctx "exec.distinct";
        let d_t0 = Executor.op_clock ctx in
        let n_in =
          if Executor.tracing ctx then List.length out_rows_with_keys else 0
        in
        let deduped = Executor.dedup ~row:fst out_rows_with_keys in
        if Executor.tracing ctx then
          Executor.op_event ctx ~op:"DISTINCT" ~rows_in:n_in
            ~rows_out:(List.length deduped) ~batches:(batches_of n_in)
            ~t0:d_t0 ();
        deduped
      end
      else out_rows_with_keys
    in
    (* ORDER BY *)
    let ordered =
      if s.A.sel_order_by = [] then
        if Options.reverse_unordered_selects ctx.Executor.options then
          List.rev out_rows_with_keys
        else out_rows_with_keys
      else begin
        cov_ctx ctx "exec.order_by";
        let sort_t0 = Executor.op_clock ctx in
        (* sort keys are compared under each ORDER BY expression's
           collation (explicit COLLATE or the column's), like sqlite *)
        let dirs_and_colls =
          List.map
            (fun (e, dir) ->
              let coll =
                match Eval.column_meta c.env e with
                | Some (_, cl) -> cl
                | None -> Collation.Binary
              in
              let coll = match e with A.Collate (_, cl) -> cl | _ -> coll in
              (dir, coll))
            s.A.sel_order_by
        in
        List.stable_sort
          (fun (_, ka) (_, kb) ->
            let rec cmp ks1 ks2 dcs =
              match (ks1, ks2, dcs) with
              | k1 :: r1, k2 :: r2, (d, coll) :: rd ->
                  let cm = Value.compare_total ~collation:coll k1 k2 in
                  let cm = match d with A.Asc -> cm | A.Desc -> -cm in
                  if cm <> 0 then cm else cmp r1 r2 rd
              | _ -> 0
            in
            cmp ka kb dirs_and_colls)
          out_rows_with_keys
        |> fun sorted ->
        (if Executor.tracing ctx then
           let n = List.length sorted in
           Executor.op_event ctx ~op:"SORT"
             ~detail:
               (Printf.sprintf "%d keys" (List.length s.A.sel_order_by))
             ~rows_in:n ~rows_out:n ~batches:(batches_of n) ~t0:sort_t0 ());
        sorted
      end
    in
    (* LIMIT / OFFSET *)
    let limit_t0 = Executor.op_clock ctx in
    let rows = List.map fst ordered in
    let pre_limit = if Executor.tracing ctx then List.length rows else 0 in
    let rows =
      match s.A.sel_offset with
      | None -> rows
      | Some off ->
          cov_ctx ctx "exec.limit";
          let off = Int64.to_int off in
          if off <= 0 then rows
          else List.filteri (fun i _ -> i >= off) rows
    in
    let rows =
      match s.A.sel_limit with
      | None -> rows
      | Some n ->
          cov_ctx ctx "exec.limit";
          let n = Int64.to_int n in
          if n < 0 then rows else List.filteri (fun i _ -> i < n) rows
    in
    if
      Executor.tracing ctx
      && (s.A.sel_limit <> None || s.A.sel_offset <> None)
    then
      Executor.op_event ctx ~op:"LIMIT" ~rows_in:pre_limit
        ~rows_out:(List.length rows) ~batches:(batches_of pre_limit)
        ~t0:limit_t0 ();
    Ok { Executor.rs_columns = columns; rs_rows = rows }
  end

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

and run_query ctx (q : A.query) : (Executor.result_set, Errors.t) result =
  (* corruption gates every read (paper: 'malformed database' is always an
     unexpected error) *)
  match Storage.Catalog.corruption ctx.Executor.catalog with
  | Some msg -> Error (Errors.make Errors.Malformed_database msg)
  | None -> (
      match q with
      | A.Q_select s -> run_select ctx s
      | A.Q_values rows ->
          cov_ctx ctx "exec.values";
          let c = make_cenv ctx [] in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | row :: rest ->
                let* r = eval_all [] (List.map (compile_expr c) row) in
                go (Array.of_list r :: acc) rest
          in
          let* rows = go [] rows in
          let width = match rows with r :: _ -> Array.length r | [] -> 0 in
          let columns =
            List.init width (fun i -> Printf.sprintf "column%d" (i + 1))
          in
          Ok { Executor.rs_columns = columns; rs_rows = rows }
      | A.Q_compound (op, qa, qb) -> run_compound ctx op qa qb)

and run_compound ctx op qa qb =
  (match op with
  | A.Union | A.Union_all -> cov_ctx ctx "exec.compound_union"
  | A.Intersect -> cov_ctx ctx "exec.compound_intersect"
  | A.Except -> cov_ctx ctx "exec.compound_except");
  let* ra = run_query ctx qa in
  let* rb = run_query ctx qb in
  let compound_t0 = Executor.op_clock ctx in
  let wa = List.length ra.Executor.rs_columns
  and wb = List.length rb.Executor.rs_columns in
  if wa <> wb then
    Error
      (Errors.make Errors.Syntax_error
         "SELECTs to the left and right of a compound operator do not have \
          the same number of result columns")
  else
    let keyset rows =
      let t = Executor.Row_tbl.create 16 in
      List.iter (fun r -> Executor.Row_tbl.replace t r ()) rows;
      t
    in
    let dedup = Executor.dedup ~row:Fun.id in
    let rows =
      match op with
      | A.Union -> dedup (ra.Executor.rs_rows @ rb.Executor.rs_rows)
      | A.Union_all -> ra.Executor.rs_rows @ rb.Executor.rs_rows
      | A.Intersect ->
          (* left-driven: a left row is in the output iff its key appears
             anywhere on the right, so hash the (typically tiny — the
             containment check's VALUES side) left and stop scanning the
             right once every left key has been seen *)
          let want = keyset ra.Executor.rs_rows in
          let missing = ref (Executor.Row_tbl.length want) in
          let found = Executor.Row_tbl.create 16 in
          let rec scan = function
            | [] -> ()
            | r :: rest ->
                if !missing > 0 then begin
                  (if
                     Executor.Row_tbl.mem want r
                     && not (Executor.Row_tbl.mem found r)
                   then begin
                     Executor.Row_tbl.replace found r ();
                     decr missing
                   end);
                  scan rest
                end
          in
          scan rb.Executor.rs_rows;
          dedup
            (List.filter
               (fun r -> Executor.Row_tbl.mem found r)
               ra.Executor.rs_rows)
      | A.Except ->
          let inb = keyset rb.Executor.rs_rows in
          dedup
            (List.filter
               (fun r -> not (Executor.Row_tbl.mem inb r))
               ra.Executor.rs_rows)
    in
    let n_in =
      List.length ra.Executor.rs_rows + List.length rb.Executor.rs_rows
    in
    if Executor.tracing ctx then
      Executor.op_event ctx ~op:"COMPOUND"
        ~detail:
          (match op with
          | A.Union -> "UNION"
          | A.Union_all -> "UNION ALL"
          | A.Intersect -> "INTERSECT"
          | A.Except -> "EXCEPT")
        ~rows_in:n_in ~rows_out:(List.length rows) ~batches:(batches_of n_in)
        ~t0:compound_t0 ();
    Ok { Executor.rs_columns = ra.Executor.rs_columns; rs_rows = rows }

(* One FROM item, materialized: scan-site bug behaviour and access paths
   come from Executor.scan_rows; the join's ON predicate is compiled once
   against the combined layout. *)
and materialize ctx fctx ~where (item : A.from_item) :
    (source, Errors.t) result =
  match item with
  | A.F_table { name; alias } -> (
      let alias_name = Option.value ~default:name alias in
      match Storage.Catalog.find_table ctx.Executor.catalog name with
      | Some ts ->
          let* rows =
            Executor.scan_rows ctx fctx ~where ~table:name ~alias:alias_name ts
          in
          let schema = ts.Storage.Catalog.schema in
          let layout =
            [
              Executor.binding_of_table schema ~alias:alias_name
                (Array.map
                   (fun (_ : Storage.Schema.column) -> Value.Null)
                   schema.Storage.Schema.columns);
            ]
          in
          Ok
            {
              src_layout = layout;
              src_tuples =
                List.map (fun (r, _) -> [| r.Storage.Row.values |]) rows;
            }
      | None -> (
          match Storage.Catalog.find_view ctx.Executor.catalog name with
          | Some v ->
              cov_ctx ctx "exec.view_expand";
              let view_t0 = Executor.op_clock ctx in
              let* rs = run_query ctx v.Storage.Catalog.view_query in
              let rows =
                (* injected: WHERE pushdown into a DISTINCT view drops the
                   last row *)
                let is_distinct_view =
                  match v.Storage.Catalog.view_query with
                  | A.Q_select s -> s.A.sel_distinct
                  | _ -> false
                in
                if
                  is_distinct_view && where <> None
                  && Dialect.equal ctx.Executor.dialect Dialect.Sqlite_like
                  && Bug.on ctx.Executor.bugs Bug.Sq_view_distinct_pushdown
                then
                  match List.rev rs.Executor.rs_rows with
                  | [] -> []
                  | _ :: rest -> List.rev rest
                else rs.Executor.rs_rows
              in
              if Executor.tracing ctx then
                Executor.op_event ctx ~op:"VIEW" ~detail:alias_name
                  ~rows_in:(List.length rs.Executor.rs_rows)
                  ~rows_out:(List.length rows)
                  ~batches:(batches_of (List.length rows))
                  ~t0:view_t0 ();
              Ok (derived_source ~alias:alias_name rs.Executor.rs_columns rows)
          | None ->
              Error
                (Errors.makef Errors.No_such_table "no such table: %s" name)))
  | A.F_sub { sub; alias } ->
      (* derived table: materialize the subquery *)
      cov_ctx ctx "exec.subquery";
      let sub_t0 = Executor.op_clock ctx in
      let* rs = run_query ctx sub in
      (if Executor.tracing ctx then
         let n = List.length rs.Executor.rs_rows in
         Executor.op_event ctx ~op:"SUBQUERY" ~detail:alias ~rows_in:n
           ~rows_out:n ~batches:(batches_of n) ~t0:sub_t0 ());
      Ok (derived_source ~alias rs.Executor.rs_columns rs.Executor.rs_rows)
  | A.F_join { kind; left; right; on } ->
      (match kind with
      | A.Inner -> cov_ctx ctx "exec.join_inner"
      | A.Left -> cov_ctx ctx "exec.join_left"
      | A.Cross -> cov_ctx ctx "exec.join_cross");
      let* l = materialize ctx fctx ~where:None left in
      let* r = materialize ctx fctx ~where:None right in
      run_join ctx ~kind ~on ~right_item:right l r

(* Nested-loop join over two materialized sides.  The ON predicate is
   compiled once against [left @ right] and evaluated against a scratch
   tuple whose halves are refreshed by the loops; everything observable
   (coverage, evaluation order, LEFT null extension, the forced join
   swap, the JOIN event's row counts) matches a row-at-a-time loop. *)
and run_join ctx ~kind ~on ~right_item (l : source) (r : source) :
    (source, Errors.t) result =
  let join_t0 = Executor.op_clock ctx in
  let nl = List.length l.src_layout and nr = List.length r.src_layout in
  let full_layout = l.src_layout @ r.src_layout in
  let con =
    match on with
    | None -> None
    | Some cond ->
        let c = make_cenv ctx full_layout in
        Some (c, compile_expr c cond)
  in
  (* blit target: the cenv's own null tuple, so compile-time metadata
     resolution (collation/affinity prep) saw properly-shaped arrays *)
  let scratch = match con with Some (c, _) -> !(c.cur) | None -> [||] in
  let set_left lt =
    match con with Some _ -> Array.blit lt 0 scratch 0 nl | None -> ()
  in
  let set_right rt =
    match con with Some _ -> Array.blit rt 0 scratch nl nr | None -> ()
  in
  let eval_on c p =
    let* v = p () in
    Eval.value_tvl c.env v
  in
  (* the NULL-padded right extension for unmatched LEFT rows: shaped
     like the first right tuple, or built from the schemas when the
     right side is empty — where a derived table contributes nothing,
     so the layout shrinks *)
  let rec null_shape item =
    match item with
    | A.F_table { name; alias } -> (
        match Storage.Catalog.find_table ctx.Executor.catalog name with
        | Some ts ->
            let schema = ts.Storage.Catalog.schema in
            [
              Executor.binding_of_table schema
                ~alias:(Option.value ~default:name alias)
                (Array.map
                   (fun (_ : Storage.Schema.column) -> Value.Null)
                   schema.Storage.Schema.columns);
            ]
        | None -> [])
    | A.F_join { left; right; _ } -> null_shape left @ null_shape right
    | A.F_sub _ -> []
  in
  let out_layout, ext =
    match r.src_tuples with
    | sample :: _ ->
        ( full_layout,
          Array.map (Array.map (fun (_ : Value.t) -> Value.Null)) sample )
    | [] ->
        let shape = null_shape right_item in
        ( l.src_layout @ shape,
          Array.of_list (List.map (fun b -> b.Executor.b_values) shape) )
  in
  let combine () =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | lt :: rest ->
          set_left lt;
          let rec walk_right acc_r matched = function
            | [] ->
                let acc_r =
                  if (not matched) && kind = A.Left then
                    Array.append lt ext :: acc_r
                  else acc_r
                in
                Ok acc_r
            | rt :: more -> (
                match (kind, con) with
                | A.Cross, _ | _, None ->
                    walk_right (Array.append lt rt :: acc_r) true more
                | _, Some (c, p) -> (
                    set_right rt;
                    match eval_on c p with
                    | Ok Tvl.True ->
                        walk_right (Array.append lt rt :: acc_r) true more
                    | Ok (Tvl.False | Tvl.Unknown) ->
                        walk_right acc_r matched more
                    | Error e -> Error e))
          in
          let* produced = walk_right [] false r.src_tuples in
          go (List.rev_append produced acc) rest
    in
    go [] l.src_tuples
  in
  (* forced join-order swap: right side drives the outer loop; bindings
     still concatenate in textual order.  LEFT joins are never swapped:
     their NULL extension is asymmetric. *)
  let swap =
    Executor.swap_join_forced ctx
    && match kind with A.Inner | A.Cross -> true | A.Left -> false
  in
  let combine_swapped () =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | rt :: rest ->
          set_right rt;
          let rec walk_left acc_l = function
            | [] -> Ok acc_l
            | lt :: more -> (
                match (kind, con) with
                | A.Cross, _ | _, None ->
                    walk_left (Array.append lt rt :: acc_l) more
                | _, Some (c, p) -> (
                    set_left lt;
                    match eval_on c p with
                    | Ok Tvl.True ->
                        walk_left (Array.append lt rt :: acc_l) more
                    | Ok (Tvl.False | Tvl.Unknown) -> walk_left acc_l more
                    | Error e -> Error e))
          in
          let* produced = walk_left [] l.src_tuples in
          go (List.rev_append produced acc) rest
    in
    go [] r.src_tuples
  in
  let* tuples = if swap then combine_swapped () else combine () in
  if Executor.tracing ctx then
    Executor.op_event ctx ~op:"JOIN"
      ~detail:
        ((match kind with
         | A.Inner -> "INNER"
         | A.Left -> "LEFT"
         | A.Cross -> "CROSS")
        ^ if swap then " (forced swap)" else "")
      ~rows_in:(List.length l.src_tuples + List.length r.src_tuples)
      ~rows_out:(List.length tuples)
      ~batches:(batches_of (List.length tuples))
      ~t0:join_t0 ();
  Ok { src_layout = out_layout; src_tuples = tuples }
