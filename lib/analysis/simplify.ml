(* The constant-optimization rewriter.

   Bottom-up, iterated to a fixpoint: substitutes known (pivot-row)
   column values, folds constant subtrees through {!Const_fold} (i.e.
   through the engine evaluator itself), prunes tautological and
   contradictory AND/OR conjuncts and dead CASE branches, and records a
   provenance trail of every rewrite applied.

   Every rule is chosen so that the rewritten expression evaluates to the
   same value as the original *under the binding environment* on a
   bug-free engine, and so that no rewrite can introduce an evaluation
   error the original did not have.  Two classes of node are never folded
   away even when their value is known:

   - metadata-bearing roots (Col, COLLATE, CAST, unary [+]): an enclosing
     comparison's static prep consults them, so replacing them with a
     literal could change collation or affinity choices.  Operands of
     comparisons / BETWEEN / LIKE are instead substituted only when the
     engine's own prep/apply split provably computes the same result for
     the literal form ({!Const_fold.compare_substitutable} & co.);
   - the boolean skeleton (AND / OR / NOT / IS): these are where an
     engine's constant folder does its own work, so the simplifier keeps
     the connectives and only simplifies beneath them — the rewritten
     query still *exercises* the engine's folding rather than assuming
     it.  Comparisons that fold to NULL become the NULL literal, which is
     exactly the operand shape a buggy `NULL AND x` / `NOT NULL` folder
     mishandles. *)

open Sqlval
module A = Sqlast.Ast
module E = Engine.Eval

type rewrite = {
  rw_rule : string;
  rw_loc : string;
  rw_before : string;
  rw_after : string;
}

type result = {
  res_expr : Sqlast.Ast.expr;
  res_trail : rewrite list;
}

let pp_rewrite fmt r =
  Format.fprintf fmt "%s at %s: %s => %s" r.rw_rule r.rw_loc r.rw_before
    r.rw_after

let comparison_op = function
  | A.Eq | A.Neq | A.Lt | A.Le | A.Gt | A.Ge | A.Null_safe_eq -> true
  | _ -> false

let one_pass (env : E.env) ~trail (root : A.expr) : A.expr =
  let dialect = env.E.dialect in
  let print e = Sqlast.Sql_printer.expr dialect e in
  let note rule loc before after =
    trail :=
      { rw_rule = rule; rw_loc = loc; rw_before = print before;
        rw_after = print after }
      :: !trail
  in
  let fold = Const_fold.fold env in
  (* the truth value of a literal operand, if syntactically a literal *)
  let lit_tvl = function
    | A.Lit v -> Result.to_option (E.run (fun () -> E.value_tvl env v))
    | _ -> None
  in
  (* fold a metadata-insensitive node to the literal of its value *)
  let pure rule loc e' =
    match fold e' with
    | Some v when not (A.equal_expr (A.Lit v) e') ->
        note rule loc e' (A.Lit v);
        A.Lit v
    | _ -> e'
  in
  let rec simp ~bool_ctx loc (e : A.expr) : A.expr =
    match e with
    | A.Lit _ | A.Col _ -> e
    (* metadata-bearing decoration chain: simplify beneath, never fold *)
    | A.Collate (inner, c) ->
        A.Collate (simp ~bool_ctx:false (loc ^ ".arg") inner, c)
    | A.Cast (ty, inner) ->
        A.Cast (ty, simp ~bool_ctx:false (loc ^ ".arg") inner)
    | A.Unary (A.Pos, inner) ->
        A.Unary (A.Pos, simp ~bool_ctx:false (loc ^ ".arg") inner)
    (* boolean skeleton *)
    | A.Unary (A.Not, inner) ->
        A.Unary (A.Not, simp ~bool_ctx:true (loc ^ ".arg") inner)
    | A.Binary (A.And, a, b) -> (
        let sa = simp ~bool_ctx:true (loc ^ ".lhs") a in
        let sb = simp ~bool_ctx:true (loc ^ ".rhs") b in
        let e' = A.Binary (A.And, sa, sb) in
        (* a FALSE conjunct decides the AND in every context (the node's
           value is exactly the dialect's FALSE encoding); a TRUE
           conjunct is droppable only where the consumer reads a truth
           value *)
        match (lit_tvl sa, lit_tvl sb) with
        | Some Tvl.False, _ | _, Some Tvl.False ->
            let f = A.Lit (E.bool_value dialect Tvl.False) in
            if A.equal_expr f e' then e'
            else begin
              note "prune-and-false" loc e' f;
              f
            end
        | Some Tvl.True, _ when bool_ctx ->
            note "prune-and-true" loc e' sb;
            sb
        | _, Some Tvl.True when bool_ctx ->
            note "prune-and-true" loc e' sa;
            sa
        | _ -> e')
    | A.Binary (A.Or, a, b) -> (
        let sa = simp ~bool_ctx:true (loc ^ ".lhs") a in
        let sb = simp ~bool_ctx:true (loc ^ ".rhs") b in
        let e' = A.Binary (A.Or, sa, sb) in
        match (lit_tvl sa, lit_tvl sb) with
        | Some Tvl.True, _ | _, Some Tvl.True ->
            let t = A.Lit (E.bool_value dialect Tvl.True) in
            if A.equal_expr t e' then e'
            else begin
              note "prune-or-true" loc e' t;
              t
            end
        | Some Tvl.False, _ when bool_ctx ->
            note "prune-or-false" loc e' sb;
            sb
        | _, Some Tvl.False when bool_ctx ->
            note "prune-or-false" loc e' sa;
            sa
        | _ -> e')
    (* comparisons: fold to NULL when the verdict is NULL (the shape a
       buggy constant folder mishandles under NOT/AND); otherwise
       substitute both operands as literals when the engine's prep is
       provably indifferent, leaving a constant comparison for the
       engine's own folder; otherwise fold the whole node *)
    | A.Binary (op, a, b) when comparison_op op -> (
        let sa = simp ~bool_ctx:false (loc ^ ".lhs") a in
        let sb = simp ~bool_ctx:false (loc ^ ".rhs") b in
        let e' = A.Binary (op, sa, sb) in
        match fold e' with
        | None -> e'
        | Some v when Value.is_null v ->
            if A.equal_expr e' (A.Lit v) then e'
            else begin
              note "fold-null-cmp" loc e' (A.Lit v);
              A.Lit v
            end
        | Some v -> (
            match (fold sa, fold sb) with
            | Some va, Some vb
              when Const_fold.compare_substitutable env op sa sb va vb ->
                let e'' = A.Binary (op, A.Lit va, A.Lit vb) in
                if A.equal_expr e'' e' then e'
                else begin
                  note "subst-cmp" loc e' e'';
                  e''
                end
            | _ ->
                note "fold-cmp" loc e' (A.Lit v);
                A.Lit v))
    (* remaining binops (arith, bitops, concat): metadata consultation is
       internal to the node, so whole-node folding is context-safe *)
    | A.Binary (op, a, b) ->
        pure "fold-const" loc
          (A.Binary
             ( op,
               simp ~bool_ctx:false (loc ^ ".lhs") a,
               simp ~bool_ctx:false (loc ^ ".rhs") b ))
    | A.Unary (op, inner) ->
        pure "fold-const" loc
          (A.Unary (op, simp ~bool_ctx:false (loc ^ ".arg") inner))
    (* IS chains are the rectifier's UNKNOWN-decoration; keep the
       skeleton so the simplified query still exercises the engine's
       NULL handling *)
    | A.Is { negated; arg; rhs } ->
        let srhs =
          match rhs with
          | A.Is_expr e -> A.Is_expr (simp ~bool_ctx:false (loc ^ ".rhs") e)
          | A.Is_distinct_from e ->
              A.Is_distinct_from (simp ~bool_ctx:false (loc ^ ".rhs") e)
          | (A.Is_null | A.Is_true | A.Is_false) as r -> r
        in
        A.Is
          { negated; arg = simp ~bool_ctx:false (loc ^ ".arg") arg; rhs = srhs }
    | A.Between { negated; arg; lo; hi } -> (
        let sarg = simp ~bool_ctx:false (loc ^ ".arg") arg in
        let slo = simp ~bool_ctx:false (loc ^ ".lo") lo in
        let shi = simp ~bool_ctx:false (loc ^ ".hi") hi in
        let e' = A.Between { negated; arg = sarg; lo = slo; hi = shi } in
        match fold e' with
        | None -> e'
        | Some v when Value.is_null v ->
            note "fold-null-between" loc e' (A.Lit v);
            A.Lit v
        | Some v -> (
            match (fold sarg, fold slo, fold shi) with
            | Some va, Some vl, Some vh
              when Const_fold.between_substitutable env ~negated ~arg:sarg
                     ~lo:slo ~hi:shi va vl vh ->
                let e'' =
                  A.Between
                    { negated; arg = A.Lit va; lo = A.Lit vl; hi = A.Lit vh }
                in
                if A.equal_expr e'' e' then e'
                else begin
                  note "subst-between" loc e' e'';
                  e''
                end
            | _ ->
                note "fold-between" loc e' (A.Lit v);
                A.Lit v))
    | A.Like { negated; arg; pattern; escape } -> (
        let sarg = simp ~bool_ctx:false (loc ^ ".arg") arg in
        let spat = simp ~bool_ctx:false (loc ^ ".pattern") pattern in
        let sesc =
          Option.map (simp ~bool_ctx:false (loc ^ ".escape")) escape
        in
        let e' =
          A.Like { negated; arg = sarg; pattern = spat; escape = sesc }
        in
        match fold e' with
        | None -> e'
        | Some v when Value.is_null v ->
            note "fold-null-like" loc e' (A.Lit v);
            A.Lit v
        | Some v -> (
            let esc_char =
              match sesc with
              | None -> Some None
              | Some se -> (
                  match fold se with
                  | Some ev ->
                      Result.to_option (E.run (fun () -> E.like_escape_char ev))
                  | None -> None)
            in
            match (fold sarg, fold spat, esc_char) with
            | Some va, Some vp, Some c
              when Const_fold.like_substitutable env ~negated ~arg:sarg va vp
                     c ->
                let e'' =
                  A.Like
                    { negated; arg = A.Lit va; pattern = A.Lit vp;
                      escape = sesc }
                in
                if A.equal_expr e'' e' then e'
                else begin
                  note "subst-like" loc e' e'';
                  e''
                end
            | _ ->
                note "fold-like" loc e' (A.Lit v);
                A.Lit v))
    | A.Glob { negated; arg; pattern } ->
        pure "fold-const" loc
          (A.Glob
             {
               negated;
               arg = simp ~bool_ctx:false (loc ^ ".arg") arg;
               pattern = simp ~bool_ctx:false (loc ^ ".pattern") pattern;
             })
    | A.In_list { negated; arg; list } ->
        pure "fold-const" loc
          (A.In_list
             {
               negated;
               arg = simp ~bool_ctx:false (loc ^ ".arg") arg;
               list = List.map (simp ~bool_ctx:false (loc ^ ".item")) list;
             })
    | A.Func (f, args) ->
        pure "fold-const" loc
          (A.Func (f, List.map (simp ~bool_ctx:false (loc ^ ".arg")) args))
    | A.Agg _ -> e (* not a constant of the row; untouched *)
    | A.Case { operand = Some o; branches; else_ } ->
        (* operand form: the implicit comparisons go through the engine's
           machinery; simplify beneath, keep the shape *)
        A.Case
          {
            operand = Some (simp ~bool_ctx:false (loc ^ ".operand") o);
            branches =
              List.map
                (fun (w, r) ->
                  ( simp ~bool_ctx:false (loc ^ ".when") w,
                    simp ~bool_ctx:false (loc ^ ".then") r ))
                branches;
            else_ = Option.map (simp ~bool_ctx:false (loc ^ ".else")) else_;
          }
    | A.Case { operand = None; branches; else_ } -> (
        (* searched CASE: conditions that fold FALSE/UNKNOWN can never be
           taken; the first condition folding TRUE is always taken, so
           everything after it is dead *)
        let rec walk i kept = function
          | [] ->
              let else' =
                Option.map (simp ~bool_ctx:false (loc ^ ".else")) else_
              in
              (List.rev kept, else')
          | (cond, res) :: rest -> (
              let bloc = Printf.sprintf "%s.when%d" loc i in
              let scond = simp ~bool_ctx:true bloc cond in
              (* a cond may stay a constant comparison (kept as an
                 engine-folder surface) yet have a known truth value, so
                 branch viability folds rather than requiring a literal *)
              match Const_fold.fold_tvl env scond with
              | Some Tvl.True ->
                  let res' = simp ~bool_ctx:false (loc ^ ".then") res in
                  if kept = [] && E.column_meta env res' <> None then begin
                    (* the CASE would collapse to a metadata-bearing root
                       (a column, CAST or COLLATE), handing an enclosing
                       comparison an affinity or collation the CASE does
                       not have: the taken branch stays a one-branch CASE *)
                    if rest <> [] || else_ <> None then
                      note "truncate-case" bloc scond res';
                    ([ (scond, res') ], None)
                  end
                  else begin
                    note "truncate-case" bloc scond res';
                    (List.rev kept, Some res')
                  end
              | Some (Tvl.False | Tvl.Unknown) ->
                  note "prune-case-branch" bloc scond
                    (A.Lit (E.bool_value dialect Tvl.False));
                  walk (i + 1) kept rest
              | None ->
                  walk (i + 1)
                    ((scond, simp ~bool_ctx:false (loc ^ ".then") res)
                    :: kept)
                    rest)
        in
        match walk 1 [] branches with
        | [], Some r when E.column_meta env r = None -> r
        | [], Some r ->
            (* an ELSE result with metadata: the same one-branch CASE *)
            A.Case
              {
                operand = None;
                branches = [ (A.Lit (E.bool_value dialect Tvl.True), r) ];
                else_ = None;
              }
        | [], None -> A.Lit Value.Null
        | kept, else' -> A.Case { operand = None; branches = kept; else_ = else' })
  in
  simp ~bool_ctx:true "query.where" root

(* rewrite passes before giving up on a fixpoint *)
let max_passes = 4

let simplify (env : E.env) (e : A.expr) : result =
  let trail = ref [] in
  let rec go n e =
    if n <= 0 then e
    else
      let e' = one_pass env ~trail e in
      if A.equal_expr e' e then e else go (n - 1) e'
  in
  let final = go max_passes e in
  { res_expr = final; res_trail = List.rev !trail }
