open Sqlval
module A = Sqlast.Ast

type t = {
  query : A.select;
  expected_row : Value.t list;
  raw_truths : Tvl.t list;
  provenance : (A.expr * Tvl.t * A.expr) list;
}

(* One pivot source as synthesis reads it.  A derived-table wrapping
   (FROM (SELECT * FROM t) AS t) makes the subquery's columns
   binary-collated, and untyped except on postgres, where a column keeps
   its declared type; [degraded] is the table info the oracle and the
   expression generator read then. *)
type source = {
  info : Schema_info.table_info;
  degraded : Schema_info.table_info;
  plain_from : A.from_item;
  wrapped_from : A.from_item;
}

(* what a check over some tables wrapped reads: the tables' infos, the
   interpreter env and the generator's scope *)
type variant = {
  infos : Schema_info.table_info list;
  env : Interp.env;
  scope : Gen_expr.scope;
}

type pivot = {
  dialect : Dialect.t;
  case_sensitive_like : bool;
  rows : (Schema_info.table_info * Value.t array) list;
  sources : source array;
  pool : Value.t list;
  column_targets : (A.expr * Value.t) list;
  mutable variants : (int * variant) list;
      (** by wrapping mask: bit [i] is set when source [i] is wrapped *)
}

let degrade dialect (ti : Schema_info.table_info) =
  {
    ti with
    Schema_info.ti_columns =
      List.map
        (fun (c : Schema_info.column_info) ->
          {
            c with
            Schema_info.ci_type =
              (match dialect with
              | Dialect.Postgres_like -> c.Schema_info.ci_type
              | Dialect.Sqlite_like | Dialect.Mysql_like -> Datatype.Any);
            ci_collation = Collation.Binary;
          })
        ti.Schema_info.ti_columns;
  }

let source dialect (ti : Schema_info.table_info) =
  let table = A.F_table { name = ti.Schema_info.ti_name; alias = None } in
  {
    info = ti;
    degraded = degrade dialect ti;
    plain_from = table;
    wrapped_from =
      A.F_sub
        {
          sub =
            A.Q_select
              {
                A.sel_distinct = false;
                sel_items = [ A.Star ];
                sel_from = [ table ];
                sel_where = None;
                sel_group_by = [];
                sel_having = None;
                sel_order_by = [];
                sel_limit = None;
                sel_offset = None;
              };
          alias = ti.Schema_info.ti_name;
        };
  }

let prepare ~dialect ~case_sensitive_like rows =
  {
    dialect;
    case_sensitive_like;
    rows;
    sources = Array.of_list (List.map (fun (ti, _) -> source dialect ti) rows);
    pool =
      List.concat_map (fun (_, row) -> Array.to_list row) rows
      |> List.filter (fun v -> not (Value.is_null v));
    (* every column of every pivot table, qualified *)
    column_targets =
      List.concat_map
        (fun ((ti : Schema_info.table_info), values) ->
          List.mapi
            (fun i (c : Schema_info.column_info) ->
              ( A.Col
                  {
                    table = Some ti.Schema_info.ti_name;
                    column = c.Schema_info.ci_name;
                  },
                values.(i) ))
            ti.Schema_info.ti_columns)
        rows;
    variants = [];
  }

let rows p = p.rows

let variant p mask =
  match List.assoc_opt mask p.variants with
  | Some v -> v
  | None ->
      let infos =
        List.mapi
          (fun i src ->
            if mask land (1 lsl i) <> 0 then src.degraded else src.info)
          (Array.to_list p.sources)
      in
      let v =
        {
          infos;
          env =
            Interp.env_of_pivot ~case_sensitive_like:p.case_sensitive_like
              p.dialect
              (List.map2 (fun ti (_, row) -> (ti, row)) infos p.rows);
          scope = Gen_expr.scope ~pool:p.pool p.dialect infos;
        }
      in
      p.variants <- (mask, v) :: p.variants;
      v

let conjunct_counts = Rng.weighted [ (4, 1); (3, 2); (1, 3) ]

(* A condition or target the interpreter refuses abandons the check:
   [synthesize] catches the refusal once. *)
exception Refused of string

let get = function Ok v -> v | Error msg -> raise_notrace (Refused msg)

let synthesize_exn ?(rectify = true) ?(target = Tvl.True)
    ?(telemetry = Telemetry.noop) ?shape ?pred ~rng ~pivot:p ~max_depth
    ~check_expressions () =
  (* which pivot tables this check reads through a derived table *)
  let mask = ref 0 in
  Array.iteri
    (fun i _ ->
      let wrapped =
        match shape with
        | Some s -> s.Gen_bias.sh_sub
        | None -> Rng.chance rng 0.12
      in
      if wrapped then mask := !mask lor (1 lsl i))
    p.sources;
  let mask = !mask in
  let { infos = tables; env; scope } = variant p mask in
  let from_of i =
    let src = p.sources.(i) in
    if mask land (1 lsl i) <> 0 then src.wrapped_from else src.plain_from
  in
  let gen_ctx = { Gen_expr.rng; max_depth; scope } in
  (* one rectified condition for WHERE; with two tables, optionally a second
     one as a JOIN ON condition *)
  let truths = ref [] in
  let prov = ref [] in
  let one_condition raw =
    if rectify then
      let rectifier =
        match target with
        | Tvl.False -> Rectify.rectify_to_false
        | Tvl.True | Tvl.Unknown -> Rectify.rectify
      in
      let c, t = get (rectifier ~telemetry env raw) in
      truths := t :: !truths;
      prov := (raw, t, c) :: !prov;
      c
    else
      (* no-rectification ablation: use the raw condition *)
      let t =
        get
          (Telemetry.Span.timed telemetry Telemetry.Phase.Interp (fun () ->
               Interp.eval_tvl env raw))
      in
      truths := t :: !truths;
      prov := (raw, t, raw) :: !prov;
      raw
  in
  let condition () =
    let raw =
      Telemetry.Span.timed telemetry Telemetry.Phase.Gen_expr (fun () ->
          if Rng.chance rng 0.5 then Gen_expr.simple_predicate gen_ctx
          else Gen_expr.condition gen_ctx)
    in
    one_condition raw
  in
  (* a conjunct aimed at the shape's cold expression kind; falls back to a
     random condition when the dialect cannot produce it *)
  let targeted_condition kind =
    let raw =
      Telemetry.Span.timed telemetry Telemetry.Phase.Gen_expr (fun () ->
          match Gen_expr.predicate_of_kind gen_ctx kind with
          | Some e -> e
          | None ->
              if Rng.chance rng 0.5 then Gen_expr.simple_predicate gen_ctx
              else Gen_expr.condition gen_ctx)
    in
    one_condition raw
  in
  (* WHERE is an AND of one to three rectified conjuncts: each conjunct is
     TRUE for the pivot, hence so is the conjunction, and bare conjuncts
     are what the planner's index paths key on *)
  let where =
    let n =
      match shape with
      | Some s -> max 1 (min 3 s.Gen_bias.sh_where)
      | None -> Rng.draw rng conjunct_counts
    in
    let rec build acc k =
      if k = 0 then acc
      else
        let c = condition () in
        build (A.Binary (A.And, acc, c)) (k - 1)
    in
    let first =
      match shape with
      | Some { Gen_bias.sh_pred = Some kind; _ } -> targeted_condition kind
      | _ -> condition ()
    in
    build first (n - 1)
  in
  (* pred-only guidance: one extra rectified conjunct aimed at a cold
     expression kind, drawn from the guidance RNG so the main synthesis
     stream stays byte-identical to a blind run.  Rectification keeps the
     conjunct TRUE for the pivot, so it can only narrow the result set
     around the row the oracle checks — a blind run's detections are
     preserved and the targeted kind is exercised on top (a conjunct that
     fails to rectify is simply dropped) *)
  let where =
    match (shape, pred) with
    | None, Some (pred_rng, kind) -> (
        let pctx = { gen_ctx with Gen_expr.rng = pred_rng } in
        match Gen_expr.predicate_of_kind pctx kind with
        | None -> where
        | Some raw -> (
            match one_condition raw with
            | c -> A.Binary (A.And, where, c)
            | exception Refused _ -> where))
    | _ -> where
  in
  let from =
    match tables with
    | [ _ ] -> [ from_of 0 ]
    | [ _; _ ] ->
        let explicit, kind =
          match shape with
          | Some s -> (
              match s.Gen_bias.sh_join with
              | `Inner -> (true, A.Inner)
              | `Left -> (true, A.Left)
              | `Cross | `Single -> (false, A.Inner))
          | None ->
              if Rng.chance rng 0.4 then
                (true, if Rng.chance rng 0.2 then A.Left else A.Inner)
              else (false, A.Inner)
        in
        if explicit then
          (* explicit JOIN with a rectified ON *)
          let on = condition () in
          [ A.F_join { kind; left = from_of 0; right = from_of 1; on = Some on } ]
        else [ from_of 0; from_of 1 ]
    | ts -> List.mapi (fun i _ -> from_of i) ts
  in
  (* targets: every column of every pivot table, qualified; with the
     expressions-on-columns extension some targets become scalar
     expressions evaluated by the oracle *)
  let column_targets = p.column_targets in
  (* a shape with GROUP BY needs every target to stay a plain column, so
     the expression/aggregate target extensions are suppressed for it *)
  let want_group = match shape with Some s -> s.Gen_bias.sh_group | None -> false in
  let targets =
    if
      check_expressions && column_targets <> [] && (not want_group)
      && Rng.chance rng 0.5
    then begin
      (* replace a random target with a scalar expression *)
      let n = List.length column_targets in
      let k = Rng.int rng n in
      let rec build i acc = function
        | [] -> List.rev acc
        | (col, v) :: rest ->
            if i = k then
              let e =
                Telemetry.Span.timed telemetry Telemetry.Phase.Gen_expr (fun () ->
                    Gen_expr.scalar gen_ctx)
              in
              let ev =
                get
                  (Telemetry.Span.timed telemetry Telemetry.Phase.Interp
                     (fun () -> Interp.eval env e))
              in
              build (i + 1) ((e, ev) :: acc) rest
            else build (i + 1) ((col, v) :: acc) rest
      in
      build 0 [] column_targets
    end
    else column_targets
  in
  if targets = [] then raise_notrace (Refused "no columns to select");
  (* single-row aggregate testing (paper Section 3.2: aggregates can be
     partially tested when only a single row is present) *)
  let targets =
    match tables with
    | [ ti ]
      when ti.Schema_info.ti_row_count = 1 && (not want_group)
           && Rng.chance rng 0.25 ->
        let scalar_e =
          Telemetry.Span.timed telemetry Telemetry.Phase.Gen_expr (fun () ->
              Gen_expr.scalar gen_ctx)
        in
        let v =
          get
            (Telemetry.Span.timed telemetry Telemetry.Phase.Interp (fun () ->
                 Interp.eval env scalar_e))
        in
        let agg =
          Rng.pick rng [ Sqlast.Ast.A_min; Sqlast.Ast.A_max ]
        in
        targets @ [ (A.Agg (agg, Some scalar_e), v) ]
    | _ -> targets
  in
  (* GROUP BY over all selected plain columns: every distinct row is its
     own group, so the pivot row must still be contained (the Listing 15
     shape) *)
  let group_by =
    let all_plain_cols =
      List.for_all
        (fun (e, _) -> match e with A.Col _ -> true | _ -> false)
        targets
    in
    if
      all_plain_cols && Array.length p.sources = 1
      && (match shape with
         | Some s -> s.Gen_bias.sh_group
         | None -> Rng.chance rng 0.3)
    then List.map fst targets
    else []
  in
  let order_by =
    let want =
      match shape with Some s -> s.Gen_bias.sh_order | None -> Rng.chance rng 0.3
    in
    if want then
      let e, _ = Rng.pick rng targets in
      [ (e, if Rng.bool rng then A.Asc else A.Desc) ]
    else []
  in
  let query =
    {
      A.sel_distinct =
        (match shape with
        | Some s -> s.Gen_bias.sh_distinct
        | None -> Rng.chance rng 0.4);
      sel_items = List.map (fun (e, _) -> A.Sel_expr (e, None)) targets;
      sel_from = from;
      sel_where = Some where;
      sel_group_by = group_by;
      sel_having = None;
      sel_order_by = order_by;
      sel_limit = None;
      sel_offset = None;
    }
  in
  {
    query;
    expected_row = List.map snd targets;
    raw_truths = !truths;
    provenance = !prov;
  }

let synthesize ?rectify ?target ?telemetry ?shape ?pred ~rng ~pivot
    ~max_depth ~check_expressions () =
  match
    synthesize_exn ?rectify ?target ?telemetry ?shape ?pred ~rng ~pivot
      ~max_depth ~check_expressions ()
  with
  | t -> Ok t
  | exception Refused msg -> Error msg

let containment_stmt t =
  let values_row = List.map (fun v -> A.Lit v) t.expected_row in
  A.Select_stmt
    (A.Q_compound (A.Intersect, A.Q_values [ values_row ], A.Q_select t.query))
