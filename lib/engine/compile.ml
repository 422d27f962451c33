(* The query executor: the operator pipeline over compiled expressions.

   Each expression of a query is compiled once by Eval.compile into a
   closure over the env's current tuple; the operator pipeline (scan,
   filter, project, aggregate, distinct, sort, limit) stores each tuple
   in the env and drives those closures over fixed-size row blocks.  All
   expression semantics — every dialect quirk and injected bug — live in
   Eval. *)

open Sqlval
module A = Sqlast.Ast

let ( let* ) = Result.bind
let block_size = Executor.block_size
let batches_of = Executor.batches_of

(* The row under evaluation is a tuple: one value array per FROM-clause
   binding, in binding order, held in the env's [cur]; the bindings'
   metadata is the env's static [layout]. *)
let make_env ctx layout = Eval.with_layout (Executor.eval_env ctx) layout

let cov_ctx (ctx : Executor.ctx) point =
  match ctx.Executor.coverage with None -> () | Some c -> Coverage.hit c point

(* ------------------------------------------------------------------ *)
(* Projection                                                          *)

(* A compiled SELECT item: fills output values for the current row. *)
type proj =
  | P_star  (* every binding's values, in binding order *)
  | P_binding of int  (* t.*: one binding's values *)
  | P_error of Errors.t  (* t.* naming no binding: fails at projection *)
  | P_expr of Eval.thunk

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
                if b.Eval.b_alias = tl then P_binding i
                else find (i + 1) rest
          in
          find 0 c.Eval.layout)
      | A.Sel_expr (e, _) -> P_expr (Eval.compile c e))
    items

(* The output width of the compiled item list over [tuple]. *)
let rec proj_width (tuple : Value.t array array) n = function
  | [] -> n
  | P_star :: rest ->
      let n = ref n in
      for i = 0 to Array.length tuple - 1 do
        n := !n + Array.length tuple.(i)
      done;
      proj_width tuple !n rest
  | P_binding i :: rest -> proj_width tuple (n + Array.length tuple.(i)) rest
  | P_error _ :: rest -> proj_width tuple n rest
  | P_expr _ :: rest -> proj_width tuple (n + 1) rest

(* Project the tuple currently in [c.cur] through the compiled item
   list ([tuple] is the same array the caller stored into [c.cur]) into
   [out], which is [proj_width] wide. *)
let project_into out (tuple : Value.t array array) projs :
    (Value.t array, Errors.t) result =
  let rec go pos = function
    | [] -> Ok out
    | p :: rest -> (
        match p with
        | P_star ->
            let pos = ref pos in
            for i = 0 to Array.length tuple - 1 do
              let vs = tuple.(i) in
              Array.blit vs 0 out !pos (Array.length vs);
              pos := !pos + Array.length vs
            done;
            go !pos rest
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

(* [project_into] a fresh array, sized before any item runs. *)
let project tuple projs =
  project_into (Array.make (proj_width tuple 0 projs) Value.Null) tuple projs

let rec eval_all acc = function
  | [] -> Ok (List.rev acc)
  | (t : Eval.thunk) :: rest ->
      let* v = t () in
      eval_all (v :: acc) rest

(* ------------------------------------------------------------------ *)
(* The batched pipeline                                                *)

(* A materialized FROM item: static per-binding metadata plus the
   tuples, one value array per binding (joins contribute the bindings
   of both sides, concatenated in textual order). *)
type source = {
  src_layout : Eval.binding list;
  src_tuples : Value.t array array list;
}

(* Evaluate the compiled WHERE predicate over the tuples in blocks of
   [block_size], compacting survivors per block; the FILTER operator
   annotation reports the block count. *)
let filter_rows ctx (c : Eval.env) pred (rows : Value.t array array array) :
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
          c.Eval.cur := row;
          (match p () with
          | Ok v -> (
              match Eval.value_tvl c v with
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
let aggregate ctx (c : Eval.env) (s : A.select) filtered :
    ((Value.t array * Value.t list) list, Errors.t) result =
  cov_ctx ctx "exec.group_by";
  let agg_t0 = Executor.op_clock ctx in
  let compiled = ref [] in
  let eval tuple e =
    let t =
      match List.assq_opt e !compiled with
      | Some t -> t
      | None ->
          let t = Eval.compile c e in
          compiled := (e, t) :: !compiled;
          t
    in
    c.Eval.cur := tuple;
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
          | [] -> (make_env ctx [], [||])
        in
        let at_rep e =
          let t = Eval.compile gc e in
          gc.Eval.cur := rep;
          t ()
        in
        let* keep =
          match s.A.sel_having with
          | None -> Ok true
          | Some h ->
              cov_ctx ctx "exec.having";
              let* h' = substitute group h in
              let* v = at_rep h' in
              let* t = Eval.value_tvl gc v in
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
          gc.Eval.cur := rep;
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
          Eval.b_alias = String.lowercase_ascii alias;
          b_columns = columns;
        };
      ];
    src_tuples = List.map (fun row -> [| row |]) rows;
  }

(* The two shapes every dialect rejects before evaluating anything: [*]
   with no FROM, and VALUES rows of different widths. *)
let no_tables_error (d : Dialect.t) =
  Errors.make Errors.Syntax_error
    (match d with
    | Dialect.Sqlite_like -> "no tables specified"
    | Dialect.Mysql_like -> "No tables used"
    | Dialect.Postgres_like -> "SELECT * with no tables specified is not valid")

let ragged_values_error (d : Dialect.t) ~row =
  Errors.make Errors.Syntax_error
    (match d with
    | Dialect.Sqlite_like -> "all VALUES must have the same number of terms"
    | Dialect.Mysql_like ->
        Printf.sprintf "Column count doesn't match value count at row %d" row
    | Dialect.Postgres_like -> "VALUES lists must all be the same length")

(* A row sink receives a query's output rows one at a time instead of a
   collected list; INTERSECT and EXCEPT probe their right operand with
   one.  [deliver] hands a finished result set to the caller: whole, or,
   under a sink, row by row (the result then keeps its columns and no
   rows). *)
let deliver ?sink (rs : Executor.result_set) =
  match sink with
  | None -> Ok rs
  | Some f ->
      List.iter f rs.Executor.rs_rows;
      Ok { rs with Executor.rs_rows = [] }

(* ORDER BY keys evaluated for their errors only. *)
let rec eval_each = function
  | [] -> Ok ()
  | (t : Eval.thunk) :: rest ->
      let* _ = t () in
      eval_each rest

(* One compiled-and-executed SELECT.  Under a [sink] and without
   LIMIT/OFFSET the SELECT is probed: each projected row goes to the
   sink as it is produced, and DISTINCT, the unordered-SELECT reversal
   and ORDER BY are skipped, since none of them changes which rows a
   set probe sees.  Every item and ORDER BY key is still evaluated in
   row order, so errors surface as in the full pipeline, and the
   DISTINCT and ORDER BY coverage points are still hit. *)
let rec run_select ?sink ctx (s : A.select) :
    (Executor.result_set, Errors.t) result =
  let where = s.A.sel_where in
  if s.A.sel_from = [] then begin
    (* constant SELECT: project once, keep the row if WHERE passes;
       DISTINCT/ORDER BY/LIMIT do not apply *)
    let* () =
      if List.exists (function A.Star -> true | _ -> false) s.A.sel_items
      then Error (no_tables_error ctx.Executor.dialect)
      else Ok ()
    in
    let c = make_env ctx [] in
    let* columns = Executor.output_columns [] s.A.sel_items in
    let projs = compile_items c s.A.sel_items in
    let* row = project [||] projs in
    let* rows =
      match where with
      | None -> Ok [ row ]
      | Some w -> (
          let p = Eval.compile c w in
          match p () with
          | Ok v -> (
              match Eval.value_tvl c v with
              | Ok Tvl.True -> Ok [ row ]
              | Ok (Tvl.False | Tvl.Unknown) -> Ok []
              | Error e -> Error e)
          | Error e -> Error e)
    in
    deliver ?sink { Executor.rs_columns = columns; rs_rows = rows }
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
    let c = make_env ctx layout in
    (* WHERE *)
    let pred = Option.map (Eval.compile c) where in
    let* filtered, product_nonempty =
      match (sources, pred) with
      | [ a; b ], Some p ->
          (* fused cross product + filter for the two-item comma FROM:
             the predicate runs against the env's scratch tuple with the
             halves blitted in, and the combined tuple is allocated only
             for surviving rows; iteration order, coverage, the FILTER
             event's counts and the forced join swap all match the
             materialize-then-filter path *)
          let na = List.length a.src_layout
          and nb = List.length b.src_layout in
          let scratch = !(c.Eval.cur) in
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
                match Eval.value_tvl c v with
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
    let sample = if product_nonempty then c.Eval.layout else [] in
    let* columns = Executor.output_columns sample s.A.sel_items in
    let probe =
      match sink with
      | Some f when s.A.sel_limit = None && s.A.sel_offset = None -> Some f
      | _ -> None
    in
    (* projection + ORDER BY keys, or the aggregation operator; a probe
       takes the projected rows as they come, leaving the list empty *)
    let* out_rows_with_keys =
      if Executor.select_has_agg s then aggregate ctx c s filtered
      else
        let projs = compile_items c s.A.sel_items in
        let order_thunks =
          List.map (fun (e, _) -> Eval.compile c e) s.A.sel_order_by
        in
        match probe with
        | Some f ->
            (* the sink only looks rows up, so one buffer serves them all *)
            let buf = ref [||] in
            let rec go = function
              | [] -> Ok []
              | values :: rest ->
                  c.Eval.cur := values;
                  let w = proj_width values 0 projs in
                  if Array.length !buf <> w then buf := Array.make w Value.Null;
                  let* row = project_into !buf values projs in
                  let* () = eval_each order_thunks in
                  f row;
                  go rest
            in
            go filtered
        | None ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | values :: rest ->
                  c.Eval.cur := values;
                  let* row = project values projs in
                  let* ks = eval_all [] order_thunks in
                  go ((row, ks) :: acc) rest
            in
            go [] filtered
    in
    match probe with
    | Some f ->
        List.iter (fun (row, _) -> f row) out_rows_with_keys;
        if s.A.sel_distinct then cov_ctx ctx "exec.distinct";
        if s.A.sel_order_by <> [] then cov_ctx ctx "exec.order_by";
        Ok { Executor.rs_columns = columns; rs_rows = [] }
    | None ->
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
                    match Eval.column_meta c e with
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
        deliver ?sink { Executor.rs_columns = columns; rs_rows = rows }
  end

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

and run_query ?sink ctx (q : A.query) :
    (Executor.result_set, Errors.t) result =
  (* corruption gates every read (paper: 'malformed database' is always an
     unexpected error) *)
  match Storage.Catalog.corruption ctx.Executor.catalog with
  | Some msg -> Error (Errors.make Errors.Malformed_database msg)
  | None -> (
      match q with
      | A.Q_select s -> run_select ?sink ctx s
      | A.Q_values rows ->
          cov_ctx ctx "exec.values";
          let width = match rows with r :: _ -> List.length r | [] -> 0 in
          let* () =
            let rec check i = function
              | [] -> Ok ()
              | r :: rest ->
                  if List.length r <> width then
                    Error (ragged_values_error ctx.Executor.dialect ~row:i)
                  else check (i + 1) rest
            in
            check 1 rows
          in
          let c = make_env ctx [] in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | row :: rest ->
                let* r = eval_all [] (List.map (Eval.compile c) row) in
                go (Array.of_list r :: acc) rest
          in
          let* rows = go [] rows in
          let columns =
            List.init width (fun i -> Printf.sprintf "column%d" (i + 1))
          in
          deliver ?sink { Executor.rs_columns = columns; rs_rows = rows }
      | A.Q_compound (op, qa, qb) ->
          let* rs = run_compound ctx op qa qb in
          deliver ?sink rs)

(* UNION [ALL] concatenates its operands' rows.  INTERSECT and EXCEPT
   are one set probe: the left rows are hashed, and the right operand
   runs under a sink that marks each left key it meets, so its rows are
   never collected (and a probed SELECT skips its DISTINCT and ORDER
   BY).  The output is the deduplicated left rows, in left order, whose
   key was met (INTERSECT) or not (EXCEPT). *)
and run_compound ctx op qa qb =
  (match op with
  | A.Union | A.Union_all -> cov_ctx ctx "exec.compound_union"
  | A.Intersect -> cov_ctx ctx "exec.compound_intersect"
  | A.Except -> cov_ctx ctx "exec.compound_except");
  let* ra = run_query ctx qa in
  let left = ra.Executor.rs_rows in
  let same_width (rb : Executor.result_set) =
    if List.compare_lengths ra.Executor.rs_columns rb.Executor.rs_columns <> 0
    then
      Error
        (Errors.make Errors.Syntax_error
           "SELECTs to the left and right of a compound operator do not \
            have the same number of result columns")
    else Ok ()
  in
  let finish ~t0 ~detail ~right_rows rows =
    if Executor.tracing ctx then begin
      let n_in = List.length left + right_rows in
      Executor.op_event ctx ~op:"COMPOUND" ~detail ~rows_in:n_in
        ~rows_out:(List.length rows) ~batches:(batches_of n_in) ~t0 ()
    end;
    Ok { Executor.rs_columns = ra.Executor.rs_columns; rs_rows = rows }
  in
  match op with
  | A.Union | A.Union_all ->
      let* rb = run_query ctx qb in
      let t0 = Executor.op_clock ctx in
      let* () = same_width rb in
      let rows = left @ rb.Executor.rs_rows in
      let rows, detail =
        if op = A.Union then (Executor.dedup ~row:Fun.id rows, "UNION")
        else (rows, "UNION ALL")
      in
      finish ~t0 ~detail ~right_rows:(List.length rb.Executor.rs_rows) rows
  | A.Intersect | A.Except ->
      let t0 = Executor.op_clock ctx in
      (* one mark per distinct left key, shared by its equal rows *)
      let marks = Executor.Row_tbl.create 16 in
      List.iter
        (fun r ->
          if not (Executor.Row_tbl.mem marks r) then
            Executor.Row_tbl.add marks r (ref false))
        left;
      (* once every left key is met the answer is known; later right
         rows still run, for their errors, but are not looked up *)
      let probed = ref 0 and unmet = ref (Executor.Row_tbl.length marks) in
      let sink r =
        incr probed;
        if !unmet > 0 then
          match Executor.Row_tbl.find_opt marks r with
          | Some met when not !met ->
              met := true;
              decr unmet
          | Some _ | None -> ()
      in
      let* rb = run_query ~sink ctx qb in
      let* () = same_width rb in
      let want = op = A.Intersect in
      let rows =
        Executor.dedup ~row:Fun.id
          (List.filter (fun r -> !(Executor.Row_tbl.find marks r) = want) left)
      in
      finish ~t0
        ~detail:(if want then "INTERSECT (probe)" else "EXCEPT (probe)")
        ~right_rows:!probed rows

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
          let layout = [ Eval.binding_of_table schema ~alias:alias_name ] in
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
        let c = make_env ctx full_layout in
        Some (c, Eval.compile c cond)
  in
  (* blit target: the env's own tuple, the one the ON closure reads *)
  let scratch = match con with Some (c, _) -> !(c.Eval.cur) | None -> [||] in
  let set_left lt =
    match con with Some _ -> Array.blit lt 0 scratch 0 nl | None -> ()
  in
  let set_right rt =
    match con with Some _ -> Array.blit rt 0 scratch nl nr | None -> ()
  in
  let eval_on c p =
    let* v = p () in
    Eval.value_tvl c v
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
              Eval.binding_of_table schema
                ~alias:(Option.value ~default:name alias);
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
          Array.of_list
            (List.map
               (fun b -> Array.map (fun _ -> Value.Null) b.Eval.b_columns)
               shape) )
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

(* Sinks stay internal: only the compound operators probe. *)
let run_query ctx q = run_query ctx q
