(* The query executor: a push pipeline over compiled expressions.

   Each expression of a query is compiled once by Eval.compile (values)
   or Eval.compile_pred (WHERE, ON, HAVING) into a closure over the
   env's current tuple.  A SELECT runs as one nested loop over its
   materialized FROM sources that evaluates WHERE on each tuple and
   projects each tuple WHERE accepts as soon as it does, pushing the
   row, with its ORDER BY keys, through stages built once per SELECT
   (DISTINCT, ORDER BY, LIMIT/OFFSET) into a sink: the caller's, or the
   default one that collects the result set.  An explicit JOIN is a
   level of that loop: its sides are materialized, and each pair ON
   accepts goes straight on to WHERE.  An infallible ON runs per pair;
   a fallible one runs over every pair before anything later, so its
   first error stays first.  A WHERE error ends the loop; the first
   projection or key error is held until WHERE has run on every tuple,
   and is the SELECT's error only if WHERE raised none.  A set probe's
   SELECT, and the join it runs, stops once its answer is settled, when
   nothing left in it can fail.  All expression semantics — every
   dialect quirk and injected bug — live in Eval.

   Every function here returns a bare value and raises its error with
   [Eval.fail], like Eval's closures: the first error raised ends the
   query, and the statement's one [Eval.run] (Session) or the exported
   [run_query]'s makes it the result.  So the per-row loops (FROM/WHERE
   with projection, the join's ON, the ORDER BY key walk, VALUES)
   allocate only what they keep.  The one catch is the projection's held
   error. *)

open Sqlval
module A = Sqlast.Ast

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

(* The compiled items, and whether projecting them is infallible. *)
let compile_items c items =
  let ok = ref true in
  let projs =
    List.map
      (function
        | A.Star -> P_star
        | A.Table_star t -> (
            let tl = Eval.lower t in
            let rec find i = function
              | [] ->
                  ok := false;
                  P_error
                    (Errors.makef Errors.No_such_table "no such table: %s" tl)
              | b :: rest ->
                  if b.Eval.b_alias = tl then P_binding i
                  else find (i + 1) rest
            in
            find 0 c.Eval.layout)
        | A.Sel_expr (e, _) ->
            let t, infallible = Eval.compile_checked c e in
            ok := !ok && infallible;
            P_expr t)
      items
  in
  (projs, !ok)

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
let project_into out (tuple : Value.t array array) projs : Value.t array =
  let rec go pos = function
    | [] -> out
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
        | P_error e -> Eval.fail e
        | P_expr t ->
            out.(pos) <- t ();
            go (pos + 1) rest)
  in
  go 0 projs

(* [project_into] a fresh array, sized before any item runs. *)
let project tuple projs =
  project_into (Array.make (proj_width tuple 0 projs) Value.Null) tuple projs

(* ------------------------------------------------------------------ *)
(* FROM and WHERE                                                      *)

(* A materialized FROM item: static per-binding metadata plus its rows,
   one value array per binding. *)
type source = { src_layout : Eval.binding list; src_rows : rows }

(* A leaf's tuples, or an explicit JOIN whose two sides are materialized
   and whose pairs the loop that runs it produces. *)
and rows = Tuples of Value.t array array list | Join of join

(* The outer side's tuples come in order, each with the inner tuples it
   may pair with, last-first: every inner tuple when [j_on] runs per
   pair, else those the ON matched up front (see [join_source]).  Each
   side's bindings sit at its offset in the join's layout, the left
   side's first. *)
and join = {
  j_outer : (Value.t array array * Value.t array array list) list;
  j_outer_off : int;
  j_inner_off : int;
  j_on : Eval.pred option;
  j_cur : Value.t array array ref;  (* the tuple [j_on] reads *)
  j_ext : Value.t array array option;
      (* LEFT: the NULL extension an unmatched outer tuple gets *)
  j_detail : string;
  j_rows_in : int;
  j_t0 : int;
  mutable j_pairs : int;  (* pairs (and extensions) produced *)
}

(* The nested loop over [levels], each a source's rows at its bindings'
   offset in [scratch]: each tuple is blitted there and [k ()] runs on
   each full tuple while it is still in the scratch.  A join level is a
   scratch's first (offset 0), so its ON, compiled against the join's
   own bindings, reads the scratch itself.  Each outer tuple's pairs
   come out last-first, and only the pairs ON accepts go on to the
   levels inside it; whatever raises out of [k] stops the join too. *)
let nested_loop scratch levels ~k =
  let rec nest = function
    | [] -> k ()
    | (off, Tuples tuples) :: inner ->
        let rec each = function
          | [] -> ()
          | t :: rest ->
              Array.blit t 0 scratch off (Array.length t);
              nest inner;
              each rest
        in
        each tuples
    | (off, Join j) :: inner ->
        j.j_cur := scratch;
        let inner_off = off + j.j_inner_off in
        let pair () =
          j.j_pairs <- j.j_pairs + 1;
          nest inner
        in
        let rec walk matched = function
          | [] -> matched
          | i :: more -> (
              Array.blit i 0 scratch inner_off (Array.length i);
              match match j.j_on with None -> Tvl.True | Some p -> p () with
              | Tvl.True ->
                  pair ();
                  walk true more
              | Tvl.False | Tvl.Unknown -> walk matched more)
        in
        List.iter
          (fun (o, cands) ->
            Array.blit o 0 scratch (off + j.j_outer_off) (Array.length o);
            let matched = walk false cands in
            match j.j_ext with
            | Some ext when not matched ->
                Array.blit ext 0 scratch inner_off (Array.length ext);
                pair ()
            | Some _ | None -> ())
          j.j_outer
  in
  nest levels

(* A join's JOIN event, once its loop has run; [stopped] marks a probe
   that ended at its answer. *)
let join_event ctx j ~stopped =
  if Executor.tracing ctx then
    Executor.op_event ctx ~op:"JOIN"
      ~detail:(if stopped then j.j_detail ^ " (stopped)" else j.j_detail)
      ~rows_in:j.j_rows_in ~rows_out:j.j_pairs
      ~batches:(batches_of j.j_pairs) ~t0:j.j_t0 ()

(* [src]'s tuples.  A join's pairs are produced into a scratch tuple of
   its own and copied out, in the order its loop makes them. *)
let tuples_of ctx src =
  match src.src_rows with
  | Tuples tuples -> tuples
  | Join j ->
      let scratch = Array.make (List.length src.src_layout) [||] in
      let acc = ref [] in
      nested_loop scratch [ (0, src.src_rows) ] ~k:(fun () ->
          acc := Array.copy scratch :: !acc);
      join_event ctx j ~stopped:false;
      List.rev !acc

(* Raised by a probed SELECT's loop once its answer is settled and
   nothing left in it can fail; caught right outside the loop. *)
exception Settled

(* The SELECT's loop over its sources, in textual order except that the
   forced join swap puts the second of a two-item comma FROM outside.  A
   join runs in the loop when it is the outermost level at offset 0;
   any other is produced before the loop begins.  WHERE runs on each tuple in the env's
   scratch, and [accept ()] runs on each tuple WHERE accepts while it is
   still there.  WHERE's errors raise out of the loop, and [Settled]
   ends it quietly.  Then the loop's JOIN event, and its FILTER event
   when there is a WHERE. *)
let from_where ctx (c : Eval.env) (pred : Eval.pred option) sources ~accept =
  let t0 = Executor.op_clock ctx in
  let _, placed =
    List.fold_left
      (fun (off, acc) src ->
        (off + List.length src.src_layout, (off, src) :: acc))
      (0, []) sources
  in
  let loops =
    List.mapi
      (fun i (off, src) ->
        match src.src_rows with
        | Join _ when i > 0 || off > 0 -> (off, Tuples (tuples_of ctx src))
        | Join _ | Tuples _ -> (off, src.src_rows))
      (match List.rev placed with
      | [ a; b ] when Executor.swap_join_forced ctx -> [ b; a ]
      | loops -> loops)
  in
  let tuples = ref 0 and accepted = ref 0 in
  let stopped =
    match
      nested_loop !(c.Eval.cur) loops ~k:(fun () ->
          incr tuples;
          match match pred with None -> Tvl.True | Some p -> p () with
          | Tvl.True ->
              incr accepted;
              accept ()
          | Tvl.False | Tvl.Unknown -> ())
    with
    | () -> false
    | exception Settled -> true
  in
  (match loops with (_, Join j) :: _ -> join_event ctx j ~stopped | _ -> ());
  if Option.is_some pred && Executor.tracing ctx then
    Executor.op_event ctx ~op:"FILTER"
      ~detail:(if stopped then "WHERE (stopped)" else "WHERE")
      ~rows_in:!tuples ~rows_out:!accepted ~batches:(batches_of !tuples) ~t0
      ()

(* ------------------------------------------------------------------ *)
(* Stages                                                              *)

(* A stage takes the projected rows, each with its ORDER BY keys, one at
   a time; [finish] runs once, after the last row. *)
type stage = {
  push : Value.t array -> Value.t list -> unit;
  finish : unit -> unit;
}

(* Where a query's rows go instead of into its result set: [put] takes
   each row, and [settled ()] is true once no later row can change the
   answer [put]'s owner is computing (a set probe whose left keys are
   all met). *)
type sink = { put : Value.t array -> unit; settled : unit -> bool }

(* The row function a query delivers to: the caller's sink, or by
   default one that collects the result set, returned by the second
   function (empty under the caller's sink). *)
let sink_or_collect = function
  | Some s -> (s.put, fun () -> [])
  | None ->
      let acc = ref [] in
      ((fun row -> acc := row :: !acc), fun () -> List.rev !acc)

(* DISTINCT: the first occurrence of each row passes. *)
let distinct_stage ctx next =
  let t0 = Executor.op_clock ctx in
  let seen = Executor.Row_tbl.create 16 and n_in = ref 0 in
  {
    push =
      (fun row keys ->
        incr n_in;
        if Executor.Row_tbl.add_new seen row () then next.push row keys);
    finish =
      (fun () ->
        Executor.op_event ctx ~op:"DISTINCT" ~rows_in:!n_in
          ~rows_out:(Executor.Row_tbl.length seen) ~batches:(batches_of !n_in)
          ~t0 ();
        next.finish ());
  }

(* ORDER BY, a stable sort with each key compared under its expression's
   collation (explicit COLLATE or the column's, like sqlite), or without
   one the reverse_unordered_selects reversal: the one stage that
   buffers. *)
let order_stage ctx (c : Eval.env) (s : A.select) next =
  let held = ref [] in
  let ordered () =
    match s.A.sel_order_by with
    | [] -> !held (* held last-first: reversed *)
    | order_by ->
        let sort_t0 = Executor.op_clock ctx in
        let dirs_and_colls =
          List.map
            (fun (e, dir) ->
              let coll =
                match e with
                | A.Collate (_, cl) -> cl
                | _ -> (
                    match Eval.column_meta c e with
                    | Some (_, cl) -> cl
                    | None -> Collation.Binary)
              in
              (dir, coll))
            order_by
        in
        let rec cmp ks1 ks2 dcs =
          match (ks1, ks2, dcs) with
          | k1 :: r1, k2 :: r2, (d, coll) :: rd ->
              let cm = Value.compare_collated coll k1 k2 in
              let cm = match d with A.Asc -> cm | A.Desc -> -cm in
              if cm <> 0 then cm else cmp r1 r2 rd
          | _ -> 0
        in
        let sorted =
          List.stable_sort
            (fun (_, ka) (_, kb) -> cmp ka kb dirs_and_colls)
            (List.rev !held)
        in
        (if Executor.tracing ctx then
           let n = List.length sorted in
           Executor.op_event ctx ~op:"SORT"
             ~detail:(Printf.sprintf "%d keys" (List.length order_by))
             ~rows_in:n ~rows_out:n ~batches:(batches_of n) ~t0:sort_t0 ());
        sorted
  in
  {
    push = (fun row keys -> held := (row, keys) :: !held);
    finish =
      (fun () ->
        List.iter (fun (row, keys) -> next.push row keys) (ordered ());
        next.finish ());
  }

(* OFFSET, then LIMIT: counters over the rows that reach them. *)
let limit_stage ctx (s : A.select) next =
  let t0 = Executor.op_clock ctx in
  let skip = Option.fold ~none:0 ~some:Int64.to_int s.A.sel_offset in
  let take = Option.fold ~none:(-1) ~some:Int64.to_int s.A.sel_limit in
  let seen = ref 0 and passed = ref 0 in
  {
    push =
      (fun row keys ->
        incr seen;
        if !seen > skip && (take < 0 || !passed < take) then begin
          incr passed;
          next.push row keys
        end);
    finish =
      (fun () ->
        Executor.op_event ctx ~op:"LIMIT" ~rows_in:!seen ~rows_out:!passed
          ~batches:(batches_of !seen) ~t0 ();
        next.finish ());
  }

(* Evaluate the ORDER BY [keys] of the current row, in order, then push
   [row] with them down [chain].  Top-level, so no closure is built per
   row. *)
let rec push_keyed chain row acc = function
  | [] -> chain.push row (List.rev acc)
  | (t : Eval.thunk) :: rest ->
      let v = t () in
      push_keyed chain row (v :: acc) rest

(* The chain a SELECT's rows are pushed through, ending in [put].  A
   probed SELECT (see [run_select]) has no DISTINCT or ORDER BY stage. *)
let stages ctx c (s : A.select) ~probe put =
  let st = { push = (fun row _ -> put row); finish = ignore } in
  let st =
    if s.A.sel_limit = None && s.A.sel_offset = None then st
    else limit_stage ctx s st
  in
  if probe then st
  else
    let st =
      if
        s.A.sel_order_by <> []
        || Options.reverse_unordered_selects ctx.Executor.options
      then order_stage ctx c s st
      else st
    in
    if s.A.sel_distinct then distinct_stage ctx st else st

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)

(* GROUP BY / aggregate items / HAVING over the filtered tuples, through
   Executor's aggregation operator.  Group keys and aggregate arguments
   run as closures compiled once per expression; each group's HAVING,
   items and ORDER BY keys are compiled after its aggregates are
   substituted by their values, and evaluated against the group's first
   tuple.  The implicit single group over no rows has no representative
   tuple, so its column references fail to resolve.  Each group that
   passes HAVING goes to [emit] (the SELECT's projection step) with its
   env, representative tuple, items and keys. *)
let aggregate ctx (c : Eval.env) (s : A.select) tuples ~emit =
  cov_ctx ctx "exec.group_by";
  let agg_t0 = Executor.op_clock ctx in
  let compiled = ref [] in
  (* each expression's thunk, compiled on first use, found by identity *)
  let rec thunk_of e = function
    | (e', t) :: rest -> if e' == e then t else thunk_of e rest
    | [] ->
        let t = Eval.compile c e in
        compiled := (e, t) :: !compiled;
        t
  in
  let eval tuple e =
    let t = thunk_of e !compiled in
    c.Eval.cur := tuple;
    t ()
  in
  let substitute group e = Executor.substitute_aggs ctx ~eval group e in
  let groups = Executor.group_tuples ctx ~eval s tuples in
  let kept = ref 0 in
  List.iter
    (fun group ->
      let gc, rep =
        match group with
        | t :: _ -> (c, t)
        | [] -> (make_env ctx [], [||])
      in
      let at_rep compile e =
        let t = compile gc e in
        gc.Eval.cur := rep;
        t ()
      in
      let keep =
        match s.A.sel_having with
        | None -> true
        | Some h ->
            cov_ctx ctx "exec.having";
            Tvl.equal (at_rep Eval.compile_pred (substitute group h)) Tvl.True
      in
      if keep then begin
        let items =
          List.map
            (function
              | A.Sel_expr (e, a) -> A.Sel_expr (substitute group e, a)
              | it -> it)
            s.A.sel_items
        in
        (* each key is substituted, compiled and evaluated in turn *)
        let keys =
          List.map
            (fun (e, _) () -> at_rep Eval.compile (substitute group e))
            s.A.sel_order_by
        in
        incr kept;
        emit gc rep (fst (compile_items gc items)) keys
      end)
    groups;
  if Executor.tracing ctx then
    Executor.op_event ctx ~op:"AGGREGATE"
      ~detail:(if s.A.sel_group_by = [] then "" else "GROUP BY")
      ~rows_in:(List.length tuples) ~rows_out:!kept
      ~batches:(batches_of (List.length tuples))
      ~t0:agg_t0 ()

(* A derived row source (view or FROM subquery): one binding whose
   columns are untyped and binary-collated. *)
let derived_source ~alias columns rows =
  let columns =
    Array.of_list
      (List.map
         (fun cname ->
           (Eval.lower cname, Datatype.Any, Collation.Binary))
         columns)
  in
  {
    src_layout =
      [
        {
          Eval.b_alias = Eval.lower alias;
          b_columns = columns;
        };
      ];
    src_rows = Tuples (List.map (fun row -> [| row |]) rows);
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

(* VALUES result columns are column1 ... columnN; the name lists of up
   to 16 columns are built once. *)
let values_column i = "column" ^ string_of_int (i + 1)
let values_names = Array.init 17 (fun w -> List.init w values_column)

let values_columns width =
  if width < Array.length values_names then values_names.(width)
  else List.init width values_column

(* ------------------------------------------------------------------ *)
(* SELECT                                                              *)

(* One compiled-and-executed SELECT, its rows delivered to [sink] (a
   row sink: INTERSECT and EXCEPT probe their right operand with one) or
   collected.  One loop runs FROM and WHERE, and projects each tuple
   WHERE accepts and pushes it down the stages as soon as WHERE accepts
   it.  A WHERE error ends the SELECT at once.  The first projection or
   ORDER BY key error is held: projection stops, WHERE runs on over the
   remaining tuples, and the held error is the SELECT's only if WHERE
   raised none, so WHERE's errors still come first.  Under a sink and
   without LIMIT/OFFSET the SELECT is probed: its chain has no DISTINCT
   or ORDER BY stage, since neither changes which rows a set probe sees,
   and each row is projected into one reused buffer.  Every item and
   ORDER BY key is still evaluated in row order, and the DISTINCT and
   ORDER BY coverage points are still hit.  A probed SELECT stops once
   the sink is settled, if its WHERE, items and ORDER BY keys are all
   infallible: no row left could change the answer or raise.  An
   aggregate SELECT collects copies of the accepted tuples for
   [aggregate] and runs to the end. *)
let rec run_select ?sink ctx (s : A.select) : Executor.result_set =
  let where = s.A.sel_where in
  let put, collected = sink_or_collect sink in
  (* under a sink only the width is read: expression items go unnamed *)
  let named = Option.is_none sink in
  if s.A.sel_from = [] then begin
    (* constant SELECT: project once, keep the row if WHERE passes;
       DISTINCT/ORDER BY/LIMIT do not apply *)
    if List.exists (function A.Star -> true | _ -> false) s.A.sel_items then
      Eval.fail (no_tables_error ctx.Executor.dialect);
    let c = make_env ctx [] in
    let columns = Executor.output_columns ~named [] s.A.sel_items in
    let projs, _ = compile_items c s.A.sel_items in
    let row = project [||] projs in
    (match where with
    | Some w when not (Tvl.equal (Eval.compile_pred c w ()) Tvl.True) -> ()
    | _ -> put row);
    { Executor.rs_columns = columns; rs_rows = collected () }
  end
  else begin
    let base_table_count =
      let rec count = function
        | A.F_table _ -> 1
        | A.F_join { left; right; _ } -> count left + count right
        | A.F_sub _ -> 1
      in
      List.fold_left (fun acc it -> acc + count it) 0 s.A.sel_from
    in
    let fctx = { Executor.in_join = base_table_count > 1; select = s } in
    (* materialize each comma item in textual order (scans and their
       flight-recorder events keep that order under a forced join
       swap) *)
    let sources = List.map (materialize ctx fctx ~where) s.A.sel_from in
    let c =
      make_env ctx (List.concat_map (fun src -> src.src_layout) sources)
    in
    let scratch = !(c.Eval.cur) in
    let pred, where_infallible =
      match where with
      | None -> (None, true)
      | Some w ->
          let p, infallible = Eval.compile_pred_checked c w in
          (Some p, infallible)
    in
    (* the held error: an output-column error, or else the first
       projection error; WHERE's errors come before it *)
    let held = ref None in
    let hold e = held := Some e in
    (* output columns come from the FROM's layout, with or without
       tuples: [*] and [t.*] over an empty table name its columns *)
    let columns =
      Eval.catch (Executor.output_columns ~named c.Eval.layout) s.A.sel_items
        ~error:(fun e ->
          hold e;
          [])
    in
    let probe =
      Option.is_some sink && s.A.sel_limit = None && s.A.sel_offset = None
    in
    let chain = stages ctx c s ~probe put in
    (* the projection step: rows go on to stages that may keep them,
       except under a probe, whose sink only looks them up *)
    let buf = ref [||] in
    let project_row tuple projs =
      if probe then begin
        let w = proj_width tuple 0 projs in
        if Array.length !buf <> w then buf := Array.make w Value.Null;
        project_into !buf tuple projs
      end
      else project tuple projs
    in
    if Executor.select_has_agg s then begin
      let kept = ref [] in
      from_where ctx c pred sources ~accept:(fun () ->
          kept := Array.copy scratch :: !kept);
      Option.iter Eval.fail !held;
      let emit (gc : Eval.env) tuple projs keys =
        gc.Eval.cur := tuple;
        push_keyed chain (project_row tuple projs) [] keys
      in
      aggregate ctx c s (List.rev !kept) ~emit
    end
    else begin
      let projs, items_infallible = compile_items c s.A.sel_items in
      let keys, keys_infallible =
        List.fold_right
          (fun (e, _) (keys, ok) ->
            let k, infallible = Eval.compile_checked c e in
            (k :: keys, ok && infallible))
          s.A.sel_order_by ([], true)
      in
      let settled =
        match sink with
        | Some sink
          when probe && where_infallible && items_infallible && keys_infallible
          ->
            sink.settled
        | _ -> fun () -> false
      in
      let project_push () =
        push_keyed chain (project_row scratch projs) [] keys;
        if settled () then raise_notrace Settled
      in
      let accept () =
        if Option.is_none !held then Eval.catch project_push () ~error:hold
      in
      from_where ctx c pred sources ~accept;
      Option.iter Eval.fail !held
    end;
    if s.A.sel_distinct then cov_ctx ctx "exec.distinct";
    if s.A.sel_order_by <> [] then cov_ctx ctx "exec.order_by";
    if s.A.sel_offset <> None then cov_ctx ctx "exec.limit";
    if s.A.sel_limit <> None then cov_ctx ctx "exec.limit";
    chain.finish ();
    { Executor.rs_columns = columns; rs_rows = collected () }
  end

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

and run_query ?sink ctx (q : A.query) : Executor.result_set =
  (* corruption gates every read (paper: 'malformed database' is always an
     unexpected error) *)
  match Storage.Catalog.corruption ctx.Executor.catalog with
  | Some msg -> Eval.fail (Errors.make Errors.Malformed_database msg)
  | None -> (
      match q with
      | A.Q_select s -> run_select ?sink ctx s
      | A.Q_values rows ->
          cov_ctx ctx "exec.values";
          let width = match rows with r :: _ -> List.length r | [] -> 0 in
          List.iteri
            (fun i r ->
              if List.length r <> width then
                Eval.fail (ragged_values_error ctx.Executor.dialect ~row:(i + 1)))
            rows;
          (* a literal is its value (what its compiled closure returns);
             only other expressions need an env and a compile *)
          let c = lazy (make_env ctx []) in
          let put, collected = sink_or_collect sink in
          let row exprs =
            let row = Array.make width Value.Null in
            List.iteri
              (fun i -> function
                | A.Lit v -> row.(i) <- v
                | e -> row.(i) <- Eval.compile (Lazy.force c) e ())
              exprs;
            put row
          in
          List.iter row rows;
          { Executor.rs_columns = values_columns width; rs_rows = collected () }
      | A.Q_compound (op, qa, qb) -> run_compound ?sink ctx op qa qb)

(* UNION [ALL] concatenates its operands' rows.  INTERSECT and EXCEPT
   are one set probe: the left rows are hashed, and the right operand
   runs under a sink that marks each left key it meets, so its rows are
   never collected (and a probed SELECT skips its DISTINCT and ORDER
   BY).  The output is the deduplicated left rows, in left order, whose
   key was met (INTERSECT) or not (EXCEPT). *)
and run_compound ?sink ctx op qa qb =
  (match op with
  | A.Union | A.Union_all -> cov_ctx ctx "exec.compound_union"
  | A.Intersect -> cov_ctx ctx "exec.compound_intersect"
  | A.Except -> cov_ctx ctx "exec.compound_except");
  let ra = run_query ctx qa in
  let left = ra.Executor.rs_rows in
  let same_width (rb : Executor.result_set) =
    if List.compare_lengths ra.Executor.rs_columns rb.Executor.rs_columns <> 0
    then
      Eval.fail
        (Errors.make Errors.Syntax_error
           "SELECTs to the left and right of a compound operator do not \
            have the same number of result columns")
  in
  let finish ~t0 ~detail ~right_rows rows =
    if Executor.tracing ctx then begin
      let n_in = List.length left + right_rows in
      Executor.op_event ctx ~op:"COMPOUND" ~detail ~rows_in:n_in
        ~rows_out:(List.length rows) ~batches:(batches_of n_in) ~t0 ()
    end;
    let put, collected = sink_or_collect sink in
    List.iter put rows;
    { Executor.rs_columns = ra.Executor.rs_columns; rs_rows = collected () }
  in
  match op with
  | A.Union | A.Union_all ->
      let rb = run_query ctx qb in
      let t0 = Executor.op_clock ctx in
      same_width rb;
      let rows = left @ rb.Executor.rs_rows in
      let rows, detail =
        if op = A.Union then (Executor.dedup rows, "UNION")
        else (rows, "UNION ALL")
      in
      finish ~t0 ~detail ~right_rows:(List.length rb.Executor.rs_rows) rows
  | A.Intersect | A.Except ->
      let t0 = Executor.op_clock ctx in
      (* one mark per distinct left key, shared by its equal rows: a
         single left row (the containment check's VALUES) is compared,
         not hashed; more are hashed into a table sized to them, whose
         keys are the distinct left rows in first-occurrence order *)
      let want = op = A.Intersect in
      let mark_of, keys, marked =
        match left with
        | [ l ] ->
            let met = ref false in
            ( (fun r -> if Executor.Row_eq.equal l r then Some met else None),
              1,
              fun () -> if !met = want then left else [] )
        | _ ->
            let marks = Executor.Row_tbl.create (List.length left) in
            List.iter
              (fun r ->
                ignore (Executor.Row_tbl.find_or_add marks r (fun () -> ref false)))
              left;
            ( Executor.Row_tbl.find_opt marks,
              Executor.Row_tbl.length marks,
              fun () ->
                Executor.Row_tbl.fold
                  (fun r met acc -> if !met = want then r :: acc else acc)
                  marks [] )
      in
      (* once every left key is met the answer is settled: a probed
         SELECT that nothing left can fail stops there (see
         [run_select]), and otherwise later right rows still run, for
         their errors, but are not looked up *)
      let probed = ref 0 and unmet = ref keys in
      let put r =
        incr probed;
        if !unmet > 0 then
          match mark_of r with
          | Some met when not !met ->
              met := true;
              decr unmet
          | Some _ | None -> ()
      in
      let sink = { put; settled = (fun () -> !unmet = 0) } in
      let rb = run_query ~sink ctx qb in
      same_width rb;
      finish ~t0
        ~detail:(if want then "INTERSECT (probe)" else "EXCEPT (probe)")
        ~right_rows:!probed (marked ())

(* One FROM item, materialized: scan-site bug behaviour and access paths
   come from Executor.scan_rows; a join's sides are materialized, and
   their tuples produced, in textual order. *)
and materialize ctx fctx ~where (item : A.from_item) : source =
  match item with
  | A.F_table { name; alias } -> (
      let alias_name = Option.value ~default:name alias in
      match Storage.Catalog.find_table ctx.Executor.catalog name with
      | Some ts ->
          let tuples =
            Executor.scan_rows ctx fctx ~where ~table:name ~alias:alias_name ts
          in
          {
            src_layout =
              [
                Eval.binding_of_table ts.Storage.Catalog.schema
                  ~alias:alias_name;
              ];
            src_rows = Tuples tuples;
          }
      | None -> (
          match Storage.Catalog.find_view ctx.Executor.catalog name with
          | Some v ->
              cov_ctx ctx "exec.view_expand";
              let view_t0 = Executor.op_clock ctx in
              let rs = run_query ctx v.Storage.Catalog.view_query in
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
              derived_source ~alias:alias_name rs.Executor.rs_columns rows
          | None ->
              Eval.failf Errors.No_such_table "no such table: %s" name))
  | A.F_sub { sub; alias } ->
      (* derived table: materialize the subquery *)
      cov_ctx ctx "exec.subquery";
      let sub_t0 = Executor.op_clock ctx in
      let rs = run_query ctx sub in
      (if Executor.tracing ctx then
         let n = List.length rs.Executor.rs_rows in
         Executor.op_event ctx ~op:"SUBQUERY" ~detail:alias ~rows_in:n
           ~rows_out:n ~batches:(batches_of n) ~t0:sub_t0 ());
      derived_source ~alias rs.Executor.rs_columns rs.Executor.rs_rows
  | A.F_join { kind; left; right; on } ->
      (match kind with
      | A.Inner -> cov_ctx ctx "exec.join_inner"
      | A.Left -> cov_ctx ctx "exec.join_left"
      | A.Cross -> cov_ctx ctx "exec.join_cross");
      let side item =
        let src = materialize ctx fctx ~where:None item in
        (src.src_layout, tuples_of ctx src)
      in
      let l = side left in
      let r = side right in
      join_source ctx ~kind ~on ~right_item:right l r

(* A nested-loop join over two materialized sides, whose pairs a loop
   produces later ([nested_loop]).  The outer loop runs over the left
   side, or over the right under the forced join swap (LEFT joins are
   never swapped: their NULL extension is asymmetric); bindings
   concatenate in textual order either way.  The ON predicate is
   compiled once against the two sides' bindings.  An ON that
   [Eval.compile_pred_checked] marks infallible runs per pair in the
   loop, so a probe that settles stops the join too: it cannot raise,
   so no error moves.  A fallible ON runs here, over every pair in
   outer-major order, before anything later in the statement, so its
   first error is the statement's as if the pairs were collected
   first; the loop then walks each outer tuple's matches. *)
and join_source ctx ~kind ~on ~right_item (ll, lt) (rl, rt) : source =
  let t0 = Executor.op_clock ctx in
  let nl = List.length ll in
  let full_layout = ll @ rl in
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
    match rt with
    | sample :: _ ->
        ( full_layout,
          Array.map (Array.map (fun (_ : Value.t) -> Value.Null)) sample )
    | [] ->
        let shape = null_shape right_item in
        ( ll @ shape,
          Array.of_list
            (List.map
               (fun b -> Array.map (fun _ -> Value.Null) b.Eval.b_columns)
               shape) )
  in
  let swap =
    Executor.swap_join_forced ctx
    && match kind with A.Inner | A.Cross -> true | A.Left -> false
  in
  let (outer, outer_off), (inner, inner_off) =
    if swap then ((rt, nl), (lt, 0)) else ((lt, 0), (rt, nl))
  in
  let on_env = { (Executor.eval_env ctx) with Eval.layout = full_layout } in
  let every p =
    let cands = List.rev inner in
    (p, List.map (fun o -> (o, cands)) outer)
  in
  let j_on, j_outer =
    match (kind, on) with
    | A.Cross, _ | _, None -> every None
    | _, Some cond ->
        let p, infallible = Eval.compile_pred_checked on_env cond in
        if infallible then every (Some p)
        else begin
          let scratch = Array.make (List.length full_layout) [||] in
          on_env.Eval.cur := scratch;
          let matches o =
            Array.blit o 0 scratch outer_off (Array.length o);
            List.fold_left
              (fun ms i ->
                Array.blit i 0 scratch inner_off (Array.length i);
                match p () with
                | Tvl.True -> i :: ms
                | Tvl.False | Tvl.Unknown -> ms)
              [] inner
          in
          (None, List.map (fun o -> (o, matches o)) outer)
        end
  in
  let detail =
    (match kind with A.Inner -> "INNER" | A.Left -> "LEFT" | A.Cross -> "CROSS")
    ^ if swap then " (forced swap)" else ""
  in
  {
    src_layout = out_layout;
    src_rows =
      Join
        {
          j_outer;
          j_outer_off = outer_off;
          j_inner_off = inner_off;
          j_on;
          j_cur = on_env.Eval.cur;
          j_ext = (if kind = A.Left then Some ext else None);
          j_detail = detail;
          j_rows_in = List.length lt + List.length rt;
          j_t0 = t0;
          j_pairs = 0;
        };
  }

(* Sinks stay internal: only the compound operators probe. *)
let query ctx q = run_query ctx q
let run_query ctx q = Eval.run (fun () -> run_query ctx q)
