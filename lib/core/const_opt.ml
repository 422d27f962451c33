(* The constant-optimization (CODDTest-style) oracle.

   PQS already knows a ground-truth satisfying assignment for every
   positive containment check: the pivot row.  This oracle folds that
   assignment into the query as constants — every column reference the
   simplifier can prove constant becomes a literal, constant subtrees are
   folded through the engine evaluator, and tautological conjuncts / dead
   CASE branches are pruned ({!Analysis.Simplify}) — and re-executes the
   containment query with the simplified WHERE clause.

   The simplified predicate agrees with the original on the pivot row by
   the simplifier's soundness contract, and a positive check's pivot row
   satisfies the original (rectified-to-TRUE) predicate, so on a correct
   engine the simplified containment query must still contain the pivot
   row.  An empty result is a bug by construction: the engine evaluated
   the constant-laden variant differently from the column-laden one —
   precisely the defect class of a broken constant folder (NULL
   propagation through AND/NOT, affinity decisions re-derived from
   literal storage classes, ...).

   Eligibility mirrors the soundness argument: positive checks only, the
   pivot row must have been found, and the inner select must have no
   aggregation / GROUP BY / HAVING / LIMIT / OFFSET — under those the
   result rows are not a per-row function of the predicate, so weakening
   or strengthening it away from the pivot row legitimately changes the
   output.

   Campaign neutrality mirrors plan-diff: the re-execution goes
   through {!Engine.Session.query_forced} (no statement counting, no
   coverage hits, no randomness) and the oracle is appended after
   [Oracle.defaults], so the paper's oracles keep report priority. *)

open Sqlval
module A = Sqlast.Ast
module Simplify = Analysis.Simplify
module Const_fold = Analysis.Const_fold

(* ------------------------------------------------------------------ *)
(* Pivot bindings                                                      *)

let bindings_of_pivot (pivot : (Schema_info.table_info * Value.t array) list)
    : Const_fold.binding list =
  List.concat_map
    (fun ((ti : Schema_info.table_info), row) ->
      List.mapi
        (fun i (ci : Schema_info.column_info) ->
          {
            Const_fold.b_table = ti.Schema_info.ti_name;
            b_column = ci.Schema_info.ci_name;
            b_value =
              (if i < Array.length row then row.(i) else Value.Null);
            b_type = ci.Schema_info.ci_type;
            b_collation = ci.Schema_info.ci_collation;
          })
        ti.Schema_info.ti_columns)
    pivot

(* ------------------------------------------------------------------ *)
(* Eligibility and the simplified variant                              *)

(* Derived tables drop column metadata: the executor materializes an
   [F_sub] with untyped, binary-collated output columns, while the pivot
   bindings carry the declared base-table type and collation.  Folding
   with the declared metadata would disagree with the engine on e.g.
   affinity conversions, so such checks are ineligible.  Plain table
   references (and joins of them) resolve to the same metadata the
   bindings carry — views included, since their pivot pseudo-info is
   already untyped and binary-collated, matching the expansion. *)
let rec metadata_transparent = function
  | A.F_table _ -> true
  | A.F_join { left; right; _ } ->
      metadata_transparent left && metadata_transparent right
  | A.F_sub _ -> false

let select_eligible (s : A.select) =
  List.for_all metadata_transparent s.A.sel_from
  && s.A.sel_group_by = []
  && s.A.sel_having = None
  && s.A.sel_limit = None
  && s.A.sel_offset = None
  && not
       (List.exists
          (function
            | A.Sel_expr (e, _) -> A.has_agg e
            | A.Star | A.Table_star _ -> false)
          s.A.sel_items)

(* The simplified containment query, with the simplifier's provenance.
   [None] when the check is ineligible or no rewrite applied (running an
   identical query carries no signal). *)
let simplified_stmt session
    ~(pivot : (Schema_info.table_info * Value.t array) list) (q : A.query) :
    (A.query * Simplify.result) option =
  match q with
  | A.Q_compound (A.Intersect, (A.Q_values _ as values), A.Q_select sel)
    when pivot <> [] && select_eligible sel -> (
      match sel.A.sel_where with
      | None -> None
      | Some w ->
          let env =
            Const_fold.env
              ~case_sensitive_like:
                (Engine.Options.case_sensitive_like
                   (Engine.Session.options session))
              (Engine.Session.dialect session)
              (bindings_of_pivot pivot)
          in
          let r = Simplify.simplify env w in
          if A.equal_expr r.Simplify.res_expr w then None
          else
            Some
              ( A.Q_compound
                  ( A.Intersect,
                    values,
                    A.Q_select { sel with A.sel_where = Some r.Simplify.res_expr }
                  ),
                r ))
  | _ -> None

let trail_string (r : Simplify.result) =
  String.concat "; "
    (List.map
       (fun (rw : Simplify.rewrite) ->
         Printf.sprintf "%s@%s: %s => %s" rw.Simplify.rw_rule
           rw.Simplify.rw_loc rw.Simplify.rw_before rw.Simplify.rw_after)
       r.Simplify.res_trail)

let message session (q' : A.query) (r : Simplify.result) =
  Printf.sprintf
    "constant-optimization divergence: the containment query contained \
     the pivot row, but after folding the pivot values in as constants \
     the simplified query `%s` returned no rows; rewrites applied: %s"
    (Sqlast.Sql_printer.query (Engine.Session.dialect session) q')
    (trail_string r)

(* run the simplified variant outside the campaign's accounting *)
let run_quiet session q =
  try
    match
      Engine.Session.query_forced session ~force:Engine.Executor.no_force q
    with
    | Ok rs -> Some rs
    | Error _ -> None
  with Engine.Errors.Crash _ -> None

(* Does the check diverge on this session?  Used by the sweep and the
   reducer recheck; the oracle proper skips the first execution because
   the runner already knows the pivot row was found. *)
let reproduce session ~pivot (q : A.query) : bool =
  match simplified_stmt session ~pivot q with
  | None -> false
  | Some (q', _) -> (
      match (run_quiet session q, run_quiet session q') with
      | Some orig, Some simp ->
          orig.Engine.Executor.rs_rows <> []
          && simp.Engine.Executor.rs_rows = []
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)

(* Deterministic stateless sampling: re-executing every eligible check
   roughly doubles containment-query cost (measured ~56% campaign
   overhead), far past the 15% budget shared with the plan-diff oracle.
   Like plan-diff's [max_plans] fan-out cap, a sampling stride is the
   throughput/coverage knob: only every [sample_every]-th check (chosen
   by a structural hash of the check's query, so the choice is a pure
   function of the check — parallel campaign merges stay bit-identical
   to sequential runs) pays the simplify + re-execute cost.  The pivot
   values sit in the VALUES arm near the root, so repeated probe shapes
   still vary across seeds; the raised node limits make the hash see
   past them into the WHERE clause. *)
let sampled ~sample_every (q : A.query) =
  sample_every <= 1 || Hashtbl.hash_param 64 128 q mod sample_every = 0

let oracle ?(sample_every = 8) () : Oracle.t =
  Oracle.make ~name:"const_opt" (fun ctx event ->
      match event with
      | Oracle.Containment_check
          {
            Oracle.check_stmt = A.Select_stmt q;
            negative = false;
            pivot_found = true;
            check_pivot;
          }
        when sampled ~sample_every q ->
          Telemetry.Span.timed ctx.Oracle.ctx_telemetry
            Telemetry.Phase.Const_opt (fun () ->
              match
                simplified_stmt ctx.Oracle.ctx_session ~pivot:check_pivot q
              with
              | None -> Oracle.Pass
              | Some (q', r) -> (
                  Telemetry.inc ctx.Oracle.ctx_telemetry
                    "pqs_const_checks_total";
                  match run_quiet ctx.Oracle.ctx_session q' with
                  | Some rs when rs.Engine.Executor.rs_rows = [] ->
                      Telemetry.inc ctx.Oracle.ctx_telemetry
                        "pqs_const_divergences_total";
                      Oracle.Report
                        {
                          kind = Bug_report.Const_opt;
                          message = message ctx.Oracle.ctx_session q' r;
                        }
                  | _ -> Oracle.Pass))
      | Oracle.Containment_check _ | Oracle.Statement _ | Oracle.Database_ready
        ->
          Oracle.Pass)

(* ------------------------------------------------------------------ *)
(* Seed-corpus sweep (make constopt / sqlancer const-opt / tests)      *)

type sweep_result = {
  co_seeds : int;
  co_queries : int;  (** positive containment checks attempted *)
  co_checks : int;  (** checks where a rewrite applied and re-ran *)
  co_rewrites : int;  (** total rewrites across all checks *)
  co_divergences : (int * string) list;
      (** every constant-optimization divergence, tagged with its seed *)
}

(* one containment probe: [VALUES (pivot) INTERSECT SELECT * FROM t WHERE w] *)
let containment_probe (ti : Schema_info.table_info) (row : Value.t array)
    (where : A.expr) : A.query =
  A.Q_compound
    ( A.Intersect,
      A.Q_values [ List.map (fun v -> A.Lit v) (Array.to_list row) ],
      A.Q_select
        {
          A.sel_distinct = false;
          sel_items = [ A.Star ];
          sel_from = [ A.F_table { name = ti.Schema_info.ti_name; alias = None } ];
          sel_where = Some where;
          sel_group_by = [];
          sel_having = None;
          sel_order_by = [];
          sel_limit = None;
          sel_offset = None;
        } )

(* Directed probes per pivot source: WHERE shapes whose simplified form
   leaves exactly the operand patterns a broken constant folder
   mishandles — a NULL literal under AND (NULL-propagation folds), a
   mixed-storage-class literal comparison (affinity re-derivation), and a
   NULL literal under NOT inside IS NULL (NOT-NULL folds).  Random
   synthesis reaches these residues too rarely for a bounded sweep. *)
let directed_probes (ti : Schema_info.table_info) (row : Value.t array) :
    A.expr list =
  match ti.Schema_info.ti_columns with
  | [] -> []
  | (c0 : Schema_info.column_info) :: _ ->
      let col0 = A.col c0.Schema_info.ci_name in
      let eq_null = A.Binary (A.Eq, col0, A.Lit Value.Null) in
      let false_cmp =
        A.Binary (A.Eq, A.Lit (Value.Int 1L), A.Lit (Value.Int 2L))
      in
      (* A: NOT ((c0 = NULL) AND (1 = 2)) — simplifies to
         NOT (NULL AND (1 = 2)); correct engines fold to TRUE *)
      let probe_a = A.Unary (A.Not, A.Binary (A.And, eq_null, false_cmp)) in
      (* C: (NOT (c0 = NULL)) IS NULL — simplifies to
         (NOT NULL) IS NULL; correct engines fold to TRUE *)
      let probe_c =
        A.Is
          { negated = false; arg = A.Unary (A.Not, eq_null); rhs = A.Is_null }
      in
      (* B: c > 5 on a text-valued column — substitution leaves a
         text-vs-integer literal comparison (sqlite orders every text
         after every number, so the pivot row satisfies it) *)
      let probe_b =
        List.mapi (fun i c -> (i, c)) ti.Schema_info.ti_columns
        |> List.find_map (fun (i, (c : Schema_info.column_info)) ->
               if i < Array.length row then
                 match row.(i) with
                 | Value.Text _ ->
                     Some
                       (A.Binary
                          ( A.Gt,
                            A.col c.Schema_info.ci_name,
                            A.Lit (Value.Int 5L) ))
                 | _ -> None
               else None)
      in
      (probe_a :: probe_c :: Option.to_list probe_b)

let sweep ?(bugs = Engine.Bug.empty_set) ~seed_lo ~seed_hi dialect :
    sweep_result =
  let queries = ref 0 in
  let checks = ref 0 and rewrites = ref 0 in
  let divergences = ref [] in
  for seed = seed_lo to seed_hi do
    let db = Corpus.build ~bugs ~seed dialect in
    let session = db.Corpus.session in
    let sources = Corpus.sources session in
    (* the one check both the sweep paths share *)
    let consider ~pivot q =
      incr queries;
      match simplified_stmt session ~pivot q with
      | None -> ()
      | Some (q', r) -> (
          match (run_quiet session q, run_quiet session q') with
          | Some orig, Some simp when orig.Engine.Executor.rs_rows <> [] ->
              incr checks;
              rewrites := !rewrites + List.length r.Simplify.res_trail;
              if simp.Engine.Executor.rs_rows = [] then
                divergences :=
                  (seed, message session q' r) :: !divergences
          | _ -> ())
    in
    for _ = 1 to Corpus.queries_per_seed do
      match Corpus.query db sources with
      | Some (pivot, t) -> (
          match Gen_query.containment_stmt t with
          | A.Select_stmt q -> consider ~pivot q
          | _ -> ())
      | None -> ()
    done;
    (* directed probes, one pivot row per source table *)
    List.iter
      (fun ((ti : Schema_info.table_info), rows) ->
        let row = Rng.pick db.Corpus.rng rows in
        List.iter
          (fun where ->
            consider ~pivot:[ (ti, row) ] (containment_probe ti row where))
          (directed_probes ti row))
      sources
  done;
  {
    co_seeds = max 0 (seed_hi - seed_lo + 1);
    co_queries = !queries;
    co_checks = !checks;
    co_rewrites = !rewrites;
    co_divergences = List.rev !divergences;
  }

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)

(* The reducer recheck replays the script, then re-derives the verdict by
   trying every candidate pivot assignment of the final containment
   query's FROM tables and views, the pivot sources a round draws from
   (the bundle does not record which row was the pivot): reproduced iff
   some assignment makes the original query nonempty and its simplified
   variant empty. *)
let () =
  let rec from_tables = function
    | A.F_table { name; _ } -> [ name ]
    | A.F_join { left; right; _ } -> from_tables left @ from_tables right
    | A.F_sub _ -> []
  in
  let recheck ~dialect ~bugs ~oracle:_ stmts =
    let session = Oracle.Registry.replay ~dialect ~bugs stmts in
    match List.rev stmts with
    | A.Select_stmt
        (A.Q_compound (A.Intersect, A.Q_values _, A.Q_select sel) as q)
      :: _ ->
        let names =
          List.concat_map from_tables sel.A.sel_from
          |> List.map String.lowercase_ascii
        in
        let sources =
          List.map
            (fun (ti : Schema_info.table_info) ->
              (ti, Schema_info.rows_of_table session ti.Schema_info.ti_name))
            (Schema_info.tables_of_session session)
          @ Schema_info.view_pivot_sources session
          |> List.filter (fun ((ti : Schema_info.table_info), _) ->
                 List.mem
                   (String.lowercase_ascii ti.Schema_info.ti_name)
                   names)
        in
        let candidates =
          List.fold_left
            (fun acc (ti, rows) ->
              List.concat_map
                (fun pivot -> List.map (fun r -> (ti, r) :: pivot) rows)
                acc)
            [ [] ] sources
          |> List.map List.rev
        in
        List.exists
          (fun pivot -> reproduce session ~pivot q)
          (List.filteri (fun i _ -> i < 64) candidates)
    | _ -> false
  in
  Oracle.Registry.register
    {
      Oracle.Registry.reg_name = "const_opt";
      reg_doc =
        "add the constant-optimization (CODDTest) oracle: fold the pivot \
         row's values into each positive containment query as constants, \
         simplify, and require the pivot row to survive";
      reg_flag = Some "const-opt";
      reg_default = false;
      reg_kinds = [ Bug_report.Const_opt ];
      reg_make = (fun () -> oracle ());
      reg_recheck = Oracle.Registry.Custom recheck;
    }
