open Sqlval
module A = Sqlast.Ast

type verdict = Consistent | Inconsistent of string | Skipped

(* a pure value, mergeable across runs/workers like [Stats.t]:
   [merge_stats] is associative with [empty_stats] as identity *)
type stats = {
  checks : int;
  skipped : int;
  findings : (string * A.stmt list) list;
}

let empty_stats = { checks = 0; skipped = 0; findings = [] }

let merge_stats a b =
  {
    checks = a.checks + b.checks;
    skipped = a.skipped + b.skipped;
    findings = a.findings @ b.findings;
  }

(* SELECT count-star, COUNT(c), MIN(c), MAX(c) FROM t [WHERE w] *)
let agg_query (ti : Schema_info.table_info) (c : Schema_info.column_info)
    where : A.query =
  let col = A.col c.Schema_info.ci_name in
  A.Q_select
    {
      A.sel_distinct = false;
      sel_items =
        [
          A.Sel_expr (A.Agg (A.A_count_star, None), None);
          A.Sel_expr (A.Agg (A.A_count, Some col), None);
          A.Sel_expr (A.Agg (A.A_min, Some col), None);
          A.Sel_expr (A.Agg (A.A_max, Some col), None);
        ];
      sel_from = [ A.F_table { name = ti.Schema_info.ti_name; alias = None } ];
      sel_where = where;
      sel_group_by = [];
      sel_having = None;
      sel_order_by = [];
      sel_limit = None;
      sel_offset = None;
    }

type agg_row = {
  count_star : int64;
  count_col : int64;
  min_col : Value.t;
  max_col : Value.t;
}

let read_aggs session q : agg_row option =
  match Engine.Session.query session q with
  | Ok rs -> (
      match rs.Engine.Executor.rs_rows with
      | [ [| Value.Int cs; Value.Int cc; mn; mx |] ] ->
          Some { count_star = cs; count_col = cc; min_col = mn; max_col = mx }
      | _ -> None)
  | Error _ -> None
  | exception Engine.Errors.Crash _ -> None

let check session ~rng ~(table : Schema_info.table_info) : verdict =
  match table.Schema_info.ti_columns with
  | [] -> Skipped
  | cols -> (
      let c = Rng.pick rng cols in
      let dialect = Engine.Session.dialect session in
      let pool =
        Schema_info.rows_of_table session table.Schema_info.ti_name
        |> List.concat_map Array.to_list
        |> List.filter (fun v -> not (Value.is_null v))
      in
      let p =
        Gen_expr.condition
          {
            Gen_expr.rng;
            max_depth = 3;
            scope = Gen_expr.scope ~pool dialect [ table ];
          }
      in
      let whole = read_aggs session (agg_query table c None) in
      let part w = read_aggs session (agg_query table c (Some w)) in
      let p_true = part p in
      let p_false = part (A.Unary (A.Not, p)) in
      let p_null = part (A.Is { negated = false; arg = p; rhs = A.Is_null }) in
      match (whole, p_true, p_false, p_null) with
      | Some w, Some t, Some f, Some n ->
          let sum3 g = Int64.add (g t) (Int64.add (g f) (g n)) in
          let pieces = [ t; f; n ] in
          let fold_parts keep field =
            List.fold_left
              (fun acc part ->
                let v = field part in
                if Value.is_null v then acc
                else
                  match acc with
                  | None -> Some v
                  | Some best ->
                      if keep (Value.compare_total v best) then Some v
                      else Some best)
              None pieces
          in
          let cond_text = Sqlast.Sql_printer.expr dialect p in
          if sum3 (fun g -> g.count_star) <> w.count_star then
            Inconsistent
              (Printf.sprintf
                 "COUNT() partition sum %Ld <> whole-table %Ld for %s"
                 (sum3 (fun g -> g.count_star))
                 w.count_star cond_text)
          else if sum3 (fun g -> g.count_col) <> w.count_col then
            Inconsistent
              (Printf.sprintf "COUNT(%s) partitions disagree for %s"
                 c.Schema_info.ci_name cond_text)
          else if
            (not (Value.is_null w.min_col))
            && fold_parts (fun cmp -> cmp < 0) (fun g -> g.min_col)
               <> Some w.min_col
          then
            Inconsistent
              (Printf.sprintf "MIN(%s) partitions disagree for %s"
                 c.Schema_info.ci_name cond_text)
          else if
            (not (Value.is_null w.max_col))
            && fold_parts (fun cmp -> cmp > 0) (fun g -> g.max_col)
               <> Some w.max_col
          then
            Inconsistent
              (Printf.sprintf "MAX(%s) partitions disagree for %s"
                 c.Schema_info.ci_name cond_text)
          else Consistent
      | _ -> Skipped)

let run ?(seed = 1) ?(bugs = Engine.Bug.empty_set) ~max_checks dialect =
  let stats = ref empty_stats in
  let round = ref 0 in
  while !stats.checks < max_checks && !round < max 50 max_checks do
    incr round;
    let db_seed = seed + (!round * 5413) in
    let rng = Rng.make ~seed:db_seed in
    let session = Engine.Session.create ~seed:db_seed ~bugs dialect in
    let cfg = Gen_db.Config.(make dialect |> with_rng rng) in
    let log = ref [] in
    let exec stmt =
      log := stmt :: !log;
      match Engine.Session.execute session stmt with
      | Ok _ | Error _ -> ()
      | exception Engine.Errors.Crash _ -> ()
    in
    List.iter exec (Gen_db.initial_statements cfg);
    List.iter exec (Gen_db.fill_statements cfg session);
    for _ = 1 to 6 do
      List.iter exec (Gen_db.random_statements cfg session)
    done;
    let tables = Schema_info.tables_of_session session in
    List.iter
      (fun table ->
        if !stats.checks < max_checks then
          let one =
            match check session ~rng ~table with
            | Consistent -> { empty_stats with checks = 1 }
            | Skipped -> { empty_stats with checks = 1; skipped = 1 }
            | Inconsistent msg ->
                { checks = 1; skipped = 0; findings = [ (msg, List.rev !log) ] }
          in
          stats := merge_stats !stats one)
      tables
  done;
  !stats
