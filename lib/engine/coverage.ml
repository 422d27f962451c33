type t = {
  counts : (string, int) Hashtbl.t;
  mutable extra : int; (* points hit but not statically declared *)
}

(* The static universe enumerates the engine's feature points.  Dialect-
   specific points are prefixed so that a run against one dialect cannot
   reach another dialect's points, mirroring the per-DBMS coverage gap the
   paper reports (user management, replication etc. that SQLancer does not
   touch are modeled by the maintenance/option/admin groups below). *)
let static_universe =
  let binops =
    [ "eq"; "neq"; "lt"; "le"; "gt"; "ge"; "nullsafe_eq"; "and"; "or"; "add";
      "sub"; "mul"; "div"; "rem"; "concat"; "bit_and"; "bit_or"; "shl"; "shr" ]
  in
  let unops = [ "not"; "neg"; "pos"; "bit_not" ] in
  let funcs =
    [ "abs"; "length"; "lower"; "upper"; "coalesce"; "ifnull"; "nullif";
      "typeof"; "trim"; "ltrim"; "rtrim"; "substr"; "replace"; "instr";
      "hex"; "round"; "sign"; "least"; "greatest"; "quote" ]
  in
  let preds = [ "is"; "between"; "in"; "like"; "glob"; "case"; "cast"; "collate" ] in
  let aggs = [ "count"; "count_star"; "sum"; "avg"; "min"; "max"; "total" ] in
  let planner =
    [ "full_scan"; "index_eq"; "index_range"; "index_like_prefix";
      "partial_index"; "skip_scan"; "desc_index"; "or_union" ]
  in
  let exec =
    [ "distinct"; "order_by"; "limit"; "group_by"; "having"; "join_inner";
      "join_left"; "join_cross"; "view_expand"; "compound_union";
      "compound_intersect"; "compound_except"; "values"; "subquery" ]
  in
  let ddl =
    [ "create_table"; "drop_table"; "create_index"; "drop_index";
      "create_view"; "drop_view"; "alter_rename_table"; "alter_rename_column";
      "alter_add_column"; "alter_drop_column"; "without_rowid"; "inherits";
      "engine_memory"; "engine_csv"; "engine_myisam"; "unique_index";
      "partial_index_def"; "expr_index"; "collate_index"; "serial" ]
  in
  let dml =
    [ "insert"; "insert_ignore"; "insert_replace"; "update"; "update_ignore";
      "update_replace"; "delete"; "default_value"; "not_null_check";
      "unique_check"; "check_constraint" ]
  in
  let maintenance =
    [ "vacuum"; "vacuum_full"; "reindex"; "analyze"; "check_table";
      "repair_table"; "create_statistics"; "discard"; "pragma"; "set_option";
      "begin"; "commit"; "rollback" ]
  in
  (* Features the tool never exercises, charged to the denominator the way
     untested DBMS subsystems depress the paper's coverage numbers. *)
  let untested =
    [ "admin.user_management"; "admin.replication"; "admin.backup";
      "admin.console"; "admin.prepared_statements"; "admin.savepoints";
      "admin.triggers"; "admin.foreign_keys_enforce"; "admin.window_functions";
      "admin.cte"; "admin.subquery_correlated"; "admin.json"; "admin.arrays";
      "admin.fulltext"; "admin.partitioning"; "admin.charsets";
      "admin.timezones"; "admin.explain"; "admin.locking"; "admin.vacuum_auto" ]
  in
  let group prefix names = List.map (fun n -> prefix ^ "." ^ n) names in
  group "binop" binops @ group "unop" unops @ group "func" funcs
  @ group "pred" preds @ group "agg" aggs @ group "plan" planner
  @ group "exec" exec @ group "ddl" ddl @ group "dml" dml
  @ group "maint" maintenance @ untested

let create () =
  let counts = Hashtbl.create 256 in
  List.iter (fun p -> Hashtbl.replace counts p 0) static_universe;
  { counts; extra = 0 }

let hit t point =
  match Hashtbl.find_opt t.counts point with
  | Some n -> Hashtbl.replace t.counts point (n + 1)
  | None ->
      Hashtbl.replace t.counts point 1;
      t.extra <- t.extra + 1

let hit_count t point = Option.value ~default:0 (Hashtbl.find_opt t.counts point)

let points_hit t =
  Hashtbl.fold (fun _ n acc -> if n > 0 then acc + 1 else acc) t.counts 0

let universe_size t = Hashtbl.length t.counts

let fraction t =
  if universe_size t = 0 then 0.0
  else float_of_int (points_hit t) /. float_of_int (universe_size t)

let merge_into ~dst ~src =
  Hashtbl.iter
    (fun p n ->
      match Hashtbl.find_opt dst.counts p with
      | Some m -> Hashtbl.replace dst.counts p (m + n)
      | None ->
          (* a point [src] saw that [dst] never did is necessarily outside
             the static universe (create pre-seeds every static point), so
             it must count as an extra — silently adding it without the
             bump made [universe_size]/[fraction] disagree between a
             directly-hit instrument and a merged one *)
          Hashtbl.replace dst.counts p n;
          dst.extra <- dst.extra + 1)
    src.counts

let points t =
  Hashtbl.fold (fun p n acc -> (p, n) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let union a b =
  let t = create () in
  merge_into ~dst:t ~src:a;
  merge_into ~dst:t ~src:b;
  t
