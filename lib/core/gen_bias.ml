open Sqlval
module A = Sqlast.Ast

type shape = {
  sh_tables : int;
  sh_join : [ `Single | `Cross | `Inner | `Left ];
  sh_sub : bool;
  sh_where : int;
  sh_distinct : bool;
  sh_order : bool;
  sh_group : bool;
  sh_pred : string option;
}

(* ------------------------------------------------------------------ *)
(* Shape points                                                         *)

let join_token = function
  | `Single -> "single"
  | `Cross -> "cross"
  | `Inner -> "inner"
  | `Left -> "left"

let join_of_token = function
  | "single" -> Some `Single
  | "cross" -> Some `Cross
  | "inner" -> Some `Inner
  | "left" -> Some `Left
  | _ -> None

let b01 b = if b then 1 else 0

(* The vocabulary: every [shape.*] and [expr.*] point a query can
   fingerprint to has a number, and its string is built once, here.
   Shapes are numbered by their fields (join, derived table, WHERE arity
   1–3, DISTINCT, ORDER BY, GROUP BY); expression kinds follow them. *)
let joins = [| `Single; `Cross; `Inner; `Left |]
let shape_count = Array.length joins * 2 * 3 * 2 * 2 * 2

let shape_index s =
  let j = match s.sh_join with `Single -> 0 | `Cross -> 1 | `Inner -> 2 | `Left -> 3 in
  let i = (j * 2) + b01 s.sh_sub in
  let i = (i * 3) + max 1 (min 3 s.sh_where) - 1 in
  let i = (i * 2) + b01 s.sh_distinct in
  let i = (i * 2) + b01 s.sh_order in
  (i * 2) + b01 s.sh_group

(* [shape_index] inverted: 48 shapes per join, 24 per derived-table flag,
   8 per WHERE arity, then DISTINCT, ORDER BY, GROUP BY *)
let shape_names =
  Array.init shape_count (fun i ->
      Printf.sprintf "shape.j%s.v%d.w%d.d%d.o%d.g%d"
        (join_token joins.(i / 48))
        (i / 24 mod 2)
        ((i / 8 mod 3) + 1)
        (i / 4 mod 2) (i / 2 mod 2) (i mod 2))

let point_of_shape s = shape_names.(shape_index s)

let field prefix s =
  let n = String.length prefix in
  if String.length s > n && String.sub s 0 n = prefix then
    Some (String.sub s n (String.length s - n))
  else None

let flag prefix s =
  match field prefix s with
  | Some "0" -> Some false
  | Some "1" -> Some true
  | _ -> None

let shape_of_point p =
  match String.split_on_char '.' p with
  | [ "shape"; j; v; w; d; o; g ] -> (
      match
        ( Option.bind (field "j" j) join_of_token,
          flag "v" v,
          field "w" w,
          flag "d" d,
          flag "o" o,
          flag "g" g )
      with
      | Some join, Some sub, Some w, Some d, Some o, Some g
        when w = "1" || w = "2" || w = "3" ->
          Some
            {
              sh_tables = (match join with `Single -> 1 | _ -> 2);
              sh_join = join;
              sh_sub = sub;
              sh_where = int_of_string w;
              sh_distinct = d;
              sh_order = o;
              sh_group = g;
              sh_pred = None;
            }
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fingerprinting                                                       *)

(* The expression kinds, numbered by their place here. *)
let kind_tokens =
  [| "not"; "unary"; "cmp"; "nullsafe_eq"; "logic"; "arith"; "concat";
     "bitop"; "is_null"; "is_bool"; "is_expr"; "is_distinct"; "between";
     "in"; "like"; "glob"; "cast"; "func"; "agg"; "case"; "collate" |]

(* A node's kind number; -1 for the nodes without a point. *)
let kind_of_node = function
  | A.Lit _ | A.Col _ -> -1
  | A.Unary (A.Not, _) -> 0
  | A.Unary ((A.Neg | A.Pos | A.Bit_not), _) -> 1
  | A.Binary (op, _, _) -> (
      match op with
      | A.Eq | A.Neq | A.Lt | A.Le | A.Gt | A.Ge -> 2
      | A.Null_safe_eq -> 3
      | A.And | A.Or -> 4
      | A.Add | A.Sub | A.Mul | A.Div | A.Rem -> 5
      | A.Concat -> 6
      | A.Bit_and | A.Bit_or | A.Shift_left | A.Shift_right -> 7)
  | A.Is { rhs = A.Is_null; _ } -> 8
  | A.Is { rhs = A.Is_true | A.Is_false; _ } -> 9
  | A.Is { rhs = A.Is_expr _; _ } -> 10
  | A.Is { rhs = A.Is_distinct_from _; _ } -> 11
  | A.Between _ -> 12
  | A.In_list _ -> 13
  | A.Like _ -> 14
  | A.Glob _ -> 15
  | A.Cast _ -> 16
  | A.Func _ -> 17
  | A.Agg _ -> 18
  | A.Case _ -> 19
  | A.Collate _ -> 20

let expr_point k = "expr." ^ k

(* Every point's string, by number: the shapes, then the kinds. *)
let vocabulary =
  Array.append shape_names (Array.map expr_point kind_tokens)

(* [f] on each expression a fingerprint reads, in order: the items, the
   FROM clause's (ON conditions, derived tables' queries), WHERE, GROUP
   BY, HAVING, ORDER BY. *)
let rec iter_from f = function
  | A.F_table _ -> ()
  | A.F_join { left; right; on; _ } ->
      iter_from f left;
      iter_from f right;
      Option.iter f on
  | A.F_sub { sub; _ } -> iter_query f sub

and iter_query f = function
  | A.Q_select s -> iter_select f s
  | A.Q_values rows -> List.iter (List.iter f) rows
  | A.Q_compound (_, a, b) ->
      iter_query f a;
      iter_query f b

and iter_select f (s : A.select) =
  List.iter
    (function A.Sel_expr (e, _) -> f e | A.Star | A.Table_star _ -> ())
    s.sel_items;
  List.iter (iter_from f) s.sel_from;
  Option.iter f s.sel_where;
  List.iter f s.sel_group_by;
  Option.iter f s.sel_having;
  List.iter (fun (e, _) -> f e) s.sel_order_by

let rec conjuncts = function
  | A.Binary (A.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let rec from_has_sub = function
  | A.F_table _ -> false
  | A.F_sub _ -> true
  | A.F_join { left; right; _ } -> from_has_sub left || from_has_sub right

let shape_of_select (s : A.select) =
  let join =
    match s.sel_from with
    | [ A.F_join { kind = A.Inner; _ } ] -> `Inner
    | [ A.F_join { kind = A.Left; _ } ] -> `Left
    | [ A.F_join { kind = A.Cross; _ } ] -> `Cross
    | [ _ ] -> `Single
    | _ -> `Cross
  in
  {
    sh_tables = (match join with `Single -> 1 | _ -> 2);
    sh_join = join;
    sh_sub = List.exists from_has_sub s.sel_from;
    sh_where =
      (match s.sel_where with
      | None -> 1
      | Some w -> min 3 (List.length (conjuncts w)));
    sh_distinct = s.sel_distinct;
    sh_order = s.sel_order_by <> [];
    sh_group = s.sel_group_by <> [];
    sh_pred = None;
  }

(* [f] on the number of each point of [s]: its shape, then one kind per
   expression node that has one, in expression order. *)
let iter_points f (s : A.select) =
  f (shape_index (shape_of_select s));
  iter_select
    (A.fold_expr
       (fun () n ->
         let k = kind_of_node n in
         if k >= 0 then f (shape_count + k))
       ())
    s

let fingerprint s =
  let acc = ref [] in
  iter_points (fun i -> acc := vocabulary.(i) :: !acc) s;
  List.rev !acc

type tally = int array

let tally () = Array.make (Array.length vocabulary) 0
let count t s = iter_points (fun i -> t.(i) <- t.(i) + 1) s

let tally_frontier ~seed t =
  let entries = ref [] in
  Array.iteri
    (fun i hits ->
      if hits > 0 then
        entries :=
          (vocabulary.(i), { Frontier.hits; first_seed = seed }) :: !entries)
    t;
  Frontier.of_entries !entries

(* ------------------------------------------------------------------ *)
(* Per-dialect universe                                                 *)

let shape_points =
  (* GROUP BY is only generated over a single pivot table (every selected
     column must be plain and grouping needs one source), so g=1 combos
     exist only under jsingle; the numbering is the display order *)
  List.init shape_count Fun.id
  |> List.filter (fun i -> joins.(i / 48) = `Single || i mod 2 = 0)
  |> List.map (Array.get shape_names)

let expr_kinds = function
  | Dialect.Sqlite_like ->
      [ "cmp"; "logic"; "not"; "unary"; "arith"; "concat"; "bitop"; "is_null";
        "is_bool"; "is_expr"; "between"; "in"; "like"; "glob"; "case"; "cast";
        "collate"; "func"; "agg" ]
  | Dialect.Mysql_like ->
      [ "cmp"; "logic"; "not"; "unary"; "arith"; "bitop"; "nullsafe_eq";
        "is_null"; "is_bool"; "between"; "in"; "like"; "case"; "cast"; "func";
        "agg" ]
  | Dialect.Postgres_like ->
      [ "cmp"; "logic"; "not"; "unary"; "arith"; "concat"; "is_null";
        "is_bool"; "is_distinct"; "between"; "in"; "like"; "case"; "cast";
        "func"; "agg" ]

let plan_points dialect =
  let base =
    [ "full_scan"; "index_eq"; "index_range"; "index_like_prefix";
      "partial_index"; "skip_scan"; "desc_index"; "or_union" ]
  in
  let base =
    (* partial indexes are never generated for the mysql-like dialect
       (Gen_db gates CREATE INDEX ... WHERE on sqlite/postgres) *)
    if Dialect.equal dialect Dialect.Mysql_like then
      List.filter (fun p -> p <> "partial_index") base
    else base
  in
  List.map (fun p -> "plan." ^ p) base

let universe dialect =
  shape_points @ List.map expr_point (expr_kinds dialect) @ plan_points dialect

(* ------------------------------------------------------------------ *)
(* Guided shape planning                                                *)

let coldest_of rng frontier points =
  match points with
  | [] -> None
  | _ ->
      let m =
        List.fold_left (fun m p -> min m (Frontier.hits frontier p)) max_int
          points
      in
      Some (Rng.pick rng (List.filter (fun p -> Frontier.hits frontier p = m) points))

let cold_pred ~rng ~dialect frontier =
  (* aggregates cannot appear in WHERE, so they are not a valid conjunct
     target (the single-row aggregate extension hits expr.agg through the
     select list instead) *)
  expr_kinds dialect
  |> List.filter (fun k -> k <> "agg")
  |> List.map expr_point
  |> coldest_of rng frontier
  |> Option.map (fun p -> String.sub p 5 (String.length p - 5))

let plan ~rng ~dialect frontier =
  (* Shape guidance is corrective, not a replacement sampler.  Against a
     mostly cold frontier "aim at the coldest point" degenerates into
     uniform shape sampling, which hunts strictly worse than the tuned
     blind distribution — so blind sampling keeps the wheel (and keeps
     feeding the frontier) while guidance takes over a growing fraction
     of pivots as coverage warms, when the still-cold points are exactly
     the rare combinations the blind sampler would take longest to
     reach.  (Predicate-kind rotation has no such failure mode — the kind
     vocabulary warms within a few rounds — so {!cold_pred} is worth
     applying from the start.) *)
  let total = List.length shape_points in
  let warm =
    List.length
      (List.filter (fun p -> Frontier.hits frontier p > 0) shape_points)
  in
  let guide_prob = 0.8 *. float_of_int warm /. float_of_int total in
  if not (Rng.chance rng guide_prob) then None
  else
    match coldest_of rng frontier shape_points with
  | None -> None
  | Some point -> (
      match shape_of_point point with
      | None -> None
      | Some s ->
          let pred = cold_pred ~rng ~dialect frontier in
          Some { s with sh_pred = pred })
