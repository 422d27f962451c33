open Sqlval
module A = Sqlast.Ast

type bound = Value.t * bool

type path =
  | Full_scan
  | Index_eq of { index : Storage.Index.t; key : Value.t array }
  | Index_range of {
      index : Storage.Index.t;
      lo : bound option;
      hi : bound option;
    }
  | Index_like_prefix of { index : Storage.Index.t; prefix : string }
  | Partial_index_scan of { index : Storage.Index.t }
  | Skip_scan of { index : Storage.Index.t }
  | Or_union of path list

(* plain string building, no Format: the flight recorder renders a path
   per traced scan, so this sits on the tracing hot path *)
let rec show_path = function
  | Full_scan -> "full-scan"
  | Index_eq { index; _ } ->
      "index-eq(" ^ index.Storage.Index.index_name ^ ")"
  | Index_range { index; _ } ->
      "index-range(" ^ index.Storage.Index.index_name ^ ")"
  | Index_like_prefix { index; prefix } ->
      Printf.sprintf "index-like(%s,%S)" index.Storage.Index.index_name prefix
  | Partial_index_scan { index } ->
      "partial-index(" ^ index.Storage.Index.index_name ^ ")"
  | Skip_scan { index } ->
      "skip-scan(" ^ index.Storage.Index.index_name ^ ")"
  | Or_union ps -> "or-union(" ^ String.concat "," (List.map show_path ps) ^ ")"

let pp_path fmt p = Format.pp_print_string fmt (show_path p)

(* Structural identity of a path: [show_path] omits probe keys and range
   bounds, so two different probes over the same index would collapse.
   Used to dedup enumerated candidates and to recognise the default. *)
let rec signature = function
  | Full_scan -> "F"
  | Index_eq { index; key } ->
      "E:" ^ index.Storage.Index.index_name ^ ":"
      ^ String.concat "," (List.map Value.show (Array.to_list key))
  | Index_range { index; lo; hi } ->
      let b = function
        | None -> "-"
        | Some (v, incl) -> Value.show v ^ if incl then "i" else "x"
      in
      "R:" ^ index.Storage.Index.index_name ^ ":" ^ b lo ^ ":" ^ b hi
  | Index_like_prefix { index; prefix } ->
      "L:" ^ index.Storage.Index.index_name ^ ":" ^ prefix
  | Partial_index_scan { index } -> "P:" ^ index.Storage.Index.index_name
  | Skip_scan { index } -> "S:" ^ index.Storage.Index.index_name
  | Or_union ps -> "O(" ^ String.concat "|" (List.map signature ps) ^ ")"

let label = function
  | Full_scan -> "full_scan"
  | Index_eq _ -> "index_eq"
  | Index_range _ -> "index_range"
  | Index_like_prefix _ -> "index_like_prefix"
  | Partial_index_scan _ -> "partial_index"
  | Skip_scan _ -> "skip_scan"
  | Or_union _ -> "or_union"

let rec conjuncts = function
  | A.Binary (A.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* A constant expression (no column references) evaluated with the correct
   engine semantics; planner constants must match run-time values. *)
let const_value env e =
  if A.expr_columns e = [] then
    Result.to_option (Eval.run (Eval.compile env e))
  else None

(* Is [e] a bare reference to [column] (possibly qualified)? *)
let is_column_ref column = function
  | A.Col { column = c; _ } -> String.lowercase_ascii c = String.lowercase_ascii column
  | _ -> false

(* First indexed column name of a single-column (or leading-column) index,
   when it is a plain column. *)
let leading_column (ix : Storage.Index.t) =
  match ix.Storage.Index.definition with
  | { A.ic_expr = A.Col { column; _ }; _ } :: _ -> Some column
  | _ -> None

let is_not_null_predicate = function
  | A.Is { negated = true; arg = A.Col { column; _ }; rhs = A.Is_null } ->
      Some column
  | A.Unary (A.Not, A.Is { negated = false; arg = A.Col { column; _ }; rhs = A.Is_null })
    ->
      Some column
  | _ -> None

let implies_predicate env ~where ~predicate =
  let buggy =
    Dialect.equal env.Eval.dialect Dialect.Sqlite_like
    && Bug.on env.Eval.bugs Bug.Sq_partial_index_implies_not_null
  in
  List.exists
    (fun conj ->
      A.equal_expr conj predicate
      ||
      match is_not_null_predicate predicate with
      | None -> false
      | Some col -> (
          match conj with
          (* sound: c = <non-null constant> implies c NOT NULL *)
          | A.Binary (A.Eq, a, b) -> (
              let check side other =
                is_column_ref col side
                &&
                match const_value env other with
                | Some v -> not (Value.is_null v)
                | None -> false
              in
              check a b || check b a)
          (* unsound (Listing 1): c IS NOT <non-null constant>, including
             the NOT-wrapped spellings the rectifier produces *)
          | A.Is { negated = true; arg; rhs = A.Is_expr other }
          | A.Unary
              (A.Not, A.Is { negated = false; arg; rhs = A.Is_expr other })
          | A.Unary (A.Not, A.Binary (A.Null_safe_eq, arg, other))
            when buggy && is_column_ref col arg -> (
              match const_value env other with
              | Some v -> not (Value.is_null v)
              | None -> false)
          | A.Unary (A.Not, A.Binary (A.Null_safe_eq, other, arg))
            when buggy && is_column_ref col arg -> (
              match const_value env other with
              | Some v -> not (Value.is_null v)
              | None -> false)
          | _ -> false))
    where

(* Collation compatibility: an index probe is valid only when the query
   comparison collation matches the index key collation. *)
let index_collation (ix : Storage.Index.t) =
  match ix.Storage.Index.collations with
  | [||] -> Collation.Binary
  | cs -> cs.(0)

(* Apply the stored-key canonical conversion the way an INSERT would, so
   probe keys align with stored keys (sqlite affinity). *)
let probe_value env (table : Storage.Schema.table) column (v : Value.t) =
  match Storage.Schema.find_column table column with
  | Some (_, col) when Dialect.equal env.Eval.dialect Dialect.Sqlite_like ->
      Coerce.apply_affinity (Datatype.affinity col.Storage.Schema.ty) v
  | _ -> v

(* A probe is sound only when index-key ordering agrees with the dialect's
   comparison semantics for this (column, literal) pair.  sqlite's affinity
   conversion makes any literal probeable; mysql and postgres coerce (or
   reject) cross-class comparisons, so the literal's storage class must
   match the column's declared class. *)
let probe_class_ok env (table : Storage.Schema.table) column (v : Value.t) =
  if Dialect.equal env.Eval.dialect Dialect.Sqlite_like then true
  else
    match Storage.Schema.find_column table column with
    | None -> false
    | Some (_, col) -> (
        match (col.Storage.Schema.ty, v) with
        | (Datatype.Int _ | Datatype.Serial), Value.Int _ -> true
        | Datatype.Bool, (Value.Int _ | Value.Bool _) -> true
        | Datatype.Real, Value.Real _ -> true
        | Datatype.Text, Value.Text _ -> true
        | Datatype.Blob, Value.Blob _ -> true
        | (Datatype.Any | Datatype.Int _ | Datatype.Serial | Datatype.Real
          | Datatype.Text | Datatype.Blob | Datatype.Bool), _ ->
            false)

let cov env point =
  match env.Eval.coverage with
  | None -> ()
  | Some c -> Coverage.hit c point

(* Try to derive a probe/range path for one conjunct against one index.
   Only single-column indexes are probed: the b-tree compares full key
   tuples, so a 1-element probe key cannot address a multi-column index
   (multi-column indexes are used by skip-scans and partial scans). *)
let conjunct_path env table (ix : Storage.Index.t) conj =
  if List.length ix.Storage.Index.definition <> 1 then None
  else
  match leading_column ix with
  | None -> None
  | Some col -> (
      (* an index probe is valid only when the comparison collation equals
         the index key collation *)
      let coll_ok other_side =
        let coll = Eval.comparison_collation env (A.col col) other_side in
        Collation.equal coll (index_collation ix)
      in
      match conj with
      | A.Binary (A.Eq, a, b) when is_column_ref col a -> (
          match const_value env b with
          | Some v
            when (not (Value.is_null v))
                 && coll_ok b
                 && probe_class_ok env table col v ->
              Some (Index_eq { index = ix; key = [| probe_value env table col v |] })
          | _ -> None)
      | A.Binary (A.Eq, a, b) when is_column_ref col b -> (
          match const_value env a with
          | Some v
            when (not (Value.is_null v))
                 && coll_ok a
                 && probe_class_ok env table col v ->
              Some (Index_eq { index = ix; key = [| probe_value env table col v |] })
          | _ -> None)
      | A.Binary (((A.Lt | A.Le | A.Gt | A.Ge) as op), a, b)
        when is_column_ref col a -> (
          match const_value env b with
          | Some v
            when (not (Value.is_null v))
                 && coll_ok b
                 && probe_class_ok env table col v -> (
              let v = probe_value env table col v in
              let desc =
                match ix.Storage.Index.definition with
                | ic :: _ -> ic.A.ic_desc
                | [] -> false
              in
              let strict_lo_bug =
                desc
                && Dialect.equal env.Eval.dialect Dialect.Sqlite_like
                && Bug.on env.Eval.bugs Bug.Sq_desc_index_range
              in
              if desc then cov env "plan.desc_index";
              match op with
              | A.Gt ->
                  if strict_lo_bug then
                    (* buggy: strict lower bound over a DESC index yields
                       an empty candidate set *)
                    Some
                      (Index_range
                         { index = ix; lo = Some (v, false); hi = Some (v, false) })
                  else Some (Index_range { index = ix; lo = Some (v, false); hi = None })
              | A.Ge -> Some (Index_range { index = ix; lo = Some (v, true); hi = None })
              | A.Lt -> Some (Index_range { index = ix; lo = None; hi = Some (v, false) })
              | A.Le -> Some (Index_range { index = ix; lo = None; hi = Some (v, true) })
              | _ -> None)
          | _ -> None)
      | A.Binary (((A.Lt | A.Le | A.Gt | A.Ge) as op), a, b)
        when is_column_ref col b -> (
          (* mirrored orientation: lit OP col *)
          match const_value env a with
          | Some v
            when (not (Value.is_null v))
                 && coll_ok a
                 && probe_class_ok env table col v -> (
              let v = probe_value env table col v in
              let desc =
                match ix.Storage.Index.definition with
                | ic :: _ -> ic.A.ic_desc
                | [] -> false
              in
              let strict_lo_bug =
                desc
                && Dialect.equal env.Eval.dialect Dialect.Sqlite_like
                && Bug.on env.Eval.bugs Bug.Sq_desc_index_range
              in
              if desc then cov env "plan.desc_index";
              match op with
              | A.Lt ->
                  (* lit < col ⇔ col > lit *)
                  if strict_lo_bug then
                    Some
                      (Index_range
                         { index = ix; lo = Some (v, false); hi = Some (v, false) })
                  else
                    Some (Index_range { index = ix; lo = Some (v, false); hi = None })
              | A.Le -> Some (Index_range { index = ix; lo = Some (v, true); hi = None })
              | A.Gt -> Some (Index_range { index = ix; lo = None; hi = Some (v, false) })
              | A.Ge -> Some (Index_range { index = ix; lo = None; hi = Some (v, true) })
              | _ -> None)
          | _ -> None)
      | A.Like { negated = false; arg; pattern = A.Lit (Value.Text pat); escape = None }
        when is_column_ref col arg -> (
          let case_sensitive =
            match env.Eval.dialect with
            | Dialect.Postgres_like -> true
            | Dialect.Mysql_like -> false
            | Dialect.Sqlite_like -> env.Eval.case_sensitive_like
          in
          let compatible =
            (case_sensitive && Collation.equal (index_collation ix) Collation.Binary)
            || ((not case_sensitive)
               && Collation.equal (index_collation ix) Collation.Nocase)
          in
          let prefix = Like_matcher.literal_prefix pat in
          if
            compatible
            && String.length prefix > 0
            && probe_class_ok env table col (Value.Text prefix)
          then Some (Index_like_prefix { index = ix; prefix })
          else None)
      | _ -> None)

(* A skip-scan candidate: a multi-column index whose later column is
   constrained by an equality conjunct (the Listing 6 setting). *)
let skip_scan_applicable cs (ix : Storage.Index.t) =
  List.length ix.Storage.Index.definition >= 2
  &&
  let later_cols =
    List.filteri (fun i _ -> i > 0) ix.Storage.Index.definition
    |> List.filter_map (fun ic ->
           match ic.A.ic_expr with
           | A.Col { column; _ } -> Some column
           | _ -> None)
  in
  List.exists
    (fun conj ->
      match conj with
      | A.Binary (A.Eq, a, b) ->
          List.exists (fun c -> is_column_ref c a || is_column_ref c b) later_cols
      | _ -> false)
    cs

(* usable indexes under a WHERE conjunction: total indexes always;
   partial indexes only when the predicate is implied *)
let usable_indexes env indexes cs =
  List.filter
    (fun ix ->
      match ix.Storage.Index.where with
      | None -> true
      | Some pred -> implies_predicate env ~where:cs ~predicate:pred)
    indexes

let choose env catalog (table : Storage.Schema.table) ~where =
  let indexes =
    Storage.Catalog.indexes_on catalog table.Storage.Schema.table_name
  in
  (* a parent table's indexes do not cover postgres-inherited child rows:
     inheritance scans always go through the full append scan *)
  if Storage.Catalog.children_of catalog table.Storage.Schema.table_name <> []
  then Full_scan
  else
  match where with
  | None -> Full_scan
  | Some w -> (
      let cs = conjuncts w in
      let usable = usable_indexes env indexes cs in
      (* 0. after ANALYZE the statistics make a multi-column index look
         cheap: a skip-scan is preferred when a later index column is
         constrained (the Listing 6 setting) *)
      let skip_scan_of () =
        if not catalog.Storage.Catalog.analyzed then None
        else List.find_opt (skip_scan_applicable cs) usable
      in
      match skip_scan_of () with
      | Some ix ->
          cov env "plan.skip_scan";
          Skip_scan { index = ix }
      | None ->
      (* 1. probe/range on a conjunct *)
      let probe =
        List.fold_left
          (fun acc ix ->
            match acc with
            | Some _ -> acc
            | None ->
                List.fold_left
                  (fun acc conj ->
                    match acc with
                    | Some _ -> acc
                    | None -> conjunct_path env table ix conj)
                  None cs)
          None usable
      in
      match probe with
      | Some p ->
          (match p with
          | Index_eq _ -> cov env "plan.index_eq"
          | Index_range _ -> cov env "plan.index_range"
          | Index_like_prefix _ -> cov env "plan.index_like_prefix"
          | _ -> ());
          p
      | None -> (
          (* 2. OR of two indexable equalities *)
          let or_path =
            let or_conjunct =
              List.find_opt
                (function A.Binary (A.Or, _, _) -> true | _ -> false)
                cs
            in
            match or_conjunct with
            | Some (A.Binary (A.Or, a, b)) -> (
                let pa =
                  List.fold_left
                    (fun acc ix ->
                      match acc with
                      | Some _ -> acc
                      | None -> conjunct_path env table ix a)
                    None usable
                in
                let pb =
                  List.fold_left
                    (fun acc ix ->
                      match acc with
                      | Some _ -> acc
                      | None -> conjunct_path env table ix b)
                    None usable
                in
                match (pa, pb) with
                | Some x, Some y ->
                    cov env "plan.or_union";
                    Some (Or_union [ x; y ])
                | _ -> None)
            | Some _ | None -> None
          in
          match or_path with
          | Some p -> p
          | None -> (
              (* 3. scan a usable partial index covering the predicate *)
              let partial =
                List.find_opt (fun ix -> ix.Storage.Index.where <> None) usable
              in
              match partial with
              | Some ix ->
                  cov env "plan.partial_index";
                  Partial_index_scan { index = ix }
              | None ->
                  cov env "plan.full_scan";
                  Full_scan)))

(* Enumerate every access path the engine could soundly take for [table]
   under [where].  The list always starts with [Full_scan]; the
   distinctive paths (skip scans, OR unions) come before plain probes so
   a bounded fan-out keeps the plans most likely to disagree.  Unlike
   [choose], the skip-scan candidate is not gated on ANALYZE: the
   executor re-applies the full WHERE to every candidate row and indexes
   store NULL keys, so any index read is a sound superset of the
   matching rows regardless of statistics. *)
let enumerate env catalog (table : Storage.Schema.table) ~where =
  let indexes =
    Storage.Catalog.indexes_on catalog table.Storage.Schema.table_name
  in
  if Storage.Catalog.children_of catalog table.Storage.Schema.table_name <> []
  then [ Full_scan ]
  else
    match where with
    | None -> [ Full_scan ]
    | Some w ->
        let cs = conjuncts w in
        let usable = usable_indexes env indexes cs in
        let skips =
          List.filter (skip_scan_applicable cs) usable
          |> List.map (fun ix -> Skip_scan { index = ix })
        in
        let first_path c =
          List.fold_left
            (fun acc ix ->
              match acc with Some _ -> acc | None -> conjunct_path env table ix c)
            None usable
        in
        let ors =
          List.filter_map
            (function
              | A.Binary (A.Or, a, b) -> (
                  match (first_path a, first_path b) with
                  | Some x, Some y -> Some (Or_union [ x; y ])
                  | _ -> None)
              | _ -> None)
            cs
        in
        let probes =
          List.concat_map
            (fun ix -> List.filter_map (conjunct_path env table ix) cs)
            usable
        in
        let partials =
          List.filter (fun ix -> ix.Storage.Index.where <> None) usable
          |> List.map (fun ix -> Partial_index_scan { index = ix })
        in
        let seen = Hashtbl.create 8 in
        List.filter
          (fun p ->
            let s = signature p in
            if Hashtbl.mem seen s then false
            else (
              Hashtbl.add seen s ();
              true))
          (Full_scan :: (skips @ ors @ probes @ partials))
