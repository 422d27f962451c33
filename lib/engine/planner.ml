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

let non_null_const env e =
  match const_value env e with
  | Some v -> not (Value.is_null v)
  | None -> false

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
              (is_column_ref col a && non_null_const env b)
              || (is_column_ref col b && non_null_const env a))
          (* unsound (Listing 1): c IS NOT <non-null constant>, including
             the NOT-wrapped spellings the rectifier produces *)
          | A.Is { negated = true; arg; rhs = A.Is_expr other }
          | A.Unary
              (A.Not, A.Is { negated = false; arg; rhs = A.Is_expr other })
          | A.Unary (A.Not, A.Binary (A.Null_safe_eq, arg, other))
            when buggy && is_column_ref col arg ->
              non_null_const env other
          | A.Unary (A.Not, A.Binary (A.Null_safe_eq, other, arg))
            when buggy && is_column_ref col arg ->
              non_null_const env other
          | _ -> false))
    where

(* Collation compatibility: an index probe is valid only when the query
   comparison collation matches the index key collation. *)
let index_collation (ix : Storage.Index.t) =
  match ix.Storage.Index.collations with
  | [||] -> Collation.Binary
  | cs -> cs.(0)

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

(* The leading index column's DESC flag. *)
let desc_leading (ix : Storage.Index.t) =
  match ix.Storage.Index.definition with
  | ic :: _ -> ic.A.ic_desc
  | [] -> false

let rec reads_desc_range = function
  | Index_range { index; _ } -> desc_leading index
  | Or_union ps -> List.exists reads_desc_range ps
  | Full_scan | Index_eq _ | Index_like_prefix _ | Partial_index_scan _
  | Skip_scan _ ->
      false

(* [lit OP col] read as [col OP' lit]: the comparison with its operands
   swapped. *)
let flip = function
  | A.Lt -> A.Gt
  | A.Le -> A.Ge
  | A.Gt -> A.Lt
  | A.Ge -> A.Le
  | op -> op

(* A comparison of [col] with another operand, as (operator, column
   operand, other operand) with [col] on the left; [col OP lit] is read
   first, so it wins when both sides name the column. *)
let comparison_with col = function
  | A.Binary (((A.Eq | A.Lt | A.Le | A.Gt | A.Ge) as op), a, b) ->
      if is_column_ref col a then Some (op, a, b)
      else if is_column_ref col b then Some (flip op, b, a)
      else None
  | _ -> None

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
      match comparison_with col conj with
      | Some (op, col_expr, other) -> (
          match const_value env other with
          | Some v
            when (not (Value.is_null v))
                 (* an index probe is valid only when the comparison
                    collation equals the index key collation *)
                 && Collation.equal
                      (Eval.comparison_collation env (A.col col) other)
                      (index_collation ix)
                 && probe_class_ok env table col v -> (
              (* the bound is the constant as the comparison compares
                 it: sqlite's affinity adjustment, the identity on mysql
                 and postgres; no bound when the comparison adjusts the
                 column's value, which the index keys do not follow *)
              match
                Eval.compare_rhs
                  (Eval.compare_prep env op (Eval.operand env col_expr)
                     (Eval.operand env other))
                  v
              with
              | None -> None
              | Some v -> (
                let range lo hi = Some (Index_range { index = ix; lo; hi }) in
                match op with
                | A.Eq -> Some (Index_eq { index = ix; key = [| v |] })
                | A.Gt ->
                    if
                      desc_leading ix
                      && Dialect.equal env.Eval.dialect Dialect.Sqlite_like
                      && Bug.on env.Eval.bugs Bug.Sq_desc_index_range
                    then
                      (* buggy: strict lower bound over a DESC index yields
                         an empty candidate set *)
                      range (Some (v, false)) (Some (v, false))
                    else range (Some (v, false)) None
                | A.Ge -> range (Some (v, true)) None
                | A.Lt -> range None (Some (v, false))
                | A.Le -> range None (Some (v, true))
                | _ -> None))
          | _ -> None)
      | None -> (
          match conj with
          | A.Like
              { negated = false; arg; pattern = A.Lit (Value.Text pat); escape = None }
            when is_column_ref col arg ->
              let case_sensitive =
                match env.Eval.dialect with
                | Dialect.Postgres_like -> true
                | Dialect.Mysql_like -> false
                | Dialect.Sqlite_like -> env.Eval.case_sensitive_like
              in
              let compatible =
                (case_sensitive
                && Collation.equal (index_collation ix) Collation.Binary)
                || ((not case_sensitive)
                   && Collation.equal (index_collation ix) Collation.Nocase)
              in
              let prefix = Like_matcher.literal_prefix pat in
              if
                compatible
                && String.length prefix > 0
                && probe_class_ok env table col (Value.Text prefix)
              then Some (Index_like_prefix { index = ix; prefix })
              else None
          | _ -> None))

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

(* A scan site's candidate paths, in groups; each group calls its
   argument on its candidates in order, computed one at a time, so a
   caller that raises out of it computes no later candidate. *)
type candidates = {
  skips : (path -> unit) -> unit; (* skip scans, not gated on ANALYZE *)
  probes : (path -> unit) -> unit;
      (* index probes, index-major, conjunct-minor *)
  ors : (path option -> unit) -> unit;
      (* per OR conjunct, the union of each arm's first probe; [None]
         when an arm has none *)
  partials : (path -> unit) -> unit; (* scans of the usable partial indexes *)
}

(* The candidate groups of a scan site; [None] when the full scan is
   its only path.  The planner counts no coverage: only an executed scan
   counts its plan, so its constant folding runs without the coverage
   instrument. *)
let candidates env catalog (table : Storage.Schema.table) ~where =
  let name = table.Storage.Schema.table_name in
  match (where, Storage.Catalog.indexes_on catalog name) with
  | None, _ | _, [] -> None
  (* a parent table's indexes do not cover postgres-inherited child rows:
     inheritance scans always go through the full append scan *)
  | _ when Storage.Catalog.children_of catalog name <> [] -> None
  | Some w, indexes -> (
      let env =
        if Option.is_none env.Eval.coverage then env
        else { env with Eval.coverage = None }
      in
      let cs = conjuncts w in
      (* usable indexes under the conjunction: total indexes always,
         partial indexes only when their predicate is implied *)
      match
        List.filter
          (fun ix ->
            match ix.Storage.Index.where with
            | None -> true
            | Some pred -> implies_predicate env ~where:cs ~predicate:pred)
          indexes
      with
      | [] -> None
      | usable ->
          let first_probe c =
            List.find_map (fun ix -> conjunct_path env table ix c) usable
          in
          Some
            {
              skips =
                (fun f ->
                  List.iter
                    (fun ix ->
                      if skip_scan_applicable cs ix then
                        f (Skip_scan { index = ix }))
                    usable);
              probes =
                (fun f ->
                  List.iter
                    (fun ix ->
                      List.iter
                        (fun c -> Option.iter f (conjunct_path env table ix c))
                        cs)
                    usable);
              ors =
                (fun f ->
                  List.iter
                    (function
                      | A.Binary (A.Or, a, b) ->
                          f
                            (match (first_probe a, first_probe b) with
                            | Some x, Some y -> Some (Or_union [ x; y ])
                            | _ -> None)
                      | _ -> ())
                    cs);
              partials =
                (fun f ->
                  List.iter
                    (fun ix ->
                      if ix.Storage.Index.where <> None then
                        f (Partial_index_scan { index = ix }))
                    usable);
            })

exception Chosen of path

let choose env catalog (table : Storage.Schema.table) ~where =
  match candidates env catalog table ~where with
  | None -> Full_scan
  | Some c -> (
      let take p = raise_notrace (Chosen p) in
      match
        (* 0. after ANALYZE the statistics make a multi-column index look
           cheap: a skip-scan is preferred when a later index column is
           constrained (the Listing 6 setting) *)
        if catalog.Storage.Catalog.analyzed then c.skips take;
        (* 1. probe/range on a conjunct *)
        c.probes take;
        (* 2. OR of two indexable conjuncts: the first OR conjunct only *)
        (try c.ors (fun o -> Option.iter take o; raise_notrace Exit)
         with Exit -> ());
        (* 3. scan a usable partial index covering the predicate *)
        c.partials take
      with
      | () -> Full_scan
      | exception Chosen p -> p)

let enumerate env catalog (table : Storage.Schema.table) ~where =
  match candidates env catalog table ~where with
  | None -> [ Full_scan ]
  | Some c ->
      let all group =
        let acc = ref [] in
        group (fun p -> acc := p :: !acc);
        List.rev !acc
      in
      let seen = Hashtbl.create 8 in
      List.filter
        (fun p ->
          let s = signature p in
          if Hashtbl.mem seen s then false
          else (
            Hashtbl.add seen s ();
            true))
        (Full_scan
        :: List.concat
             [
               all c.skips;
               List.filter_map Fun.id (all c.ors);
               all c.probes;
               all c.partials;
             ])
