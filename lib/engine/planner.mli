(** Access-path selection for single-table scans.

    The planner analyses the WHERE conjunction and picks an index probe,
    an index range scan, a LIKE-prefix range, a partial-index scan, a
    skip-scan, or an OR-union of probes; anything else falls back to the
    full table scan.  The executor re-applies the full WHERE filter to the
    candidate rows, so with no bugs enabled every path is sound (property
    tested: path candidates ⊇ matching rows).

    Injected planner defects mirror the paper's optimization bugs: the
    unsound [IS NOT x ⇒ NOT NULL] partial-index inference (Listing 1), the
    DESC-index strict-bound range bug, the OR-union early exit, and the
    skip-scan/DISTINCT interaction (Listing 6, completed in the executor). *)

open Sqlval

type bound = Value.t * bool (* value, inclusive *)

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

val show_path : path -> string

(** Structural identity of a path, including probe keys and range bounds
    ([show_path] omits both).  Two paths with equal signatures visit the
    same candidate rows. *)
val signature : path -> string

(** Stable lowercase label of the path constructor, used as the
    [path="..."] label of [minidb_plan_choices_total]. *)
val label : path -> string

(** Split an expression into its top-level AND conjuncts. *)
val conjuncts : Sqlast.Ast.expr -> Sqlast.Ast.expr list

(** Does the path read a DESC index range, directly or inside an OR
    union?  An executed scan counts [plan.desc_index] when it does. *)
val reads_desc_range : path -> bool

(** The default access path: a policy over {!enumerate}'s candidates.
    In order it takes a skip scan (only after ANALYZE), the first index
    probe (index-major, conjunct-minor), the union of the first OR
    conjunct's arms (when both arms have a probe), the first usable
    partial index, and otherwise the full scan.  It builds only the
    candidates it reads.

    Neither [choose] nor {!enumerate} counts coverage: they plan in a
    coverage-free copy of the environment, so their constant folding
    counts nothing either.  The executed scan counts its own plan
    ({!Executor.scan_rows}), so EXPLAIN and plan enumeration leave the
    coverage counts as they are. *)
val choose :
  Eval.env ->
  Storage.Catalog.t ->
  Storage.Schema.table ->
  where:Sqlast.Ast.expr option ->
  path

(** Every access path the engine could soundly take for this scan, the
    full scan always first and [signature]-deduplicated: the skip scans,
    the OR unions, the index probes, then the partial-index scans, so a
    bounded fan-out keeps the plans most likely to disagree.  The
    skip-scan candidates are not gated on ANALYZE (any index read is a
    sound superset since the executor re-applies the WHERE filter, and
    indexes store NULL keys), so the result always contains [choose]'s
    answer for the same arguments.  Deterministic: depends only on the
    catalog, the schema and the WHERE clause. *)
val enumerate :
  Eval.env ->
  Storage.Catalog.t ->
  Storage.Schema.table ->
  where:Sqlast.Ast.expr option ->
  path list
