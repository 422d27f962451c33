(* Resolved (post-DDL) table schemas, as the executor sees them.  Unlike the
   AST's CREATE TABLE, constraints are normalised: the primary key is an
   ordered column list, per-column UNIQUE constraints are recorded on the
   column, and every column carries its resolved collation and affinity. *)

open Sqlval

type column = {
  name : string;
  ty : Datatype.t;
  collation : Collation.t;
  not_null : bool;
  default : Sqlast.Ast.expr option;
  in_primary_key : bool;
  single_unique : bool; (* column-level UNIQUE constraint *)
}

let column ?(ty = Datatype.Any) ?(collation = Collation.Binary)
    ?(not_null = false) ?default ?(in_primary_key = false)
    ?(single_unique = false) name =
  { name; ty; collation; not_null; default; in_primary_key; single_unique }

type table = {
  mutable table_name : string;
  mutable columns : column array;
  mutable primary_key : string list; (* ordered; [] = none (rowid only) *)
  without_rowid : bool;
  engine : Sqlast.Ast.table_engine option;
  inherits : string option;
  mutable children : string list; (* postgres inheritance: child tables *)
  mutable table_uniques : string list list; (* multi-column UNIQUEs *)
  mutable checks : Sqlast.Ast.expr list; (* CHECK constraints, row context *)
  mutable serial_next : int64; (* next SERIAL value (postgres) *)
  mutable tainted_null_update : bool;
      (* a NULL was overwritten by UPDATE: trigger state for the
         injected 'unexpected null value in index' defect *)
  mutable broken_expr_index : bool;
      (* an expression index references a renamed column: trigger state
         for the injected malformed-schema defect *)
  mutable version : int;
      (* bumped by every change to what a write plan compiles: columns,
         CHECKs, the table's name and its index set *)
}

let make_table ?(primary_key = []) ?(without_rowid = false) ?engine ?inherits
    ?(table_uniques = []) ?(checks = []) ~columns table_name =
  {
    table_name;
    columns;
    primary_key;
    without_rowid;
    engine;
    inherits;
    children = [];
    table_uniques;
    checks;
    serial_next = 1L;
    tainted_null_update = false;
    broken_expr_index = false;
    version = 0;
  }

let bump_version t = t.version <- t.version + 1

(* [String.lowercase_ascii a = String.lowercase_ascii b], byte by byte and
   without allocating: name resolution runs per row on the write path *)
let name_equal a b =
  let n = String.length a in
  n = String.length b
  &&
  let rec go i =
    i >= n
    || Char.lowercase_ascii (String.unsafe_get a i)
       = Char.lowercase_ascii (String.unsafe_get b i)
       && go (i + 1)
  in
  go 0

(* a plain loop, not [String.exists] and its per-character closure call:
   compiled column references and catalog lookups lower every name they
   see *)
let lower_name s =
  let rec upper i =
    i < String.length s
    && match String.unsafe_get s i with 'A' .. 'Z' -> true | _ -> upper (i + 1)
  in
  if upper 0 then String.lowercase_ascii s else s

let find_column t name =
  let rec go i =
    if i >= Array.length t.columns then None
    else if name_equal t.columns.(i).name name then Some (i, t.columns.(i))
    else go (i + 1)
  in
  go 0

let width t = Array.length t.columns

let copy_table t =
  {
    t with
    columns = Array.copy t.columns;
    children = t.children;
    table_uniques = t.table_uniques;
  }
