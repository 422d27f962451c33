(* Secondary index: a B-tree from canonicalized key tuples to rowids.

   Collations are applied when building the key (NOCASE folds case, RTRIM
   strips trailing spaces), so the tree itself orders keys with the plain
   cross-class value ordering and UNIQUE enforcement "sees through" the
   collation — the behaviour whose SQLite implementation held the paper's
   first reported bug (Listing 4). *)

open Sqlval

(* Int/Int and Text/Text, the common pairs, skip [compare_total]'s class
   ranking and collation dispatch; both orders are the ones it applies. *)
let key_compare (a : Value.t array) (b : Value.t array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la || i >= lb then compare la lb
    else
      let c =
        match (a.(i), b.(i)) with
        | Value.Int x, Value.Int y -> Int64.compare x y
        | Value.Text x, Value.Text y -> String.compare x y
        | x, y -> Value.compare_total x y
      in
      if c <> 0 then c else go (i + 1)
  in
  go 0

module Tree = Btree.Make (struct
  type key = Value.t array

  let compare = key_compare
end)

type tree = int64 Tree.t

type t = {
  index_name : string;
  on_table : string;
  unique : bool;
  definition : Sqlast.Ast.indexed_column list;
  collations : Collation.t array; (* resolved, one per indexed column *)
  where : Sqlast.Ast.expr option; (* partial-index predicate *)
  mutable tree : tree;
}

let create ~name ~table ~unique ~definition ~collations ~where =
  {
    index_name = name;
    on_table = table;
    unique;
    definition;
    collations;
    where;
    tree = Tree.create ();
  }

let is_partial t = t.where <> None
let entry_count t = Tree.length t.tree

let is_expression_index t =
  List.exists
    (fun (ic : Sqlast.Ast.indexed_column) ->
      match ic.Sqlast.Ast.ic_expr with
      | Sqlast.Ast.Col _ -> false
      | _ -> true)
    t.definition

(* Fold each text component under the index's collation so equal-under-
   collation keys become byte-equal.  BINARY folds nothing, so an
   all-BINARY index keeps the raw key (keys are never mutated once built). *)
let is_binary = function Collation.Binary -> true | _ -> false

let canonical_key t (raw : Value.t array) : Value.t array =
  if Array.for_all is_binary t.collations then raw
  else
    Array.mapi
      (fun i v ->
        match v with
        | Value.Text s when i < Array.length t.collations ->
            Value.Text (Collation.key t.collations.(i) s)
        | _ -> v)
      raw

let add t ~key ~rowid = Tree.insert t.tree (canonical_key t key) rowid

let remove t ~key ~rowid =
  Tree.remove ~veq:Int64.equal t.tree (canonical_key t key) rowid

let find_rowids t key = Tree.find_all t.tree (canonical_key t key)

(* Rowids of entries equal to [key] other than [rowid]; non-empty means a
   UNIQUE violation when inserting [rowid]. *)
let unique_conflicts t ~key ~rowid =
  if not t.unique then []
  else
    find_rowids t key
    |> List.filter (fun id -> not (Int64.equal id rowid))
    |> List.filter (fun _ ->
           (* NULLs never conflict in SQL UNIQUE semantics *)
           not (Array.exists Value.is_null key))

let iter_range ?lo ?hi f t =
  let lo = Option.map (fun (k, incl) -> (canonical_key t k, incl)) lo in
  let hi = Option.map (fun (k, incl) -> (canonical_key t k, incl)) hi in
  Tree.iter_range ?lo ?hi f t.tree

let iter f t = Tree.iter f t.tree
let clear t = t.tree <- Tree.create ()

let copy t =
  let tree = Tree.create () in
  Tree.iter (fun k v -> Tree.insert tree k v) t.tree;
  { t with tree }

let check_invariants t = Tree.check_invariants t.tree
let tree_profile t = Tree.profile t.tree
