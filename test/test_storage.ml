(* Unit and property tests for the storage substrate: B-tree (against a
   reference model), heap, schema, index and catalog. *)

open Sqlval

module Itree = Storage.Btree.Make (struct
  type key = int

  let compare = Int.compare
end)

(* ---------- B-tree unit tests ---------- *)

let test_btree_basic () =
  let t = Itree.create () in
  Alcotest.(check bool) "empty" true (Itree.is_empty t);
  for i = 1 to 100 do
    Itree.insert t i (i * 10)
  done;
  Itree.check_invariants t;
  Alcotest.(check int) "length" 100 (Itree.length t);
  Alcotest.(check (list int)) "find 42" [ 420 ] (Itree.find_all t 42);
  Alcotest.(check (list int)) "find missing" [] (Itree.find_all t 1000);
  Alcotest.(check bool) "mem" true (Itree.mem t 7);
  let items = Itree.to_list t in
  Alcotest.(check int) "to_list length" 100 (List.length items);
  Alcotest.(check bool) "sorted" true
    (List.sort compare items = items)

let test_btree_duplicates () =
  let t = Itree.create () in
  Itree.insert t 5 1;
  Itree.insert t 5 2;
  Itree.insert t 5 3;
  Itree.insert t 4 0;
  Itree.check_invariants t;
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3 ] (Itree.find_all t 5);
  Alcotest.(check bool) "remove middle" true
    (Itree.remove ~veq:Int.equal t 5 2);
  Alcotest.(check (list int)) "after remove" [ 1; 3 ] (Itree.find_all t 5);
  Alcotest.(check bool) "remove absent value" false
    (Itree.remove ~veq:Int.equal t 5 99);
  Itree.check_invariants t

let test_btree_range () =
  let t = Itree.create () in
  List.iter (fun i -> Itree.insert t i i) [ 1; 3; 5; 7; 9; 11 ];
  let collect ?lo ?hi () =
    let acc = ref [] in
    Itree.iter_range ?lo ?hi (fun k _ -> acc := k :: !acc) t;
    List.rev !acc
  in
  Alcotest.(check (list int)) "closed range" [ 3; 5; 7 ]
    (collect ~lo:(3, true) ~hi:(7, true) ());
  Alcotest.(check (list int)) "open lo" [ 5; 7 ]
    (collect ~lo:(3, false) ~hi:(7, true) ());
  Alcotest.(check (list int)) "hi only" [ 1; 3 ] (collect ~hi:(4, true) ());
  Alcotest.(check (list int)) "lo only" [ 9; 11 ] (collect ~lo:(8, true) ());
  Alcotest.(check (list int)) "all" [ 1; 3; 5; 7; 9; 11 ] (collect ())

let test_btree_min_max () =
  let t = Itree.create () in
  Alcotest.(check bool) "empty min" true (Itree.min_binding t = None);
  List.iter (fun i -> Itree.insert t i (-i)) [ 42; 7; 99; 13 ];
  Alcotest.(check bool) "min" true (Itree.min_binding t = Some (7, -7));
  Alcotest.(check bool) "max" true (Itree.max_binding t = Some (99, -99))

(* ---------- B-tree property tests against a reference model ---------- *)

type op = Insert of int * int | Remove of int * int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun k v -> Insert (k mod 50, v)) small_nat small_nat);
        (1, map2 (fun k v -> Remove (k mod 50, v)) small_nat small_nat);
      ])

let print_op = function
  | Insert (k, v) -> Printf.sprintf "ins(%d,%d)" k v
  | Remove (k, v) -> Printf.sprintf "del(%d,%d)" k v

let apply_model model = function
  | Insert (k, v) -> model @ [ (k, v) ]
  | Remove (k, v) ->
      let rec drop_first = function
        | [] -> []
        | (k', v') :: rest when k' = k && v' = v -> rest
        | kv :: rest -> kv :: drop_first rest
      in
      drop_first model

let apply_tree t = function
  | Insert (k, v) -> Itree.insert t k v
  | Remove (k, v) -> ignore (Itree.remove ~veq:Int.equal t k v)

let sorted_stable model =
  List.stable_sort (fun (a, _) (b, _) -> compare a b) model

let prop_btree_model =
  QCheck.Test.make ~name:"btree matches list model under random ops"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map print_op ops))
       QCheck.Gen.(list_size (1 -- 200) op_gen))
    (fun ops ->
      let t = Itree.create () in
      let model =
        List.fold_left
          (fun model op ->
            apply_tree t op;
            apply_model model op)
          [] ops
      in
      Itree.check_invariants t;
      Itree.to_list t = sorted_stable model)

let prop_btree_range_model =
  QCheck.Test.make ~name:"btree range scan matches filtered model" ~count:300
    (QCheck.pair
       (QCheck.make
          ~print:(fun ops -> String.concat ";" (List.map print_op ops))
          QCheck.Gen.(list_size (1 -- 100) op_gen))
       (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun (ops, (lo, hi)) ->
      let lo = lo mod 50 and hi = hi mod 50 in
      let lo, hi = (min lo hi, max lo hi) in
      let t = Itree.create () in
      let model =
        List.fold_left
          (fun model op ->
            apply_tree t op;
            apply_model model op)
          [] ops
      in
      let expect =
        sorted_stable model |> List.filter (fun (k, _) -> k >= lo && k <= hi)
      in
      let acc = ref [] in
      Itree.iter_range ~lo:(lo, true) ~hi:(hi, true)
        (fun k v -> acc := (k, v) :: !acc)
        t;
      List.rev !acc = expect)

(* [find_all] and [remove] walk only the entries equal to their key; they
   must return what the generic range walk over [k, k] returns and visit
   and count the same nodes (traces report these profile deltas). *)
let prop_btree_point_ops =
  QCheck.Test.make ~name:"btree point ops match the range walk" ~count:300
    (QCheck.pair
       (QCheck.make
          ~print:(fun ops -> String.concat ";" (List.map print_op ops))
          QCheck.Gen.(list_size (1 -- 200) op_gen))
       (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun (ops, (k, v)) ->
      (* keys mod 50 with up to 200 ops: most probed keys have duplicates *)
      let k = k mod 50 and v = v mod 20 in
      let t = Itree.create () in
      List.iter (apply_tree t) ops;
      let delta f =
        let n0, e0 = Itree.profile t in
        let r = f () in
        let n1, e1 = Itree.profile t in
        (r, (n1 - n0, e1 - e0))
      in
      let walk ?(stop = fun _ -> false) () =
        let acc = ref [] in
        Itree.iter_range ~lo:(k, true) ~hi:(k, true)
          (fun _ x ->
            acc := x :: !acc;
            if stop x then raise Exit)
          t;
        List.rev !acc
      in
      let expect, walk_cost = delta walk in
      let found, find_cost = delta (fun () -> Itree.find_all t k) in
      let first_v, stop_cost = delta (walk ~stop:(Int.equal v)) in
      let removed, remove_cost =
        delta (fun () -> Itree.remove ~veq:Int.equal t k v)
      in
      Itree.check_invariants t;
      found = expect && find_cost = walk_cost
      && removed = List.mem v first_v
      && remove_cost = stop_cost
      && Itree.find_all t k
         = (let rec drop = function
              | [] -> []
              | x :: rest when x = v -> rest
              | x :: rest -> x :: drop rest
            in
            drop expect))

(* ---------- Heap ---------- *)

let test_heap () =
  let h = Storage.Heap.create () in
  let r1 = Storage.Heap.insert h [| Value.Int 1L |] in
  let r2 = Storage.Heap.insert h [| Value.Int 2L |] in
  Alcotest.(check int) "count" 2 (Storage.Heap.row_count h);
  Alcotest.(check bool) "rowids increase" true
    Storage.Row.(r1.rowid < r2.rowid);
  Storage.Heap.delete h r1.Storage.Row.rowid;
  Alcotest.(check int) "count after delete" 1 (Storage.Heap.row_count h);
  let r3 = Storage.Heap.insert h [| Value.Int 3L |] in
  Alcotest.(check bool) "rowid not reused" true
    Storage.Row.(r3.rowid > r2.rowid);
  let scan = Storage.Heap.to_list h in
  Alcotest.(check (list int)) "scan order by rowid"
    [ Int64.to_int r2.Storage.Row.rowid; Int64.to_int r3.Storage.Row.rowid ]
    (List.map (fun r -> Int64.to_int r.Storage.Row.rowid) scan);
  let copy = Storage.Heap.deep_copy h in
  Storage.Heap.delete h r2.Storage.Row.rowid;
  Alcotest.(check int) "deep copy unaffected" 2 (Storage.Heap.row_count copy)

(* The heap caches its sorted rowid order; every write that changes the
   order must drop the cache, and copies must not share staleness. *)
let test_heap_order () =
  let h = Storage.Heap.create () in
  let ids h =
    List.map (fun r -> Int64.to_int r.Storage.Row.rowid) (Storage.Heap.to_list h)
  in
  let v i = [| Value.Int (Int64.of_int i) |] in
  List.iter (fun i -> ignore (Storage.Heap.insert h (v i))) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "inserts" [ 1; 2; 3 ] (ids h);
  ignore (Storage.Heap.insert_with_rowid h ~rowid:10L (v 10));
  ignore (Storage.Heap.insert_with_rowid h ~rowid:7L (v 7));
  Alcotest.(check (list int)) "lower rowid placed in order" [ 1; 2; 3; 7; 10 ]
    (ids h);
  ignore (Storage.Heap.insert_with_rowid h ~rowid:2L (v 20));
  Alcotest.(check (list int)) "overwrite keeps the order" [ 1; 2; 3; 7; 10 ]
    (ids h);
  Alcotest.(check bool) "overwrite stored" true
    (Storage.Heap.find h 2L
    |> Option.map (fun r -> r.Storage.Row.values)
    = Some (v 20));
  let shallow = Storage.Heap.copy h and deep = Storage.Heap.deep_copy h in
  Storage.Heap.delete h 3L;
  Alcotest.(check (list int)) "delete" [ 1; 2; 7; 10 ] (ids h);
  ignore (Storage.Heap.insert shallow (v 11));
  ignore (Storage.Heap.insert_with_rowid deep ~rowid:5L (v 5));
  Alcotest.(check (list int)) "copy" [ 1; 2; 3; 7; 10; 11 ] (ids shallow);
  Alcotest.(check (list int)) "deep copy" [ 1; 2; 3; 5; 7; 10 ] (ids deep);
  Alcotest.(check (list int)) "original unaffected" [ 1; 2; 7; 10 ] (ids h);
  Storage.Heap.clear h;
  Alcotest.(check (list int)) "clear" [] (ids h);
  ignore (Storage.Heap.insert h (v 1));
  Alcotest.(check (list int)) "rowids restart" [ 1 ] (ids h)

(* ---------- Index ---------- *)

let mk_index ?(unique = false) ?(collations = [| Collation.Binary |]) () =
  Storage.Index.create ~name:"i0" ~table:"t0" ~unique
    ~definition:[ { Sqlast.Ast.ic_expr = Sqlast.Ast.col "c0"; ic_collate = None; ic_desc = false } ]
    ~collations ~where:None

let test_index_basic () =
  let ix = mk_index () in
  Storage.Index.add ix ~key:[| Value.Int 1L |] ~rowid:10L;
  Storage.Index.add ix ~key:[| Value.Int 1L |] ~rowid:11L;
  Storage.Index.add ix ~key:[| Value.Int 2L |] ~rowid:12L;
  Alcotest.(check int) "entries" 3 (Storage.Index.entry_count ix);
  Alcotest.(check (list int64)) "find" [ 10L; 11L ]
    (Storage.Index.find_rowids ix [| Value.Int 1L |]);
  Alcotest.(check bool) "remove" true
    (Storage.Index.remove ix ~key:[| Value.Int 1L |] ~rowid:10L);
  Alcotest.(check (list int64)) "after remove" [ 11L ]
    (Storage.Index.find_rowids ix [| Value.Int 1L |]);
  Storage.Index.check_invariants ix

let test_index_collation () =
  let ix = mk_index ~unique:true ~collations:[| Collation.Nocase |] () in
  Storage.Index.add ix ~key:[| Value.Text "A" |] ~rowid:1L;
  (* 'a' collides with 'A' under NOCASE: the unique probe must see it *)
  Alcotest.(check (list int64)) "nocase conflict" [ 1L ]
    (Storage.Index.unique_conflicts ix ~key:[| Value.Text "a" |] ~rowid:2L);
  (* NULL keys never conflict *)
  Storage.Index.add ix ~key:[| Value.Null |] ~rowid:3L;
  Alcotest.(check (list int64)) "null no conflict" []
    (Storage.Index.unique_conflicts ix ~key:[| Value.Null |] ~rowid:4L)

let test_index_rtrim () =
  let ix = mk_index ~unique:true ~collations:[| Collation.Rtrim |] () in
  Storage.Index.add ix ~key:[| Value.Text "x " |] ~rowid:1L;
  Alcotest.(check (list int64)) "rtrim lookup ignores trailing spaces" [ 1L ]
    (Storage.Index.find_rowids ix [| Value.Text "x      " |])

(* ---------- B-tree node shapes and allocation ---------- *)

(* Node shapes and read-path visit counts after fixed op sequences with
   duplicate keys, removes and an index copy.  The expected figures were
   recorded from the copy-on-write node layout that preceded in-place
   shifting: the CLRS algorithm, and so every shape and count, must not
   depend on how a node stores its slots. *)
let profile_delta profile f =
  let n0, e0 = profile () in
  let r = f () in
  let n1, e1 = profile () in
  (r, [ n1 - n0; e1 - e0 ])

let test_btree_shape_golden () =
  let t = Itree.create () in
  for i = 0 to 299 do
    Itree.insert t (i * 37 mod 41) i
  done;
  for i = 0 to 299 do
    if i mod 3 = 1 then
      ignore (Itree.remove ~veq:Int.equal t (i * 37 mod 41) i)
  done;
  Alcotest.(check bool) "remove absent" false
    (Itree.remove ~veq:Int.equal t 5 1000);
  Itree.check_invariants t;
  let profile () = Itree.profile t in
  let ints = Alcotest.(list int) in
  Alcotest.check ints "shape after removes"
    [
      6; 5; 5; 5; 4; 4; 4; 3; 6; 4; 4; 4; 4; 3; 4; 3; 5; 5; 4; 3;
      4; 4; 4; 4; 4; 4; 4; 3; 4; 4; 3; 5; 4; 3; 4; 4; 4; 4; 4; 4;
      4; 6; 4; 4; 3; 5; 4; 3; 4;
    ]
    (Itree.shape t);
  let (), iter_cost =
    profile_delta profile (fun () -> Itree.iter (fun _ _ -> ()) t)
  in
  Alcotest.check ints "iter profile" [ 49; 200 ] iter_cost;
  let found, find_cost = profile_delta profile (fun () -> Itree.find_all t 5) in
  Alcotest.check ints "find_all 5" [ 9; 50; 132; 173; 255; 296 ] found;
  Alcotest.check ints "find_all profile" [ 6; 28 ] find_cost;
  for i = 300 to 399 do
    Itree.insert t (i mod 7) i
  done;
  Alcotest.check ints "shape after reinserts"
    [
      2; 3; 4; 5; 3; 3; 3; 5; 4; 3; 3; 3; 4; 3; 4; 3; 3; 6; 3; 3;
      6; 3; 6; 3; 3; 3; 6; 3; 3; 4; 3; 3; 3; 4; 3; 4; 3; 3; 4; 4;
      4; 3; 4; 3; 4; 3; 5; 5; 4; 3; 4; 4; 4; 3; 4; 4; 4; 4; 3; 4;
      4; 3; 5; 4; 3; 4; 4; 4; 4; 4; 4; 4; 6; 4; 4; 3; 5; 4; 3; 4;
    ]
    (Itree.shape t);
  for i = 0 to 399 do
    let k = if i < 300 then i * 37 mod 41 else i mod 7 in
    ignore (Itree.remove ~veq:Int.equal t k i)
  done;
  Alcotest.check ints "shape when empty" [ 0 ] (Itree.shape t);
  Itree.check_invariants t;
  let ix = mk_index () in
  let key i =
    match i mod 5 with
    | 0 -> [| Value.Int (Int64.of_int (i mod 13)) |]
    | 1 -> [| Value.Text (string_of_int (i mod 11)) |]
    | 2 -> [| Value.Real (float_of_int (i mod 9) /. 2.) |]
    | 3 -> [| Value.Null |]
    | _ -> [| Value.Int (Int64.of_int (i mod 13)); Value.Text "x" |]
  in
  for i = 0 to 149 do
    Storage.Index.add ix ~key:(key i) ~rowid:(Int64.of_int i)
  done;
  for i = 0 to 149 do
    if i mod 4 = 0 then
      ignore (Storage.Index.remove ix ~key:(key i) ~rowid:(Int64.of_int i))
  done;
  Storage.Index.check_invariants ix;
  Alcotest.check ints "index shape"
    [
      3; 7; 4; 3; 4; 3; 3; 4; 3; 3; 4; 4; 4; 5; 4; 4; 5; 3; 3; 3;
      3; 6; 5; 4; 4; 5; 3; 3; 3;
    ]
    (Storage.Index.tree_shape ix);
  let copy, copy_cost =
    profile_delta (fun () -> Storage.Index.tree_profile ix) (fun () ->
        Storage.Index.copy ix)
  in
  Alcotest.check ints "copy profile" [ 29; 112 ] copy_cost;
  Alcotest.check ints "copy shape"
    [
      5; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3;
      3; 3; 3; 3; 3; 3; 7; 3; 3; 3; 3; 3; 3; 3; 4;
    ]
    (Storage.Index.tree_shape copy);
  let found, find_cost =
    profile_delta (fun () -> Storage.Index.tree_profile copy) (fun () ->
        Storage.Index.find_rowids copy [| Value.Int 3L |])
  in
  Alcotest.(check (list int64)) "copy find" [ 42L; 55L; 87L ] found;
  Alcotest.check ints "copy find profile" [ 5; 17 ] find_cost

(* [Index.key_compare]'s fast paths agree in sign with the lexicographic
   [Value.compare_total] order, shorter tuples first, over every pair of
   keys of length 0 to 2 drawn from ROADMAP item 4's 18 values. *)
let test_key_compare_reference () =
  let values =
    Value.
      [
        Null; Int 0L; Int 1L; Int (-1L); Int Int64.max_int; Int Int64.min_int;
        Real 1.5; Real 0.0; Real (-0.5); Text ""; Text "a"; Text "A";
        Text "a "; Text "1"; Text "10"; Text "1.5"; Blob "1"; Bool true;
      ]
  in
  let keys =
    [ [||] ]
    @ List.map (fun v -> [| v |]) values
    @ List.concat_map (fun a -> List.map (fun b -> [| a; b |]) values) values
  in
  let rec reference a b i =
    if i >= Array.length a || i >= Array.length b then
      compare (Array.length a) (Array.length b)
    else
      let c = Value.compare_total a.(i) b.(i) in
      if c <> 0 then c else reference a b (i + 1)
  in
  let sign c = compare c 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let got = sign (Storage.Index.key_compare a b)
          and want = sign (reference a b 0) in
          if got <> want then
            Alcotest.failf "key_compare [%s] [%s]: %d, reference %d"
              (String.concat "; " (Array.to_list (Array.map Value.show a)))
              (String.concat "; " (Array.to_list (Array.map Value.show b)))
              got want)
        keys)
    keys

module Stree = Storage.Btree.Make (struct
  type key = string

  let compare = String.compare
end)

(* A removed entry leaves its node's slots: once collected, neither its
   key nor its value is reachable from the tree, whatever shifts, splits,
   merges and rotations the removes caused. *)
let test_btree_no_retention () =
  let n = 300 in
  let keys = Weak.create n and values = Weak.create n in
  let t = Stree.create () in
  let fill () =
    for i = 0 to n - 1 do
      let k = String.concat "" [ "k"; string_of_int (i mod 40) ] in
      let v = Bytes.make 8 (Char.chr (i mod 256)) in
      Weak.set keys i (Some k);
      Weak.set values i (Some v);
      Stree.insert t k v
    done
  in
  fill ();
  let removed i = i mod 3 <> 0 in
  for i = 0 to n - 1 do
    if removed i then
      match (Weak.get keys i, Weak.get values i) with
      | Some k, Some v -> assert (Stree.remove ~veq:( == ) t k v)
      | _ -> Alcotest.fail "collected while live"
  done;
  Stree.check_invariants t;
  Gc.full_major ();
  for i = 0 to n - 1 do
    let live = Weak.check values i in
    if removed i && live then Alcotest.failf "removed value %d retained" i;
    if not (removed i || live) then Alcotest.failf "live value %d collected" i
  done;
  Alcotest.(check int) "length" (n / 3) (Stree.length (Sys.opaque_identity t));
  for i = 0 to n - 1 do
    match (Weak.get keys i, Weak.get values i) with
    | Some k, Some v -> ignore (Stree.remove ~veq:( == ) t k v)
    | _ -> ()
  done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    if Weak.check values i || Weak.check keys i then
      Alcotest.failf "entry %d retained by an empty tree" i
  done;
  Alcotest.(check bool) "empty" true (Stree.is_empty (Sys.opaque_identity t))

(* ---------- Catalog ---------- *)

let mk_schema name =
  Storage.Schema.make_table ~columns:[| Storage.Schema.column "c0" |] name

let test_catalog () =
  let cat = Storage.Catalog.create () in
  let _ts = Storage.Catalog.add_table cat (mk_schema "t0") in
  Alcotest.(check bool) "exists" true (Storage.Catalog.table_exists cat "t0");
  Alcotest.(check bool) "case insensitive" true
    (Storage.Catalog.table_exists cat "T0");
  Alcotest.(check (list string)) "names" [ "t0" ]
    (Storage.Catalog.table_names cat);
  let ix = mk_index () in
  Storage.Catalog.add_index cat ix;
  Alcotest.(check int) "indexes on t0" 1
    (List.length (Storage.Catalog.indexes_on cat "t0"));
  Alcotest.(check bool) "drop table drops indexes" true
    (Storage.Catalog.drop_table cat "t0");
  Alcotest.(check int) "indexes gone" 0
    (List.length (Storage.Catalog.indexes_on cat "t0"));
  Alcotest.(check bool) "drop missing" false
    (Storage.Catalog.drop_table cat "t0")

let test_catalog_snapshot () =
  let cat = Storage.Catalog.create () in
  let ts = Storage.Catalog.add_table cat (mk_schema "t0") in
  ignore (Storage.Heap.insert ts.Storage.Catalog.heap [| Value.Int 1L |]);
  let snap = Storage.Catalog.snapshot cat in
  ignore (Storage.Heap.insert ts.Storage.Catalog.heap [| Value.Int 2L |]);
  ignore (Storage.Catalog.add_table cat (mk_schema "t1"));
  Storage.Catalog.corrupt cat "malformed";
  Storage.Catalog.restore cat snap;
  Alcotest.(check bool) "t1 rolled back" false
    (Storage.Catalog.table_exists cat "t1");
  Alcotest.(check bool) "corruption rolled back" true
    (Storage.Catalog.corruption cat = None);
  let ts' = Option.get (Storage.Catalog.find_table cat "t0") in
  Alcotest.(check int) "row rolled back" 1
    (Storage.Heap.row_count ts'.Storage.Catalog.heap)

let test_catalog_inheritance () =
  let cat = Storage.Catalog.create () in
  ignore (Storage.Catalog.add_table cat (mk_schema "t0"));
  let child = { (mk_schema "t1") with Storage.Schema.inherits = Some "t0" } in
  ignore (Storage.Catalog.add_table cat child);
  Alcotest.(check (list string)) "children" [ "t1" ]
    (Storage.Catalog.children_of cat "t0")

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_btree_model; prop_btree_range_model; prop_btree_point_ops ]

let () =
  Alcotest.run "storage"
    [
      ( "btree",
        [
          Alcotest.test_case "basic" `Quick test_btree_basic;
          Alcotest.test_case "duplicates" `Quick test_btree_duplicates;
          Alcotest.test_case "range" `Quick test_btree_range;
          Alcotest.test_case "min/max" `Quick test_btree_min_max;
          Alcotest.test_case "shape golden" `Quick test_btree_shape_golden;
          Alcotest.test_case "removed entries not retained" `Quick
            test_btree_no_retention;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap;
          Alcotest.test_case "cached scan order" `Quick test_heap_order;
        ] );
      ( "index",
        [
          Alcotest.test_case "basic" `Quick test_index_basic;
          Alcotest.test_case "nocase unique" `Quick test_index_collation;
          Alcotest.test_case "rtrim lookup" `Quick test_index_rtrim;
          Alcotest.test_case "key_compare reference" `Quick
            test_key_compare_reference;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "tables and indexes" `Quick test_catalog;
          Alcotest.test_case "snapshot/restore" `Quick test_catalog_snapshot;
          Alcotest.test_case "inheritance" `Quick test_catalog_inheritance;
        ] );
      ("properties", qcheck_cases);
    ]
