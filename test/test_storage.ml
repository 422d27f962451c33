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
        ] );
      ( "catalog",
        [
          Alcotest.test_case "tables and indexes" `Quick test_catalog;
          Alcotest.test_case "snapshot/restore" `Quick test_catalog_snapshot;
          Alcotest.test_case "inheritance" `Quick test_catalog_inheritance;
        ] );
      ("properties", qcheck_cases);
    ]
