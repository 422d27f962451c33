(* Classic CLRS B-tree of minimum degree [t_min], with mutable nodes.

   Duplicate user keys are supported by tagging every entry with a unique
   sequence number and ordering internally by (key, seq); internal keys are
   therefore distinct and deletion is the standard unique-key algorithm.
   Equal user keys enumerate in insertion order because seq increases. *)

module Make (Ord : sig
  type key

  val compare : key -> key -> int
end) =
struct
  let t_min = 4
  let max_entries = (2 * t_min) - 1

  type 'v entry = { ukey : Ord.key; seq : int; value : 'v }

  type 'v node = {
    mutable entries : 'v entry array;
    mutable children : 'v node array; (* empty iff leaf *)
  }

  type 'v t = {
    mutable root : 'v node;
    mutable size : int;
    mutable next_seq : int;
    (* read-path profiling: cumulative over the tree's lifetime, bumped by
       [range_walk] only (inserts/deletes are not profiled) *)
    mutable nodes_visited : int;
    mutable entries_scanned : int;
  }

  let leaf_node entries = { entries; children = [||] }

  let create () =
    {
      root = leaf_node [||];
      size = 0;
      next_seq = 0;
      nodes_visited = 0;
      entries_scanned = 0;
    }

  let profile t = (t.nodes_visited, t.entries_scanned)
  let length t = t.size
  let is_empty t = t.size = 0
  let is_leaf n = Array.length n.children = 0

  let cmp_entry a b =
    let c = Ord.compare a.ukey b.ukey in
    if c <> 0 then c else compare a.seq b.seq

  let array_insert a i x =
    let n = Array.length a in
    let b = Array.make (n + 1) x in
    Array.blit a 0 b 0 i;
    Array.blit a i b (i + 1) (n - i);
    b

  let array_remove a i =
    let n = Array.length a in
    if n = 1 then [||]
    else begin
      let b = Array.make (n - 1) a.(0) in
      Array.blit a 0 b 0 i;
      Array.blit a (i + 1) b i (n - i - 1);
      b
    end

  (* first index whose entry is >= e *)
  let lower_bound entries e =
    let n = Array.length entries in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cmp_entry entries.(mid) e < 0 then go (mid + 1) hi else go lo mid
    in
    go 0 n

  (* ---------------- insertion ---------------- *)

  let split_child parent i =
    let child = parent.children.(i) in
    let mid = t_min - 1 in
    let median = child.entries.(mid) in
    let right =
      {
        entries = Array.sub child.entries (mid + 1) (t_min - 1);
        children =
          (if is_leaf child then [||] else Array.sub child.children t_min t_min);
      }
    in
    child.entries <- Array.sub child.entries 0 mid;
    if not (is_leaf child) then
      child.children <- Array.sub child.children 0 t_min;
    parent.entries <- array_insert parent.entries i median;
    parent.children <- array_insert parent.children (i + 1) right

  let rec insert_nonfull node e =
    let i = lower_bound node.entries e in
    if is_leaf node then node.entries <- array_insert node.entries i e
    else begin
      let i =
        if Array.length node.children.(i).entries = max_entries then begin
          split_child node i;
          if cmp_entry e node.entries.(i) > 0 then i + 1 else i
        end
        else i
      in
      insert_nonfull node.children.(i) e
    end

  let insert t key value =
    let e = { ukey = key; seq = t.next_seq; value } in
    t.next_seq <- t.next_seq + 1;
    if Array.length t.root.entries = max_entries then begin
      let old_root = t.root in
      let new_root = { entries = [||]; children = [| old_root |] } in
      split_child new_root 0;
      t.root <- new_root
    end;
    insert_nonfull t.root e;
    t.size <- t.size + 1

  (* ---------------- traversal ---------------- *)

  (* In-order walk over entries whose user key may satisfy the bounds; each
     emitted entry is additionally filtered by the exact bound predicates.
     Subtree [i] of a node holds internal keys between separators [i-1] and
     [i], hence user keys in [sep_{i-1}.ukey, sep_i.ukey]; we prune subtrees
     whose user-key interval cannot intersect [lo, hi].  [f] may raise [Exit]
     to stop early. *)
  let range_walk ?lo ?hi f t =
    let above_lo k =
      match lo with
      | None -> true
      | Some (bound, inclusive) ->
          let c = Ord.compare k bound in
          if inclusive then c >= 0 else c > 0
    in
    let below_hi k =
      match hi with
      | None -> true
      | Some (bound, inclusive) ->
          let c = Ord.compare k bound in
          if inclusive then c <= 0 else c < 0
    in
    let rec walk node =
      let n = Array.length node.entries in
      t.nodes_visited <- t.nodes_visited + 1;
      t.entries_scanned <- t.entries_scanned + n;
      if is_leaf node then
        Array.iter
          (fun e -> if above_lo e.ukey && below_hi e.ukey then f e)
          node.entries
      else
        for i = 0 to n do
          (* subtree i spans user keys [sep_{i-1}.ukey, sep_i.ukey] *)
          let subtree_possible =
            (i = n || above_lo node.entries.(i).ukey)
            && (i = 0 || below_hi node.entries.(i - 1).ukey)
          in
          if subtree_possible then walk node.children.(i);
          if i < n then begin
            let e = node.entries.(i) in
            if above_lo e.ukey && below_hi e.ukey then f e
          end
        done
    in
    try walk t.root with Exit -> ()

  let iter_range ?lo ?hi f t = range_walk ?lo ?hi (fun e -> f e.ukey e.value) t
  let iter f t = iter_range f t

  let to_list t =
    let acc = ref [] in
    iter (fun k v -> acc := (k, v) :: !acc) t;
    List.rev !acc

  (* The entries whose user key equals [key], in order, until [f] returns
     true.  Visits and counts the same nodes as [range_walk] over the range
     [key, key], at one comparison per entry examined: subtree [i] can hold
     [key] iff [sep_{i-1} <= key <= sep_i], and the walk only moves right
     past separators at or below [key], so the left bound always holds.
     Top-level rather than local closures, so a walk allocates nothing. *)
  let rec equal_walk t key f node =
    let n = Array.length node.entries in
    t.nodes_visited <- t.nodes_visited + 1;
    t.entries_scanned <- t.entries_scanned + n;
    equal_from t key f node n 0

  and equal_from t key f node n i =
    let leaf = is_leaf node in
    if i = n then (not leaf) && equal_walk t key f node.children.(n)
    else
      let e = node.entries.(i) in
      let c = Ord.compare e.ukey key in
      ((not leaf) && c >= 0 && equal_walk t key f node.children.(i))
      || (c = 0 && f e)
      || (c <= 0 && equal_from t key f node n (i + 1))

  let find_all t key =
    let acc = ref [] in
    ignore
      (equal_walk t key
         (fun e ->
           acc := e.value :: !acc;
           false)
         t.root);
    List.rev !acc

  let mem t key = find_all t key <> []

  let min_binding t =
    let rec go node =
      if Array.length node.entries = 0 then None
      else if is_leaf node then
        let e = node.entries.(0) in
        Some (e.ukey, e.value)
      else go node.children.(0)
    in
    go t.root

  let max_binding t =
    let rec go node =
      let n = Array.length node.entries in
      if n = 0 then None
      else if is_leaf node then
        let e = node.entries.(n - 1) in
        Some (e.ukey, e.value)
      else go node.children.(n)
    in
    go t.root

  (* ---------------- deletion ---------------- *)

  let merge_children node i =
    (* merge children i and i+1 around separator i; returns the merged child *)
    let left = node.children.(i) and right = node.children.(i + 1) in
    let sep = node.entries.(i) in
    left.entries <- Array.concat [ left.entries; [| sep |]; right.entries ];
    if not (is_leaf left) then
      left.children <- Array.append left.children right.children;
    node.entries <- array_remove node.entries i;
    node.children <- array_remove node.children (i + 1);
    left

  (* Ensure child [i] has >= t_min entries before descending (CLRS case 3);
     returns the index of the child that now covers the same key range. *)
  let fill node i =
    let child = node.children.(i) in
    if Array.length child.entries >= t_min then i
    else
      let nkeys = Array.length node.entries in
      if i > 0 && Array.length node.children.(i - 1).entries >= t_min then begin
        (* rotate right: parent separator down, left sibling's max up *)
        let left = node.children.(i - 1) in
        let ln = Array.length left.entries in
        child.entries <- array_insert child.entries 0 node.entries.(i - 1);
        node.entries.(i - 1) <- left.entries.(ln - 1);
        left.entries <- array_remove left.entries (ln - 1);
        if not (is_leaf left) then begin
          let lc = Array.length left.children in
          let moved = left.children.(lc - 1) in
          left.children <- array_remove left.children (lc - 1);
          child.children <- array_insert child.children 0 moved
        end;
        i
      end
      else if i < nkeys && Array.length node.children.(i + 1).entries >= t_min
      then begin
        (* rotate left: parent separator down, right sibling's min up *)
        let right = node.children.(i + 1) in
        child.entries <-
          array_insert child.entries (Array.length child.entries)
            node.entries.(i);
        node.entries.(i) <- right.entries.(0);
        right.entries <- array_remove right.entries 0;
        if not (is_leaf right) then begin
          let moved = right.children.(0) in
          right.children <- array_remove right.children 0;
          child.children <-
            array_insert child.children (Array.length child.children) moved
        end;
        i
      end
      else begin
        let li = if i < nkeys then i else i - 1 in
        ignore (merge_children node li);
        li
      end

  let rec delete_min node =
    if is_leaf node then begin
      let e = node.entries.(0) in
      node.entries <- array_remove node.entries 0;
      e
    end
    else delete_min node.children.(fill node 0)

  let rec delete_max node =
    if is_leaf node then begin
      let n = Array.length node.entries in
      let e = node.entries.(n - 1) in
      node.entries <- array_remove node.entries (n - 1);
      e
    end
    else begin
      let i = fill node (Array.length node.children - 1) in
      delete_max node.children.(min i (Array.length node.children - 1))
    end

  (* Delete the (unique) entry comparing equal to [e]; assumes it exists. *)
  let rec delete_entry node e =
    let i = lower_bound node.entries e in
    let found =
      i < Array.length node.entries && cmp_entry node.entries.(i) e = 0
    in
    if found then begin
      if is_leaf node then node.entries <- array_remove node.entries i
      else
        let left = node.children.(i) and right = node.children.(i + 1) in
        if Array.length left.entries >= t_min then
          node.entries.(i) <- delete_max left
        else if Array.length right.entries >= t_min then
          node.entries.(i) <- delete_min right
        else
          (* both poor: merge around the target, then delete from the merge *)
          delete_entry (merge_children node i) e
    end
    else if is_leaf node then raise Not_found
    else
      (* e is strictly between separators i-1 and i, so it lives in subtree
         i; [fill] preserves that subtree's coverage and returns its index *)
      delete_entry node.children.(fill node i) e

  let remove ~veq t key value =
    let target = ref None in
    ignore
      (equal_walk t key
         (fun e ->
           veq e.value value
           &&
           (target := Some e;
            true))
         t.root);
    match !target with
    | None -> false
    | Some e ->
        delete_entry t.root e;
        if Array.length t.root.entries = 0 && not (is_leaf t.root) then
          t.root <- t.root.children.(0);
        t.size <- t.size - 1;
        true

  (* ---------------- invariants ---------------- *)

  let check_invariants t =
    let fail msg = invalid_arg ("Btree invariant violated: " ^ msg) in
    let count = ref 0 in
    let rec max_entry nd =
      let m = Array.length nd.entries in
      if is_leaf nd then nd.entries.(m - 1) else max_entry nd.children.(m)
    in
    let rec min_entry nd =
      if is_leaf nd then nd.entries.(0) else min_entry nd.children.(0)
    in
    let rec check node ~is_root ~depth =
      let n = Array.length node.entries in
      count := !count + n;
      if not is_root && n < t_min - 1 then fail "underfull node";
      if n > max_entries then fail "overfull node";
      for i = 0 to n - 2 do
        if cmp_entry node.entries.(i) node.entries.(i + 1) >= 0 then
          fail "entries out of order"
      done;
      if is_leaf node then depth
      else begin
        if Array.length node.children <> n + 1 then fail "children arity";
        let depths =
          Array.to_list node.children
          |> List.map (fun c -> check c ~is_root:false ~depth:(depth + 1))
        in
        (match depths with
        | [] -> fail "internal node without children"
        | d :: rest ->
            if List.exists (fun d' -> d' <> d) rest then
              fail "non-uniform leaf depth");
        for i = 0 to n - 1 do
          let sep = node.entries.(i) in
          if Array.length node.children.(i).entries > 0
             && cmp_entry (max_entry node.children.(i)) sep >= 0
          then fail "left subtree >= separator";
          if Array.length node.children.(i + 1).entries > 0
             && cmp_entry (min_entry node.children.(i + 1)) sep <= 0
          then fail "right subtree <= separator"
        done;
        List.hd depths
      end
    in
    ignore (check t.root ~is_root:true ~depth:0);
    if !count <> t.size then fail "size mismatch"
end
