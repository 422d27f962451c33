(* Classic CLRS B-tree of minimum degree [t_min], with mutable nodes.

   Duplicate user keys are supported by tagging every entry with a unique
   sequence number and ordering internally by (key, seq); internal keys are
   therefore distinct and deletion is the standard unique-key algorithm.
   Equal user keys enumerate in insertion order because seq increases.

   Nodes are fixed-capacity: an entry array of [max_entries] slots and, in
   an internal node, a child array of [max_entries + 1], with a count of
   the live prefix.  Insert, delete, split, merge and rotate shift slots in
   place.  Slots past the count hold [Vacant] (entries) or the node itself
   (children), so an array never keeps alive an entry or a node that left
   it.  Every per-comparison and per-entry step is a top-level function:
   no walk, search or comparison builds a closure. *)

module Make (Ord : sig
  type key

  val compare : key -> key -> int
end) =
struct
  let t_min = 4
  let max_entries = (2 * t_min) - 1

  type 'v slot = Vacant | Entry of { ukey : Ord.key; seq : int; value : 'v }

  type 'v node = {
    mutable count : int; (* live entries: slots [0, count) *)
    entries : 'v slot array; (* [max_entries] slots *)
    mutable children : 'v node array;
        (* [||] iff leaf, else [max_entries + 1] slots, [count + 1] live *)
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

  let new_leaf () =
    { count = 0; entries = Array.make max_entries Vacant; children = [||] }

  let new_internal () =
    let n = new_leaf () in
    n.children <- Array.make (max_entries + 1) n;
    n

  let create () =
    {
      root = new_leaf ();
      size = 0;
      next_seq = 0;
      nodes_visited = 0;
      entries_scanned = 0;
    }

  let profile t = (t.nodes_visited, t.entries_scanned)
  let length t = t.size
  let is_empty t = t.size = 0
  let is_leaf n = Array.length n.children = 0
  let vacant () = invalid_arg "Btree: vacant slot read"
  let ukey = function Entry e -> e.ukey | Vacant -> vacant ()
  let is_vacant = function Vacant -> true | Entry _ -> false

  let cmp_entry a b =
    match (a, b) with
    | Entry a, Entry b ->
        let c = Ord.compare a.ukey b.ukey in
        if c <> 0 then c else Int.compare a.seq b.seq
    | _ -> vacant ()

  (* Shift [a.(i .. len-1)] right by one and put [x] at [i]; the slot at
     [len] must be free. *)
  let insert_at a len i x =
    Array.blit a i a (i + 1) (len - i);
    a.(i) <- x

  (* Shift [a.(i+1 .. len-1)] left by one and fill the freed slot
     [len - 1] with [free]. *)
  let remove_at a len i free =
    Array.blit a (i + 1) a i (len - i - 1);
    a.(len - 1) <- free

  (* first index in [lo, hi) whose entry is >= e *)
  let rec lower_bound_in entries e lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cmp_entry entries.(mid) e < 0 then
        lower_bound_in entries e (mid + 1) hi
      else lower_bound_in entries e lo mid

  let lower_bound node e = lower_bound_in node.entries e 0 node.count

  (* ---------------- insertion ---------------- *)

  (* Split the full child [i] of [parent] around its median, which moves up
     to separator [i]; the upper half becomes child [i + 1]. *)
  let split_child parent i =
    let child = parent.children.(i) in
    let mid = t_min - 1 in
    let median = child.entries.(mid) in
    let leaf = is_leaf child in
    let right = if leaf then new_leaf () else new_internal () in
    Array.blit child.entries (mid + 1) right.entries 0 (t_min - 1);
    Array.fill child.entries mid t_min Vacant;
    if not leaf then begin
      Array.blit child.children t_min right.children 0 t_min;
      Array.fill child.children t_min t_min child
    end;
    right.count <- t_min - 1;
    child.count <- mid;
    let n = parent.count in
    insert_at parent.entries n i median;
    insert_at parent.children (n + 1) (i + 1) right;
    parent.count <- n + 1

  let rec insert_nonfull node e =
    let i = lower_bound node e in
    if is_leaf node then begin
      insert_at node.entries node.count i e;
      node.count <- node.count + 1
    end
    else begin
      let i =
        if node.children.(i).count = max_entries then begin
          split_child node i;
          if cmp_entry e node.entries.(i) > 0 then i + 1 else i
        end
        else i
      in
      insert_nonfull node.children.(i) e
    end

  let insert t key value =
    let e = Entry { ukey = key; seq = t.next_seq; value } in
    t.next_seq <- t.next_seq + 1;
    if t.root.count = max_entries then begin
      let new_root = new_internal () in
      new_root.children.(0) <- t.root;
      split_child new_root 0;
      t.root <- new_root
    end;
    insert_nonfull t.root e;
    t.size <- t.size + 1

  (* ---------------- traversal ---------------- *)

  let above_lo lo k =
    match lo with
    | None -> true
    | Some (bound, inclusive) ->
        let c = Ord.compare k bound in
        if inclusive then c >= 0 else c > 0

  let below_hi hi k =
    match hi with
    | None -> true
    | Some (bound, inclusive) ->
        let c = Ord.compare k bound in
        if inclusive then c <= 0 else c < 0

  let emit lo hi f = function
    | Entry e ->
        if above_lo lo e.ukey && below_hi hi e.ukey then f e.ukey e.value
    | Vacant -> vacant ()

  (* In-order walk over entries whose user key may satisfy the bounds; each
     emitted entry is additionally filtered by the exact bound predicates.
     Subtree [i] of a node holds internal keys between separators [i-1] and
     [i], hence user keys in [sep_{i-1}.ukey, sep_i.ukey]; we prune subtrees
     whose user-key interval cannot intersect [lo, hi].  [f] may raise [Exit]
     to stop early. *)
  let rec range_walk t lo hi f node =
    let n = node.count in
    t.nodes_visited <- t.nodes_visited + 1;
    t.entries_scanned <- t.entries_scanned + n;
    if is_leaf node then
      for i = 0 to n - 1 do
        emit lo hi f node.entries.(i)
      done
    else
      for i = 0 to n do
        (* subtree i spans user keys [sep_{i-1}.ukey, sep_i.ukey] *)
        if
          (i = n || above_lo lo (ukey node.entries.(i)))
          && (i = 0 || below_hi hi (ukey node.entries.(i - 1)))
        then range_walk t lo hi f node.children.(i);
        if i < n then emit lo hi f node.entries.(i)
      done

  let iter_range ?lo ?hi f t = try range_walk t lo hi f t.root with Exit -> ()
  let iter f t = iter_range f t

  let to_list t =
    let acc = ref [] in
    iter (fun k v -> acc := (k, v) :: !acc) t;
    List.rev !acc

  (* The point walks below visit and count the same nodes as [range_walk]
     over the range [key, key], at one comparison per entry examined:
     subtree [i] can hold [key] iff [sep_{i-1} <= key <= sep_i], and a walk
     only moves right past separators at or below [key], so the left bound
     always holds. *)

  (* The values bound to [key] under [node], consed onto [acc] in reverse
     order. *)
  let rec collect_equal t key node acc =
    t.nodes_visited <- t.nodes_visited + 1;
    t.entries_scanned <- t.entries_scanned + node.count;
    collect_from t key node 0 acc

  and collect_from t key node i acc =
    let leaf = is_leaf node in
    if i = node.count then
      if leaf then acc else collect_equal t key node.children.(i) acc
    else
      match node.entries.(i) with
      | Vacant -> vacant ()
      | Entry e ->
          let c = Ord.compare e.ukey key in
          let acc =
            if (not leaf) && c >= 0 then
              collect_equal t key node.children.(i) acc
            else acc
          in
          let acc = if c = 0 then e.value :: acc else acc in
          if c <= 0 then collect_from t key node (i + 1) acc else acc

  (* The first entry bound to [key] whose value is [veq] to [value], or
     [Vacant]; stops there. *)
  let rec first_equal t key veq value node =
    t.nodes_visited <- t.nodes_visited + 1;
    t.entries_scanned <- t.entries_scanned + node.count;
    first_from t key veq value node 0

  and first_from t key veq value node i =
    let leaf = is_leaf node in
    if i = node.count then
      if leaf then Vacant else first_equal t key veq value node.children.(i)
    else
      match node.entries.(i) with
      | Vacant -> vacant ()
      | Entry e as slot -> (
          let c = Ord.compare e.ukey key in
          let below =
            if (not leaf) && c >= 0 then
              first_equal t key veq value node.children.(i)
            else Vacant
          in
          match below with
          | Entry _ -> below
          | Vacant ->
              if c = 0 && veq e.value value then slot
              else if c <= 0 then first_from t key veq value node (i + 1)
              else Vacant)

  let find_all t key = List.rev (collect_equal t key t.root [])
  let mem t key = find_all t key <> []

  let rec min_node node =
    if is_leaf node then node.entries.(0) else min_node node.children.(0)

  let rec max_node node =
    if is_leaf node then node.entries.(node.count - 1)
    else max_node node.children.(node.count)

  let binding = function Entry e -> Some (e.ukey, e.value) | Vacant -> None
  let min_binding t =
    if t.root.count = 0 then None else binding (min_node t.root)

  let max_binding t =
    if t.root.count = 0 then None else binding (max_node t.root)

  (* ---------------- deletion ---------------- *)

  (* Merge children i and i+1 around separator i; returns the merged child.
     The right child is dropped whole: nothing refers to it afterwards. *)
  let merge_children node i =
    let left = node.children.(i) and right = node.children.(i + 1) in
    let ln = left.count and rn = right.count in
    left.entries.(ln) <- node.entries.(i);
    Array.blit right.entries 0 left.entries (ln + 1) rn;
    if not (is_leaf left) then
      Array.blit right.children 0 left.children (ln + 1) (rn + 1);
    left.count <- ln + 1 + rn;
    let n = node.count in
    remove_at node.entries n i Vacant;
    remove_at node.children (n + 1) (i + 1) node;
    node.count <- n - 1;
    left

  (* Ensure child [i] has >= t_min entries before descending (CLRS case 3);
     returns the index of the child that now covers the same key range. *)
  let fill node i =
    let child = node.children.(i) in
    let cn = child.count in
    if cn >= t_min then i
    else
      let nkeys = node.count in
      if i > 0 && node.children.(i - 1).count >= t_min then begin
        (* rotate right: parent separator down, left sibling's max up *)
        let left = node.children.(i - 1) in
        let ln = left.count in
        insert_at child.entries cn 0 node.entries.(i - 1);
        node.entries.(i - 1) <- left.entries.(ln - 1);
        left.entries.(ln - 1) <- Vacant;
        if not (is_leaf left) then begin
          let moved = left.children.(ln) in
          left.children.(ln) <- left;
          insert_at child.children (cn + 1) 0 moved
        end;
        left.count <- ln - 1;
        child.count <- cn + 1;
        i
      end
      else if i < nkeys && node.children.(i + 1).count >= t_min then begin
        (* rotate left: parent separator down, right sibling's min up *)
        let right = node.children.(i + 1) in
        let rn = right.count in
        child.entries.(cn) <- node.entries.(i);
        node.entries.(i) <- right.entries.(0);
        remove_at right.entries rn 0 Vacant;
        if not (is_leaf right) then begin
          let moved = right.children.(0) in
          remove_at right.children (rn + 1) 0 right;
          child.children.(cn + 1) <- moved
        end;
        right.count <- rn - 1;
        child.count <- cn + 1;
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
      remove_at node.entries node.count 0 Vacant;
      node.count <- node.count - 1;
      e
    end
    else delete_min node.children.(fill node 0)

  let rec delete_max node =
    if is_leaf node then begin
      let n = node.count in
      let e = node.entries.(n - 1) in
      node.entries.(n - 1) <- Vacant;
      node.count <- n - 1;
      e
    end
    else begin
      let i = fill node node.count in
      delete_max node.children.(min i node.count)
    end

  (* Delete the (unique) entry comparing equal to [e]; assumes it exists. *)
  let rec delete_entry node e =
    let i = lower_bound node e in
    let found = i < node.count && cmp_entry node.entries.(i) e = 0 in
    if found then begin
      if is_leaf node then begin
        remove_at node.entries node.count i Vacant;
        node.count <- node.count - 1
      end
      else
        let left = node.children.(i) and right = node.children.(i + 1) in
        if left.count >= t_min then node.entries.(i) <- delete_max left
        else if right.count >= t_min then node.entries.(i) <- delete_min right
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
    match first_equal t key veq value t.root with
    | Vacant -> false
    | e ->
        delete_entry t.root e;
        if t.root.count = 0 && not (is_leaf t.root) then
          t.root <- t.root.children.(0);
        t.size <- t.size - 1;
        true

  (* ---------------- invariants ---------------- *)

  let rec shape_from node acc =
    let acc = node.count :: acc in
    if is_leaf node then acc
    else begin
      let acc = ref acc in
      for i = 0 to node.count do
        acc := shape_from node.children.(i) !acc
      done;
      !acc
    end

  let shape t = List.rev (shape_from t.root [])

  let check_invariants t =
    let fail msg = invalid_arg ("Btree invariant violated: " ^ msg) in
    let count = ref 0 in
    let rec check node ~is_root ~depth =
      let n = node.count in
      count := !count + n;
      if not is_root && n < t_min - 1 then fail "underfull node";
      if n > max_entries || Array.length node.entries <> max_entries then
        fail "overfull node";
      for i = 0 to max_entries - 1 do
        if (i < n) = is_vacant node.entries.(i) then fail "entry slot"
      done;
      for i = 0 to n - 2 do
        if cmp_entry node.entries.(i) node.entries.(i + 1) >= 0 then
          fail "entries out of order"
      done;
      if is_leaf node then depth
      else begin
        if Array.length node.children <> max_entries + 1 then
          fail "children arity";
        for i = 0 to max_entries do
          if (i <= n) = (node.children.(i) == node) then fail "child slot"
        done;
        let depths =
          List.init (n + 1) (fun i ->
              check node.children.(i) ~is_root:false ~depth:(depth + 1))
        in
        (match depths with
        | [] -> fail "internal node without children"
        | d :: rest ->
            if List.exists (fun d' -> d' <> d) rest then
              fail "non-uniform leaf depth");
        for i = 0 to n - 1 do
          let sep = node.entries.(i) in
          if node.children.(i).count > 0
             && cmp_entry (max_node node.children.(i)) sep >= 0
          then fail "left subtree >= separator";
          if node.children.(i + 1).count > 0
             && cmp_entry (min_node node.children.(i + 1)) sep <= 0
          then fail "right subtree <= separator"
        done;
        List.hd depths
      end
    in
    ignore (check t.root ~is_root:true ~depth:0);
    if !count <> t.size then fail "size mismatch"
end
