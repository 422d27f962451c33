type entry = { hits : int; first_seed : int }

(* Canonical representation: association list sorted by point name.  Every
   constructor below preserves the ordering, so structurally equal values
   are exactly the equal frontiers and [union] is commutative by
   construction. *)
type t = (string * entry) list

let empty = []

let combine a b =
  { hits = a.hits + b.hits; first_seed = min a.first_seed b.first_seed }

let rec insert point e = function
  | [] -> [ (point, e) ]
  | (p, e') :: rest as l ->
      let c = String.compare point p in
      if c < 0 then (point, e) :: l
      else if c = 0 then (p, combine e e') :: rest
      else (p, e') :: insert point e rest

let hit t ~seed point = insert point { hits = 1; first_seed = seed } t

let of_points ~seed points =
  (* sort once and merge adjacent duplicates: O(n log n), not the O(n^2)
     of repeated sorted-insertion — this is the per-round accounting path
     (a round's expr-kind multiset is the large input) *)
  List.sort String.compare points
  |> List.fold_left
       (fun acc p ->
         match acc with
         | (p', e) :: rest when String.equal p p' ->
             (p', { e with hits = e.hits + 1 }) :: rest
         | _ -> (p, { hits = 1; first_seed = seed }) :: acc)
       []
  |> List.rev

let rec union a b =
  match (a, b) with
  | [], t | t, [] -> t
  | (pa, ea) :: ra, (pb, eb) :: rb ->
      let c = String.compare pa pb in
      if c < 0 then (pa, ea) :: union ra b
      else if c > 0 then (pb, eb) :: union a rb
      else (pa, combine ea eb) :: union ra rb

let copy t =
  List.map
    (fun (p, e) -> (String.sub p 0 (String.length p), { e with hits = e.hits }))
    t
let points t = t

let of_entries entries =
  (* re-canonicalize: decoded input may be unsorted or carry duplicates *)
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries
  |> List.fold_left
       (fun acc (p, e) ->
         match acc with
         | (p', e') :: rest when String.equal p p' ->
             (p', combine e e') :: rest
         | _ -> (p, e) :: acc)
       []
  |> List.rev
let hits t point =
  match List.assoc_opt point t with Some e -> e.hits | None -> 0

let cardinal = List.length

(* ------------------------------------------------------------------ *)
(* Universe-relative views                                              *)

let hit_in ~universe t =
  List.fold_left
    (fun acc p -> if hits t p > 0 then acc + 1 else acc)
    0 universe

let fraction ~universe t =
  match universe with
  | [] -> 0.0
  | _ ->
      float_of_int (hit_in ~universe t) /. float_of_int (List.length universe)

let cold ~universe t = List.filter (fun p -> hits t p = 0) universe

let coldest ?(n = 10) ~universe t =
  let ranked = List.mapi (fun i p -> (hits t p, i, p)) universe in
  let sorted = List.sort compare ranked in
  let rec take k = function
    | [] -> []
    | (h, _, p) :: rest -> if k = 0 then [] else (p, h) :: take (k - 1) rest
  in
  take n sorted

(* ------------------------------------------------------------------ *)
(* Export                                                               *)

let to_json ~universe ?(bundles = []) t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"universe\": %d,\n" (List.length universe));
  Buffer.add_string buf
    (Printf.sprintf "  \"hit\": %d,\n" (hit_in ~universe t));
  Buffer.add_string buf
    (Printf.sprintf "  \"fraction\": %.4f,\n" (fraction ~universe t));
  Buffer.add_string buf "  \"points\": [";
  List.iteri
    (fun i (p, e) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"point\": %s, \"hits\": %d, \"first_seed\": %d}"
           (Json.quote p) e.hits e.first_seed))
    t;
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"cold\": [";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Json.quote p))
    (cold ~universe t);
  Buffer.add_string buf "],\n";
  Buffer.add_string buf "  \"bundles\": [";
  List.iteri
    (fun i b ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Json.quote b))
    bundles;
  Buffer.add_string buf "]\n}\n";
  Buffer.contents buf

let write_json ~universe ?bundles t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ~universe ?bundles t))
