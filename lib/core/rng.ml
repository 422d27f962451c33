type t = { state : Random.State.t; mutable counter : int }

let make ~seed = { state = Random.State.make [| seed; 0x5150 |]; counter = 0 }

let split t =
  { state = Random.State.make [| Random.State.bits t.state |]; counter = 0 }

let int t n = Random.State.int t.state n
let int_in t lo hi = lo + Random.State.int t.state (hi - lo + 1)
let int64 t = Random.State.int64 t.state Int64.max_int
let bool t = Random.State.bool t.state
let chance t p = Random.State.float t.state 1.0 < p

let pick t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let pick_array t xs =
  if Array.length xs = 0 then invalid_arg "Rng.pick_array: empty array";
  Array.unsafe_get xs (int t (Array.length xs))

(* [bounds.(i)] is the running total of the weights up to and including
   item [i]; zero-weight items are dropped, as no roll can land on them *)
type 'a weighted = { total : int; bounds : int array; items : 'a array }

let weighted pairs =
  let pairs = List.filter (fun (w, _) -> w > 0) pairs in
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 pairs in
  if total <= 0 then invalid_arg "Rng.weighted: no weight";
  let acc = ref 0 in
  {
    total;
    bounds =
      Array.of_list
        (List.map
           (fun (w, _) ->
             acc := !acc + w;
             !acc)
           pairs);
    items = Array.of_list (List.map snd pairs);
  }

let draw t w =
  let roll = int t w.total in
  let rec go i = if roll < Array.unsafe_get w.bounds i then i else go (i + 1) in
  Array.unsafe_get w.items (go 0)

let pick_weighted t pairs =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 pairs in
  if total <= 0 then invalid_arg "Rng.pick_weighted: no weight";
  let roll = int t total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.pick_weighted: unreachable"
    | (w, x) :: rest -> if roll < acc + w then x else go (acc + w) rest
  in
  go 0 pairs

let shuffle t xs =
  let tagged = List.map (fun x -> (Random.State.bits t.state, x)) xs in
  List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) tagged)

let sample t k xs =
  let shuffled = shuffle t xs in
  List.filteri (fun i _ -> i < k) shuffled

let identifier t ~prefix =
  t.counter <- t.counter + 1;
  Printf.sprintf "%s%d_%d" prefix t.counter (int t 1000)

let interesting_strings =
  [
    ""; " "; "  "; "a"; "A"; "ab"; "aB"; "./"; "0"; "1"; "-1"; "0.5"; "1x";
    "12abc"; "%"; "_"; "NULL"; "true"; "'";
  ]

let small_string t =
  if chance t 0.5 then pick t interesting_strings
  else begin
    let len = int t 6 in
    String.init len (fun _ ->
        let c = int t 64 in
        Char.chr (Char.code ' ' + c))
  end

let interesting_ints =
  [
    0L; 1L; -1L; 2L; 3L; 10L; 100L; 127L; 128L; -128L; 255L; 32767L;
    2147483647L; -2147483648L; 2147483648L; 9223372036854775807L;
    -9223372036854775807L; 2851427734582196970L; 2035382037L;
  ]

let interesting_int t =
  if chance t 0.6 then Int64.of_int (int_in t (-50) 50)
  else pick t interesting_ints

let interesting_reals =
  [ 0.0; 0.5; -0.5; 1.0; -1.0; 1.5; 1e10; -1e10; 9.22e18; 0.1 ]

let interesting_real t =
  if chance t 0.5 then
    Float.of_int (int_in t (-1000) 1000) /. 8.0
  else pick t interesting_reals
