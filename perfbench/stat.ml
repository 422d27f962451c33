(* Order statistics and ratios for the benchmark's reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* nearest rank of percentile [p] among [n] samples; the slack keeps
   e.g. 99.9% of 10000 at rank 9990 despite rounding *)
let rank n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

(* nearest-rank percentile of an ascending array; nan when empty *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan else a.(max 0 (min (n - 1) (rank n p - 1)))

let median xs = percentile (sorted xs) 50.

(* samples strictly above the nearest rank of percentile [p] *)
let beyond n p = n - rank n p

let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* The highest percentile of [ladder] that has at least ten samples beyond
   it, with its value: a tail figure is only reported where enough samples
   sit above it to make it repeatable. *)
let tail a =
  let n = Array.length a in
  match List.find_opt (fun p -> beyond n p >= 10) ladder with
  | Some p -> Some (p, percentile a p)
  | None -> None

(* [a / b], 0 when nothing was measured *)
let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)
