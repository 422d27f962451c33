type t = True | False | Unknown [@@deriving show { with_path = false }, eq]

let all = [ True; False; Unknown ]
let of_bool b = if b then True else False
let ok_true = Ok True
let ok_false = Ok False
let ok_unknown = Ok Unknown
let ok = function True -> ok_true | False -> ok_false | Unknown -> ok_unknown
let to_bool ~null = function True -> true | False -> false | Unknown -> null
let not_ = function True -> False | False -> True | Unknown -> Unknown

let and_ a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, True -> True
  | _ -> Unknown

let or_ a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, False -> False
  | _ -> Unknown

let and_lazy a b = match a with False -> False | True | Unknown -> and_ a (b ())
let or_lazy a b = match a with True -> True | False | Unknown -> or_ a (b ())
