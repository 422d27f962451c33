(* Test-side accessors over the repository's [Json] codec: each lookup
   either returns the value or fails with a message naming what was
   missing, so a malformed export fails its test at the first bad
   field. *)

let parse_json s =
  match Json.parse s with Ok j -> j | Error e -> failwith ("bad JSON: " ^ e)

let member k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith ("missing member " ^ k)

let member_opt = Json.member

let get what conv j =
  match conv j with Some v -> v | None -> failwith ("not " ^ what)

let jarr = get "an array" Json.to_list
let jstr = get "a string" Json.to_str
let jnum = get "a number" Json.to_float
let jint j = int_of_float (jnum j)
