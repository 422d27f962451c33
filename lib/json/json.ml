type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of string

(* Recursive-descent over a string with an explicit cursor.  The inputs
   are single records or snapshot files (at most a few MB), so there is
   no need for incremental or streaming parsing — strictness is the
   feature: any truncated tail must surface as an error, never as a
   silently shorter value. *)

type cursor = { s : string; mutable i : int }

let fail c msg = raise (Fail (Printf.sprintf "%s at byte %d" msg c.i))
let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let skip_ws c =
  while
    c.i < String.length c.s
    && match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.i <- c.i + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.i <- c.i + 1
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word v =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

let hex_digit = function
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
  | _ -> -1

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> c.i <- c.i + 1
    | Some '\\' -> (
        c.i <- c.i + 1;
        match peek c with
        | None -> fail c "unterminated escape"
        | Some ch ->
            c.i <- c.i + 1;
            (match ch with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if c.i + 4 > String.length c.s then fail c "short \\u escape";
                let v =
                  List.fold_left
                    (fun acc k ->
                      let d = hex_digit c.s.[c.i + k] in
                      if d < 0 then fail c "bad \\u escape" else (acc * 16) + d)
                    0 [ 0; 1; 2; 3 ]
                in
                c.i <- c.i + 4;
                (* {!quote} escapes only control bytes this way; other
                   writers' code points decode to UTF-8 (a lone
                   surrogate becomes U+FFFD) *)
                Buffer.add_utf_8_uchar b
                  (if Uchar.is_valid v then Uchar.of_int v else Uchar.rep)
            | _ -> fail c "unknown escape");
            go ())
    | Some ch ->
        c.i <- c.i + 1;
        Buffer.add_char b ch;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.i in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.i < String.length c.s && is_num_char c.s.[c.i] do
    c.i <- c.i + 1
  done;
  match float_of_string_opt (String.sub c.s start (c.i - start)) with
  | Some f -> Num f
  | None -> fail c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' -> parse_obj c
  | Some '[' -> parse_arr c
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected %C" ch)

and parse_obj c =
  expect c '{';
  skip_ws c;
  if peek c = Some '}' then begin
    c.i <- c.i + 1;
    Obj []
  end
  else
    let rec fields acc =
      skip_ws c;
      let key = parse_string c in
      skip_ws c;
      expect c ':';
      let v = parse_value c in
      skip_ws c;
      match peek c with
      | Some ',' ->
          c.i <- c.i + 1;
          fields ((key, v) :: acc)
      | Some '}' ->
          c.i <- c.i + 1;
          Obj (List.rev ((key, v) :: acc))
      | _ -> fail c "expected ',' or '}'"
    in
    fields []

and parse_arr c =
  expect c '[';
  skip_ws c;
  if peek c = Some ']' then begin
    c.i <- c.i + 1;
    Arr []
  end
  else
    let rec items acc =
      let v = parse_value c in
      skip_ws c;
      match peek c with
      | Some ',' ->
          c.i <- c.i + 1;
          items (v :: acc)
      | Some ']' ->
          c.i <- c.i + 1;
          Arr (List.rev (v :: acc))
      | _ -> fail c "expected ',' or ']'"
    in
    items []

let parse s =
  let c = { s; i = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.i = String.length s then Ok v
      else Error (Printf.sprintf "trailing garbage at byte %d" c.i)
  | exception Fail msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e15 ->
      Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
