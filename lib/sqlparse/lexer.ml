type token =
  | IDENT of string
  | KEYWORD of string
  | INT of int64
  | FLOAT of float
  | BIG_INT of string
  | STRING of string
  | BLOB of string
  | OP of string
  | EOF

let pp_token fmt = function
  | IDENT s -> Format.fprintf fmt "ident(%s)" s
  | KEYWORD s -> Format.fprintf fmt "kw(%s)" s
  | INT i -> Format.fprintf fmt "int(%Ld)" i
  | FLOAT f -> Format.fprintf fmt "float(%g)" f
  | BIG_INT s -> Format.fprintf fmt "bigint(%s)" s
  | STRING s -> Format.fprintf fmt "str(%S)" s
  | BLOB s -> Format.fprintf fmt "blob(%S)" s
  | OP s -> Format.fprintf fmt "op(%s)" s
  | EOF -> Format.pp_print_string fmt "eof"

let show_token t = Format.asprintf "%a" pp_token t

let equal_token (a : token) (b : token) = a = b

exception Lex_error of string * int

(* Words that are always keywords; everything else lexes as an identifier.
   Dialect-specific words (PRAGMA, ENGINE, INHERITS, ...) are included
   unconditionally — the parser decides what is legal where. *)
let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER"; "LIMIT";
    "OFFSET"; "DISTINCT"; "ALL"; "AS"; "AND"; "OR"; "NOT"; "NULL"; "IS";
    "IN"; "LIKE"; "GLOB"; "ESCAPE"; "BETWEEN"; "CASE"; "WHEN"; "THEN";
    "ELSE"; "END"; "CAST"; "COLLATE"; "CREATE"; "TABLE"; "INDEX"; "VIEW";
    "DROP"; "ALTER"; "RENAME"; "ADD"; "COLUMN"; "TO"; "INSERT"; "INTO";
    "VALUES"; "UPDATE"; "SET"; "DELETE"; "PRIMARY"; "KEY"; "UNIQUE";
    "DEFAULT"; "CHECK"; "REPAIR"; "WITHOUT"; "ROWID"; "ENGINE"; "INHERITS";
    "UNION"; "INTERSECT"; "EXCEPT"; "JOIN"; "LEFT"; "INNER"; "CROSS"; "ON";
    "IF"; "EXISTS"; "VACUUM"; "FULL"; "REINDEX"; "ANALYZE"; "PRAGMA";
    "GLOBAL"; "STATISTICS"; "DISCARD"; "BEGIN"; "COMMIT"; "ROLLBACK";
    "TRUE"; "FALSE"; "ASC"; "DESC"; "IGNORE"; "REPLACE"; "OR"; "ABORT";
    "TRANSACTION"; "DISTINCT"; "UNSIGNED"; "SIGNED"; "CONFLICT"; "DO";
    "NOTHING"; "UPGRADE"; "FOR"; "USING"; "EXPLAIN"; "OUTER";
  ]

let keyword_set =
  let t = Hashtbl.create 97 in
  List.iter (fun k -> Hashtbl.replace t k ()) keywords;
  t

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let pos = ref 0 in
  let peek k = if !pos + k < n then Some input.[!pos + k] else None in
  let cur () = peek 0 in
  let advance () = incr pos in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let error msg = raise (Lex_error (msg, !pos)) in
  let rec skip_ws () =
    match cur () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some '-' when peek 1 = Some '-' ->
        while cur () <> None && cur () <> Some '\n' do
          advance ()
        done;
        skip_ws ()
    | Some '/' when peek 1 = Some '*' ->
        advance ();
        advance ();
        let rec close () =
          match cur () with
          | None -> error "unterminated comment"
          | Some '*' when peek 1 = Some '/' ->
              advance ();
              advance ()
          | Some _ ->
              advance ();
              close ()
        in
        close ();
        skip_ws ()
    | _ -> ()
  in
  let lex_string quote =
    advance ();
    let buf = Buffer.create 16 in
    let rec go () =
      match cur () with
      | None -> error "unterminated string"
      | Some c when c = quote ->
          if peek 1 = Some quote then begin
            Buffer.add_char buf quote;
            advance ();
            advance ();
            go ()
          end
          else advance ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let lex_number () =
    let start = !pos in
    let is_float = ref false in
    while (match cur () with Some c -> is_digit c | None -> false) do
      advance ()
    done;
    (match (cur (), peek 1) with
    | Some '.', _ ->
        is_float := true;
        advance ();
        while (match cur () with Some c -> is_digit c | None -> false) do
          advance ()
        done
    | _ -> ());
    (match cur () with
    | Some ('e' | 'E') -> (
        match peek 1 with
        | Some c when is_digit c || c = '+' || c = '-' ->
            is_float := true;
            advance ();
            advance ();
            while (match cur () with Some c -> is_digit c | None -> false) do
              advance ()
            done
        | _ -> ())
    | _ -> ());
    let text = String.sub input start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> emit (FLOAT f)
      | None -> error ("bad number: " ^ text)
    else
      match Int64.of_string_opt text with
      | Some i -> emit (INT i)
      | None -> emit (BIG_INT text)
  in
  let hex_val c =
    if is_digit c then Char.code c - Char.code '0'
    else if c >= 'a' && c <= 'f' then 10 + Char.code c - Char.code 'a'
    else if c >= 'A' && c <= 'F' then 10 + Char.code c - Char.code 'A'
    else error "bad hex digit"
  in
  let lex_blob () =
    (* at X, next is quote *)
    advance ();
    let hex = lex_string '\'' in
    if String.length hex mod 2 <> 0 then error "odd-length blob literal";
    let buf = Buffer.create (String.length hex / 2) in
    let i = ref 0 in
    while !i < String.length hex do
      Buffer.add_char buf
        (Char.chr ((hex_val hex.[!i] * 16) + hex_val hex.[!i + 1]));
      i := !i + 2
    done;
    emit (BLOB (Buffer.contents buf))
  in
  let rec loop () =
    skip_ws ();
    match cur () with
    | None -> emit EOF
    | Some c ->
        (match c with
        | '\'' -> emit (STRING (lex_string '\''))
        | '"' ->
            (* double-quoted identifier *)
            emit (IDENT (lex_string '"'))
        | '`' -> emit (IDENT (lex_string '`'))
        | ('x' | 'X') when peek 1 = Some '\'' -> lex_blob ()
        | c when is_digit c -> lex_number ()
        | '.' when (match peek 1 with Some d -> is_digit d | None -> false) ->
            lex_number ()
        | c when is_ident_start c ->
            let start = !pos in
            while
              match cur () with Some c -> is_ident_char c | None -> false
            do
              advance ()
            done;
            let word = String.sub input start (!pos - start) in
            let upper = String.uppercase_ascii word in
            if Hashtbl.mem keyword_set upper then emit (KEYWORD upper)
            else emit (IDENT word)
        | _ ->
            let two () =
              match (cur (), peek 1) with
              | Some a, Some b -> Printf.sprintf "%c%c" a b
              | _ -> ""
            in
            let three () =
              match (cur (), peek 1, peek 2) with
              | Some a, Some b, Some c -> Printf.sprintf "%c%c%c" a b c
              | _ -> ""
            in
            if three () = "<=>" then begin
              emit (OP "<=>");
              advance ();
              advance ();
              advance ()
            end
            else if
              List.mem (two ())
                [ "<="; ">="; "<>"; "!="; "=="; "||"; "<<"; ">>" ]
            then begin
              emit (OP (two ()));
              advance ();
              advance ()
            end
            else if String.contains "+-*/%=<>(),.;&|~" c then begin
              emit (OP (String.make 1 c));
              advance ()
            end
            else error (Printf.sprintf "unexpected character %C" c));
        if
          match !tokens with
          | EOF :: _ -> false
          | _ -> true
        then loop ()
  in
  loop ();
  List.rev !tokens
