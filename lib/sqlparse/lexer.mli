(** SQL lexer: hand-written tokenizer shared by all three dialect
    grammars. *)

type token =
  | IDENT of string  (** bare or quoted identifier *)
  | KEYWORD of string  (** upper-cased reserved word *)
  | INT of int64
  | FLOAT of float
  | BIG_INT of string
      (** all-digit literal beyond int64, as written: a REAL like in
          sqlite, except that [-9223372036854775808] is INTEGER *)
  | STRING of string  (** '...' literal, quotes unescaped *)
  | BLOB of string  (** X'....' literal, decoded bytes *)
  | OP of string  (** operator/punctuation: (, ), =, <=, <=>, ||, ... *)
  | EOF

val pp_token : Format.formatter -> token -> unit
val show_token : token -> string
val equal_token : token -> token -> bool

exception Lex_error of string * int  (** message, byte offset *)

(** Tokenize a full input; raises {!Lex_error} on malformed input.
    SQL comments ([--] and [/* */]) are skipped. *)
val tokenize : string -> token list
