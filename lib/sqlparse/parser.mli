(** Recursive-descent SQL parser over {!Lexer} tokens.

    The grammar covers the dialect superset that {!Sqlast.Sql_printer}
    emits, so printing then parsing round-trips (property tested).  A
    minus sign directly before a numeric literal folds into the literal:
    [- 5] parses as the literal [-5], not as a negation.  Errors are
    returned, not raised. *)

type error = { message : string; position : int }

val pp_error : Format.formatter -> error -> unit
val show_error : error -> string

(** Parse one expression (no trailing input allowed). *)
val parse_expr : string -> (Sqlast.Ast.expr, error) result

(** Parse one statement; a trailing [;] is allowed. *)
val parse_stmt : string -> (Sqlast.Ast.stmt, error) result

(** Parse a [;]-separated script. *)
val parse_script : string -> (Sqlast.Ast.stmt list, error) result
