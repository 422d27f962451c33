type code =
  | Syntax_error
  | No_such_table
  | No_such_column
  | No_such_index
  | No_such_view
  | Object_exists
  | Ambiguous_column
  | Unique_violation
  | Not_null_violation
  | Check_violation
  | Type_error
  | Out_of_range
  | Division_by_zero
  | Invalid_function
  | Invalid_option
  | Malformed_database
  | Internal_error
  | Unsupported
  | Txn_state
[@@deriving show { with_path = false }, eq]

type t = { code : code; message : string }

let pp fmt t = Format.fprintf fmt "[%s] %s" (show_code t.code) t.message
let show t = Format.asprintf "%a" pp t
let make code message = { code; message }
(* [Printf], not [Format]: replayed scripts raise errors by the thousand,
   and no message needs a pretty-printing directive *)
let makef code fmt = Printf.ksprintf (fun message -> { code; message }) fmt

type severity = Ordinary | Corruption | Internal

let severity t =
  match t.code with
  | Malformed_database -> Corruption
  | Internal_error -> Internal
  | Syntax_error | No_such_table | No_such_column | No_such_index
  | No_such_view | Object_exists | Ambiguous_column | Unique_violation
  | Not_null_violation | Check_violation | Type_error | Out_of_range
  | Division_by_zero | Invalid_function | Invalid_option | Unsupported
  | Txn_state ->
      Ordinary

exception Crash of string
