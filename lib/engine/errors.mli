(** Engine error model.

    Statements return typed errors with dialect-flavoured message text.  The
    PQS error oracle classifies an error as a bug when it is not in the
    statement's expected list (paper Section 3.3) — corruption and internal
    errors are *never* expected. *)

type code =
  | Syntax_error
  | No_such_table
  | No_such_column
  | No_such_index
  | No_such_view
  | Object_exists  (** table/index/view already exists *)
  | Ambiguous_column
  | Unique_violation
  | Not_null_violation
  | Check_violation
  | Type_error
  | Out_of_range
  | Division_by_zero
  | Invalid_function  (** unknown or dialect-unsupported function/operator *)
  | Invalid_option  (** bad PRAGMA / SET *)
  | Malformed_database  (** database corruption detected *)
  | Internal_error  (** engine invariant failure surfaced to the client *)
  | Unsupported
  | Txn_state  (** BEGIN inside txn, COMMIT outside, ... *)

val pp_code : Format.formatter -> code -> unit
val show_code : code -> string
val equal_code : code -> code -> bool

type t = { code : code; message : string }

val pp : Format.formatter -> t -> unit
val show : t -> string
val make : code -> string -> t
val makef : code -> ('a, unit, string, t) format4 -> 'a

(** Severity classes used by the error oracle. *)
type severity =
  | Ordinary  (** may be expected, depending on the statement *)
  | Corruption  (** always a bug: the database is damaged *)
  | Internal  (** always a bug: engine invariant violation *)

val severity : t -> severity

(** The simulated SEGFAULT: raised instead of returned, mirroring a process
    crash (paper's crash oracle; e.g. Listing 14 / CVE-2019-2879). *)
exception Crash of string
