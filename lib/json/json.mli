(** The repository's one JSON codec.

    Every machine-written record — fleet and campaign heartbeats,
    telemetry snapshots, Chrome traces, flight-recorder logs, frontier
    snapshots — escapes its strings with {!quote}, and every reader in the
    tree decodes with {!parse}.  Encoders stay hand-built (printf over
    quoted strings) so each format controls its own layout; this module
    owns only the parts that must agree: string escaping and a strict
    recursive-descent parser for objects, arrays, strings with the
    standard escapes, numbers, booleans and null.  Trailing garbage or a
    truncated document is an [Error], which is what makes the heartbeat
    tailers robust to partial writes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields in document order *)

(** Parse one complete JSON document; [Error msg] on any syntax error,
    truncation or trailing garbage. *)
val parse : string -> (t, string) result

(** {1 Accessors} — total lookups for decoding hand-written records. *)

(** Field of an object ([None] for other constructors or missing key). *)
val member : string -> t -> t option

(** [Some] only for an integer-valued number of magnitude at most 1e15. *)
val to_int : t -> int option

val to_float : t -> float option

val to_str : t -> string option
val to_list : t -> t list option
val to_bool : t -> bool option

(** {1 Encoding} *)

(** Escape a string into a quoted JSON literal.  The double quote and
    the backslash are backslash-escaped, newline, carriage return and tab
    get their short escapes, other control bytes [\u00XX]; every other
    byte passes through, so [parse (quote s) = Ok (Str s)] for any byte
    string [s]. *)
val quote : string -> string
