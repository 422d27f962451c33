open Sqlval

(* The options with engine-visible semantics are mirrored into fields:
   the engine reads them per row, and a field read is all that costs.
   [set] is the only writer of [values], so it keeps them in sync.  A new
   session shares its dialect's default table until its first [set]
   copies it: most sessions (every reducer replay) never set an option. *)
type t = {
  dialect : Dialect.t;
  mutable values : (string, Value.t) Hashtbl.t;
  mutable shared : bool;  (** [values] is the dialect's default table *)
  mutable like_pragma_touched : bool;
  mutable case_sensitive_like : bool;
  mutable reverse_unordered_selects : bool;
  mutable ignore_check_constraints : bool;
}

let known = function
  | Dialect.Sqlite_like ->
      [
        ("case_sensitive_like", Value.Int 0L);
        ("reverse_unordered_selects", Value.Int 0L);
        ("ignore_check_constraints", Value.Int 0L);
        ("cell_size_check", Value.Int 0L);
        ("legacy_file_format", Value.Int 0L);
      ]
  | Dialect.Mysql_like ->
      [
        ("key_cache_division_limit", Value.Int 100L);
        ("sql_mode", Value.Text "");
        ("max_heap_table_size", Value.Int 16777216L);
        ("sort_buffer_size", Value.Int 262144L);
        ("optimizer_switch", Value.Text "default");
      ]
  | Dialect.Postgres_like ->
      [
        ("enable_seqscan", Value.Bool true);
        ("enable_indexscan", Value.Bool true);
        ("work_mem", Value.Int 4096L);
        ("default_statistics_target", Value.Int 100L);
        ("jit", Value.Bool false);
      ]

let truthy = function
  | Some (Value.Int i) -> i <> 0L
  | Some (Value.Bool b) -> b
  | _ -> false

let get t name = Hashtbl.find_opt t.values (String.lowercase_ascii name)

let sync t =
  t.case_sensitive_like <- truthy (get t "case_sensitive_like");
  t.reverse_unordered_selects <- truthy (get t "reverse_unordered_selects");
  t.ignore_check_constraints <- truthy (get t "ignore_check_constraints")

let defaults dialect =
  let values = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace values k v) (known dialect);
  let t =
    {
      dialect;
      values;
      shared = true;
      like_pragma_touched = false;
      case_sensitive_like = false;
      reverse_unordered_selects = false;
      ignore_check_constraints = false;
    }
  in
  sync t;
  t

(* each dialect's defaults are built once; their tables are never written *)
let sqlite_defaults = defaults Dialect.Sqlite_like
let mysql_defaults = defaults Dialect.Mysql_like
let postgres_defaults = defaults Dialect.Postgres_like

(* a fresh record, so its mutable fields are the session's own *)
let create dialect =
  {
    (match dialect with
    | Dialect.Sqlite_like -> sqlite_defaults
    | Dialect.Mysql_like -> mysql_defaults
    | Dialect.Postgres_like -> postgres_defaults)
    with
    shared = true;
  }

let set t name value =
  let name = String.lowercase_ascii name in
  match Hashtbl.find_opt t.values name with
  | None ->
      Eval.failf Errors.Invalid_option "unknown option or pragma: %s" name
  | Some current ->
      let compatible =
        match (current, value) with
        | Value.Int _, Value.Int _
        | Value.Text _, Value.Text _
        | Value.Bool _, Value.Bool _ ->
            true
        (* booleans are settable as 0/1 everywhere *)
        | Value.Bool _, Value.Int _ | Value.Int _, Value.Bool _ -> true
        | _ -> false
      in
      if not compatible then
        Eval.failf Errors.Invalid_option "incorrect argument type for %s" name
      else begin
        if name = "case_sensitive_like" then t.like_pragma_touched <- true;
        if t.shared then begin
          t.values <- Hashtbl.copy t.values;
          t.shared <- false
        end;
        Hashtbl.replace t.values name value;
        sync t
      end

let case_sensitive_like t = t.case_sensitive_like
let reverse_unordered_selects t = t.reverse_unordered_selects
let ignore_check_constraints t = t.ignore_check_constraints
let like_pragma_touched t = t.like_pragma_touched
