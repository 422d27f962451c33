(* Flight recorder: a bounded ring buffer of structured per-round events.

   Each runner round (and each EXPLAIN ANALYZE execution) fills a recorder
   with the causal record of what happened: every statement sent to the
   engine, the pivot row chosen, each generated expression with its
   interpreter verdict and rectification, planner access-path decisions
   and per-operator executor annotations.  In steady state the recorder is
   nearly free: the buffer is pre-sized at creation, recording is O(1)
   with no allocation beyond the entry itself, and the [Noop] sink turns
   every operation into a single branch (the same discipline as
   [Telemetry.noop]).  When an oracle fires the recorder drains into a
   self-contained repro bundle (module {!Bundle}).

   Recording never draws randomness and never changes engine control
   flow, so enabling the recorder is campaign-neutral: the bug set of a
   run is identical with tracing on or off (gated by `bench trace`). *)

open Sqlval
module A = Sqlast.Ast

(* ------------------------------------------------------------------ *)
(* Events                                                              *)

module Event = struct
  type outcome =
    | Rows of int
    | Affected of int
    | Done
    | Error of string
    | Crashed of string

  type t =
    | Statement of { stmt : A.stmt; outcome : outcome; dur_ns : int }
    | Pivot of { source : string; row : string list }
    | Expr of { raw : A.expr; verdict : Tvl.t; rectified : A.expr }
    | Plan of { table : string; path : string }
    | Op of {
        op : string;
        detail : string;
        rows_in : int;
        rows_out : int;
        batches : int;
        btree_nodes : int;
        btree_entries : int;
        dur_ns : int;
      }
    | Oracle_fired of { oracle : string; message : string; phase : string }
    | Note of string

  let kind = function
    | Statement _ -> "statement"
    | Pivot _ -> "pivot"
    | Expr _ -> "expression"
    | Plan _ -> "plan"
    | Op _ -> "operator"
    | Oracle_fired _ -> "oracle"
    | Note _ -> "note"
end

type entry = { ts_ns : int; event : Event.t }

(* ------------------------------------------------------------------ *)
(* The ring buffer                                                     *)

(* The hot path is structure-of-arrays on purpose.  An [entry array] ring
   costs a 3-word record plus a boxed int64 per event, all of it retained
   by the (major-heap) ring until the round ends — measured at ~8% of
   campaign wall time in GC promotion and barrier work.  Storing the
   event pointer and an immediate-int timestamp in two parallel arrays
   keeps [record] down to one barriered store; [entry] values are only
   materialised on the cold drain path ({!events}). *)
type state = {
  capacity : int;
  ev : Event.t array;
  ts : int array; (* ns since t0; an immediate int, so no write barrier *)
  mutable len : int;
  mutable next : int; (* write cursor *)
  mutable dropped : int;
  mutable t0 : int;
  mutable seed : int;
  mutable dialect : Dialect.t;
}

type t = Noop | Rec of state

let dummy_event = Event.Note ""

let create ?(capacity = 1024) () =
  let capacity = max 1 capacity in
  Rec
    {
      capacity;
      ev = Array.make capacity dummy_event;
      ts = Array.make capacity 0;
      len = 0;
      next = 0;
      dropped = 0;
      t0 = Telemetry.Clock.now_ns_int ();
      seed = 0;
      dialect = Dialect.Sqlite_like;
    }

let noop = Noop
let enabled = function Noop -> false | Rec _ -> true

let begin_round t ~seed ~dialect =
  match t with
  | Noop -> ()
  | Rec s ->
      (* drop references to the previous round's events so their graphs
         (statement ASTs, detail strings) can be collected promptly *)
      Array.fill s.ev 0 (min s.len s.capacity) dummy_event;
      s.len <- 0;
      s.next <- 0;
      s.dropped <- 0;
      s.t0 <- Telemetry.Clock.now_ns_int ();
      s.seed <- seed;
      s.dialect <- dialect

(* variant for call sites that just read the clock to compute a duration:
   reuses that reading as the entry timestamp instead of taking another *)
let record_at t ~now_ns event =
  match t with
  | Noop -> ()
  | Rec s ->
      s.ev.(s.next) <- event;
      s.ts.(s.next) <- now_ns - s.t0;
      s.next <- (s.next + 1) mod s.capacity;
      if s.len < s.capacity then s.len <- s.len + 1
      else s.dropped <- s.dropped + 1

let record t event =
  match t with
  | Noop -> ()
  | Rec _ -> record_at t ~now_ns:(Telemetry.Clock.now_ns_int ()) event

let note t msg = record t (Event.Note msg)

let events = function
  | Noop -> []
  | Rec s ->
      let start = (s.next - s.len + s.capacity) mod s.capacity in
      List.init s.len (fun i ->
          let j = (start + i) mod s.capacity in
          { ts_ns = s.ts.(j); event = s.ev.(j) })

let length = function Noop -> 0 | Rec s -> s.len
let dropped = function Noop -> 0 | Rec s -> s.dropped
let capacity = function Noop -> 0 | Rec s -> s.capacity
let seed = function Noop -> 0 | Rec s -> s.seed
let dialect = function Noop -> Dialect.Sqlite_like | Rec s -> s.dialect

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> Json.quote k ^ ":" ^ v) fields)
  ^ "}"

let entry_json dialect e =
  let base = [ ("ts_ns", string_of_int e.ts_ns) ] in
  let fields =
    match e.event with
    | Event.Statement { stmt; outcome; dur_ns } ->
        let outcome_fields =
          match outcome with
          | Event.Rows n -> [ ("outcome", {|"rows"|}); ("rows", string_of_int n) ]
          | Event.Affected n ->
              [ ("outcome", {|"affected"|}); ("rows", string_of_int n) ]
          | Event.Done -> [ ("outcome", {|"ok"|}) ]
          | Event.Error msg ->
              [ ("outcome", {|"error"|}); ("error", Json.quote msg) ]
          | Event.Crashed msg ->
              [ ("outcome", {|"crash"|}); ("error", Json.quote msg) ]
        in
        [
          ("type", {|"statement"|});
          ("sql", Json.quote (Sqlast.Sql_printer.stmt dialect stmt));
        ]
        @ outcome_fields
        @ [ ("dur_ns", string_of_int dur_ns) ]
    | Event.Pivot { source; row } ->
        [
          ("type", {|"pivot"|});
          ("source", Json.quote source);
          ("row", "[" ^ String.concat "," (List.map Json.quote row) ^ "]");
        ]
    | Event.Expr { raw; verdict; rectified } ->
        [
          ("type", {|"expression"|});
          ("raw", Json.quote (Sqlast.Sql_printer.expr dialect raw));
          ("verdict", Json.quote (Tvl.show verdict));
          ("rectified", Json.quote (Sqlast.Sql_printer.expr dialect rectified));
        ]
    | Event.Plan { table; path } ->
        [
          ("type", {|"plan"|});
          ("table", Json.quote table);
          ("path", Json.quote path);
        ]
    | Event.Op { op; detail; rows_in; rows_out; batches; btree_nodes;
                 btree_entries; dur_ns } ->
        [
          ("type", {|"operator"|});
          ("op", Json.quote op);
          ("detail", Json.quote detail);
          ("rows_in", string_of_int rows_in);
          ("rows_out", string_of_int rows_out);
          ("batches", string_of_int batches);
          ("btree_nodes", string_of_int btree_nodes);
          ("btree_entries", string_of_int btree_entries);
          ("dur_ns", string_of_int dur_ns);
        ]
    | Event.Oracle_fired { oracle; message; phase } ->
        [
          ("type", {|"oracle"|});
          ("oracle", Json.quote oracle);
          ("message", Json.quote message);
          ("phase", Json.quote phase);
        ]
    | Event.Note msg -> [ ("type", {|"note"|}); ("note", Json.quote msg) ]
  in
  obj (base @ fields)

let to_json t =
  let d = dialect t in
  obj
    [
      ("round_seed", string_of_int (seed t));
      ("dialect", Json.quote (Dialect.name d));
      ("clock", Json.quote Telemetry.Clock.source);
      ("capacity", string_of_int (capacity t));
      ("dropped", string_of_int (dropped t));
      ( "events",
        "[" ^ String.concat "," (List.map (entry_json d) (events t)) ^ "]" );
    ]
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Repro bundles                                                       *)

let mkdir_p path =
  let rec go p =
    if p = "" || p = "." || p = "/" || Sys.file_exists p then ()
    else begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let write_text path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc text)

module Bundle = struct
  type t = {
    b_seed : int;
    b_dialect : Dialect.t;
    b_oracle : string; (* stable token, e.g. "containment" *)
    b_message : string;
    b_phase : string;
    b_bugs : string list;
    b_statements : A.stmt list;
    b_expected : string option;
    b_actual : string option;
    b_plan : string list;
    b_trace_json : string;
  }

  let one_line s =
    String.map (function '\n' | '\r' -> ' ' | c -> c) s

  let header b =
    [
      "-- pqs repro bundle";
      Printf.sprintf "-- dialect: %s" (Dialect.name b.b_dialect);
      Printf.sprintf "-- seed: %d" b.b_seed;
      Printf.sprintf "-- oracle: %s" b.b_oracle;
      Printf.sprintf "-- phase: %s" b.b_phase;
      Printf.sprintf "-- bugs: %s" (String.concat "," b.b_bugs);
      Printf.sprintf "-- message: %s" (one_line b.b_message);
    ]

  (* the [repro.sql] content: a [-- key: value] self-describing header
     followed by the replayable script *)
  let script_text b =
    String.concat "\n"
      (header b
      @ [ Sqlast.Sql_printer.script b.b_dialect b.b_statements ])
    ^ "\n"

  let dir_name b = Printf.sprintf "bundle-%06d-%s" b.b_seed b.b_oracle

  let to_json b =
    obj
      [
        ("seed", string_of_int b.b_seed);
        ("dialect", Json.quote (Dialect.name b.b_dialect));
        ("oracle", Json.quote b.b_oracle);
        ("message", Json.quote b.b_message);
        ("phase", Json.quote b.b_phase);
        ( "bugs",
          "[" ^ String.concat "," (List.map Json.quote b.b_bugs) ^ "]" );
        ("statements", string_of_int (List.length b.b_statements));
        ( "expected",
          match b.b_expected with None -> "null" | Some s -> Json.quote s );
        ( "actual",
          match b.b_actual with None -> "null" | Some s -> Json.quote s );
        ( "plan",
          "[" ^ String.concat "," (List.map Json.quote b.b_plan) ^ "]" );
      ]
    ^ "\n"

  let write ~dir b =
    let bundle_dir = Filename.concat dir (dir_name b) in
    mkdir_p bundle_dir;
    let sql_path = Filename.concat bundle_dir "repro.sql" in
    write_text sql_path (script_text b);
    write_text (Filename.concat bundle_dir "bundle.json") (to_json b);
    write_text (Filename.concat bundle_dir "trace.json") b.b_trace_json;
    sql_path

  (* After reducer minimization the bundle's script is re-derived in
     place: the self-describing header lines are kept (plus a marker) and
     the statement body is replaced with the reduced script. *)
  let rewrite_script ~sql_path ~dialect stmts =
    let headers =
      if not (Sys.file_exists sql_path) then []
      else begin
        let ic = open_in sql_path in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
            let acc = ref [] in
            (try
               while true do
                 let line = input_line ic in
                 if String.length line >= 2 && String.sub line 0 2 = "--" then
                   acc := line :: !acc
               done
             with End_of_file -> ());
            List.rev !acc)
      end
    in
    let headers =
      List.filter
        (fun l -> not (String.length l >= 10 && String.sub l 0 10 = "-- reduced"))
        headers
      @ [ "-- reduced: true" ]
    in
    write_text sql_path
      (String.concat "\n" (headers @ [ Sqlast.Sql_printer.script dialect stmts ])
      ^ "\n")

  (* Parse the self-describing header of a repro script back into
     (key, value) pairs; the SQL body is everything that is not a comment
     line. *)
  let parse_script_text text =
    let lines = String.split_on_char '\n' text in
    let headers, body =
      List.fold_left
        (fun (hs, body) line ->
          let trimmed = String.trim line in
          if String.length trimmed >= 2 && String.sub trimmed 0 2 = "--" then
            let rest = String.trim (String.sub trimmed 2 (String.length trimmed - 2)) in
            match String.index_opt rest ':' with
            | Some i ->
                let key = String.trim (String.sub rest 0 i) in
                let value =
                  String.trim (String.sub rest (i + 1) (String.length rest - i - 1))
                in
                ((key, value) :: hs, body)
            | None -> (hs, body)
          else (hs, line :: body))
        ([], []) lines
    in
    (List.rev headers, String.concat "\n" (List.rev body))
end
