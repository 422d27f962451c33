(* Metrics registry, phase spans, monotonic clock and exporters.

   A registry is a plain hashtable of series owned by one domain; cross-
   domain aggregation is merge-after-join (Campaign gives each worker its
   own registry), so no operation here takes a lock.  The Noop sink makes
   every recording a single branch so instrumentation can stay threaded
   unconditionally through the hot paths. *)

module Clock = struct
  (* the bechamel stub's external, redeclared here so reads compile to a
     direct noalloc call with an unboxed result — through the
     [Monotonic_clock.now] alias every read costs two calls and a boxed
     int64, which the span hot path pays twice per span *)
  external clock_ns : unit -> (int64[@unboxed])
    = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
    [@@noalloc]

  let now_ns () = clock_ns ()

  (* alloc-free variant for per-event instrumentation: the unboxed
     external result is narrowed to an immediate int in-register, so no
     Int64 box is ever created (63 bits of nanoseconds ≈ 292 years) *)
  let[@inline] now_ns_int () = Int64.to_int (clock_ns ())
  let[@inline] now () = Int64.to_float (clock_ns ()) *. 1e-9
  let source = "clock_monotonic"
end

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 5e-4; 1e-3; 5e-3; 0.025; 0.1; 0.5; 2.5; 10.0 |]

type hist = {
  h_bounds : float array;
  h_cells : int array; (* per-bucket (non-cumulative) observation counts *)
  mutable h_overflow : int; (* observations above the last bound *)
  mutable h_sum : float;
  mutable h_count : int;
}

type counter_cell = { mutable c : int }
type gauge_cell = { mutable g : float }

type metric =
  | M_counter of counter_cell
  | M_gauge of gauge_cell
  | M_hist of hist

type series = {
  se_name : string;
  se_labels : (string * string) list; (* sorted by key *)
  se_metric : metric;
}

(* The fixed span taxonomy (README "Observability"): loop phases record
   into pqs_phase_seconds, engine phases into minidb_phase_seconds.  A
   closed enum lets each registry keep a per-phase cache array, so timing
   a phase costs an array read instead of a table lookup. *)
module Phase = struct
  type t =
    | Gen_db
    | Pivot
    | Gen_expr
    | Rectify
    | Interp
    | Containment
    | Plan_diff
    | Const_opt
    | Parse
    | Plan
    | Execute

  let index = function
    | Gen_db -> 0
    | Pivot -> 1
    | Gen_expr -> 2
    | Rectify -> 3
    | Interp -> 4
    | Containment -> 5
    | Plan_diff -> 6
    | Const_opt -> 7
    | Parse -> 8
    | Plan -> 9
    | Execute -> 10

  let count = 11

  let name = function
    | Gen_db -> "gen_db"
    | Pivot -> "pivot"
    | Gen_expr -> "gen_expr"
    | Rectify -> "rectify"
    | Interp -> "interp"
    | Containment -> "containment"
    | Plan_diff -> "plan_diff"
    | Const_opt -> "const_opt"
    | Parse -> "parse"
    | Plan -> "plan"
    | Execute -> "execute"

  let metric = function
    | Parse | Plan | Execute -> "minidb_phase_seconds"
    | Gen_db | Pivot | Gen_expr | Rectify | Interp | Containment | Plan_diff
    | Const_opt ->
        "pqs_phase_seconds"

  let all =
    [
      Gen_db; Pivot; Gen_expr; Rectify; Interp; Containment; Plan_diff;
      Const_opt; Parse; Plan; Execute;
    ]
end

type state = {
  tbl : (string, series) Hashtbl.t;
  (* memo for singleton-label series resolution on the hot path, keyed
     (name, label key, label value); entries alias the metric records in
     [tbl], which merging mutates in place, so the memo never goes stale *)
  memo1 : (string * string * string, metric) Hashtbl.t;
  (* per-phase histogram cache, indexed by [Phase.index]; filled on first
     use so untouched phases don't appear in exports *)
  phases : hist option array;
}

type t = Noop | Active of state

let create () =
  Active
    {
      tbl = Hashtbl.create 64;
      memo1 = Hashtbl.create 32;
      phases = Array.make Phase.count None;
    }

let noop = Noop
let enabled = function Noop -> false | Active _ -> true

let canon_labels = function
  | ([] | [ _ ]) as labels -> labels
  | labels -> List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let series_key name labels =
  match labels with
  | [] -> name
  | labels ->
      let b = Buffer.create 32 in
      Buffer.add_string b name;
      List.iter
        (fun (k, v) ->
          Buffer.add_char b '\x00';
          Buffer.add_string b k;
          Buffer.add_char b '\x01';
          Buffer.add_string b v)
        labels;
      Buffer.contents b

let find_or_create st name labels mk =
  let labels = canon_labels labels in
  let key = series_key name labels in
  match Hashtbl.find_opt st.tbl key with
  | Some s -> s.se_metric
  | None ->
      let m = mk () in
      Hashtbl.replace st.tbl key
        { se_name = name; se_labels = labels; se_metric = m };
      m

(* single-label series are the common hot case (phase=..., kind=...,
   path=...); resolve them through [memo1] to skip the key building *)
let find_fast st name labels mk =
  match labels with
  | [ (k, v) ] -> (
      let key = (name, k, v) in
      match Hashtbl.find_opt st.memo1 key with
      | Some m -> m
      | None ->
          let m = find_or_create st name labels mk in
          Hashtbl.replace st.memo1 key m;
          m)
  | _ -> find_or_create st name labels mk

let inc t ?(labels = []) ?(by = 1) name =
  match t with
  | Noop -> ()
  | Active st -> (
      match find_fast st name labels (fun () -> M_counter { c = 0 }) with
      | M_counter r -> r.c <- r.c + by
      | _ -> invalid_arg ("Telemetry.inc: " ^ name ^ " is not a counter"))

let set_gauge t ?(labels = []) name v =
  match t with
  | Noop -> ()
  | Active st -> (
      match find_fast st name labels (fun () -> M_gauge { g = 0.0 }) with
      | M_gauge r -> r.g <- v
      | _ -> invalid_arg ("Telemetry.set_gauge: " ^ name ^ " is not a gauge"))

let fresh_hist bounds =
  {
    h_bounds = Array.copy bounds;
    h_cells = Array.make (Array.length bounds) 0;
    h_overflow = 0;
    h_sum = 0.0;
    h_count = 0;
  }

let[@inline] hist_observe h v =
  let n = Array.length h.h_bounds in
  let rec place i =
    if i >= n then h.h_overflow <- h.h_overflow + 1
    else if v <= h.h_bounds.(i) then h.h_cells.(i) <- h.h_cells.(i) + 1
    else place (i + 1)
  in
  place 0;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1

let observe t ?(labels = []) ?(buckets = default_buckets) name v =
  match t with
  | Noop -> ()
  | Active st -> (
      match find_fast st name labels (fun () -> M_hist (fresh_hist buckets)) with
      | M_hist h -> hist_observe h v
      | _ -> invalid_arg ("Telemetry.observe: " ^ name ^ " is not a histogram"))

(* Pre-resolved handles: [None] is the inert (noop) handle; [Some cell]
   aliases the series cell in [tbl], which merging mutates in place, so
   handles never go stale. *)
type counter_handle = counter_cell option
type histogram_handle = hist option

let counter_handle t ?(labels = []) name =
  match t with
  | Noop -> None
  | Active st -> (
      match find_fast st name labels (fun () -> M_counter { c = 0 }) with
      | M_counter r -> Some r
      | _ ->
          invalid_arg ("Telemetry.counter_handle: " ^ name ^ " is not a counter"))

let histogram_handle t ?(labels = []) ?(buckets = default_buckets) name =
  match t with
  | Noop -> None
  | Active st -> (
      match find_fast st name labels (fun () -> M_hist (fresh_hist buckets)) with
      | M_hist h -> Some h
      | _ ->
          invalid_arg
            ("Telemetry.histogram_handle: " ^ name ^ " is not a histogram"))

let inc_handle ?(by = 1) = function
  | None -> ()
  | Some r -> r.c <- r.c + by

let observe_handle h v =
  match h with None -> () | Some h -> hist_observe h v

let span_hist st metric phase =
  match
    find_fast st metric
      [ ("phase", phase) ]
      (fun () -> M_hist (fresh_hist default_buckets))
  with
  | M_hist h -> h
  | _ -> invalid_arg ("Telemetry.Span.time: " ^ metric ^ " is not a histogram")

module Span = struct
  let time t ?(metric = "pqs_phase_seconds") phase f =
    match t with
    | Noop -> f ()
    | Active st -> (
        let h = span_hist st metric phase in
        let t0 = Clock.now () in
        match f () with
        | r ->
            hist_observe h (Clock.now () -. t0);
            r
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            hist_observe h (Clock.now () -. t0);
            Printexc.raise_with_backtrace e bt)

  let phase_hist st p =
    let i = Phase.index p in
    match Array.unsafe_get st.phases i with
    | Some h -> h
    | None ->
        let h = span_hist st (Phase.metric p) (Phase.name p) in
        st.phases.(i) <- Some h;
        h

  let timed t p f =
    match t with
    | Noop -> f ()
    | Active st -> (
        let h = phase_hist st p in
        let t0 = Clock.now () in
        match f () with
        | r ->
            hist_observe h (Clock.now () -. t0);
            r
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            hist_observe h (Clock.now () -. t0);
            Printexc.raise_with_backtrace e bt)
end

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)

let add_into_metric ~name dst src =
  match (dst, src) with
  | M_counter d, M_counter s -> d.c <- d.c + s.c
  | M_gauge d, M_gauge s -> d.g <- d.g +. s.g
  | M_hist d, M_hist s ->
      if d.h_bounds <> s.h_bounds then
        invalid_arg
          ("Telemetry.merge: histogram " ^ name ^ " has mismatched buckets");
      Array.iteri (fun i n -> d.h_cells.(i) <- d.h_cells.(i) + n) s.h_cells;
      d.h_overflow <- d.h_overflow + s.h_overflow;
      d.h_sum <- d.h_sum +. s.h_sum;
      d.h_count <- d.h_count + s.h_count
  | _ -> invalid_arg ("Telemetry.merge: series " ^ name ^ " changed type")

let merge_into ~dst ~src =
  match (dst, src) with
  | Noop, _ | _, Noop -> ()
  | Active d, Active s ->
      Hashtbl.iter
        (fun key se ->
          let mk () =
            match se.se_metric with
            | M_counter _ -> M_counter { c = 0 }
            | M_gauge _ -> M_gauge { g = 0.0 }
            | M_hist h -> M_hist (fresh_hist h.h_bounds)
          in
          let target =
            match Hashtbl.find_opt d.tbl key with
            | Some s' -> s'.se_metric
            | None ->
                let m = mk () in
                Hashtbl.replace d.tbl key { se with se_metric = m };
                m
          in
          add_into_metric ~name:se.se_name target se.se_metric)
        s.tbl

let merge a b =
  let t = create () in
  merge_into ~dst:t ~src:a;
  merge_into ~dst:t ~src:b;
  t

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      buckets : (float * int) list;
      sum : float;
      count : int;
    }

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : value;
}

let value_of_metric = function
  | M_counter { c } -> Counter c
  | M_gauge { g } -> Gauge g
  | M_hist h ->
      let acc = ref 0 in
      let buckets =
        Array.to_list
          (Array.mapi
             (fun i bound ->
               acc := !acc + h.h_cells.(i);
               (bound, !acc))
             h.h_bounds)
      in
      Histogram { buckets; sum = h.h_sum; count = h.h_count }

let snapshot t =
  match t with
  | Noop -> []
  | Active st ->
      Hashtbl.fold
        (fun _ se acc ->
          {
            s_name = se.se_name;
            s_labels = se.se_labels;
            s_value = value_of_metric se.se_metric;
          }
          :: acc)
        st.tbl []
      |> List.sort (fun a b ->
             match String.compare a.s_name b.s_name with
             | 0 -> compare a.s_labels b.s_labels
             | c -> c)

(* re-inject a decoded sample with merge semantics (counters and gauges
   add, histogram cumulative buckets unfold back into cells) — the fleet
   aggregator's path for folding worker heartbeat snapshots *)
let record_sample t (s : sample) =
  match t with
  | Noop -> ()
  | Active st -> (
      match s.s_value with
      | Counter c -> (
          match
            find_fast st s.s_name s.s_labels (fun () -> M_counter { c = 0 })
          with
          | M_counter r -> r.c <- r.c + c
          | _ ->
              invalid_arg
                ("Telemetry.record_sample: " ^ s.s_name ^ " is not a counter"))
      | Gauge g -> (
          match
            find_fast st s.s_name s.s_labels (fun () -> M_gauge { g = 0.0 })
          with
          | M_gauge r -> r.g <- r.g +. g
          | _ ->
              invalid_arg
                ("Telemetry.record_sample: " ^ s.s_name ^ " is not a gauge"))
      | Histogram { buckets; sum; count } -> (
          let bounds = Array.of_list (List.map fst buckets) in
          match
            find_fast st s.s_name s.s_labels (fun () ->
                M_hist (fresh_hist bounds))
          with
          | M_hist h ->
              if h.h_bounds <> bounds then
                invalid_arg
                  ("Telemetry.record_sample: histogram " ^ s.s_name
                 ^ " has mismatched buckets");
              let prev = ref 0 in
              List.iteri
                (fun i (_, cum) ->
                  h.h_cells.(i) <- h.h_cells.(i) + (cum - !prev);
                  prev := cum)
                buckets;
              h.h_overflow <- h.h_overflow + (count - !prev);
              h.h_sum <- h.h_sum +. sum;
              h.h_count <- h.h_count + count
          | _ ->
              invalid_arg
                ("Telemetry.record_sample: " ^ s.s_name
               ^ " is not a histogram")))

let find_metric t name labels =
  match t with
  | Noop -> None
  | Active st -> (
      match
        Hashtbl.find_opt st.tbl (series_key name (canon_labels labels))
      with
      | Some se -> Some se.se_metric
      | None -> None)

let counter_value t ?(labels = []) name =
  match find_metric t name labels with Some (M_counter { c }) -> c | _ -> 0

let histogram_count t ?(labels = []) name =
  match find_metric t name labels with
  | Some (M_hist h) -> h.h_count
  | _ -> 0

let histogram_sum t ?(labels = []) name =
  match find_metric t name labels with
  | Some (M_hist h) -> h.h_sum
  | _ -> 0.0

(* Prometheus-style estimate: find the bucket holding the q-rank, then
   interpolate linearly inside it.  Observations beyond the last bound
   clamp to the last finite bound, like promQL's histogram_quantile. *)
let quantile t ?(labels = []) name q =
  match find_metric t name labels with
  | Some (M_hist h) when h.h_count > 0 ->
      let n = Array.length h.h_bounds in
      let rank = q *. float_of_int h.h_count in
      let rec go i cum =
        if i >= n then Some h.h_bounds.(n - 1)
        else
          let cum' = cum + h.h_cells.(i) in
          if float_of_int cum' >= rank && h.h_cells.(i) > 0 then
            let lo = if i = 0 then 0.0 else h.h_bounds.(i - 1) in
            let hi = h.h_bounds.(i) in
            let frac =
              (rank -. float_of_int cum) /. float_of_int h.h_cells.(i)
            in
            Some (lo +. ((hi -. lo) *. Float.max 0.0 (Float.min 1.0 frac)))
          else go (i + 1) cum'
      in
      go 0 0
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

let help_of = function
  | "pqs_phase_seconds" -> "Wall time of each PQS pipeline phase."
  | "minidb_phase_seconds" ->
      "Wall time of engine-side phases (parse, plan, execute)."
  | "pqs_round_seconds" ->
      "Wall time of one complete database round (one seed)."
  | "pqs_rounds_total" -> "Database rounds completed."
  | "pqs_statements_total" -> "Statements issued by the PQS loop."
  | "pqs_queries_total" -> "Containment checks issued."
  | "pqs_pivots_total" -> "Pivot rows selected."
  | "pqs_plans_enumerated_total" ->
      "Forced plans enumerated by the plan-diff oracle."
  | "pqs_plan_divergences_total" ->
      "Result-set divergences found by the plan-diff oracle."
  | "pqs_reports_total" -> "Bug reports recorded."
  | "pqs_rectify_retries_total" ->
      "Synthesis attempts abandoned because the oracle could not evaluate \
       the expression."
  | "pqs_rectify_postcondition_failures_total" ->
      "Rectified expressions that failed the TRUE/FALSE postcondition check."
  | "pqs_campaign_domains" -> "Worker domains of the campaign."
  | "pqs_campaign_seeds" -> "Seed range size of the campaign."
  | "minidb_statements_total" ->
      "Statements executed by the engine, by statement kind."
  | "minidb_statement_seconds" ->
      "Engine statement execution latency, by statement kind."
  | "minidb_plan_choices_total" -> "Access paths chosen by the planner."
  | "minidb_rows_scanned_total" -> "Rows produced by full table scans."
  | "minidb_index_rows_total" -> "Rows fetched through index access paths."
  | "minidb_btree_node_visits_total" ->
      "B-tree nodes visited by index lookups."
  | "minidb_btree_entries_scanned_total" ->
      "B-tree entries examined by index lookups."
  | "minidb_heap_rows_scanned_total" -> "Heap rows read by table scans."
  | "pqs_fleet_shards_live" ->
      "Fleet shards currently running with fresh heartbeats."
  | "pqs_fleet_shards_total" -> "Fleet shards ever spawned."
  | "pqs_fleet_rounds_total" -> "Database rounds completed fleet-wide."
  | "pqs_fleet_statements_total" -> "Statements issued fleet-wide."
  | "pqs_fleet_reports_total" -> "Bug reports recorded fleet-wide."
  | "pqs_fleet_distinct_fingerprints" ->
      "Distinct minimized-repro fingerprints discovered fleet-wide."
  | "pqs_fleet_rounds_per_sec" -> "Fleet-wide throughput in rounds per second."
  | "pqs_fleet_shard_rounds_per_sec" ->
      "Per-shard throughput from the latest heartbeat."
  | "pqs_fleet_frontier_points_hit" ->
      "Universe frontier points hit by the merged fleet frontier."
  | "pqs_fleet_frontier_fraction" ->
      "Fraction of the frontier universe hit by the merged fleet frontier."
  | name -> "Metric " ^ name ^ "."

(* Prometheus renders integers bare and floats with enough digits to
   round-trip; %.9g keeps exports readable and stable across platforms. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%S" k (escape_label v))
             labels)
      ^ "}"

(* labels plus an extra [le] pair, for histogram bucket lines *)
let render_labels_le labels le =
  render_labels (labels @ [ ("le", le) ])

let to_prometheus t =
  let b = Buffer.create 1024 in
  let last_family = ref "" in
  List.iter
    (fun s ->
      if s.s_name <> !last_family then begin
        last_family := s.s_name;
        Buffer.add_string b
          (Printf.sprintf "# HELP %s %s\n" s.s_name (help_of s.s_name));
        let ty =
          match s.s_value with
          | Counter _ -> "counter"
          | Gauge _ -> "gauge"
          | Histogram _ -> "histogram"
        in
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" s.s_name ty)
      end;
      match s.s_value with
      | Counter c ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" s.s_name (render_labels s.s_labels) c)
      | Gauge g ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" s.s_name (render_labels s.s_labels)
               (num g))
      | Histogram { buckets; sum; count } ->
          List.iter
            (fun (bound, cum) ->
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" s.s_name
                   (render_labels_le s.s_labels (num bound))
                   cum))
            buckets;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" s.s_name
               (render_labels_le s.s_labels "+Inf")
               count);
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" s.s_name
               (render_labels s.s_labels) (num sum));
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" s.s_name
               (render_labels s.s_labels) count))
    (snapshot t);
  Buffer.contents b

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Json.quote k ^ ":" ^ Json.quote v)
         labels)
  ^ "}"

let to_json t =
  let sample_json s =
    let common =
      Printf.sprintf "\"name\":%s,\"labels\":%s" (Json.quote s.s_name)
        (json_labels s.s_labels)
    in
    match s.s_value with
    | Counter c -> Printf.sprintf "{%s,\"type\":\"counter\",\"value\":%d}" common c
    | Gauge g ->
        Printf.sprintf "{%s,\"type\":\"gauge\",\"value\":%s}" common (num g)
    | Histogram { buckets; sum; count } ->
        let bs =
          List.map
            (fun (bound, cum) ->
              Printf.sprintf "{\"le\":%s,\"count\":%d}" (num bound) cum)
            buckets
          @ [ Printf.sprintf "{\"le\":\"+Inf\",\"count\":%d}" count ]
        in
        Printf.sprintf
          "{%s,\"type\":\"histogram\",\"sum\":%s,\"count\":%d,\"buckets\":[%s]}"
          common (num sum) count (String.concat "," bs)
  in
  Printf.sprintf "{\"clock\":%s,\"metrics\":[%s]}\n"
    (Json.quote Clock.source)
    (String.concat "," (List.map sample_json (snapshot t)))

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (if Filename.check_suffix path ".json" then to_json t
         else to_prometheus t))

(* same-directory temp + rename, so concurrent readers (Prometheus
   scrapers, [sqlancer top --fleet]) never observe a partial file *)
let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content);
  Sys.rename tmp path

let write_file_atomic t path =
  write_atomic path
    (if Filename.check_suffix path ".json" then to_json t else to_prometheus t)

(* ------------------------------------------------------------------ *)
(* Chrome trace events                                                 *)

module Trace = struct
  type arg = Int of int | Float of float | Str of string

  type event = {
    ev_name : string;
    ev_cat : string;
    ev_ph : string;
    ev_ts_us : float;
    ev_dur_us : float option;
    ev_tid : int;
    ev_args : (string * arg) list;
  }

  let complete ~name ?(cat = "pqs") ?(args = []) ~ts_us ~dur_us ~tid () =
    {
      ev_name = name;
      ev_cat = cat;
      ev_ph = "X";
      ev_ts_us = ts_us;
      ev_dur_us = Some dur_us;
      ev_tid = tid;
      ev_args = args;
    }

  let metadata ~name ~tid args =
    {
      ev_name = name;
      ev_cat = "__metadata";
      ev_ph = "M";
      ev_ts_us = 0.0;
      ev_dur_us = None;
      ev_tid = tid;
      ev_args = args;
    }

  let thread_name ~tid name = metadata ~name:"thread_name" ~tid [ ("name", Str name) ]
  let process_name name = metadata ~name:"process_name" ~tid:0 [ ("name", Str name) ]

  let arg_json = function
    | Int i -> string_of_int i
    | Float f -> num f
    | Str s -> Json.quote s

  let event_json e =
    let fields =
      [
        ("name", Json.quote e.ev_name);
        ("cat", Json.quote e.ev_cat);
        ("ph", Json.quote e.ev_ph);
        ("ts", num e.ev_ts_us);
        ("pid", "1");
        ("tid", string_of_int e.ev_tid);
      ]
      @ (match e.ev_dur_us with
        | Some d -> [ ("dur", num d) ]
        | None -> [])
      @
      match e.ev_args with
      | [] -> []
      | args ->
          [
            ( "args",
              "{"
              ^ String.concat ","
                  (List.map
                     (fun (k, v) -> Json.quote k ^ ":" ^ arg_json v)
                     args)
              ^ "}" );
          ]
    in
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> Json.quote k ^ ":" ^ v) fields)
    ^ "}"

  let to_json events =
    "{\"traceEvents\":[\n"
    ^ String.concat ",\n" (List.map event_json events)
    ^ "\n],\"displayTimeUnit\":\"ms\"}\n"

  let write path events =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_json events))
end
