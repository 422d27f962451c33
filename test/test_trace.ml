(* The flight recorder's contracts:

   - ring buffer: pre-sized at creation, O(1) recording, oldest-first
     eviction with an exact dropped count, [begin_round] resets, and the
     noop sink is inert;
   - trace.json: the export parses with the strict [Json] codec and
     carries the round metadata plus one typed object per surviving
     event;
   - bundles: the repro script's self-describing header round-trips
     through [parse_script_text], [write] produces all three files, and
     reducer minimization rewrites the script in place keeping the
     header plus a [-- reduced: true] marker;
   - campaign integration: every oracle finding in a bundle-enabled
     campaign carries a bundle whose repro.sql replays to the same
     verdict ([Replay.check_file]), and enabling tracing + bundles is
     campaign-neutral (identical report sets);
   - --trace-sample: healthy rounds dump full traces on the sampling
     period;
   - EXPLAIN ANALYZE: per-operator annotations (rows in/out, wall time)
     render as plan lines ending in a RESULT summary;
   - probed compounds: an INTERSECT/EXCEPT right operand's skipped
     DISTINCT and SORT emit no events but still hit coverage, and the
     COMPOUND event marks the probe and counts the rows probed;
   - FROM shapes: one table, comma FROMs (two and three items, with and
     without WHERE, under the forced join swap), a LEFT JOIN and a
     DISTINCT/ORDER BY/LIMIT chain each emit a pinned operator event
     list;
   - provenance: the per-condition (raw, verdict, rectified) triples the
     generator exposes agree with its [raw_truths]. *)

open Sqlval

open Json_check

(* ---------- small helpers ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let contains_sub sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  lsub = 0 || go 0

(* a fresh empty directory under the system temp dir *)
let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Trace.mkdir_p path;
  path

let parse_sql sql =
  match Sqlparse.Parser.parse_stmt sql with
  | Ok s -> s
  | Error e -> Alcotest.fail (Sqlparse.Parser.show_error e)

let exec session sql =
  match Engine.Session.execute session (parse_sql sql) with
  | Ok r -> r
  | Error e -> Alcotest.fail (Engine.Errors.show e)

(* ---------- ring buffer laws ---------- *)

let test_eviction () =
  let r = Trace.create ~capacity:4 () in
  Alcotest.(check bool) "enabled" true (Trace.enabled r);
  Alcotest.(check int) "capacity as requested" 4 (Trace.capacity r);
  for i = 0 to 9 do
    Trace.note r (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "length is bounded by capacity" 4 (Trace.length r);
  Alcotest.(check int) "dropped counts evictions exactly" 6 (Trace.dropped r);
  let notes =
    List.map
      (fun (e : Trace.entry) ->
        match e.Trace.event with
        | Trace.Event.Note s -> s
        | _ -> Alcotest.fail "expected note")
      (Trace.events r)
  in
  Alcotest.(check (list string)) "survivors are the newest, oldest-first"
    [ "e6"; "e7"; "e8"; "e9" ] notes;
  let ts = List.map (fun (e : Trace.entry) -> e.Trace.ts_ns) (Trace.events r) in
  Alcotest.(check bool) "timestamps are non-decreasing" true
    (List.sort compare ts = ts);
  (* capacity is clamped to at least one slot *)
  Alcotest.(check int) "capacity clamps to 1" 1
    (Trace.capacity (Trace.create ~capacity:0 ()))

let test_begin_round () =
  let r = Trace.create ~capacity:2 () in
  Trace.note r "a";
  Trace.note r "b";
  Trace.note r "c";
  Alcotest.(check int) "pre-reset dropped" 1 (Trace.dropped r);
  Trace.begin_round r ~seed:42 ~dialect:Dialect.Mysql_like;
  Alcotest.(check int) "reset clears entries" 0 (Trace.length r);
  Alcotest.(check int) "reset zeroes dropped" 0 (Trace.dropped r);
  Alcotest.(check int) "seed stamped" 42 (Trace.seed r);
  Alcotest.(check bool) "dialect stamped" true
    (Trace.dialect r = Dialect.Mysql_like);
  Trace.note r "d";
  Alcotest.(check int) "recording resumes" 1 (Trace.length r)

let test_noop () =
  let r = Trace.noop in
  Alcotest.(check bool) "noop is disabled" false (Trace.enabled r);
  Trace.begin_round r ~seed:7 ~dialect:Dialect.Sqlite_like;
  Trace.note r "ignored";
  Trace.record r
    (Trace.Event.Oracle_fired
       { oracle = "containment"; message = "x"; phase = "containment" });
  Alcotest.(check int) "noop stays empty" 0 (Trace.length r);
  Alcotest.(check int) "noop drops nothing" 0 (Trace.dropped r);
  Alcotest.(check (list reject)) "noop has no events" [] (Trace.events r)

(* ---------- trace.json ---------- *)

let test_trace_json () =
  let r = Trace.create ~capacity:8 () in
  Trace.begin_round r ~seed:99 ~dialect:Dialect.Sqlite_like;
  Trace.record r
    (Trace.Event.Statement
       {
         stmt = parse_sql "SELECT 1";
         outcome = Trace.Event.Rows 1;
         dur_ns = 1234;
       });
  Trace.record r
    (Trace.Event.Statement
       {
         stmt = parse_sql "DROP TABLE missing";
         outcome = Trace.Event.Error "no such table";
         dur_ns = 5;
       });
  Trace.record r (Trace.Event.Pivot { source = "t0"; row = [ "1"; "'a'" ] });
  Trace.record r (Trace.Event.Plan { table = "t0"; path = "full-scan" });
  Trace.record r
    (Trace.Event.Op
       {
         op = "SCAN";
         detail = "t0 USING full-scan";
         rows_in = 3;
         rows_out = 2;
         batches = 1;
         btree_nodes = 1;
         btree_entries = 4;
         dur_ns = 999;
       });
  Trace.record r
    (Trace.Event.Oracle_fired
       { oracle = "containment"; message = "gone"; phase = "containment" });
  let doc = parse_json (Trace.to_json r) in
  Alcotest.(check (float 0.0)) "round seed" 99.0 (jnum (member "round_seed" doc));
  Alcotest.(check string) "dialect" (Dialect.name Dialect.Sqlite_like)
    (jstr (member "dialect" doc));
  Alcotest.(check (float 0.0)) "dropped" 0.0 (jnum (member "dropped" doc));
  let evs = jarr (member "events" doc) in
  Alcotest.(check int) "one object per event" 6 (List.length evs);
  let kinds = List.map (fun e -> jstr (member "type" e)) evs in
  Alcotest.(check (list string)) "typed in order"
    [ "statement"; "statement"; "pivot"; "plan"; "operator"; "oracle" ]
    kinds;
  let stmt = List.nth evs 0 and err = List.nth evs 1 in
  Alcotest.(check string) "sql rendered" "SELECT 1" (jstr (member "sql" stmt));
  Alcotest.(check string) "row outcome" "rows" (jstr (member "outcome" stmt));
  Alcotest.(check (float 0.0)) "row count" 1.0 (jnum (member "rows" stmt));
  Alcotest.(check string) "error outcome" "error" (jstr (member "outcome" err));
  Alcotest.(check string) "error text" "no such table"
    (jstr (member "error" err));
  let op = List.nth evs 4 in
  Alcotest.(check (float 0.0)) "rows_in" 3.0 (jnum (member "rows_in" op));
  Alcotest.(check (float 0.0)) "batches" 1.0 (jnum (member "batches" op));
  Alcotest.(check (float 0.0)) "btree_entries" 4.0
    (jnum (member "btree_entries" op))

(* ---------- bundles ---------- *)

let sample_bundle () =
  let stmts =
    List.map parse_sql
      [
        "CREATE TABLE t0(c0 INT)";
        "INSERT INTO t0(c0) VALUES (1), (2)";
        "SELECT c0 FROM t0 WHERE c0 > 0";
      ]
  in
  let r = Trace.create ~capacity:4 () in
  Trace.begin_round r ~seed:42 ~dialect:Dialect.Sqlite_like;
  Trace.note r "hello";
  {
    Trace.Bundle.b_seed = 42;
    b_dialect = Dialect.Sqlite_like;
    b_oracle = "containment";
    b_message = "pivot row missing\nfrom the result";
    b_phase = "containment";
    b_bugs = [ "Sq_example" ];
    b_statements = stmts;
    b_expected = Some "(1)";
    b_actual = Some "";
    b_plan = [ "SCAN t0 USING full-scan" ];
    b_trace_json = Trace.to_json r;
  }

let test_bundle_roundtrip () =
  let b = sample_bundle () in
  Alcotest.(check string) "directory naming scheme" "bundle-000042-containment"
    (Trace.Bundle.dir_name b);
  let dir = fresh_dir "pqs_bundle" in
  let sql_path = Trace.Bundle.write ~dir b in
  Alcotest.(check string) "write returns the repro.sql path"
    (Filename.concat (Filename.concat dir "bundle-000042-containment")
       "repro.sql")
    sql_path;
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " written") true
        (Sys.file_exists (Filename.concat (Filename.dirname sql_path) f)))
    [ "repro.sql"; "bundle.json"; "trace.json" ];
  let headers, body = Trace.Bundle.parse_script_text (read_file sql_path) in
  let header k = List.assoc_opt k headers in
  Alcotest.(check (option string)) "dialect header"
    (Some (Dialect.name Dialect.Sqlite_like))
    (header "dialect");
  Alcotest.(check (option string)) "seed header" (Some "42") (header "seed");
  Alcotest.(check (option string)) "oracle header" (Some "containment")
    (header "oracle");
  Alcotest.(check (option string)) "phase header" (Some "containment")
    (header "phase");
  Alcotest.(check (option string)) "bugs header" (Some "Sq_example")
    (header "bugs");
  Alcotest.(check (option string)) "message is flattened to one line"
    (Some "pivot row missing from the result")
    (header "message");
  (match Sqlparse.Parser.parse_script body with
  | Ok stmts ->
      Alcotest.(check int) "body reparses to the same statement count" 3
        (List.length stmts)
  | Error e -> Alcotest.fail (Sqlparse.Parser.show_error e));
  let bj = parse_json (read_file (Filename.concat (Filename.dirname sql_path) "bundle.json")) in
  Alcotest.(check string) "bundle.json oracle" "containment"
    (jstr (member "oracle" bj));
  Alcotest.(check (float 0.0)) "bundle.json statement count" 3.0
    (jnum (member "statements" bj));
  Alcotest.(check string) "bundle.json expected row" "(1)"
    (jstr (member "expected" bj));
  ignore
    (parse_json (read_file (Filename.concat (Filename.dirname sql_path) "trace.json"))
      : Json.t)

let test_rewrite_script () =
  let b = sample_bundle () in
  let dir = fresh_dir "pqs_rewrite" in
  let sql_path = Trace.Bundle.write ~dir b in
  let reduced =
    [ parse_sql "CREATE TABLE t0(c0 INT)"; parse_sql "SELECT c0 FROM t0" ]
  in
  Trace.Bundle.rewrite_script ~sql_path ~dialect:Dialect.Sqlite_like reduced;
  let headers, body = Trace.Bundle.parse_script_text (read_file sql_path) in
  Alcotest.(check (option string)) "original header survives"
    (Some "containment")
    (List.assoc_opt "oracle" headers);
  Alcotest.(check (option string)) "reduced marker added" (Some "true")
    (List.assoc_opt "reduced" headers);
  (match Sqlparse.Parser.parse_script body with
  | Ok stmts -> Alcotest.(check int) "body replaced" 2 (List.length stmts)
  | Error e -> Alcotest.fail (Sqlparse.Parser.show_error e));
  (* rewriting twice does not stack markers *)
  Trace.Bundle.rewrite_script ~sql_path ~dialect:Dialect.Sqlite_like reduced;
  let headers, _ = Trace.Bundle.parse_script_text (read_file sql_path) in
  Alcotest.(check int) "single reduced marker" 1
    (List.length (List.filter (fun (k, _) -> k = "reduced") headers))

(* ---------- oracle tokens ---------- *)

let test_oracle_tokens () =
  List.iter
    (fun o ->
      let tok = Pqs.Bug_report.oracle_token o in
      Alcotest.(check bool)
        (tok ^ " round-trips")
        true
        (Pqs.Bug_report.oracle_of_token tok = Some o))
    [
      Pqs.Bug_report.Containment;
      Pqs.Bug_report.Non_containment;
      Pqs.Bug_report.Error_oracle;
      Pqs.Bug_report.Crash;
      Pqs.Bug_report.Metamorphic;
      Pqs.Bug_report.Plan_diff;
    ];
  Alcotest.(check bool) "unknown token rejected" true
    (Pqs.Bug_report.oracle_of_token "nonsense" = None)

(* ---------- campaign integration ---------- *)

let report_key (r : Pqs.Bug_report.t) =
  ( (r.Pqs.Bug_report.seed, Pqs.Bug_report.oracle_label r.Pqs.Bug_report.oracle),
    (r.Pqs.Bug_report.message, Pqs.Bug_report.script r) )

let check_bundle bugs (r : Pqs.Bug_report.t) =
  match r.Pqs.Bug_report.bundle with
  | None ->
      Alcotest.fail
        (Printf.sprintf "report for seed %d has no bundle" r.Pqs.Bug_report.seed)
  | Some sql_path ->
      Alcotest.(check bool) (sql_path ^ " exists") true
        (Sys.file_exists sql_path);
      let headers, _ = Trace.Bundle.parse_script_text (read_file sql_path) in
      let header k = List.assoc_opt k headers in
      Alcotest.(check (option string)) "oracle header matches the report"
        (Some (Pqs.Bug_report.oracle_token r.Pqs.Bug_report.oracle))
        (header "oracle");
      Alcotest.(check (option string)) "seed header matches the report"
        (Some (string_of_int r.Pqs.Bug_report.seed))
        (header "seed");
      Alcotest.(check (option string)) "phase header matches the report"
        (Some r.Pqs.Bug_report.phase) (header "phase");
      (* trace.json next door is valid JSON holding the round's statement
         history and the oracle event *)
      let doc =
        parse_json
          (read_file (Filename.concat (Filename.dirname sql_path) "trace.json"))
      in
      Alcotest.(check (float 0.0)) "trace round seed"
        (float_of_int r.Pqs.Bug_report.seed)
        (jnum (member "round_seed" doc));
      let kinds =
        List.map (fun e -> jstr (member "type" e)) (jarr (member "events" doc))
      in
      Alcotest.(check bool) "statement events recorded" true
        (List.mem "statement" kinds);
      Alcotest.(check bool) "oracle event recorded" true
        (List.mem "oracle" kinds);
      (* the acceptance contract: replaying the bundle reproduces the
         verdict *)
      (match Pqs.Replay.check_file sql_path with
      | Error e -> Alcotest.fail ("broken bundle " ^ sql_path ^ ": " ^ e)
      | Ok o ->
          Alcotest.(check bool)
            ("replay reproduces " ^ sql_path)
            true o.Pqs.Replay.reproduced);
      ignore bugs

let test_campaign_bundles () =
  let dialect = Dialect.Sqlite_like in
  let bugs = Engine.Bug.set_of_list (Engine.Bug.for_dialect dialect) in
  let dir = fresh_dir "pqs_bundles" in
  let run config = Pqs.Campaign.run ~domains:2 ~seed_lo:1 ~seed_hi:21 config in
  let coverage () = Engine.Coverage.create () in
  let off = run (Pqs.Runner.Config.make ~bugs ~coverage:(coverage ()) dialect) in
  let on =
    run
      (Pqs.Runner.Config.make ~bugs ~coverage:(coverage ()) ~bundle_dir:dir
         dialect)
  in
  Alcotest.(check bool) "campaign found bugs to compare" true
    (Pqs.Campaign.reports off <> []);
  Alcotest.(check bool) "identical report sets with tracing + bundles on" true
    (List.map report_key (Pqs.Campaign.reports off)
    = List.map report_key (Pqs.Campaign.reports on));
  (* a bundle's EXPLAIN lines plan the query again; only an executed
     scan counts its plan, so the frontier does not move *)
  let frontier (c : Pqs.Campaign.t) =
    Frontier.to_json ~universe:[] c.Pqs.Campaign.stats.Pqs.Stats.frontier
  in
  Alcotest.(check string) "identical frontiers with bundles on" (frontier off)
    (frontier on);
  List.iter (check_bundle bugs) (Pqs.Campaign.reports on);
  (* reduction rewrites the bundle script in place; the reduced script
     must still replay to the same verdict *)
  match Pqs.Campaign.reports on with
  | [] -> ()
  | r :: _ -> (
      let r' = Pqs.Reducer.reduce_report r ~bugs in
      match r'.Pqs.Bug_report.reduced with
      | Some reduced
        when List.length reduced
             < List.length r'.Pqs.Bug_report.statements -> (
          let sql_path = Option.get r'.Pqs.Bug_report.bundle in
          let headers, _ =
            Trace.Bundle.parse_script_text (read_file sql_path)
          in
          Alcotest.(check (option string)) "bundle re-derived after reduction"
            (Some "true")
            (List.assoc_opt "reduced" headers);
          match Pqs.Replay.check_file sql_path with
          | Error e -> Alcotest.fail ("broken reduced bundle: " ^ e)
          | Ok o ->
              Alcotest.(check bool) "reduced bundle still reproduces" true
                o.Pqs.Replay.reproduced)
      | _ -> ())

let test_trace_sample () =
  let dir = fresh_dir "pqs_sample" in
  let config =
    Pqs.Runner.Config.make ~bundle_dir:dir ~trace_sample:1 Dialect.Sqlite_like
  in
  let stats = Pqs.Runner.run_round config ~db_seed:5 in
  Alcotest.(check bool) "round is healthy (correct engine)" true
    (stats.Pqs.Stats.reports = []);
  let path = Filename.concat dir "round-000005-trace.json" in
  Alcotest.(check bool) "healthy-round trace written" true
    (Sys.file_exists path);
  let doc = parse_json (read_file path) in
  Alcotest.(check (float 0.0)) "trace names its round" 5.0
    (jnum (member "round_seed" doc));
  let kinds =
    List.map (fun e -> jstr (member "type" e)) (jarr (member "events" doc))
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " events present") true (List.mem k kinds))
    [ "statement"; "pivot"; "expression" ]

(* ---------- EXPLAIN ANALYZE ---------- *)

let test_explain_analyze () =
  let session = Engine.Session.create Dialect.Sqlite_like in
  ignore (exec session "CREATE TABLE t0(c0 INT, c1 TEXT)");
  ignore (exec session "INSERT INTO t0(c0, c1) VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  match
    exec session
      "EXPLAIN ANALYZE SELECT c0 FROM t0 WHERE c0 > 1 ORDER BY c0 DESC LIMIT 1"
  with
  | Engine.Session.Rows rs ->
      Alcotest.(check (list string)) "one plan column" [ "plan" ]
        rs.Engine.Executor.rs_columns;
      let lines =
        List.map
          (fun row ->
            match row.(0) with
            | Value.Text s -> s
            | _ -> Alcotest.fail "non-text plan line")
          rs.Engine.Executor.rs_rows
      in
      let find p = List.exists (has_prefix p) lines in
      Alcotest.(check bool) "SCAN line" true (find "SCAN t0");
      Alcotest.(check bool) "FILTER line" true (find "FILTER");
      Alcotest.(check bool) "SORT line" true (find "SORT");
      Alcotest.(check bool) "LIMIT line" true (find "LIMIT");
      (match List.rev lines with
      | last :: _ ->
          Alcotest.(check bool) "RESULT summary comes last" true
            (has_prefix "RESULT (rows=1" last)
      | [] -> Alcotest.fail "no plan lines");
      let scan = List.find (has_prefix "SCAN t0") lines in
      Alcotest.(check bool) "scan row counts annotated" true
        (contains_sub "in=3" scan && contains_sub "out=3" scan);
      let sort = List.find (has_prefix "SORT") lines in
      Alcotest.(check bool) "sort sees the filtered rows" true
        (contains_sub "in=2" sort && contains_sub "out=2" sort)
  | _ -> Alcotest.fail "EXPLAIN ANALYZE must return rows"

let test_explain_analyze_leaves_session_clean () =
  (* the private recorder of EXPLAIN ANALYZE must not disturb the
     session's own (noop) recorder or the catalog *)
  let session = Engine.Session.create Dialect.Sqlite_like in
  ignore (exec session "CREATE TABLE t0(c0 INT)");
  ignore (exec session "INSERT INTO t0(c0) VALUES (1)");
  ignore (exec session "EXPLAIN ANALYZE SELECT * FROM t0");
  match exec session "SELECT c0 FROM t0" with
  | Engine.Session.Rows rs ->
      Alcotest.(check int) "data still readable" 1
        (List.length rs.Engine.Executor.rs_rows)
  | _ -> Alcotest.fail "expected rows"

(* ---------- a probed compound ---------- *)

(* INTERSECT and EXCEPT probe their right operand.  A probed SELECT's
   DISTINCT and ORDER BY do not run, so they emit no operator events,
   but their coverage points are still hit; the COMPOUND event marks the
   probe and counts the left rows plus the right rows probed.  A right
   operand with LIMIT runs its full pipeline and keeps its events. *)
let test_probed_compound () =
  let dialect = Dialect.Sqlite_like in
  let recorder = Trace.create ~capacity:256 () in
  let coverage = Engine.Coverage.create () in
  let session = Engine.Session.create ~coverage ~recorder dialect in
  ignore (exec session "CREATE TABLE t0(c0 INT)");
  ignore (exec session "INSERT INTO t0(c0) VALUES (1), (2), (2), (3)");
  let run sql =
    Trace.begin_round recorder ~seed:0 ~dialect;
    let before p = Engine.Coverage.hit_count coverage p in
    let d0 = before "exec.distinct" and o0 = before "exec.order_by" in
    let rows =
      match exec session sql with
      | Engine.Session.Rows rs ->
          List.map
            (fun r ->
              String.concat "|" (Array.to_list (Array.map Value.to_display r)))
            rs.Engine.Executor.rs_rows
      | _ -> Alcotest.fail "expected rows"
    in
    let ops =
      List.filter_map
        (fun (e : Trace.entry) ->
          match e.Trace.event with
          | Trace.Event.Op { op; detail; rows_in; rows_out; _ } ->
              Some (op, detail, rows_in, rows_out)
          | _ -> None)
        (Trace.events recorder)
    in
    ( rows,
      ops,
      Engine.Coverage.hit_count coverage "exec.distinct" - d0,
      Engine.Coverage.hit_count coverage "exec.order_by" - o0 )
  in
  let names ops = List.map (fun (op, _, _, _) -> op) ops in
  let compound ops =
    match List.filter (fun (op, _, _, _) -> op = "COMPOUND") ops with
    | [ (_, detail, rows_in, rows_out) ] -> (detail, rows_in, rows_out)
    | _ -> Alcotest.fail "expected one COMPOUND event"
  in
  let probe3 = Alcotest.(triple string int int) in
  (* probed: 3 left rows + 4 right rows in, one distinct match out *)
  let rows, ops, distinct, order_by =
    run
      "VALUES (2), (5), (2) INTERSECT SELECT DISTINCT c0 FROM t0 ORDER BY \
       c0 DESC"
  in
  Alcotest.(check (list string)) "intersect rows" [ "2" ] rows;
  Alcotest.(check (list string)) "no DISTINCT or SORT event"
    [ "SCAN"; "COMPOUND" ] (names ops);
  Alcotest.check probe3 "intersect event" ("INTERSECT (probe)", 7, 1)
    (compound ops);
  Alcotest.(check (pair int int)) "DISTINCT and ORDER BY coverage" (1, 1)
    (distinct, order_by);
  let rows, ops, _, _ =
    run "VALUES (2), (5) EXCEPT SELECT DISTINCT c0 FROM t0 WHERE c0 > 1"
  in
  Alcotest.(check (list string)) "except rows" [ "5" ] rows;
  Alcotest.(check bool) "no DISTINCT event" false
    (List.mem "DISTINCT" (names ops));
  Alcotest.check probe3 "except event" ("EXCEPT (probe)", 5, 1) (compound ops);
  (* LIMIT: the right operand's operators run and report *)
  let rows, ops, distinct, order_by =
    run "VALUES (1) INTERSECT SELECT DISTINCT c0 FROM t0 ORDER BY c0 LIMIT 2"
  in
  Alcotest.(check (list string)) "limited rows" [ "1" ] rows;
  Alcotest.(check (list string)) "full pipeline events"
    [ "SCAN"; "DISTINCT"; "SORT"; "LIMIT"; "COMPOUND" ]
    (names ops);
  Alcotest.check probe3 "limited event" ("INTERSECT (probe)", 3, 1)
    (compound ops);
  Alcotest.(check (pair int int)) "coverage" (1, 1) (distinct, order_by)

(* ---------- FROM shapes ---------- *)

(* Each shape's operator events, as (op, detail, rows_in, rows_out,
   batches) in recorded order. *)
let test_from_shapes () =
  let dialect = Dialect.Sqlite_like in
  let recorder = Trace.create ~capacity:256 () in
  let session = Engine.Session.create ~recorder dialect in
  ignore (exec session "CREATE TABLE t0(c0 INT)");
  ignore (exec session "INSERT INTO t0(c0) VALUES (1), (2), (2), (3)");
  ignore (exec session "CREATE TABLE t1(c0 INT)");
  ignore
    (exec session
       ("INSERT INTO t1(c0) VALUES "
       ^ String.concat ", " (List.init 100 (fun i -> Printf.sprintf "(%d)" i))));
  ignore (exec session "CREATE TABLE t2(c0 INT)");
  ignore (exec session "INSERT INTO t2(c0) VALUES (2), (4)");
  let ops () =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.Trace.event with
        | Trace.Event.Op { op; detail; rows_in; rows_out; batches; _ } ->
            Some (op, detail, rows_in, rows_out, batches)
        | _ -> None)
      (Trace.events recorder)
  in
  let rows_seen = ref [] in
  let run ?force sql =
    Trace.begin_round recorder ~seed:0 ~dialect;
    let q =
      match parse_sql sql with
      | Sqlast.Ast.Select_stmt q -> q
      | _ -> Alcotest.fail "expected a query"
    in
    let r =
      match force with
      | None -> Engine.Session.query session q
      | Some force -> Engine.Session.query_forced session ~force q
    in
    match r with
    | Ok rs ->
        rows_seen :=
          List.map
            (fun r ->
              String.concat "|" (Array.to_list (Array.map Value.to_display r)))
            rs.Engine.Executor.rs_rows;
        ops ()
    | Error e -> Alcotest.fail (Engine.Errors.show e)
  in
  let events = Alcotest.(list (pair (pair string string) (triple int int int))) in
  let check name expected got =
    let norm = List.map (fun (op, d, i, o, b) -> ((op, d), (i, o, b))) in
    Alcotest.check events name (norm expected) (norm got)
  in
  check "one table, WHERE over two blocks"
    [ ("SCAN", "t1 USING full-scan", 100, 100, 2); ("FILTER", "WHERE", 100, 90, 2) ]
    (run "SELECT c0 FROM t1 WHERE c0 >= 10");
  check "comma FROM"
    [ ("SCAN", "t0 USING full-scan", 4, 4, 1); ("SCAN", "t2 USING full-scan", 2, 2, 1) ]
    (run "SELECT * FROM t0, t2");
  check "comma FROM with WHERE"
    [
      ("SCAN", "t0 USING full-scan", 4, 4, 1);
      ("SCAN", "t2 USING full-scan", 2, 2, 1);
      ("FILTER", "WHERE", 8, 2, 1);
    ]
    (run "SELECT * FROM t0, t2 WHERE t0.c0 = t2.c0");
  check "forced swap"
    [
      ("SCAN", "t0 USING full-scan", 4, 4, 1);
      ("SCAN", "t2 USING full-scan", 2, 2, 1);
      ("FILTER", "WHERE", 8, 7, 1);
    ]
    (run
       ~force:{ Engine.Executor.no_force with Engine.Executor.f_swap_join = true }
       "SELECT * FROM t0, t2 WHERE t0.c0 <= t2.c0");
  Alcotest.(check (list string))
    "forced swap: the second table is the outer loop"
    [ "1|2"; "2|2"; "2|2"; "1|4"; "2|4"; "2|4"; "3|4" ]
    !rows_seen;
  check "three-item comma FROM"
    [
      ("SCAN", "t0 USING full-scan", 4, 4, 1);
      ("SCAN", "t2 USING full-scan", 2, 2, 1);
      ("SCAN", "t1 USING full-scan", 100, 100, 2);
      ("FILTER", "WHERE", 800, 8, 13);
    ]
    (run "SELECT * FROM t0, t2, t1 WHERE t1.c0 < t0.c0 AND t2.c0 = 2");
  Alcotest.(check (list string))
    "three-item comma FROM: textual nesting"
    [ "1|2|0"; "2|2|0"; "2|2|1"; "2|2|0"; "2|2|1"; "3|2|0"; "3|2|1"; "3|2|2" ]
    !rows_seen;
  check "forced swap of an inner join"
    [
      ("SCAN", "t0 USING full-scan", 4, 4, 1);
      ("SCAN", "t2 USING full-scan", 2, 2, 1);
      ("JOIN", "INNER (forced swap)", 6, 7, 1);
    ]
    (run
       ~force:{ Engine.Executor.no_force with Engine.Executor.f_swap_join = true }
       "SELECT * FROM t0 JOIN t2 ON t0.c0 <= t2.c0");
  (* a join emits each outer tuple's matches last-first *)
  Alcotest.(check (list string))
    "forced join swap: the right side is the outer loop"
    [ "2|2"; "2|2"; "1|2"; "3|4"; "2|4"; "2|4"; "1|4" ]
    !rows_seen;
  ignore (run "SELECT * FROM t0 JOIN t2 ON t0.c0 <= t2.c0");
  Alcotest.(check (list string))
    "inner join: the left side is the outer loop"
    [ "1|4"; "1|2"; "2|4"; "2|2"; "2|4"; "2|2"; "3|4" ]
    !rows_seen;
  check "LEFT JOIN with an unmatched row"
    [
      ("SCAN", "t0 USING full-scan", 4, 4, 1);
      ("SCAN", "t2 USING full-scan", 2, 2, 1);
      ("JOIN", "LEFT", 6, 4, 1);
    ]
    (run "SELECT * FROM t0 LEFT JOIN t2 ON t0.c0 = t2.c0");
  Alcotest.(check (list string))
    "LEFT JOIN rows" [ "1|NULL"; "2|2"; "2|2"; "3|NULL" ] !rows_seen;
  check "DISTINCT, ORDER BY and LIMIT"
    [
      ("SCAN", "t0 USING full-scan", 4, 4, 1);
      ("DISTINCT", "", 4, 3, 1);
      ("SORT", "1 keys", 3, 3, 1);
      ("LIMIT", "", 3, 2, 1);
    ]
    (run "SELECT DISTINCT c0 FROM t0 ORDER BY c0 DESC LIMIT 2")

(* ---------- generator provenance ---------- *)

let test_provenance () =
  let dialect = Dialect.Sqlite_like in
  let session = Engine.Session.create dialect in
  let cfg = Pqs.Gen_db.Config.make ~seed:3 dialect in
  List.iter
    (fun s -> ignore (Engine.Session.execute session s))
    (Pqs.Gen_db.initial_statements cfg);
  List.iter
    (fun s -> ignore (Engine.Session.execute session s))
    (Pqs.Gen_db.fill_statements cfg session);
  let tables = Pqs.Schema_info.tables_of_session session in
  let pivot =
    List.filter_map
      (fun (ti : Pqs.Schema_info.table_info) ->
        match
          Pqs.Schema_info.rows_of_table session ti.Pqs.Schema_info.ti_name
        with
        | row :: _ -> Some (ti, row)
        | [] -> None)
      tables
  in
  let pivot = Pqs.Gen_query.prepare ~dialect ~case_sensitive_like:false pivot in
  let rec synth seed attempts =
    if attempts = 0 then Alcotest.fail "no synthesizable query in 50 attempts"
    else
      let rng = Pqs.Rng.make ~seed in
      match
        Pqs.Gen_query.synthesize ~rng ~pivot ~max_depth:4
          ~check_expressions:true ()
      with
      | Ok t -> t
      | Error _ -> synth (seed + 1) (attempts - 1)
  in
  let checked = ref 0 in
  for seed = 1 to 5 do
    let t = synth (seed * 100) 50 in
    Alcotest.(check int) "one provenance triple per condition"
      (List.length t.Pqs.Gen_query.raw_truths)
      (List.length t.Pqs.Gen_query.provenance);
    let tvl = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Tvl.show v)) ( = ) in
    Alcotest.(check (list tvl)) "provenance verdicts agree with raw_truths"
      t.Pqs.Gen_query.raw_truths
      (List.map (fun (_, v, _) -> v) t.Pqs.Gen_query.provenance);
    checked := !checked + List.length t.Pqs.Gen_query.provenance
  done;
  Alcotest.(check bool) "some conditions were actually checked" true
    (!checked > 0)

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "eviction laws" `Quick test_eviction;
          Alcotest.test_case "begin_round resets" `Quick test_begin_round;
          Alcotest.test_case "noop sink" `Quick test_noop;
        ] );
      ("json", [ Alcotest.test_case "trace.json shape" `Quick test_trace_json ]);
      ( "bundle",
        [
          Alcotest.test_case "script header round-trip" `Quick
            test_bundle_roundtrip;
          Alcotest.test_case "rewrite after reduction" `Quick
            test_rewrite_script;
          Alcotest.test_case "oracle tokens" `Quick test_oracle_tokens;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "bundles replay + neutrality" `Quick
            test_campaign_bundles;
          Alcotest.test_case "healthy-round trace sample" `Quick
            test_trace_sample;
        ] );
      ( "explain",
        [
          Alcotest.test_case "EXPLAIN ANALYZE lines" `Quick test_explain_analyze;
          Alcotest.test_case "session unharmed" `Quick
            test_explain_analyze_leaves_session_clean;
        ] );
      ( "compound",
        [ Alcotest.test_case "probed INTERSECT/EXCEPT" `Quick test_probed_compound ] );
      ( "from",
        [ Alcotest.test_case "operator events per FROM shape" `Quick test_from_shapes ] );
      ( "generator",
        [ Alcotest.test_case "expression provenance" `Quick test_provenance ] );
    ]
