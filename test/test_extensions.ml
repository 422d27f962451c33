(* Tests for the auxiliary PQS machinery and the extensions: expected-error
   lists, the reducer on synthetic scripts, the bug catalog's invariants,
   the RNG helpers, the metamorphic aggregate extension and the baselines'
   blind spots. *)

open Sqlval
module A = Sqlast.Ast

(* ---------- bug catalog ---------- *)

let test_catalog_invariants () =
  Alcotest.(check int) "catalog size" 56 (List.length Engine.Bug.all);
  (* of_string round-trips every name *)
  List.iter
    (fun b ->
      match Engine.Bug.of_string (Engine.Bug.show b) with
      | Some b' -> Alcotest.(check bool) "roundtrip" true (Engine.Bug.equal b b')
      | None -> Alcotest.failf "of_string failed for %s" (Engine.Bug.show b))
    Engine.Bug.all;
  (* per-dialect split matches the scaled paper proportions *)
  let count d = List.length (Engine.Bug.for_dialect d) in
  Alcotest.(check int) "sqlite entries" 32 (count Dialect.Sqlite_like);
  Alcotest.(check int) "mysql entries" 14 (count Dialect.Mysql_like);
  Alcotest.(check int) "postgres entries" 10 (count Dialect.Postgres_like);
  (* true bugs = fixed + verified *)
  let true_bugs = List.filter Engine.Bug.is_true_bug Engine.Bug.all in
  Alcotest.(check int) "true bugs" 45 (List.length true_bugs);
  (* every name encodes its dialect prefix *)
  List.iter
    (fun b ->
      let name = Engine.Bug.show b in
      let d = (Engine.Bug.info b).Engine.Bug.dialect in
      let expected_prefix =
        match d with
        | Dialect.Sqlite_like -> "Sq_"
        | Dialect.Mysql_like -> "My_"
        | Dialect.Postgres_like -> "Pg_"
      in
      Alcotest.(check bool)
        (name ^ " prefix")
        true
        (String.length name > 3 && String.sub name 0 3 = expected_prefix))
    Engine.Bug.all

let test_bug_sets () =
  let s = Engine.Bug.set_of_list [ Engine.Bug.Sq_case_null_when ] in
  Alcotest.(check bool) "member" true (Engine.Bug.on s Engine.Bug.Sq_case_null_when);
  Alcotest.(check bool) "non-member" false
    (Engine.Bug.on s Engine.Bug.My_least_mixed_types);
  Alcotest.(check int) "to_list" 1 (List.length (Engine.Bug.to_list s));
  Alcotest.(check int) "empty" 0 (List.length (Engine.Bug.to_list Engine.Bug.empty_set))

(* ---------- expected errors ---------- *)

let test_expected_errors () =
  let d = Dialect.Sqlite_like in
  let insert action =
    A.Insert { table = "t0"; columns = []; rows = [ [ A.int_lit 1L ] ]; action }
  in
  let uniq = Engine.Errors.make Engine.Errors.Unique_violation "dup" in
  Alcotest.(check bool) "plain insert may conflict" true
    (Pqs.Expected_errors.is_expected d (insert A.On_conflict_abort) uniq);
  Alcotest.(check bool) "insert OR IGNORE must not conflict" false
    (Pqs.Expected_errors.is_expected d (insert A.On_conflict_ignore) uniq);
  let malformed = Engine.Errors.make Engine.Errors.Malformed_database "bad" in
  Alcotest.(check bool) "corruption never expected" false
    (Pqs.Expected_errors.is_expected d (insert A.On_conflict_abort) malformed);
  let internal = Engine.Errors.make Engine.Errors.Internal_error "bitmapset" in
  Alcotest.(check bool) "internal never expected" false
    (Pqs.Expected_errors.is_expected d (A.Reindex None) internal);
  Alcotest.(check bool) "reindex must not fail with unique" false
    (Pqs.Expected_errors.is_expected d (A.Reindex None) uniq);
  Alcotest.(check bool) "create index may fail with unique" true
    (Pqs.Expected_errors.is_expected d
       (A.Create_index
          {
            A.ci_name = "i0";
            ci_if_not_exists = false;
            ci_table = "t0";
            ci_unique = true;
            ci_columns = [];
            ci_where = None;
          })
       uniq)

(* ---------- reducer on synthetic scripts ---------- *)

let test_reducer_synthetic () =
  (* check = "statement INSERT 42 is present and last statement kept" *)
  let key_stmt =
    A.Insert
      { table = "t0"; columns = []; rows = [ [ A.int_lit 42L ] ]; action = A.On_conflict_abort }
  in
  let noise n =
    A.Insert
      { table = "t0"; columns = []; rows = [ [ A.int_lit (Int64.of_int n) ] ]; action = A.On_conflict_abort }
  in
  let final = A.Select_stmt (A.Q_values [ [ A.int_lit 1L ] ]) in
  let script = [ noise 1; key_stmt; noise 2; noise 3; final ] in
  let check stmts =
    List.exists (fun s -> A.equal_stmt s key_stmt) stmts
    && match List.rev stmts with s :: _ -> A.equal_stmt s final | [] -> false
  in
  let reduced = Pqs.Reducer.reduce check script in
  Alcotest.(check int) "reduced to key + final" 2 (List.length reduced);
  Alcotest.(check bool) "still passes" true (check reduced)

let test_reducer_insert_rows () =
  let multi =
    A.Insert
      {
        table = "t0";
        columns = [];
        rows = [ [ A.int_lit 1L ]; [ A.int_lit 42L ]; [ A.int_lit 3L ] ];
        action = A.On_conflict_abort;
      }
  in
  let final = A.Select_stmt (A.Q_values [ [ A.int_lit 1L ] ]) in
  (* the bug needs any INSERT that still contains the row 42 *)
  let check stmts =
    List.exists
      (fun s ->
        match s with
        | A.Insert { rows; _ } ->
            List.exists
              (fun row -> List.exists (A.equal_expr (A.int_lit 42L)) row)
              rows
        | _ -> false)
      stmts
  in
  let reduced = Pqs.Reducer.reduce check (multi :: [ final ]) in
  match reduced with
  | A.Insert { rows; _ } :: _ ->
      Alcotest.(check bool) "rows trimmed" true (List.length rows <= 2)
  | _ -> Alcotest.fail "insert disappeared"

(* ---------- rng ---------- *)

let test_rng_helpers () =
  let rng = Pqs.Rng.make ~seed:5 in
  for _ = 1 to 200 do
    let v = Pqs.Rng.int_in rng 3 7 in
    Alcotest.(check bool) "int_in range" true (v >= 3 && v <= 7)
  done;
  let picked = Pqs.Rng.pick_weighted rng [ (1, `A); (0, `B) ] in
  Alcotest.(check bool) "zero weight never picked" true (picked = `A);
  let s = Pqs.Rng.sample rng 2 [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "sample size" 2 (List.length s);
  Alcotest.(check int) "sample distinct" 2 (List.length (List.sort_uniq compare s));
  (* determinism: same seed, same stream *)
  let a = Pqs.Rng.make ~seed:9 and b = Pqs.Rng.make ~seed:9 in
  for _ = 1 to 50 do
    Alcotest.(check int) "deterministic" (Pqs.Rng.int a 1000) (Pqs.Rng.int b 1000)
  done

(* ---------- metamorphic extension ---------- *)

let test_metamorphic_sound () =
  List.iter
    (fun d ->
      let s = Pqs.Metamorphic.run ~seed:21 ~max_checks:300 d in
      Alcotest.(check int)
        (Printf.sprintf "no violations on correct engine (%s)" (Dialect.name d))
        0
        (List.length s.Pqs.Metamorphic.findings))
    Dialect.all

let test_metamorphic_detects () =
  let bugs =
    Engine.Bug.set_of_list [ Engine.Bug.Sq_partial_index_implies_not_null ]
  in
  let rec try_seeds = function
    | [] -> Alcotest.fail "metamorphic check missed the row-losing defect"
    | seed :: rest ->
        let s =
          Pqs.Metamorphic.run ~seed ~bugs ~max_checks:4000 Dialect.Sqlite_like
        in
        if s.Pqs.Metamorphic.findings = [] then try_seeds rest
  in
  try_seeds [ 11; 42 ]

(* ---------- baselines ---------- *)

let test_fuzzer_blind_to_logic_bugs () =
  (* a pure containment-class bug must be invisible to the fuzzer *)
  let config =
    Baselines.Fuzzer.default_config ~seed:3
      ~bugs:(Engine.Bug.set_of_list [ Engine.Bug.Sq_rtrim_compare_asymmetric ])
      Dialect.Sqlite_like
  in
  Alcotest.(check bool) "no finding" true
    (Baselines.Fuzzer.hunt config ~max_queries:2000 = None)

let test_fuzzer_sees_crashes () =
  let rec try_seeds = function
    | [] -> Alcotest.fail "fuzzer missed the crash"
    | seed :: rest -> (
        let config =
          Baselines.Fuzzer.default_config ~seed
            ~bugs:
              (Engine.Bug.set_of_list
                 [ Engine.Bug.My_check_upgrade_expr_index_crash ])
            Dialect.Mysql_like
        in
        match Baselines.Fuzzer.hunt config ~max_queries:6000 with
        | Some r ->
            Alcotest.(check string) "crash oracle" "SEGFAULT"
              (Pqs.Bug_report.oracle_label r.Pqs.Bug_report.oracle)
        | None -> try_seeds rest)
  in
  try_seeds [ 3; 7; 23 ]

let test_difftest_common_core_only () =
  (* clean engines: identical results everywhere *)
  let clean =
    Baselines.Difftest.run ~max_queries:800 (Baselines.Difftest.default_config ())
  in
  Alcotest.(check int) "no mismatches when correct" 0
    (List.length clean.Baselines.Difftest.findings);
  (* a dialect-feature bug is invisible to common-core differential testing *)
  let gated =
    Baselines.Difftest.run ~max_queries:800
      (Baselines.Difftest.default_config
         ~bugs:
           (Engine.Bug.set_of_list
              [ Engine.Bug.Sq_partial_index_implies_not_null ])
         ())
  in
  Alcotest.(check int) "feature-gated bug invisible" 0
    (List.length gated.Baselines.Difftest.findings);
  (* but a common-core-expressible defect is caught *)
  let core =
    Baselines.Difftest.run ~max_queries:3000
      (Baselines.Difftest.default_config
         ~bugs:(Engine.Bug.set_of_list [ Engine.Bug.Sq_null_in_list_false ])
         ())
  in
  Alcotest.(check bool) "common-core bug found" true
    (core.Baselines.Difftest.findings <> [])

(* ---------- non-containment variant ---------- *)

let test_negative_checks_sound () =
  let config =
    Pqs.Runner.Config.make ~seed:555 ~verify_ground_truth:false
      Dialect.Sqlite_like
  in
  let stats = Pqs.Runner.run ~max_queries:400 config in
  Alcotest.(check int) "no false alarms" 0 (List.length stats.Pqs.Stats.reports);
  Alcotest.(check bool) "negative checks issued" true
    (stats.Pqs.Stats.negative_checks > 0)

let test_parallel_runner () =
  let config =
    Pqs.Runner.Config.make ~verify_ground_truth:false Dialect.Sqlite_like
  in
  let c = Pqs.Campaign.run ~domains:2 ~seed_lo:313 ~seed_hi:329 config in
  let stats = c.Pqs.Campaign.stats in
  Alcotest.(check int) "no findings on correct engine" 0
    (List.length stats.Pqs.Stats.reports);
  Alcotest.(check bool) "both workers contributed" true
    (stats.Pqs.Stats.queries >= 200);
  (* detection also works through the parallel path *)
  let bugs = Engine.Bug.set_of_list [ Engine.Bug.Sq_case_null_when ] in
  let config = Pqs.Runner.Config.make ~bugs Dialect.Sqlite_like in
  let c = Pqs.Campaign.run ~domains:2 ~seed_lo:7 ~seed_hi:207 config in
  Alcotest.(check bool) "bug found in parallel" true
    (Pqs.Campaign.reports c <> [])

let () =
  Alcotest.run "extensions"
    [
      ( "bug catalog",
        [
          Alcotest.test_case "invariants" `Quick test_catalog_invariants;
          Alcotest.test_case "sets" `Quick test_bug_sets;
        ] );
      ( "expected errors",
        [ Alcotest.test_case "lists" `Quick test_expected_errors ] );
      ( "reducer",
        [
          Alcotest.test_case "synthetic drop" `Quick test_reducer_synthetic;
          Alcotest.test_case "insert row trim" `Quick test_reducer_insert_rows;
        ] );
      ("rng", [ Alcotest.test_case "helpers" `Quick test_rng_helpers ]);
      ( "metamorphic",
        [
          Alcotest.test_case "sound" `Slow test_metamorphic_sound;
          Alcotest.test_case "detects row loss" `Slow test_metamorphic_detects;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "fuzzer blind to logic bugs" `Slow
            test_fuzzer_blind_to_logic_bugs;
          Alcotest.test_case "fuzzer sees crashes" `Slow test_fuzzer_sees_crashes;
          Alcotest.test_case "difftest common core" `Slow
            test_difftest_common_core_only;
        ] );
      ( "non-containment",
        [ Alcotest.test_case "sound" `Slow test_negative_checks_sound ] );
      ( "parallel runner",
        [ Alcotest.test_case "merged stats sound" `Slow test_parallel_runner ] );
    ]
