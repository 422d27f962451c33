(* The CI gate benches and the Bechamel micro-benchmarks.

     dune exec bench/main.exe -- [telemetry trace frontier plandiff
                                  constopt fleet micro]

   No target runs them all.  Each gate's budget is a constant in its
   module (`Experiments.*_bench`); `make telemetry` and the like run one
   gate each.  An unknown target exits 2 before anything runs.  The
   paper's tables and figures are `bin/experiments.exe`'s. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                     *)

let dialects = Sqlval.Dialect.all

let bench_btree =
  let module T = Storage.Btree.Make (struct
    type key = int

    let compare = Int.compare
  end) in
  Test.make ~name:"btree insert+remove x100"
    (Staged.stage (fun () ->
         let t = T.create () in
         for i = 0 to 99 do
           T.insert t (i * 7 mod 50) i
         done;
         for i = 0 to 49 do
           ignore (T.remove ~veq:Int.equal t (i * 7 mod 50) i)
         done))

(* The same through [Storage.Index], on mixed [Value.t array] keys (ints,
   texts, reals, NULLs and two-column tuples, with duplicates): the key
   comparison, search and node shifting of an index write. *)
let bench_index =
  let open Sqlval.Value in
  let keys =
    Array.init 100 (fun i ->
        let n = Int64.of_int (i * 7 mod 50) in
        match i mod 5 with
        | 0 -> [| Int n |]
        | 1 -> [| Text (Int64.to_string n) |]
        | 2 -> [| Real (Int64.to_float n /. 4.) |]
        | 3 -> [| Null |]
        | _ -> [| Int n; Text "x" |])
  in
  let rowids = Array.init 100 Int64.of_int in
  let definition =
    [
      {
        Sqlast.Ast.ic_expr = Sqlast.Ast.col "c0";
        ic_collate = None;
        ic_desc = false;
      };
    ]
  in
  Test.make ~name:"index insert+remove x100"
    (Staged.stage (fun () ->
         let ix =
           Storage.Index.create ~name:"i0" ~table:"t0" ~unique:false
             ~definition ~collations:[| Sqlval.Collation.Binary |] ~where:None
         in
         for i = 0 to 99 do
           Storage.Index.add ix ~key:keys.(i) ~rowid:rowids.(i)
         done;
         for i = 0 to 49 do
           let i = i * 2 in
           ignore (Storage.Index.remove ix ~key:keys.(i) ~rowid:rowids.(i))
         done))

let eval_fixture dialect =
  let session = Engine.Session.create dialect in
  let stmts =
    [
      "CREATE TABLE t0(c0 INT, c1 TEXT)";
      "INSERT INTO t0(c0, c1) VALUES (1, 'a'), (2, 'b'), (3, 'c')";
    ]
  in
  List.iter
    (fun sql ->
      match Sqlparse.Parser.parse_stmt sql with
      | Ok stmt -> ignore (Engine.Session.execute session stmt)
      | Error _ -> ())
    stmts;
  session

let bench_query dialect =
  let session = eval_fixture dialect in
  let query =
    match
      Sqlparse.Parser.parse_stmt
        "SELECT c0, c1 FROM t0 WHERE (c0 > 1) AND (c1 <> 'zz')"
    with
    | Ok s -> s
    | Error _ -> assert false
  in
  Test.make
    ~name:(Printf.sprintf "select/%s" (Sqlval.Dialect.name dialect))
    (Staged.stage (fun () -> ignore (Engine.Session.execute session query)))

(* One evaluation of a rectified-shape predicate on a fixture row, as a
   WHERE clause runs it (boolean context) and as a projection item does
   (value context): the per-node cost of the expression closures. *)
let bench_eval dialect =
  let session = eval_fixture dialect in
  let ctx = Engine.Session.ctx session in
  let schema =
    match Storage.Catalog.find_table ctx.Engine.Executor.catalog "t0" with
    | Some ts -> ts.Storage.Catalog.schema
    | None -> assert false
  in
  let env = Engine.Executor.table_env ctx schema ~alias:"t0" in
  env.Engine.Eval.cur := [| [| Sqlval.Value.Int 2L; Sqlval.Value.Text "b" |] |];
  let e =
    match
      Sqlparse.Parser.parse_expr "NOT ((c0 > 1) IS NULL) AND (c1 <> 'zz')"
    with
    | Ok e -> e
    | Error _ -> assert false
  in
  let pred = Engine.Eval.compile_pred env e
  and value = Engine.Eval.compile env e in
  let name context =
    Printf.sprintf "eval/%s %s" (Sqlval.Dialect.name dialect) context
  in
  [
    Test.make ~name:(name "boolean")
      (Staged.stage (fun () -> ignore (Sys.opaque_identity (pred ()))));
    Test.make ~name:(name "value")
      (Staged.stage (fun () -> ignore (Sys.opaque_identity (value ()))));
  ]

(* One containment check, [VALUES (pivot) INTERSECT SELECT ...], over a
   20-row sqlite table with a rectified-shape WHERE that every row
   passes: the pivot is the first row the probe meets, or the last. *)
let bench_probe =
  let session = Engine.Session.create Sqlval.Dialect.Sqlite_like in
  let parse sql =
    match Sqlparse.Parser.parse_stmt sql with
    | Ok s -> s
    | Error _ -> assert false
  in
  List.iter
    (fun sql -> ignore (Engine.Session.execute session (parse sql)))
    ("CREATE TABLE t0(c0 INT, c1 TEXT)"
    :: List.init 20 (fun i ->
           Printf.sprintf "INSERT INTO t0(c0, c1) VALUES (%d, 'v%d')" (i + 1)
             (i + 1)));
  let check name pivot =
    let stmt =
      parse
        (Printf.sprintf
           "VALUES (%d, 'v%d') INTERSECT SELECT c0, c1 FROM t0 WHERE NOT \
            ((c0 > 0) IS NULL) AND (c1 <> 'zz')"
           pivot pivot)
    in
    Test.make ~name:("probe/" ^ name)
      (Staged.stage (fun () -> ignore (Engine.Session.execute session stmt)))
  in
  [ check "match-first" 1; check "match-last" 20 ]

(* REAL to text as [Coerce.to_text] runs it, over integral values (the
   digits-and-".0" path) and fractional ones (the runtime's [%.17g]). *)
let bench_real_text =
  let make name values =
    let i = ref 0 in
    Test.make ~name:("value/real_text " ^ name)
      (Staged.stage (fun () ->
           i := (!i + 1) land 7;
           ignore (Sys.opaque_identity (Sqlval.Value.float_to_text values.(!i)))))
  in
  [
    make "int" [| 0.; 1.; -3.; 42.; 1000.; -65536.; 123456789.; 7. |];
    make "frac" [| 0.5; -1.25; 0.1; 3.14159; 1e20; -2.5e-7; 1. /. 3.; 99.9 |];
  ]

(* The plan-diff comparison of a 94-row join-order witness: count the
   default order's rows, then check the swapped order's against them.
   Rows are six values wide, with two REALs, fractional in 3 of 4 rows. *)
let bench_rows_compare =
  let row i =
    let open Sqlval.Value in
    [|
      Int (Int64.of_int (i mod 7)); Text ("v" ^ string_of_int (i mod 5));
      Real (float_of_int i /. 4.); Int (Int64.of_int i); Null;
      Real (float_of_int (i mod 3));
    |]
  in
  let default = List.init 94 row in
  let swapped = List.rev default in
  Test.make ~name:"rows/compare"
    (Staged.stage (fun () ->
         ignore
           (Sys.opaque_identity
              (Pqs.Plan_diff.matches (Pqs.Plan_diff.counts default) swapped))))

let bench_parse =
  let sql =
    "SELECT DISTINCT t0.c0, t0.c1 FROM t0, t1 WHERE ((t0.c0 IS NOT 1) AND \
     (t1.c0 BETWEEN 2 AND 30)) ORDER BY t0.c0 DESC LIMIT 10"
  in
  Test.make ~name:"parse select"
    (Staged.stage (fun () -> ignore (Sqlparse.Parser.parse_stmt sql)))

let bench_synthesize dialect =
  let session = Engine.Session.create dialect in
  let cfg = Pqs.Gen_db.Config.make ~seed:3 dialect in
  List.iter
    (fun s -> ignore (Engine.Session.execute session s))
    (Pqs.Gen_db.initial_statements cfg);
  List.iter
    (fun s -> ignore (Engine.Session.execute session s))
    (Pqs.Gen_db.fill_statements cfg session);
  let tables = Pqs.Schema_info.tables_of_session session in
  let rng = Pqs.Rng.make ~seed:3 in
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
  let pivot =
    Pqs.Gen_query.prepare ~dialect ~case_sensitive_like:false pivot
  in
  Test.make
    ~name:(Printf.sprintf "pqs synthesize+check/%s" (Sqlval.Dialect.name dialect))
    (Staged.stage (fun () ->
         match
           Pqs.Gen_query.synthesize ~rng ~pivot ~max_depth:4
             ~check_expressions:true ()
         with
         | Ok t ->
             ignore
               (Engine.Session.execute session (Pqs.Gen_query.containment_stmt t))
         | Error _ -> ()))

(* ns and minor words per run, each the OLS slope over the run count: an
   allocating comparator or walk shows up in the second column. *)
let run_micro () =
  Printf.printf "\n== Micro-benchmarks (Bechamel) ==\n%!";
  let tests =
    Test.make_grouped ~name:"micro"
      ([ bench_btree; bench_index; bench_parse; bench_rows_compare ]
      @ bench_real_text @ bench_probe
      @ List.map bench_query dialects
      @ List.concat_map bench_eval dialects
      @ List.map bench_synthesize dialects)
  in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.3) ~stabilize:false ()
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let raw = Benchmark.all cfg instances tests in
  let analyze instance =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |])
      instance raw
  in
  let ns = analyze Instance.monotonic_clock
  and words = analyze Instance.minor_allocated in
  let estimate results name =
    match Option.map Analyze.OLS.estimates (Hashtbl.find_opt results name) with
    | Some (Some (e :: _)) -> Printf.sprintf "%.0f" e
    | _ -> "?"
  in
  Printf.printf "  %-42s %12s %14s\n" "" "ns/run" "minor w/run";
  Hashtbl.to_seq_keys raw |> List.of_seq |> List.sort compare
  |> List.iter (fun name ->
         Printf.printf "  %-42s %12s %14s\n" name
           (estimate ns name) (estimate words name))

(* ------------------------------------------------------------------ *)
(* Targets                                                              *)

let targets =
  [
    ("telemetry", Experiments.Telemetry_bench.run);
    ("trace", Experiments.Trace_bench.run);
    ("frontier", Experiments.Frontier_bench.run);
    ("plandiff", Experiments.Plandiff_bench.run);
    ("constopt", Experiments.Constopt_bench.run);
    ("fleet", Experiments.Fleet_bench.run);
    ("micro", run_micro);
  ]

let () =
  let names =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst targets
    | names -> names
  in
  match List.filter (fun t -> not (List.mem_assoc t targets)) names with
  | t :: _ ->
      Printf.eprintf "unknown target: %s (targets: %s)\n" t
        (String.concat " " (List.map fst targets));
      exit 2
  | [] -> List.iter (fun t -> List.assoc t targets ()) names
