(* The PQS pipeline, step by step (paper Figure 1), against a hand-built
   database — every intermediate artifact printed.

     dune exec examples/pqs_pipeline.exe *)

open Sqlval
module A = Sqlast.Ast

let dialect = Dialect.Sqlite_like

let () =
  (* step 1: a database (normally randomly generated) *)
  let session = Engine.Session.create dialect in
  let script =
    "CREATE TABLE t0(c0, c1 TEXT COLLATE NOCASE);\n\
     CREATE TABLE t1(c0 INT);\n\
     INSERT INTO t0(c0, c1) VALUES (3, 'a'), (NULL, 'B'), (7, 'c');\n\
     INSERT INTO t1(c0) VALUES (-5), (0);"
  in
  print_endline "step 1 — create a random database:";
  print_endline script;
  (match Sqlparse.Parser.parse_script script with
  | Ok stmts ->
      List.iter (fun s -> ignore (Engine.Session.execute session s)) stmts
  | Error e -> failwith (Sqlparse.Parser.show_error e));

  (* step 2: select a pivot row per table *)
  let rng = Pqs.Rng.make ~seed:5 in
  let tables = Pqs.Schema_info.tables_of_session session in
  let pivot =
    List.map
      (fun (ti : Pqs.Schema_info.table_info) ->
        let rows =
          Pqs.Schema_info.rows_of_table session ti.Pqs.Schema_info.ti_name
        in
        (ti, Pqs.Rng.pick rng rows))
      tables
  in
  print_endline "\nstep 2 — pick a pivot row from each table:";
  List.iter
    (fun ((ti : Pqs.Schema_info.table_info), row) ->
      Printf.printf "  %s -> (%s)\n" ti.Pqs.Schema_info.ti_name
        (String.concat ", "
           (Array.to_list (Array.map Value.to_sql_literal row))))
    pivot;

  (* step 3: generate a random condition over the schema *)
  let env = Pqs.Interp.env_of_pivot dialect pivot in
  let gen_ctx =
    {
      Pqs.Gen_expr.rng;
      max_depth = 3;
      scope =
        Pqs.Gen_expr.scope dialect tables
          ~pool:
            (List.concat_map (fun (_, row) -> Array.to_list row) pivot
            |> List.filter (fun v -> not (Value.is_null v)));
    }
  in
  let raw = Pqs.Gen_expr.condition gen_ctx in
  Printf.printf "\nstep 3 — random condition:\n  %s\n"
    (Sqlast.Sql_printer.expr dialect raw);

  (* step 4: evaluate on the pivot and rectify to TRUE *)
  (match Pqs.Interp.eval_tvl env raw with
  | Ok t -> Printf.printf "\nstep 4 — oracle evaluation: %s\n" (Tvl.show t)
  | Error e -> Printf.printf "\nstep 4 — oracle evaluation failed: %s\n" e);
  let rectified, raw_truth =
    match Pqs.Rectify.rectify env raw with
    | Ok (r, t) -> (r, t)
    | Error e -> failwith e
  in
  Printf.printf "  raw truth %s, rectified:\n  %s\n" (Tvl.show raw_truth)
    (Sqlast.Sql_printer.expr dialect rectified);

  (* step 5-7: synthesize the query and check containment via INTERSECT *)
  match
    Pqs.Gen_query.synthesize ~rng
      ~pivot:(Pqs.Gen_query.prepare ~dialect ~case_sensitive_like:false pivot)
      ~max_depth:3 ~check_expressions:false ()
  with
  | Error e -> Printf.printf "synthesis failed: %s\n" e
  | Ok t -> (
      let stmt = Pqs.Gen_query.containment_stmt t in
      Printf.printf "\nsteps 5-7 — containment check:\n  %s\n"
        (Sqlast.Sql_printer.stmt dialect stmt);
      match Engine.Session.execute session stmt with
      | Ok (Engine.Session.Rows rs) ->
          if rs.Engine.Executor.rs_rows = [] then
            print_endline
              "\n  pivot row NOT contained -> the engine has a bug!"
          else
            print_endline
              "\n  pivot row contained -> this check passes (the engine is \
               correct)"
      | Ok _ -> ()
      | Error e -> Printf.printf "query failed: %s\n" (Engine.Errors.show e))
