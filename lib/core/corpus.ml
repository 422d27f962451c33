open Sqlval

type source = Schema_info.table_info * Value.t array list
type pivot = (Schema_info.table_info * Value.t array) list

type t = {
  dialect : Dialect.t;
  rng : Rng.t;
  session : Engine.Session.t;
  script : Sqlast.Ast.stmt list;
}

let exec db stmt =
  match Engine.Session.execute db.session stmt with
  | Ok _ | Error _ -> ()
  | exception Engine.Errors.Crash _ -> ()

let build ?(bugs = Engine.Bug.empty_set) ~seed dialect =
  let rng = Rng.make ~seed in
  let session = Engine.Session.create ~seed ~bugs dialect in
  let script = ref [] in
  let exec db stmt =
    script := stmt :: !script;
    exec db stmt
  in
  let db = { dialect; rng; session; script = [] } in
  let gen_cfg =
    Gen_db.Config.(
      make dialect |> with_rng rng |> with_max_rows 5
      |> with_extra_statements 4)
  in
  List.iter (exec db) (Gen_db.initial_statements gen_cfg);
  Schema_info.tables_of_session session
  |> List.iter (fun (ti : Schema_info.table_info) ->
         for _ = 1 to 2 do
           exec db
             (Gen_db.insert_stmt
                ~existing_rows:
                  (Schema_info.rows_of_table session ti.Schema_info.ti_name)
                gen_cfg ti)
         done);
  List.iter (exec db) (Gen_db.random_statements gen_cfg session);
  List.iter (exec db) (Gen_db.fill_statements gen_cfg session);
  { db with script = List.rev !script }

let sources session =
  Schema_info.tables_of_session session
  |> List.filter_map (fun (ti : Schema_info.table_info) ->
         match Schema_info.rows_of_table session ti.Schema_info.ti_name with
         | [] -> None
         | rows ->
             (* the scan count (incl. inherited rows) is what the
                single-row aggregate extension keys on *)
             Some ({ ti with Schema_info.ti_row_count = List.length rows }, rows))

let pick_pivot rng sources =
  let k = if List.length sources >= 2 && Rng.bool rng then 2 else 1 in
  Rng.sample rng k sources
  |> List.map (fun ((ti : Schema_info.table_info), rows) ->
         (ti, Rng.pick rng rows))

let query db = function
  | [] -> None
  | sources ->
      let pivot = pick_pivot db.rng sources in
      let prepared =
        Gen_query.prepare ~dialect:db.dialect
          ~case_sensitive_like:
            (Engine.Options.case_sensitive_like
               (Engine.Session.options db.session))
          pivot
      in
      let rec attempt tries =
        if tries <= 0 then None
        else
          match
            Gen_query.synthesize ~rng:db.rng ~pivot:prepared ~max_depth:4
              ~check_expressions:true ()
          with
          | Ok t -> Some (pivot, t)
          | Error _ -> attempt (tries - 1)
      in
      attempt 5

let queries_per_seed = 3

type lint = {
  lint_seeds : int;
  lint_statements : int;
  lint_queries : int;
  lint_findings : (int * string) list;
}

(* the parser reads "- 5" as the literal -5 (see [Parser]); fold every
   [Unary (Neg, numeric literal)] the same way before comparing texts *)
let fold_negated_literals =
  let module A = Sqlast.Ast in
  A.map_stmt (function
    | A.Unary (A.Neg, A.Lit (Value.Int i)) when i <> Int64.min_int ->
        A.Lit (Value.Int (Int64.neg i))
    | A.Unary (A.Neg, A.Lit (Value.Real f)) -> A.Lit (Value.Real (-.f))
    | e -> e)

let lint ~seed_lo ~seed_hi dialect =
  let statements = ref 0 and queries = ref 0 and findings = ref [] in
  let text s = Sqlast.Sql_printer.stmt dialect (fold_negated_literals s) in
  let note seed sql problem =
    findings := (seed, problem ^ ": " ^ sql) :: !findings
  in
  let round_trip seed sql stmt =
    match Sqlparse.Parser.parse_stmt sql with
    | Ok back when String.equal (text back) (text stmt) -> ()
    | Ok back -> note seed sql ("printer and parser give " ^ text back)
    | Error e ->
        note seed sql ("unparsable (" ^ Sqlparse.Parser.show_error e ^ ")")
  in
  for seed = seed_lo to seed_hi do
    let db = build ~seed dialect in
    List.iter
      (fun stmt ->
        incr statements;
        round_trip seed (Sqlast.Sql_printer.stmt dialect stmt) stmt)
      db.script;
    let sources = sources db.session in
    for _ = 1 to queries_per_seed do
      match query db sources with
      | None -> ()
      | Some (_, t) ->
          incr queries;
          let stmt = Gen_query.containment_stmt t in
          let sql = Sqlast.Sql_printer.stmt dialect stmt in
          (match Engine.Session.execute db.session stmt with
          | Error { Engine.Errors.code = Engine.Errors.Type_error; message } ->
              note seed sql ("type error (" ^ message ^ ")")
          | Ok _ | Error _ | (exception Engine.Errors.Crash _) -> ());
          round_trip seed sql stmt
    done
  done;
  {
    lint_seeds = max 0 (seed_hi - seed_lo + 1);
    lint_statements = !statements;
    lint_queries = !queries;
    lint_findings = List.rev !findings;
  }
