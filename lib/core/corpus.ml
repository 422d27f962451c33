open Sqlval

type source = Schema_info.table_info * Value.t array list
type pivot = (Schema_info.table_info * Value.t array) list

type t = {
  dialect : Dialect.t;
  rng : Rng.t;
  session : Engine.Session.t;
}

let exec db stmt =
  match Engine.Session.execute db.session stmt with
  | Ok _ | Error _ -> ()
  | exception Engine.Errors.Crash _ -> ()

let build ?(bugs = Engine.Bug.empty_set) ~seed dialect =
  let rng = Rng.make ~seed in
  let session = Engine.Session.create ~seed ~bugs dialect in
  let db = { dialect; rng; session } in
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
  db

let sources session =
  Schema_info.tables_of_session session
  |> List.filter_map (fun (ti : Schema_info.table_info) ->
         match Schema_info.rows_of_table session ti.Schema_info.ti_name with
         | [] -> None
         | rows -> Some (ti, rows))

let pick_pivot rng sources =
  let k = if List.length sources >= 2 && Rng.bool rng then 2 else 1 in
  Rng.sample rng k sources
  |> List.map (fun ((ti : Schema_info.table_info), rows) ->
         (ti, Rng.pick rng rows))

let query db = function
  | [] -> None
  | sources ->
      let pivot = pick_pivot db.rng sources in
      let case_sensitive_like =
        Engine.Options.case_sensitive_like (Engine.Session.options db.session)
      in
      let rec attempt tries =
        if tries <= 0 then None
        else
          match
            Gen_query.synthesize ~rng:db.rng ~dialect:db.dialect ~pivot
              ~case_sensitive_like ~max_depth:4 ~check_expressions:true ()
          with
          | Ok t -> Some (pivot, t)
          | Error _ -> attempt (tries - 1)
      in
      attempt 5
