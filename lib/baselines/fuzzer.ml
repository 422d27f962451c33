open Sqlval
module A = Sqlast.Ast

type config = {
  dialect : Dialect.t;
  bugs : Engine.Bug.set;
  seed : int;
  detect_errors : bool;
}

let default_config ?(seed = 1) ?(bugs = Engine.Bug.empty_set) dialect =
  { dialect; bugs; seed; detect_errors = true }

type stats = {
  mutable databases : int;
  mutable statements : int;
  mutable queries : int;
  mutable reports : Pqs.Bug_report.t list;
}

(* The fuzzer shares PQS's statement and expression generators (so the two
   techniques explore the same input space), but its queries are raw: no
   pivot, no rectification, no containment check. *)
let random_query rng dialect tables : A.query =
  let gen_ctx =
    { Pqs.Gen_expr.rng; max_depth = 4; scope = Pqs.Gen_expr.scope dialect tables }
  in
  let items =
    if Pqs.Rng.bool rng then [ A.Star ]
    else
      List.init (Pqs.Rng.int_in rng 1 3) (fun _ ->
          A.Sel_expr (Pqs.Gen_expr.scalar gen_ctx, None))
  in
  let from =
    Pqs.Rng.sample rng
      (Pqs.Rng.int_in rng 1 (max 1 (List.length tables)))
      tables
    |> List.map (fun (ti : Pqs.Schema_info.table_info) ->
           A.F_table { name = ti.Pqs.Schema_info.ti_name; alias = None })
  in
  A.Q_select
    {
      A.sel_distinct = Pqs.Rng.bool rng;
      sel_items = items;
      sel_from = from;
      sel_where =
        (if Pqs.Rng.chance rng 0.8 then Some (Pqs.Gen_expr.condition gen_ctx) else None);
      sel_group_by = [];
      sel_having = None;
      sel_order_by = [];
      sel_limit = (if Pqs.Rng.chance rng 0.3 then Some 10L else None);
      sel_offset = None;
    }

let run ~max_queries config =
  let stats = { databases = 0; statements = 0; queries = 0; reports = [] } in
  let rec db_round () =
    if stats.queries >= max_queries || stats.databases >= max 50 max_queries
    then stats
    else begin
      let db_seed = config.seed + (stats.databases * 6007) in
      stats.databases <- stats.databases + 1;
      let rng = Pqs.Rng.make ~seed:db_seed in
      let session =
        Engine.Session.create ~seed:db_seed ~bugs:config.bugs config.dialect
      in
      let log = ref [] in
      let report oracle message =
        stats.reports <-
          {
            Pqs.Bug_report.dialect = config.dialect;
            oracle;
            message;
            statements = List.rev !log;
            reduced = None;
            seed = db_seed;
            phase = "fuzz";
            bundle = None;
          }
          :: stats.reports
      in
      let exec stmt : bool =
        (* returns true when a finding ended the round *)
        log := stmt :: !log;
        stats.statements <- stats.statements + 1;
        match Engine.Session.execute session stmt with
        | Ok _ -> false
        | Error e ->
            (* a fuzzer only reacts to sanitizer-grade signals *)
            if
              config.detect_errors
              && (match Engine.Errors.severity e with
                 | Engine.Errors.Corruption | Engine.Errors.Internal -> true
                 | Engine.Errors.Ordinary -> false)
            then begin
              report Pqs.Bug_report.Error_oracle (Engine.Errors.show e);
              true
            end
            else false
        | exception Engine.Errors.Crash msg ->
            report Pqs.Bug_report.Crash msg;
            true
      in
      let gen_cfg =
        Pqs.Gen_db.Config.(make config.dialect |> with_rng rng)
      in
      let found =
        List.exists exec (Pqs.Gen_db.initial_statements gen_cfg)
        || List.exists exec (Pqs.Gen_db.fill_statements gen_cfg session)
        ||
        let rec extra n =
          n > 0
          && (List.exists exec (Pqs.Gen_db.random_statements gen_cfg session)
             || extra (n - 1))
        in
        extra 8
      in
      if not found then begin
        let tables = Pqs.Schema_info.tables_of_session session in
        if tables <> [] then begin
          let rec queries q =
            q > 0
            &&
            (stats.queries <- stats.queries + 1;
             exec (A.Select_stmt (random_query rng config.dialect tables))
             || queries (q - 1))
          in
          ignore (queries 20)
        end
      end;
      db_round ()
    end
  in
  db_round ()

let hunt config ~max_queries =
  let stats = run ~max_queries config in
  match List.rev stats.reports with r :: _ -> Some r | [] -> None
