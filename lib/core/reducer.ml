module A = Sqlast.Ast

type check = A.stmt list -> bool

(* How a replay on a fresh session ended.  Nothing else is kept: no
   caller reads an error's text. *)
type replay_outcome = {
  crashed : bool;
  unexpected_error : bool;
      (* an error outside the statement's expected list; once one is seen
         the later errors are not classified *)
  final_select_rows : int option;
      (* None when the final statement is not a row-returning SELECT, it
         errored or the replay crashed *)
}

let replay ~dialect ~bugs (stmts : A.stmt list) : replay_outcome =
  let session = Engine.Session.create ~bugs dialect in
  let ended ?rows ~crashed unexpected =
    { crashed; unexpected_error = unexpected; final_select_rows = rows }
  in
  let rec go unexpected = function
    | [] -> ended ~crashed:false unexpected
    | stmt :: rest -> (
        match Engine.Session.execute session stmt with
        | exception Engine.Errors.Crash _ -> ended ~crashed:true unexpected
        | Ok (Engine.Session.Rows rs) when rest = [] ->
            ended ~crashed:false unexpected
              ~rows:(List.length rs.Engine.Executor.rs_rows)
        | Ok _ -> go unexpected rest
        | Error e ->
            go
              (unexpected || not (Expected_errors.is_expected dialect stmt e))
              rest)
  in
  go false stmts

(* ground truth for the containment kinds: on a correct engine the final
   SELECT must fetch the pivot row (containment) or fetch no row
   (non-containment); the other kinds observed their divergence directly
   and are their own witnesses *)
let correct_engine_agrees ~dialect ~oracle stmts =
  let rows () =
    (replay ~dialect ~bugs:Engine.Bug.empty_set stmts).final_select_rows
  in
  match oracle with
  | Bug_report.Containment -> (
      match rows () with Some n -> n > 0 | None -> false)
  | Bug_report.Non_containment -> rows () = Some 0
  | Bug_report.Error_oracle | Bug_report.Crash | Bug_report.Metamorphic
  | Bug_report.Plan_diff | Bug_report.Const_opt ->
      true

(* the [Replay_outcome] recheck strategy: re-run the script and decide
   from how it ended.  The containment kinds replay the correct engine
   first: both replays are deterministic, so the order cannot change a
   verdict, and a candidate that loses the pivot row's ground truth (a
   deleted INSERT) is far likelier than one that loses the bug, so the
   correct replay settles most failing candidates alone. *)
let replay_check ~dialect ~bugs ~oracle stmts =
  match oracle with
  | Bug_report.Crash -> (replay ~dialect ~bugs stmts).crashed
  | Bug_report.Error_oracle ->
      let o = replay ~dialect ~bugs stmts in
      o.unexpected_error && not o.crashed
  | Bug_report.Containment ->
      (* the buggy engine misses the pivot row *)
      correct_engine_agrees ~dialect ~oracle stmts
      && (replay ~dialect ~bugs stmts).final_select_rows = Some 0
  | Bug_report.Non_containment ->
      (* inverted: the buggy engine fetches a row *)
      correct_engine_agrees ~dialect ~oracle stmts
      &&
      (match (replay ~dialect ~bugs stmts).final_select_rows with
      | Some n -> n > 0
      | None -> false)
  | Bug_report.Metamorphic | Bug_report.Plan_diff | Bug_report.Const_opt ->
      (* these kinds declare [Not_recheckable] or [Custom] strategies in
         the registry; reaching here means a registration is missing *)
      false

(* dispatch on the registry's per-oracle recheck strategy; an unknown
   kind falls back to the replay strategy (which rejects it) *)
let manifestation_check ~dialect ~bugs ~oracle : check =
 fun stmts ->
  match Oracle.Registry.find_kind oracle with
  | Some { Oracle.Registry.reg_recheck = Oracle.Registry.Not_recheckable; _ }
    ->
      false
  | Some { Oracle.Registry.reg_recheck = Oracle.Registry.Custom f; _ } ->
      f ~dialect ~bugs ~oracle stmts
  | Some { Oracle.Registry.reg_recheck = Oracle.Registry.Replay_outcome; _ }
  | None ->
      replay_check ~dialect ~bugs ~oracle stmts

(* one pass of greedy single-statement deletion; [keep_last] protects the
   detecting query *)
let drop_pass check stmts =
  let rec go i len current =
    if i >= len - 1 then current
    else
      let candidate = List.filteri (fun j _ -> j <> i) current in
      if check candidate then go i (len - 1) candidate
      else go (i + 1) len current
  in
  go 0 (List.length stmts) stmts

(* trim multi-row INSERTs row by row *)
let trim_inserts check stmts =
  let try_trim i stmt current =
    match stmt with
    | A.Insert ({ rows; _ } as ins) when List.length rows > 1 ->
        let rec shrink rows_left =
          if List.length rows_left <= 1 then rows_left
          else
            let candidate_rows =
              List.filteri (fun j _ -> j <> 0) rows_left
            in
            let candidate =
              List.mapi
                (fun j s ->
                  if j = i then A.Insert { ins with rows = candidate_rows }
                  else s)
                current
            in
            if check candidate then shrink candidate_rows else rows_left
        in
        let final_rows = shrink rows in
        List.mapi
          (fun j s ->
            if j = i then A.Insert { ins with rows = final_rows } else s)
          current
    | _ -> current
  in
  List.fold_left
    (fun current i -> try_trim i (List.nth current i) current)
    stmts
    (List.init (List.length stmts) (fun i -> i))

(* strip decorations from the final SELECT *)
let simplify_final check stmts =
  match List.rev stmts with
  | A.Select_stmt q :: rest_rev -> (
      let with_final q' = List.rev (A.Select_stmt q' :: rest_rev) in
      let try_variant q' current =
        let candidate = with_final q' in
        if check candidate then candidate else current
      in
      match q with
      | A.Q_compound (op, lhs, A.Q_select sel) ->
          let current = stmts in
          let current =
            if sel.A.sel_order_by <> [] then
              try_variant
                (A.Q_compound (op, lhs, A.Q_select { sel with A.sel_order_by = [] }))
                current
            else current
          in
          (* re-extract the (possibly simplified) select *)
          let sel' =
            match List.rev current with
            | A.Select_stmt (A.Q_compound (_, _, A.Q_select s)) :: _ -> s
            | _ -> sel
          in
          if sel'.A.sel_distinct then
            try_variant
              (A.Q_compound (op, lhs, A.Q_select { sel' with A.sel_distinct = false }))
              current
          else current
      | _ -> stmts)
  | _ -> stmts

let reduce check stmts =
  if not (check stmts) then stmts
  else begin
    let rec fixpoint current =
      let next = drop_pass check current in
      if List.length next < List.length current then fixpoint next else next
    in
    let reduced = fixpoint stmts in
    let reduced = trim_inserts check reduced in
    simplify_final check reduced
  end

let reduce_report (report : Bug_report.t) ~bugs =
  let check =
    manifestation_check ~dialect:report.Bug_report.dialect ~bugs
      ~oracle:report.Bug_report.oracle
  in
  let reduced = reduce check report.Bug_report.statements in
  (* keep the repro bundle in sync: its script is re-derived from the
     minimized statements (header preserved, [-- reduced: true] added) *)
  (match report.Bug_report.bundle with
  | Some sql_path when List.length reduced < List.length report.Bug_report.statements
    -> (
      try
        Trace.Bundle.rewrite_script ~sql_path
          ~dialect:report.Bug_report.dialect reduced
      with Sys_error _ -> ())
  | _ -> ());
  { report with Bug_report.reduced = Some reduced }
