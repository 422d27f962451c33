(* Replay harness for repro bundles.

   A bundle's [repro.sql] is self-contained: a [-- key: value] header
   (dialect, seed, oracle token, enabled bugs) followed by plain SQL.
   Replaying parses the header, re-enables the same injected bugs, runs
   the script through the real parser and re-checks the oracle verdict
   with the same manifestation check the reducer uses — so a bundle that
   replays is also a bundle the reducer can minimize. *)

open Sqlval

type outcome = {
  path : string;
  oracle : Bug_report.oracle;
  recheckable : bool;
      (* metamorphic verdicts are not re-derivable from the
         statement list alone *)
  reproduced : bool;
  detail : string;
}

let read_file path = In_channel.with_open_text path In_channel.input_all

let parse_bugs = function
  | None -> Ok Engine.Bug.empty_set
  | Some s ->
      let names =
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun n -> n <> "")
      in
      let rec resolve acc = function
        | [] -> Ok (Engine.Bug.set_of_list (List.rev acc))
        | n :: rest -> (
            match Engine.Bug.of_string n with
            | Some b -> resolve (b :: acc) rest
            | None -> Error (Printf.sprintf "unknown bug %S in '-- bugs:'" n))
      in
      resolve [] names

let check_file path : (outcome, string) result =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (read_file path) with Sys_error msg -> Error msg
  in
  let headers, body = Trace.Bundle.parse_script_text text in
  let find k = List.assoc_opt k headers in
  let* dialect =
    match find "dialect" with
    | None -> Error "missing '-- dialect:' header"
    | Some n -> (
        match Dialect.of_name n with
        | Some d -> Ok d
        | None -> Error (Printf.sprintf "unknown dialect %S" n))
  in
  let* oracle =
    match find "oracle" with
    | None -> Error "missing '-- oracle:' header"
    | Some t -> (
        match Bug_report.oracle_of_token t with
        | Some o -> Ok o
        | None -> Error (Printf.sprintf "unknown oracle token %S" t))
  in
  let* bugs = parse_bugs (find "bugs") in
  let* stmts =
    match Sqlparse.Parser.parse_script body with
    | Ok stmts -> Ok stmts
    | Error e -> Error (Sqlparse.Parser.show_error e)
  in
  let* () = if stmts = [] then Error "empty statement body" else Ok () in
  (* recheckability comes from the oracle registry, the same table the
     reducer dispatches on *)
  match Oracle.Registry.find_kind oracle with
  | Some { Oracle.Registry.reg_recheck = Oracle.Registry.Not_recheckable; _ }
    ->
      (* the verdict lives outside the script; the bundle still carries
         the trace and message for triage *)
      Ok
        {
          path;
          oracle;
          recheckable = false;
          reproduced = true;
          detail = "verdict not re-checkable from the script alone";
        }
  | Some _ | None ->
      let check = Reducer.manifestation_check ~dialect ~bugs ~oracle in
      let reproduced = check stmts in
      Ok
        {
          path;
          oracle;
          recheckable = true;
          reproduced;
          detail =
            (if reproduced then "verdict reproduced"
             else "verdict did NOT reproduce");
        }
