open Sqlval

type context = {
  ctx_dialect : Dialect.t;
  ctx_session : Engine.Session.t;
  ctx_db_seed : int;
  ctx_rng : Rng.t;
  ctx_telemetry : Telemetry.t;
}

type outcome =
  | Succeeded of Engine.Session.exec_result
  | Failed of Engine.Errors.t
  | Crashed of string

type check = {
  check_stmt : Sqlast.Ast.stmt;
  negative : bool;
  pivot_found : bool;
  check_pivot : (Schema_info.table_info * Value.t array) list;
}

type event =
  | Statement of Sqlast.Ast.stmt * outcome
  | Containment_check of check
  | Database_ready

type verdict =
  | Pass
  | Report of { kind : Bug_report.oracle; message : string }

module type S = sig
  val name : string
  val observe : context -> event -> verdict
end

type t = (module S)

let name (module O : S) = O.name
let observe (module O : S) ctx event = O.observe ctx event

let make ~name observe : t =
  (module struct
    let name = name
    let observe = observe
  end)

let error_oracle : t =
  make ~name:"error" (fun ctx -> function
    | Statement (stmt, Failed e) ->
        if Expected_errors.is_expected ctx.ctx_dialect stmt e then Pass
        else
          Report
            { kind = Bug_report.Error_oracle; message = Engine.Errors.show e }
    | _ -> Pass)

let crash_oracle : t =
  make ~name:"crash" (fun _ -> function
    | Statement (_, Crashed msg) ->
        Report { kind = Bug_report.Crash; message = msg }
    | _ -> Pass)

let containment : t =
  make ~name:"containment" (fun _ -> function
    | Containment_check { negative; pivot_found; _ } ->
        if negative && pivot_found then
          Report
            {
              kind = Bug_report.Non_containment;
              message = "pivot row unexpectedly contained in result set";
            }
        else if (not negative) && not pivot_found then
          Report
            {
              kind = Bug_report.Containment;
              message = "pivot row not contained in result set";
            }
        else Pass
    | _ -> Pass)

(* partition checks per database *)
let checks_per_db = 4

let metamorphic () : t =
  make ~name:"metamorphic" (fun ctx -> function
    | Database_ready ->
        let tables = Schema_info.tables_of_session ctx.ctx_session in
        let rec go budget = function
          | [] -> Pass
          | _ when budget <= 0 -> Pass
          | table :: rest -> (
              match
                Metamorphic.check ctx.ctx_session ~rng:ctx.ctx_rng ~table
              with
              | Metamorphic.Inconsistent msg ->
                  Report { kind = Bug_report.Metamorphic; message = msg }
              | Metamorphic.Consistent | Metamorphic.Skipped ->
                  go (budget - 1) rest)
        in
        go checks_per_db tables
    | _ -> Pass)

let defaults = [ error_oracle; crash_oracle; containment ]

module Registry = struct
  type recheck =
    | Not_recheckable
    | Replay_outcome
    | Custom of
        (dialect:Dialect.t ->
        bugs:Engine.Bug.set ->
        oracle:Bug_report.oracle ->
        Sqlast.Ast.stmt list ->
        bool)

  type entry = {
    reg_name : string;
    reg_doc : string;
    reg_flag : string option;
    reg_default : bool;
    reg_kinds : Bug_report.oracle list;
    reg_make : unit -> t;
    reg_recheck : recheck;
  }

  (* registration order is display order; re-registering a name replaces
     the old entry in place (idempotent module re-initialization) *)
  let entries : entry list ref = ref []

  let register e =
    if List.exists (fun e' -> e'.reg_name = e.reg_name) !entries then
      entries :=
        List.map (fun e' -> if e'.reg_name = e.reg_name then e else e') !entries
    else entries := !entries @ [ e ]

  let all () = !entries
  let find name = List.find_opt (fun e -> e.reg_name = name) !entries

  let find_kind kind =
    List.find_opt
      (fun e -> List.exists (Bug_report.equal_oracle kind) e.reg_kinds)
      !entries

  let replay ~dialect ~bugs stmts =
    let session = Engine.Session.create ~bugs dialect in
    (try
       List.iter
         (fun stmt ->
           match Engine.Session.execute session stmt with
           | Ok _ | Error _ -> ())
         stmts
     with Engine.Errors.Crash _ -> ());
    session
end

(* the paper's trio is always on and rechecks by replaying the script *)
let () =
  Registry.register
    {
      Registry.reg_name = "error";
      reg_doc = "any statement error outside the expected-errors whitelist";
      reg_flag = None;
      reg_default = true;
      reg_kinds = [ Bug_report.Error_oracle ];
      reg_make = (fun () -> error_oracle);
      reg_recheck = Registry.Replay_outcome;
    };
  Registry.register
    {
      Registry.reg_name = "crash";
      reg_doc = "simulated engine SEGFAULTs";
      reg_flag = None;
      reg_default = true;
      reg_kinds = [ Bug_report.Crash ];
      reg_make = (fun () -> crash_oracle);
      reg_recheck = Registry.Replay_outcome;
    };
  Registry.register
    {
      Registry.reg_name = "containment";
      reg_doc = "pivot-row containment, both polarities (paper steps 6-7)";
      reg_flag = None;
      reg_default = true;
      reg_kinds = [ Bug_report.Containment; Bug_report.Non_containment ];
      reg_make = (fun () -> containment);
      reg_recheck = Registry.Replay_outcome;
    };
  Registry.register
    {
      Registry.reg_name = "metamorphic";
      reg_doc = "add the metamorphic aggregate-partition oracle";
      reg_flag = Some "metamorphic";
      reg_default = false;
      reg_kinds = [ Bug_report.Metamorphic ];
      reg_make = (fun () -> metamorphic ());
      (* the violated partition relation cannot be re-checked from the
         statement list alone *)
      reg_recheck = Registry.Not_recheckable;
    }

let first_report oracles ctx event =
  List.fold_left
    (fun acc oracle ->
      match acc with
      | Some _ -> acc
      | None -> (
          match observe oracle ctx event with
          | Pass -> None
          | Report { kind; message } -> Some (kind, message)))
    None oracles
