open Sqlval

type oracle =
  | Containment
  | Non_containment
  | Error_oracle
  | Crash
  | Metamorphic
  | Plan_diff
  | Const_opt
[@@deriving show { with_path = false }, eq]

(* the negative variant reports under the same Table 3 column *)
let oracle_label = function
  | Containment | Non_containment -> "Contains"
  | Error_oracle -> "Error"
  | Crash -> "SEGFAULT"
  | Metamorphic -> "Metamorphic"
  | Plan_diff -> "PlanDiff"
  | Const_opt -> "ConstOpt"

(* stable machine-readable tokens, round-tripped through repro-bundle
   headers by the replay harness *)
let oracle_token = function
  | Containment -> "containment"
  | Non_containment -> "non_containment"
  | Error_oracle -> "error"
  | Crash -> "crash"
  | Metamorphic -> "metamorphic"
  | Plan_diff -> "plan_diff"
  | Const_opt -> "const_opt"

let oracle_of_token = function
  | "containment" -> Some Containment
  | "non_containment" -> Some Non_containment
  | "error" -> Some Error_oracle
  | "crash" -> Some Crash
  | "metamorphic" -> Some Metamorphic
  | "plan_diff" -> Some Plan_diff
  | "const_opt" -> Some Const_opt
  | _ -> None

type t = {
  dialect : Dialect.t;
  oracle : oracle;
  message : string;
  statements : Sqlast.Ast.stmt list;
  reduced : Sqlast.Ast.stmt list option;
  seed : int;
  phase : string;
  bundle : string option;
}

let effective_statements t = Option.value ~default:t.statements t.reduced

let script t =
  Sqlast.Sql_printer.script t.dialect (effective_statements t)

let loc t = List.length (effective_statements t)

let fingerprint t =
  Digest.to_hex (Digest.string (oracle_token t.oracle ^ "\n" ^ script t))

let pp fmt t =
  Format.fprintf fmt "[%s/%s] %s (seed %d, phase %s)@."
    (Dialect.display_name t.dialect)
    (oracle_label t.oracle) t.message t.seed
    (if t.phase = "" then "?" else t.phase);
  (match t.bundle with
  | Some path -> Format.fprintf fmt "bundle: %s@." path
  | None -> ());
  Format.fprintf fmt "%s@." (script t)
