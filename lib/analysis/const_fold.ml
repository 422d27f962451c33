(* Sound 3VL constant folding on top of the engine evaluator.

   The folder deliberately owns no expression semantics: every value it
   produces comes from {!Engine.Eval.compile} on a bug-free environment
   whose tuple holds the pivot row's values, so the fold is
   dialect-correct (affinity, collation, three-valued logic) by
   construction and can never drift from the engine.  What this module
   adds is the *static* side: building evaluator environments from
   pivot-row bindings, deciding which subtrees carry outward-visible
   column metadata (and therefore must not be replaced by literals), and
   the operational substitution checks the simplifier uses before it
   rewrites an operand of a metadata-sensitive node (comparison, BETWEEN,
   LIKE) into a literal: the rewrite is emitted only when the engine's own
   prep/apply split provably computes the same value for the substituted
   operands. *)

open Sqlval
module A = Sqlast.Ast
module E = Engine.Eval

type binding = {
  b_table : string;
  b_column : string;
  b_value : Value.t;
  b_type : Datatype.t;
  b_collation : Collation.t;
}

(* one layout binding per table, from the bindings that name it, whose
   values make up the env's tuple; name resolution is the engine's
   (case-insensitive, an unqualified name matching several tables is
   ambiguous), like Interp.env_of_pivot *)
let env ?(case_sensitive_like = false) dialect (bindings : binding list) :
    E.env =
  let key b = String.lowercase_ascii b.b_table in
  let rec tables = function
    | [] -> []
    | b :: _ as bs ->
        let mine = List.filter (fun b' -> key b' = key b) bs
        and rest = List.filter (fun b' -> key b' <> key b) bs in
        mine :: tables rest
  in
  let tables = tables bindings in
  let env =
    E.with_layout
      (E.const_env ~case_sensitive_like dialect)
      (List.map
         (fun bs ->
           {
             E.b_alias = key (List.hd bs);
             b_columns =
               Array.of_list
                 (List.map
                    (fun b ->
                      ( String.lowercase_ascii b.b_column,
                        b.b_type,
                        b.b_collation ))
                    bs);
           })
         tables)
  in
  env.E.cur :=
    Array.of_list
      (List.map (fun bs -> Array.of_list (List.map (fun b -> b.b_value) bs)) tables);
  env

let const_env ?case_sensitive_like dialect =
  E.const_env ?case_sensitive_like dialect

let fold env e = Result.to_option (E.run (E.compile env e))
let fold_tvl env e = Result.to_option (E.run (E.compile_pred env e))

(* Does [e] expose column metadata (declared type / collation) to an
   enclosing comparison?  [Eval.column_meta] and [Eval.explicit_collation]
   only ever look at the Col / COLLATE / CAST / unary [+] decoration chain
   at the root, so any expression they are blind to can be replaced by a
   literal of its value without changing an enclosing node's static
   prep. *)
let metadata_free env e =
  E.column_meta env e = None && E.explicit_collation env e = None

(* the same truth value, or errors of the same code *)
let same_result a b =
  match (E.run a, E.run b) with
  | Ok ta, Ok tb -> Tvl.equal ta tb
  | Error ea, Error eb -> Engine.Errors.equal_code ea.code eb.code
  | _ -> false

let compare_substitutable env op ea eb va vb =
  let prep ea eb =
    E.compare_prep env op (E.operand env ea) (E.operand env eb)
  in
  same_result
    (fun () -> E.compare_apply env (prep ea eb) va vb)
    (fun () -> E.compare_apply env (prep (A.Lit va) (A.Lit vb)) va vb)

let between_substitutable env ~negated ~arg ~lo ~hi va vl vh =
  let prep arg lo hi =
    E.between_prep env ~negated ~arg:(E.operand env arg) ~lo:(E.operand env lo)
      ~hi:(E.operand env hi)
  in
  same_result
    (fun () -> E.between_apply env (prep arg lo hi) va vl vh)
    (fun () ->
      E.between_apply env (prep (A.Lit va) (A.Lit vl) (A.Lit vh)) va vl vh)

let like_substitutable env ~negated ~arg va vp esc =
  let prep arg = E.like_prep env ~negated ~arg:(E.operand env arg) in
  same_result
    (fun () -> E.like_apply env (prep arg) va vp esc)
    (fun () -> E.like_apply env (prep (A.Lit va)) va vp esc)
