(** The engine-side expression evaluator.

    This is the component the paper's containment oracle puts under test:
    most injected containment-class bugs live here (comparison collations,
    implicit conversions, LIKE handling, operator folding).  The PQS oracle
    interpreter ({!Pqs.Interp}) re-implements the same semantics
    independently and is never bug-injected; a qcheck property asserts the
    two agree when the bug set is empty. *)

open Sqlval

(** What an expression's column reference resolves to. *)
type resolved = {
  value : Value.t;
  datatype : Datatype.t;
  collation : Collation.t;
}

type env = {
  dialect : Dialect.t;
  bugs : Bug.set;
  case_sensitive_like : bool;  (** sqlite PRAGMA state *)
  coverage : Coverage.t option;
  resolve :
    table:string option -> column:string -> (resolved, Errors.t) result;
}

(** Environment with no columns in scope (constant expressions). *)
val const_env :
  ?bugs:Bug.set -> ?case_sensitive_like:bool -> Dialect.t -> env

(** Dialect encoding of a three-valued result: INTEGER 0/1/NULL for sqlite
    and mysql, BOOLEAN/NULL for postgres. *)
val bool_value : Dialect.t -> Tvl.t -> Value.t

val eval : env -> Sqlast.Ast.expr -> (Value.t, Errors.t) result

(** Evaluate in boolean context (WHERE/JOIN/HAVING). *)
val eval_tvl : env -> Sqlast.Ast.expr -> (Tvl.t, Errors.t) result

(** Static column metadata of an expression, if it is (a decoration of) a
    column reference; comparison affinity/collation rules consult it. *)
val column_meta :
  env -> Sqlast.Ast.expr -> (Datatype.t * Collation.t) option

(** The collation governing a comparison of [a] with [b] under SQLite's
    rules (explicit COLLATE anywhere wins, else left column's collation,
    else right's, else BINARY). *)
val comparison_collation :
  env -> Sqlast.Ast.expr -> Sqlast.Ast.expr -> Collation.t

(** The explicit collation of [e] (COLLATE node, or a non-BINARY column
    collation), if any. *)
val explicit_collation : env -> Sqlast.Ast.expr -> Collation.t option

(** {1 Value-level operator bodies}

    The post-operand-evaluation bodies of the evaluator, shared with the
    query executor's closure compiler ({!Compile}) so writes and queries
    inherit one definition of every dialect quirk and injected bug.  Expression
    arguments ([ea]/[eb]/[arg]/…) are consulted only for statically
    resolvable column metadata (collation, affinity, declared width),
    never for row values. *)

(** Truth value of a value in boolean context. *)
val value_tvl : env -> Value.t -> (Tvl.t, Errors.t) result

(** Comparison operators ([=], [<>], [<], [<=], [>], [>=], [<=>]). *)
val compare_op :
  env ->
  Sqlast.Ast.binop ->
  Sqlast.Ast.expr ->
  Sqlast.Ast.expr ->
  Value.t ->
  Value.t ->
  (Value.t, Errors.t) result

(** The static slice of a comparison — collation, affinity adjustments,
    metadata-gated bug decisions — computed once from the operand
    expressions and the binding layout.  {!compare_op} is
    [compare_apply] of [compare_prep]; the query executor preps at
    compile time and replays per row. *)
type cmp_prep

val compare_prep :
  env -> Sqlast.Ast.binop -> Sqlast.Ast.expr -> Sqlast.Ast.expr -> cmp_prep

val compare_apply :
  env -> cmp_prep -> Value.t -> Value.t -> (Value.t, Errors.t) result

(** Arithmetic operators ([+], [-], [*], [/], [%]). *)
val arith :
  env ->
  Sqlast.Ast.binop ->
  Sqlast.Ast.expr ->
  Sqlast.Ast.expr ->
  Value.t ->
  Value.t ->
  (Value.t, Errors.t) result

(** Bitwise operators ([&], [|], [<<], [>>]). *)
val bitop :
  env -> Sqlast.Ast.binop -> Value.t -> Value.t -> (Value.t, Errors.t) result

(** Unary minus. *)
val neg_value : env -> Value.t -> (Value.t, Errors.t) result

(** Bitwise complement. *)
val bit_not_value : env -> Value.t -> (Value.t, Errors.t) result

(** Negate [t] when [negated], then encode with {!bool_value}. *)
val is_finish : env -> negated:bool -> Tvl.t -> (Value.t, Errors.t) result

(** [IS \[NOT\] TRUE/FALSE] of an evaluated operand;
    [want] is [True] for IS TRUE, [False] for IS FALSE. *)
val is_bool_value :
  env -> negated:bool -> want:Tvl.t -> Value.t -> (Value.t, Errors.t) result

(** [\[NOT\] BETWEEN] of evaluated operands; [arg]/[lo]/[hi] are the
    operand expressions (metadata only). *)
val between_value :
  env ->
  negated:bool ->
  arg:Sqlast.Ast.expr ->
  lo:Sqlast.Ast.expr ->
  hi:Sqlast.Ast.expr ->
  Value.t ->
  Value.t ->
  Value.t ->
  (Value.t, Errors.t) result

(** Static slice of a BETWEEN ({!between_value} = apply of prep). *)
type between_prep

val between_prep :
  env ->
  negated:bool ->
  arg:Sqlast.Ast.expr ->
  lo:Sqlast.Ast.expr ->
  hi:Sqlast.Ast.expr ->
  between_prep

val between_apply :
  env ->
  between_prep ->
  Value.t ->
  Value.t ->
  Value.t ->
  (Value.t, Errors.t) result

(** Verdict of an IN list that ran out of items without a match. *)
val in_empty_tvl : env -> saw_null:bool -> Tvl.t

(** Decode an evaluated ESCAPE operand to its escape character. *)
val like_escape_char : Value.t -> (char option, Errors.t) result

(** [\[NOT\] LIKE] of evaluated operands. *)
val like_value :
  env ->
  negated:bool ->
  arg:Sqlast.Ast.expr ->
  Value.t ->
  Value.t ->
  char option ->
  (Value.t, Errors.t) result

(** Static slice of a LIKE ({!like_value} = apply of prep). *)
type like_prep

val like_prep : env -> negated:bool -> arg:Sqlast.Ast.expr -> like_prep

val like_apply :
  env ->
  like_prep ->
  Value.t ->
  Value.t ->
  char option ->
  (Value.t, Errors.t) result

(** [\[NOT\] GLOB] of evaluated operands (sqlite dialect only; the
    dialect check happens before operand evaluation). *)
val glob_value :
  env -> negated:bool -> Value.t -> Value.t -> (Value.t, Errors.t) result

(** [CAST (v AS ty)] of an evaluated operand. *)
val cast_value : env -> Datatype.t -> Value.t -> (Value.t, Errors.t) result

(** Scalar function application over evaluated arguments; the expression
    list is consulted for metadata only (NULLIF collation, TYPEOF
    affinity). *)
val apply_func :
  env ->
  Sqlast.Ast.func ->
  Value.t list ->
  Sqlast.Ast.expr list ->
  (Value.t, Errors.t) result

(** Whether [f] exists in the dialect. *)
val func_available : Dialect.t -> Sqlast.Ast.func -> bool

(** The [func.*] coverage-point suffix of [f]. *)
val func_point : Sqlast.Ast.func -> string
