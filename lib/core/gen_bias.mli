(** Coverage-guided generation: query-shape fingerprints and frontier-
    directed shape planning.

    The frontier ({!Frontier}) is a vocabulary-agnostic point set; this
    module owns the vocabulary.  Three point groups:

    - [shape.*] — clause-combination fingerprints of a synthesized SELECT:
      join shape (single table / comma cross product / INNER / LEFT),
      derived-table wrapping, WHERE conjunct arity (capped at 3), and the
      DISTINCT / ORDER BY / GROUP BY flags.  One point per query.
    - [expr.*] — the expression-kind multiset of the query's WHERE, JOIN
      and target expressions (comparison, LIKE, BETWEEN, CASE, ...).  One
      point per occurrence, so frontier hit counts are the multiset.
    - [plan.*] — planner access paths, taken from the engine's
      [Engine.Coverage] instrument ([plan.full_scan] ... [plan.or_union]).

    {!universe} enumerates the points reachable for a dialect — the
    denominator of the frontier fraction and the candidate set guided
    generation aims at.  {!plan} inverts a cold [shape.*] point back into
    a {!shape} that [Gen_query.synthesize ~shape] steers generation
    toward, and picks a cold [expr.*] kind for one WHERE conjunct. *)

open Sqlval

(** Desired query shape, decoded from a [shape.*] frontier point. *)
type shape = {
  sh_tables : int;  (** pivot sources the shape wants (1 or 2) *)
  sh_join : [ `Single | `Cross | `Inner | `Left ];
  sh_sub : bool;  (** wrap pivot tables as derived tables *)
  sh_where : int;  (** WHERE conjunct count, 1–3 *)
  sh_distinct : bool;
  sh_order : bool;
  sh_group : bool;
  sh_pred : string option;
      (** cold expression kind (an [expr.*] token without the prefix) to
          aim the first WHERE conjunct at; [None] leaves it random *)
}

(** The [shape.*] point of a shape (ignores [sh_pred]). *)
val point_of_shape : shape -> string

(** Decode a [shape.*] point; [None] on malformed input. *)
val shape_of_point : string -> shape option

(** The clause-combination and expression-kind points of one synthesized
    SELECT: exactly one [shape.*] point (first) plus one [expr.*] point
    per expression-node occurrence. *)
val fingerprint : Sqlast.Ast.select -> string list

(** One round's counts of the points {!fingerprint} gives, kept by point
    number (each point's string is built once, for every round).  Counting
    a round's queries here and turning the counts into a frontier once
    gives the same frontier as a union of the queries' fingerprints. *)
type tally

(** A tally with every count 0. *)
val tally : unit -> tally

(** Count the points of one SELECT, as {!fingerprint} lists them. *)
val count : tally -> Sqlast.Ast.select -> unit

(** The counted points, each with its count as hits and [seed] as
    [first_seed]: the {!Frontier.union} of [Frontier.of_points ~seed
    (fingerprint q)] over the counted queries. *)
val tally_frontier : seed:int -> tally -> Frontier.t

(** Every frontier point reachable for the dialect, in stable display
    order: [shape.*] combinations first, then [expr.*] kinds, then
    [plan.*] paths. *)
val universe : Dialect.t -> string list

(** The [plan.*] subset of {!universe} (what the runner snapshots from
    the coverage instrument). *)
val plan_points : Dialect.t -> string list

(** One of the coldest WHERE-targetable [expr.*] kinds of the dialect
    (uniform among ties; aggregates excluded — they cannot appear in a
    WHERE conjunct).  Applied from the first round: the kind vocabulary
    warms within a few rounds, so rotating the first conjunct through the
    least-exercised kinds has none of the cold-start pathology of shape
    guidance. *)
val cold_pred : rng:Rng.t -> dialect:Dialect.t -> Frontier.t -> string option

(** Pick a generation target: a shape decoded from one of the coldest
    [shape.*] points of the dialect's universe (uniform among the ties)
    with [sh_pred] set to {!cold_pred}.  Shape guidance ramps up with
    frontier warmth — against a mostly cold frontier it returns [None]
    (sample blind) almost always, since uniform cold-picking would hunt
    worse than the tuned blind distribution. *)
val plan : rng:Rng.t -> dialect:Dialect.t -> Frontier.t -> shape option
