(* The four workloads; why each was chosen is recorded in BENCHMARK.json.
   Each is a closed loop in one process: the next campaign batch starts
   when the previous one (and, in bug-hunt, the reduction of its findings)
   has finished. *)

open Sqlval
module Runner = Pqs.Runner

type t = {
  name : string;
  dialects : Dialect.t array;  (** cycled batch by batch *)
  bugs : bool;  (** enable each dialect's whole bug catalog *)
  domains : int;
  batch : int;  (** seeds per [Campaign.run] call *)
  warmup_batches : int;  (** batches of one set-up *)
  config : Engine.Bug.set -> Dialect.t -> Runner.Config.t;
}

let bug_set bugs d =
  if bugs then Engine.Bug.set_of_list (Engine.Bug.for_dialect d)
  else Engine.Bug.empty_set

(* the paper's loop on the defaults: 2 tables, <= 6 rows, 8 extra
   statements, 4 pivots x 6 checks, error/crash/containment oracles *)
let hunt_default =
  {
    name = "hunt-default";
    dialects = [| Dialect.Sqlite_like |];
    bugs = false;
    domains = 1;
    batch = 200;
    warmup_batches = 1;
    config = (fun bugs d -> Runner.Config.make ~bugs d);
  }

(* Query execution dominates.  20-row tables rather than 60: at 60 rows a
   run of 20 s holds ~500 rounds, too few for a steady mean or a p99 with
   ten samples beyond it. *)
let query_heavy =
  {
    name = "query-heavy";
    dialects = [| Dialect.Sqlite_like |];
    bugs = false;
    domains = 1;
    batch = 24;
    warmup_batches = 2;
    config =
      (fun bugs d ->
        Runner.Config.make ~bugs ~max_rows:20 ~queries_per_pivot:12
          ~oracles:
            (Pqs.Oracle.defaults
            @ [ Pqs.Plan_diff.oracle (); Pqs.Const_opt.oracle () ])
          d);
  }

(* ~98% of statements are DDL/DML; the only workload on two domains.
   Every [Campaign.run] spawns its domains afresh, and the major heap grows
   with the number of calls (200-seed calls took it from 10 to 31 MB in
   6 s), so the batches are long, like one campaign over a large seed
   range: 1000-seed calls keep it near 30 MB. *)
let write_heavy_j2 =
  {
    name = "write-heavy-j2";
    dialects = [| Dialect.Sqlite_like |];
    bugs = false;
    domains = 2;
    batch = 1000;
    warmup_batches = 1;
    config =
      (fun bugs d ->
        Runner.Config.make ~bugs ~extra_statements:80 ~pivots_per_db:1
          ~queries_per_pivot:2 d);
  }

(* every catalog bug of each dialect, default shape; findings are reduced *)
let bug_hunt =
  {
    name = "bug-hunt";
    dialects =
      [| Dialect.Sqlite_like; Dialect.Mysql_like; Dialect.Postgres_like |];
    bugs = true;
    domains = 1;
    batch = 50;
    warmup_batches = 3;
    config = (fun bugs d -> Runner.Config.make ~bugs d);
  }

let all = [ hunt_default; query_heavy; write_heavy_j2; bug_hunt ]
let find name = List.find_opt (fun w -> w.name = name) all

(* batch [k] runs the [k]th dialect of the cycle *)
let dialect_of w k = w.dialects.(k mod Array.length w.dialects)

let config_for w k =
  let d = dialect_of w k in
  w.config (bug_set w.bugs d) d

(* disjoint seed ranges per benchmark seed: a run uses far fewer than a
   million rounds *)
let base_seed seed = 1 + (seed * 1_000_000)
