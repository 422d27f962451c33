(* Generates BUGS.md: the injected-bug catalog with an automatically found
   and reduced reproduction script per bug — the analogue of the paper's
   supplementary bug list (https://www.manuelrigger.at/pqs). *)

open Sqlval

let header =
  "# BUGS — the injected-defect catalog with reduced reproductions\n\n\
   This file is generated by `dune exec bin/experiments.exe -- bugs`.  Each\n\
   entry is one injected defect (standing in for a bug class the paper\n\
   reported), the oracle that detected it, its report status, and the\n\
   automatically reduced reproduction script PQS produced.  Replay any\n\
   script in the REPL after enabling the bug:\n\n\
   ```\n\
   dune exec bin/minidb.exe -- --dialect <dialect>\n\
   minidb> .bugs <Bug_name>\n\
   minidb> <paste the script>\n\
   ```\n"

(* the bundle workflow, after the header: from a campaign's finding to
   the operator that loses the row *)
let triage =
  {|
## How to triage a repro bundle

Campaigns run with `--bundles DIR` leave one
`bundle-<seed>-<oracle>/` directory per finding; a bug report's text
output names its bundle path.  Working through one:

1. **Confirm it reproduces.** `sqlancer replay <dir>/repro.sql` re-runs
   the script under the bug set named in the header and re-checks the
   verdict; `FAIL` here means a flaky or environment-dependent finding —
   stop and investigate the nondeterminism first.  Exit code 0 means
   every bundle passed.
2. **Read the header.** The `-- key: value` lines of `repro.sql` give
   the dialect, seed, oracle token, the funnel phase in which the oracle
   fired (`gen_db` / `database_ready` / `containment`), and the enabled
   bugs.  A finding in `gen_db` indicts DDL/DML handling; `containment`
   indicts the query path.
3. **Compare expected vs actual.** `bundle.json` holds the pivot row the
   oracle expected and the result set the engine returned, plus the
   annotated access plan of the failing query.  A plan line naming a
   partial/expression index is the first suspect for row-losing bugs.
4. **Walk the event log.** `trace.json` is the round's flight-recorder
   history: every statement with outcome and latency, the pivot choice,
   each expression's interpreter verdict and rectification, the planner
   decision, and per-operator rows in/out with B-tree visit counts.  The
   operator whose `rows_out` first disagrees with the interpreter's
   expectation localizes the defect; compare against a healthy round's
   `round-<seed>-trace.json` (written with `--trace-sample N`) when the
   failure mode is unclear.
5. **Re-run interactively.** Paste the script into the REPL (as above)
   and use `EXPLAIN ANALYZE <query>` to watch the per-operator row
   counts live while toggling `.bugs`.

Bundles are re-derived after reduction (`-- reduced: true` appears in
the header), so the script you replay is the minimized one the report
prints.
|}

let entry buf (o : Detection.outcome) =
  let bug = o.Detection.bug in
  let info = Engine.Bug.info bug in
  Buffer.add_string buf
    (Printf.sprintf "\n## %s\n\n- dialect: %s\n- models: paper %s\n- status: %s\n- summary: %s\n"
       (Engine.Bug.show bug)
       (Dialect.display_name info.Engine.Bug.dialect)
       info.Engine.Bug.paper_ref
       (Engine.Bug.show_status info.Engine.Bug.status)
       info.Engine.Bug.summary);
  match o.Detection.report with
  | None ->
      Buffer.add_string buf "\nNot detected within the configured budget.\n"
  | Some r ->
      Buffer.add_string buf
        (Printf.sprintf "- detected by: %s oracle (%s)\n\n```sql\n%s\n```\n"
           (Pqs.Bug_report.oracle_label r.Pqs.Bug_report.oracle)
           r.Pqs.Bug_report.message
           (Pqs.Bug_report.script r))

let generate ?(path = "BUGS.md") (det : Detection.t) =
  let det = Detection.with_reductions det in
  let buf = Buffer.create 16384 in
  Buffer.add_string buf header;
  Buffer.add_string buf triage;
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "\n# %s\n" (Dialect.display_name d));
      List.iter (entry buf) (Detection.by_dialect det d))
    Dialect.all;
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s (%d entries, %d with reproductions)\n" path
    (List.length det)
    (List.length (Detection.detected det))
