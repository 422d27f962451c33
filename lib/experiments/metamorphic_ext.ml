(* Future-work extension (paper Section 7): metamorphic aggregate testing.

   Checks the three-way partition relation COUNT/MIN/MAX(whole) =
   combine(partitions) on random databases, both against the correct
   engine (must hold) and with a row-losing injected defect enabled
   (must be violated). *)

open Sqlval

let run ~checks () =
  let rows =
    List.map
      (fun d ->
        let s = Pqs.Metamorphic.run ~seed:11 ~max_checks:checks d in
        [
          Dialect.display_name d;
          string_of_int s.Pqs.Metamorphic.checks;
          string_of_int s.Pqs.Metamorphic.skipped;
          string_of_int (List.length s.Pqs.Metamorphic.findings);
        ])
      Dialect.all
  in
  Fmt_table.print
    ~title:
      "Metamorphic aggregate extension (paper Sec. 7) — partition relation \
       on the correct engine (findings must be 0)"
    ~columns:[ "DBMS"; "checks"; "skipped"; "violations" ]
    rows;
  (* the same relation breaks under a row-losing defect *)
  let bug = Engine.Bug.Sq_partial_index_implies_not_null in
  let s =
    Pqs.Metamorphic.run ~seed:11
      ~bugs:(Engine.Bug.set_of_list [ bug ])
      ~max_checks:(4 * checks) Dialect.Sqlite_like
  in
  Printf.printf
    "  with %s enabled: %d violation(s) in %d checks — aggregates over \
     multiple rows are now testable without a pivot oracle\n"
    (Engine.Bug.show bug)
    (List.length s.Pqs.Metamorphic.findings)
    s.Pqs.Metamorphic.checks
