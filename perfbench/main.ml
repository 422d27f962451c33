(* The repository benchmark: runs one PQS workload for a fixed time and
   prints its metrics.

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics of untraced runs, timed
   in reference seconds (see calib.ml); with --trace 1 the per-layer
   metrics of a traced pass (see layers.ml), timed in plain seconds.  The
   last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the exit code is 1 when an
   output check failed.  --smoke runs every workload on a tiny seed range
   and exits 0 when all checks pass. *)

open Perfbench

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print (r : Measure.result) =
  List.iter print_endline r.notes;
  List.iter
    (fun (m : Measure.metric) ->
      Printf.printf "%s = %s %s\n" m.name (json_number m.value) m.unit)
    r.metrics;
  let metrics =
    List.map
      (fun (m : Measure.metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--smoke", Arg.Set smoke, " run every workload on a tiny seed range");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !smoke then exit (if Smoke.run ~seed:!seed then 0 else 1);
  match Workload.find !workload with
  | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ "; one of: "
        ^ String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
      exit 2
  | Some w ->
      let r =
        if !trace = 1 then Layers.run w ~seed:!seed ~seconds:!seconds
        else Measure.run w ~seed:!seed ~seconds:!seconds
      in
      print r;
      if not r.correct then exit 1
