(* Every workload on a tiny seed range, end to end and traced. *)

let tiny (w : Workload.t) = { w with Workload.batch = 4; warmup_batches = 1 }

let run ~seed =
  List.for_all
    (fun w ->
      let w = tiny w in
      let e2e = Measure.run w ~seed ~seconds:0. in
      let traced = Layers.run w ~seed ~seconds:0. in
      Printf.printf "smoke %s: end-to-end %b, traced %b\n%!" w.name e2e.correct
        traced.correct;
      e2e.correct && traced.correct)
    Workload.all
