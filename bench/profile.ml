(* A sampling profiler for the benchmark workloads.

     dune exec bench/profile.exe -- --workload NAME

   (or [make profile W=NAME]).  Runs the workload's warm-up batches
   unsampled, then its timed campaign batches, as perfbench runs them, for
   [seconds] under a SIGPROF interval timer that counts process CPU time.
   Each tick records the OCaml call stack of the domain that handles the
   signal ([Printexc.get_callstack]).  Writes the stacks in collapsed form
   to profile-NAME.folded (one [root;...;leaf count] line per distinct
   stack, the input of flamegraph.pl and speedscope) and prints the
   frames with the most self and inclusive samples.

   OCaml runs signal handlers at safepoints (allocations, function
   prologues, loop back-edges), so a sample lands on the next safepoint
   after the tick, not on the instruction that was running: a tight
   non-allocating loop is charged to whatever allocates after it.  Read
   the shares as a guide to where time goes, not as exact costs.  On two
   domains the samples mix both domains' stacks.

   Allocation points are safepoints too, and a minor collection runs at
   one.  An allocation made in C (the [caml_alloc] behind [Array.map],
   [Array.make] or [Hashtbl.create]) and the minor collection it may
   start have no OCaml frame of their own, so their time is charged to
   the OCaml frame that called them: [Stdlib__Array.map],
   [Hashtbl.create], [run_select.emit], [run_query.go].  Such a frame's
   self share measures the garbage the whole program makes as much as
   its own work.  A query-heavy profile once put [Eval.with_layout]'s
   null tuple and [Eval.binding_of_table] at 5.5% of self samples; by the
   clock each costs ~0.08 us per table (sqlite corpus, seeds 1-300, on a
   2-core container), against ~13-16 us for the containment check that
   builds them.  Time a suspected per-statement cost with the clock
   before cutting it.  The profile also prints the sampled batches' minor
   words per batch and minor collections ([Gc.quick_stat] deltas around
   them): a frame whose self share tracks the allocation rate is likely
   paying for GC, not doing work. *)

open Perfbench

let seed = 50
let seconds = 20.
let hz = 250
let top_k = 25

let samples : Printexc.raw_backtrace list Atomic.t = Atomic.make []

let rec push bt =
  let old = Atomic.get samples in
  if not (Atomic.compare_and_set samples old (bt :: old)) then push bt

let frame_name slot =
  match Printexc.Slot.name slot with
  | Some n -> n
  | None -> (
      match Printexc.Slot.location slot with
      | Some l -> Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
      | None -> "?")

(* innermost-first frame names, without the sampler's own frames *)
let frames bt =
  let names =
    match Printexc.backtrace_slots bt with
    | None -> []
    | Some slots -> List.map frame_name (Array.to_list slots)
  in
  let own n =
    List.exists
      (fun prefix -> String.starts_with ~prefix n)
      [ "Dune__exe__Profile."; "Stdlib__Printexc."; "Stdlib__Sys." ]
  in
  let rec drop = function n :: rest when own n -> drop rest | l -> l in
  drop names

let count_into tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let top k tbl =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) tbl []
  |> List.sort (fun (a, x) (b, y) -> if x <> y then compare y x else compare a b)
  |> List.filteri (fun i _ -> i < k)

let () =
  let workload = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME perfbench workload") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "profile --workload NAME";
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload " ^ !workload ^ "; one of: "
          ^ String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
        exit 2
  in
  let out = "profile-" ^ w.Workload.name ^ ".folded" in
  let period = 1. /. float_of_int hz in
  ignore (Measure.setup w);
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle (fun _ -> push (Printexc.get_callstack 256)));
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = period; it_value = period });
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let batches =
    List.length
      (Measure.timed_batches w ~base:(Workload.base_seed seed) ~seconds
         (fun k ~seed_lo -> ignore (Measure.run_batch w k ~seed_lo)))
  in
  let wall = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  let stacks = List.map frames (Atomic.get samples) in
  let n = List.length stacks in
  let collapsed = Hashtbl.create 1024
  and self = Hashtbl.create 256
  and incl = Hashtbl.create 256 in
  List.iter
    (fun fs ->
      count_into collapsed (String.concat ";" (List.rev fs));
      (match fs with leaf :: _ -> count_into self leaf | [] -> ());
      List.iter (count_into incl) (List.sort_uniq String.compare fs))
    stacks;
  let oc = open_out out in
  List.iter
    (fun (stack, c) -> Printf.fprintf oc "%s %d\n" stack c)
    (top max_int collapsed);
  close_out oc;
  Printf.printf
    "%s seed %d: %d batches in %.1f s wall, %d samples at %d Hz of CPU time\n"
    w.Workload.name seed batches wall n hz;
  Printf.printf
    "allocation: %.0f minor words per batch, %d minor GCs over the %d \
     sampled batches\n"
    ((g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int (max 1 batches))
    (g1.Gc.minor_collections - g0.Gc.minor_collections)
    batches;
  Printf.printf "collapsed stacks: %s\n" out;
  print_endline
    "samples land at OCaml safepoints: shares are a guide, not exact costs";
  let table title tbl =
    Printf.printf "\n%s\n%7s %6s  %s\n" title "samples" "share" "frame";
    List.iter
      (fun (name, c) ->
        Printf.printf "%7d %5.1f%%  %s\n" c
          (100. *. float_of_int c /. float_of_int (max 1 n))
          name)
      (top top_k tbl)
  in
  table "top self frames (leaf of the stack)" self;
  table "top inclusive frames (anywhere on the stack)" incl
