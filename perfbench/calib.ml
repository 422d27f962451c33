(* Reference speed.  The machines this benchmark runs on are shared
   virtual machines whose speed drifts by 10-40% over seconds as other
   tenants come and go.  So around every batch the benchmark times a fixed
   computation of its own and converts the batch's measured seconds into
   reference seconds: the time the batch would have taken where this
   computation runs [nominal] times a second.

   The computation is built like the program's own work — short-lived
   maps, lists and hash tables, so it allocates through the minor heap and
   chases pointers — because a drift slows allocation-heavy OCaml code
   about twice as much as a plain array loop, and only a kernel that slows
   alike cancels it.  What it builds dies young, so its cost does not
   depend on the program's live heap. *)

module Int_map = Map.Make (Int)

let work () =
  let st = ref 12345 in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    !st
  in
  let m = ref Int_map.empty in
  for _ = 1 to 2000 do
    m := Int_map.add (next () mod 5000) (next ()) !m
  done;
  let l = List.sort compare (List.init 2000 (fun _ -> next ())) in
  let h = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace h (string_of_int (x mod 1000)) x) l;
  Int_map.cardinal !m + Hashtbl.length h

(* runs of [work] per second on the machine the benchmark was defined on *)
let nominal = 900.
let calls = 16

(* reference seconds per measured second, right now, for work spread over
   [domains] domains: each runs the computation, so a busy core slows the
   reading as it slows a sharded batch *)
let speed ?(domains = 1) () =
  let run () =
    let acc = ref 0 in
    for _ = 1 to calls do
      acc := !acc + work ()
    done;
    !acc
  in
  let t0 = Telemetry.Clock.now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn run) in
  let acc = List.fold_left (fun a d -> a + Domain.join d) (run ()) others in
  ignore (Sys.opaque_identity acc);
  float_of_int calls /. (Telemetry.Clock.now () -. t0) /. nominal
