open Sqlval

type t = {
  v_dialect : Dialect.t;
  v_source : string;
  v_files : unit -> string list;
  v_universe : string list;
  mutable v_agg : Aggregate.t;
  mutable v_tails : (string * Tail.t) list;
  v_shard_file : (int, string) Hashtbl.t;
      (** the file each shard's heartbeats came from *)
}

let create ~dialect ~source files =
  {
    v_dialect = dialect;
    v_source = source;
    v_files = files;
    v_universe = Pqs.Gen_bias.universe dialect;
    v_agg = Aggregate.create ~dialect;
    v_tails = [];
    v_shard_file = Hashtbl.create 16;
  }

let aggregate t = t.v_agg

let rec refresh t =
  List.iter
    (fun path ->
      if not (List.mem_assoc path t.v_tails) then
        t.v_tails <- t.v_tails @ [ (path, Tail.create path) ])
    (t.v_files ());
  let now = Unix.gettimeofday () in
  let rotated = ref false in
  List.iter
    (fun (path, tail) ->
      List.iter
        (function
          | Tail.Rotated -> rotated := true
          | Tail.Line line -> (
              match Pqs.Heartbeat.decode line with
              | Ok hb ->
                  Aggregate.feed t.v_agg ~now hb;
                  Hashtbl.replace t.v_shard_file hb.Pqs.Heartbeat.shard path
              | Error _ -> ()))
        (Tail.poll tail))
    t.v_tails;
  (* a truncated or replaced file (a campaign rerun onto the same trace,
     a reused fleet directory) would double count: rebuild from the top *)
  if !rotated then begin
    List.iter (fun (_, tail) -> Tail.close tail) t.v_tails;
    t.v_tails <- [];
    t.v_agg <- Aggregate.create ~dialect:t.v_dialect;
    Hashtbl.reset t.v_shard_file;
    refresh t
  end

let complete t =
  match Aggregate.shards t.v_agg with
  | [] -> false
  | shards ->
      List.for_all
        (fun (sh : Aggregate.shard) -> sh.Aggregate.sh_next >= sh.Aggregate.sh_hi)
        shards

(* heartbeat age from the mtime of the file the shard's heartbeats came
   from: the only liveness signal comparable across processes *)
let heartbeat_age t shard ~now =
  match Hashtbl.find_opt t.v_shard_file shard with
  | None -> None
  | Some path -> (
      match Unix.stat path with
      | st -> Some (now -. st.Unix.st_mtime)
      | exception Unix.Unix_error _ -> None)

(* the viewer has no watchdog; classify shards from progress + age *)
let shard_view_state t (sh : Aggregate.shard) ~now ~stall_after =
  match sh.Aggregate.sh_state with
  | (Aggregate.Killed | Aggregate.Crashed | Aggregate.Stalled) as s -> s
  | _ when sh.Aggregate.sh_next >= sh.Aggregate.sh_hi -> Aggregate.Done
  | _ -> (
      match heartbeat_age t sh.Aggregate.sh_shard ~now with
      | Some age when age > stall_after -> Aggregate.Stalled
      | _ -> Aggregate.Running)

let fleet_rate agg =
  List.fold_left
    (fun acc (sh : Aggregate.shard) ->
      if sh.Aggregate.sh_next < sh.Aggregate.sh_hi then
        acc +. sh.Aggregate.sh_rate
      else acc)
    0.0 (Aggregate.shards agg)

let bar width frac =
  let filled = int_of_float (frac *. float_of_int width) in
  let filled = max 0 (min width filled) in
  String.concat ""
    (List.init width (fun i -> if i < filled then "#" else "-"))

let short_fp fp = if String.length fp > 12 then String.sub fp 0 12 else fp

let render ?(ansi = false) ?(stale = 10) ?(stall_after = 30.0) t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if ansi then Buffer.add_string buf "\027[2J\027[H";
  let now = Unix.gettimeofday () in
  let agg = t.v_agg in
  let shards = Aggregate.shards agg in
  let states =
    List.map (fun sh -> (sh, shard_view_state t sh ~now ~stall_after)) shards
  in
  let live =
    List.length (List.filter (fun (_, s) -> s = Aggregate.Running) states)
  in
  add "pqs fleet — %s (%s)\n" (Dialect.display_name t.v_dialect) t.v_source;
  add
    "shards %d live / %d total   rounds %d   rounds/s %.1f   distinct repros \
     %d (of %d findings)\n"
    live (List.length shards) (Aggregate.rounds agg) (fleet_rate agg)
    (Aggregate.distinct_reports agg)
    (Aggregate.total_reports agg);
  let frontier = (Aggregate.stats agg).Pqs.Stats.frontier in
  let frac = Frontier.fraction ~universe:t.v_universe frontier in
  add "frontier [%s] %d/%d (%.1f%%)\n" (bar 32 frac)
    (Frontier.hit_in ~universe:t.v_universe frontier)
    (List.length t.v_universe) (100.0 *. frac);
  if shards = [] then add "shards: (no heartbeats yet)\n"
  else begin
    add "  %-5s %-8s %-4s %-16s %-8s %-7s %-7s %s\n" "shard" "state" "slot"
      "lease" "next" "rounds" "rps" "hb-age";
    List.iter
      (fun ((sh : Aggregate.shard), state) ->
        add "  %-5d %-8s %-4d %-16s %-8d %-7d %-7.1f %s\n"
          sh.Aggregate.sh_shard
          (Aggregate.state_name state)
          sh.Aggregate.sh_slot
          (Printf.sprintf "[%d,%d)" sh.Aggregate.sh_lo sh.Aggregate.sh_hi)
          sh.Aggregate.sh_next sh.Aggregate.sh_rounds sh.Aggregate.sh_rate
          (match heartbeat_age t sh.Aggregate.sh_shard ~now with
          | Some age -> Printf.sprintf "%.1fs" age
          | None -> "n/a"))
      states
  end;
  (match Aggregate.oracle_funnel agg with
  | [] -> add "oracle funnel: (no findings yet)\n"
  | funnel ->
      add "oracle funnel:\n";
      List.iter (fun (o, c) -> add "  %-14s %d\n" o c) funnel);
  (match Aggregate.findings agg with
  | [] -> ()
  | findings ->
      add "findings (distinct repros, first-discovering shard):\n";
      List.iter
        (fun (f : Aggregate.finding) ->
          add "  %s  %-14s shard %d seed %d  ×%d%s\n"
            (short_fp f.Aggregate.f_fingerprint)
            f.Aggregate.f_oracle f.Aggregate.f_shard f.Aggregate.f_seed
            f.Aggregate.f_count
            (match f.Aggregate.f_bundle with
            | Some b -> "  " ^ b
            | None -> ""))
        findings);
  let cold =
    Frontier.coldest ~n:stale ~universe:t.v_universe frontier
    |> List.filter (fun (_, hits) -> hits = 0)
  in
  (match cold with
  | [] -> add "frontier fully exercised\n"
  | cold ->
      add "stale points (%d coldest):\n" (List.length cold);
      List.iter (fun (p, _) -> add "  %s\n" p) cold);
  Buffer.contents buf

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_html ?(stale = 25) ?(stall_after = 30.0) t =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let now = Unix.gettimeofday () in
  let agg = t.v_agg in
  let shards = Aggregate.shards agg in
  let frontier = (Aggregate.stats agg).Pqs.Stats.frontier in
  let frac = Frontier.fraction ~universe:t.v_universe frontier in
  add "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  add "<title>pqs fleet report — %s</title>\n"
    (html_escape (Dialect.display_name t.v_dialect));
  add
    "<style>body{font-family:monospace;margin:2em;background:#111;color:#eee}\n\
     table{border-collapse:collapse;margin:1em 0}\n\
     td,th{border:1px solid #444;padding:4px 10px;text-align:left}\n\
     .bar{background:#333;width:320px;height:14px;display:inline-block}\n\
     .fill{background:#4c4;height:14px;display:block}\n\
     h1,h2{color:#8cf}.cold{color:#fa6}.bad{color:#f66}</style></head><body>\n";
  add "<h1>pqs fleet — %s</h1>\n"
    (html_escape (Dialect.display_name t.v_dialect));
  add "<p>%s</p>\n" (html_escape t.v_source);
  add
    "<table><tr><th>shards</th><th>rounds</th><th>rounds/s</th>\
     <th>reports</th><th>distinct repros</th></tr>";
  add "<tr><td>%d</td><td>%d</td><td>%.1f</td><td>%d</td><td>%d</td></tr>\
       </table>\n"
    (List.length shards) (Aggregate.rounds agg) (fleet_rate agg)
    (Aggregate.total_reports agg)
    (Aggregate.distinct_reports agg);
  add "<h2>Shards</h2>\n";
  add
    "<table><tr><th>shard</th><th>state</th><th>slot</th><th>lease</th>\
     <th>next</th><th>rounds</th><th>rps</th><th>hb age</th></tr>";
  List.iter
    (fun (sh : Aggregate.shard) ->
      let state = shard_view_state t sh ~now ~stall_after in
      let cls =
        match state with
        | Aggregate.Stalled | Aggregate.Killed | Aggregate.Crashed ->
            " class=\"bad\""
        | _ -> ""
      in
      add
        "<tr><td>%d</td><td%s>%s</td><td>%d</td><td>[%d,%d)</td><td>%d</td>\
         <td>%d</td><td>%.1f</td><td>%s</td></tr>"
        sh.Aggregate.sh_shard cls
        (Aggregate.state_name state)
        sh.Aggregate.sh_slot sh.Aggregate.sh_lo sh.Aggregate.sh_hi
        sh.Aggregate.sh_next sh.Aggregate.sh_rounds sh.Aggregate.sh_rate
        (match heartbeat_age t sh.Aggregate.sh_shard ~now with
        | Some age -> Printf.sprintf "%.1fs" age
        | None -> "n/a"))
    shards;
  add "</table>\n";
  add "<h2>Coverage frontier</h2>\n";
  add
    "<p><span class=\"bar\"><span class=\"fill\" style=\"width:%.1f%%\">\
     </span></span> %d/%d points (%.1f%%)</p>\n"
    (100.0 *. frac)
    (Frontier.hit_in ~universe:t.v_universe frontier)
    (List.length t.v_universe) (100.0 *. frac);
  add "<h2>Oracle funnel</h2>\n";
  (match Aggregate.oracle_funnel agg with
  | [] -> add "<p>(no findings)</p>\n"
  | funnel ->
      add "<table><tr><th>oracle</th><th>firings</th></tr>";
      List.iter
        (fun (o, c) -> add "<tr><td>%s</td><td>%d</td></tr>" (html_escape o) c)
        funnel;
      add "</table>\n");
  add "<h2>Distinct findings</h2>\n";
  (match Aggregate.findings agg with
  | [] -> add "<p>(no findings)</p>\n"
  | findings ->
      add
        "<table><tr><th>fingerprint</th><th>oracle</th><th>first shard</th>\
         <th>first seed</th><th>count</th><th>bundle</th></tr>";
      List.iter
        (fun (f : Aggregate.finding) ->
          add
            "<tr><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td>\
             <td>%s</td></tr>"
            (html_escape (short_fp f.Aggregate.f_fingerprint))
            (html_escape f.Aggregate.f_oracle)
            f.Aggregate.f_shard f.Aggregate.f_seed f.Aggregate.f_count
            (match f.Aggregate.f_bundle with
            | Some b -> html_escape b
            | None -> "-"))
        findings;
      add "</table>\n");
  add "<h2>Stale frontier points</h2>\n";
  let cold =
    Frontier.coldest ~n:stale ~universe:t.v_universe frontier
    |> List.filter (fun (_, hits) -> hits = 0)
  in
  (match cold with
  | [] -> add "<p>frontier fully exercised</p>\n"
  | cold ->
      add "<table><tr><th>point</th></tr>";
      List.iter
        (fun (p, _) -> add "<tr><td class=\"cold\">%s</td></tr>" (html_escape p))
        cold;
      add "</table>\n");
  add "</body></html>\n";
  Buffer.contents buf
