type report_meta = {
  rm_fingerprint : string;
  rm_oracle : string;
  rm_seed : int;
  rm_bundle : string option;
}

type t = {
  version : int;
  shard : int;
  slot : int;
  seq : int;
  at : float;
  range_lo : int;
  range_hi : int;
  next_seed : int;
  rounds : int;
  rounds_per_sec : float;
  stats : Stats.t;
  reports : report_meta list;
  telemetry : Telemetry.sample list;
}

let current_version = 1

let report_metas ~bugs reports =
  List.map
    (fun (r : Bug_report.t) ->
      let r = Reducer.reduce_report r ~bugs in
      {
        rm_fingerprint = Bug_report.fingerprint r;
        rm_oracle = Bug_report.oracle_token r.Bug_report.oracle;
        rm_seed = r.Bug_report.seed;
        rm_bundle = r.Bug_report.bundle;
      })
    reports

let make ~shard ~slot ~seq ~range:(range_lo, range_hi) ~next_seed ~rounds
    ~rounds_per_sec ~reports ~telemetry (stats : Stats.t) =
  {
    version = current_version;
    shard;
    slot;
    seq;
    at = Unix.gettimeofday ();
    range_lo;
    range_hi;
    next_seed;
    rounds;
    rounds_per_sec;
    stats = { stats with Stats.reports = [] };
    reports;
    telemetry;
  }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let encode_telemetry_sample b (s : Telemetry.sample) =
  Buffer.add_string b "{\"name\":";
  Buffer.add_string b (Json.quote s.Telemetry.s_name);
  Buffer.add_string b ",\"labels\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Json.quote k);
      Buffer.add_char b ':';
      Buffer.add_string b (Json.quote v))
    s.Telemetry.s_labels;
  Buffer.add_string b "},";
  (match s.Telemetry.s_value with
  | Telemetry.Counter c ->
      Buffer.add_string b (Printf.sprintf "\"type\":\"counter\",\"value\":%d" c)
  | Telemetry.Gauge g ->
      Buffer.add_string b
        (Printf.sprintf "\"type\":\"gauge\",\"value\":%s" (num g))
  | Telemetry.Histogram { buckets; sum; count } ->
      Buffer.add_string b
        (Printf.sprintf "\"type\":\"histogram\",\"sum\":%s,\"count\":%d,"
           (num sum) count);
      Buffer.add_string b "\"buckets\":[";
      List.iteri
        (fun i (le, cum) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"le\":%s,\"count\":%d}" (num le) cum))
        buckets;
      Buffer.add_char b ']');
  Buffer.add_char b '}'

let encode hb =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"type\":\"heartbeat\",\"v\":%d,\"shard\":%d,\"slot\":%d,\
        \"seq\":%d,\"at\":%.3f,\"range\":[%d,%d],\"next\":%d,\
        \"rounds\":%d,\"rps\":%s"
       hb.version hb.shard hb.slot hb.seq hb.at hb.range_lo hb.range_hi
       hb.next_seed hb.rounds (num hb.rounds_per_sec));
  Buffer.add_string b ",\"stats\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" name v))
    (Stats.counters hb.stats);
  Buffer.add_string b "},\"points\":[";
  List.iteri
    (fun i (p, e) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"p\":%s,\"h\":%d,\"s\":%d}" (Json.quote p)
           e.Frontier.hits e.Frontier.first_seed))
    (Frontier.points hb.stats.Stats.frontier);
  Buffer.add_string b "],\"reports\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"fp\":%s,\"oracle\":%s,\"seed\":%d"
           (Json.quote r.rm_fingerprint)
           (Json.quote r.rm_oracle) r.rm_seed);
      (match r.rm_bundle with
      | Some path ->
          Buffer.add_string b (",\"bundle\":" ^ Json.quote path)
      | None -> ());
      Buffer.add_char b '}')
    hb.reports;
  Buffer.add_string b "],\"telemetry\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      encode_telemetry_sample b s)
    hb.telemetry;
  Buffer.add_string b "]}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "heartbeat: bad or missing field %S" name)

let decode_points j =
  match Option.bind (Json.member "points" j) Json.to_list with
  | None -> Error "heartbeat: bad or missing field \"points\""
  | Some items ->
      let rec go acc = function
        | [] -> Ok (Frontier.of_entries (List.rev acc))
        | item :: rest -> (
            let p = Option.bind (Json.member "p" item) Json.to_str in
            let h = Option.bind (Json.member "h" item) Json.to_int in
            let s = Option.bind (Json.member "s" item) Json.to_int in
            match (p, h, s) with
            | Some p, Some hits, Some first_seed ->
                go ((p, { Frontier.hits; first_seed }) :: acc) rest
            | _ -> Error "heartbeat: malformed frontier point")
      in
      go [] items

let decode_reports j =
  match Option.bind (Json.member "reports" j) Json.to_list with
  | None -> Error "heartbeat: bad or missing field \"reports\""
  | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            let fp = Option.bind (Json.member "fp" item) Json.to_str in
            let oracle = Option.bind (Json.member "oracle" item) Json.to_str in
            let seed = Option.bind (Json.member "seed" item) Json.to_int in
            let bundle = Option.bind (Json.member "bundle" item) Json.to_str in
            match (fp, oracle, seed) with
            | Some rm_fingerprint, Some rm_oracle, Some rm_seed ->
                go
                  ({ rm_fingerprint; rm_oracle; rm_seed; rm_bundle = bundle }
                  :: acc)
                  rest
            | _ -> Error "heartbeat: malformed report entry")
      in
      go [] items

let decode_telemetry j =
  match Option.bind (Json.member "telemetry" j) Json.to_list with
  | None -> Error "heartbeat: bad or missing field \"telemetry\""
  | Some items ->
      let decode_labels item =
        match Json.member "labels" item with
        | Some (Json.Obj fields) ->
            let rec go acc = function
              | [] -> Some (List.rev acc)
              | (k, Json.Str v) :: rest -> go ((k, v) :: acc) rest
              | _ -> None
            in
            go [] fields
        | _ -> None
      in
      let decode_sample item =
        let* name =
          match Option.bind (Json.member "name" item) Json.to_str with
          | Some n -> Ok n
          | None -> Error "heartbeat: telemetry sample without name"
        in
        let* labels =
          match decode_labels item with
          | Some l -> Ok l
          | None -> Error "heartbeat: telemetry sample with bad labels"
        in
        let* value =
          match Option.bind (Json.member "type" item) Json.to_str with
          | Some "counter" -> (
              match Option.bind (Json.member "value" item) Json.to_int with
              | Some v -> Ok (Telemetry.Counter v)
              | None -> Error "heartbeat: bad counter value")
          | Some "gauge" -> (
              match Option.bind (Json.member "value" item) Json.to_float with
              | Some v -> Ok (Telemetry.Gauge v)
              | None -> Error "heartbeat: bad gauge value")
          | Some "histogram" -> (
              let sum = Option.bind (Json.member "sum" item) Json.to_float in
              let count = Option.bind (Json.member "count" item) Json.to_int in
              let buckets =
                Option.bind (Json.member "buckets" item) Json.to_list
                |> Option.map
                     (List.filter_map (fun bj ->
                          match
                            ( Option.bind (Json.member "le" bj) Json.to_float,
                              Option.bind (Json.member "count" bj) Json.to_int
                            )
                          with
                          | Some le, Some c -> Some (le, c)
                          | _ -> None))
              in
              match (sum, count, buckets) with
              | Some sum, Some count, Some buckets ->
                  Ok (Telemetry.Histogram { buckets; sum; count })
              | _ -> Error "heartbeat: bad histogram sample")
          | _ -> Error "heartbeat: telemetry sample with unknown type"
        in
        Ok { Telemetry.s_name = name; s_labels = labels; s_value = value }
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
            let* s = decode_sample item in
            go (s :: acc) rest
      in
      go [] items

let decode line =
  let* j = Json.parse line in
  let* ty = field "type" Json.to_str j in
  if ty <> "heartbeat" then Error (Printf.sprintf "not a heartbeat: %S" ty)
  else
    let* version = field "v" Json.to_int j in
    if version > current_version then
      Error (Printf.sprintf "heartbeat: unsupported version %d" version)
    else
      let* shard = field "shard" Json.to_int j in
      let* slot = field "slot" Json.to_int j in
      let* seq = field "seq" Json.to_int j in
      let* at = field "at" Json.to_float j in
      let* range =
        match Option.bind (Json.member "range" j) Json.to_list with
        | Some [ lo; hi ] -> (
            match (Json.to_int lo, Json.to_int hi) with
            | Some lo, Some hi -> Ok (lo, hi)
            | _ -> Error "heartbeat: malformed range")
        | _ -> Error "heartbeat: bad or missing field \"range\""
      in
      let* next_seed = field "next" Json.to_int j in
      let* rounds = field "rounds" Json.to_int j in
      let* rounds_per_sec = field "rps" Json.to_float j in
      let* counters =
        match Json.member "stats" j with
        | Some counters -> Ok counters
        | None -> Error "heartbeat: bad or missing field \"stats\""
      in
      let* frontier = decode_points j in
      let* reports = decode_reports j in
      let* telemetry = decode_telemetry j in
      Ok
        {
          version;
          shard;
          slot;
          seq;
          at;
          range_lo = fst range;
          range_hi = snd range;
          next_seed;
          rounds;
          rounds_per_sec;
          stats =
            Stats.with_counters
              { Stats.empty with Stats.frontier }
              (fun name ->
                Option.value ~default:0
                  (Option.bind (Json.member name counters) Json.to_int));
          reports;
          telemetry;
        }

let equal_payload a b =
  Stats.counters a.stats = Stats.counters b.stats
  && Frontier.points a.stats.Stats.frontier = Frontier.points b.stats.Stats.frontier
  && List.sort compare a.reports = List.sort compare b.reports
