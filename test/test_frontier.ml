(* The coverage observatory's contracts:

   - frontier monoid laws: [Frontier.union] is associative and
     commutative with [empty] as identity, witnessed structurally (the
     representation is canonical), hit counts add, [first_seed] takes the
     minimum, and [of_points] equals a fold of [hit] (the sorted-merge
     fast path is behaviorally identical to the spec);
   - coverage-instrument monoid laws through [Engine.Coverage.points],
     including points hit but never statically declared (extras must
     survive [union] / [merge_into] with exact counts);
   - the [Gen_bias] vocabulary: shape points round-trip through
     encode/decode, the per-dialect universe is duplicate-free with the
     documented cardinality, fingerprints lead with the shape point, and
     cold-point planning aims at the least-exercised combination;
   - the Chrome-trace export: every round becomes one complete event
     whose [round_id] equals its seed (the cross-link to flight-recorder
     logs and bundle names), worker timelines are named, and rounds that
     fired an oracle carry their repro-bundle path;
   - the frontier JSON snapshot escapes arbitrary bundle paths;
   - guided generation is strictly additive: a guided campaign reports on
     every seed the blind campaign reports on (same seeds, same config),
     and the frontier telemetry gauges/histograms are exported. *)

open Sqlval

open Json_check

(* ---------- frontier monoid laws ---------- *)

let vocab =
  [| "expr.cmp"; "expr.like"; "shape.jsingle.v0.w1.d0.o0.g0";
     "plan.full_scan"; "zz.other" |]

let frontier_of_hits l =
  List.fold_left
    (fun f (i, seed) -> Frontier.hit f ~seed vocab.(i mod Array.length vocab))
    Frontier.empty l

let print_frontier f =
  Frontier.points f
  |> List.map (fun (p, e) ->
         Printf.sprintf "%s:%dx@%d" p e.Frontier.hits e.Frontier.first_seed)
  |> String.concat ";"

let arb_frontier =
  QCheck.make
    ~print:(fun l -> print_frontier (frontier_of_hits l))
    QCheck.Gen.(
      list_size (int_bound 20)
        (pair (int_bound (Array.length vocab - 1)) (int_range 1 50)))

let to_frontiers = List.map frontier_of_hits

let prop_union_assoc =
  QCheck.Test.make ~name:"union is associative" ~count:200
    (QCheck.triple arb_frontier arb_frontier arb_frontier)
    (fun (a, b, c) ->
      match to_frontiers [ a; b; c ] with
      | [ a; b; c ] ->
          Frontier.union (Frontier.union a b) c
          = Frontier.union a (Frontier.union b c)
      | _ -> false)

let prop_union_comm =
  QCheck.Test.make ~name:"union is commutative" ~count:200
    (QCheck.pair arb_frontier arb_frontier) (fun (a, b) ->
      match to_frontiers [ a; b ] with
      | [ a; b ] -> Frontier.union a b = Frontier.union b a
      | _ -> false)

let prop_union_identity =
  QCheck.Test.make ~name:"empty is a two-sided identity" ~count:200
    arb_frontier (fun a ->
      let a = frontier_of_hits a in
      Frontier.union Frontier.empty a = a
      && Frontier.union a Frontier.empty = a)

let prop_union_hits_add =
  QCheck.Test.make ~name:"union adds hit counts, min first_seed" ~count:200
    (QCheck.pair arb_frontier arb_frontier) (fun (la, lb) ->
      let a = frontier_of_hits la and b = frontier_of_hits lb in
      let u = Frontier.union a b in
      Array.for_all
        (fun p ->
          Frontier.hits u p = Frontier.hits a p + Frontier.hits b p)
        vocab
      && List.for_all
           (fun (p, (e : Frontier.entry)) ->
             let first f =
               List.assoc_opt p (Frontier.points f)
               |> Option.map (fun (e : Frontier.entry) -> e.Frontier.first_seed)
             in
             match (first a, first b) with
             | Some x, Some y -> e.Frontier.first_seed = min x y
             | Some x, None | None, Some x -> e.Frontier.first_seed = x
             | None, None -> false)
           (Frontier.points u))

let prop_of_points_spec =
  QCheck.Test.make ~name:"of_points = fold of hit" ~count:200
    (QCheck.pair (QCheck.int_range 1 50)
       (QCheck.list_of_size (QCheck.Gen.int_bound 30)
          (QCheck.int_bound (Array.length vocab - 1))))
    (fun (seed, idxs) ->
      let pts = List.map (fun i -> vocab.(i)) idxs in
      Frontier.of_points ~seed pts
      = List.fold_left (fun f p -> Frontier.hit f ~seed p) Frontier.empty pts)

let prop_canonical_sorted =
  QCheck.Test.make ~name:"representation is sorted and duplicate-free"
    ~count:200
    (QCheck.pair arb_frontier arb_frontier) (fun (a, b) ->
      let u = Frontier.union (frontier_of_hits a) (frontier_of_hits b) in
      let names = List.map fst (Frontier.points u) in
      List.sort_uniq String.compare names = names)

let test_frontier_views () =
  let f = Frontier.of_points ~seed:7 [ "a"; "b"; "a" ] in
  let universe = [ "a"; "b"; "c"; "d" ] in
  Alcotest.(check int) "cardinal" 2 (Frontier.cardinal f);
  Alcotest.(check int) "hit_in" 2 (Frontier.hit_in ~universe f);
  Alcotest.(check (float 1e-9)) "fraction" 0.5 (Frontier.fraction ~universe f);
  Alcotest.(check (list string)) "cold" [ "c"; "d" ] (Frontier.cold ~universe f);
  Alcotest.(check (list (pair string int)))
    "coldest ranks never-hit first, ties in universe order"
    [ ("c", 0); ("d", 0); ("b", 1) ]
    (Frontier.coldest ~n:3 ~universe f);
  (* points outside the universe are kept, not dropped *)
  let extra = Frontier.hit f ~seed:9 "zz.extra" in
  Alcotest.(check int) "extra point counted" 1 (Frontier.hits extra "zz.extra");
  Alcotest.(check int) "extra does not enter hit_in" 2
    (Frontier.hit_in ~universe extra)

let test_frontier_json () =
  let f = Frontier.of_points ~seed:3 [ "a"; "a"; "b" ] in
  let doc =
    parse_json
      (Frontier.to_json ~universe:[ "a"; "b"; "c" ]
         ~bundles:[ "bundles/bundle-000003-containment" ] f)
  in
  Alcotest.(check int) "universe size" 3 (jint (member "universe" doc));
  Alcotest.(check int) "hit" 2 (jint (member "hit" doc));
  let pts = jarr (member "points" doc) in
  Alcotest.(check int) "two points" 2 (List.length pts);
  let a = List.hd pts in
  Alcotest.(check string) "point name" "a" (jstr (member "point" a));
  Alcotest.(check int) "hits" 2 (jint (member "hits" a));
  Alcotest.(check int) "first_seed" 3 (jint (member "first_seed" a));
  Alcotest.(check (list string))
    "cold list" [ "c" ]
    (List.map jstr (jarr (member "cold" doc)));
  Alcotest.(check (list string))
    "bundle cross-links"
    [ "bundles/bundle-000003-containment" ]
    (List.map jstr (jarr (member "bundles" doc)))

(* bundle paths are arbitrary file names: control bytes must come out
   escaped the way every other writer escapes them (the short JSON
   escapes, via [Json.quote]), so strict readers accept the file *)
let test_frontier_json_escapes () =
  let path = "bundles/tab\there\rcr\"q\\b" in
  let text = Frontier.to_json ~universe:[ "a" ] ~bundles:[ path ] Frontier.empty in
  Alcotest.(check bool) "no raw control byte but newlines" true
    (String.for_all (fun c -> c = '\n' || Char.code c >= 0x20) text);
  let has sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "tab and carriage return use the short escapes" true
    (has {|"bundles/tab\there\rcr\"q\\b"|});
  Alcotest.(check (list string)) "the path round-trips" [ path ]
    (List.map jstr (jarr (member "bundles" (parse_json text))))

(* ---------- coverage-instrument monoid laws ---------- *)

let cov_vocab =
  Array.of_list
    ((match Engine.Coverage.static_universe with
     | a :: b :: c :: _ -> [ a; b; c ]
     | l -> l)
    @ [ "zz.extra.one"; "zz.extra.two" ])

let realize_cov idxs =
  let c = Engine.Coverage.create () in
  List.iter
    (fun i -> Engine.Coverage.hit c cov_vocab.(i mod Array.length cov_vocab))
    idxs;
  c

let arb_cov =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck.Gen.(
      list_size (int_bound 15) (int_bound (Array.length cov_vocab - 1)))

let prop_cov_assoc_comm =
  QCheck.Test.make ~name:"coverage union is associative and commutative"
    ~count:100
    (QCheck.triple arb_cov arb_cov arb_cov)
    (fun (a, b, c) ->
      let p x = Engine.Coverage.points x in
      let u = Engine.Coverage.union in
      p (u (u (realize_cov a) (realize_cov b)) (realize_cov c))
      = p (u (realize_cov a) (u (realize_cov b) (realize_cov c)))
      && p (u (realize_cov a) (realize_cov b))
         = p (u (realize_cov b) (realize_cov a)))

let prop_cov_merge_into =
  QCheck.Test.make ~name:"merge_into agrees with union (extras included)"
    ~count:100
    (QCheck.pair arb_cov arb_cov)
    (fun (a, b) ->
      let dst = realize_cov a in
      Engine.Coverage.merge_into ~dst ~src:(realize_cov b);
      Engine.Coverage.points dst
      = Engine.Coverage.points
          (Engine.Coverage.union (realize_cov a) (realize_cov b)))

let test_cov_extras () =
  let a = Engine.Coverage.create () and b = Engine.Coverage.create () in
  Engine.Coverage.hit a "zz.not.declared";
  Engine.Coverage.hit b "zz.not.declared";
  Engine.Coverage.hit b "zz.not.declared";
  let u = Engine.Coverage.union a b in
  Alcotest.(check int) "extra hit counts add across union" 3
    (Engine.Coverage.hit_count u "zz.not.declared");
  let dst = Engine.Coverage.create () in
  Engine.Coverage.merge_into ~dst ~src:u;
  Alcotest.(check int) "extra survives merge_into" 3
    (Engine.Coverage.hit_count dst "zz.not.declared");
  Alcotest.(check bool) "extra widens the universe" true
    (Engine.Coverage.universe_size dst
    > List.length Engine.Coverage.static_universe - 1)

(* ---------- Gen_bias vocabulary ---------- *)

let test_shape_roundtrip () =
  let shapes =
    List.filter
      (fun p -> String.length p > 6 && String.sub p 0 6 = "shape.")
      (Pqs.Gen_bias.universe Dialect.Sqlite_like)
  in
  Alcotest.(check bool) "shape points exist" true (shapes <> []);
  List.iter
    (fun p ->
      match Pqs.Gen_bias.shape_of_point p with
      | None -> Alcotest.failf "%s does not decode" p
      | Some s ->
          Alcotest.(check string)
            (p ^ " round-trips") p
            (Pqs.Gen_bias.point_of_shape s))
    shapes;
  Alcotest.(check (option Alcotest.reject))
    "malformed points rejected" None
    (Pqs.Gen_bias.shape_of_point "shape.jweird.v0.w1.d0.o0.g0")

let test_universe () =
  let u = Pqs.Gen_bias.universe Dialect.Sqlite_like in
  Alcotest.(check int) "sqlite universe cardinality" 147 (List.length u);
  Alcotest.(check int) "universe is duplicate-free" (List.length u)
    (List.length (List.sort_uniq String.compare u));
  Alcotest.(check bool) "mysql never reaches plan.partial_index" false
    (List.mem "plan.partial_index"
       (Pqs.Gen_bias.universe Dialect.Mysql_like));
  Alcotest.(check bool) "sqlite does" true
    (List.mem "plan.partial_index" (Pqs.Gen_bias.plan_points Dialect.Sqlite_like))

let test_fingerprint () =
  let open Sqlast.Ast in
  let q =
    {
      sel_distinct = false;
      sel_items = [ Sel_expr (Col { table = None; column = "c0" }, None) ];
      sel_from = [ F_table { name = "t0"; alias = None } ];
      sel_where =
        Some
          (Binary
             ( Eq,
               Col { table = None; column = "c0" },
               Lit (Value.Int 1L) ));
      sel_group_by = [];
      sel_having = None;
      sel_order_by = [];
      sel_limit = None;
      sel_offset = None;
    }
  in
  match Pqs.Gen_bias.fingerprint q with
  | shape :: exprs ->
      Alcotest.(check string)
        "shape point first" "shape.jsingle.v0.w1.d0.o0.g0" shape;
      Alcotest.(check (list string)) "expr multiset" [ "expr.cmp" ] exprs
  | [] -> Alcotest.fail "empty fingerprint"

(* The runner counts a round's points into a tally and folds it into its
   stats once; that must equal the per-query definition, a union of each
   query's fingerprint frontier. *)
let test_tally_matches_fingerprints () =
  List.iter
    (fun dialect ->
      for seed = 1 to 40 do
        let c = Pqs.Corpus.build ~seed dialect in
        let sources = Pqs.Corpus.sources c.Pqs.Corpus.session in
        let queries =
          List.filter_map
            (fun _ ->
              Option.map
                (fun (_, g) -> g.Pqs.Gen_query.query)
                (Pqs.Corpus.query c sources))
            [ 1; 2; 3; 4 ]
        in
        let t = Pqs.Gen_bias.tally () in
        List.iter (Pqs.Gen_bias.count t) queries;
        let expected =
          List.fold_left
            (fun f q ->
              Frontier.union f
                (Frontier.of_points ~seed (Pqs.Gen_bias.fingerprint q)))
            Frontier.empty queries
        in
        if Pqs.Gen_bias.tally_frontier ~seed t <> expected then
          Alcotest.failf "%s seed %d: tally differs from the fingerprints"
            (Dialect.name dialect) seed
      done)
    [ Dialect.Sqlite_like; Dialect.Mysql_like; Dialect.Postgres_like ];
  Alcotest.(check bool) "an empty tally is the empty frontier" true
    (Pqs.Gen_bias.tally_frontier ~seed:1 (Pqs.Gen_bias.tally ()) = Frontier.empty)

(* Guided rounds steer each pivot's shape plan by the bias as it stands
   after every earlier query of the run, so the bias takes each query's
   points at once, not at the end of its round.  After every round it
   holds exactly the rounds' frontiers, and its value after these rounds
   is pinned (a deliberate change to generation or guidance moves it). *)
let test_guided_bias_sequence () =
  let config = Pqs.Runner.Config.make ~guided:true Dialect.Sqlite_like in
  let bias = ref Frontier.empty in
  let merged =
    List.fold_left
      (fun merged db_seed ->
        let s = Pqs.Runner.run_round ~bias config ~db_seed in
        let merged = Frontier.union merged s.Pqs.Stats.frontier in
        Alcotest.(check bool)
          (Printf.sprintf "bias after round %d is the rounds' frontiers" db_seed)
          true (!bias = merged);
        merged)
      Frontier.empty (List.init 30 (fun i -> i + 1))
  in
  Alcotest.(check string) "bias after 30 guided rounds"
    "41c3bdf736dd3bd7256d074b97fce728"
    (Digest.to_hex (Digest.string (Frontier.to_json ~universe:[] merged)))

let test_cold_planning () =
  let dialect = Dialect.Sqlite_like in
  let universe = Pqs.Gen_bias.universe dialect in
  let shapes =
    List.filter
      (fun p -> String.length p > 6 && String.sub p 0 6 = "shape.")
      universe
  in
  let the_cold = "shape.jleft.v1.w3.d1.o1.g0" in
  Alcotest.(check bool) "chosen cold point is in the universe" true
    (List.mem the_cold shapes);
  (* warm every shape point except one; plan must aim exactly there *)
  let warmed =
    List.fold_left
      (fun f p -> if p = the_cold then f else Frontier.hit f ~seed:1 p)
      Frontier.empty shapes
  in
  let fired = ref 0 in
  for seed = 1 to 50 do
    let rng = Pqs.Rng.make ~seed in
    match Pqs.Gen_bias.plan ~rng ~dialect warmed with
    | Some s ->
        incr fired;
        Alcotest.(check string)
          "plan aims at the cold combination" the_cold
          (Pqs.Gen_bias.point_of_shape s)
    | None -> ()
  done;
  Alcotest.(check bool) "warm frontier fires shape guidance" true (!fired > 0);
  (* a stone-cold frontier must not fire (blind sampling keeps the wheel) *)
  for seed = 1 to 50 do
    let rng = Pqs.Rng.make ~seed in
    match Pqs.Gen_bias.plan ~rng ~dialect Frontier.empty with
    | Some _ -> Alcotest.fail "shape guidance fired on an all-cold frontier"
    | None -> ()
  done;
  (* cold_pred rotates onto the one unexercised WHERE-targetable kind *)
  let kinds =
    List.filter
      (fun p -> String.length p > 5 && String.sub p 0 5 = "expr.")
      universe
  in
  let warmed_kinds =
    List.fold_left
      (fun f p -> if p = "expr.glob" then f else Frontier.hit f ~seed:1 p)
      Frontier.empty kinds
  in
  Alcotest.(check (option string))
    "cold_pred picks the unexercised kind" (Some "glob")
    (Pqs.Gen_bias.cold_pred ~rng:(Pqs.Rng.make ~seed:1) ~dialect warmed_kinds);
  (* aggregates are never a predicate target, even when coldest *)
  let all_but_agg =
    List.fold_left
      (fun f p -> if p = "expr.agg" then f else Frontier.hit f ~seed:1 p)
      Frontier.empty kinds
  in
  match Pqs.Gen_bias.cold_pred ~rng:(Pqs.Rng.make ~seed:1) ~dialect all_but_agg with
  | Some "agg" -> Alcotest.fail "cold_pred targeted an aggregate"
  | Some _ | None -> ()

(* ---------- Chrome-trace round linkage ---------- *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

let test_chrome_round_linkage () =
  let bugs =
    Engine.Bug.set_of_list (Engine.Bug.for_dialect Dialect.Sqlite_like)
  in
  let bundle_dir = temp_dir "pqs_bundles" in
  let config =
    Pqs.Runner.Config.make ~bugs ~bundle_dir Dialect.Sqlite_like
  in
  let c = Pqs.Campaign.run ~domains:2 ~seed_lo:1 ~seed_hi:25 config in
  let path = Filename.temp_file "chrome" ".json" in
  Pqs.Campaign.write_chrome_trace c path;
  let ic = open_in_bin path in
  let doc = parse_json (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  Sys.remove path;
  let evs = jarr (member "traceEvents" doc) in
  let complete = List.filter (fun e -> jstr (member "ph" e) = "X") evs in
  Alcotest.(check int) "one complete event per seed" 24 (List.length complete);
  let seeds =
    List.map (fun e -> jint (member "seed" (member "args" e))) complete
    |> List.sort compare
  in
  Alcotest.(check (list int)) "all seeds present" (List.init 24 (fun i -> i + 1))
    seeds;
  List.iter
    (fun e ->
      let args = member "args" e in
      Alcotest.(check int)
        "round_id links the span to its round" (jint (member "seed" args))
        (jint (member "round_id" args));
      Alcotest.(check string)
        "span name carries the seed"
        (Printf.sprintf "seed %d" (jint (member "seed" args)))
        (jstr (member "name" e));
      Alcotest.(check bool) "duration is non-negative" true
        (jnum (member "dur" e) >= 0.0);
      if jint (member "reports" args) > 0 then
        match member_opt "bundle" args with
        | Some b ->
            (* the cross-link is the bundle's repro script *)
            Alcotest.(check bool)
              "report span links an existing bundle repro" true
              (Sys.file_exists (jstr b));
            let dir = Filename.basename (Filename.dirname (jstr b)) in
            Alcotest.(check bool)
              "bundle directory is named after the round" true
              (String.length dir > 7 && String.sub dir 0 7 = "bundle-")
        | None -> Alcotest.fail "report span lacks its bundle cross-link")
    complete;
  Alcotest.(check bool) "the catalog produced report spans to check" true
    (List.exists
       (fun e -> jint (member "reports" (member "args" e)) > 0)
       complete);
  (* every worker timeline is named via thread metadata *)
  let tids =
    List.sort_uniq compare (List.map (fun e -> jint (member "tid" e)) complete)
  in
  let named =
    List.filter_map
      (fun e ->
        if
          jstr (member "ph" e) = "M"
          && jstr (member "name" e) = "thread_name"
        then Some (jint (member "tid" e))
        else None)
      evs
  in
  List.iter
    (fun tid ->
      Alcotest.(check bool)
        (Printf.sprintf "worker %d is named" tid)
        true (List.mem tid named))
    tids

(* ---------- guided generation is strictly additive ---------- *)

let seeds_with_reports (c : Pqs.Campaign.t) =
  List.sort_uniq compare
    (List.map (fun r -> r.Pqs.Bug_report.seed) (Pqs.Campaign.reports c))

let test_guided_superset () =
  let bugs =
    Engine.Bug.set_of_list (Engine.Bug.for_dialect Dialect.Sqlite_like)
  in
  let run guided =
    let config = Pqs.Runner.Config.make ~bugs ~guided Dialect.Sqlite_like in
    Pqs.Campaign.run ~domains:1 ~seed_lo:1 ~seed_hi:101 config
  in
  let blind = run false and guided = run true in
  let blind_seeds = seeds_with_reports blind in
  Alcotest.(check bool) "blind campaign found bugs to compare" true
    (blind_seeds <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "guided also reports on seed %d" s)
        true
        (List.mem s (seeds_with_reports guided)))
    blind_seeds;
  Alcotest.(check bool) "guided campaign accumulated a frontier" true
    (Frontier.cardinal guided.Pqs.Campaign.stats.Pqs.Stats.frontier > 0)

let test_frontier_telemetry_export () =
  let tele = Telemetry.create () in
  let config = Pqs.Runner.Config.make ~telemetry:tele Dialect.Sqlite_like in
  let c = Pqs.Campaign.run ~domains:1 ~seed_lo:1 ~seed_hi:11 config in
  let universe = Pqs.Gen_bias.universe Dialect.Sqlite_like in
  let prom = Telemetry.to_prometheus tele in
  let has sub =
    let n = String.length prom and m = String.length sub in
    let rec go i = i + m <= n && (String.sub prom i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "points-hit gauge exported per dialect" true
    (has
       (Printf.sprintf "pqs_frontier_points_hit{dialect=\"sqlite\"} %d"
          (Frontier.hit_in ~universe c.Pqs.Campaign.stats.Pqs.Stats.frontier)));
  Alcotest.(check bool) "fraction gauge exported" true
    (has "pqs_frontier_fraction{dialect=\"sqlite\"}");
  (* one first-hit observation per distinct point, grouped by vocabulary *)
  let first_hits =
    List.fold_left
      (fun acc g ->
        acc
        + Telemetry.histogram_count tele
            ~labels:[ ("phase", g) ]
            "pqs_frontier_first_hit_seconds")
      0
      [ "shape"; "expr"; "plan" ]
  in
  Alcotest.(check int) "first-hit histogram covers every hit point"
    (Frontier.cardinal c.Pqs.Campaign.stats.Pqs.Stats.frontier)
    first_hits

let () =
  Alcotest.run "frontier"
    [
      ( "monoid",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_union_assoc;
            prop_union_comm;
            prop_union_identity;
            prop_union_hits_add;
            prop_of_points_spec;
            prop_canonical_sorted;
          ]
        @ [
            Alcotest.test_case "universe views" `Quick test_frontier_views;
            Alcotest.test_case "json snapshot" `Quick test_frontier_json;
            Alcotest.test_case "json snapshot escapes bundle paths" `Quick
              test_frontier_json_escapes;
          ] );
      ( "coverage instrument",
        List.map QCheck_alcotest.to_alcotest
          [ prop_cov_assoc_comm; prop_cov_merge_into ]
        @ [ Alcotest.test_case "undeclared extras" `Quick test_cov_extras ] );
      ( "gen_bias",
        [
          Alcotest.test_case "shape point round-trip" `Quick
            test_shape_roundtrip;
          Alcotest.test_case "universe" `Quick test_universe;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint;
          Alcotest.test_case "cold planning" `Quick test_cold_planning;
          Alcotest.test_case "round tally = fingerprint union" `Quick
            test_tally_matches_fingerprints;
          Alcotest.test_case "guided bias sequence" `Quick
            test_guided_bias_sequence;
        ] );
      ( "chrome trace",
        [
          Alcotest.test_case "round linkage" `Quick test_chrome_round_linkage;
        ] );
      ( "guided campaign",
        [
          Alcotest.test_case "additive guidance is a superset" `Quick
            test_guided_superset;
          Alcotest.test_case "frontier telemetry export" `Quick
            test_frontier_telemetry_export;
        ] );
    ]
