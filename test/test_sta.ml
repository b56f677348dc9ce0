(* Tests for the static-timing-analysis layer. *)

open Tqwm_device
open Tqwm_circuit
module Timing_graph = Tqwm_sta.Timing_graph
module Arrival = Tqwm_sta.Arrival
module Parallel = Tqwm_sta.Parallel
module Path_enum = Tqwm_sta.Path_enum
module Stage_cache = Tqwm_sta.Stage_cache
module Workloads = Tqwm_sta.Workloads
module Report = Tqwm_sta.Report
module Json = Tqwm_obs.Json
module Metrics = Tqwm_obs.Metrics

let tech = Tech.cmosp35

let table = lazy (Models.table tech)

let inverter_pair () =
  let graph = Timing_graph.create () in
  let a = Timing_graph.add_stage graph (Scenario.inverter_falling ~load:8e-15 tech) in
  let b = Timing_graph.add_stage graph (Scenario.nor_rising ~n:2 ~load:8e-15 tech) in
  Timing_graph.connect graph ~from_stage:a ~to_stage:b ~input:"a1";
  (graph, a, b)

let test_topological_order () =
  let graph, a, b = inverter_pair () in
  Alcotest.(check (list int)) "driver first" [ a; b ] (Timing_graph.topological_order graph)

let test_connect_validation () =
  let graph = Timing_graph.create () in
  let a = Timing_graph.add_stage graph (Scenario.inverter_falling tech) in
  Alcotest.check_raises "unknown input"
    (Invalid_argument "Timing_graph.connect: unknown input") (fun () ->
      Timing_graph.connect graph ~from_stage:a ~to_stage:a ~input:"nope");
  Alcotest.check_raises "self cycle"
    (Invalid_argument "Timing_graph.connect: cycle detected") (fun () ->
      Timing_graph.connect graph ~from_stage:a ~to_stage:a ~input:"a1")

let test_cycle_rejected () =
  let graph, a, b = inverter_pair () in
  Alcotest.check_raises "cycle"
    (Invalid_argument "Timing_graph.connect: cycle detected") (fun () ->
      Timing_graph.connect graph ~from_stage:b ~to_stage:a ~input:"a1")

let test_fan_queries () =
  let graph, a, b = inverter_pair () in
  Alcotest.(check int) "fanout of a" 1 (List.length (Timing_graph.fanout graph a));
  Alcotest.(check int) "fanin of b" 1 (List.length (Timing_graph.fanin graph b));
  Alcotest.(check int) "fanin of a" 0 (List.length (Timing_graph.fanin graph a))

let test_propagate_accumulates () =
  let graph, a, b = inverter_pair () in
  let analysis = Arrival.propagate ~model:(Lazy.force table) graph in
  let ta = analysis.Arrival.timings.(a) and tb = analysis.Arrival.timings.(b) in
  Alcotest.(check (float 1e-15)) "primary input arrival 0" 0.0 ta.Arrival.arrival_in;
  Alcotest.(check bool) "positive stage delays" true
    (ta.Arrival.delay > 0.0 && tb.Arrival.delay > 0.0);
  Alcotest.(check (float 1e-15)) "arrival chains" ta.Arrival.arrival_out
    tb.Arrival.arrival_in;
  Alcotest.(check (float 1e-15)) "worst = sink arrival" tb.Arrival.arrival_out
    analysis.Arrival.worst_arrival;
  Alcotest.(check (list int)) "critical path" [ a; b ] analysis.Arrival.critical_path

let test_critical_fanin_selection () =
  (* two drivers into one nand2: the slower one must define the arrival *)
  let graph = Timing_graph.create () in
  let fast = Timing_graph.add_stage graph (Scenario.inverter_falling ~load:4e-15 tech) in
  let slow = Timing_graph.add_stage graph (Scenario.nand_falling ~n:4 ~load:40e-15 tech) in
  let sink = Timing_graph.add_stage graph (Scenario.nand_falling ~n:2 ~load:10e-15 tech) in
  Timing_graph.connect graph ~from_stage:fast ~to_stage:sink ~input:"a2";
  Timing_graph.connect graph ~from_stage:slow ~to_stage:sink ~input:"a1";
  let analysis = Arrival.propagate ~model:(Lazy.force table) graph in
  let t_sink = analysis.Arrival.timings.(sink) in
  Alcotest.(check (option int)) "slower driver wins" (Some slow)
    t_sink.Arrival.critical_fanin;
  Alcotest.(check (float 1e-15)) "arrival from slow driver"
    analysis.Arrival.timings.(slow).Arrival.arrival_out t_sink.Arrival.arrival_in

let test_slew_shapes_downstream_delay () =
  (* the same sink driven by a slow (large-load) driver must see a larger
     stage delay than when driven by a fast driver: slews propagate *)
  let run load =
    let graph = Timing_graph.create () in
    let drv = Timing_graph.add_stage graph (Scenario.inverter_falling ~load tech) in
    let sink = Timing_graph.add_stage graph (Scenario.nand_falling ~n:2 tech) in
    Timing_graph.connect graph ~from_stage:drv ~to_stage:sink ~input:"a1";
    let analysis = Arrival.propagate ~model:(Lazy.force table) graph in
    analysis.Arrival.timings.(sink).Arrival.delay
  in
  let fast = run 4e-15 and slow = run 60e-15 in
  Alcotest.(check bool) "slower input slew -> larger stage delay" true (slow > fast)

let test_slack_computation () =
  let graph, a, b = inverter_pair () in
  let analysis = Arrival.propagate ~model:(Lazy.force table) graph in
  let clock_period = 1e-9 in
  let report = Arrival.required graph analysis ~clock_period in
  (* sink: required = clock period *)
  Alcotest.(check (float 1e-18)) "sink required" clock_period report.Arrival.req.(b);
  (* driver: required shrinks by the sink's stage delay *)
  Alcotest.(check (float 1e-15)) "driver required"
    (clock_period -. analysis.Arrival.timings.(b).Arrival.delay)
    report.Arrival.req.(a);
  (* slack identity and consistency: both stages on one path share slack *)
  Alcotest.(check (float 1e-15)) "slack identity"
    (report.Arrival.req.(b) -. analysis.Arrival.timings.(b).Arrival.arrival_out)
    report.Arrival.req_slack.(b);
  Alcotest.(check (float 1e-12)) "single path: equal slacks"
    report.Arrival.req_slack.(a) report.Arrival.req_slack.(b);
  Alcotest.(check (float 1e-12)) "worst slack" report.Arrival.req_slack.(b)
    report.Arrival.req_worst_slack;
  (* a tight clock must go negative *)
  let tight = Arrival.required graph analysis ~clock_period:1e-12 in
  Alcotest.(check bool) "violation detected" true (tight.Arrival.req_worst_slack < 0.0)

(* ---------- backward required-time pass ---------- *)

let test_required_validation () =
  let graph, _, _ = inverter_pair () in
  let analysis = Arrival.propagate ~model:(Lazy.force table) graph in
  let bad cp =
    match Arrival.required graph analysis ~clock_period:cp with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "clock_period %g accepted" cp
  in
  bad 0.0;
  bad (-1e-9);
  bad Float.nan;
  bad Float.infinity;
  (* an analysis from a different graph must be rejected *)
  let other = Timing_graph.create () in
  let _ = Timing_graph.add_stage other (Scenario.inverter_falling tech) in
  (match Arrival.required other analysis ~clock_period:1e-9 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched analysis accepted")

let test_required_aggregates () =
  let graph, a, b = inverter_pair () in
  let analysis = Arrival.propagate ~model:(Lazy.force table) graph in
  let r = Arrival.required graph analysis ~clock_period:1e-9 in
  Alcotest.(check (array int)) "endpoint set is the sink" [| b |] r.Arrival.endpoints;
  Alcotest.(check (float 1e-18)) "wns is the endpoint slack" r.Arrival.req_slack.(b)
    r.Arrival.wns;
  Alcotest.(check (float 1e-18)) "met timing: tns zero" 0.0 r.Arrival.tns;
  ignore a;
  (* tight clock: single endpoint, so tns = wns < 0 *)
  let tight = Arrival.required graph analysis ~clock_period:1e-12 in
  Alcotest.(check bool) "violated" true (tight.Arrival.wns < 0.0);
  Alcotest.(check (float 1e-18)) "tns = wns with one endpoint" tight.Arrival.wns
    tight.Arrival.tns

let test_required_edge_graphs () =
  (* empty graph: every aggregate finite (= clock period) *)
  let empty = Timing_graph.create () in
  let analysis = Arrival.propagate ~model:(Lazy.force table) empty in
  let r = Arrival.required empty analysis ~clock_period:1e-9 in
  Alcotest.(check (float 1e-18)) "empty wns" 1e-9 r.Arrival.wns;
  Alcotest.(check (float 1e-18)) "empty tns" 0.0 r.Arrival.tns;
  Alcotest.(check (float 1e-18)) "empty worst slack" 1e-9 r.Arrival.req_worst_slack;
  Alcotest.(check int) "no endpoints" 0 (Array.length r.Arrival.endpoints);
  (* single stage: it is its own endpoint, finite everywhere *)
  let single = Timing_graph.create () in
  let s = Timing_graph.add_stage single (Scenario.inverter_falling tech) in
  let analysis = Arrival.propagate ~model:(Lazy.force table) single in
  let r = Arrival.required single analysis ~clock_period:1e-9 in
  Alcotest.(check (array int)) "single endpoint" [| s |] r.Arrival.endpoints;
  Alcotest.(check bool) "finite aggregates" true
    (Float.is_finite r.Arrival.wns
    && Float.is_finite r.Arrival.tns
    && Float.is_finite r.Arrival.req_worst_slack)

let test_required_publishes_gauges () =
  let graph, _, _ = inverter_pair () in
  let analysis = Arrival.propagate ~model:(Lazy.force table) graph in
  let r = Arrival.required graph analysis ~clock_period:1e-9 in
  Alcotest.(check (option (float 1e-9))) "sta.wns gauge (ps)"
    (Some (r.Arrival.wns *. 1e12))
    (Metrics.find_gauge "sta.wns");
  Alcotest.(check (option (float 1e-9))) "sta.tns gauge (ps)"
    (Some (r.Arrival.tns *. 1e12))
    (Metrics.find_gauge "sta.tns")

(* ---------- k-worst path enumeration ---------- *)

let decoder_analysis =
  lazy
    (let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
     let analysis = Arrival.propagate ~model:(Lazy.force table) graph in
     (graph, analysis))

let test_k_worst_validation () =
  let graph, analysis = Lazy.force decoder_analysis in
  (match Path_enum.k_worst ~k:0 graph analysis with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k = 0 accepted");
  match Path_enum.k_worst ~clock_period:0.0 ~k:1 graph analysis with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "clock_period = 0 accepted"

let test_k_worst_reproduces_critical_path () =
  let graph, analysis = Lazy.force decoder_analysis in
  match Path_enum.k_worst ~k:1 graph analysis with
  | [ p ] ->
    Alcotest.(check (list int)) "stages are the critical walk"
      analysis.Arrival.critical_path p.Path_enum.stages;
    (* bit-exact, not approximately equal *)
    Alcotest.(check bool) "arrival is worst_arrival bit-for-bit" true
      (Float.equal p.Path_enum.arrival analysis.Arrival.worst_arrival);
    Alcotest.(check string) "path string matches the report"
      (Report.critical_path_string graph analysis)
      (Report.path_string graph p)
  | paths -> Alcotest.failf "k = 1 returned %d paths" (List.length paths)

let test_k_worst_distinct_sorted_exhaustive () =
  let graph, analysis = Lazy.force decoder_analysis in
  (* a tree has exactly one source-to-leaf path per leaf: 9 leaves at
     fan-out 3, depth 2 — asking for more saturates at 9 *)
  let paths = Path_enum.k_worst ~k:100 graph analysis in
  Alcotest.(check int) "one path per leaf" 9 (List.length paths);
  let sequences = List.map (fun (p : Path_enum.path) -> p.Path_enum.stages) paths in
  Alcotest.(check int) "distinct stage sequences" 9
    (List.length (List.sort_uniq compare sequences));
  let rec sorted = function
    | (a : Path_enum.path) :: (b :: _ as rest) ->
      a.Path_enum.slack <= b.Path_enum.slack && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "worst slack first" true (sorted paths);
  let exact = Path_enum.k_worst ~k:4 graph analysis in
  Alcotest.(check int) "k truncates" 4 (List.length exact);
  Alcotest.(check bool) "k-prefix of the full enumeration" true
    (exact = List.filteri (fun i _ -> i < 4) paths)

let test_explain_attribution () =
  let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
  let model = Lazy.force table in
  let cache = Stage_cache.create () in
  let analysis = Arrival.propagate ~model ~cache graph in
  let p = List.hd (Path_enum.k_worst ~k:1 graph analysis) in
  let e = Path_enum.explain ~model ~cache graph analysis p in
  Alcotest.(check int) "one attribution per stage"
    (List.length p.Path_enum.stages)
    (List.length e.Path_enum.through);
  List.iter2
    (fun id (s : Path_enum.stage_attribution) ->
      Alcotest.(check bool) "timing is the analysis record" true
        (s.Path_enum.timing = analysis.Arrival.timings.(id));
      Alcotest.(check bool) "regions solved" true (s.Path_enum.regions > 0);
      Alcotest.(check bool) "newton iterations counted" true
        (s.Path_enum.newton_iterations > 0);
      Alcotest.(check bool) "cache provenance recorded" true
        (s.Path_enum.cache_uses >= 1))
    p.Path_enum.stages e.Path_enum.through;
  (* the replay is read-only: hit/miss/use counters untouched *)
  let before = Stage_cache.stats cache in
  let (_ : Path_enum.explained) = Path_enum.explain ~model ~cache graph analysis p in
  Alcotest.(check bool) "explain does not disturb the cache" true
    (Stage_cache.stats cache = before);
  (* cache-less attribution: solves afresh, reports no provenance *)
  let e0 = Path_enum.explain ~model graph analysis p in
  List.iter
    (fun (s : Path_enum.stage_attribution) ->
      Alcotest.(check int) "no cache: zero uses" 0 s.Path_enum.cache_uses)
    e0.Path_enum.through

let test_timing_report_bit_identical_seq_vs_parallel () =
  let model = Lazy.force table in
  let document ~domains =
    let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
    let cache = Stage_cache.create () in
    let analysis =
      if domains = 1 then Arrival.propagate ~model ~cache graph
      else Parallel.propagate ~model ~cache ~domains graph
    in
    let clock_period = analysis.Arrival.worst_arrival in
    let required = Arrival.required graph analysis ~clock_period in
    let paths = Path_enum.k_worst ~clock_period ~k:5 graph analysis in
    let explained = List.map (Path_enum.explain ~model ~cache graph analysis) paths in
    Json.to_string (Report.timing_to_json graph analysis required explained)
  in
  Alcotest.(check string) "tqwm-report/1 identical across 1 vs 4 domains"
    (document ~domains:1) (document ~domains:4)

(* A small report generated before the float printer was rewritten:
   the bytes of [tqwm-report/1] must not move. *)
let test_timing_report_golden () =
  let model = Lazy.force table in
  let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
  let cache = Stage_cache.create () in
  let analysis = Arrival.propagate ~model ~cache graph in
  let clock_period = 600e-12 in
  let required = Arrival.required graph analysis ~clock_period in
  let paths = Path_enum.k_worst ~clock_period ~k:5 graph analysis in
  let explained = List.map (Path_enum.explain ~model ~cache graph analysis) paths in
  let golden = In_channel.with_open_bin "golden/decoder-report.json" In_channel.input_all in
  Alcotest.(check string) "tqwm-report/1 equals test/golden/decoder-report.json" golden
    (Json.to_string (Report.timing_to_json graph analysis required explained) ^ "\n")

(* ---------- property tests ---------- *)

let prop_k1_matches_critical_path =
  QCheck2.Test.make ~name:"k_worst 1 reproduces critical_path_string" ~count:6
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let graph = Workloads.random_stacks ~width:3 ~depth:2 ~seed tech in
      let analysis = Arrival.propagate ~model:(Lazy.force table) graph in
      match Path_enum.k_worst ~k:1 graph analysis with
      | [ p ] ->
        String.equal
          (Report.critical_path_string graph analysis)
          (Report.path_string graph p)
        && Float.equal p.Path_enum.arrival analysis.Arrival.worst_arrival
      | _ -> false)

let prop_slack_monotone_in_clock =
  QCheck2.Test.make ~name:"slack monotone in clock period" ~count:30
    QCheck2.Gen.(pair (float_range 1e-12 2e-9) (float_range 1e-12 2e-9))
    (fun (cp1, cp2) ->
      let graph, analysis = Lazy.force decoder_analysis in
      let lo = Float.min cp1 cp2 and hi = Float.max cp1 cp2 in
      let r_lo = Arrival.required graph analysis ~clock_period:lo in
      let r_hi = Arrival.required graph analysis ~clock_period:hi in
      (* a longer clock can only relax: wns up, tns toward zero *)
      r_hi.Arrival.wns >= r_lo.Arrival.wns && r_hi.Arrival.tns >= r_lo.Arrival.tns)

let test_report_rendering () =
  let graph, _, _ = inverter_pair () in
  let analysis = Arrival.propagate ~model:(Lazy.force table) graph in
  let s = Report.critical_path_string graph analysis in
  Alcotest.(check bool) "mentions both stages" true
    (String.length s > 0
    && String.split_on_char '>' s |> List.length = 2);
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Report.print fmt graph analysis;
  Format.pp_print_flush fmt ();
  Alcotest.(check bool) "report mentions worst arrival" true
    (Buffer.contents buf
    |> String.split_on_char '\n'
    |> List.exists (fun line ->
           String.length line >= 13 && String.sub line 0 13 = "worst arrival"))

(* ---------- cell characterization ---------- *)

module Characterize = Tqwm_sta.Characterize

let nand2_table =
  lazy
    (Characterize.characterize ~model:(Lazy.force table)
       ~slews:[| 10e-12; 40e-12; 100e-12 |]
       ~loads:[| 4e-15; 12e-15; 30e-15 |]
       (fun ~load -> Scenario.nand_falling ~n:2 ~load tech))

let test_characterize_monotone_in_load () =
  let t = Lazy.force nand2_table in
  for i = 0 to Array.length t.Characterize.slews - 1 do
    for j = 1 to Array.length t.Characterize.loads - 1 do
      let prev = Tqwm_num.Mat.get t.Characterize.delay i (j - 1) in
      let here = Tqwm_num.Mat.get t.Characterize.delay i j in
      if here <= prev then
        Alcotest.failf "delay not increasing in load at (%d, %d)" i j
    done
  done

let test_characterize_grid_exact () =
  let t = Lazy.force nand2_table in
  (* querying exactly on a grid point returns the stored value *)
  let stored = Tqwm_num.Mat.get t.Characterize.delay 1 1 in
  Alcotest.(check (float 1e-18)) "grid point exact" stored
    (Characterize.delay_at t ~slew:40e-12 ~load:12e-15)

let test_characterize_interpolation_bounded () =
  let t = Lazy.force nand2_table in
  let d = Characterize.delay_at t ~slew:25e-12 ~load:8e-15 in
  let lo = Tqwm_num.Mat.get t.Characterize.delay 0 0 in
  let hi = Tqwm_num.Mat.get t.Characterize.delay 2 2 in
  Alcotest.(check bool) "between corner values" true (d > Float.min lo hi /. 2.0 && d < hi);
  let s = Characterize.slew_at t ~slew:25e-12 ~load:8e-15 in
  Alcotest.(check bool) "output slew positive" true (s > 0.0)

let test_characterize_validation () =
  match
    Characterize.characterize ~model:(Lazy.force table) ~slews:[| 1e-12 |]
      (fun ~load -> Scenario.nand_falling ~n:2 ~load tech)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for 1-point axis"

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "tqwm_sta"
    [
      ( "graph",
        [
          quick "topological order" test_topological_order;
          quick "connect validation" test_connect_validation;
          quick "cycle rejected" test_cycle_rejected;
          quick "fan queries" test_fan_queries;
        ] );
      ( "arrival",
        [
          slow "accumulates" test_propagate_accumulates;
          slow "critical fanin" test_critical_fanin_selection;
          slow "slew propagation" test_slew_shapes_downstream_delay;
          slow "slack computation" test_slack_computation;
        ] );
      ( "required",
        [
          slow "validation" test_required_validation;
          slow "aggregates" test_required_aggregates;
          slow "edge graphs" test_required_edge_graphs;
          slow "publishes gauges" test_required_publishes_gauges;
        ] );
      ( "path_enum",
        [
          slow "validation" test_k_worst_validation;
          slow "k=1 is the critical path" test_k_worst_reproduces_critical_path;
          slow "distinct, sorted, exhaustive" test_k_worst_distinct_sorted_exhaustive;
          slow "explain attribution" test_explain_attribution;
          slow "seq-vs-parallel bit identity"
            test_timing_report_bit_identical_seq_vs_parallel;
          QCheck_alcotest.to_alcotest prop_k1_matches_critical_path;
          QCheck_alcotest.to_alcotest prop_slack_monotone_in_clock;
          slow "golden report bytes" test_timing_report_golden;
        ] );
      ("report", [ slow "rendering" test_report_rendering ]);
      ( "characterize",
        [
          slow "monotone in load" test_characterize_monotone_in_load;
          slow "grid exact" test_characterize_grid_exact;
          slow "interpolation bounded" test_characterize_interpolation_bounded;
          quick "validation" test_characterize_validation;
        ] );
    ]
