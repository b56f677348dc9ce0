(* Tests for the incremental STA engine: after any edit sequence, the
   session's analysis must be bit-identical to a from-scratch
   propagation of the edited graph (epsilon = 0), with or without a
   shared stage cache, sequentially or across domains — and a local
   edit must re-evaluate only its fanout cone. *)

open Tqwm_device
open Tqwm_circuit
module Timing_graph = Tqwm_sta.Timing_graph
module Arrival = Tqwm_sta.Arrival
module Parallel = Tqwm_sta.Parallel
module Path_enum = Tqwm_sta.Path_enum
module Report = Tqwm_sta.Report
module Stage_cache = Tqwm_sta.Stage_cache
module Workloads = Tqwm_sta.Workloads
module Metrics = Tqwm_obs.Metrics
module Edit = Tqwm_incr.Edit
module Cone = Tqwm_incr.Cone
module Session = Tqwm_incr.Session
module Script = Tqwm_incr.Script
module Json = Tqwm_obs.Json

let tech = Tech.cmosp35

let table = lazy (Models.table tech)

let check_identical what (a : Arrival.analysis) (b : Arrival.analysis) =
  Alcotest.(check int)
    (what ^ ": same stage count")
    (Array.length a.Arrival.timings)
    (Array.length b.Arrival.timings);
  Array.iteri
    (fun i (ta : Arrival.stage_timing) ->
      let tb = b.Arrival.timings.(i) in
      if ta <> tb then
        Alcotest.failf
          "%s: stage %d differs (arrival_out %.17g vs %.17g, slew %.17g vs %.17g)"
          what i ta.Arrival.arrival_out tb.Arrival.arrival_out ta.Arrival.slew
          tb.Arrival.slew)
    a.Arrival.timings;
  Alcotest.(check bool)
    (what ^ ": worst arrival bit-equal")
    true
    (a.Arrival.worst_arrival = b.Arrival.worst_arrival)

let session ?cache ?domains ?epsilon graph =
  Session.create ~model:(Lazy.force table) ?cache ?domains ?epsilon graph

(* a deterministic stream of always-valid edits: resize / load / retime,
   uniformly over the graph's stages *)
let random_edit rng graph =
  let n = Timing_graph.num_stages graph in
  let stage = Random.State.int rng n in
  match Random.State.int rng 3 with
  | 0 ->
    let scenario = Timing_graph.scenario graph stage in
    let edges = Array.length scenario.Scenario.stage.Stage.edges in
    Edit.Resize_device
      {
        stage;
        edge = Random.State.int rng edges;
        scale = 0.5 +. Random.State.float rng 1.5;
      }
  | 1 -> Edit.Set_load { stage; load = Random.State.float rng 25e-15 }
  | _ ->
    Edit.Retime_input
      {
        stage;
        arrival = Random.State.float rng 40e-12;
        slew = Random.State.float rng 60e-12;
      }

(* apply [edits] random edits one at a time, checking incremental
   against from-scratch after every step *)
let check_edit_sequence what ?cache ?domains ~edits ~seed graph =
  let s = session ?cache ?domains graph in
  let rng = Random.State.make [| seed |] in
  check_identical (what ^ " (initial)") (Session.analysis s) (Session.scratch_analysis s);
  for k = 1 to edits do
    ignore (Session.apply s (random_edit rng (Session.graph s)));
    check_identical
      (Printf.sprintf "%s (edit %d)" what k)
      (Session.analysis s) (Session.scratch_analysis s)
  done;
  s

(* ---------- equivalence across workloads / cache / domains ---------- *)

let test_equiv_chain () =
  ignore (check_edit_sequence "chain, no cache" ~edits:8 ~seed:11 (Workloads.chain ~n:12 tech));
  ignore
    (check_edit_sequence "chain, shared cache" ~cache:(Stage_cache.create ()) ~edits:8
       ~seed:11 (Workloads.chain ~n:12 tech))

let test_equiv_random_stacks () =
  ignore
    (check_edit_sequence "stacks, no cache" ~edits:6 ~seed:23
       (Workloads.random_stacks ~width:4 ~depth:3 ~seed:5 tech));
  ignore
    (check_edit_sequence "stacks, shared cache" ~cache:(Stage_cache.create ()) ~edits:6
       ~seed:23
       (Workloads.random_stacks ~width:4 ~depth:3 ~seed:5 tech))

let test_equiv_decoder () =
  ignore
    (check_edit_sequence "decoder, shared cache" ~cache:(Stage_cache.create ())
       ~edits:8 ~seed:37
       (Workloads.decoder_tree ~fanout:3 ~depth:2 ~levels:2 tech))

let test_equiv_parallel () =
  (* every dirty level at least 2 wide is evaluated by a team *)
  ignore
    (check_edit_sequence "decoder, 4 domains" ~domains:4 ~edits:6 ~seed:41
       (Workloads.decoder_tree ~fanout:3 ~depth:2 ~levels:2 tech));
  ignore
    (check_edit_sequence "decoder, 4 domains + cache" ~cache:(Stage_cache.create ())
       ~domains:4 ~edits:6 ~seed:41
       (Workloads.decoder_tree ~fanout:3 ~depth:2 ~levels:2 tech))

(* ---------- topology edits ---------- *)

let test_equiv_topology () =
  let s = session ~cache:(Stage_cache.create ()) (Workloads.diamond tech) in
  let check what = check_identical what (Session.analysis s) (Session.scratch_analysis s) in
  check "diamond";
  (* graft a new sink under the old one, then cut the slow branch *)
  let id = Session.add_stage s (Scenario.nand_falling ~n:2 tech) in
  ignore (Session.apply s (Edit.Connect { from_stage = 3; to_stage = id; input = "a1" }));
  check "after add+connect";
  ignore
    (Session.apply s (Edit.Disconnect { from_stage = 0; to_stage = 2; input = "a1" }));
  check "after disconnect";
  ignore (Session.apply s (Edit.Remove_stage 2));
  check "after remove";
  (* diamond's 4 edges, +1 connect, -1 disconnect, -1 left on stage 2 *)
  Alcotest.(check int) "edge count" 3
    (Timing_graph.num_connections (Session.graph s));
  (* the detached stage is still timed, as an isolated primary input *)
  Alcotest.(check int) "stage count stable" 5
    (Array.length (Session.analysis s).Arrival.timings)

let test_invalid_edits_leave_session_consistent () =
  let s = session (Workloads.diamond tech) in
  let before = Session.analysis s in
  Alcotest.check_raises "duplicate edge"
    (Invalid_argument "Timing_graph.connect: duplicate edge") (fun () ->
      ignore
        (Session.apply s
           (Edit.Connect
              {
                from_stage = 0;
                to_stage = 1;
                input = Workloads.switching_input (Timing_graph.scenario (Session.graph s) 1);
              })));
  Alcotest.check_raises "unknown stage"
    (Invalid_argument "Session.apply (Retime_input): unknown stage 99") (fun () ->
      ignore (Session.apply s (Edit.Retime_input { stage = 99; arrival = 0.; slew = 0. })));
  List.iter
    (fun load ->
      Alcotest.check_raises
        (Printf.sprintf "load %g" load)
        (Invalid_argument "Stage.with_load: capacitance must be finite and >= 0")
        (fun () -> ignore (Session.apply s (Edit.Set_load { stage = 1; load }))))
    [ Float.nan; Float.infinity; Float.neg_infinity; -1e-15 ];
  check_identical "unchanged after rejected edits" before (Session.analysis s);
  check_identical "still matches scratch" (Session.analysis s) (Session.scratch_analysis s)

(* A recompute that fails part-way through a level must not leave stale
   fanout behind: once the failing edit is undone, the next analysis is
   exact again. Two ways to fail: a 1 uF load, whose output never
   crosses 50 %, on the last stage of a decoder-tree level, and a 1 ns
   ramp on the primary input of an inverter chain, whose midpoint lies
   past the inverter's 400 ps window so that no path conducts. *)
let check_failed_recompute_recovers ?domains breakage =
  let graph =
    match breakage with
    | `Huge_load -> Workloads.decoder_tree ~fanout:3 ~depth:2 ~levels:2 tech
    | `Slow_input -> Workloads.chain ~n:4 tech
  in
  let s = session ?domains graph in
  ignore (Session.analysis s);
  let frozen = Timing_graph.freeze (Session.graph s) in
  let level =
    match breakage with
    | `Huge_load ->
      Array.to_list frozen.Timing_graph.levels
      |> List.find (fun l ->
             Array.length l >= 2
             && Array.for_all (fun id -> Array.length frozen.Timing_graph.fanout.(id) > 0) l)
    | `Slow_input -> frozen.Timing_graph.levels.(0)
  in
  let first = level.(0) and last = level.(Array.length level - 1) in
  let original = Timing_graph.scenario (Session.graph s) last in
  ignore (Session.apply s (Edit.Resize_device { stage = first; edge = 0; scale = 1.7 }));
  let break, undo =
    match breakage with
    | `Huge_load ->
      ( Edit.Set_load { stage = last; load = 1e-6 },
        Edit.Swap_scenario { stage = last; scenario = original } )
    | `Slow_input ->
      ( Edit.Retime_input { stage = last; arrival = 0.0; slew = 1e-9 },
        Edit.Retime_input { stage = last; arrival = 0.0; slew = 0.0 } )
  in
  ignore (Session.apply s break);
  (match Session.analysis s with
  | exception Arrival.Analysis_failure _ -> ()
  | _ -> Alcotest.fail "an unswitchable stage must fail the analysis");
  ignore (Session.apply s undo);
  check_identical "recovered after undo" (Session.analysis s) (Session.scratch_analysis s)

let test_failed_recompute_recovers () =
  List.iter
    (fun breakage ->
      check_failed_recompute_recovers breakage;
      check_failed_recompute_recovers ~domains:4 breakage)
    [ `Huge_load; `Slow_input ]

(* ---------- retiming ---------- *)

let test_equiv_retime () =
  let s = session ~cache:(Stage_cache.create ()) (Workloads.chain ~n:6 tech) in
  ignore
    (Session.apply s (Edit.Retime_input { stage = 0; arrival = 12e-12; slew = 35e-12 }));
  let a = Session.analysis s in
  check_identical "retimed chain" a (Session.scratch_analysis s);
  Alcotest.(check bool) "later arrival shifts the head stage" true
    (a.Arrival.timings.(0).Arrival.arrival_out > 12e-12);
  (* slew <= 0 shifts arrival only: source shapes stay the scenario's own *)
  ignore
    (Session.apply s (Edit.Retime_input { stage = 0; arrival = 12e-12; slew = 0. }));
  check_identical "arrival-only retime" (Session.analysis s) (Session.scratch_analysis s)

(* ---------- cutoff ---------- *)

let test_cutoff_on_neutral_edit () =
  let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 ~levels:2 tech in
  let s = session ~cache:(Stage_cache.create ()) graph in
  ignore (Session.analysis s);
  let counter_value name =
    Option.value (List.assoc_opt name (Metrics.counters_alist ())) ~default:0
  in
  let reeval0 = counter_value "incr.stages_reeval" in
  let cutoff0 = counter_value "incr.cutoff_hits" in
  (* scale = 1.0 re-times the edited stage to exactly its old record, so
     the wavefront dies there: one re-evaluation, one cutoff hit *)
  ignore (Session.apply s (Edit.Resize_device { stage = 0; edge = 0; scale = 1.0 }));
  ignore (Session.analysis s);
  let stats = Session.stats s in
  Alcotest.(check int) "one stage re-evaluated" 1 stats.Session.last_reeval;
  Alcotest.(check int) "counter: stages_reeval +1" (reeval0 + 1)
    (counter_value "incr.stages_reeval");
  Alcotest.(check int) "counter: cutoff_hits +1" (cutoff0 + 1)
    (counter_value "incr.cutoff_hits");
  check_identical "still exact" (Session.analysis s) (Session.scratch_analysis s)

(* Random single-device resizes on a decoder tree re-time only their
   fanout cones: under a fifth of the graph per edit on average (10.6 %
   for this stream), each refresh still bit-identical to from-scratch. *)
let test_random_resizes_stay_local () =
  let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
  let n = Timing_graph.num_stages graph in
  let s = session ~cache:(Stage_cache.create ()) graph in
  ignore (Session.analysis s);
  let rng = Random.State.make [| 2003 |] in
  let edits = 8 and reeval = ref 0 in
  for k = 1 to edits do
    let stage = Random.State.int rng n in
    let scenario = Timing_graph.scenario graph stage in
    let edge = Random.State.int rng (Array.length scenario.Scenario.stage.Stage.edges) in
    let scale = 0.6 +. Random.State.float rng 1.2 in
    ignore (Session.apply s (Edit.Resize_device { stage; edge; scale }));
    reeval := !reeval + Session.recompute s;
    check_identical
      (Printf.sprintf "resize %d" k)
      (Session.analysis s) (Session.scratch_analysis s)
  done;
  let fraction = float_of_int !reeval /. float_of_int (edits * n) and bound = 0.20 in
  if fraction >= bound then
    Alcotest.failf "%.1f%% of the graph re-timed per edit, bound %.0f%%"
      (100.0 *. fraction) (100.0 *. bound)

let test_cone_bounds_reeval () =
  let graph = Workloads.decoder_tree ~fanout:4 ~depth:3 tech in
  let n = Timing_graph.num_stages graph in
  let frozen = Timing_graph.freeze graph in
  (* a leaf stage: last in topological order, empty fanout *)
  let leaf =
    Array.to_list frozen.Timing_graph.order
    |> List.find (fun id -> Array.length frozen.Timing_graph.fanout.(id) = 0)
  in
  let cone = Cone.fanout_cone frozen [ leaf ] in
  Alcotest.(check int) "leaf cone is itself" 1 (Cone.size cone);
  let s = session ~cache:(Stage_cache.create ()) graph in
  ignore (Session.analysis s);
  ignore (Session.apply s (Edit.Set_load { stage = leaf; load = 15e-15 }));
  let reeval = Session.recompute s in
  Alcotest.(check int) "leaf edit re-times one stage" 1 reeval;
  (* an internal edit re-times at most its cone — far below 20% here *)
  ignore (Session.apply s (Edit.Resize_device { stage = leaf - 1; edge = 0; scale = 1.3 }));
  let reeval = Session.recompute s in
  let bound = Cone.size (Cone.fanout_cone frozen [ leaf - 1 ]) in
  Alcotest.(check bool)
    (Printf.sprintf "reeval %d <= cone %d" reeval bound)
    true (reeval <= bound);
  Alcotest.(check bool)
    (Printf.sprintf "reeval %d < 20%% of %d stages" reeval n)
    true
    (float_of_int reeval < 0.2 *. float_of_int n);
  check_identical "still exact" (Session.analysis s) (Session.scratch_analysis s)

(* ---------- epsilon > 0 ---------- *)

let test_epsilon_suppresses_propagation () =
  let exact = session (Workloads.chain ~n:10 tech) in
  (* huge tolerance: any recomputed stage counts as unchanged, so the
     wavefront can't spread past the edited stage itself *)
  let loose = session ~epsilon:1.0 (Workloads.chain ~n:10 tech) in
  ignore (Session.analysis exact);
  ignore (Session.analysis loose);
  let edit = Edit.Resize_device { stage = 2; edge = 0; scale = 1.7 } in
  ignore (Session.apply exact edit);
  ignore (Session.apply loose edit);
  let exact_n = Session.recompute exact and loose_n = Session.recompute loose in
  Alcotest.(check int) "epsilon=1s stops at the edited stage" 1 loose_n;
  Alcotest.(check bool) "exact run re-times the downstream chain" true (exact_n > 1);
  Alcotest.(check int) "loose cutoff recorded" 1 (Session.stats loose).Session.cutoff_hits;
  (* the edited stage's own record is still fresh even under cutoff *)
  let la = Session.analysis loose and ea = Session.analysis exact in
  Alcotest.(check bool) "edited stage re-timed exactly" true
    (la.Arrival.timings.(2) = ea.Arrival.timings.(2))

(* ---------- what-if queries ---------- *)

let test_query_paths () =
  let s = session (Workloads.diamond tech) in
  (match Session.query s ~from_stage:0 ~to_stage:3 with
  | None -> Alcotest.fail "diamond: 0 -> 3 must be reachable"
  | Some q ->
    (* worst path routes through the slow branch (stage 2) *)
    Alcotest.(check (list int)) "worst path" [ 0; 2; 3 ] q.Session.stages;
    let t = (Session.analysis s).Arrival.timings in
    let expect =
      t.(0).Arrival.arrival_out +. t.(2).Arrival.delay +. t.(3).Arrival.delay
    in
    Alcotest.(check bool) "arrival accumulates current delays" true
      (Float.abs (q.Session.arrival -. expect) < 1e-18));
  (match Session.query s ~from_stage:1 ~to_stage:2 with
  | None -> ()
  | Some _ -> Alcotest.fail "parallel branches must not be connected");
  (match Session.query s ~from_stage:3 ~to_stage:0 with
  | None -> ()
  | Some _ -> Alcotest.fail "queries follow edge direction");
  Alcotest.check_raises "unknown stage"
    (Invalid_argument "Session.query: unknown stage 9") (fun () ->
      ignore (Session.query s ~from_stage:0 ~to_stage:9))

(* ---------- construction / validation ---------- *)

let test_create_validation () =
  Alcotest.check_raises "negative epsilon"
    (Invalid_argument "Session.create: epsilon must be finite and >= 0") (fun () ->
      ignore (session ~epsilon:(-1e-12) (Workloads.diamond tech)));
  Alcotest.check_raises "propagate validates default_slew"
    (Invalid_argument "Arrival.propagate: default_slew <= 0") (fun () ->
      ignore
        (Arrival.propagate ~model:(Lazy.force table) ~default_slew:0.0
           (Workloads.diamond tech)))

(* ---------- the --incr script front end ---------- *)

let test_script_roundtrip () =
  let text =
    "graph diamond\n\
     resize 2 0 2.0\n\
     retime 0 5 30\n\
     report\n\
     query 0 3\n"
  in
  let out = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer out in
  let run mode = Script.run ~tech ~model:(Lazy.force table) ~mode ~out:fmt text in
  (* the [incr.*] counters a [--metrics] snapshot carries count the
     script's two edits and the stages they re-timed *)
  let counter name = Option.value (Metrics.find_counter name) ~default:0 in
  let edits = counter "incr.edits" and reeval = counter "incr.stages_reeval" in
  let incr_run = run Script.Incremental in
  Alcotest.(check int) "incr.edits counts the script's edits" 2 (counter "incr.edits" - edits);
  Alcotest.(check bool) "incr.stages_reeval counts re-timed stages" true
    (counter "incr.stages_reeval" > reeval);
  let scratch_run = run Script.Scratch in
  check_identical "script: incremental = scratch"
    (Session.analysis incr_run.Script.session)
    (Session.analysis scratch_run.Script.session);
  List.iter
    (fun outcome ->
      Schema.incr_report "script document"
        (Json.of_string (Json.to_string outcome.Script.json)))
    [ incr_run; scratch_run ];
  (match (incr_run.Script.json, scratch_run.Script.json) with
  | Tqwm_obs.Json.Obj a, Tqwm_obs.Json.Obj b ->
    Alcotest.(check bool) "json analysis members equal" true
      (List.assoc "analysis" a = List.assoc "analysis" b)
  | _ -> Alcotest.fail "script json must be an object");
  (* a failing line is a script error at that line; so is a stage the
     analysis cannot time, at the line that asked for the analysis (a
     1 ns ramp leaves the inverter no conducting path in its 400 ps
     window), or at the last line when only the closing document times it *)
  List.iter
    (fun (text, expected) ->
      match Script.run ~tech ~model:(Lazy.force table) ~out:fmt text with
      | exception Script.Script_error { line; _ } ->
        Alcotest.(check int) "error line" expected line
      | _ -> Alcotest.fail "expected Script_error")
    [
      ("graph diamond\nfrobnicate\n", 2);
      ("stage inv\nretime 0 0 1000\nreport\n", 3);
      ("stage inv\nretime 0 0 1000\n", 2);
      ("graph chain 4\nload 0 5e-13\nreport\n", 3);
      (* the graph builders reject non-positive sizes *)
      ("graph chain 0\n", 1);
      ("graph chain -1\n", 1);
      ("graph decoder 0 2\n", 1);
    ]

(* When the output crosses before the input ramp's midpoint the worst
   arrival is 0 and the document's clock falls back to 1 ns: the path
   must then carry its endpoint's slack. *)
let test_zero_arrival_slacks_agree () =
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let outcome =
    Script.run ~tech ~model:(Lazy.force table) ~out:quiet "stage inv\nretime 0 0 600\nreport\n"
  in
  let session = outcome.Script.session in
  Alcotest.(check (float 0.0)) "worst arrival" 0.0
    (Session.analysis session).Arrival.worst_arrival;
  let doc = Script.timing_json session in
  let slack = Schema.number "timing" "slack_ps" in
  match (Schema.list "timing" "endpoints" doc, Schema.list "timing" "paths" doc) with
  | [ endpoint ], [ path ] ->
    Alcotest.(check (float 0.0)) "path slack = endpoint slack" (slack endpoint) (slack path)
  | _ -> Alcotest.fail "expected one endpoint and one path"

(* Nothing on a cache-hot run or on a daemon request may force a minor
   collection (see [Tqwm_sta.Fill]). The test-local minor heap holds far
   more than one run allocates, so after an emptying collection the
   count must not move at all. *)
let test_no_forced_minor_collection () =
  let model = Lazy.force table in
  let graph = Workloads.decoder_tree ~fanout:4 ~depth:4 tech in
  let cache = Stage_cache.create () in
  let run () =
    let analysis, _ = Parallel.propagate_arena ~model ~cache ~domains:1 graph in
    let clock_period = analysis.Arrival.worst_arrival in
    let required = Arrival.required graph analysis ~clock_period in
    let paths = Path_enum.k_worst ~clock_period ~k:10 graph analysis in
    let explained = List.map (Path_enum.explain ~model ~cache graph analysis) paths in
    ignore (Json.to_string (Report.timing_to_json graph analysis required explained));
    analysis
  in
  let session =
    session ~cache:(Stage_cache.create ()) (Workloads.decoder_tree ~fanout:4 ~depth:4 tech)
  in
  (* one timing request of the daemon, after resizing a device of the
     root stage: the re-freeze copies a fresh scenario 0 *)
  let request scale =
    ignore (Session.apply session (Edit.Resize_device { stage = 0; edge = 0; scale }));
    ignore (Session.analysis session);
    ignore (Json.to_string (Script.timing_json ~k:3 session))
  in
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 4 lsl 20 };
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  (* the warm-up fills both caches: the measured request scales back to
     a size the session has solved *)
  let analysis = run () in
  request 2.0;
  request 0.5;
  let no_collection what f =
    Gc.full_major ();
    let before = (Gc.quick_stat ()).Gc.minor_collections in
    f ();
    Alcotest.(check int) (what ^ ": minor collections") 0
      ((Gc.quick_stat ()).Gc.minor_collections - before)
  in
  no_collection "cache-hot run" (fun () -> ignore (run ()));
  no_collection "Report.to_json" (fun () ->
      ignore (Json.to_string (Report.to_json graph analysis)));
  no_collection "session edit and timing document" (fun () -> request 2.0)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tqwm_incr"
    [
      ( "equivalence",
        [
          quick "chain, with/without cache" test_equiv_chain;
          quick "random stacks, with/without cache" test_equiv_random_stacks;
          quick "decoder tree" test_equiv_decoder;
          quick "4 domains" test_equiv_parallel;
          quick "topology edits" test_equiv_topology;
          quick "rejected edits" test_invalid_edits_leave_session_consistent;
          quick "failed recompute recovers" test_failed_recompute_recovers;
          quick "retiming" test_equiv_retime;
        ] );
      ( "cutoff",
        [
          quick "neutral edit" test_cutoff_on_neutral_edit;
          quick "cone bound" test_cone_bounds_reeval;
          quick "random resizes stay local" test_random_resizes_stay_local;
          quick "epsilon > 0" test_epsilon_suppresses_propagation;
        ] );
      ( "query", [ quick "paths" test_query_paths ] );
      ( "validation", [ quick "create" test_create_validation ] );
      ( "script",
        [
          quick "roundtrip" test_script_roundtrip;
          quick "zero-arrival slacks agree" test_zero_arrival_slacks_agree;
        ] );
      ( "report path",
        [ quick "no forced minor collection" test_no_forced_minor_collection ] );
    ]
