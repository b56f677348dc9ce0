(* Tests for the parallel propagation engine, the frozen graph form and
   the stage cache: multi-domain runs must be bit-identical to
   sequential propagation, with and without memoization. *)

open Tqwm_device
open Tqwm_circuit
module Timing_graph = Tqwm_sta.Timing_graph
module Arrival = Tqwm_sta.Arrival
module Parallel = Tqwm_sta.Parallel
module Stage_cache = Tqwm_sta.Stage_cache
module Workloads = Tqwm_sta.Workloads

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
          "%s: stage %d differs (arrival_out %.17g vs %.17g, delay %.17g vs %.17g)"
          what i ta.Arrival.arrival_out tb.Arrival.arrival_out ta.Arrival.delay
          tb.Arrival.delay)
    a.Arrival.timings;
  Alcotest.(check (list int))
    (what ^ ": critical path")
    a.Arrival.critical_path b.Arrival.critical_path;
  Alcotest.(check bool)
    (what ^ ": worst arrival bit-equal")
    true
    (a.Arrival.worst_arrival = b.Arrival.worst_arrival)

let propagate ?cache ~domains graph =
  Parallel.propagate ~model:(Lazy.force table) ?cache ~domains graph

(* ---------- frozen graph form ---------- *)

let test_freeze_levels () =
  let graph = Workloads.diamond tech in
  let frozen = Timing_graph.freeze graph in
  Alcotest.(check int) "level count" 3 (Array.length frozen.Timing_graph.levels);
  Alcotest.(check (array (array int)))
    "level schedule"
    [| [| 0 |]; [| 1; 2 |]; [| 3 |] |]
    frozen.Timing_graph.levels;
  Alcotest.(check (list int)) "order is level concatenation" [ 0; 1; 2; 3 ]
    (Timing_graph.topological_order graph);
  Alcotest.(check int) "fanin of sink" 2 (Array.length frozen.Timing_graph.fanin.(3));
  Alcotest.(check int) "fanout of source" 2
    (Array.length frozen.Timing_graph.fanout.(0));
  (* freezing is memoized until the graph mutates *)
  Alcotest.(check bool) "memoized" true (Timing_graph.freeze graph == frozen);
  let extra = Timing_graph.add_stage graph (Scenario.inverter_falling tech) in
  Timing_graph.connect graph ~from_stage:3 ~to_stage:extra ~input:"a1";
  Alcotest.(check bool) "invalidated by mutation" true
    (Timing_graph.freeze graph != frozen);
  Alcotest.(check int) "new level appears" 4
    (Array.length (Timing_graph.levels graph))

let test_connect_rejects_duplicates () =
  (* an exact duplicate edge (same endpoints, same input) is rejected,
     and neither it nor a rejected cycle-creating edge disturbs the
     edges already inserted *)
  let graph = Timing_graph.create () in
  let a = Timing_graph.add_stage graph (Scenario.inverter_falling tech) in
  let b = Timing_graph.add_stage graph (Scenario.nand_falling ~n:2 tech) in
  Timing_graph.connect graph ~from_stage:a ~to_stage:b ~input:"a1";
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Timing_graph.connect: duplicate edge") (fun () ->
      Timing_graph.connect graph ~from_stage:a ~to_stage:b ~input:"a1");
  (* same endpoints on a different input is a parallel edge, not a duplicate *)
  Timing_graph.connect graph ~from_stage:a ~to_stage:b ~input:"a2";
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Timing_graph.connect: cycle detected") (fun () ->
      Timing_graph.connect graph ~from_stage:b ~to_stage:a ~input:"a1");
  Alcotest.(check int) "surviving fanin edges" 2
    (List.length (Timing_graph.fanin graph b));
  Alcotest.(check int) "connection count intact" 2 (Timing_graph.num_connections graph)

(* ---------- parallel vs sequential ---------- *)

let test_parallel_identical_diamond () =
  let graph = Workloads.diamond tech in
  let seq = propagate ~domains:1 graph in
  check_identical "diamond, 2 domains" seq (propagate ~domains:2 graph);
  check_identical "diamond, 4 domains" seq (propagate ~domains:4 graph);
  (* sanity: the slow branch must define the sink's arrival *)
  Alcotest.(check (option int)) "slow branch critical" (Some 2)
    seq.Arrival.timings.(3).Arrival.critical_fanin

let test_parallel_identical_decoder_tree () =
  let graph = Workloads.decoder_tree ~fanout:2 ~depth:2 ~levels:2 tech in
  Alcotest.(check int) "tree size" 7 (Timing_graph.num_stages graph);
  let seq = propagate ~domains:1 graph in
  check_identical "decoder tree, 2 domains" seq (propagate ~domains:2 graph);
  check_identical "decoder tree, 4 domains" seq (propagate ~domains:4 graph)

let test_parallel_identical_with_cache () =
  let graph = Workloads.fanout_tree ~fanout:2 ~depth:2 (Scenario.nand_falling ~n:3 tech) in
  (* fresh caches per run: hit patterns differ between domain counts but
     results may not *)
  let run domains =
    let cache = Stage_cache.create () in
    let analysis = propagate ~cache ~domains graph in
    (analysis, Stage_cache.stats cache)
  in
  let seq, seq_stats = run 1 in
  let par2, _ = run 2 in
  let par4, par4_stats = run 4 in
  check_identical "cached, 2 domains" seq par2;
  check_identical "cached, 4 domains" seq par4;
  Alcotest.(check bool) "repeated gates hit the cache" true
    (seq_stats.Stage_cache.hits > 0 && par4_stats.Stage_cache.hits > 0);
  Alcotest.(check bool) "fewer solves than stages" true
    (seq_stats.Stage_cache.misses < Timing_graph.num_stages graph);
  (* cached and uncached propagation agree to within the slew bucket's
     perturbation; with the bucket at 1 ps the delays stay within a few
     tenths of a picosecond *)
  let uncached = propagate ~domains:1 graph in
  Alcotest.(check bool) "bucketing perturbs arrivals by < 1 ps" true
    (Float.abs (uncached.Arrival.worst_arrival -. seq.Arrival.worst_arrival)
    < 1e-12)

let test_cache_bucketing () =
  let cache = Stage_cache.create ~slew_bucket:2e-12 () in
  Alcotest.(check (float 1e-18)) "rounds to bucket" 42e-12
    (Stage_cache.bucket_slew cache 41.3e-12);
  Alcotest.(check (float 1e-18)) "never below one bucket" 2e-12
    (Stage_cache.bucket_slew cache 0.4e-12);
  Alcotest.(check (float 0.0)) "non-positive passes through" 0.0
    (Stage_cache.bucket_slew cache 0.0);
  let model = Lazy.force table in
  let config = Tqwm_core.Config.default in
  let a = Stage_cache.fingerprint ~model ~config (Scenario.nand_falling ~n:2 tech) in
  let b =
    Stage_cache.fingerprint ~model ~config (Scenario.nand_falling ~n:2 ~load:9e-15 tech)
  in
  Alcotest.(check bool) "load changes the fingerprint" true (a <> b);
  Alcotest.(check bool) "fingerprint is deterministic" true
    (String.equal a
       (Stage_cache.fingerprint ~model ~config (Scenario.nand_falling ~n:2 tech)))

(* ---------- work-stealing chunk scheduler ---------- *)

module Metrics = Tqwm_obs.Metrics

let counter name = Option.value (Metrics.find_counter name) ~default:0

(* a synthetic stage timing whose fields are a pure function of the id,
   so any scheduling mistake (dropped, duplicated or misplaced stage)
   corrupts the result array detectably *)
let fabricated_timing id =
  {
    Arrival.id;
    arrival_in = 0.0;
    delay = float_of_int (id + 1) *. 1e-12;
    slew = 1e-12;
    arrival_out = float_of_int ((id * id) + 1) *. 1e-12;
    critical_fanin = (if id = 0 then None else Some (id - 1));
  }

let test_steal_identical_many_domains () =
  let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
  let seq = propagate ~domains:1 graph in
  List.iter
    (fun domains ->
      check_identical
        (Printf.sprintf "auto chunks, %d domains" domains)
        seq
        (Parallel.propagate ~model:(Lazy.force table) ~domains graph);
      check_identical
        (Printf.sprintf "1-stage chunks, %d domains" domains)
        seq
        (Parallel.propagate ~model:(Lazy.force table) ~domains ~chunk:1 graph))
    [ 2; 4; 8 ]

let test_chunk_size_edges () =
  let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
  let width = Timing_graph.max_level_width (Timing_graph.freeze graph) in
  Alcotest.(check bool) "tree has a wide level" true (width > 1);
  let seq = propagate ~domains:1 graph in
  (* chunk 1 maximizes scheduling traffic; chunk = width puts a whole
     level in one deque slot; chunk > width degenerates to one chunk per
     level — all three must still be bit-identical to sequential *)
  List.iter
    (fun chunk ->
      check_identical
        (Printf.sprintf "chunk %d" chunk)
        seq
        (Parallel.propagate ~model:(Lazy.force table) ~domains:4 ~chunk graph))
    [ 1; width; width + 7 ]

let test_chunk_validation () =
  let graph = Workloads.diamond tech in
  Alcotest.check_raises "chunk 0 rejected"
    (Invalid_argument "Parallel.propagate: chunk < 1") (fun () ->
      ignore (Parallel.propagate ~model:(Lazy.force table) ~domains:2 ~chunk:0 graph))

(* run [evaluate_stages] with each [f id] writing its own result slot *)
let evaluate_fabricated ~domains ~cost n =
  let results = Array.make n None in
  Parallel.evaluate_stages ~domains
    ~f:(fun id ->
      cost id;
      results.(id) <- Some (fabricated_timing id))
    (Array.init n Fun.id);
  results

let test_steals_on_imbalance () =
  (* 32 stages on 4 domains are cut into chunks of
     max 1 (min 32 (32 / 16)) = 2 stages, dealt round-robin, so deque w
     owns chunks congruent to w mod 4; making deque 0's chunks slow
     guarantees workers 1..3 run dry while work remains there — the
     steal counter must move *)
  let n = 32 and chunk = 2 in
  let cost id = if id / chunk mod 4 = 0 then Unix.sleepf 0.005 in
  let steals0 = counter "sta.steals" and chunks0 = counter "sta.chunks" in
  let results = evaluate_fabricated ~domains:4 ~cost n in
  let steals = counter "sta.steals" - steals0 in
  let chunks = counter "sta.chunks" - chunks0 in
  Array.iteri
    (fun i r ->
      if r <> Some (fabricated_timing i) then
        Alcotest.failf "stage %d result corrupted" i)
    results;
  Alcotest.(check int) "every chunk executed exactly once" (n / chunk) chunks;
  Alcotest.(check bool) "imbalance forced steals" true (steals > 0)

let prop_evaluate_stages_identical =
  QCheck2.Test.make ~name:"evaluate_stages bit-identical under random costs" ~count:20
    QCheck2.Gen.(pair (list_size (int_range 1 40) (int_range 0 3)) (int_range 1 8))
    (fun (costs, domains) ->
      let costs = Array.of_list costs in
      let n = Array.length costs in
      (* random per-stage costs skew the deques so steal interleavings
         vary run to run; the result may not *)
      let cost id =
        if costs.(id) > 0 then Unix.sleepf (float_of_int costs.(id) *. 2e-4)
      in
      evaluate_fabricated ~domains ~cost n
      = Array.init n (fun id -> Some (fabricated_timing id)))

(* ---------- timing arena ---------- *)

module Timing_arena = Tqwm_sta.Timing_arena

let check_level_digests what graph (a : Timing_arena.t) (b : Timing_arena.t) =
  Array.iteri
    (fun k _ ->
      Alcotest.(check string)
        (Printf.sprintf "%s: level %d slab digest" what k)
        (Timing_arena.level_digest a k)
        (Timing_arena.level_digest b k))
    (Timing_graph.levels graph)

let test_arena_race_four_domains () =
  (* four domains store into disjoint slots of one shared arena; any
     torn or misplaced store corrupts a level slab, which the digest
     comparison against the sequential arena catches *)
  let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
  let model = Lazy.force table in
  let seq, seq_arena = Arrival.propagate_arena ~model graph in
  List.iter
    (fun chunk ->
      let par, par_arena = Parallel.propagate_arena ~model ~domains:4 ?chunk graph in
      let what =
        Printf.sprintf "4 domains, %s"
          (match chunk with Some c -> Printf.sprintf "chunk %d" c | None -> "auto chunk")
      in
      check_identical what seq par;
      check_level_digests what graph seq_arena par_arena)
    [ None; Some 1 ]

let test_arena_reuse_and_seal_idempotent () =
  let graph = Workloads.diamond tech in
  let model = Lazy.force table in
  let frozen = Timing_graph.freeze graph in
  (* repeated propagations over one graph build fresh arenas with
     bit-identical slabs *)
  let _, a = Arrival.propagate_arena ~model graph in
  let _, b = Arrival.propagate_arena ~model graph in
  check_level_digests "repeated propagation" graph a b;
  (* sealing again repacks the same values: digests survive *)
  let d0 = Timing_arena.level_digest a 0 in
  Timing_arena.seal a frozen;
  Alcotest.(check string) "re-seal keeps digests" d0 (Timing_arena.level_digest a 0);
  (* slot reuse: a re-stored slot keeps the last write, untouched slots
     stay empty *)
  let n = Timing_graph.num_stages graph in
  let m = Timing_arena.create n in
  Alcotest.(check int) "sized for the graph" n (Timing_arena.length m);
  let output = Option.get (Timing_arena.output a 0) in
  Timing_arena.store m 0 (fabricated_timing 3) output;
  Timing_arena.store m 0 (fabricated_timing 0) output;
  Alcotest.(check bool) "overwrite wins" true
    (Timing_arena.timing m 0 = Some (fabricated_timing 0));
  Alcotest.(check bool) "untouched slot empty" true (Timing_arena.timing m 1 = None);
  (* a copy is independent of its source; growing keeps stored slots *)
  let c = Timing_arena.copy m in
  Timing_arena.store c 1 (fabricated_timing 1) output;
  Alcotest.(check bool) "copy writes stay in the copy" true
    (Timing_arena.timing m 1 = None
    && Timing_arena.timing c 1 = Some (fabricated_timing 1));
  Timing_arena.resize m (n + 2);
  Alcotest.(check int) "grown" (n + 2) (Timing_arena.length m);
  Alcotest.(check bool) "resize keeps slots, new ones empty" true
    (Timing_arena.timing m 0 = Some (fabricated_timing 0)
    && Timing_arena.timing m (n + 1) = None);
  Timing_arena.resize m 1;
  Alcotest.(check int) "never shrinks" (n + 2) (Timing_arena.length m)

let prop_arena_digests_stable =
  QCheck2.Test.make
    ~name:"arena slab digests identical across domains and chunks"
    ~count:8
    QCheck2.Gen.(pair (int_range 1 6) (int_range 1 6))
    (fun (domains, chunk) ->
      let graph = Workloads.decoder_tree ~fanout:2 ~depth:2 tech in
      let model = Lazy.force table in
      let _, ref_arena = Arrival.propagate_arena ~model graph in
      let _, arena = Parallel.propagate_arena ~model ~domains ~chunk graph in
      Array.for_all
        (fun k ->
          String.equal
            (Timing_arena.level_digest ref_arena k)
            (Timing_arena.level_digest arena k))
        (Array.init (Array.length (Timing_graph.levels graph)) Fun.id))

(* ---------- slack over a chain ---------- *)

let test_chain_slack_identity () =
  let graph = Workloads.chain ~n:3 tech in
  let analysis = propagate ~domains:2 graph in
  let clock_period = 1e-9 in
  let report = Arrival.required graph analysis ~clock_period in
  Alcotest.(check (float 1e-15)) "worst slack = clock_period - worst_arrival"
    (clock_period -. analysis.Arrival.worst_arrival)
    report.Arrival.req_worst_slack

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "tqwm_parallel"
    [
      ( "frozen graph",
        [
          quick "level schedule" test_freeze_levels;
          quick "duplicate edge rejected" test_connect_rejects_duplicates;
        ] );
      ( "parallel engine",
        [
          slow "diamond bit-identical" test_parallel_identical_diamond;
          slow "decoder tree bit-identical" test_parallel_identical_decoder_tree;
          slow "cached runs bit-identical" test_parallel_identical_with_cache;
        ] );
      ( "work stealing",
        [
          slow "bit-identical at 2/4/8 domains, auto and 1-stage chunks"
            test_steal_identical_many_domains;
          slow "chunk size edge cases" test_chunk_size_edges;
          quick "chunk validation" test_chunk_validation;
          slow "imbalance forces steals" test_steals_on_imbalance;
          QCheck_alcotest.to_alcotest prop_evaluate_stages_identical;
        ] );
      ( "stage cache",
        [ quick "bucketing and fingerprints" test_cache_bucketing ] );
      ( "timing arena",
        [
          slow "4-domain slab digests match sequential" test_arena_race_four_domains;
          quick "reuse, overwrite and idempotent seal"
            test_arena_reuse_and_seal_idempotent;
          QCheck_alcotest.to_alcotest prop_arena_digests_stable;
        ] );
      ("slack", [ slow "chain identity" test_chain_slack_identity ]);
    ]
