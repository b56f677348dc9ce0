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
module Report = Tqwm_sta.Report
module Json = Tqwm_obs.Json
module Metrics = Tqwm_obs.Metrics
module Trace = Tqwm_obs.Trace

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

(* a decoder tree, whose repeated cells hit the stage cache, and random
   stacks, which mostly miss it *)
let mixed_graphs () =
  [
    ("decoder tree", Workloads.decoder_tree ~fanout:3 ~depth:2 tech);
    ("random stacks", Workloads.random_stacks ~width:4 ~depth:2 tech);
  ]

let test_parallel_identical_with_cache () =
  let graph = Workloads.fanout_tree ~fanout:2 ~depth:2 (Scenario.nand_falling ~n:3 tech) in
  (* fresh caches per run: hit patterns differ between domain counts but
     results may not *)
  let run graph domains =
    let cache = Stage_cache.create () in
    let analysis = propagate ~cache ~domains graph in
    (analysis, Stage_cache.stats cache)
  in
  let seq, seq_stats = run graph 1 in
  let par2, _ = run graph 2 in
  let par4, par4_stats = run graph 4 in
  check_identical "cached, 2 domains" seq par2;
  check_identical "cached, 4 domains" seq par4;
  List.iter
    (fun (name, graph) ->
      let seq, _ = run graph 1 in
      List.iter
        (fun domains ->
          check_identical
            (Printf.sprintf "%s, cached, %d domains" name domains)
            seq
            (fst (run graph domains)))
        [ 2; 4 ])
    (mixed_graphs ());
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

let test_identical_many_domains () =
  List.iter
    (fun (name, graph) ->
      let seq = propagate ~domains:1 graph in
      List.iter
        (fun domains ->
          check_identical
            (Printf.sprintf "%s, %d domains" name domains)
            seq (propagate ~domains graph))
        [ 2; 4; 8 ])
    (mixed_graphs ())

(* [qwm_sim nand2 --sta 2 --fanout 3 --domains 4 --trace --metrics --json]
   in process: each of the team's domains closes one [sta.worker] span
   carrying the stages it timed, and those add up to the report's stage
   count. Every document is read back from its text, as a consumer of
   the written files would. *)
let test_worker_spans_cover_stages () =
  let graph = Workloads.fanout_tree ~fanout:3 ~depth:2 (Scenario.nand_falling ~n:2 tech) in
  let reread doc = Json.of_string (Json.to_string doc) in
  Trace.enable ();
  let analysis, trace =
    Fun.protect ~finally:Trace.disable (fun () ->
        let analysis = propagate ~cache:(Stage_cache.create ()) ~domains:4 graph in
        (analysis, reread (Trace.to_json ())))
  in
  Schema.trace "trace" trace;
  let workers =
    List.filter
      (fun e -> Json.member "name" e = Some (Json.String "sta.worker"))
      (Schema.list "trace" "traceEvents" trace)
  in
  if workers = [] then Alcotest.fail "no per-domain sta.worker spans in the trace";
  let stages e = Schema.int "sta.worker span" "stages" (Schema.field "sta.worker span" "args" e) in
  let timed = List.fold_left (fun sum e -> sum + stages e) 0 workers in
  let report = reread (Report.to_json graph analysis) in
  Schema.sta_report "report" report;
  Alcotest.(check int) "worker spans time every stage" (Timing_graph.num_stages graph) timed;
  Alcotest.(check int) "the report lists every stage" timed
    (List.length (Schema.list "report" "stages" report));
  let metrics = reread (Metrics.snapshot ()) in
  Schema.metrics "metrics" metrics;
  let counters = Schema.field "metrics" "counters" metrics in
  List.iter
    (fun name ->
      if Schema.int "metrics.counters" name counters <= 0 then
        Alcotest.failf "counter %s is not positive" name)
    [ "qwm.regions"; "qwm.device_calls.residual"; "qwm.device_calls.jacobian";
      "stage_cache.misses" ]

let test_cache_bucketing () =
  Alcotest.(check (float 1e-18)) "rounds down to the nearest bucket" 41e-12
    (Stage_cache.bucket_slew 41.3e-12);
  Alcotest.(check (float 1e-18)) "rounds up to the nearest bucket" 42e-12
    (Stage_cache.bucket_slew 41.6e-12);
  Alcotest.(check (float 1e-18)) "never below one bucket" 1e-12
    (Stage_cache.bucket_slew 0.4e-12);
  Alcotest.(check (float 0.0)) "non-positive passes through" 0.0
    (Stage_cache.bucket_slew 0.0);
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

(* Propagation keys each solve with the frozen structure digest; every
   stage's replayed shaped scenario must also be found by the
   from-scratch key, so the two key paths agree. *)
let test_fast_key_agrees () =
  let model = Lazy.force table in
  let config = Tqwm_core.Config.default in
  List.iter
    (fun (what, graph) ->
      let cache = Stage_cache.create () in
      let analysis = Arrival.propagate ~model ~cache graph in
      let frozen = Timing_graph.freeze graph in
      let timings = Array.map Option.some analysis.Arrival.timings in
      Array.iter
        (fun id ->
          Alcotest.(check string)
            (Printf.sprintf "%s: stage %d structure digest" what id)
            (Stage_cache.structure frozen.Timing_graph.scenarios.(id))
            frozen.Timing_graph.structure.(id);
          let _, report, shaped =
            Arrival.replay_stage ~model ~config ~default_slew:Arrival.default_slew ~cache
              frozen timings id
          in
          (match Stage_cache.peek cache ~model ~config shaped with
          | Some r when r == report -> ()
          | Some _ | None ->
            Alcotest.failf "%s: stage %d not found by the from-scratch key" what id);
          Alcotest.(check int)
            (Printf.sprintf "%s: stage %d uses agree" what id)
            (Stage_cache.uses cache ~structure:frozen.Timing_graph.structure.(id) ~model
               ~config shaped)
            (Stage_cache.uses cache ~model ~config shaped))
        frozen.Timing_graph.order;
      Alcotest.(check int)
        (what ^ ": one entry per miss")
        (Stage_cache.stats cache).Stage_cache.misses
        (Stage_cache.stats cache).Stage_cache.entries)
    [
      ("decoder tree", Workloads.decoder_tree ~fanout:3 ~depth:2 tech);
      ("random stacks", Workloads.random_stacks ~width:4 ~depth:3 ~seed:7 tech);
      ("diamond", Workloads.diamond tech);
    ]

let test_structure_follows_edits () =
  let model = Lazy.force table in
  let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
  let before = Timing_graph.freeze graph in
  let cache = Stage_cache.create () in
  ignore (Arrival.propagate ~model ~cache graph);
  let misses = (Stage_cache.stats cache).Stage_cache.misses in
  (* a leaf: re-keying it cannot move any other stage's inputs *)
  let leaf = Timing_graph.num_stages graph - 1 in
  Alcotest.(check int) "edited stage is a leaf" 0
    (Array.length before.Timing_graph.fanout.(leaf));
  let fork = Timing_graph.copy graph in
  Timing_graph.set_scenario graph leaf
    (Scenario.decoder ~levels:2 ~load:120e-15 tech);
  let after = Timing_graph.freeze graph in
  Array.iteri
    (fun id d ->
      let d' = after.Timing_graph.structure.(id) in
      if id = leaf then
        Alcotest.(check bool) "edited stage re-digested" false (String.equal d d')
      else if d != d' then
        Alcotest.failf "stage %d: digest not carried over from the previous snapshot" id)
    before.Timing_graph.structure;
  Alcotest.(check string) "re-digest matches from scratch"
    (Stage_cache.structure (Timing_graph.scenario graph leaf))
    after.Timing_graph.structure.(leaf);
  let edited = Arrival.propagate ~model ~cache graph in
  Alcotest.(check int) "exactly one new solve" (misses + 1)
    (Stage_cache.stats cache).Stage_cache.misses;
  check_identical "pre-edit cache vs fresh cache" edited
    (Arrival.propagate ~model ~cache:(Stage_cache.create ()) graph);
  (* the fork still sees the pre-edit snapshot and its digests *)
  Alcotest.(check bool) "fork keeps the shared snapshot" true
    (Timing_graph.freeze fork == before);
  (* and editing a fork leaves the original's digests alone *)
  let shared = Array.copy after.Timing_graph.structure in
  let fork = Timing_graph.copy graph in
  Timing_graph.set_scenario fork 0 (Scenario.decoder ~levels:2 ~load:90e-15 tech);
  let forked = Timing_graph.freeze fork in
  Alcotest.(check bool) "fork re-digests its edit" false
    (String.equal shared.(0) forked.Timing_graph.structure.(0));
  Alcotest.(check bool) "original snapshot untouched" true
    (Timing_graph.freeze graph == after);
  Alcotest.(check (array string)) "original digests unchanged" shared
    after.Timing_graph.structure

(* [Workloads.fanout_tree] adds one scenario value at every node; the
   same tree built from a fresh but equal value per node must digest and
   hit the cache identically *)
let test_structure_of_equal_values () =
  let model = Lazy.force table in
  let make () = Scenario.nand_falling ~n:3 tech in
  let shared = Workloads.fanout_tree ~fanout:2 ~depth:2 (make ()) in
  let separate = Timing_graph.create () in
  let rec expand parent level =
    if level < 2 then
      for _ = 1 to 2 do
        let child = Timing_graph.add_stage separate (make ()) in
        Timing_graph.connect separate ~from_stage:parent ~to_stage:child ~input:"a1";
        expand child (level + 1)
      done
  in
  expand (Timing_graph.add_stage separate (make ())) 0;
  let fs = Timing_graph.freeze shared and fd = Timing_graph.freeze separate in
  Alcotest.(check bool) "values are distinct" true
    (fd.Timing_graph.scenarios.(0) != fd.Timing_graph.scenarios.(1));
  Alcotest.(check (array string)) "equal digests" fs.Timing_graph.structure
    fd.Timing_graph.structure;
  let run graph =
    let cache = Stage_cache.create () in
    let analysis = Arrival.propagate ~model ~cache graph in
    (analysis, Stage_cache.stats cache)
  in
  let a, sa = run shared and b, sb = run separate in
  check_identical "shared vs separate values" a b;
  Alcotest.(check (pair int int)) "same hits and misses"
    (sa.Stage_cache.hits, sa.Stage_cache.misses)
    (sb.Stage_cache.hits, sb.Stage_cache.misses)

(* A scenario edit keeps the previous snapshot's adjacency and schedule;
   a new stage or edge, or a removed edge, rebuilds them. Either way the
   snapshot equals one frozen from scratch after the same mutations. *)
let test_schedule_follows_rewiring () =
  let sc = Scenario.decoder ~levels:2 ~load:120e-15 tech in
  let extra = Scenario.nand_falling ~n:2 tech in
  (* stage 1 and stage 5 are children of the root, 12 is a leaf *)
  let edits =
    [
      (`Scenario, fun g -> Timing_graph.set_scenario g 1 sc);
      (`Rewired, fun g -> ignore (Timing_graph.add_stage g extra));
      ( `Rewired,
        fun g ->
          Timing_graph.connect g ~from_stage:12
            ~to_stage:(Timing_graph.num_stages g - 1)
            ~input:"a1" );
      (`Rewired, fun g -> Timing_graph.disconnect g ~from_stage:0 ~to_stage:1 ~input:"en");
      (`Rewired, fun g -> Timing_graph.connect g ~from_stage:5 ~to_stage:1 ~input:"en");
      (`Scenario, fun g -> Timing_graph.set_scenario g 0 sc);
    ]
  in
  let incremental = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
  List.iteri
    (fun k (kind, edit) ->
      let before = Timing_graph.freeze incremental in
      edit incremental;
      let after = Timing_graph.freeze incremental in
      let what = Printf.sprintf "edit %d" k in
      let shared =
        after.Timing_graph.fanin == before.Timing_graph.fanin
        && after.Timing_graph.fanout == before.Timing_graph.fanout
        && after.Timing_graph.order == before.Timing_graph.order
        && after.Timing_graph.levels == before.Timing_graph.levels
      in
      Alcotest.(check bool) (what ^ ": schedule shared") (kind = `Scenario) shared;
      let scratch = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
      List.iteri (fun j (_, e) -> if j <= k then e scratch) edits;
      let fresh = Timing_graph.freeze scratch in
      Alcotest.(check bool) (what ^ ": adjacency") true
        (after.Timing_graph.fanin = fresh.Timing_graph.fanin
        && after.Timing_graph.fanout = fresh.Timing_graph.fanout);
      Alcotest.(check (array int)) (what ^ ": order") fresh.Timing_graph.order
        after.Timing_graph.order;
      Alcotest.(check (array (array int))) (what ^ ": levels") fresh.Timing_graph.levels
        after.Timing_graph.levels;
      Alcotest.(check (array string)) (what ^ ": structure digests")
        fresh.Timing_graph.structure after.Timing_graph.structure)
    edits

(* The runtime runs a minor collection before filling an array of more
   than 256 elements from a young initial value, as [Array.init] does
   with its first result; on a multi-domain server that stops every
   domain. Re-freezing a 341-stage graph after an edit or a rewiring
   allocates far less than the young generation, so after an explicit
   [Gc.minor] neither may collect. *)
let test_no_forced_minor_collection () =
  let graph = Workloads.decoder_tree ~fanout:4 ~depth:4 tech in
  ignore (Timing_graph.freeze graph);
  let collections what f =
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.minor_collections in
    ignore (Sys.opaque_identity (f ()));
    Alcotest.(check int) (what ^ ": minor collections") 0
      ((Gc.quick_stat ()).Gc.minor_collections - before)
  in
  let leaf = Timing_graph.num_stages graph - 1 in
  Timing_graph.set_scenario graph leaf (Scenario.decoder ~levels:2 ~load:120e-15 tech);
  collections "re-freeze after a scenario edit" (fun () -> Timing_graph.freeze graph);
  Timing_graph.disconnect graph ~from_stage:0 ~to_stage:1 ~input:"en";
  Timing_graph.connect graph ~from_stage:0 ~to_stage:1 ~input:"en";
  collections "re-freeze after rewiring" (fun () -> Timing_graph.freeze graph)

(* ---------- level runner ---------- *)

(* [levels] numbered consecutively from 0, level by level *)
let numbered_levels sizes =
  let next = ref 0 in
  Array.of_list
    (List.map
       (fun n ->
         let level = Array.init n (fun i -> !next + i) in
         next := !next + n;
         level)
       sizes)

let prop_run_levels_in_order =
  QCheck2.Test.make ~name:"every id once, no id before the earlier levels finish"
    ~count:30
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 6) (int_range 0 10))
        (int_range 1 8)
        (int_range 0 1_000_000))
    (fun (sizes, domains, seed) ->
      let levels = numbered_levels sizes in
      let n = List.fold_left ( + ) 0 sizes in
      let rng = Random.State.make [| seed |] in
      let cost = Array.init n (fun _ -> Random.State.int rng 4) in
      let level_of = Array.make n 0 in
      Array.iteri (fun k l -> Array.iter (fun id -> level_of.(id) <- k) l) levels;
      (* [runs.(id)] counts the returned runs of [id] *)
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let early = Atomic.make false in
      let f id =
        for k = 0 to level_of.(id) - 1 do
          Array.iter (fun j -> if Atomic.get runs.(j) = 0 then Atomic.set early true) levels.(k)
        done;
        if cost.(id) > 0 then Unix.sleepf (float_of_int cost.(id) *. 1e-4);
        Atomic.incr runs.(id)
      in
      Parallel.run ~domains ~f levels;
      Array.for_all (fun r -> Atomic.get r = 1) runs && not (Atomic.get early))

let test_run_reraises_after_join () =
  (* the main domain's first id waits until another domain is inside [f],
     then fails; ids on the other domains fail only after a long sleep.
     The first failure comes out, only once every started id has
     returned, and no later level starts *)
  let levels = numbered_levels [ 8; 2 ] in
  let started = Atomic.make 0 and returned = Atomic.make 0 in
  let later_level = Atomic.make false in
  let f id =
    Atomic.incr started;
    Fun.protect
      ~finally:(fun () -> Atomic.incr returned)
      (fun () ->
        if id >= 8 then Atomic.set later_level true
        else if Domain.is_main_domain () then begin
          let deadline = Unix.gettimeofday () +. 10.0 in
          while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
            Unix.sleepf 1e-3
          done;
          failwith "first"
        end
        else begin
          Unix.sleepf 0.3;
          failwith "second"
        end)
  in
  Alcotest.check_raises "first exception re-raised" (Failure "first") (fun () ->
      Parallel.run ~domains:4 ~f levels);
  Alcotest.(check bool) "another domain was inside f" true (Atomic.get started >= 2);
  Alcotest.(check int) "every started id returned before the re-raise"
    (Atomic.get started) (Atomic.get returned);
  Alcotest.(check bool) "no later level started" false (Atomic.get later_level)

let test_run_shares_a_slow_level () =
  (* the slow id only returns once every other id of its level is done:
     that can only happen if the other domain takes the rest of the
     level while its domain is busy *)
  let n = 12 and slow = 3 in
  let others_done = Atomic.make 0 in
  let ran_by = Array.make n (-1) in
  let waited_out = ref false in
  let f id =
    ran_by.(id) <- (Domain.self () :> int);
    if id = slow then begin
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Atomic.get others_done < n - 1 && Unix.gettimeofday () < deadline do
        Unix.sleepf 1e-3
      done;
      waited_out := Atomic.get others_done = n - 1
    end
    else Atomic.incr others_done
  in
  Parallel.run ~domains:2 ~f [| Array.init n Fun.id |];
  Alcotest.(check bool) "the rest of the level finished during the slow id" true
    !waited_out;
  (* ids are claimed in order, so every later one went to the other domain *)
  Array.iteri
    (fun id d ->
      if id > slow && d = ran_by.(slow) then
        Alcotest.failf "id %d ran on the slow id's domain" id)
    ran_by

(* ---------- timing arena ---------- *)

module Timing_arena = Tqwm_sta.Timing_arena

(* a synthetic stage timing whose fields are a pure function of the id,
   so a misplaced or torn store is detectable *)
let fabricated_timing id =
  {
    Arrival.id;
    arrival_in = 0.0;
    delay = float_of_int (id + 1) *. 1e-12;
    slew = 1e-12;
    arrival_out = float_of_int ((id * id) + 1) *. 1e-12;
    critical_fanin = (if id = 0 then None else Some (id - 1));
  }

let check_level_digests what graph (a : Timing_arena.t) (b : Timing_arena.t) =
  let frozen = Timing_graph.freeze graph in
  Array.iteri
    (fun k _ ->
      Alcotest.(check string)
        (Printf.sprintf "%s: level %d digest" what k)
        (Timing_arena.level_digest a frozen k)
        (Timing_arena.level_digest b frozen k))
    frozen.Timing_graph.levels

(* [Workloads.diamond]'s level digests: the stored outputs must keep
   hashing to exactly these bytes until the solver's numbers are meant
   to move *)
let diamond_level_digests =
  [|
    "86e114fa6e957d728f1233c51a2ec013";
    "d3adda9aea51fcc1ee0585bdc822ff36";
    "0dc7b2d77e69514aec3b01b1a8da1aed";
  |]

let test_diamond_digests_pinned () =
  let graph = Workloads.diamond tech in
  let model = Lazy.force table in
  let frozen = Timing_graph.freeze graph in
  let check what arena =
    Alcotest.(check (array string))
      (what ^ ": pinned level digests")
      diamond_level_digests
      (Array.mapi
         (fun k _ -> Digest.to_hex (Timing_arena.level_digest arena frozen k))
         frozen.Timing_graph.levels)
  in
  check "sequential" (snd (Arrival.propagate_arena ~model graph));
  check "2 domains" (snd (Parallel.propagate_arena ~model ~domains:2 graph));
  check "4 domains" (snd (Parallel.propagate_arena ~model ~domains:4 graph));
  Alcotest.check_raises "unknown level"
    (Invalid_argument "Timing_arena.level_digest: unknown level") (fun () ->
      ignore
        (Timing_arena.level_digest
           (snd (Arrival.propagate_arena ~model graph))
           frozen
           (Array.length frozen.Timing_graph.levels)))

let test_arena_race_four_domains () =
  (* four domains store into disjoint slots of one shared arena; any
     torn or misplaced store changes a level's digest, which the
     comparison against the sequential arena catches *)
  let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
  let model = Lazy.force table in
  let seq, seq_arena = Arrival.propagate_arena ~model graph in
  let par, par_arena = Parallel.propagate_arena ~model ~domains:4 graph in
  check_identical "4 domains" seq par;
  check_level_digests "4 domains" graph seq_arena par_arena

let test_arena_reuse_and_idempotent_digests () =
  let graph = Workloads.diamond tech in
  let model = Lazy.force table in
  let frozen = Timing_graph.freeze graph in
  (* repeated propagations over one graph build fresh arenas with
     bit-identical outputs *)
  let _, a = Arrival.propagate_arena ~model graph in
  let _, b = Arrival.propagate_arena ~model graph in
  check_level_digests "repeated propagation" graph a b;
  (* hashing reads the store without changing it *)
  let d0 = Timing_arena.level_digest a frozen 0 in
  Alcotest.(check string) "digest again" d0 (Timing_arena.level_digest a frozen 0);
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
    ~name:"arena slab digests identical across domains"
    ~count:8
    QCheck2.Gen.(int_range 1 6)
    (fun domains ->
      let graph = Workloads.decoder_tree ~fanout:2 ~depth:2 tech in
      let model = Lazy.force table in
      let frozen = Timing_graph.freeze graph in
      let _, ref_arena = Arrival.propagate_arena ~model graph in
      let _, arena = Parallel.propagate_arena ~model ~domains graph in
      Array.for_all
        (fun k ->
          String.equal
            (Timing_arena.level_digest ref_arena frozen k)
            (Timing_arena.level_digest arena frozen k))
        (Array.init (Array.length frozen.Timing_graph.levels) Fun.id))

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
          slow "bit-identical at 2/4/8 domains" test_identical_many_domains;
          slow "worker spans cover the stages" test_worker_spans_cover_stages;
        ] );
      ( "level runner",
        [
          QCheck_alcotest.to_alcotest prop_run_levels_in_order;
          quick "first exception re-raised after the join" test_run_reraises_after_join;
          quick "other domains take a slow id's level" test_run_shares_a_slow_level;
        ] );
      ( "stage cache",
        [
          quick "bucketing and fingerprints" test_cache_bucketing;
          slow "precomputed and from-scratch keys agree" test_fast_key_agrees;
          slow "structure digests follow edits" test_structure_follows_edits;
          slow "equal scenario values digest alike" test_structure_of_equal_values;
          quick "schedule kept on scenario edits, rebuilt on rewiring"
            test_schedule_follows_rewiring;
          quick "re-freeze forces no minor collection" test_no_forced_minor_collection;
        ] );
      ( "timing arena",
        [
          slow "4-domain slab digests match sequential" test_arena_race_four_domains;
          quick "reuse, overwrite and idempotent digests"
            test_arena_reuse_and_idempotent_digests;
          slow "diamond level digests pinned" test_diamond_digests_pinned;
          QCheck_alcotest.to_alcotest prop_arena_digests_stable;
        ] );
      ("slack", [ slow "chain identity" test_chain_slack_identity ]);
    ]
