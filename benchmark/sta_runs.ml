(* sta-cold and sta-repeat: full static timing runs at one domain, each
   with a fresh stage cache — propagation, required times (the clock is
   the worst arrival), the 10 worst paths, their stage-by-stage
   explanation and the tqwm-report/1 JSON document. One operation is one
   run, and every run's document must equal the warm-up run's.

   sta-cold times a deep graph of distinct random stacks: no solve is
   shared, so the stage solver dominates. sta-repeat times the decoder of
   Fig. 10 replicated as a fan-out tree: its repeated gates hit the cache
   on about 99 % of stages, so input shaping, fingerprinting, lookup, the
   arena and the report dominate. *)

open Tqwm_sta
module Json = Tqwm_obs.Json

let default_slew = 20e-12

let k_paths = 10

type input = { graph : Timing_graph.t; pi : Arrival.pi_timing option array option }

let cold_input (s : Run.settings) =
  let rng = Random.State.make [| s.seed; 0xc01d |] in
  {
    graph =
      Workloads.random_stacks
        ~width:(Run.scaled ~floor:2 s 24)
        ~depth:(Run.scaled ~floor:2 s 8)
        ~seed:(Random.State.bits rng) Run.tech;
    pi = None;
  }

(* The root's primary input is retimed with a slew of 10-40 ps. *)
let repeat_input (s : Run.settings) =
  let rng = Random.State.make [| s.seed; 0x4e9e |] in
  let graph = Workloads.decoder_tree ~fanout:4 ~depth:(Run.scaled ~floor:2 s 4) Run.tech in
  let pi = Array.make (Timing_graph.num_stages graph) None in
  let pi_slew = (10.0 +. Random.State.float rng 30.0) *. 1e-12 in
  pi.(0) <- Some { Arrival.pi_arrival = 0.0; pi_slew };
  { graph; pi = Some pi }

type result = { doc : string; analysis : Arrival.analysis; cache : Stage_cache.t }

let full_run ?spans ~model ~domains { graph; pi } =
  let wrap name f = Span.wrap spans name f in
  let cache = Stage_cache.create () in
  let analysis, _arena =
    wrap "sta.propagate" (fun () ->
        Parallel.propagate_arena ~model ~default_slew ~cache ?pi ~domains graph)
  in
  let worst = analysis.Arrival.worst_arrival in
  let clock_period = if worst > 0.0 then worst else 1e-9 in
  let required = wrap "sta.required" (fun () -> Arrival.required graph analysis ~clock_period) in
  let paths =
    wrap "sta.kworst" (fun () -> Path_enum.k_worst ~clock_period ~k:k_paths graph analysis)
  in
  let explained =
    wrap "sta.explain" (fun () ->
        List.map (Path_enum.explain ~model ~default_slew ~cache ?pi graph analysis) paths)
  in
  let doc =
    wrap "sta.report_json" (fun () ->
        Json.to_string (Report.timing_to_json graph analysis required explained))
  in
  { doc; analysis; cache }

type state = {
  model : Tqwm_device.Device_model.t;
  input : input;
  doc : string;  (** the warm-up run's report *)
}

let setup make s () =
  let model = Tqwm_device.Models.table Run.tech in
  let input = make s in
  ignore (Timing_graph.freeze input.graph);
  let warm = full_run ~model ~domains:1 input in
  { model; input; doc = warm.doc }

(* Full runs for [seconds]; runs whose document differs from the
   warm-up's, or that raise, count in [mismatched]. *)
let measure st ~spans ~seconds ~mismatched =
  let last = ref None in
  let ops, elapsed =
    Timer.run_for ~seconds (fun _ ->
        match
          Span.wrap_op spans "sta.run" (fun () ->
              full_run ?spans ~model:st.model ~domains:1 st.input)
        with
        | r ->
          (* a byte comparison: hashing every document would cost more *)
          if not (String.equal r.doc st.doc) then incr mismatched;
          last := Some r
        | exception _ -> incr mismatched)
  in
  (ops, elapsed, !last)

(* One scenario per cache key, in first-seen order. *)
let distinct keyed =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (key, scenario) ->
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some scenario
      end)
    keyed

(* The distinct shaped scenarios behind an analysis, replayed through
   the cache it ran with. *)
let distinct_shaped ~model ~cache ?pi graph (analysis : Arrival.analysis) =
  let frozen = Timing_graph.freeze graph in
  let timings = Array.map Option.some analysis.Arrival.timings in
  let config = Layers.config in
  Array.to_list frozen.Timing_graph.order
  |> List.map (fun id ->
         let _, _, scenario =
           Arrival.replay_stage ~model ~config ~default_slew ~cache ?pi frozen timings id
         in
         (Stage_cache.fingerprint ~model ~config scenario, scenario))
  |> distinct

(* Propagation replayed after a run through the run's own cache, one
   sweep over every stage per public call: [Arrival.replay_stage]
   (shaping plus a cache peek), [Stage_cache.fingerprint] and a warm
   [Stage_cache.run] (a fingerprint plus the lookup). The seconds per
   run of shaping, fingerprinting and lookup, each the median of a few
   sweeps, and the distinct shaped scenarios in topological order. *)
let propagation_split ~spans st (r : result) =
  let { graph; pi } = st.input in
  let frozen = Timing_graph.freeze graph in
  let timings = Array.map Option.some r.analysis.Arrival.timings in
  let model = st.model and config = Layers.config in
  let order = frozen.Timing_graph.order in
  let shaped =
    Array.map
      (fun id ->
        let _, _, scenario =
          Arrival.replay_stage ~model ~config ~default_slew ~cache:r.cache ?pi frozen timings id
        in
        scenario)
      order
  in
  let sweep name xs f =
    Timer.median
      (Array.init 5 (fun _ ->
           snd (Timer.time (fun () -> Span.with_span spans name (fun () -> Array.iter f xs)))))
  in
  let replay =
    sweep "sta.replay_stage" order (fun id ->
        ignore
          (Arrival.replay_stage ~model ~config ~default_slew ~cache:r.cache ?pi frozen timings id))
  in
  let fingerprint =
    sweep "sta.fingerprint" shaped (fun sc -> ignore (Stage_cache.fingerprint ~model ~config sc))
  in
  let cache_run =
    sweep "sta.cache_run" shaped (fun sc -> ignore (Stage_cache.run r.cache ~model ~config sc))
  in
  let keyed =
    Array.to_list (Array.map (fun sc -> (Stage_cache.fingerprint ~model ~config sc, sc)) shaped)
  in
  (replay -. cache_run, fingerprint, cache_run -. fingerprint, distinct keyed)

(* Alternating 1- and 2-domain runs: the median speed-up, and whether
   every 2-domain document matched the 1-domain one. *)
let two_domains ~spans st =
  let timed domains =
    Timer.time (fun () ->
        Span.with_span spans (Printf.sprintf "sta.run_%ddom" domains) (fun () ->
            full_run ~model:st.model ~domains st.input))
  in
  let pairs = List.init 3 (fun _ -> (timed 1, timed 2)) in
  let seconds f = Array.of_list (List.map (fun p -> snd (f p)) pairs) in
  ( Timer.median (seconds fst) /. Timer.median (seconds snd),
    List.for_all (fun (_, ((r : result), _)) -> String.equal r.doc st.doc) pairs )

let layer_metrics ~spans s st (r : result) =
  let ts = [ spans ] in
  let runs = float_of_int (max 1 (Span.count ts "sta.run")) in
  let mean name = Span.total ts name /. runs in
  let pct x = 100.0 *. x /. mean "sta.run" in
  let stats = Stage_cache.stats r.cache in
  let shape, fingerprint, lookup, distinct = propagation_split ~spans st r in
  let solved, solver = Layers.solver ~spans ~model:st.model distinct in
  let solve = List.fold_left (fun acc s -> acc +. s.Layers.lower_s +. s.solve_s) 0.0 solved in
  let propagate = mean "sta.propagate" in
  let speedup, same_doc = two_domains ~spans st in
  let _, spice = Layers.spice ~spans (Layers.reference_sample s solved) in
  let lookups = stats.Stage_cache.hits + stats.Stage_cache.misses in
  ( same_doc,
    [
      ("sta.propagate_pct", pct propagate);
      ("sta.shape_pct", pct shape);
      ("sta.fingerprint_pct", pct fingerprint);
      ("sta.lookup_pct", pct lookup);
      ("sta.solve_pct", pct solve);
      ("sta.unattributed_pct", pct (propagate -. shape -. fingerprint -. lookup -. solve));
      ("sta.required_pct", pct (mean "sta.required"));
      ("sta.kworst_pct", pct (mean "sta.kworst"));
      ("sta.explain_pct", pct (mean "sta.explain"));
      ("sta.report_json_pct", pct (mean "sta.report_json"));
      ("sta.solves_per_run", float_of_int stats.Stage_cache.misses);
      ( "sta.cache_hit_pct",
        100.0 *. float_of_int stats.Stage_cache.hits /. float_of_int (max 1 lookups) );
      ("sta.speedup_2dom", speedup);
    ]
    @ solver @ spice )

let run make (s : Run.settings) =
  let st, setup_s =
    Timer.repeat_setup ~repeats:Run.setup_repeats ~setup:(setup make s) ~teardown:ignore
  in
  let mismatched = ref 0 in
  let measure = measure st ~mismatched in
  let doc_check = "every run's tqwm-report/1 document matches the warm-up run's" in
  match s.spans with
  | None ->
    let ops, _, _ = measure ~spans:None ~seconds:s.seconds in
    {
      Run.attempted = Timer.Windows.count ops;
      failed = !mismatched;
      checks = [ (doc_check, !mismatched = 0) ];
      metrics = Run.end_to_end ~setup_s ops;
    }
  | Some spans ->
    let last = ref None in
    let ops, overhead =
      Run.traced_quarters ~seconds:s.seconds (fun ~traced ~seconds ->
          let ops, elapsed, r = measure ~spans:(if traced then Some spans else None) ~seconds in
          if traced && r <> None then last := r;
          (Timer.Windows.count ops, elapsed))
    in
    let same_doc, metrics =
      match !last with
      | Some r -> layer_metrics ~spans s st r
      | None -> (false, [])
    in
    {
      Run.attempted = ops;
      failed = !mismatched;
      checks =
        [
          (doc_check, !mismatched = 0);
          ("the 2-domain document matches the 1-domain one", same_doc);
        ];
      metrics = overhead :: metrics;
    }

let cold = run cold_input

let repeat = run repeat_input
