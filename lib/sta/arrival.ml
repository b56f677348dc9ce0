open Tqwm_circuit
module Source = Tqwm_wave.Source
module Metrics = Tqwm_obs.Metrics
module Trace = Tqwm_obs.Trace
module Json = Tqwm_obs.Json

let c_stages_timed = Metrics.counter "sta.stages_timed"

(* Last-computed design health, in picoseconds: gauges because WNS/TNS
   are levels of the current analysis, not accumulating totals. *)
let g_wns = Metrics.gauge "sta.wns"
let g_tns = Metrics.gauge "sta.tns"

let h_endpoint_slack =
  Metrics.histogram "sta.endpoint_slack_ps"
    ~bounds:[| -1000.0; -100.0; -10.0; 0.0; 10.0; 100.0; 1000.0; 10000.0 |]

exception Analysis_failure of string

type stage_timing = Timing_arena.timing = {
  id : Timing_graph.stage_id;
  arrival_in : float;
  delay : float;
  slew : float;
  arrival_out : float;
  critical_fanin : Timing_graph.stage_id option;
}

type analysis = {
  timings : stage_timing array;
  critical_path : Timing_graph.stage_id list;
  worst_arrival : float;
}

type pi_timing = { pi_arrival : float; pi_slew : float }

let default_slew = 20e-12

(* reshape a switching source as a ramp with the driver's slew, keeping
   its logical direction; constant sources are left alone *)
let ramp_of ~slew source =
  match Source.transition_time source with
  | None -> source
  | Some _ ->
    let low = Source.value source (-1.0) in
    let high = Source.value source 1e3 in
    if low = high then source else Source.ramp ~t0:0.0 ~low ~high ~rise_time:slew ()

let settled source = Source.constant (Source.value source 1e3)

type required_report = {
  clock_period : float;
  req : float array;
  req_slack : float array;
  endpoints : Timing_graph.stage_id array;
  req_worst_slack : float;
  wns : float;
  tns : float;
}

let zero_slack_clock analysis =
  if analysis.worst_arrival > 0.0 then analysis.worst_arrival else 1e-9

let required graph analysis ~clock_period =
  if not (Float.is_finite clock_period) || clock_period <= 0.0 then
    invalid_arg "Arrival.required: clock_period must be finite and > 0";
  let frozen = Timing_graph.freeze graph in
  let timings = analysis.timings in
  let n = Array.length timings in
  if n <> Array.length frozen.Timing_graph.scenarios then
    invalid_arg "Arrival.required: analysis does not match this graph";
  (* the sink set is explicit: a stage with no fanout is a timing
     endpoint and must settle by [clock_period]; every other stage
     inherits the tightest budget of its fanouts (each of which is
     processed first — reverse topological order) *)
  let endpoints = frozen.Timing_graph.endpoints in
  let order = frozen.Timing_graph.order and fanout = frozen.Timing_graph.fanout in
  let req = Array.make n clock_period in
  for i = n - 1 downto 0 do
    let id = order.(i) in
    let out = fanout.(id) in
    for j = 0 to Array.length out - 1 do
      let downstream = out.(j).Timing_graph.to_stage in
      let budget = req.(downstream) -. timings.(downstream).delay in
      if budget < req.(id) then req.(id) <- budget
    done
  done;
  let req_slack = Array.make n 0.0 in
  let worst = ref infinity in
  for i = 0 to n - 1 do
    let slack = req.(i) -. timings.(i).arrival_out in
    req_slack.(i) <- slack;
    worst := Float.min !worst slack
  done;
  (* finite even on empty graphs: a design with nothing to time meets the
     clock with full margin rather than an infinite fold identity *)
  let req_worst_slack = if n = 0 then clock_period else !worst in
  let wns = ref infinity and tns = ref 0.0 in
  for k = 0 to Array.length endpoints - 1 do
    let slack = req_slack.(endpoints.(k)) in
    wns := Float.min !wns slack;
    if slack < 0.0 then tns := !tns +. slack
  done;
  let wns = if Array.length endpoints = 0 then clock_period else !wns and tns = !tns in
  let ps = 1e12 in
  Metrics.set g_wns (wns *. ps);
  Metrics.set g_tns (tns *. ps);
  Metrics.observe_indexed h_endpoint_slack ~scale:ps req_slack endpoints;
  { clock_period; req; req_slack; endpoints; req_worst_slack; wns; tns }

(* Shape one stage's input sources from its fanin timings: the critical
   (latest-arriving) driver's input becomes a ramp of that driver's
   bucketed slew, other driven inputs settle, everything else is left
   alone. Pure with respect to [find] and deterministic, so the very
   same shaped scenario (and hence cache fingerprint) is reproducible
   after the fact — the contract [replay_stage] builds on. *)
let shaped_inputs ~find ~default_slew ?cache ?pi (frozen : Timing_graph.frozen) id =
  let scenario = frozen.Timing_graph.scenarios.(id) in
  let fanin = frozen.Timing_graph.fanin.(id) in
  (* the latest-arriving driver defines the switching input *)
  let critical =
    Array.fold_left
      (fun acc (c : Timing_graph.connection) ->
        let driver =
          match find c.Timing_graph.from_stage with
          | Some t -> t
          | None -> raise (Analysis_failure "fanin stage not yet timed")
        in
        match acc with
        | Some (_, best) when best.arrival_out >= driver.arrival_out -> acc
        | Some _ | None -> Some (c, driver))
      None fanin
  in
  let arrival_in, input_slew, critical_fanin, sources =
    match critical with
    | None ->
      (* primary input: a retiming override moves its arrival and shapes
         every switching source as a ramp of the given slew *)
      let override =
        match pi with
        | Some arr when id < Array.length arr -> arr.(id)
        | Some _ | None -> None
      in
      (match override with
      | None -> (0.0, None, None, scenario.Scenario.sources)
      | Some p when p.pi_slew <= 0.0 ->
        (p.pi_arrival, None, None, scenario.Scenario.sources)
      | Some p ->
        let slew =
          match cache with
          | None -> p.pi_slew
          | Some _ -> Stage_cache.bucket_slew p.pi_slew
        in
        ( p.pi_arrival,
          Some slew,
          None,
          List.map (fun (name, s) -> (name, ramp_of ~slew s)) scenario.Scenario.sources ))
    | Some (c, driver) ->
      let slew = if driver.slew > 0.0 then driver.slew else default_slew in
      (* bucket before shaping the ramp so the cached solve and the
         waveform actually used agree exactly *)
      let slew =
        match cache with None -> slew | Some _ -> Stage_cache.bucket_slew slew
      in
      let reshape (name, source) =
        if String.equal name c.Timing_graph.input then (name, ramp_of ~slew source)
        else if
          Array.exists
            (fun (c' : Timing_graph.connection) ->
              String.equal c'.Timing_graph.input name)
            fanin
        then (name, settled source)
        else (name, source)
      in
      ( driver.arrival_out,
        Some slew,
        Some c.Timing_graph.from_stage,
        List.map reshape scenario.Scenario.sources )
  in
  (arrival_in, input_slew, critical_fanin, { scenario with Scenario.sources })

(* Solve a shaped stage. A stage whose path never conducts within its
   window cannot be timed, like one whose output never crosses 50 %. *)
let solve_stage solve =
  try solve () with Path.No_path message -> raise (Analysis_failure message)

(* Turn a stage's QWM solve into its timing record. *)
let timing_of_solve ~arrival_in ~input_slew ~critical_fanin scenario id
    (report : Tqwm_core.Qwm.report) =
  let out_crossing =
    match report.Tqwm_core.Qwm.delay with
    | Some d -> d
    | None ->
      raise
        (Analysis_failure
           (Printf.sprintf "stage %s: output never crosses 50%%"
              scenario.Scenario.name))
  in
  (* the stage delay is measured from the input's own 50 % crossing *)
  let input_mid = match input_slew with None -> 0.0 | Some s -> s /. 2.0 in
  let delay = Float.max (out_crossing -. input_mid) 0.0 in
  let slew = Option.value report.Tqwm_core.Qwm.slew ~default:0.0 in
  {
    id;
    arrival_in;
    delay;
    slew;
    arrival_out = arrival_in +. delay;
    critical_fanin;
  }

(* Time one stage from its fanins' stored records and store the result
   in its own slot. Every engine calls this: the sequential run below,
   the parallel level runner and incremental re-propagation. With
   tracing on, each evaluation is one trace slice labelled with the
   stage's scenario name and carrying the timing it produced; the
   counter feeds the sequential-vs-parallel equality check in the
   telemetry tests. *)
let evaluate_stage ~model ~config ~default_slew ?cache ?pi
    (frozen : Timing_graph.frozen) arena id =
  Metrics.incr c_stages_timed;
  let traced = Trace.enabled () in
  let t0 = if traced then Trace.now () else 0.0 in
  let arrival_in, input_slew, critical_fanin, scenario =
    shaped_inputs ~find:(Timing_arena.timing arena) ~default_slew ?cache ?pi frozen id
  in
  let report =
    solve_stage (fun () ->
        match cache with
        | None -> Tqwm_core.Qwm.run ~model ~config scenario
        | Some c ->
          Stage_cache.run c ~structure:frozen.Timing_graph.structure.(id) ~model ~config
            scenario)
  in
  let t = timing_of_solve ~arrival_in ~input_slew ~critical_fanin scenario id report in
  Timing_arena.store arena id t report.Tqwm_core.Qwm.output;
  if traced then
    Trace.complete
      ~name:frozen.Timing_graph.scenarios.(id).Scenario.name ~cat:"sta.stage" ~ts:t0
      ~dur:(Trace.now () -. t0)
      ~args:
        [
          ("stage", Json.Int id);
          ("arrival_in_ps", Json.Float (t.arrival_in *. 1e12));
          ("delay_ps", Json.Float (t.delay *. 1e12));
          ("slew_ps", Json.Float (t.slew *. 1e12));
          ("arrival_out_ps", Json.Float (t.arrival_out *. 1e12));
        ]
      ()

(* Re-derive a completed stage's solve without disturbing the cache:
   shaping is deterministic, so the shaped scenario and the frozen
   structure digest key to the entry the original evaluation used, and
   [Stage_cache.peek] returns the very report that produced the timing
   (a fresh solve only when the stage was never evaluated through
   [cache], e.g. cache-less runs). *)
let replay_stage ~model ~config ~default_slew ?cache ?pi
    (frozen : Timing_graph.frozen) timings id =
  let arrival_in, input_slew, critical_fanin, scenario =
    shaped_inputs ~find:(fun i -> timings.(i)) ~default_slew ?cache ?pi frozen id
  in
  let structure = frozen.Timing_graph.structure.(id) in
  let peek c = Stage_cache.peek c ~structure ~model ~config scenario in
  let report =
    match Option.bind cache peek with
    | Some report -> report
    | None -> solve_stage (fun () -> Tqwm_core.Qwm.run ~model ~config scenario)
  in
  (timing_of_solve ~arrival_in ~input_slew ~critical_fanin scenario id report, report, scenario)

(* fills the timing array before the stored records go in (see {!Fill}) *)
let untimed =
  { id = -1; arrival_in = 0.0; delay = 0.0; slew = 0.0; arrival_out = 0.0; critical_fanin = None }

let analysis_of_arena arena =
  let timings =
    Fill.init untimed (Timing_arena.length arena) (fun id ->
        match Timing_arena.timing arena id with
        | Some t -> t
        | None -> raise (Analysis_failure "stage never timed"))
  in
  let worst =
    Array.fold_left
      (fun acc t ->
        match acc with
        | Some best when best.arrival_out >= t.arrival_out -> acc
        | Some _ | None -> Some t)
      None timings
  in
  match worst with
  | None -> { timings; critical_path = []; worst_arrival = 0.0 }
  | Some sink ->
    let rec walk t acc =
      match t.critical_fanin with
      | None -> t.id :: acc
      | Some prev -> walk timings.(prev) (t.id :: acc)
    in
    { timings; critical_path = walk sink []; worst_arrival = sink.arrival_out }

let propagate_arena ~model ?(default_slew = default_slew) ?cache ?pi graph =
  if default_slew <= 0.0 then invalid_arg "Arrival.propagate: default_slew <= 0";
  let config = Tqwm_core.Config.default in
  let frozen = Timing_graph.freeze graph in
  let arena = Timing_arena.create (Array.length frozen.Timing_graph.scenarios) in
  Array.iter
    (fun id -> evaluate_stage ~model ~config ~default_slew ?cache ?pi frozen arena id)
    frozen.Timing_graph.order;
  (analysis_of_arena arena, arena)

let propagate ~model ?default_slew ?cache ?pi graph =
  fst (propagate_arena ~model ?default_slew ?cache ?pi graph)
