module Scenario = Tqwm_circuit.Scenario

type path = {
  stages : Timing_graph.stage_id list;
  arrival : float;
  slack : float;
}

let endpoints (frozen : Timing_graph.frozen) =
  let n = Array.length frozen.Timing_graph.scenarios in
  Array.of_seq
    (Seq.filter
       (fun id -> Array.length frozen.Timing_graph.fanout.(id) = 0)
       (Seq.init n Fun.id))

(* A partial path, grown backward from an endpoint. [est] is an exact
   bound on the arrival of any completion: the forward pass already
   maximized arrivals over every prefix, so [arrival_out front] is the
   true best way to reach [front] and [est = arrival_out front + rest]
   (rest = delays already peeled downstream of [front]) is the arrival
   the partial path's best completion achieves. Best-first expansion on
   an exact bound emits completed paths in worst-first order. *)
module Cand = struct
  type t = {
    est : float;
    rest : float;  (** sum of delays of [stages] except the front's own *)
    front : Timing_graph.stage_id;
    stages : Timing_graph.stage_id list;  (** front .. endpoint *)
    key : int list;
        (** endpoint id, then the fanin index chosen at each backward
            step: the lexicographic tie-break. Lowest endpoint id and
            first-in-insertion-order fanin win, matching the argmax
            folds of [Arrival.analysis_of_arena], so the first path
            out is the critical walk itself. *)
  }

  (* total: distinct candidates always differ in [key] *)
  let compare a b =
    match Float.compare b.est a.est with
    | 0 -> List.compare Int.compare a.key b.key
    | c -> c
end

module Frontier = Set.Make (Cand)

let k_worst ?clock_period ~k graph (analysis : Arrival.analysis) =
  if k < 1 then invalid_arg "Path_enum.k_worst: k must be >= 1";
  (match clock_period with
  | Some cp when (not (Float.is_finite cp)) || cp <= 0.0 ->
    invalid_arg "Path_enum.k_worst: clock_period must be finite and > 0"
  | Some _ | None -> ());
  let frozen = Timing_graph.freeze graph in
  let timings = analysis.Arrival.timings in
  let n = Array.length timings in
  if n <> Array.length frozen.Timing_graph.scenarios then
    invalid_arg "Path_enum.k_worst: analysis does not match this graph";
  let cp =
    match clock_period with Some cp -> cp | None -> analysis.Arrival.worst_arrival
  in
  (* the path's own arrival, re-accumulated forward exactly as the
     propagation did (arrival_in + delay per stage), so the critical
     path reproduces [worst_arrival] bit for bit *)
  let arrival_of stages =
    match stages with
    | [] -> 0.0
    | src :: _ ->
      List.fold_left
        (fun t id -> t +. timings.(id).Arrival.delay)
        timings.(src).Arrival.arrival_in stages
  in
  let frontier =
    ref
      (Array.fold_left
         (fun acc id ->
           Frontier.add
             {
               Cand.est = timings.(id).Arrival.arrival_out;
               rest = 0.0;
               front = id;
               stages = [ id ];
               key = [ id ];
             }
             acc)
         Frontier.empty (endpoints frozen))
  in
  let found = ref [] in
  let nfound = ref 0 in
  while !nfound < k && not (Frontier.is_empty !frontier) do
    let c = Frontier.min_elt !frontier in
    frontier := Frontier.remove c !frontier;
    let fanin = frozen.Timing_graph.fanin.(c.Cand.front) in
    if Array.length fanin = 0 then begin
      (* complete source-to-endpoint path. Parallel edges (same stage
         pair, different inputs) peel to identical stage sequences;
         keep only the first *)
      if not (List.exists (fun p -> p.stages = c.Cand.stages) !found) then begin
        let arrival = arrival_of c.Cand.stages in
        found := { stages = c.Cand.stages; arrival; slack = cp -. arrival } :: !found;
        incr nfound
      end
    end
    else begin
      let rest = c.Cand.rest +. timings.(c.Cand.front).Arrival.delay in
      Array.iteri
        (fun i (conn : Timing_graph.connection) ->
          let u = conn.Timing_graph.from_stage in
          frontier :=
            Frontier.add
              {
                Cand.est = timings.(u).Arrival.arrival_out +. rest;
                rest;
                front = u;
                stages = u :: c.Cand.stages;
                key = c.Cand.key @ [ i ];
              }
              !frontier)
        fanin
    end
  done;
  (* emission order is already worst-first on the exact bound; the
     stable sort on the re-accumulated arrivals only reasserts the
     contract (ties keep emission order) *)
  List.stable_sort
    (fun a b -> Float.compare b.arrival a.arrival)
    (List.rev !found)

type stage_attribution = {
  timing : Arrival.stage_timing;
  name : string;
  regions : int;
  newton_iterations : int;
  cache_uses : int;
}

type explained = { path : path; through : stage_attribution list }

let explain ~model ?(config = Tqwm_core.Config.default) ?(default_slew = 20e-12)
    ?cache ?pi graph (analysis : Arrival.analysis) path =
  let frozen = Timing_graph.freeze graph in
  let n = Array.length analysis.Arrival.timings in
  if n <> Array.length frozen.Timing_graph.scenarios then
    invalid_arg "Path_enum.explain: analysis does not match this graph";
  List.iter
    (fun id ->
      if id < 0 || id >= n then
        invalid_arg (Printf.sprintf "Path_enum.explain: stage %d not in graph" id))
    path.stages;
  (* replay against the completed analysis: every fanin is timed *)
  let timings = Array.map Option.some analysis.Arrival.timings in
  let through =
    List.map
      (fun id ->
        let _, report, shaped =
          Arrival.replay_stage ~model ~config ~default_slew ?cache ?pi frozen
            timings id
        in
        let stats = report.Tqwm_core.Qwm.stats in
        {
          timing = analysis.Arrival.timings.(id);
          name = frozen.Timing_graph.scenarios.(id).Scenario.name;
          regions = stats.Tqwm_core.Qwm_solver.regions;
          newton_iterations = stats.Tqwm_core.Qwm_solver.newton_iterations;
          cache_uses =
            (match cache with
            | None -> 0
            | Some c -> Stage_cache.uses c ~model ~config shaped);
        })
      path.stages
  in
  { path; through }
