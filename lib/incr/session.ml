module Timing_graph = Tqwm_sta.Timing_graph
module Arrival = Tqwm_sta.Arrival
module Parallel = Tqwm_sta.Parallel
module Path_enum = Tqwm_sta.Path_enum
module Stage_cache = Tqwm_sta.Stage_cache
module Timing_arena = Tqwm_sta.Timing_arena
module Fill = Tqwm_sta.Fill
module Metrics = Tqwm_obs.Metrics
module Trace = Tqwm_obs.Trace
module Json = Tqwm_obs.Json

let c_edits = Metrics.counter "incr.edits"
let c_reeval = Metrics.counter "incr.stages_reeval"
let c_cutoff = Metrics.counter "incr.cutoff_hits"
let c_recomputes = Metrics.counter "incr.recomputes"

type stats = {
  edits : int;
  recomputes : int;
  stages_reeval : int;
  cutoff_hits : int;
  last_reeval : int;
}

type t = {
  graph : Timing_graph.t;
  model : Tqwm_device.Device_model.t;
  cache : Stage_cache.t option;
  domains : int;
  epsilon : float;
  mutable pi : Arrival.pi_timing option array;
  arena : Timing_arena.t;
  mutable dirty : bool array;
  mutable num_dirty : int;
  mutable clean : Arrival.analysis option;  (** memoized while [num_dirty = 0] *)
  mutable s_edits : int;
  mutable s_recomputes : int;
  mutable s_reeval : int;
  mutable s_cutoff : int;
  mutable s_last : int;
}

(* keep the id-indexed session arrays and the store exactly as long as
   the graph, marking stages that appeared since the last sync as dirty *)
let sync t =
  let n = Timing_graph.num_stages t.graph in
  let old = Array.length t.dirty in
  if n > old then begin
    let grow a fill = Fill.init fill n (fun i -> if i < old then a.(i) else fill) in
    t.pi <- grow t.pi None;
    Timing_arena.resize t.arena n;
    t.dirty <- grow t.dirty true;
    t.num_dirty <- t.num_dirty + (n - old);
    t.clean <- None
  end

let create ~model ?cache ?(domains = 1) ?(epsilon = 0.0) graph =
  if not (Float.is_finite epsilon) || epsilon < 0.0 then
    invalid_arg "Session.create: epsilon must be finite and >= 0";
  let t =
    {
      graph;
      model;
      cache;
      domains = max domains 1;
      epsilon;
      pi = [||];
      arena = Timing_arena.create 0;
      dirty = [||];
      num_dirty = 0;
      clean = None;
      s_edits = 0;
      s_recomputes = 0;
      s_reeval = 0;
      s_cutoff = 0;
      s_last = 0;
    }
  in
  sync t;
  t

(* Snapshot fork: an isolated what-if overlay over the same baseline.
   The graph forks copy-on-write (shared scenarios, adjacency and frozen
   schedule until either side mutates), the timing store and the
   dirty/override arrays are copied so the fork starts exactly where the
   parent stands — no re-propagation — and lifetime stats restart at
   zero. The fork's cache defaults to a [copy_uses] fork of the
   parent's, so a clean parent's provenance (cache_uses in path
   attributions) reads in the fork as if the fork had run the baseline
   analysis itself. *)
let fork ?cache t =
  let cache =
    match cache with
    | Some _ as c -> c
    | None -> Option.map (Stage_cache.fork ~copy_uses:true) t.cache
  in
  {
    t with
    graph = Timing_graph.copy t.graph;
    cache;
    pi = Array.copy t.pi;
    arena = Timing_arena.copy t.arena;
    dirty = Array.copy t.dirty;
    s_edits = 0;
    s_recomputes = 0;
    s_reeval = 0;
    s_cutoff = 0;
    s_last = 0;
  }

let graph t = t.graph

let mark_dirty t id =
  if not t.dirty.(id) then begin
    t.dirty.(id) <- true;
    t.num_dirty <- t.num_dirty + 1
  end;
  t.clean <- None

let check_stage t id ctx =
  if id < 0 || id >= Timing_graph.num_stages t.graph then
    invalid_arg (Printf.sprintf "Session.%s: unknown stage %d" ctx id)

let apply t edit =
  sync t;
  let added = ref None in
  (match (edit : Edit.t) with
  | Edit.Resize_device { stage; edge; scale } ->
    let scenario = Timing_graph.scenario t.graph stage in
    Timing_graph.set_scenario t.graph stage (Edit.resize_device ~edge ~scale scenario);
    mark_dirty t stage
  | Edit.Set_load { stage; load } ->
    let scenario = Timing_graph.scenario t.graph stage in
    Timing_graph.set_scenario t.graph stage (Edit.set_output_load ~load scenario);
    mark_dirty t stage
  | Edit.Swap_scenario { stage; scenario } ->
    Timing_graph.set_scenario t.graph stage scenario;
    mark_dirty t stage
  | Edit.Add_stage scenario ->
    let id = Timing_graph.add_stage t.graph scenario in
    sync t;
    added := Some id
  | Edit.Remove_stage stage ->
    check_stage t stage "apply (Remove_stage)";
    List.iter
      (fun (c : Timing_graph.connection) ->
        Timing_graph.disconnect t.graph ~from_stage:c.Timing_graph.from_stage
          ~to_stage:c.Timing_graph.to_stage ~input:c.Timing_graph.input)
      (Timing_graph.fanin t.graph stage);
    List.iter
      (fun (c : Timing_graph.connection) ->
        Timing_graph.disconnect t.graph ~from_stage:c.Timing_graph.from_stage
          ~to_stage:c.Timing_graph.to_stage ~input:c.Timing_graph.input;
        mark_dirty t c.Timing_graph.to_stage)
      (Timing_graph.fanout t.graph stage);
    t.pi.(stage) <- None;
    mark_dirty t stage
  | Edit.Connect { from_stage; to_stage; input } ->
    Timing_graph.connect t.graph ~from_stage ~to_stage ~input;
    mark_dirty t to_stage
  | Edit.Disconnect { from_stage; to_stage; input } ->
    Timing_graph.disconnect t.graph ~from_stage ~to_stage ~input;
    mark_dirty t to_stage
  | Edit.Retime_input { stage; arrival; slew } ->
    check_stage t stage "apply (Retime_input)";
    if not (Float.is_finite arrival && Float.is_finite slew) then
      invalid_arg "Session.apply: non-finite retiming";
    t.pi.(stage) <- Some { Arrival.pi_arrival = arrival; pi_slew = slew };
    mark_dirty t stage);
  t.s_edits <- t.s_edits + 1;
  Metrics.incr c_edits;
  !added

let add_stage t scenario =
  match apply t (Edit.Add_stage scenario) with
  | Some id -> id
  | None -> assert false

(* The dirty stages of [level], in its order: counted, then filled. *)
let dirty_in t level =
  let count = ref 0 in
  for k = 0 to Array.length level - 1 do
    if t.dirty.(level.(k)) then incr count
  done;
  let ids = Array.make !count 0 in
  let next = ref 0 in
  for k = 0 to Array.length level - 1 do
    let id = level.(k) in
    if t.dirty.(id) then begin
      ids.(!next) <- id;
      incr next
    end
  done;
  ids

(* Re-propagate only dirty stages, level by level over the frozen
   schedule. Fanins of a dirty stage are always either clean (their last
   timing still holds) or scheduled in an earlier level, so by the time a
   level runs, every value [evaluate_stage] reads is final — the same
   invariant full propagation maintains, which is why the recomputed
   records are bit-identical to a from-scratch run (at [epsilon = 0]).
   A stage whose recomputed [arrival_out] and [slew] land within
   [epsilon] of the previous analysis does not dirty its fanout: the
   edit's influence is cut off there.

   Evaluation overwrites the level's slots in place, so the previous
   records are kept aside for the cutoff test. If a stage of the level
   raises, the stages timed before it are overwritten but still dirty;
   a retry would compare them with themselves and cut off, leaving
   their fanout stale. So on failure the fanout of every dirty stage of
   the level is dirtied before the exception is re-raised. *)
let recompute t =
  sync t;
  if t.num_dirty = 0 then 0
  else begin
    let frozen = Timing_graph.freeze t.graph in
    let seed = t.num_dirty in
    let t0 = Trace.now () in
    let reeval = ref 0 and cutoff = ref 0 in
    let eval id =
      Arrival.evaluate_stage ~model:t.model ~config:Tqwm_core.Config.default
        ~default_slew:Arrival.default_slew ?cache:t.cache ~pi:t.pi frozen t.arena id
    in
    let dirty_fanout id =
      Array.iter
        (fun (c : Timing_graph.connection) -> mark_dirty t c.Timing_graph.to_stage)
        frozen.Timing_graph.fanout.(id)
    in
    Array.iter
      (fun level ->
        let dirty_ids = dirty_in t level in
        if Array.length dirty_ids > 0 then begin
          let previous =
            Fill.init None (Array.length dirty_ids) (fun k ->
                Timing_arena.timing t.arena dirty_ids.(k))
          in
          (try Parallel.run ~domains:t.domains ~f:eval [| dirty_ids |]
           with e ->
             Array.iter dirty_fanout dirty_ids;
             raise e);
          Array.iteri
            (fun k id ->
              let fresh = Option.get (Timing_arena.timing t.arena id) in
              incr reeval;
              let unchanged =
                match previous.(k) with
                | None -> false
                | Some old ->
                  Float.abs (old.Arrival.arrival_out -. fresh.Arrival.arrival_out)
                  <= t.epsilon
                  && Float.abs (old.Arrival.slew -. fresh.Arrival.slew) <= t.epsilon
              in
              t.dirty.(id) <- false;
              t.num_dirty <- t.num_dirty - 1;
              if unchanged then incr cutoff else dirty_fanout id)
            dirty_ids
        end)
      frozen.Timing_graph.levels;
    t.clean <- None;
    t.s_recomputes <- t.s_recomputes + 1;
    t.s_reeval <- t.s_reeval + !reeval;
    t.s_cutoff <- t.s_cutoff + !cutoff;
    t.s_last <- !reeval;
    Metrics.incr c_recomputes;
    Metrics.add c_reeval !reeval;
    Metrics.add c_cutoff !cutoff;
    Trace.complete ~name:"incr.recompute" ~cat:"incr" ~ts:t0 ~dur:(Trace.now () -. t0)
      ~args:
        [
          ("dirty_seed", Json.Int seed);
          ("stages_reeval", Json.Int !reeval);
          ("cutoff_hits", Json.Int !cutoff);
          ("stages", Json.Int (Array.length frozen.Timing_graph.scenarios));
        ]
      ();
    !reeval
  end

let analysis t =
  let (_ : int) = recompute t in
  match t.clean with
  | Some a -> a
  | None ->
    let a = Arrival.analysis_of_arena t.arena in
    t.clean <- Some a;
    a

let scratch_analysis t =
  sync t;
  let cache = Option.map (fun _ -> Stage_cache.create ()) t.cache in
  Arrival.propagate ~model:t.model ?cache ~pi:t.pi t.graph

let stats t =
  {
    edits = t.s_edits;
    recomputes = t.s_recomputes;
    stages_reeval = t.s_reeval;
    cutoff_hits = t.s_cutoff;
    last_reeval = t.s_last;
  }

(* Timing-observability views over the incrementally maintained
   analysis: the cheap part (recompute) is shared through [analysis],
   the backward pass and path peel run on whatever that returns. *)
let required t ~clock_period =
  Arrival.required t.graph (analysis t) ~clock_period

let k_worst ?clock_period t ~k = Path_enum.k_worst ?clock_period ~k t.graph (analysis t)

let explain t path =
  Path_enum.explain ~model:t.model ?cache:t.cache ~pi:t.pi t.graph (analysis t) path

type path_query = { stages : Timing_graph.stage_id list; arrival : float }

let query t ~from_stage ~to_stage =
  let (_ : int) = recompute t in
  check_stage t from_stage "query";
  check_stage t to_stage "query";
  let frozen = Timing_graph.freeze t.graph in
  let timing id = Option.get (Timing_arena.timing t.arena id) in
  let n = Array.length frozen.Timing_graph.scenarios in
  let via = Array.make n neg_infinity in
  let pred = Array.make n (-1) in
  via.(from_stage) <- (timing from_stage).Arrival.arrival_out;
  Array.iter
    (fun id ->
      if id <> from_stage then
        Array.iter
          (fun (c : Timing_graph.connection) ->
            let u = c.Timing_graph.from_stage in
            if via.(u) > neg_infinity then begin
              let candidate = via.(u) +. (timing id).Arrival.delay in
              if candidate > via.(id) then begin
                via.(id) <- candidate;
                pred.(id) <- u
              end
            end)
          frozen.Timing_graph.fanin.(id))
    frozen.Timing_graph.order;
  if via.(to_stage) = neg_infinity then None
  else begin
    let rec walk id acc = if id = from_stage then id :: acc else walk pred.(id) (id :: acc) in
    Some { stages = walk to_stage []; arrival = via.(to_stage) }
  end
