type stage_id = int

type connection = { from_stage : stage_id; to_stage : stage_id; input : string }

type frozen = {
  scenarios : Tqwm_circuit.Scenario.t array;
  fanin : connection array array;
  fanout : connection array array;
  order : stage_id array;
  levels : stage_id array array;
  endpoints : stage_id array;
  structure : string array;
}

type t = {
  mutable stages : Tqwm_circuit.Scenario.t array;
      (** backing store, length >= count; the slots past [count] hold
          copies of older entries *)
  mutable count : int;
  (* per-stage adjacency, newest edge first; kept incrementally so fan
     queries and cycle checks never scan the whole edge set *)
  mutable fanin_rev : connection list array;
  mutable fanout_rev : connection list array;
  mutable num_connections : int;
  mutable snapshot : frozen option;  (** the last frozen view built *)
  mutable stale : bool;  (** [snapshot] predates a mutation *)
  mutable rewired : bool;  (** [snapshot] predates a stage or edge change *)
}

let create () =
  {
    stages = [||];
    count = 0;
    fanin_rev = [||];
    fanout_rev = [||];
    num_connections = 0;
    snapshot = None;
    stale = false;
    rewired = false;
  }

(* The stale snapshot is kept: the next [freeze] carries its structure
   digests over for every stage whose scenario is unchanged, and its
   adjacency and level schedule too unless the graph was [rewire]d. *)
let invalidate t = t.stale <- true

let rewire t =
  t.stale <- true;
  t.rewired <- true

(* Copy-on-write fork: fresh mutable containers over shared immutable
   content. Scenario values and adjacency lists are never mutated in
   place (edits replace whole cells), so sharing them is safe; sharing
   the frozen snapshot means a fork's first [freeze] is free, each side
   re-freezes privately only after its own first mutation, and both
   carry the shared snapshot's structure digests (and, until rewired,
   its schedule) over. *)
let copy t =
  {
    stages = Array.copy t.stages;
    count = t.count;
    fanin_rev = Array.copy t.fanin_rev;
    fanout_rev = Array.copy t.fanout_rev;
    num_connections = t.num_connections;
    snapshot = t.snapshot;
    stale = t.stale;
    rewired = t.rewired;
  }

let ensure_capacity t scenario =
  let cap = Array.length t.stages in
  if t.count >= cap then begin
    let cap' = max 8 (2 * cap) in
    let grow a empty =
      let a' = Array.make cap' empty in
      Array.blit a 0 a' 0 cap;
      a'
    in
    (* doubled by appending to itself: [Array.make] from a young
       [scenario] would force a minor collection (see {!Fill}) *)
    t.stages <- (if cap = 0 then Array.make cap' scenario else Array.append t.stages t.stages);
    t.fanin_rev <- grow t.fanin_rev [];
    t.fanout_rev <- grow t.fanout_rev []
  end

let add_stage t scenario =
  ensure_capacity t scenario;
  let id = t.count in
  t.stages.(id) <- scenario;
  t.count <- id + 1;
  rewire t;
  id

let num_stages t = t.count

let num_connections t = t.num_connections

let scenario t id =
  if id < 0 || id >= t.count then invalid_arg "Timing_graph.scenario: unknown stage";
  t.stages.(id)

let fanin t id = if id < 0 || id >= t.count then [] else List.rev t.fanin_rev.(id)

let fanout t id = if id < 0 || id >= t.count then [] else List.rev t.fanout_rev.(id)

(* would [dst] be reachable from [src] through existing fanout edges? *)
let reaches t ~src ~dst =
  let seen = Array.make t.count false in
  let rec go id =
    if id = dst then true
    else if seen.(id) then false
    else begin
      seen.(id) <- true;
      List.exists (fun c -> go c.to_stage) t.fanout_rev.(id)
    end
  in
  go src

let connect t ~from_stage ~to_stage ~input =
  if from_stage < 0 || from_stage >= t.count || to_stage < 0 || to_stage >= t.count then
    invalid_arg "Timing_graph.connect: unknown stage";
  let target = scenario t to_stage in
  if not (List.mem_assoc input target.Tqwm_circuit.Scenario.sources) then
    invalid_arg "Timing_graph.connect: unknown input";
  let edge = { from_stage; to_stage; input } in
  (* an exact duplicate would double-count the target's fanin (the same
     driver racing itself for the critical slot) and is always a caller
     bug, so it is rejected rather than silently kept *)
  if List.mem edge t.fanin_rev.(to_stage) then
    invalid_arg "Timing_graph.connect: duplicate edge";
  (* the new edge closes a cycle iff [from_stage] is already reachable from
     [to_stage]; checking before insertion means no rollback is needed *)
  if reaches t ~src:to_stage ~dst:from_stage then
    invalid_arg "Timing_graph.connect: cycle detected";
  t.fanout_rev.(from_stage) <- edge :: t.fanout_rev.(from_stage);
  t.fanin_rev.(to_stage) <- edge :: t.fanin_rev.(to_stage);
  t.num_connections <- t.num_connections + 1;
  rewire t

let disconnect t ~from_stage ~to_stage ~input =
  if from_stage < 0 || from_stage >= t.count || to_stage < 0 || to_stage >= t.count then
    invalid_arg "Timing_graph.disconnect: unknown stage";
  let edge = { from_stage; to_stage; input } in
  if not (List.mem edge t.fanin_rev.(to_stage)) then
    invalid_arg "Timing_graph.disconnect: no such edge";
  let drop = List.filter (fun e -> e <> edge) in
  t.fanin_rev.(to_stage) <- drop t.fanin_rev.(to_stage);
  t.fanout_rev.(from_stage) <- drop t.fanout_rev.(from_stage);
  t.num_connections <- t.num_connections - 1;
  rewire t

let set_scenario t id scenario' =
  if id < 0 || id >= t.count then invalid_arg "Timing_graph.set_scenario: unknown stage";
  List.iter
    (fun e ->
      if not (List.mem_assoc e.input scenario'.Tqwm_circuit.Scenario.sources) then
        invalid_arg
          (Printf.sprintf
             "Timing_graph.set_scenario: replacement lacks connected input %S" e.input))
    t.fanin_rev.(id);
  t.stages.(id) <- scenario';
  invalidate t

(* One structure digest per stage. A stage whose scenario value is the
   one [prev] held at the same id keeps its digest: scenarios are never
   mutated in place, so an edit re-digests only the stages it replaced.
   The rest are digested once per distinct value — stages sharing a
   value (a fan-out tree built from one cell) share the digest — found
   by physical equality within structural-hash buckets. *)
let structure_digests ~(prev : frozen option) scenarios =
  let seen = Hashtbl.create 16 in
  let digest sc =
    let h = Hashtbl.hash sc in
    let bucket = Option.value (Hashtbl.find_opt seen h) ~default:[] in
    match List.assq_opt sc bucket with
    | Some d -> d
    | None ->
      let d = Stage_cache.structure sc in
      Hashtbl.replace seen h ((sc, d) :: bucket);
      d
  in
  Fill.init "" (Array.length scenarios) (fun i ->
      let sc = scenarios.(i) in
      match prev with
      | Some p when i < Array.length p.scenarios && p.scenarios.(i) == sc ->
        p.structure.(i)
      | Some _ | None -> digest sc)

(* The sink set: stages with no fanout, ids ascending. *)
let sinks fanout =
  let n = Array.length fanout in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if Array.length fanout.(i) = 0 then incr count
  done;
  let ids = Array.make !count 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if Array.length fanout.(i) = 0 then begin
      ids.(!k) <- i;
      incr k
    end
  done;
  ids

(* Indexed adjacency, the level schedule and the sink set: Kahn's algorithm by waves,
   each wave one topological level whose stages depend only on earlier
   waves and are mutually independent. Ids within a wave ascend, making
   the schedule deterministic. *)
let schedule t =
  let n = t.count in
  let fanin = Fill.init [||] n (fun i -> Array.of_list (List.rev t.fanin_rev.(i))) in
  let fanout = Fill.init [||] n (fun i -> Array.of_list (List.rev t.fanout_rev.(i))) in
  let indegree = Array.init n (fun i -> Array.length fanin.(i)) in
  let wave = ref [] in
  for i = n - 1 downto 0 do
    if indegree.(i) = 0 then wave := i :: !wave
  done;
  let levels_rev = ref [] in
  let scheduled = ref 0 in
  while !wave <> [] do
    let level = Array.of_list !wave in
    levels_rev := level :: !levels_rev;
    scheduled := !scheduled + Array.length level;
    let next = ref [] in
    Array.iter
      (fun id ->
        Array.iter
          (fun c ->
            let d = indegree.(c.to_stage) - 1 in
            indegree.(c.to_stage) <- d;
            if d = 0 then next := c.to_stage :: !next)
          fanout.(id))
      level;
    wave := List.sort compare !next
  done;
  if !scheduled <> n then
    (* unreachable as long as [connect] rejects cycles *)
    invalid_arg "Timing_graph.freeze: cycle detected";
  let levels = Array.of_list (List.rev !levels_rev) in
  (fanin, fanout, Array.concat (Array.to_list levels), levels, sinks fanout)

let freeze t =
  match t.snapshot with
  | Some f when not t.stale -> f
  | prev ->
    let scenarios = Array.sub t.stages 0 t.count in
    let f =
      match prev with
      | Some p when not t.rewired ->
        (* only scenarios were replaced since [p]: its adjacency,
           schedule and sinks still hold, and snapshots are never
           mutated *)
        { p with scenarios; structure = structure_digests ~prev scenarios }
      | Some _ | None ->
        let fanin, fanout, order, levels, endpoints = schedule t in
        {
          scenarios;
          fanin;
          fanout;
          order;
          levels;
          endpoints;
          structure = structure_digests ~prev scenarios;
        }
    in
    t.snapshot <- Some f;
    t.stale <- false;
    t.rewired <- false;
    f

let topological_order t = Array.to_list (freeze t).order

let levels t = (freeze t).levels
