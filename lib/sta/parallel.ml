module Metrics = Tqwm_obs.Metrics
module Trace = Tqwm_obs.Trace
module Json = Tqwm_obs.Json
module Alloc = Tqwm_obs.Alloc

let c_propagations = Metrics.counter "sta.parallel_propagations"

(* stages-per-domain balance: each worker contributes one observation *)
let h_worker_stages =
  Metrics.histogram "sta.stages_per_worker"
    ~bounds:[| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0 |]

(* per-domain occupancy: percentage of a worker's wall-clock spent inside
   [f] (the rest is claiming ids and waiting at level barriers) *)
let h_occupancy =
  Metrics.histogram "sta.worker_occupancy_pct"
    ~bounds:[| 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0 |]

let default_domains () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Level runner.

   A team walks the levels in order. Within a level every domain claims
   the next index from that level's shared atomic cursor, so a slow id
   holds only the domain running it while the others take the rest of
   the level. Levels are separated by a monotone arrival barrier: level
   k is complete once (k+1) * size arrivals have been counted. Waiting
   spins briefly, then sleeps on a condition variable, so oversubscribed
   runs yield the core instead of burning it.

   Determinism: an id of level k may read only results of levels < k,
   all of which were stored before the barrier opened (happens-before
   through the [arrived] atomic; OCaml 5 atomics are sequentially
   consistent). So results do not depend on which domain ran which id. *)

type team = {
  levels : int array array;
  cursors : int Atomic.t array;  (** next unclaimed index of each level *)
  size : int;  (** domains in the team, the calling one included *)
  arrived : int Atomic.t;
  abort : bool Atomic.t;
  mutable failed : exn option;  (** protected by [gate] *)
  gate : Mutex.t;
  gate_cond : Condition.t;
}

let spin_limit = 200

let wait_until s pred =
  let spins = ref 0 in
  while not (pred ()) do
    if !spins < spin_limit then begin
      incr spins;
      Domain.cpu_relax ()
    end
    else begin
      Mutex.lock s.gate;
      if not (pred ()) then Condition.wait s.gate_cond s.gate;
      Mutex.unlock s.gate
    end
  done

let wake s =
  Mutex.lock s.gate;
  Condition.broadcast s.gate_cond;
  Mutex.unlock s.gate

let fail s e =
  Mutex.lock s.gate;
  if s.failed = None then s.failed <- Some e;
  Mutex.unlock s.gate;
  Atomic.set s.abort true;
  wake s

let worker ~f s =
  let t_start = Trace.now () in
  let stages = ref 0 and busy = ref 0.0 in
  let k = ref 0 in
  while !k < Array.length s.levels && not (Atomic.get s.abort) do
    let level = s.levels.(!k) and cursor = s.cursors.(!k) in
    let rec claim () =
      if not (Atomic.get s.abort) then begin
        let i = Atomic.fetch_and_add cursor 1 in
        if i < Array.length level then begin
          let t0 = Trace.now () in
          (try f level.(i) with e -> fail s e);
          busy := !busy +. (Trace.now () -. t0);
          incr stages;
          claim ()
        end
      end
    in
    claim ();
    let target = (!k + 1) * s.size in
    if Atomic.fetch_and_add s.arrived 1 + 1 = target then wake s
    else wait_until s (fun () -> Atomic.get s.arrived >= target || Atomic.get s.abort);
    incr k
  done;
  let wall = Trace.now () -. t_start in
  let occupancy = if wall > 0.0 then 100.0 *. !busy /. wall else 0.0 in
  (* worker domains die at the join; fold their domain-local GC growth
     into the process-wide alloc counters before that *)
  Alloc.flush_domain ();
  Metrics.observe h_worker_stages (float_of_int !stages);
  Metrics.observe h_occupancy occupancy;
  Trace.complete ~name:"sta.worker" ~cat:"sta" ~ts:t_start ~dur:wall
    ~args:[ ("stages", Json.Int !stages); ("occupancy_pct", Json.Float occupancy) ]
    ()

let run ~domains ~f levels =
  let widest = Array.fold_left (fun w l -> max w (Array.length l)) 0 levels in
  let size = max 1 (min domains widest) in
  if size = 1 then Array.iter (Array.iter f) levels
  else begin
    let s =
      {
        levels;
        cursors = Array.map (fun _ -> Atomic.make 0) levels;
        size;
        arrived = Atomic.make 0;
        abort = Atomic.make false;
        failed = None;
        gate = Mutex.create ();
        gate_cond = Condition.create ();
      }
    in
    let ctx = Trace.current_context () in
    let team =
      Array.init (size - 1) (fun _ ->
          Domain.spawn (fun () -> Trace.with_context ctx (fun () -> worker ~f s)))
    in
    worker ~f s;
    Array.iter Domain.join team;
    match s.failed with Some e -> raise e | None -> ()
  end

let propagate_arena ~model ?(default_slew = Arrival.default_slew) ?cache ?pi ?domains
    graph =
  if default_slew <= 0.0 then invalid_arg "Parallel.propagate: default_slew <= 0";
  let domains =
    match domains with Some d -> max d 1 | None -> default_domains ()
  in
  if domains = 1 then Arrival.propagate_arena ~model ~default_slew ?cache ?pi graph
  else begin
    let config = Tqwm_core.Config.default in
    let frozen = Timing_graph.freeze graph in
    let n = Array.length frozen.Timing_graph.scenarios in
    Metrics.incr c_propagations;
    Trace.with_span ~name:"sta.propagate" ~cat:"sta"
      ~args:[ ("domains", Json.Int domains); ("stages", Json.Int n) ]
      (fun () ->
        let arena = Timing_arena.create n in
        run ~domains
          ~f:(Arrival.evaluate_stage ~model ~config ~default_slew ?cache ?pi frozen arena)
          frozen.Timing_graph.levels;
        (Arrival.analysis_of_arena arena, arena))
  end

let propagate ~model ?default_slew ?cache ?pi ?domains graph =
  fst (propagate_arena ~model ?default_slew ?cache ?pi ?domains graph)
