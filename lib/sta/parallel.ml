module Metrics = Tqwm_obs.Metrics
module Trace = Tqwm_obs.Trace
module Json = Tqwm_obs.Json
module Alloc = Tqwm_obs.Alloc

let c_propagations = Metrics.counter "sta.parallel_propagations"
let c_steals = Metrics.counter "sta.steals"
let c_chunks = Metrics.counter "sta.chunks"

(* stages-per-domain balance: each worker contributes one observation *)
let h_worker_stages =
  Metrics.histogram "sta.stages_per_worker"
    ~bounds:[| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0 |]

let h_chunks_per_worker =
  Metrics.histogram "sta.chunks_per_worker"
    ~bounds:[| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0 |]

let h_steals_per_worker =
  Metrics.histogram "sta.steals_per_worker"
    ~bounds:[| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0 |]

(* per-domain occupancy: percentage of a worker's wall-clock spent inside
   stage evaluations (the rest is distribution, stealing and barriers) *)
let h_occupancy =
  Metrics.histogram "sta.worker_occupancy_pct"
    ~bounds:[| 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0 |]

let default_domains () = Domain.recommended_domain_count ()

(* Default chunk size: aim for a handful of chunks per domain on the
   widest level, so load imbalance can be stolen away while the per-chunk
   scheduling cost is amortized over several solves. *)
let auto_chunk ~domains ~width = max 1 (min 32 (width / (4 * domains)))

(* ------------------------------------------------------------------ *)
(* Level-batched work-stealing scheduler.

   The frozen level schedule is partitioned into contiguous chunks of
   independent stages ({!Timing_graph.level_chunks}); per level, the
   chunks are dealt round-robin into one fixed-capacity Chase-Lev-style
   deque per domain. The owning domain pops at the bottom (LIFO, hot in
   cache); idle domains steal from the top of a victim's deque with a
   single compare-and-set (FIFO, taking the largest remaining run of an
   imbalanced owner). No push ever happens while a level is running, so
   deques only shrink and the classic resize hazards of Chase-Lev do not
   arise; OCaml 5 atomics are sequentially consistent, which makes the
   claim protocol below sound without fences.

   Synchronization is paid per *chunk* — amortized over [chunk_size]
   region solves — instead of per stage, and blocking is reserved for
   the inter-level barrier (bounded spin, then a condition variable, so
   oversubscribed runs yield the core instead of burning it).

   Determinism: chunk boundaries depend only on the frozen schedule and
   the chunk size; a stage's timing depends only on fanin timings, all
   of which live in strictly earlier levels and are published before the
   level barrier opens (happens-before via the [epoch] atomic). So the
   results are bit-identical to sequential propagation regardless of
   which domain ran which chunk or how steals interleaved. *)

type deque = {
  buf : int array;  (** chunk indices; written only during distribution *)
  mutable len : int;  (** valid prefix of [buf] while distributing *)
  top : int Atomic.t;  (** steal end *)
  bottom : int Atomic.t;  (** owner end *)
}

(* owner end: LIFO pop, racing thieves only for the last element *)
let deque_take d =
  let b = Atomic.get d.bottom - 1 in
  Atomic.set d.bottom b;
  let t = Atomic.get d.top in
  if b > t then Some d.buf.(b)
  else if b = t then begin
    (* last element: decide the race with any thief via [top] *)
    let won = Atomic.compare_and_set d.top t (t + 1) in
    Atomic.set d.bottom (t + 1);
    if won then Some d.buf.(b) else None
  end
  else begin
    Atomic.set d.bottom t;
    None
  end

(* thief end: FIFO steal, one CAS claims the element *)
let deque_steal d =
  let t = Atomic.get d.top in
  let b = Atomic.get d.bottom in
  if t >= b then None
  else
    let x = d.buf.(t) in
    if Atomic.compare_and_set d.top t (t + 1) then Some x else None

let deque_is_empty d = Atomic.get d.top >= Atomic.get d.bottom

type steal_shared = {
  chunks : Timing_graph.chunk array array;  (** chunking of the level schedule *)
  deques : deque array;  (** one per worker, refilled per level *)
  epoch : int Atomic.t;  (** highest distributed level; -1 before the first *)
  arrived : int Atomic.t;  (** monotone barrier: level k complete when
                               [arrived = (k+1) * teams] *)
  abort : bool Atomic.t;
  mutable steal_failed : exn option;  (** protected by [gate] *)
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
  if s.steal_failed = None then s.steal_failed <- Some e;
  Mutex.unlock s.gate;
  Atomic.set s.abort true;
  wake s

(* deal level [k]'s chunks round-robin into the deques, then open the
   level; the [epoch] store publishes every buffer write that precedes it *)
let distribute s k =
  let teams = Array.length s.deques in
  Array.iter (fun d -> d.len <- 0) s.deques;
  Array.iteri
    (fun ci (_ : Timing_graph.chunk) ->
      let d = s.deques.(ci mod teams) in
      d.buf.(d.len) <- ci;
      d.len <- d.len + 1)
    s.chunks.(k);
  Array.iter
    (fun d ->
      Atomic.set d.top 0;
      Atomic.set d.bottom d.len)
    s.deques;
  Atomic.set s.epoch k;
  wake s

let steal_worker ~exec_chunk s w =
  let teams = Array.length s.deques in
  let t_start = Trace.now () in
  let stages = ref 0 and chunks = ref 0 and steals = ref 0 in
  let busy = ref 0.0 in
  let num_levels = Array.length s.chunks in
  let should_abort () = Atomic.get s.abort in
  let run_chunk k ci ~stolen =
    let c = s.chunks.(k).(ci) in
    let t0 = Trace.now () in
    (try exec_chunk ~level:k ~chunk:c ~should_abort with e -> fail s e);
    busy := !busy +. (Trace.now () -. t0);
    stages := !stages + c.Timing_graph.length;
    incr chunks;
    if stolen then incr steals
  in
  let rec pull k =
    if not (Atomic.get s.abort) then
      match deque_take s.deques.(w) with
      | Some ci ->
        run_chunk k ci ~stolen:false;
        pull k
      | None -> scan k 1
  and scan k v =
    if v >= teams then begin
      (* a failed CAS race can hide a non-empty victim: deques only
         shrink, so re-scan until every deque is provably empty *)
      if not (Array.for_all deque_is_empty s.deques) then begin
        Domain.cpu_relax ();
        pull k
      end
    end
    else
      match deque_steal s.deques.((w + v) mod teams) with
      | Some ci ->
        run_chunk k ci ~stolen:true;
        pull k
      | None -> scan k (v + 1)
  in
  let k = ref 0 in
  while !k < num_levels && not (Atomic.get s.abort) do
    if w = 0 then distribute s !k
    else wait_until s (fun () -> Atomic.get s.epoch >= !k || Atomic.get s.abort);
    if not (Atomic.get s.abort) then pull !k;
    (* monotone arrival barrier: nobody may touch the deques (and worker 0
       may not refill them) until every worker has left this level's pull
       loop — the target for level k is (k+1)*teams arrivals in total *)
    let target = (!k + 1) * teams in
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
  Metrics.observe h_chunks_per_worker (float_of_int !chunks);
  Metrics.observe h_steals_per_worker (float_of_int !steals);
  Metrics.observe h_occupancy occupancy;
  Metrics.add c_chunks !chunks;
  Metrics.add c_steals !steals;
  Trace.complete ~name:"sta.worker" ~cat:"sta" ~ts:t_start ~dur:wall
    ~args:
      [
        ("stages", Json.Int !stages);
        ("chunks", Json.Int !chunks);
        ("steals", Json.Int !steals);
        ("occupancy_pct", Json.Float occupancy);
      ]
    ()

(* Run [exec_chunk] over every chunk of the level schedule, level-batched,
   on [domains] domains (the calling one included); re-raises the first
   worker exception after the team is joined. The chunk callback IS the
   batched kernel: it receives a whole run of adjacent stages and loops
   them itself (checking [should_abort] between stages), so the per-stage
   work fuses in the caller with no per-item scheduler round-trip. *)
let run_stealing ~domains ~exec_chunk ~chunks =
  let max_chunks =
    Array.fold_left (fun m c -> max m (Array.length c)) 0 chunks
  in
  let teams = max 1 (min domains max_chunks) in
  let s =
    {
      chunks;
      deques =
        Array.init teams (fun _ ->
            {
              buf = Array.make (max 1 max_chunks) 0;
              len = 0;
              top = Atomic.make 0;
              bottom = Atomic.make 0;
            });
      epoch = Atomic.make (-1);
      arrived = Atomic.make 0;
      abort = Atomic.make false;
      steal_failed = None;
      gate = Mutex.create ();
      gate_cond = Condition.create ();
    }
  in
  let ctx = Trace.current_context () in
  let team =
    Array.init (teams - 1) (fun i ->
        Domain.spawn (fun () ->
            Trace.with_context ctx (fun () -> steal_worker ~exec_chunk s (i + 1))))
  in
  steal_worker ~exec_chunk s 0;
  Array.iter Domain.join team;
  match s.steal_failed with Some e -> raise e | None -> ()

(* Evaluate mutually independent stages concurrently: one synthetic level
   run through the work-stealing scheduler, so unequal stage costs are
   balanced by steals instead of hoping a static stripe lands evenly.
   Used by the incremental engine on wide dirty levels, whose stages
   arrive pre-scheduled (every fanin already timed); each [f id] writes
   its own stage's slot. *)
let evaluate_stages ~domains ~f ids =
  let n = Array.length ids in
  let domains = max domains 1 in
  if domains = 1 || n <= 1 then Array.iter f ids
  else begin
    let chunk_size = auto_chunk ~domains ~width:n in
    let exec_chunk ~level:_ ~chunk:(c : Timing_graph.chunk) ~should_abort =
      for i = c.Timing_graph.start to c.Timing_graph.start + c.Timing_graph.length - 1 do
        if not (should_abort ()) then f ids.(i)
      done
    in
    let nchunks = (n + chunk_size - 1) / chunk_size in
    let chunks =
      [|
        Array.init nchunks (fun i ->
            let start = i * chunk_size in
            {
              Timing_graph.level = 0;
              start;
              length = min chunk_size (n - start);
            });
      |]
    in
    run_stealing ~domains ~exec_chunk ~chunks
  end

let propagate_arena ~model ?(config = Tqwm_core.Config.default)
    ?(default_slew = 20e-12) ?cache ?pi ?domains ?chunk graph =
  if default_slew <= 0.0 then invalid_arg "Parallel.propagate: default_slew <= 0";
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Parallel.propagate: chunk < 1"
  | Some _ | None -> ());
  let domains =
    match domains with Some d -> max d 1 | None -> default_domains ()
  in
  if domains = 1 then
    Arrival.propagate_arena ~model ~config ~default_slew ?cache ?pi graph
  else begin
    let frozen = Timing_graph.freeze graph in
    let n = Array.length frozen.Timing_graph.scenarios in
    Metrics.incr c_propagations;
    let chunk_size =
      match chunk with
      | Some c -> c
      | None ->
        auto_chunk ~domains ~width:(Timing_graph.max_level_width frozen)
    in
    Trace.with_span ~name:"sta.propagate" ~cat:"sta"
      ~args:
        [
          ("domains", Json.Int domains);
          ("stages", Json.Int n);
          ("chunk", Json.Int chunk_size);
        ]
      (fun () ->
        let arena = Timing_arena.create n in
        (* the batched chunk kernel: one callback per chunk runs the
           fused loop over its adjacent stages, each reading its fanins'
           records from and storing its own into the shared store *)
        let chunks = Timing_graph.level_chunks frozen ~chunk_size in
        let exec_chunk ~level ~chunk:(c : Timing_graph.chunk) ~should_abort =
          let items = frozen.Timing_graph.levels.(level) in
          for i = c.Timing_graph.start to c.Timing_graph.start + c.Timing_graph.length - 1 do
            if not (should_abort ()) then
              Arrival.evaluate_stage ~model ~config ~default_slew ?cache ?pi frozen arena
                items.(i)
          done
        in
        run_stealing ~domains ~exec_chunk ~chunks;
        Timing_arena.seal arena frozen;
        (Arrival.analysis_of_arena arena, arena))
  end

let propagate ~model ?config ?default_slew ?cache ?pi ?domains ?chunk graph =
  fst (propagate_arena ~model ?config ?default_slew ?cache ?pi ?domains ?chunk graph)
