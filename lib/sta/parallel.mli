(** Multi-domain arrival propagation.

    Stages with no path between them need no ordering, so their QWM
    solves are independent — the same coarse-grain parallelism
    transistor-level simulators exploit when partitioning a design into
    channel-connected sub-structures. One scheduler, {!run}, serves full
    propagation, incremental re-propagation and the accuracy audit: a
    team of OCaml 5 domains walks a level schedule in order, every
    domain claiming the next id of the current level from that level's
    shared atomic cursor, with a bounded-spin barrier (falling back to a
    condition variable, so oversubscribed machines yield instead of
    burning the core) between levels. {!propagate} runs it over the
    frozen level schedule, timing each stage with
    {!Arrival.evaluate_stage} into one shared {!Timing_arena}.

    Determinism: a stage's timing depends only on its fanin timings, all
    of which belong to strictly earlier levels and are stored before the
    level barrier opens, so results are bit-identical to sequential
    {!Arrival.propagate} for every domain count, with or without a
    shared {!Stage_cache} — asserted in [test/test_parallel.ml] and
    system-wide by the accuracy-audit drift gate.

    Telemetry: the [sta.parallel_propagations] counter, per-domain
    [sta.stages_per_worker] and [sta.worker_occupancy_pct] histograms,
    and one [sta.worker] trace span per domain (args [stages],
    [occupancy_pct]). *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run : domains:int -> f:(int -> unit) -> int array array -> unit
(** [run ~domains ~f levels] calls [f] once on every id of [levels],
    level by level: no id of [levels.(k)] starts before every id of the
    earlier levels has returned. Ids within a level run concurrently on
    a team of [min domains (widest level)] domains, the calling one
    included, so [f] must be safe to call from any domain; with one
    domain this is [Array.iter (Array.iter f) levels]. Spawned workers
    inherit the caller's trace context and flush their allocation into
    the [qwm.alloc.domains_*] counters before they exit. After the first
    exception raised by [f] the remaining ids may be skipped; it is
    re-raised once the team is joined. *)

val propagate :
  model:Tqwm_device.Device_model.t ->
  ?default_slew:float ->
  ?cache:Stage_cache.t ->
  ?pi:Arrival.pi_timing option array ->
  ?domains:int ->
  Timing_graph.t ->
  Arrival.analysis
(** Like {!Arrival.propagate}, evaluated concurrently by [domains]
    domains in total, the calling one included (default
    {!default_domains}; values [<= 1] fall back to the sequential path).
    A given [cache] is shared by the whole team. The first exception
    raised by any worker is re-raised after the team is joined.
    @raise Invalid_argument when [default_slew <= 0]. *)

val propagate_arena :
  model:Tqwm_device.Device_model.t ->
  ?default_slew:float ->
  ?cache:Stage_cache.t ->
  ?pi:Arrival.pi_timing option array ->
  ?domains:int ->
  Timing_graph.t ->
  Arrival.analysis * Timing_arena.t
(** {!propagate}, additionally returning the filled {!Timing_arena},
    whose {!Timing_arena.level_digest}s are equal across domain
    counts. *)
