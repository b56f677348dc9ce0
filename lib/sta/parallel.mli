(** Multi-domain arrival propagation.

    Stages with no path between them need no ordering, so their QWM
    solves are independent — the same coarse-grain parallelism
    transistor-level simulators exploit when partitioning a design into
    channel-connected sub-structures. One team of OCaml 5 domains is
    spawned per propagation. The frozen level schedule is cut into
    contiguous chunks of independent stages
    ({!Timing_graph.level_chunks}); per level the chunks are dealt
    round-robin into one Chase-Lev-style deque per domain — the owner
    pops LIFO at the bottom, idle domains steal FIFO at the top with a
    single compare-and-set. Synchronization cost is paid per chunk
    (amortized over [chunk] solves) instead of per stage, and levels are
    separated by a bounded-spin barrier that falls back to a condition
    variable, so oversubscribed machines yield instead of burning the
    core. Each stage of a chunk is timed by {!Arrival.evaluate_stage}
    into one shared {!Timing_arena}.

    Determinism: a stage's timing depends only on its fanin timings, all
    of which belong to strictly earlier levels and are published before
    the level barrier opens, so results are bit-identical to sequential
    {!Arrival.propagate} for every domain count and chunk size, with or
    without a shared {!Stage_cache} — asserted in
    [test/test_parallel.ml] (including a QCheck property randomizing
    stage costs to force steals) and system-wide by the accuracy-audit
    drift gate.

    Telemetry: [sta.steals] / [sta.chunks] counters plus per-domain
    [sta.chunks_per_worker], [sta.steals_per_worker] and
    [sta.worker_occupancy_pct] histograms, and one [sta.worker] trace
    span per domain. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val propagate :
  model:Tqwm_device.Device_model.t ->
  ?config:Tqwm_core.Config.t ->
  ?default_slew:float ->
  ?cache:Stage_cache.t ->
  ?pi:Arrival.pi_timing option array ->
  ?domains:int ->
  ?chunk:int ->
  Timing_graph.t ->
  Arrival.analysis
(** Like {!Arrival.propagate}, evaluated concurrently by [domains]
    domains in total, the calling one included (default
    {!default_domains}; values [<= 1] fall back to the sequential path).
    [chunk] is the stages-per-chunk batch size (default: sized so the
    widest level yields a few chunks per domain; values larger than a
    level's width leave that level as one chunk). A given [cache] is
    shared by the whole team. The first exception raised by any worker
    is re-raised after the team is joined.
    @raise Invalid_argument when [default_slew <= 0] or [chunk < 1]. *)

val propagate_arena :
  model:Tqwm_device.Device_model.t ->
  ?config:Tqwm_core.Config.t ->
  ?default_slew:float ->
  ?cache:Stage_cache.t ->
  ?pi:Arrival.pi_timing option array ->
  ?domains:int ->
  ?chunk:int ->
  Timing_graph.t ->
  Arrival.analysis * Timing_arena.t
(** {!propagate}, additionally returning the sealed {!Timing_arena}:
    [seal] packs every level's output waveforms into one slab whose
    {!Timing_arena.level_digest} is equal across domain counts and chunk
    sizes. *)

val evaluate_stages :
  domains:int -> f:(Timing_graph.stage_id -> unit) -> Timing_graph.stage_id array -> unit
(** Run [f] on every id, on up to [domains] domains, for stages already
    known mutually independent (one topological level, every fanin
    timed); [f] stores its stage's result itself (as
    {!Arrival.evaluate_stage} does) and must be safe to call from any
    domain. The input is treated as a single synthetic level of the
    work-stealing scheduler, cut into chunks of
    [max 1 (min 32 (n / (4 * domains)))] of the [n] ids and dealt
    round-robin to the domains' deques, so unequal stage costs are
    balanced by steals instead of hoping a static split lands evenly.
    After the first exception raised by [f] the remaining ids may be
    skipped; it is re-raised once the team is joined. Used by
    incremental re-propagation, whose dirty levels arrive
    pre-scheduled; fresh full runs should prefer {!propagate}. *)
