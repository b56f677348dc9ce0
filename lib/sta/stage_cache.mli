(** Memoization of per-stage QWM solves.

    Large timing graphs repeat gates: a decoder fan-out tree instantiates
    the same stage (same topology, device sizes, load) hundreds of times,
    and after slew bucketing their switching inputs coincide too. The
    cache keys each {!Tqwm_core.Qwm.run} on a canonical fingerprint of
    (model name, config, scenario), so every repeated gate is solved
    exactly once.

    The key covers the whole scenario in two parts. Its {!structure}
    digest covers everything input shaping leaves alone — stage
    topology, device geometry, external loads, technology, simulation
    window and initial node biases. The shaped input sources are hashed
    per lookup. A frozen timing graph digests each stage's structure
    once ({!Timing_graph.frozen}[.structure]) and propagation passes it
    as [?structure] to {!run}, {!peek} and {!uses}, so a cache hit
    hashes about 120 bytes instead of marshalling the stage, the
    technology and the initial biases. A precomputed digest yields the
    very key {!fingerprint} computes from scratch.

    Thread-safety: the table is mutex-protected and the counters are
    atomic, so one cache may be shared by all domains of the
    {!Parallel} engine. Lookups are single-flight: the first domain to
    request a key solves it while concurrent requesters for the same key
    block until the report lands, so a stage is never solved twice and
    the miss count is deterministic — a parallel run reports exactly the
    misses (one per distinct stage) of the sequential run. A worker
    that blocks on an in-flight key simply sleeps while the rest of the
    team keeps claiming the level's other stages. Cached reports are
    immutable and safe to share across domains.

    Telemetry: hits and misses are additionally accumulated across all
    cache instances in the global {!Tqwm_obs.Metrics} registry as
    [stage_cache.hits] / [stage_cache.misses], so metrics snapshots
    ([qwm_sim --metrics]) carry cache effectiveness without a handle on
    the cache value itself. *)

type t

type stats = {
  hits : int;
  misses : int;  (** actual QWM solves performed through the cache *)
  entries : int;
}

val create : unit -> t
(** An empty cache. Input slews are quantized to 1 ps before they
    become part of a key — see {!bucket_slew}. *)

val fork : ?copy_uses:bool -> t -> t
(** A new cache handle sharing this cache's solve table — and its
    single-flight coordination — so solves memoized through any fork are
    hits for every other fork, while {!uses} provenance and {!stats}
    restart at zero for the fork. With [copy_uses] (default false) the
    fork starts from a snapshot of the parent's per-key request counts
    instead, as if it had submitted the parent's work itself — the mode
    for forking a session whose baseline analysis already ran, keeping
    path-explain attribution identical to a from-scratch session. *)

val bucket_slew : float -> float
(** Round a positive slew to the nearest multiple of 1 ps (at least
    1 ps); non-positive slews pass through. Arrival propagation through
    a cache buckets the driving slew {e before} shaping a stage's input
    ramp, so the cached solve and the waveform actually used agree
    exactly and results are deterministic regardless of hit order. The
    1 ps bucket perturbs delays well below the QWM-vs-reference model
    error. *)

val structure : Tqwm_circuit.Scenario.t -> string
(** Digest of the scenario without its input sources (initial biases
    hashed as raw float64 bits). The model and config are not part of
    it. Scenarios are never mutated in place, so a digest stays valid
    for the scenario value it was computed from. *)

val fingerprint :
  model:Tqwm_device.Device_model.t ->
  config:Tqwm_core.Config.t ->
  Tqwm_circuit.Scenario.t ->
  string
(** Canonical digest of (model name, config, scenario): MD5 over the
    config's digest, the {!structure} digest, the marshalled input
    sources and the model name. Device models are identified by name
    only — do not share one cache between models that answer
    differently under the same name. *)

(** [?structure], where {!run}, {!peek} and {!uses} accept it, must be
    {!structure} of a scenario equal to the one passed except for its
    input sources — in practice the unshaped scenario the shaped one was
    derived from. A digest of any other scenario silently files the
    solve under the wrong key. Omitted, it is computed. *)

val run :
  t ->
  ?structure:string ->
  model:Tqwm_device.Device_model.t ->
  config:Tqwm_core.Config.t ->
  Tqwm_circuit.Scenario.t ->
  Tqwm_core.Qwm.report
(** [Qwm.run] through the cache. On a hit the stored report is returned
    (its [runtime_seconds] is the original solve's). *)

val peek :
  t ->
  ?structure:string ->
  model:Tqwm_device.Device_model.t ->
  config:Tqwm_core.Config.t ->
  Tqwm_circuit.Scenario.t ->
  Tqwm_core.Qwm.report option
(** The stored report for this scenario's key, if its solve already
    landed — never solves, never blocks on an in-flight entry, and does
    not count as a hit, miss or use. The read-only lookup path-explain
    replays through. *)

val uses :
  t ->
  ?structure:string ->
  model:Tqwm_device.Device_model.t ->
  config:Tqwm_core.Config.t ->
  Tqwm_circuit.Scenario.t ->
  int
(** How many {!run} calls requested this scenario's key (hits and misses
    alike; 0 = never requested). The count reflects the work submitted,
    not the scheduling, so it is identical across domain counts;
    {!peek} and [uses] itself leave it untouched. *)

val stats : t -> stats

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 when the cache is unused. *)
