(** Arrival-time propagation: waveform-based static timing analysis with
    QWM as the per-stage evaluation engine.

    Each stage is evaluated with its switching input shaped as a ramp
    matching the driving stage's output slew (waveform information the
    paper argues plain delay/slope STA loses); arrival times accumulate
    along the worst path. One function, {!evaluate_stage}, times a
    stage: it reads its fanins' records from a {!Timing_arena} and
    writes its own slot. The sequential run below, the work-stealing
    chunks of {!Parallel.propagate} and incremental re-propagation
    ({!Tqwm_incr.Session.recompute}) all call it, so they produce
    identical results. *)

exception Analysis_failure of string

type stage_timing = Timing_arena.timing = {
  id : Timing_graph.stage_id;
  arrival_in : float;  (** 50 % crossing time of the switching input *)
  delay : float;  (** stage 50 %-to-50 % delay *)
  slew : float;  (** output 10-90 % transition time *)
  arrival_out : float;
  critical_fanin : Timing_graph.stage_id option;
      (** driver that set [arrival_in]; [None] at primary inputs *)
}

type analysis = {
  timings : stage_timing array;  (** indexed by stage id *)
  critical_path : Timing_graph.stage_id list;  (** source to sink *)
  worst_arrival : float;
}

type pi_timing = {
  pi_arrival : float;  (** 50 % crossing time of the primary input *)
  pi_slew : float;
      (** transition time used to shape the stage's switching sources as
          ramps; values [<= 0] keep the scenario's own source shapes and
          only move the arrival *)
}
(** Retiming override for a primary-input stage (a stage with no fanin).
    Overrides are indexed by stage id; entries for stages that have
    fanin are ignored — a driver always wins. *)

val propagate :
  model:Tqwm_device.Device_model.t ->
  ?config:Tqwm_core.Config.t ->
  ?default_slew:float ->
  ?cache:Stage_cache.t ->
  ?pi:pi_timing option array ->
  Timing_graph.t ->
  analysis
(** @raise Analysis_failure when a stage's output never crosses 50 %.
    @raise Invalid_argument when [default_slew <= 0] (a non-positive
    slew would shape degenerate ramps — the same positivity contract as
    {!Stage_cache.create}).
    [default_slew] (default 20 ps) shapes inputs whose driver reports no
    slew. When [cache] is given, per-stage QWM solves are memoized and
    driving slews (including {!pi_timing} slews) are quantized to the
    cache's bucket (see {!Stage_cache.bucket_slew}), so repeated gates
    are solved once. [pi] retimes primary-input stages. *)

val propagate_arena :
  model:Tqwm_device.Device_model.t ->
  ?config:Tqwm_core.Config.t ->
  ?default_slew:float ->
  ?cache:Stage_cache.t ->
  ?pi:pi_timing option array ->
  Timing_graph.t ->
  analysis * Timing_arena.t
(** {!propagate}, additionally returning the sealed store (packed
    per-level waveform slabs, see {!Timing_arena.level_digest}). *)

(** {2 Building blocks shared with the parallel and incremental engines} *)

val evaluate_stage :
  model:Tqwm_device.Device_model.t ->
  config:Tqwm_core.Config.t ->
  default_slew:float ->
  ?cache:Stage_cache.t ->
  ?pi:pi_timing option array ->
  Timing_graph.frozen ->
  Timing_arena.t ->
  Timing_graph.stage_id ->
  unit
(** Time one stage of a frozen graph from its fanins' stored records and
    store its timing and output waveform in its own slot. It reads only
    fanin slots, so stages of one topological level may be evaluated
    concurrently in any order with identical results. A stage's timing
    depends on its fanins only through their [arrival_out] and [slew]
    (the early-cutoff invariant {!Tqwm_incr.Session} relies on).
    @raise Analysis_failure if a fanin stage has no timing yet or the
    stage's output never crosses 50 %; the slot is then left as it
    was. *)

val analysis_of_arena : Timing_arena.t -> analysis
(** Worst arrival and critical-path walk over the stored records, which
    become the analysis's timings as they are (every slot must be
    stored).
    @raise Analysis_failure when a slot was never timed. *)

val replay_stage :
  model:Tqwm_device.Device_model.t ->
  config:Tqwm_core.Config.t ->
  default_slew:float ->
  ?cache:Stage_cache.t ->
  ?pi:pi_timing option array ->
  Timing_graph.frozen ->
  stage_timing option array ->
  Timing_graph.stage_id ->
  stage_timing * Tqwm_core.Qwm.report * Tqwm_circuit.Scenario.t
(** Re-derive one stage's solve after an analysis, for attribution:
    returns the stage timing, the full QWM report behind it (region /
    Newton counts) and the {e shaped} scenario that was actually solved
    (ramped critical input, settled side inputs — the value whose
    {!Stage_cache.fingerprint} keyed the solve). Input shaping is
    deterministic in [timings], so with the same [cache] the analysis
    ran with this is a {!Stage_cache.peek} of the original report — no
    new solve, no hit/miss/use accounting; without a cache the stage is
    solved afresh (bit-identical, the solver being deterministic).
    [timings] must hold the timings of [id]'s fanins. *)

(** {2 Required times and slack} *)

type required_report = {
  clock_period : float;
  req : float array;
      (** latest allowed output arrival per stage (backward-propagated
          from [clock_period] at the endpoints) *)
  req_slack : float array;  (** [req - arrival_out]; negative = violation *)
  endpoints : Timing_graph.stage_id array;
      (** the explicit sink set: stages with no fanout, ids ascending *)
  req_worst_slack : float;  (** minimum slack over {e all} stages *)
  wns : float;
      (** worst (endpoint) slack — the design's single health number;
          positive when every endpoint meets the clock *)
  tns : float;
      (** total negative slack: sum of negative endpoint slacks (0 when
          the design meets timing) *)
}
(** On an empty graph every aggregate is [clock_period] (full margin)
    rather than an infinite fold identity, so consumers always see
    finite numbers. *)

val required : Timing_graph.t -> analysis -> clock_period:float -> required_report
(** The backward required-time pass: endpoints must settle by
    [clock_period]; upstream required times subtract the downstream
    stage delays along each fanout, taking the tightest budget.
    Also publishes the [sta.wns] / [sta.tns] gauges (picoseconds) and
    the [sta.endpoint_slack_ps] histogram to {!Tqwm_obs.Metrics}.
    @raise Invalid_argument when [clock_period] is non-positive or not
    finite, or when [analysis] has a different stage count than [graph]. *)
