(** Incremental static timing analysis.

    A session wraps a {!Tqwm_sta.Timing_graph.t} together with a
    {!Tqwm_sta.Timing_arena} holding the last per-stage timings, and
    re-times {e only} what an edit can have changed. Applying an
    {!Edit.t} marks the touched stages dirty; {!recompute} walks the
    frozen level schedule, re-evaluates dirty stages with the very same
    {!Tqwm_sta.Arrival.evaluate_stage} the full engines use — which
    overwrites their slots in the session's store — and propagates
    dirtiness along fanout edges, stopping early wherever a recomputed
    stage's [arrival_out] and [slew] come back within [epsilon] of the
    previous analysis (the edit's influence is {e cut off} there, so a
    local edit costs O(affected cone), not O(graph)). Clean stages keep
    their stored records, which {!analysis} reuses as they are.

    Equivalence: with [epsilon = 0] (the default), {!analysis} is
    bit-identical to a from-scratch {!Tqwm_sta.Arrival.propagate} of the
    current graph after {e any} edit sequence — a stage's timing depends
    on its fanins only through their [arrival_out] and [slew], so a
    stage whose recomputed outputs are unchanged cannot change anything
    downstream. With [epsilon > 0] the analysis is approximate: each
    surviving stale timing is within the accumulated cutoff tolerance.

    Each dirty level is handed to {!Tqwm_sta.Parallel.run} as one
    level, so with [domains > 1] its stages are evaluated concurrently
    by a team no wider than the level (a 1-wide level runs inline);
    results do not depend on the domain count. *)

module Timing_graph = Tqwm_sta.Timing_graph
module Arrival = Tqwm_sta.Arrival

type t

val create :
  model:Tqwm_device.Device_model.t ->
  ?cache:Tqwm_sta.Stage_cache.t ->
  ?domains:int ->
  ?epsilon:float ->
  Timing_graph.t ->
  t
(** Take ownership of [graph] (edit it only through the session from
    here on). Every stage starts dirty, so the first {!analysis} is a
    full propagation through the incremental path. [epsilon] (seconds,
    default [0.] = exact) is the early-cutoff tolerance on
    [arrival_out] and [slew]; [domains] (default 1) is the team size
    each dirty level is evaluated with; [cache] is as in
    {!Tqwm_sta.Arrival.propagate}, whose default slew and solver
    configuration the session uses.
    @raise Invalid_argument when [epsilon] is negative or not
    finite. *)

val fork : ?cache:Tqwm_sta.Stage_cache.t -> t -> t
(** Snapshot fork: a fully isolated what-if session starting exactly
    where this one stands — same graph (copied copy-on-write through
    {!Timing_graph.copy}), same computed timings (a
    {!Tqwm_sta.Timing_arena.copy} of the store) and primary-input
    overrides, no re-propagation needed. Edits on either side never
    affect the other; the immutable frozen schedule and scenario values
    stay shared until a side mutates. [cache] defaults to
    [Stage_cache.fork ~copy_uses:true] of this session's cache (shared
    solve table, provenance as if the fork ran the baseline itself);
    [epsilon] and the domain count are the parent's. Lifetime {!stats}
    restart at zero. This is the per-client overlay the timing server
    hands each connection over one shared baseline. *)

val graph : t -> Timing_graph.t

val apply : t -> Edit.t -> Timing_graph.stage_id option
(** Apply one edit, marking its dirty seed stages; no re-timing happens
    until {!recompute}/{!analysis}/{!query}. Returns the new stage id
    for {!Edit.Add_stage}, [None] otherwise. Edits that the underlying
    graph rejects ({!Invalid_argument}: unknown stage/edge, duplicate or
    cycle-creating connection, scenario missing a connected input)
    propagate the exception and leave the session unchanged. *)

val add_stage : t -> Tqwm_circuit.Scenario.t -> Timing_graph.stage_id
(** [apply t (Add_stage s)], returning the id directly. *)

val recompute : t -> int
(** Re-time every dirty stage (and whatever their changes reach).
    Returns the number of stages re-evaluated — 0 when the session is
    already clean. Emits an [incr.recompute] trace span and bumps the
    [incr.stages_reeval] / [incr.cutoff_hits] counters.
    @raise Tqwm_sta.Arrival.Analysis_failure when a stage cannot be
    timed (its output never crosses 50 %, or no path of it conducts
    within its window). The session stays dirty, and
    once an edit removes the cause the next recompute is again
    bit-identical to a from-scratch run. *)

val analysis : t -> Arrival.analysis
(** Current analysis, recomputing first if dirty. Memoized while clean. *)

val scratch_analysis : t -> Arrival.analysis
(** From-scratch {!Tqwm_sta.Arrival.propagate} over the session's
    current graph and primary-input overrides — the oracle incremental
    results are checked against. It runs through a fresh cache when the
    session has one and without a cache otherwise, so slew quantization
    matches the incremental path and the comparison is bit-exact. *)

type stats = {
  edits : int;  (** edits applied over the session's lifetime *)
  recomputes : int;
  stages_reeval : int;  (** cumulative stages re-evaluated *)
  cutoff_hits : int;  (** re-evaluations whose outputs were unchanged *)
  last_reeval : int;  (** stages re-evaluated by the latest recompute *)
}

val stats : t -> stats

(** {2 Timing observability} *)

val required : t -> clock_period:float -> Arrival.required_report
(** {!Tqwm_sta.Arrival.required} over the current analysis (recomputing
    first if dirty): per-stage required times and slacks, the endpoint
    set, and the WNS/TNS aggregates — also refreshing the [sta.wns] /
    [sta.tns] gauges. The per-edit slack-delta reporting of
    {!Script.run} is this, called after every recompute. *)

val k_worst :
  ?clock_period:float -> t -> k:int -> Tqwm_sta.Path_enum.path list
(** {!Tqwm_sta.Path_enum.k_worst} over the current analysis (recomputing
    first if dirty). *)

val explain : t -> Tqwm_sta.Path_enum.path -> Tqwm_sta.Path_enum.explained
(** {!Tqwm_sta.Path_enum.explain} with the session's own model, cache
    and retimings — stage attributions are read-only
    replays of the solves the session actually performed. *)

(** {2 What-if path queries} *)

type path_query = {
  stages : Timing_graph.stage_id list;  (** [from_stage] to [to_stage] inclusive *)
  arrival : float;
      (** latest arrival at [to_stage] over paths through [from_stage],
          accumulating the {e current} per-stage delays *)
}

val query : t -> from_stage:Timing_graph.stage_id -> to_stage:Timing_graph.stage_id -> path_query option
(** Worst path from [from_stage] to [to_stage] by current stage delays
    (recomputing first if dirty); [None] when no path exists. Each
    stage's delay was computed under its actual critical driver, so off
    the critical path this is a what-if estimate, not a re-solve. *)
