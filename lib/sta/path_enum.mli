(** K-worst critical-path enumeration and stage-by-stage path
    attribution over a completed arrival analysis.

    A {e path} is a source-to-endpoint stage sequence (a stage with no
    fanin down to a stage with no fanout); its arrival is the sum of the
    current per-stage delays on top of the source's arrival, exactly the
    quantity the forward pass maximizes. Each stage's delay was computed
    under its actual critical driver, so off the critical path these are
    what-if estimates (the same caveat as {!Tqwm_incr.Session.query}),
    while the worst path's arrival is bit-identical to
    {!Arrival.analysis.worst_arrival}.

    Enumeration is a best-first peel of the path tree walked backward
    from the endpoints. The bound for a partial path ending at stage [v]
    is [arrival_out v + (delays already peeled)] — [arrival_out] {e is}
    the exact best completion, because the forward pass already
    maximized over every prefix — so the first [k] completed paths are
    the [k] worst. Ties are broken lexicographically (lowest endpoint
    id, then fanin insertion order), matching the critical-path walk of
    {!Arrival.analysis_of_arena}, so [k_worst ~k:1] reproduces
    {!Report.critical_path_string} exactly. The enumeration consumes
    only the analysis (itself bit-identical across domain counts), so
    reports built on it are deterministic and bit-identical across
    domain counts too. *)

type path = {
  stages : Timing_graph.stage_id list;  (** source to endpoint *)
  arrival : float;
      (** endpoint arrival along this path, accumulated forward (the
          worst path's value equals [worst_arrival] bit-exactly) *)
  slack : float;  (** [clock_period - arrival] *)
}

val k_worst :
  ?clock_period:float ->
  k:int ->
  Timing_graph.t ->
  Arrival.analysis ->
  path list
(** The [k] worst (latest-arriving) distinct source-to-endpoint paths,
    sorted worst slack first; fewer when the graph holds fewer distinct
    paths. Two parallel edges between the same pair of stages (different
    inputs) collapse to one path — sequences are distinct. [clock_period]
    defaults to {!Arrival.zero_slack_clock}: the worst arrival, making
    the critical path zero-slack and every other path's slack its margin
    to critical.
    @raise Invalid_argument when [k < 1], [clock_period] is non-positive
    or not finite, or the analysis does not match the graph. *)

type stage_attribution = {
  timing : Arrival.stage_timing;  (** the analysis' record for this stage *)
  name : string;  (** scenario name *)
  regions : int;  (** QWM regions solved for this stage's waveform *)
  newton_iterations : int;
  cache_uses : int;
      (** how many stage evaluations shared this stage's cache key during
          the analysis (1 = solved only for this stage, >1 = the solve
          was reused; 0 = run without a cache). Deterministic across
          domain counts — see {!Stage_cache.uses}. *)
}

type explained = {
  path : path;
  through : stage_attribution list;  (** one per stage, source first *)
}

val explain :
  model:Tqwm_device.Device_model.t ->
  ?default_slew:float ->
  ?cache:Stage_cache.t ->
  ?pi:Arrival.pi_timing option array ->
  Timing_graph.t ->
  Arrival.analysis ->
  path ->
  explained
(** Attribute a path stage by stage: delay/slew from the analysis, QWM
    region and Newton counts from the solve that produced them, and
    cache provenance. Pass the very [model]/[default_slew]/
    [cache]/[pi] the analysis ran with: each stage is then a read-only
    {!Stage_cache.peek} replay ({!Arrival.replay_stage}) and costs no
    new solves. *)
