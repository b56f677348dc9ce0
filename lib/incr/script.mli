(** The [qwm_sim --incr] command language: a line-oriented script of
    graph edits, reports and what-if path queries driving a {!Session}.

    One command per line; blank lines are skipped and [#] starts a
    comment. Commands:

    {v
    graph chain N | diamond | decoder FANOUT DEPTH [LEVELS]
          | stacks WIDTH DEPTH [SEED]    seed the graph (first command only)
    stage NAME                           add a catalog stage (prints its id)
    connect FROM TO INPUT                drive TO's INPUT from FROM's output
    disconnect FROM TO INPUT             remove that connection
    remove ID                            detach a stage (id becomes isolated)
    resize ID EDGE SCALE                 scale a device width
    load ID FARADS                       set the output node's load
    swap ID NAME                         replace a stage's scenario
    retime ID ARRIVAL_PS SLEW_PS         override a primary input's timing
    report                               re-time and print the analysis
    clock PERIOD_PS                      set the clock; reports now show
                                         WNS/TNS and per-report deltas
    timing [K]                           k-worst paths (default 1) with
                                         stage-by-stage attribution
    query FROM TO                        worst path FROM -> TO by current delays
    v}

    After [clock], every [report] appends a slack line — WNS/TNS plus
    the delta against the previous report, so an edit script reads as a
    sequence of timing moves — and the final JSON document gains a
    [timing] member (clock period, WNS, TNS, worst slack). Scripts that
    never set a clock produce byte-identical documents to before slack
    reporting existed. [timing] always works over the session's
    incremental analysis, so its attributions replay the solves this
    session actually cached. *)

exception Script_error of { line : int; message : string }
(** A command failed: syntax error, unknown name, an edit the graph
    rejected, or an analysis that cannot time a stage
    ({!Tqwm_sta.Arrival.Analysis_failure}). [line] is 1-based. *)

type mode =
  | Incremental  (** reports come from {!Session.analysis} *)
  | Scratch  (** reports come from {!Session.scratch_analysis} — the oracle *)

type outcome = {
  session : Session.t;  (** final state, for stats or further queries *)
  clock_period : float option;
      (** seconds; the last [clock] command's period, if any *)
  json : Tqwm_obs.Json.t;
      (** ["tqwm-incr-report/1"] document: mode, final analysis
          ({!Tqwm_sta.Report.to_json}), session stats, and — when the
          script set a clock — the [timing] aggregates. Identical
          [analysis] members across the two modes is the equivalence
          check [test_incr] makes. *)
}

val graph_of_spec : tech:Tqwm_device.Tech.t -> string -> Tqwm_sta.Timing_graph.t
(** Build a workload graph from a [graph] command's argument text (e.g.
    ["decoder 3 2"], ["chain 16"]) — the grammar the first script line
    accepts, reused by [qwm_sim --serve --graph].
    @raise Invalid_argument on an unknown or malformed spec. *)

val timing_json :
  ?clock_period:float -> ?k:int -> Session.t -> Tqwm_obs.Json.t
(** The ["tqwm-report/1"] timing document of the session's current state
    — exactly what the [timing] script command prints, as JSON: [k]
    (default 1) worst paths with stage-by-stage attribution replayed
    through the session's own cache, plus the per-endpoint required
    times under [clock_period] (default:
    {!Tqwm_sta.Arrival.zero_slack_clock}). Byte-identical across
    session transports — the offline/daemon equivalence test/cli.t
    and [test_server] check. A
    graph with no stages gives a document with no paths and no
    endpoints.
    @raise Invalid_argument when [k < 1].
    @raise Tqwm_sta.Arrival.Analysis_failure when a stage cannot be
    timed. *)

(** One live interpreter: the per-connection server object. {!Interp.feed}
    runs exactly one script line through the same code path {!run} uses,
    so a server session that replays a script line-by-line produces
    byte-identical output and documents to an offline [qwm_sim --incr]
    run of the same script. *)
module Interp : sig
  type t

  val create :
    tech:Tqwm_device.Tech.t ->
    model:Tqwm_device.Device_model.t ->
    ?cache:Tqwm_sta.Stage_cache.t ->
    ?domains:int ->
    ?epsilon:float ->
    ?mode:mode ->
    ?out:Format.formatter ->
    ?session:Session.t ->
    unit ->
    t
  (** [cache] overrides the cache the interpreter's session is created
      with (a server passes a {!Tqwm_sta.Stage_cache.fork} of its shared
      cache); otherwise the interpreter creates a fresh one.
      [session] seeds the interpreter with an existing session — e.g. a
      {!Session.fork} of a server's baseline — in which case [graph] is
      rejected as a non-first command and edits apply to the fork.
      [out] (default stdout) receives the progress lines; servers pass a
      buffer formatter and ship the text back to the client. *)

  val feed : t -> ?line:int -> string -> unit
  (** Run one script line (comments/blank lines allowed). [line] is the
      1-based number used in {!Script_error} (default: the count of lines
      fed so far).
      @raise Script_error as {!run} does. *)

  val has_session : t -> bool
  (** Whether a session exists yet ([graph] ran, a seed was passed, or an
      edit forced an empty-graph session). *)

  val session : t -> Session.t
  (** The interpreter's session, creating the empty-graph one on demand. *)

  val clock_period : t -> float option
  (** Seconds; the last [clock] command's period, if any. *)

  val document : t -> Tqwm_obs.Json.t
  (** The ["tqwm-incr-report/1"] document of the current state — what
      {!run} returns as [json], available at any point mid-script.
      @raise Tqwm_sta.Arrival.Analysis_failure when a stage cannot be
      timed. *)
end

val run :
  tech:Tqwm_device.Tech.t ->
  model:Tqwm_device.Device_model.t ->
  ?domains:int ->
  ?epsilon:float ->
  ?mode:mode ->
  ?out:Format.formatter ->
  string ->
  outcome
(** Interpret a script given as text, sharing one
    {!Tqwm_sta.Stage_cache} across the whole run; [domains]
    (default 1) and [epsilon] (seconds, default 0) are passed to
    {!Session.create}; progress lines go to [out] (default stdout).
    @raise Script_error on the first failing line; when the closing
    document cannot time a stage, at the script's last line. *)

val run_file :
  tech:Tqwm_device.Tech.t ->
  model:Tqwm_device.Device_model.t ->
  ?domains:int ->
  ?epsilon:float ->
  ?mode:mode ->
  ?out:Format.formatter ->
  string ->
  outcome
(** {!run} on a file's contents. *)
