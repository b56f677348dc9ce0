(** The timing daemon: one frozen baseline timing graph, its schedule
    and stage cache loaded once and shared read-only, N worker domains
    serving M concurrent client connections, each connection holding its
    own copy-on-write {!Tqwm_incr.Session} overlay (edits, clock period,
    cutoff epsilon) — sessions fully isolated from each other while the
    immutable graph, level schedule and memoized QWM solves are shared.

    One connection = one session. The per-connection interpreter is
    {e literally} {!Tqwm_incr.Script.Interp} — the same code path as an
    offline [qwm_sim --incr] run — so the [tqwm-incr-report/1] and
    [tqwm-report/1] documents a server session returns are byte-identical
    to an offline replay of the same command sequence, across worker
    counts and client interleavings.

    {2 Protocol verbs}

    Over {!Protocol}'s newline-delimited JSON:

    - [load] — open the session. [{"graph": "decoder 3 2"}] seeds a
      fresh workload; [{"graph": ""}] opens an empty session (script
      replay: the first [script] line may then be a [graph] command);
      with no [graph] member the session is a {!Tqwm_incr.Session.fork}
      of the server's baseline (error when the server has none).
    - [edit] / [script] — [{"line": "resize 3 0 1.5"}]: run one script
      command ({!Tqwm_incr.Script} grammar: [stage], [connect],
      [resize], [load], [swap], [retime], [clock], [report], ...);
      the command's progress text returns as [output].
    - [report] — shorthand for [script {"line": "report"}].
    - [query] — [{"from": 0, "to": 7}]: worst path between two stages.
    - [timing] — [{"k": 3}]: the [tqwm-report/1] timing document
      ({!Tqwm_incr.Script.timing_json}) under the session's clock.
    - [slack] — [{"clock_period_ps": 800}] (optional): WNS/TNS summary.
    - [explain] — [{"pin": 7}]: the critical cone into one stage as a
      single-path [tqwm-report/1] document.
    - [document] — the session's [tqwm-incr-report/1] document.
    - [metrics] — the server {e process}'s {!Tqwm_obs.Metrics.snapshot}.
      The registry is process-global: counters, gauges and histograms
      are shared across every session and worker domain, so the numbers
      are daemon-wide totals, {e not} per-session figures.
    - [health] — liveness summary: [ready], [uptime_s], [sessions] /
      [max_sessions], [workers], [tracing], [access_log]. Each session
      recomputes on the worker domain serving it.
    - [trace] — snapshot of the in-memory trace buffer as a Chrome
      trace document (empty unless the daemon runs with tracing
      enabled).
    - [close] — end the session (equivalently: just disconnect).

    Malformed JSON, unknown verbs, oversized lines and failing commands
    produce structured [{"ok": false, "error": ...}] responses and leave
    both the connection (where possible) and the daemon serving; a
    mid-request disconnect tears the session down and frees its slot.

    {2 Request-scoped observability}

    Every accepted connection is assigned a session id ([s7]) and every
    request a request id ([s7.r42]). When tracing is enabled, both ride
    as ambient {!Tqwm_obs.Trace.with_context} args on every span the
    request produces — from the [server.request] dispatch span through
    [script.command] and [incr.recompute] down to individual
    [sta.stage] solves, across the session's worker domains — so a
    multi-domain daemon exports one merged Chrome trace attributable
    request by request. When an access log is configured, each request
    additionally appends one JSONL record: [ts], [request], [session],
    [verb], [outcome] ("ok" or the error code), [bytes_in],
    [bytes_out], [latency_us]. Requests at or above the slow-request
    threshold also emit a [server.slow_request] trace instant and bump
    [server.slow_requests].

    {2 Telemetry}

    All instruments live in the process-global registry:
    [server.requests] / [server.errors] / [server.connections] /
    [server.slow_requests] counters, [server.sessions] (accepted and
    not yet torn down, queued ones included — [health]'s [sessions]),
    [server.queue_depth]
    (accepted, not yet picked up by a worker) and
    [server.start_time_seconds] (Unix time of {!start}) gauges, and
    per-verb [server.latency_ms.<verb>] histograms. The registry has two
    read-outs: the [metrics] verb and the Prometheus text format of
    {!Tqwm_obs.Prometheus}. Rates and quantiles are the reader's job —
    [rate()] and [histogram_quantile()] over the scrape, or the
    difference of two [metrics] snapshots — and uptime is the read time
    minus [server.start_time_seconds]. *)

type t

val start :
  tech:Tqwm_device.Tech.t ->
  ?graph:Tqwm_sta.Timing_graph.t ->
  ?workers:int ->
  ?epsilon:float ->
  ?max_sessions:int ->
  ?access_log:string ->
  ?slow_threshold:float ->
  Protocol.address ->
  t
(** Bind, warm the baseline and start serving. [graph] is the shared
    baseline: its full analysis runs once here, so every [load]ed fork
    starts from computed arrivals and a warm cache. [workers] (default 1)
    is the serving domain count; [epsilon] (seconds, default 0) is the
    sessions' cutoff tolerance; [max_sessions]
    (default 64) bounds concurrently open connections — beyond it new
    connections are answered with a [server_full] error and closed.
    [access_log] appends one JSONL record per request to the given path
    (created if missing); [slow_threshold] (seconds, default 0.25) is
    the latency at which a request counts as slow. Spawns the acceptor
    and [workers] worker domains, nothing else. Ignores [SIGPIPE]
    process-wide (hung-up clients must read as [EPIPE], not kill the
    daemon).
    @raise Unix.Unix_error when binding fails (address in use, ...). *)

val address : t -> string
(** The bound address in {!Protocol.parse_address} syntax, with the
    actual port when TCP port 0 was requested. *)

val active_sessions : t -> int
(** Connections currently open (served or awaiting a worker). *)

val stop : t -> unit
(** Stop accepting, wait for in-flight connections to finish, join all
    domains, close and (for Unix sockets) unlink. Clients must
    disconnect for [stop] to return. Idempotent. *)
