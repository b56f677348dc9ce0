(** Timed spans and instant events in Chrome trace-event form.

    Instrumented code emits through a process-global sink. The default
    sink is null: [enabled] is a single mutable-bool load, [with_span]
    calls its thunk directly and no clock is read, so instrumented hot
    paths cost nothing when tracing is off. With the memory sink
    enabled, events accumulate in per-domain sharded buffers (each
    emitting domain locks only its own shard, so concurrent emission
    from worker domains never contends on a global mutex) and
    [write_file] merges the shards into one time-sorted JSON document
    loadable by [chrome://tracing] or {{:https://ui.perfetto.dev}
    Perfetto}. The stderr sink prints each event as a JSON line
    immediately.

    Domain safety: emission, export, [clear], and sink swaps may race
    freely across domains. Export snapshots each shard under its lock,
    so no event is ever lost or torn by concurrent emission; an emitter
    racing a sink swap may at worst drop that one event. Timestamps are
    microseconds relative to module initialization; the thread id is
    the emitting domain's id, so parallel STA traces show one lane per
    domain. *)

val enabled : unit -> bool

val enable : ?cap:int -> unit -> unit
(** Install the in-memory sink (empty). [cap] bounds the total number
    of retained events (approximately: it is split evenly across the
    internal shards); once a shard is full, further events on that
    shard are dropped and counted in the [trace.dropped_events]
    counter. Default: unbounded — long-lived daemons should pass a cap. *)

val enable_stderr : unit -> unit
(** Install the line-per-event stderr sink. *)

val disable : unit -> unit

val clear : unit -> unit
(** Drop buffered events (memory sink only). *)

val now : unit -> float
(** Wall-clock seconds; pair with {!complete} for hand-rolled spans
    whose args are only known after the timed work ran. *)

val with_context : (string * Json.t) list -> (unit -> 'a) -> 'a
(** [with_context ctx f] runs [f] with [ctx] appended to the ambient
    span context of the calling domain: every event emitted within the
    dynamic extent of [f] (on this domain) carries [ctx] merged into
    its args. Scopes nest — inner contexts append to outer ones — and
    the previous context is restored even if [f] raises. The context is
    domain-local; see {!current_context} for crossing a [Domain.spawn].
    An empty [ctx] is free. *)

val current_context : unit -> (string * Json.t) list
(** The calling domain's ambient context, outermost bindings first.
    Capture it before [Domain.spawn] and reinstall with {!with_context}
    inside the child so request-scoped args follow work onto worker
    domains. *)

val complete :
  ?args:(string * Json.t) list ->
  name:string ->
  cat:string ->
  ts:float ->
  dur:float ->
  unit ->
  unit
(** A completed span: [ts] in seconds as returned by {!now}, [dur] in
    seconds. No-op when disabled. *)

val instant : ?args:(string * Json.t) list -> name:string -> cat:string -> unit -> unit
(** A point-in-time event. No-op when disabled. *)

val with_span : ?args:(string * Json.t) list -> name:string -> cat:string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; the span is emitted even if the thunk
    raises. When disabled, the thunk runs with zero overhead. *)

val to_json : unit -> Json.t
(** [{"traceEvents": [...], ...}] — all shards merged and sorted by
    timestamp (empty for non-memory sinks). *)

val write_file : string -> unit
