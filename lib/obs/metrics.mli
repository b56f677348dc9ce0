(** Global telemetry instruments: atomic counters and fixed-bucket
    histograms, registered by name in one process-wide registry that
    snapshots to a JSON document.

    Instruments are declared once (typically in a top-level [let] of the
    instrumented module) and shared by every engine instance and every
    domain; updates are single atomic operations, cheap enough to leave
    enabled unconditionally on hot paths. Because the registry is
    global, a sequential and a parallel run of the same workload bump
    the same cells and their totals can be compared directly (see
    [test/test_obs.ml]). *)

type counter

type histogram

type gauge

val counter : string -> counter
(** Get or create the counter registered under this name.
    @raise Invalid_argument if the name is registered as another kind. *)

val histogram : string -> bounds:float array -> histogram
(** Get or create a histogram with the given strictly increasing upper
    bounds. Bucket [i] counts observations [v] with
    [bounds.(i-1) < v <= bounds.(i)]; one extra overflow bucket counts
    [v > bounds.(last)]. An existing histogram is returned as-is (its
    bounds are not checked against [bounds]).
    @raise Invalid_argument on empty or non-increasing bounds, or if the
    name is registered as a counter. *)

val gauge : string -> gauge
(** Get or create a gauge — a last-value instrument for quantities that
    are {e levels} rather than totals (worst slack, queue depth): [set]
    overwrites, nothing accumulates. Starts at [0.0].
    @raise Invalid_argument if the name is registered as another kind. *)

val set : gauge -> float -> unit

val gauge_value : gauge -> float

val incr : counter -> unit

val add : counter -> int -> unit

val value : counter -> int

val observe : histogram -> float -> unit

val observe_indexed : histogram -> scale:float -> float array -> int array -> unit
(** [observe_indexed h ~scale values ids] observes [scale *. values.(id)]
    for every [id] of [ids] as one update: each non-empty bucket gets one
    atomic add and the sum one compare-and-set. The counts are those of
    one {!observe} per value; the sum is accumulated in [ids] order
    before it is added, so its last bits may differ from theirs. *)

val histogram_counts : histogram -> int array
(** Per-bucket counts, overflow bucket last. *)

val histogram_total : histogram -> int

val counters_alist : unit -> (string * int) list
(** All registered counters with their current values, sorted by name. *)

val find_counter : string -> int option
(** Current value of a counter by name; [None] if not registered. *)

val find_gauge : string -> float option
(** Current value of a gauge by name; [None] if not registered. *)

type exported =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of { bounds : float array; counts : int array; sum : float }
      (** [counts] has one entry per bound plus the trailing overflow
          bucket, mirroring {!histogram_counts}. *)

val export : unit -> (string * exported) list
(** Typed point-in-time view of every registered instrument, sorted by
    name. Each histogram's arrays are fresh copies. This is the feed for
    the Prometheus renderer ({!Prometheus.render}). *)

val snapshot : unit -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name: {bounds,
    counts, total, sum}}}] — the metrics document written by
    [qwm_sim --metrics]. *)

val reset : unit -> unit
(** Zero every registered instrument. Registrations are kept, and so are
    all previously handed-out handles: a counter or histogram obtained
    before [reset] still points at its (now zeroed) registered cell, and
    re-registering the same name returns that very cell — old and new
    handles stay interchangeable, and updates through either are visible
    in the next [snapshot]. [reset] never invalidates a handle. Intended
    for tests and for delta measurements around a workload. *)
