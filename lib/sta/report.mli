(** Human-readable timing reports. *)

val print : Format.formatter -> Timing_graph.t -> Arrival.analysis -> unit
(** Per-stage table (arrival, delay, slew) followed by the critical path
    and the worst arrival time. *)

val critical_path_string : Timing_graph.t -> Arrival.analysis -> string
(** "stageA -> stageB -> ..." *)

val to_json : Timing_graph.t -> Arrival.analysis -> Tqwm_obs.Json.t
(** Machine-readable analysis: per-stage timings (picoseconds), the
    critical path as stage names, and the worst arrival — the document
    written by [qwm_sim --sta ... --json FILE]. *)

(** {2 Slack and k-worst-path views} *)

val path_string : Timing_graph.t -> Path_enum.path -> string
(** "stageA -> stageB -> ..." for an enumerated path; on the worst path
    this equals {!critical_path_string} exactly. *)

val print_slack :
  Format.formatter ->
  Timing_graph.t ->
  Arrival.analysis ->
  Arrival.required_report ->
  unit
(** Per-stage arrival/required/slack table, the endpoint table (violated
    endpoints flagged), and the clock/WNS/TNS summary. *)

val print_timing :
  Format.formatter ->
  Timing_graph.t ->
  Arrival.required_report ->
  Path_enum.explained list ->
  unit
(** The k-worst-path report: the WNS/TNS header, then one block per
    enumerated path attributing every stage (arrival, delay, slew, QWM
    region and Newton counts, and whether the solve was shared through
    the stage cache — "x3" means three stages reused it, "-" means no
    cache was in play). *)

val timing_to_json :
  Timing_graph.t ->
  Arrival.analysis ->
  Arrival.required_report ->
  Path_enum.explained list ->
  Tqwm_obs.Json.t
(** The versioned [tqwm-report/1] document: clock period, WNS/TNS/worst
    slack, the endpoint table, per-stage timings with required/slack, and
    the enumerated paths with per-stage attribution. A pure function of
    its arguments (no GC/runtime block), so it is bit-identical across
    domain counts — the contract test/cli.t diffs across 1 and 4 domains.
    Written by [qwm_sim --report-timing --json FILE]. *)
