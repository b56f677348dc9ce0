(** Drift detection over baseline comparisons: pinpoint {e which} stage
    and which workload family moved, classify the run as a whole, and
    feed the outcome into the global telemetry registry (counters
    [audit.unchanged] / [audit.improved] / [audit.regressed] and an
    [audit.drift] trace instant per regression). *)

type report = {
  deltas : Baseline.delta list;  (** every compared metric *)
  regressed : Baseline.delta list;  (** worst first *)
  improved : Baseline.delta list;
  unchanged : int;
  unmatched : int;
      (** current stages with no baseline counterpart (new workloads or
          renamed stages) — compared against nothing, so flagged *)
  regressions_by_workload : (string * int) list;
      (** regression count per workload family, zero-count entries
          omitted, worst family first *)
}

val check : baseline:Audit.t -> Audit.t -> report
(** Compare and classify. Each call bumps the [audit.*] drift counters
    by this report's classification counts. *)

val has_regressions : report -> bool

val worst : report -> Baseline.delta option
(** The regression with the largest excursion beyond its baseline. *)

val pp : Format.formatter -> report -> unit
(** Per-regression lines (metric, stage, baseline -> current), then the
    improved/unchanged/unmatched tallies. *)

val to_json : report -> Tqwm_obs.Json.t
(** [{"regressed": [...], "improved": [...], "unchanged": n,
    "unmatched": n, "regressions_by_workload": {...}}] — the drift
    section of the [--audit --json] document. *)
