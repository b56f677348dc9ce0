(** Persisted accuracy baselines and metric classification.

    A baseline is simply the newest {!Audit.t} record of the
    [AUDIT_accuracy.json] ledger (see {!Tqwm_obs.Ledger}). Comparing a
    fresh audit against it classifies every error metric — per-stage
    delay error, waveform RMS and slew error, per-workload and overall
    averages/maxima — as unchanged, improved or regressed under a fixed
    band of 0.25 percentage points + 5 % of the baseline value: wide
    enough to absorb float noise from re-characterized device tables,
    tight enough that a real solver degradation (a lost half-point of
    accuracy) trips it. All compared metrics are error metrics, so
    {e lower is better}: a value that moved up beyond the band
    regressed, one that moved down improved. *)

val band_abs_pp : float
(** The drift band's absolute slack: 0.25 percentage points of the error
    metric. *)

val band_rel : float
(** The drift band's relative slack: 0.05 of the baseline value. *)

type classification = Unchanged | Improved | Regressed

val classification_to_string : classification -> string

val classify : baseline:float -> current:float -> classification
(** A metric moved iff
    [|current - baseline| > band_abs_pp + band_rel * |baseline|];
    direction decides {!Improved} (down) vs {!Regressed} (up). *)

type delta = {
  metric : string;  (** e.g. ["delay_error_pct"], ["avg_delay_error_pct"] *)
  workload : string;  (** workload name, or ["overall"] *)
  stage : string option;  (** [None] for workload/overall summaries *)
  baseline : float;
  current : float;
  classification : classification;
}

val compare_audits : baseline:Audit.t -> Audit.t -> delta list
(** One {!delta} per comparable metric, pairing current stages and
    workloads with their baseline counterparts by name; entries present
    on only one side are skipped (see {!Drift.check}, which counts
    them). *)

val load : string -> Audit.t option
(** Newest audit record of the ledger at the given path; [None] when
    the file is missing or empty.
    @raise Failure if the newest record is not a [tqwm-audit/1]
    document. *)

val save : path:string -> Audit.t -> int
(** Append the audit to the ledger (date- and commit-stamped), returning
    the new record count. *)
