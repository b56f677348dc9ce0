(** The accuracy observatory: QWM and the in-house golden (SPICE-like)
    engine run side-by-side over a catalog of workload stages, and the
    comparison becomes structured, persisted, diffable telemetry.

    The paper's headline claim is twofold — a ~31.6x speed-up {e at}
    ~99 % average delay accuracy vs. Hspice (§V-C reports per-circuit
    delay error percentages). The repo's benchmarks track the first
    half; this module makes the second half a first-class observable,
    so solver, cache, parallel and incremental changes can never
    silently degrade QWM-vs-golden fidelity. An audit is deterministic
    up to wall-clock fields: two runs with the same catalog, config and
    step produce identical measurements (see {!equal_measurements}),
    which is what lets a persisted baseline gate regressions.

    Telemetry: every audited stage bumps the [audit.stages_audited]
    counter and feeds the [audit.delay_error_pct] and [audit.rms]
    histograms in the global {!Tqwm_obs.Metrics} registry; each workload
    is wrapped in an [audit] trace span, so [--trace] captures where
    audit time goes. *)

type stage_record = {
  workload : string;  (** catalog family the stage belongs to *)
  stage : string;  (** scenario name, unique within its workload *)
  golden_delay : float;  (** seconds, the reference *)
  qwm_delay : float;  (** seconds *)
  delay_error_pct : float;  (** [100 * |qwm - golden| / golden] *)
  accuracy_pct : float;  (** the paper's metric: [100 - delay_error_pct] *)
  golden_slew : float option;
  qwm_slew : float option;
  slew_error_pct : float option;  (** [None] unless both slews exist *)
  rms_pct_of_swing : float;  (** waveform RMS via {!Tqwm_wave.Compare} *)
  regions : int;  (** QWM quadratic regions solved *)
  newton_iterations : int;  (** QWM Newton iterations *)
  golden_seconds : float;  (** wall clock — excluded from equality *)
  qwm_seconds : float;  (** wall clock — excluded from equality *)
}

type summary = {
  name : string;  (** workload name, or ["overall"] *)
  stages : int;
  avg_accuracy_pct : float;
  worst_accuracy_pct : float;
  avg_delay_error_pct : float;
  max_delay_error_pct : float;
  avg_rms_pct : float;
  max_rms_pct : float;
  golden_seconds : float;
  qwm_seconds : float;
  runtime_ratio : float;
      (** golden/QWM wall clock — the audit's speed-up axis, so each run
          reproduces the paper's speed-accuracy trade-off point *)
}

type t = {
  workloads : (summary * stage_record list) list;
  overall : summary;
}

val catalog :
  ?smoke:bool -> Tqwm_device.Tech.t -> (string * Tqwm_circuit.Scenario.t list) list
(** The audited workload families, mirroring the paper's evaluation:
    ["chain"] (Table I inverter/NAND gates), ["random-stacks"] (Table II
    stacks), ["decoder-tree"] (Fig. 10 decoders) and ["awe-wires"]
    (stages whose wire runs are reduced to AWE/O'Brien-Savarino pi
    macromodels). [~smoke:true] selects a small deterministic subset for
    bounded test runs. Stage names are unique within each
    workload — they key baseline comparisons. *)

val run :
  ?config:Tqwm_core.Config.t ->
  ?dt:float ->
  ?domains:int ->
  ?workloads:(string * Tqwm_circuit.Scenario.t list) list ->
  Tqwm_device.Tech.t ->
  t
(** Run the audit: for every catalog stage, one golden transient (step
    [dt], default 1 ps) and one QWM solve under [config], compared into
    a {!stage_record}. [domains > 1] audits stages concurrently on that
    many OCaml domains, the catalog run as one level of
    {!Tqwm_sta.Parallel.run}; measurements are identical to the
    sequential run (both engines are deterministic — only the
    wall-clock fields differ). [workloads] overrides the default
    {!catalog}.
    @raise Failure if an engine reports no output crossing. *)

val equal_measurements : t -> t -> bool
(** Structural equality of everything except wall-clock fields
    ([golden_seconds], [qwm_seconds], [runtime_ratio]) — the relation
    under which audits are reproducible. *)

val to_json : t -> Tqwm_obs.Json.t
(** [{"schema": "tqwm-audit/1", "workloads": [...], "overall": {...}}] —
    the record appended to the [AUDIT_accuracy.json] ledger. *)

val of_json : Tqwm_obs.Json.t -> t
(** Inverse of {!to_json}; unknown fields (ledger [date]/[commit]
    stamps) are ignored.
    @raise Failure on a document that is not a [tqwm-audit/1] record. *)

val pp : Format.formatter -> t -> unit
(** Human-readable report: one table row per stage, one summary line per
    workload, and the overall accuracy/speed-up line. *)
