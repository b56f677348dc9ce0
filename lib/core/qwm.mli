(** Public QWM API: run a scenario through piecewise quadratic waveform
    matching and report waveforms, timing metrics and solver statistics. *)

open Tqwm_circuit
open Tqwm_wave

(** A report is deeply immutable — scenarios, lowerings, quadratics and
    solver stats are all plain data with no mutable fields — so one
    report may be shared freely across OCaml 5 domains. The STA layer's
    stage cache ([Tqwm_sta.Stage_cache]) hands the same report to every
    domain that hits; keep this invariant when extending the record. *)
type report = {
  scenario : Scenario.t;
  lowering : Path.lowering;  (** the chain actually solved *)
  output : Waveform.quadratic;  (** output-node waveform *)
  node_quadratics : (string * Waveform.quadratic) list;
      (** per chain node, keyed by the backing stage-node name *)
  delay : float option;  (** 50 % delay from the input switch at t = 0 *)
  slew : float option;  (** 10–90 % output transition time *)
  critical_times : float list;
  runtime_seconds : float;
  stats : Qwm_solver.stats;
}

val lower_scenario :
  model:Tqwm_device.Device_model.t -> config:Config.t -> Scenario.t -> Path.lowering
(** Extract the scenario's charge/discharge chain; when
    [config.reduce_wires] is set, runs of consecutive wire edges are
    collapsed into O'Brien–Savarino pi macromodels (single equivalent
    resistor edge, near/far capacitance folded into the adjacent nodes).
    @raise Path.No_path as {!Scenario.lower}. *)

val run :
  model:Tqwm_device.Device_model.t ->
  ?config:Config.t ->
  ?workspace:Qwm_solver.Workspace.t ->
  Scenario.t ->
  report
(** [workspace] supplies the solver's scratch buffers (default: the
    calling domain's); the report is bit-identical either way.
    @raise Path.No_path, naming the scenario, when no path conducts. *)

val run_on_lowering :
  model:Tqwm_device.Device_model.t ->
  ?config:Config.t ->
  ?workspace:Qwm_solver.Workspace.t ->
  scenario:Scenario.t ->
  Path.lowering ->
  report
(** Run on a pre-lowered chain (lets benchmarks exclude lowering cost or
    supply custom chains). *)

val output_waveform : report -> dt:float -> Waveform.t
(** Densified output waveform for comparison against a SPICE trace. *)

val node_delay : report -> string -> float option
(** 50 % crossing time (from t = 0) of a named chain node — e.g. the
    per-bit carry arrivals of a Manchester chain, all from one solve. *)

val node_current : report -> string -> dt:float -> Waveform.t
(** Charge/discharge current of a named chain node, [I = C dv/dt],
    derived analytically from the quadratic pieces (piecewise linear by
    construction — paper Eq. (2) and Fig. 7). Sampled every [dt].
    @raise Not_found for an unknown node name. *)

val switching_energy : report -> float
(** Magnitude of the change in capacitively stored energy over the solved
    transition, [sum_k (C_k / 2) |v_start^2 - v_end^2|] over the chain
    nodes: the energy dissipated in the discharge devices for a falling
    transition, or the non-supply half of the charging energy for a
    rising one. A byproduct of waveform evaluation that plain delay/slope
    timing cannot provide. *)
