(** Time-domain transient simulation — the "SPICE-like" reference engine
    the paper benchmarks QWM against: numerical integration with a
    Newton–Raphson (or TETA-style successive-chord) solve at every time
    step. Fixed-step (the paper's 1 ps / 10 ps setting) or adaptive
    stepping with a local-truncation-error controller (the
    "adaptively controlled" fast-SPICE methodology of Devgan & Rohrer,
    cited as related work). *)

open Tqwm_circuit

type solver = Newton_raphson | Successive_chord

type integration = Backward_euler | Trapezoidal

type step_control =
  | Fixed
  | Adaptive of {
      lte_tolerance : float;  (** volts of estimated local error per step *)
      dt_min : float;
      dt_max : float;
    }

type config = {
  dt : float;  (** fixed step size, or the adaptive controller's initial step *)
  solver : solver;
  integration : integration;
  step_control : step_control;
  max_iterations : int;
      (** per-step nonlinear iteration cap; each step's residual
          tolerance is {!Tqwm_num.Newton}'s fixed 1e-9 A *)
  voltage_dependent_caps : bool;
      (** re-evaluate junction capacitances at each step's starting
          voltages instead of freezing them at the initial bias *)
  record_currents : bool;  (** keep per-edge current traces (Fig. 7) *)
}

val default_config : config
(** 1 ps fixed-step backward-Euler Newton–Raphson, constant caps. *)

val adaptive_config : ?lte_tolerance:float -> unit -> config
(** Adaptive stepping between 0.05 ps and 20 ps with a 2 mV default LTE
    target. *)

type stats = {
  steps : int;  (** accepted steps *)
  rejected_steps : int;  (** adaptive retries *)
  nonlinear_iterations : int;  (** summed over all attempts *)
  max_step_iterations : int;
  stalled_steps : int;
      (** steps whose Newton solve took the step-stall exit (see
          {!Tqwm_num.Newton.outcome}); accepted at loosened tolerance *)
  converged : bool;  (** false if any accepted step hit the iteration cap *)
}

type result = {
  times : float array;
  voltages : float array array;  (** [voltages.(step).(stage_node)] *)
  currents : float array array option;  (** [currents.(step).(edge)] src->snk *)
  stats : stats;
}

val simulate :
  model:Tqwm_device.Device_model.t -> config:config -> Scenario.t -> result

val node_waveform : result -> Stage.node -> Tqwm_wave.Waveform.t

val edge_current_waveform : result -> int -> Tqwm_wave.Waveform.t
(** @raise Invalid_argument when currents were not recorded. *)
