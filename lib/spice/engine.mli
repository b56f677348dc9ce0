(** High-level SPICE-engine API: run a scenario, return waveforms and
    timing metrics plus the wall-clock cost used in the speed-up tables. *)

open Tqwm_circuit
open Tqwm_wave

type report = {
  scenario : Scenario.t;
  result : Transient.result;
  output : Waveform.t;
  delay : float option;  (** 50% input-to-output delay *)
  slew : float option;  (** 10-90% output transition time *)
  runtime_seconds : float;  (** transient wall-clock time *)
}

val run :
  model:Tqwm_device.Device_model.t ->
  ?config:Transient.config ->
  Scenario.t ->
  report
