open Tqwm_circuit
open Tqwm_wave

type report = {
  scenario : Scenario.t;
  result : Transient.result;
  output : Waveform.t;
  delay : float option;
  slew : float option;
  runtime_seconds : float;
}

let run ~model ?(config = Transient.default_config) (scenario : Scenario.t) =
  let t0 = Unix.gettimeofday () in
  let result =
    Tqwm_obs.Trace.with_span ~name:("spice:" ^ scenario.Scenario.name) ~cat:"spice"
      (fun () -> Transient.simulate ~model ~config scenario)
  in
  let runtime_seconds = Unix.gettimeofday () -. t0 in
  let output = Transient.node_waveform result scenario.Scenario.output in
  let vdd = scenario.Scenario.tech.Tqwm_device.Tech.vdd in
  let delay =
    Measure.delay_from ~t0:0.0 ~vdd ~output ~output_edge:scenario.Scenario.output_edge
  in
  let slew = Measure.slew ~vdd output scenario.Scenario.output_edge in
  { scenario; result; output; delay; slew; runtime_seconds }
