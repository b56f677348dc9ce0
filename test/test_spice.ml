(* Tests for the SPICE-like reference engine: MNA stamping, DC operating
   points and the transient integrator against analytic solutions. *)

open Tqwm_device
open Tqwm_circuit
module Transient = Tqwm_spice.Transient
module Engine = Tqwm_spice.Engine
module Waveform = Tqwm_wave.Waveform

let tech = Tech.cmosp35

let golden = Models.golden tech

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* A linear RC scenario: one wire from a precharged node to ground. The
   transient must follow v(t) = v0 exp(-t / RC) exactly (up to the
   integration error), giving an analytic oracle for the engine. *)
let rc_scenario ?(load = 20e-15) () =
  let b = Stage.create () in
  let n = Stage.add_node b "n" in
  let wire = Device.wire ~w:1e-6 ~l:200e-6 in
  Stage.add_edge b wire ~src:n ~snk:(Stage.ground b);
  Stage.add_load b n load;
  Stage.mark_output b n;
  let stage = Stage.finish b in
  ignore load;
  let r = Capacitance.wire_resistance tech ~w:1e-6 ~l:200e-6 in
  let c = Stage.node_capacitance golden stage n ~v:0.0 in
  let tau = r *. c in
  let scenario =
    {
      Scenario.name = "rc";
      tech;
      stage;
      sources = [];
      output = n;
      output_edge = Tqwm_wave.Measure.Falling;
      rail = Chain.Pull_down;
      t_end = 5.0 *. tau;
      initial =
        Array.init stage.Stage.num_nodes (fun i ->
            if i = stage.Stage.supply then tech.Tech.vdd
            else if i = stage.Stage.ground then 0.0
            else tech.Tech.vdd);
    }
  in
  (scenario, tau)

let test_rc_discharge_matches_exponential () =
  let scenario, tau = rc_scenario () in
  let config = { Transient.default_config with Transient.dt = tau /. 500.0 } in
  let result = Transient.simulate ~model:golden ~config scenario in
  let w = Transient.node_waveform result scenario.Scenario.output in
  List.iter
    (fun frac ->
      let t = frac *. tau in
      check_close ~eps:5e-3 "exponential decay"
        (tech.Tech.vdd *. exp (-.frac))
        (Waveform.value_at w t))
    [ 0.5; 1.0; 2.0; 3.0 ]

let test_trapezoidal_more_accurate_than_be () =
  let scenario, tau = rc_scenario () in
  let run integration =
    let config =
      { Transient.default_config with Transient.dt = tau /. 20.0; integration }
    in
    let result = Transient.simulate ~model:golden ~config scenario in
    let w = Transient.node_waveform result scenario.Scenario.output in
    Float.abs (Waveform.value_at w tau -. (tech.Tech.vdd *. exp (-1.0)))
  in
  let err_be = run Transient.Backward_euler in
  let err_trap = run Transient.Trapezoidal in
  Alcotest.(check bool) "trapezoidal beats backward Euler" true (err_trap < err_be)

let test_inverter_full_swing () =
  let scenario = Scenario.inverter_falling tech in
  let report = Engine.run ~model:golden scenario in
  let lo, hi = Tqwm_wave.Measure.swing report.Engine.output in
  check_close ~eps:1e-2 "discharges to 0" 0.0 lo;
  check_close ~eps:1e-6 "starts at vdd" tech.Tech.vdd hi;
  Alcotest.(check bool) "delay measured" true (report.Engine.delay <> None);
  Alcotest.(check bool) "converged" true
    report.Engine.result.Transient.stats.Transient.converged

let test_nor_rises_to_vdd () =
  let report = Engine.run ~model:golden (Scenario.nor_rising ~n:2 tech) in
  let _, hi = Tqwm_wave.Measure.swing report.Engine.output in
  check_close ~eps:1e-2 "charges to vdd" tech.Tech.vdd hi

let test_step_sizes_agree () =
  let scenario = Scenario.nand_falling ~n:3 tech in
  let run dt =
    let config = { Transient.default_config with Transient.dt } in
    (Engine.run ~model:golden ~config scenario).Engine.delay
  in
  match (run 1e-12, run 10e-12) with
  | Some d1, Some d10 ->
    Alcotest.(check bool) "within 5%" true (Float.abs (d10 -. d1) /. d1 < 0.05)
  | _ -> Alcotest.fail "delays expected"

let test_solvers_agree () =
  let scenario = Scenario.nand_falling ~n:2 tech in
  let run solver max_iterations =
    let config = { Transient.default_config with Transient.solver; max_iterations } in
    (Engine.run ~model:golden ~config scenario).Engine.delay
  in
  match (run Transient.Newton_raphson 50, run Transient.Successive_chord 400) with
  | Some nr, Some sc ->
    Alcotest.(check bool) "NR and successive-chord agree" true
      (Float.abs (sc -. nr) /. nr < 0.02)
  | _ -> Alcotest.fail "delays expected"

let test_voltage_dependent_caps_slower () =
  (* junction caps grow at low reverse bias: discharging gets a larger
     effective load, so the voltage-dependent run must be slower *)
  let scenario = Scenario.nand_falling ~n:2 tech in
  let run voltage_dependent_caps =
    let config = { Transient.default_config with Transient.voltage_dependent_caps } in
    (Engine.run ~model:golden ~config scenario).Engine.delay
  in
  match (run false, run true) with
  | Some fixed, Some varying ->
    Alcotest.(check bool) "voltage-dependent caps increase delay" true (varying > fixed)
  | _ -> Alcotest.fail "delays expected"

let test_record_currents () =
  let scenario = Scenario.inverter_falling tech in
  let config = { Transient.default_config with Transient.record_currents = true } in
  let result = Transient.simulate ~model:golden ~config scenario in
  let w = Transient.edge_current_waveform result 0 in
  let _, peak = Tqwm_wave.Measure.swing w in
  Alcotest.(check bool) "nmos discharge current flows" true (peak > 1e-5);
  let no_currents = Transient.simulate ~model:golden ~config:Transient.default_config scenario in
  Alcotest.check_raises "currents not recorded"
    (Invalid_argument "Transient.edge_current_waveform: currents not recorded")
    (fun () -> ignore (Transient.edge_current_waveform no_currents 0))

let test_stack_cascade_order () =
  (* nodes closer to ground discharge earlier: x1 hits 50% before out *)
  let scenario = Scenario.stack_falling ~widths:(Array.make 4 1.6e-6) tech in
  let result = Transient.simulate ~model:golden ~config:Transient.default_config scenario in
  let crossing name =
    let node = Builders.find_node scenario.Scenario.stage name in
    Waveform.first_crossing
      (Transient.node_waveform result node)
      ~level:(tech.Tech.vdd /. 2.0) ~direction:`Falling
  in
  match (crossing "x1", crossing "out") with
  | Some t1, Some t_out -> Alcotest.(check bool) "bottom first" true (t1 < t_out)
  | _ -> Alcotest.fail "crossings expected"

let test_adaptive_matches_fixed () =
  let scenario = Scenario.stack_falling ~widths:(Array.make 5 1.6e-6) tech in
  let fixed = Engine.run ~model:golden scenario in
  let adaptive = Engine.run ~model:golden ~config:(Transient.adaptive_config ()) scenario in
  (match (fixed.Engine.delay, adaptive.Engine.delay) with
  | Some a, Some b ->
    Alcotest.(check bool) "delays agree within 2%" true (Float.abs (b -. a) /. a < 0.02)
  | _ -> Alcotest.fail "delays expected");
  let s = adaptive.Engine.result.Transient.stats in
  Alcotest.(check bool) "fewer steps than fixed 1ps" true
    (s.Transient.steps < fixed.Engine.result.Transient.stats.Transient.steps);
  Alcotest.(check bool) "converged" true s.Transient.converged

let test_adaptive_tolerance_controls_steps () =
  let scenario = Scenario.nand_falling ~n:2 tech in
  let steps lte_tolerance =
    let config = Transient.adaptive_config ~lte_tolerance () in
    (Transient.simulate ~model:golden ~config scenario).Transient.stats.Transient.steps
  in
  Alcotest.(check bool) "tighter tolerance, more steps" true (steps 0.2e-3 > steps 5e-3)

let test_adaptive_times_monotone () =
  let scenario = Scenario.inverter_falling tech in
  let result =
    Transient.simulate ~model:golden ~config:(Transient.adaptive_config ()) scenario
  in
  let ok = ref true in
  for i = 1 to Array.length result.Transient.times - 1 do
    if result.Transient.times.(i) <= result.Transient.times.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "strictly increasing sample times" true !ok;
  let last = result.Transient.times.(Array.length result.Transient.times - 1) in
  Alcotest.(check bool) "covers the window" true
    (last >= scenario.Scenario.t_end -. 1e-15)

let test_simulate_validation () =
  let scenario = Scenario.inverter_falling tech in
  let simulate dt () =
    ignore
      (Transient.simulate ~model:golden
         ~config:{ Transient.default_config with Transient.dt }
         scenario)
  in
  Alcotest.check_raises "dt" (Invalid_argument "Transient.simulate: dt <= 0") (simulate 0.0);
  (* a NaN step passes [dt <= 0] and an infinite one takes no step:
     either would end in an empty, silently wrong simulation *)
  List.iter
    (fun dt ->
      Alcotest.check_raises (Printf.sprintf "dt = %g" dt)
        (Invalid_argument "Transient.simulate: dt is not finite") (simulate dt))
    [ Float.nan; Float.infinity ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "tqwm_spice"
    [
      ( "linear oracle",
        [
          quick "RC discharge" test_rc_discharge_matches_exponential;
          quick "trapezoidal accuracy" test_trapezoidal_more_accurate_than_be;
        ] );
      ( "transient",
        [
          quick "inverter full swing" test_inverter_full_swing;
          quick "nor rises" test_nor_rises_to_vdd;
          slow "step sizes agree" test_step_sizes_agree;
          slow "solvers agree" test_solvers_agree;
          quick "voltage-dependent caps" test_voltage_dependent_caps_slower;
          quick "record currents" test_record_currents;
          quick "cascade order" test_stack_cascade_order;
        ] );
      ( "adaptive",
        [
          slow "matches fixed" test_adaptive_matches_fixed;
          quick "tolerance controls steps" test_adaptive_tolerance_controls_steps;
          quick "times monotone" test_adaptive_times_monotone;
        ] );
      ("validation", [ quick "simulate" test_simulate_validation ]);
    ]
