open Tqwm_circuit
module Vec = Tqwm_num.Vec
module Mat = Tqwm_num.Mat
module Lu = Tqwm_num.Lu
module Waveform = Tqwm_wave.Waveform
module Metrics = Tqwm_obs.Metrics
module Trace = Tqwm_obs.Trace
module Json = Tqwm_obs.Json

(* Global reference-engine telemetry; bulk counters are settled once per
   simulate call, only the per-step histogram updates inside the loop. *)
let c_transients = Metrics.counter "spice.transients"
let c_steps = Metrics.counter "spice.steps"
let c_rejected = Metrics.counter "spice.rejected_steps"
let c_newton = Metrics.counter "spice.newton_iterations"
let c_stalled = Metrics.counter "spice.newton_stalled"

let h_newton_per_step =
  Metrics.histogram "spice.newton_per_step"
    ~bounds:[| 1.0; 2.0; 3.0; 5.0; 8.0; 13.0; 21.0; 34.0 |]

type solver = Newton_raphson | Successive_chord

type integration = Backward_euler | Trapezoidal

type step_control =
  | Fixed
  | Adaptive of { lte_tolerance : float; dt_min : float; dt_max : float }

type config = {
  dt : float;
  solver : solver;
  integration : integration;
  step_control : step_control;
  max_iterations : int;
  voltage_dependent_caps : bool;
  record_currents : bool;
}

let default_config =
  {
    dt = 1e-12;
    solver = Newton_raphson;
    integration = Backward_euler;
    step_control = Fixed;
    max_iterations = 50;
    voltage_dependent_caps = false;
    record_currents = false;
  }

let adaptive_config ?(lte_tolerance = 2e-3) () =
  {
    default_config with
    dt = 0.5e-12;
    step_control = Adaptive { lte_tolerance; dt_min = 0.05e-12; dt_max = 20e-12 };
  }

type stats = {
  steps : int;
  rejected_steps : int;
  nonlinear_iterations : int;
  max_step_iterations : int;
  stalled_steps : int;
  converged : bool;
}

type result = {
  times : float array;
  voltages : float array array;
  currents : float array array option;
  stats : stats;
}

(* Chord conductances for the successive-chord solver (TETA keeps one
   constant admittance matrix for the whole transient). Following the
   successive-chord convergence condition, each edge's chord is the
   largest small-signal conductance it exhibits over the operating range,
   found by sampling the bias grid with settled inputs. *)
let chord_matrix ctx ~dt caps =
  let scenario = ctx.Mna.scenario in
  let stage = scenario.Scenario.stage in
  let model = ctx.Mna.model in
  let vdd = scenario.Scenario.tech.Tqwm_device.Tech.vdd in
  let time = scenario.Scenario.t_end in
  let n = Mna.dimension ctx.Mna.index in
  let j = Mat.create n n in
  let biases = [ 0.0; 0.25 *. vdd; 0.5 *. vdd; 0.75 *. vdd; vdd ] in
  let d = Tqwm_device.Device_model.derivs () in
  Array.iter
    (fun (e : Tqwm_circuit.Stage.edge) ->
      let input =
        match e.gate with
        | None -> 0.0
        | Some g -> Tqwm_circuit.Scenario.gate_value scenario g time
      in
      let g_max = ref 1e-12 in
      List.iter
        (fun src ->
          List.iter
            (fun snk ->
              let tv = { Tqwm_device.Device_model.input; src; snk } in
              model.Tqwm_device.Device_model.iv_derivatives_into e.device tv d;
              g_max :=
                Float.max !g_max
                  (Float.max (Float.abs d.Tqwm_device.Device_model.dsrc)
                     (Float.abs d.Tqwm_device.Device_model.dsnk)))
            biases)
        biases;
      let g = !g_max in
      let src_u = ctx.Mna.index.of_node.(e.src)
      and snk_u = ctx.Mna.index.of_node.(e.snk) in
      if src_u >= 0 then Mat.add_to j src_u src_u g;
      if snk_u >= 0 then Mat.add_to j snk_u snk_u g;
      if src_u >= 0 && snk_u >= 0 then begin
        Mat.add_to j src_u snk_u (-.g);
        Mat.add_to j snk_u src_u (-.g)
      end)
    stage.Tqwm_circuit.Stage.edges;
  for i = 0 to n - 1 do
    Mat.add_to j i i (caps.{i} /. dt)
  done;
  j

(* one implicit step from (t_prev, x_prev) to t_prev + dt *)
let implicit_step ctx ~config ~caps ~chord ~t_prev ~dt x_prev =
  let n = Vec.dim x_prev in
  let t = t_prev +. dt in
  let f_prev =
    match config.integration with
    | Trapezoidal -> Mna.out_currents ctx ~time:t_prev x_prev
    | Backward_euler -> Vec.create 0
  in
  let residual xv =
    let f = Mna.out_currents ctx ~time:t xv in
    Vec.init n (fun i ->
        let dyn = caps.{i} *. (xv.{i} -. x_prev.{i}) /. dt in
        match config.integration with
        | Backward_euler -> dyn +. f.{i}
        | Trapezoidal -> dyn +. (0.5 *. (f.{i} +. f_prev.{i})))
  in
  let jacobian xv =
    let g = Mna.conductance ctx ~time:t xv in
    let scale =
      match config.integration with Backward_euler -> 1.0 | Trapezoidal -> 0.5
    in
    let j = Mat.scale scale g in
    for i = 0 to n - 1 do
      Mat.add_to j i i (caps.{i} /. dt)
    done;
    j
  in
  let solve_linearized =
    match chord with
    | Some factor -> fun _ f -> Lu.solve_factored factor f
    | None -> fun xv f -> Lu.solve (jacobian xv) f
  in
  Tqwm_num.Newton.solve ~max_iterations:config.max_iterations
    { Tqwm_num.Newton.residual; solve_linearized }
    x_prev

let simulate ~model ~config (scenario : Scenario.t) =
  if config.dt <= 0.0 then invalid_arg "Transient.simulate: dt <= 0";
  if not (Float.is_finite config.dt) then invalid_arg "Transient.simulate: dt is not finite";
  let ctx = Mna.make_context ~model scenario in
  let n = Mna.dimension ctx.Mna.index in
  let stage = scenario.stage in
  let base_caps = Mna.capacitances ctx in
  let times = ref [] and voltages = ref [] and currents = ref [] in
  let record t xv =
    times := t :: !times;
    let full = Mna.full_voltages ctx xv in
    voltages := full :: !voltages;
    if config.record_currents then
      currents :=
        Array.map (fun e -> Mna.edge_current ctx ~time:t full e) stage.Stage.edges
        :: !currents
  in
  let total_iters = ref 0
  and max_iters = ref 0
  and accepted = ref 0
  and rejected = ref 0
  and stalled = ref 0
  and all_converged = ref true in
  let account (outcome : Tqwm_num.Newton.outcome) =
    total_iters := !total_iters + outcome.Tqwm_num.Newton.iterations;
    max_iters := max !max_iters outcome.Tqwm_num.Newton.iterations;
    if outcome.Tqwm_num.Newton.stalled then incr stalled;
    Metrics.observe h_newton_per_step (float_of_int outcome.Tqwm_num.Newton.iterations)
  in
  let chord_cache = ref None in
  let chord_for dt =
    match config.solver with
    | Newton_raphson -> None
    | Successive_chord ->
      (match !chord_cache with
      | Some (cached_dt, factor) when cached_dt = dt -> Some factor
      | Some _ | None ->
        let factor = Lu.factorize (chord_matrix ctx ~dt base_caps) in
        chord_cache := Some (dt, factor);
        Some factor)
  in
  let caps_at x_prev =
    if config.voltage_dependent_caps then begin
      let full_prev = Mna.full_voltages ctx x_prev in
      Mna.capacitances ~at:(fun node -> full_prev.(node)) ctx
    end
    else base_caps
  in
  let x0 = Vec.init n (fun i -> scenario.initial.(ctx.Mna.index.unknowns.(i))) in
  record 0.0 x0;
  (match config.step_control with
  | Fixed ->
    let steps = int_of_float (Float.ceil (scenario.t_end /. config.dt)) in
    let x = ref x0 in
    for step = 1 to steps do
      let t_prev = float_of_int (step - 1) *. config.dt in
      let caps = caps_at !x in
      let outcome =
        implicit_step ctx ~config ~caps ~chord:(chord_for config.dt) ~t_prev
          ~dt:config.dt !x
      in
      account outcome;
      if not outcome.Tqwm_num.Newton.converged then all_converged := false;
      incr accepted;
      x := outcome.Tqwm_num.Newton.x;
      record (float_of_int step *. config.dt) !x
    done
  | Adaptive { lte_tolerance; dt_min; dt_max } ->
    (* accept/reject on the difference between the implicit solution and
       a forward-Euler predictor: a first-order local-error estimate *)
    let rec advance t x dt =
      if t < scenario.t_end -. 1e-18 then begin
        let dt = Float.min dt (scenario.t_end -. t) in
        let caps = caps_at x in
        let outcome = implicit_step ctx ~config ~caps ~chord:(chord_for dt) ~t_prev:t ~dt x in
        account outcome;
        let x_new = outcome.Tqwm_num.Newton.x in
        let f_prev = Mna.out_currents ctx ~time:t x in
        let err = ref 0.0 in
        for i = 0 to n - 1 do
          let predictor = x.{i} -. (dt *. f_prev.{i} /. caps.{i}) in
          err := Float.max !err (Float.abs (x_new.{i} -. predictor) /. 2.0)
        done;
        if (!err > lte_tolerance || not outcome.Tqwm_num.Newton.converged)
           && dt > dt_min *. 1.0001
        then begin
          incr rejected;
          advance t x (Float.max (dt /. 2.0) dt_min)
        end
        else begin
          if not outcome.Tqwm_num.Newton.converged then all_converged := false;
          incr accepted;
          record (t +. dt) x_new;
          let dt' =
            if !err < lte_tolerance /. 4.0 then Float.min (dt *. 1.5) dt_max else dt
          in
          advance (t +. dt) x_new dt'
        end
      end
    in
    advance 0.0 x0 config.dt);
  Metrics.incr c_transients;
  Metrics.add c_steps !accepted;
  Metrics.add c_rejected !rejected;
  Metrics.add c_newton !total_iters;
  Metrics.add c_stalled !stalled;
  {
    times = Array.of_list (List.rev !times);
    voltages = Array.of_list (List.rev !voltages);
    currents =
      (if config.record_currents then Some (Array.of_list (List.rev !currents)) else None);
    stats =
      {
        steps = !accepted;
        rejected_steps = !rejected;
        nonlinear_iterations = !total_iters;
        max_step_iterations = !max_iters;
        stalled_steps = !stalled;
        converged = !all_converged;
      };
  }

let node_waveform result node =
  Waveform.of_samples
    (Array.mapi (fun i t -> (t, result.voltages.(i).(node))) result.times)

let edge_current_waveform result edge =
  match result.currents with
  | None -> invalid_arg "Transient.edge_current_waveform: currents not recorded"
  | Some cur ->
    Waveform.of_samples (Array.mapi (fun i t -> (t, cur.(i).(edge))) result.times)
