(* Per-layer profile of the stage solver and the reference engine, made
   by replaying a workload's distinct stage scenarios through the public
   calls of each layer:

   - circuit: [Qwm.lower_scenario];
   - core: [Qwm.run_on_lowering] and the solver statistics it returns;
   - device: the [Device_model.t] closures the solver calls, counted
     through a wrapping model and timed by replaying the recorded
     arguments through the unwrapped model;
   - num: [Bordered.solve_into] at each scenario's chain size, as many
     times as the solver solved a linear system;
   - spice: [Engine.run] at 1 ps and 10 ps. *)

open Tqwm_device
open Tqwm_circuit
module Qwm = Tqwm_core.Qwm
module Qwm_solver = Tqwm_core.Qwm_solver
module Engine = Tqwm_spice.Engine
module Transient = Tqwm_spice.Transient
module Bordered = Tqwm_num.Bordered
module Vec = Tqwm_num.Vec

let config = Tqwm_core.Config.default

(* ---- device calls ---- *)

(* The closures the QWM solver calls. *)
type call_kind = Iv | Iv_derivatives_into | Threshold

type call = { kind : call_kind; device : Device.t; input : float; src : float; snk : float }

(* At most this many calls, spread over the profiled stages, keep their
   arguments for the replay; every call is counted. *)
let recorded_calls = 100_000

(* [model] with the closures the solver calls counted, and the
   arguments of the first [cap] calls recorded. *)
let counting (model : Device_model.t) ~cap =
  let calls = ref 0 and recorded = ref [] in
  let record kind device (tv : Device_model.terminal_voltages) =
    if !calls < cap then
      recorded := { kind; device; input = tv.input; src = tv.src; snk = tv.snk } :: !recorded;
    incr calls
  in
  let counted =
    {
      model with
      Device_model.iv =
        (fun d tv ->
          record Iv d tv;
          model.iv d tv);
      iv_derivatives_into =
        (fun d tv out ->
          record Iv_derivatives_into d tv;
          model.iv_derivatives_into d tv out);
      threshold =
        (fun d tv ->
          record Threshold d tv;
          model.threshold d tv);
    }
  in
  (counted, calls, recorded)

let replay_calls (model : Device_model.t) calls =
  let tv = { Device_model.input = 0.0; src = 0.0; snk = 0.0 } in
  let out = Device_model.derivs () in
  let sink = ref 0.0 in
  Array.iter
    (fun c ->
      tv.input <- c.input;
      tv.src <- c.src;
      tv.snk <- c.snk;
      match c.kind with
      | Iv -> sink := !sink +. model.iv c.device tv
      | Iv_derivatives_into ->
        model.iv_derivatives_into c.device tv out;
        sink := !sink +. out.dsrc
      | Threshold -> sink := !sink +. model.threshold c.device tv)
    calls;
  ignore (Sys.opaque_identity !sink)

(* ---- linear solves ---- *)

(* [count] bordered solves of a diagonally dominant system whose
   tridiagonal core has [n] rows — the shape of a region solve over an
   [n]-node chain. *)
let bordered_solves ~n ~count =
  let cap = n + 1 in
  let vec v = Vec.init cap (fun _ -> v) in
  let lower = vec (-0.1) and diag = vec 4.0 and upper = vec (-0.2) in
  let last_col = vec 0.3 and last_row = vec 0.2 and b = vec 1.0 in
  let cp = Vec.create cap and dp = Vec.create cap and y = Vec.create cap in
  let z = Vec.create cap and x = Vec.create cap in
  for _ = 1 to count do
    Bordered.solve_into ~n ~lower ~diag ~upper ~last_col ~last_row ~corner:5.0 ~cp ~dp ~y ~z
      ~b ~x
  done

(* ---- solver profile ---- *)

type solved = {
  scenario : Scenario.t;
  lower_s : float;  (** one [Qwm.lower_scenario] *)
  solve_s : float;  (** one [Qwm.run_on_lowering] *)
  delay : float option;
}

(* Mean seconds of [f] over enough calls to fill [budget] seconds (at
   least [min_calls]), after one untimed call. *)
let mean_time ?(budget = 2e-3) ?(min_calls = 3) f =
  ignore (Sys.opaque_identity (f ()));
  let (), first = Timer.time (fun () -> ignore (Sys.opaque_identity (f ()))) in
  let calls = max min_calls (int_of_float (budget /. Float.max first 1e-7)) in
  let (), dt =
    Timer.time (fun () ->
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  dt /. float_of_int calls

(* Profile the solver over distinct scenarios; the per-scenario timings
   and the per-layer metrics. *)
let solver ~spans ~model scenarios =
  let n = List.length scenarios in
  let regions = ref 0 and newton = ref 0 and linear = ref 0 in
  let bisections = ref 0 and failures = ref 0 and alloc_words = ref 0.0 in
  let device_calls = ref 0 and recorded = ref [] in
  let chain_solves = ref [] in
  let solved =
    List.map
      (fun scenario ->
        let lowering = Qwm.lower_scenario ~model ~config scenario in
        let lower_s =
          Span.with_span spans "circuit.lower" (fun () ->
              mean_time (fun () -> Qwm.lower_scenario ~model ~config scenario))
        in
        let solve_s =
          Span.with_span spans "core.solve" (fun () ->
              mean_time (fun () -> Qwm.run_on_lowering ~model ~config ~scenario lowering))
        in
        let words0 = Gc.minor_words () in
        let report = Qwm.run_on_lowering ~model ~config ~scenario lowering in
        alloc_words := !alloc_words +. (Gc.minor_words () -. words0);
        let st = report.Qwm.stats in
        regions := !regions + st.Qwm_solver.regions;
        newton := !newton + st.Qwm_solver.newton_iterations;
        linear := !linear + st.Qwm_solver.linear_solves;
        bisections := !bisections + st.Qwm_solver.bisections;
        failures := !failures + st.Qwm_solver.failures;
        chain_solves :=
          (Chain.length lowering.Path.chain, st.Qwm_solver.linear_solves) :: !chain_solves;
        let counted, calls, record = counting model ~cap:(recorded_calls / max 1 n) in
        ignore (Qwm.run_on_lowering ~model:counted ~config ~scenario lowering);
        device_calls := !device_calls + !calls;
        recorded := List.rev_append !record !recorded;
        { scenario; lower_s; solve_s; delay = report.Qwm.delay })
      scenarios
  in
  let replay = Array.of_list !recorded in
  let device_s =
    Span.with_span spans "device.replay" (fun () ->
        mean_time ~budget:0.05 (fun () -> replay_calls model replay))
    /. float_of_int (max 1 (Array.length replay))
  in
  let num_s =
    Span.with_span spans "num.replay" (fun () ->
        mean_time ~budget:0.05 (fun () ->
            List.iter (fun (n, count) -> bordered_solves ~n ~count) !chain_solves))
    /. float_of_int (max 1 !linear)
  in
  let solve_total = List.fold_left (fun acc s -> acc +. s.solve_s) 0.0 solved in
  let per_region x = float_of_int x /. float_of_int (max 1 !regions) in
  let per_solve x = float_of_int x /. float_of_int (max 1 n) in
  let mean f = List.fold_left (fun acc s -> acc +. f s) 0.0 solved /. float_of_int (max 1 n) in
  let device_pct = 100.0 *. float_of_int !device_calls *. device_s /. solve_total in
  let num_pct = 100.0 *. float_of_int !linear *. num_s /. solve_total in
  ( solved,
    [
      ("circuit.lower_us", mean (fun s -> s.lower_s) *. 1e6);
      ("core.solve_us", mean (fun s -> s.solve_s) *. 1e6);
      ("core.regions_per_solve", per_solve !regions);
      ("core.newton_per_region", per_region !newton);
      ("core.linear_solves_per_region", per_region !linear);
      ("core.bisections_per_solve", per_solve !bisections);
      ("core.unconverged_regions", float_of_int !failures);
      ("core.alloc_words_per_region", !alloc_words /. float_of_int (max 1 !regions));
      ("device.calls_per_region", per_region !device_calls);
      ("device.ns_per_call", device_s *. 1e9);
      ("num.ns_per_linear_solve", num_s *. 1e9);
      ("device.share_pct", device_pct);
      ("num.share_pct", num_pct);
      ("core.unattributed_pct", 100.0 -. device_pct -. num_pct);
    ] )

(* ---- reference engine ---- *)

let golden = lazy (Models.golden Tech.cmosp35)

let spice_config dt = { Transient.default_config with Transient.dt }

(* The 1 ps reference delay of a scenario. *)
let reference_delay scenario =
  (Engine.run ~model:(Lazy.force golden) ~config:(spice_config 1e-12) scenario).Engine.delay

let error_pct ~reference delay =
  match (reference, delay) with
  | Some r, Some d when r > 0.0 ->
    Some (Tqwm_num.Stats.percent (Tqwm_num.Stats.relative_error ~reference:r d))
  | (Some _ | None), _ -> None

(* Reference-engine cost and QWM accuracy over solved scenarios: each
   scenario's delay error in percent (infinite when either engine
   reports no delay), and the layer metrics. *)
let spice ~spans solved =
  let model = Lazy.force golden in
  let n = float_of_int (max 1 (List.length solved)) in
  let t1 = ref 0.0 and t10 = ref 0.0 and steps = ref 0 and nr = ref 0 in
  let qwm = ref 0.0 and errors = ref [] in
  List.iter
    (fun s ->
      let r1, dt1 =
        Timer.time (fun () ->
            Span.with_span spans "spice.run_1ps" (fun () ->
                Engine.run ~model ~config:(spice_config 1e-12) s.scenario))
      in
      let (_ : Engine.report), dt10 =
        Timer.time (fun () ->
            Span.with_span spans "spice.run_10ps" (fun () ->
                Engine.run ~model ~config:(spice_config 10e-12) s.scenario))
      in
      let st = r1.Engine.result.Transient.stats in
      t1 := !t1 +. dt1;
      t10 := !t10 +. dt10;
      steps := !steps + st.Transient.steps;
      nr := !nr + st.Transient.nonlinear_iterations;
      qwm := !qwm +. s.lower_s +. s.solve_s;
      errors :=
        Option.value (error_pct ~reference:r1.Engine.delay s.delay) ~default:infinity
        :: !errors)
    solved;
  let errors = Array.of_list (List.rev !errors) in
  ( errors,
  [
    ("spice.ms_per_solve_1ps", !t1 /. n *. 1e3);
    ("spice.ms_per_solve_10ps", !t10 /. n *. 1e3);
    ("spice.steps_per_solve", float_of_int !steps /. n);
    ("spice.nr_per_step", float_of_int !nr /. float_of_int (max 1 !steps));
    ("paper.speedup_1ps", !t1 /. !qwm);
    ("paper.speedup_10ps", !t10 /. !qwm);
    ("paper.delay_err_mean_pct", Array.fold_left ( +. ) 0.0 errors /. n);
    ("paper.delay_err_max_pct", Array.fold_left Float.max 0.0 errors);
  ] )

(* The solves a graph workload times on the reference engine: at most
   24 (scaled by [--scale]), spread evenly over the distinct solves. *)
let reference_sample s solved =
  let k = Run.scaled ~floor:2 s 24 in
  let a = Array.of_list solved in
  let n = Array.length a in
  if n <= k then solved else List.init k (fun i -> a.(i * n / k))
