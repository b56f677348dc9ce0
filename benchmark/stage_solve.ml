(* stage-solve: the paper's own experiment. Single stages — the Table I
   gates, the Manchester carry chain of Fig. 9, the decoder with π-model
   wires of Fig. 10 and random Table II stacks — are solved round-robin
   with QWM. One operation is one solve. Every solve must repeat the
   delay of the warm-up round, and every delay must be within 5 % of the
   1 ps reference engine. *)

open Tqwm_device
open Tqwm_circuit
module Qwm = Tqwm_core.Qwm

(* Random Table II stacks per length 5..10 (scaled by [--scale]). *)
let stacks_per_length = 50

let tolerance_pct = 5.0

let scenarios (s : Run.settings) =
  let tech = Run.tech in
  let rng = Random.State.make [| s.seed; 0x57ac |] in
  let stacks =
    List.concat_map
      (fun len ->
        List.init (Run.scaled s stacks_per_length) (fun _ ->
            Random_circuits.stack_scenario tech ~len ~seed:(Random.State.bits rng)))
      [ 5; 6; 7; 8; 9; 10 ]
  in
  [
    Scenario.inverter_falling tech;
    Scenario.nand_falling ~n:2 tech;
    Scenario.nand_falling ~n:3 tech;
    Scenario.nand_falling ~n:4 tech;
    Scenario.manchester ~bits:5 tech;
    Scenario.decoder ~levels:3 tech;
  ]
  @ stacks

type state = {
  model : Device_model.t;
  scenarios : Scenario.t array;
  delays : float option array;  (** from the warm-up round *)
}

let setup s () =
  let model = Models.table Run.tech in
  let scenarios = Array.of_list (scenarios s) in
  let delays = Array.map (fun sc -> (Qwm.run ~model sc).Qwm.delay) scenarios in
  { model; scenarios; delays }

(* A traced solve calls the two halves of [Qwm.run] separately, so the
   trace splits lowering from solving. *)
let solve ~spans model scenario =
  match spans with
  | None -> Qwm.run ~model scenario
  | Some t ->
    Span.op t "stage.solve" (fun () ->
        let config = Layers.config in
        let lowering =
          Span.with_span t "circuit.lower" (fun () -> Qwm.lower_scenario ~model ~config scenario)
        in
        Span.with_span t "core.solve" (fun () ->
            Qwm.run_on_lowering ~model ~config ~scenario lowering))

(* Solve round-robin for [seconds]; per-scenario operation and mismatch
   counts accumulate into [ops_on] and [mismatched]. *)
let measure st ~spans ~seconds ~ops_on ~mismatched =
  let n = Array.length st.scenarios in
  Timer.run_for ~seconds (fun i ->
      let k = i mod n in
      let repeated =
        match solve ~spans st.model st.scenarios.(k) with
        | r -> Option.is_some r.Qwm.delay && Option.equal Float.equal r.Qwm.delay st.delays.(k)
        | exception _ -> false
      in
      ops_on.(k) <- ops_on.(k) + 1;
      if not repeated then mismatched.(k) <- mismatched.(k) + 1)

let run (s : Run.settings) =
  let st, setup_s =
    Timer.repeat_setup ~repeats:Run.setup_repeats ~setup:(setup s) ~teardown:ignore
  in
  let n = Array.length st.scenarios in
  let ops_on = Array.make n 0 and mismatched = Array.make n 0 in
  let measure = measure st ~ops_on ~mismatched in
  let ops, errors, metrics =
    match s.spans with
    | None ->
      let ops, _ = measure ~spans:None ~seconds:s.seconds in
      let errors =
        Array.mapi
          (fun k sc ->
            Layers.error_pct ~reference:(Layers.reference_delay sc) st.delays.(k)
            |> Option.value ~default:infinity)
          st.scenarios
      in
      (Timer.Windows.count ops, errors, Run.end_to_end ~setup_s ops)
    | Some spans ->
      let ops, overhead =
        Run.traced_quarters ~seconds:s.seconds (fun ~traced ~seconds ->
            let ops, elapsed = measure ~spans:(if traced then Some spans else None) ~seconds in
            (Timer.Windows.count ops, elapsed))
      in
      let solved, solver = Layers.solver ~spans ~model:st.model (Array.to_list st.scenarios) in
      let errors, spice = Layers.spice ~spans solved in
      (ops, errors, (overhead :: solver) @ spice)
  in
  let within k = errors.(k) <= tolerance_pct in
  let failed =
    Array.fold_left ( + ) 0
      (Array.init n (fun k -> if within k then mismatched.(k) else ops_on.(k)))
  in
  {
    Run.attempted = ops;
    failed;
    checks =
      [
        ("every solve repeats its warm-up delay", Array.for_all (( = ) 0) mismatched);
        ( Printf.sprintf "every delay within %.0f%% of the 1 ps reference" tolerance_pct,
          Array.for_all Fun.id (Array.init n within) );
      ];
    metrics;
  }
