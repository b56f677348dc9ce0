open Tqwm_device
open Tqwm_wave

type t = {
  name : string;
  tech : Tech.t;
  stage : Stage.t;
  sources : (string * Source.t) list;
  output : Stage.node;
  output_edge : Measure.edge;
  rail : Chain.rail;
  t_end : float;
  initial : float array;
}

let fixed_point ~start f =
  let rec go v i = if i = 0 then v else go (f v) (i - 1) in
  go start 50

let precharge_voltage (tech : Tech.t) =
  fixed_point ~start:tech.vdd (fun v -> tech.vdd -. Mosfet.threshold tech Mosfet.N ~vsb:v)

let predischarge_voltage (tech : Tech.t) =
  fixed_point ~start:0.0 (fun v -> Mosfet.threshold tech Mosfet.P ~vsb:(tech.vdd -. v))

let source t name =
  match List.assoc_opt name t.sources with
  | Some s -> s
  | None -> raise Not_found

let gate_value t name time = Source.value (source t name) time

let conducting t (edge : Stage.edge) =
  match edge.gate with
  | None -> true
  | Some g ->
    let v = gate_value t g t.t_end in
    let half = t.tech.Tech.vdd /. 2.0 in
    (match edge.device.Device.kind with
    | Device.Nmos -> v > half
    | Device.Pmos -> v < half
    | Device.Wire -> true)

let lower ~model t =
  try
    Path.to_chain ~model ~rail:t.rail ~output:t.output ~conducting:(conducting t)
      ~bias:(fun n -> t.initial.(n)) t.stage
  with Path.No_path reason ->
    (* typically an input ramp whose midpoint lies past the window *)
    let at = Printf.sprintf "at the end of its %.0f ps window" (t.t_end *. 1e12) in
    raise (Path.No_path (Printf.sprintf "stage %s: %s %s" t.name reason at))

(* Build the initial-voltage array: supply/ground pinned, everything else
   from [assign] (defaulting to VDD). *)
let initial_voltages (tech : Tech.t) (stage : Stage.t) assign =
  Array.init stage.Stage.num_nodes (fun n ->
      if n = stage.Stage.supply then tech.vdd
      else if n = stage.Stage.ground then 0.0
      else match assign n with Some v -> v | None -> tech.vdd)

let rising_step (tech : Tech.t) = Source.step ~low:0.0 ~high:tech.vdd ()

let falling_step (tech : Tech.t) = Source.step ~low:tech.vdd ~high:0.0 ()

let high (tech : Tech.t) = Source.constant tech.vdd

let low = Source.constant 0.0

let inverter_falling ?load (tech : Tech.t) =
  let stage = Builders.inverter ?load tech in
  let output = Builders.output_exn stage in
  {
    name = "inv";
    tech;
    stage;
    sources = [ ("a1", rising_step tech) ];
    output;
    output_edge = Measure.Falling;
    rail = Chain.Pull_down;
    t_end = 400e-12;
    initial = initial_voltages tech stage (fun _ -> None);
  }

let nand_falling ~n ?load (tech : Tech.t) =
  let stage = Builders.nand ~n ?load tech in
  let output = Builders.output_exn stage in
  let vp = precharge_voltage tech in
  let sources =
    List.init n (fun i ->
        let name = Printf.sprintf "a%d" (i + 1) in
        (name, if i = 0 then rising_step tech else high tech))
  in
  let internal n' = if n' = output then None else Some vp in
  {
    name = Printf.sprintf "nand%d" n;
    tech;
    stage;
    sources;
    output;
    output_edge = Measure.Falling;
    rail = Chain.Pull_down;
    t_end = 400e-12 +. (float_of_int n *. 100e-12);
    initial = initial_voltages tech stage internal;
  }

let nor_rising ~n ?load (tech : Tech.t) =
  let stage = Builders.nor ~n ?load tech in
  let output = Builders.output_exn stage in
  let vp = predischarge_voltage tech in
  let sources =
    List.init n (fun i ->
        let name = Printf.sprintf "a%d" (i + 1) in
        (name, if i = 0 then falling_step tech else low))
  in
  let internal n' = if n' = output then Some 0.0 else Some vp in
  {
    name = Printf.sprintf "nor%d" n;
    tech;
    stage;
    sources;
    output;
    output_edge = Measure.Rising;
    rail = Chain.Pull_up;
    t_end = 500e-12 +. (float_of_int n *. 150e-12);
    initial = initial_voltages tech stage internal;
  }

let nand_pass_falling ~n ?load (tech : Tech.t) =
  let stage = Builders.nand_pass ~n ?load tech in
  let output = Builders.output_exn stage in
  let vp = precharge_voltage tech in
  let nand_out = Builders.find_node stage "out" in
  let sources =
    ("en", high tech)
    :: List.init n (fun i ->
           let name = Printf.sprintf "a%d" (i + 1) in
           (name, if i = 0 then rising_step tech else high tech))
  in
  (* NAND output rail-precharged by its on PMOS; everything past the pass
     transistor sits a threshold below *)
  let internal n' = if n' = nand_out then None else Some vp in
  {
    name = Printf.sprintf "nandpass%d" n;
    tech;
    stage;
    sources;
    output;
    output_edge = Measure.Falling;
    rail = Chain.Pull_down;
    t_end = 600e-12 +. (float_of_int n *. 100e-12);
    initial = initial_voltages tech stage internal;
  }

let aoi21_falling ?load (tech : Tech.t) =
  let stage = Builders.aoi21 ?load tech in
  let output = Builders.output_exn stage in
  let x = Builders.find_node stage "x" and y = Builders.find_node stage "y" in
  let internal n' =
    if n' = x then Some 0.0  (* held at ground through the on b-transistor *)
    else if n' = y then None  (* precharged by the on a-PMOS *)
    else None
  in
  {
    name = "aoi21";
    tech;
    stage;
    sources = [ ("a", rising_step tech); ("b", high tech); ("c", low) ];
    output;
    output_edge = Measure.Falling;
    rail = Chain.Pull_down;
    t_end = 500e-12;
    initial = initial_voltages tech stage internal;
  }

let oai21_rising ?load (tech : Tech.t) =
  let stage = Builders.oai21 ?load tech in
  let output = Builders.output_exn stage in
  let x = Builders.find_node stage "x" and y = Builders.find_node stage "y" in
  let vp = predischarge_voltage tech in
  let internal n' =
    if n' = output || n' = x then Some 0.0
    else if n' = y then Some vp  (* discharged through the on b-PMOS *)
    else None
  in
  {
    name = "oai21";
    tech;
    stage;
    sources = [ ("a", falling_step tech); ("b", low); ("c", high tech) ];
    output;
    output_edge = Measure.Rising;
    rail = Chain.Pull_up;
    t_end = 600e-12;
    initial = initial_voltages tech stage internal;
  }

let stack_falling ?name ~widths ?load (tech : Tech.t) =
  let k = Array.length widths in
  let stage = Builders.nmos_stack ~widths ?load tech in
  let output = Builders.output_exn stage in
  let sources =
    List.init k (fun i ->
        let input = Printf.sprintf "g%d" (i + 1) in
        (input, if i = 0 then rising_step tech else high tech))
  in
  (* all nodes precharged to full VDD (the paper's stacks come from
     precharged structures such as the Manchester carry chain), giving the
     staggered turn-on cascade of Fig. 7 *)
  let internal _ = None in
  {
    name = Option.value name ~default:(Printf.sprintf "stack%d" k);
    tech;
    stage;
    sources;
    output;
    output_edge = Measure.Falling;
    rail = Chain.Pull_down;
    t_end = 400e-12 +. (float_of_int k *. 120e-12);
    initial = initial_voltages tech stage internal;
  }

let manchester ~bits ?load (tech : Tech.t) =
  let stage = Builders.manchester ~bits ?load tech in
  let output = Builders.output_exn stage in
  let sources =
    (("g0", rising_step tech) :: ("phi", high tech)
    :: List.init bits (fun i -> (Printf.sprintf "p%d" (i + 1), high tech)))
  in
  {
    name = Printf.sprintf "manchester%d" bits;
    tech;
    stage;
    sources;
    output;
    output_edge = Measure.Falling;
    rail = Chain.Pull_down;
    t_end = 400e-12 +. (float_of_int bits *. 120e-12);
    initial = initial_voltages tech stage (fun _ -> None);
  }

let decoder ~levels ?wire_segments ?load (tech : Tech.t) =
  let stage = Builders.decoder_path ~levels ?wire_segments ?load tech in
  let output = Builders.output_exn stage in
  let sources =
    ("en", rising_step tech)
    :: List.init levels (fun i -> (Printf.sprintf "s%d" (i + 1), high tech))
  in
  {
    name = Printf.sprintf "decoder%d" levels;
    tech;
    stage;
    sources;
    output;
    output_edge = Measure.Falling;
    rail = Chain.Pull_down;
    t_end = 1.5e-9 +. (float_of_int levels *. 1.0e-9);
    initial = initial_voltages tech stage (fun _ -> None);
  }

let with_ramp_input ~rise_time t =
  let replace (name, src) =
    if Source.is_step src then begin
      let t0 = Option.value (Source.transition_time src) ~default:0.0 in
      let low = Source.value src (t0 -. 1.0) and high = Source.value src (t0 +. 1e3) in
      (name, Source.ramp ~t0 ~low ~high ~rise_time ())
    end
    else (name, src)
  in
  { t with sources = List.map replace t.sources; name = t.name ^ "+ramp" }
