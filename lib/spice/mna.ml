open Tqwm_circuit
module Vec = Tqwm_num.Vec
module Mat = Tqwm_num.Mat
module Device_model = Tqwm_device.Device_model

type index = { unknowns : Stage.node array; of_node : int array }

let index_of_stage (stage : Stage.t) =
  let unknowns = Array.of_list (Stage.internal_nodes stage) in
  let of_node = Array.make stage.Stage.num_nodes (-1) in
  Array.iteri (fun i n -> of_node.(n) <- i) unknowns;
  { unknowns; of_node }

let dimension index = Array.length index.unknowns

type context = {
  model : Device_model.t;
  scenario : Scenario.t;
  index : index;
}

let make_context ~model scenario = { model; scenario; index = index_of_stage scenario.Scenario.stage }

let full_voltages ctx x =
  let stage = ctx.scenario.Scenario.stage in
  Array.init stage.Stage.num_nodes (fun n ->
      let i = ctx.index.of_node.(n) in
      if i >= 0 then x.{i} else ctx.scenario.Scenario.initial.(n))

let terminal_voltages ctx ~time voltages (e : Stage.edge) =
  let input =
    match e.gate with
    | None -> 0.0
    | Some g -> Scenario.gate_value ctx.scenario g time
  in
  { Device_model.input; src = voltages.(e.src); snk = voltages.(e.snk) }

let edge_current ctx ~time voltages e =
  ctx.model.Device_model.iv e.Stage.device (terminal_voltages ctx ~time voltages e)

let out_currents ctx ~time x =
  let stage = ctx.scenario.Scenario.stage in
  let voltages = full_voltages ctx x in
  let f = Vec.create (dimension ctx.index) in
  Array.iter
    (fun (e : Stage.edge) ->
      let i = edge_current ctx ~time voltages e in
      let src_u = ctx.index.of_node.(e.src) and snk_u = ctx.index.of_node.(e.snk) in
      (* current src -> snk leaves src and enters snk *)
      if src_u >= 0 then f.{src_u} <- f.{src_u} +. i;
      if snk_u >= 0 then f.{snk_u} <- f.{snk_u} -. i)
    stage.Stage.edges;
  f

let conductance ctx ~time x =
  let stage = ctx.scenario.Scenario.stage in
  let voltages = full_voltages ctx x in
  let n = dimension ctx.index in
  let g = Mat.create n n in
  let d = Device_model.derivs () in
  Array.iter
    (fun (e : Stage.edge) ->
      let tv = terminal_voltages ctx ~time voltages e in
      ctx.model.Device_model.iv_derivatives_into e.Stage.device tv d;
      let dsrc = d.Device_model.dsrc and dsnk = d.Device_model.dsnk in
      let src_u = ctx.index.of_node.(e.src) and snk_u = ctx.index.of_node.(e.snk) in
      if src_u >= 0 then begin
        Mat.add_to g src_u src_u dsrc;
        if snk_u >= 0 then Mat.add_to g src_u snk_u dsnk
      end;
      if snk_u >= 0 then begin
        Mat.add_to g snk_u snk_u (-.dsnk);
        if src_u >= 0 then Mat.add_to g snk_u src_u (-.dsrc)
      end)
    stage.Stage.edges;
  g

let capacitances ?at ctx =
  let scenario = ctx.scenario in
  let bias =
    match at with
    | Some f -> f
    | None -> fun n -> scenario.Scenario.initial.(n)
  in
  Vec.init (Array.length ctx.index.unknowns) (fun i ->
      let n = ctx.index.unknowns.(i) in
      Stage.node_capacitance ctx.model scenario.Scenario.stage n ~v:(bias n))
