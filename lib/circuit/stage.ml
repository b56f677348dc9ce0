module Device = Tqwm_device.Device
module Device_model = Tqwm_device.Device_model

type node = int

type edge = { device : Device.t; src : node; snk : node; gate : string option }

type t = {
  num_nodes : int;
  supply : node;
  ground : node;
  edges : edge array;
  outputs : node list;
  loads : float array;
  node_names : string array;
}

type builder = {
  mutable names : string list;  (** reversed *)
  mutable count : int;
  mutable b_edges : edge list;  (** reversed *)
  mutable b_outputs : node list;
  mutable b_loads : (node * float) list;
  b_supply : node;
  b_ground : node;
}

let add_node b name =
  let id = b.count in
  b.count <- id + 1;
  b.names <- name :: b.names;
  id

let create ?name:_ () =
  let b =
    {
      names = [];
      count = 0;
      b_edges = [];
      b_outputs = [];
      b_loads = [];
      b_supply = 0;
      b_ground = 1;
    }
  in
  let (_ : node) = add_node b "vdd" in
  let (_ : node) = add_node b "gnd" in
  b

let supply b = b.b_supply

let ground b = b.b_ground

let add_edge b ?gate device ~src ~snk =
  (match (device.Device.kind, gate) with
  | (Device.Nmos | Device.Pmos), None ->
    invalid_arg "Stage.add_edge: transistor without a gate input"
  | Device.Wire, Some _ -> invalid_arg "Stage.add_edge: wire with a gate input"
  | (Device.Nmos | Device.Pmos), Some _ | Device.Wire, None -> ());
  if src < 0 || src >= b.count || snk < 0 || snk >= b.count then
    invalid_arg "Stage.add_edge: unknown node";
  if src = snk then invalid_arg "Stage.add_edge: self-loop";
  b.b_edges <- { device; src; snk; gate } :: b.b_edges

let add_load b node c =
  if node < 0 || node >= b.count then invalid_arg "Stage.add_load: unknown node";
  if not (Float.is_finite c) || c < 0.0 then
    invalid_arg "Stage.add_load: capacitance must be finite and >= 0";
  b.b_loads <- (node, c) :: b.b_loads

let mark_output b node =
  if node < 0 || node >= b.count then invalid_arg "Stage.mark_output: unknown node";
  if not (List.mem node b.b_outputs) then b.b_outputs <- node :: b.b_outputs

let finish b =
  let loads = Array.make b.count 0.0 in
  List.iter (fun (n, c) -> loads.(n) <- loads.(n) +. c) b.b_loads;
  {
    num_nodes = b.count;
    supply = b.b_supply;
    ground = b.b_ground;
    edges = Array.of_list (List.rev b.b_edges);
    outputs = List.rev b.b_outputs;
    loads;
    node_names = Array.of_list (List.rev b.names);
  }

let with_device t i device =
  if i < 0 || i >= Array.length t.edges then
    invalid_arg "Stage.with_device: unknown edge";
  let edge = t.edges.(i) in
  (match (device.Device.kind, edge.gate) with
  | (Device.Nmos | Device.Pmos), None ->
    invalid_arg "Stage.with_device: transistor device on a wire edge"
  | Device.Wire, Some _ -> invalid_arg "Stage.with_device: wire device on a gated edge"
  | (Device.Nmos | Device.Pmos), Some _ | Device.Wire, None -> ());
  let edges = Array.copy t.edges in
  edges.(i) <- { edge with device };
  { t with edges }

let with_load t node c =
  if node < 0 || node >= t.num_nodes then invalid_arg "Stage.with_load: unknown node";
  if not (Float.is_finite c) || c < 0.0 then
    invalid_arg "Stage.with_load: capacitance must be finite and >= 0";
  let loads = Array.copy t.loads in
  loads.(node) <- c;
  { t with loads }

let inputs t =
  let seen = Hashtbl.create 8 in
  Array.fold_left
    (fun acc e ->
      match e.gate with
      | Some g when not (Hashtbl.mem seen g) ->
        Hashtbl.add seen g ();
        g :: acc
      | Some _ | None -> acc)
    [] t.edges
  |> List.rev

let incident t node =
  Array.fold_left
    (fun acc e -> if e.src = node || e.snk = node then e :: acc else acc)
    [] t.edges
  |> List.rev

let node_name t node = t.node_names.(node)

let node_capacitance (model : Device_model.t) t node ~v =
  if node = t.supply || node = t.ground then 0.0
  else
    List.fold_left
      (fun acc e ->
        let c =
          if e.src = node then model.Device_model.src_cap e.device ~v
          else model.Device_model.snk_cap e.device ~v
        in
        acc +. c)
      t.loads.(node) (incident t node)

let internal_nodes t =
  List.init t.num_nodes Fun.id
  |> List.filter (fun n -> n <> t.supply && n <> t.ground)

let pp fmt t =
  Format.fprintf fmt "stage: %d nodes, %d edges@\n" t.num_nodes (Array.length t.edges);
  Array.iter
    (fun e ->
      Format.fprintf fmt "  %a  %s -> %s%s@\n" Device.pp e.device
        t.node_names.(e.src) t.node_names.(e.snk)
        (match e.gate with Some g -> " gate=" ^ g | None -> ""))
    t.edges
