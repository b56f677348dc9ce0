module Device = Tqwm_device.Device

type rail = Pull_down | Pull_up

type edge = { device : Device.t; gate : string option }

type t = { rail : rail; edges : edge array; caps : float array }

let make ~rail ~edges ~caps =
  let edges = Array.of_list edges and caps = Array.of_list caps in
  if Array.length edges = 0 then invalid_arg "Chain.make: empty chain";
  if Array.length edges <> Array.length caps then
    invalid_arg "Chain.make: edge/capacitance count mismatch";
  Array.iter
    (fun c -> if c <= 0.0 then invalid_arg "Chain.make: non-positive capacitance")
    caps;
  Array.iter
    (fun e ->
      match (e.device.Device.kind, e.gate) with
      | (Device.Nmos | Device.Pmos), None ->
        invalid_arg "Chain.make: transistor edge without gate"
      | Device.Wire, Some _ -> invalid_arg "Chain.make: wire edge with gate"
      | (Device.Nmos | Device.Pmos), Some _ | Device.Wire, None -> ())
    edges;
  { rail; edges; caps }

let length t = Array.length t.edges

let output_node t = length t

let is_transistor e =
  match e.device.Device.kind with
  | Device.Nmos | Device.Pmos -> true
  | Device.Wire -> false

let transistor_positions t =
  Array.to_list t.edges
  |> List.mapi (fun i e -> (i + 1, e))
  |> List.filter_map (fun (i, e) -> if is_transistor e then Some i else None)
