module Device = Tqwm_device.Device

exception No_path of string

type lowering = { chain : Chain.t; stage_nodes : Stage.node array }

(* DFS over traversable edges, treating the stage graph as undirected. *)
let find_path stage ~from ~target ~traversable =
  let visited = Array.make stage.Stage.num_nodes false in
  let rec dfs node =
    if node = target then Some []
    else begin
      visited.(node) <- true;
      let step edge =
        let other = if edge.Stage.src = node then edge.Stage.snk else edge.Stage.src in
        if visited.(other) then None
        else
          match dfs other with
          | Some rest -> Some (edge :: rest)
          | None -> None
      in
      Stage.incident stage node
      |> List.filter traversable
      |> List.find_map step
    end
  in
  dfs from

let to_chain ~model ~rail ~output ?(conducting = fun _ -> true) ~bias stage =
  let rail_node =
    match rail with
    | Chain.Pull_down -> stage.Stage.ground
    | Chain.Pull_up -> stage.Stage.supply
  in
  let traversable = conducting in
  let path =
    match find_path stage ~from:rail_node ~target:output ~traversable with
    | Some p -> p
    | None ->
      raise
        (No_path
           (Printf.sprintf "no conducting path from %s to %s"
              (Stage.node_name stage rail_node) (Stage.node_name stage output)))
  in
  (* walk the path recording the far node of each edge *)
  let nodes =
    List.fold_left
      (fun acc (e : Stage.edge) ->
        let here = match acc with [] -> rail_node | n :: _ -> n in
        let far = if e.src = here then e.snk else e.src in
        far :: acc)
      [] path
    |> List.rev
  in
  let edges =
    List.map (fun (e : Stage.edge) -> { Chain.device = e.device; gate = e.gate }) path
  in
  (* Conducting side branches (e.g. an on pass/feedback transistor hanging
     off a path node) slave their subtree's capacitance to the path node:
     the branch has no other discharge path, so its charge must move
     through the node. Fold that capacitance in, as a SPICE simulation of
     the full stage would implicitly do. *)
  let on_path = Array.make stage.Stage.num_nodes false in
  List.iter (fun n -> on_path.(n) <- true) nodes;
  on_path.(stage.Stage.supply) <- true;
  on_path.(stage.Stage.ground) <- true;
  let side_branch_cap start =
    let visited = Array.make stage.Stage.num_nodes false in
    let rec explore node acc =
      Stage.incident stage node
      |> List.filter traversable
      |> List.fold_left
           (fun acc (e : Stage.edge) ->
             let other = if e.src = node then e.snk else e.src in
             if on_path.(other) || visited.(other) then acc
             else begin
               visited.(other) <- true;
               explore other
                 (acc +. Stage.node_capacitance model stage other ~v:(bias other))
             end)
           acc
    in
    explore start 0.0
  in
  let caps =
    List.map
      (fun n -> Stage.node_capacitance model stage n ~v:(bias n) +. side_branch_cap n)
      nodes
  in
  {
    chain = Chain.make ~rail ~edges ~caps;
    stage_nodes = Array.of_list nodes;
  }
