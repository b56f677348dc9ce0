module Timing_graph = Tqwm_sta.Timing_graph

let fanout_cone (frozen : Timing_graph.frozen) seeds =
  let n = Array.length frozen.Timing_graph.scenarios in
  let mark = Array.make n false in
  let rec go id =
    if not mark.(id) then begin
      mark.(id) <- true;
      Array.iter
        (fun (c : Timing_graph.connection) -> go c.Timing_graph.to_stage)
        frozen.Timing_graph.fanout.(id)
    end
  in
  List.iter
    (fun id ->
      if id < 0 || id >= n then invalid_arg "Cone.fanout_cone: unknown stage";
      go id)
    seeds;
  mark

let size mark = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mark
