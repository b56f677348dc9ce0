(** Lowering a logic stage to the charge/discharge chain along its worst
    path (paper §III-C: "only charging/discharging along the longest paths
    needs to be considered"). *)

exception No_path of string
(** No traversable path joins the rail to the output; the payload names
    the two nodes, and {!Scenario.lower} adds the scenario's name. *)

type lowering = {
  chain : Chain.t;
  stage_nodes : Stage.node array;
      (** [stage_nodes.(k-1)] is the stage node backing chain node [k] *)
}

val to_chain :
  model:Tqwm_device.Device_model.t ->
  rail:Chain.rail ->
  output:Stage.node ->
  ?conducting:(Stage.edge -> bool) ->
  bias:(Stage.node -> float) ->
  Stage.t ->
  lowering
(** Extract the path from the rail (ground for [Pull_down], supply for
    [Pull_up]) to [output]. Only edges with [conducting edge] (default:
    all) are traversable. Node capacitances
    sum the terminal contributions of {e every} incident stage element at
    the node's [bias] voltage, plus external loads — side branches load
    the path even though they are not traversed.
    @raise No_path when no path exists. *)
