(** Nodal-analysis stamping for the transient solver.

    Unknowns are the internal nodes of a stage; supply and ground are
    pinned to the scenario's initial values. *)

open Tqwm_circuit

type index = {
  unknowns : Stage.node array;  (** unknown i <-> stage node unknowns.(i) *)
  of_node : int array;  (** stage node -> unknown index, or -1 if pinned *)
}

val index_of_stage : Stage.t -> index

val dimension : index -> int

type context = {
  model : Tqwm_device.Device_model.t;
  scenario : Scenario.t;
  index : index;
}

val make_context : model:Tqwm_device.Device_model.t -> Scenario.t -> context

val full_voltages : context -> Tqwm_num.Vec.t -> float array
(** Expand the unknown vector to per-stage-node voltages (pinned nodes at
    their rail values). *)

val out_currents : context -> time:float -> Tqwm_num.Vec.t -> Tqwm_num.Vec.t
(** [out_currents ctx ~time x] is, per unknown node, the net current
    {e leaving} the node through its incident elements with gate drives
    evaluated at [time]. *)

val conductance : context -> time:float -> Tqwm_num.Vec.t -> Tqwm_num.Mat.t
(** Jacobian of {!out_currents} with respect to the unknown voltages. *)

val capacitances : ?at:(Stage.node -> float) -> context -> Tqwm_num.Vec.t
(** Per-unknown node capacitance (paper Eq. (1)), evaluated at bias
    [at node] (default: the scenario's initial voltages). *)

val edge_current : context -> time:float -> float array -> Stage.edge -> float
(** Current src -> snk through one edge, given full node voltages. *)
