(** CMOS logic stages (paper Definition 1).

    A logic stage is a polar directed graph: vertices are circuit nodes,
    edges are circuit elements (NMOS, PMOS, wire segments). The graph's
    source is the power supply, its sink the ground. Edges are oriented
    from the supply side ([src]) toward the ground side ([snk]).
    Transistor edges carry a named gate input. *)

type node = int

type edge = {
  device : Tqwm_device.Device.t;
  src : node;  (** supply-side terminal *)
  snk : node;  (** ground-side terminal *)
  gate : string option;  (** input name; [None] for wires *)
}

type t = private {
  num_nodes : int;
  supply : node;
  ground : node;
  edges : edge array;
  outputs : node list;
  loads : float array;  (** extra (external) load capacitance per node *)
  node_names : string array;
}

(** {2 Construction} *)

type builder

val create : ?name:string -> unit -> builder

val supply : builder -> node

val ground : builder -> node

val add_node : builder -> string -> node

val add_edge : builder -> ?gate:string -> Tqwm_device.Device.t -> src:node -> snk:node -> unit
(** @raise Invalid_argument when a transistor edge lacks a gate or a wire
    edge has one. *)

val add_load : builder -> node -> float -> unit
(** Accumulate external load capacitance on a node.
    @raise Invalid_argument on an unknown node or a negative or
    non-finite value. *)

val mark_output : builder -> node -> unit

val finish : builder -> t
(** @raise Invalid_argument on dangling node references. *)

(** {2 Functional updates}

    ECO-style edits: a stage is immutable once built, so in-place tuning
    (device sizing loops, load perturbations, incremental timing) goes
    through copying updates that leave the original untouched. *)

val with_device : t -> int -> Tqwm_device.Device.t -> t
(** [with_device t i d] is [t] with edge [i]'s device replaced by [d]
    (terminals and gate input kept).
    @raise Invalid_argument on an unknown edge index or when the
    replacement changes the edge's class (transistor vs wire). *)

val with_load : t -> node -> float -> t
(** [with_load t n c] is [t] with the external load at node [n] {e set}
    (not accumulated) to [c] farads.
    @raise Invalid_argument on an unknown node or a negative or
    non-finite value. *)

(** {2 Queries} *)

val inputs : t -> string list
(** Distinct gate-input names, in first-use order. *)

val incident : t -> node -> edge list

val node_name : t -> node -> string

val node_capacitance :
  Tqwm_device.Device_model.t -> t -> node -> v:float -> float
(** Paper Eq. (1): the node's capacitance to ground — terminal-capacitance
    contributions of every incident element (at node bias [v]) plus the
    external load. Supply/ground report 0. *)

val internal_nodes : t -> node list
(** All nodes except supply and ground. *)

val pp : Format.formatter -> t -> unit
