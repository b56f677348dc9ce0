(** Charge/discharge chains — the series path QWM solves (paper Fig. 6).

    A chain is an ordered run of edges from a rail (ground for a
    discharging pull-down path, VDD for a charging pull-up path) to the
    stage output. Node [0] is the rail; edge [k] (0-based index [k-1])
    connects node [k-1] to node [k]; node [K] is the output. Each internal
    node carries its total capacitance to ground (paper Eq. (1)). *)

type rail = Pull_down | Pull_up

type edge = {
  device : Tqwm_device.Device.t;
  gate : string option;  (** input name; [None] for wire/resistor edges *)
}

type t = private {
  rail : rail;
  edges : edge array;
  caps : float array;  (** [caps.(k)] is the capacitance of node [k+1] *)
}

val make : rail:rail -> edges:edge list -> caps:float list -> t
(** @raise Invalid_argument on length mismatch, empty chains, or
    non-positive capacitances. *)

val length : t -> int
(** Number of edges = index of the output node. *)

val output_node : t -> int

val transistor_positions : t -> int list
(** 1-based edge indices of transistor edges, ascending — the candidate
    critical points. *)

val is_transistor : edge -> bool
