(** The paper's [DeviceModel] interface (Definition 2).

    A device model maps geometry and a terminal-voltage configuration to
    the current flowing from the edge's [src] node to its [snk] node, and
    exposes the threshold and parasitic-capacitance relations the QWM and
    SPICE engines need. Two implementations exist: the analytic model
    below (the golden physics) and {!Table_model} (the compressed tabular
    fit QWM uses, mirroring the paper's Hspice characterization). *)

type terminal_voltages = {
  mutable input : float;  (** gate voltage; meaningless for wires *)
  mutable src : float;  (** voltage of the supply-side terminal of the edge *)
  mutable snk : float;  (** voltage of the ground-side terminal *)
}
(** Fields are mutable (and stored flat — all-float record) so hot
    callers can refill one scratch record per query instead of allocating;
    model implementations only read the fields during the call. *)

type derivs = { mutable cur : float; mutable dsrc : float; mutable dsnk : float }
(** Out-buffer for {!t.iv_derivatives_into}: the current and its two
    terminal derivatives at one terminal-voltage configuration. An
    all-float record, stored flat, so a single caller-owned instance
    makes repeated queries allocation-free. *)

val derivs : unit -> derivs
(** A fresh zeroed out-buffer. *)

type t = {
  name : string;
  iv : Device.t -> terminal_voltages -> float;
      (** current src -> snk; positive when conducting "downhill" *)
  iv_derivatives_into : Device.t -> terminal_voltages -> derivs -> unit;
      (** the current, bit-for-bit what [iv] returns, with [dI/dVsrc]
          and [dI/dVsnk], written into a caller-owned {!derivs}: a
          caller that needs all three makes one call. No per-call
          allocation for the table model. *)
  threshold : Device.t -> terminal_voltages -> float;
      (** turn-on threshold (positive magnitude, body-corrected): an NMOS
          conducts when [input - snk > threshold], a PMOS when
          [src - input > threshold], wires always (threshold 0) *)
  src_cap : Device.t -> v:float -> float;
      (** capacitance contribution of the src terminal at node bias [v] *)
  snk_cap : Device.t -> v:float -> float;
  input_cap : Device.t -> float;
}

val analytic : ?miller_factor:float -> Tech.t -> t
(** Model backed by {!Mosfet} physics and {!Capacitance}. NMOS and PMOS
    body terminals are tied to ground and VDD respectively. *)

val finite_difference_derivatives :
  (Device.t -> terminal_voltages -> float) -> Device.t -> terminal_voltages -> float * float
(** Central-difference [(dI/dVsrc, dI/dVsnk)] of an I/V function: the
    analytic model's transistor derivatives, and an independent oracle
    for the table model's. *)
