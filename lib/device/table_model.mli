(** Tabular device characterization (paper §V-A, Fig. 8).

    The transistor I/V relation is compressed by sweeping the gate and
    source voltages over a uniform grid and, for each (Vg, Vs) pair,
    curve-fitting the dependence of channel current on the drain voltage:
    a linear function [s1*vds + s2] in the saturation region and a
    quadratic [t2*vds^2 + t1*vds + t0] in the triode region. Together with
    the threshold and saturation voltages, 7 parameters are stored per
    grid point. Off-grid queries interpolate bilinearly between neighbour
    points; dIds/dVd comes directly from the fitted polynomials.

    Tables are built in "pull-down-normalized" coordinates (PMOS voltages
    mirrored about VDD), so one characterization path serves both
    polarities, and at reference geometry (current scales exactly with
    W/L in the underlying physics; see DESIGN.md). *)

type fit = {
  s1 : float;  (** saturation-region slope *)
  s2 : float;  (** saturation-region intercept *)
  t0 : float;
  t1 : float;
  t2 : float;  (** triode-region quadratic, lowest power first: t0,t1,t2 *)
  vth : float;  (** body-corrected threshold at this (Vg, Vs) *)
  vdsat : float;  (** saturation voltage at this (Vg, Vs) *)
}

type t

val characterize :
  ?grid_step:float ->
  Tech.t ->
  polarity:Mosfet.polarity ->
  source:(vg:float -> vs:float -> vd:float -> float) ->
  threshold:(vs:float -> float) ->
  t
(** [characterize tech ~polarity ~source ~threshold] sweeps [source] (the
    golden simulator, in normalized pull-down coordinates, at reference
    geometry W = 1 um, L = l_min) over Vg, Vs in [0, VDD] with [grid_step]
    (default 0.1 V, the paper's setting) and 9 points per fit region. *)

val of_analytic : ?grid_step:float -> Tech.t -> Mosfet.polarity -> t
(** Characterize directly from the analytic {!Mosfet} model, mirroring the
    paper's characterization from Hspice/BSIM3. *)

val lookup : t -> vg:float -> vs:float -> vd:float -> float
(** Interpolated channel current at reference geometry, normalized
    coordinates, drain above source ([vd >= vs]; callers handle terminal
    symmetry). *)

val lookup_dvd : t -> vg:float -> vs:float -> vd:float -> float
(** Interpolated dIds/dVd from the fitted polynomials. *)

val lookup_derivs_into :
  t -> vg:float -> vs:float -> vd:float -> Device_model.derivs -> unit
(** dIds/dVd and dIds/dVs in one corner pass — the paper's "fast
    derivative" benefit of the characterization (§V-A): the drain
    derivative comes from the fitted polynomial slopes, the source
    derivative from the interpolation weights. Written into a
    caller-owned buffer: dIds/dVd lands in [dsrc] and dIds/dVs in [dsnk]
    (table-frame scratch semantics — the caller maps them onto edge
    terminals). Allocation-free. *)

val threshold : t -> vs:float -> float
(** Interpolated threshold voltage from the stored table column. *)

val fit_at : t -> int -> int -> fit
(** Raw fit at grid indices (for inspection and the Fig. 8 bench). *)

val grid : t -> Tqwm_num.Interp.axis * Tqwm_num.Interp.axis
(** The (Vg, Vs) axes. *)

val to_device_model :
  ?miller_factor:float -> Tech.t -> nmos:t -> pmos:t -> Device_model.t
(** Package NMOS and PMOS tables as a {!Device_model.t}: transistor I/V
    queries hit the tables (with polarity normalization and terminal
    symmetry); wires, capacitances and thresholds use the same physics as
    the analytic model. *)
