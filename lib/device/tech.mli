(** Process technology parameters.

    The defaults model a 0.35 um / 3.3 V process in the spirit of the
    paper's CMOSP35 characterization (the exact foundry deck is
    proprietary; see DESIGN.md for the substitution note). All quantities
    are SI: volts, amps, farads, meters. *)

type t = {
  name : string;
  vdd : float;  (** supply voltage *)
  l_min : float;  (** minimum drawn channel length *)
  w_min : float;  (** minimum transistor width *)
  cox : float;  (** gate-oxide capacitance per area, F/m^2 *)
  kp_n : float;  (** NMOS transconductance parameter (mu_n * Cox), A/V^2 *)
  kp_p : float;  (** PMOS transconductance parameter, A/V^2 *)
  vt0_n : float;  (** NMOS zero-bias threshold, > 0 *)
  vt0_p : float;  (** PMOS zero-bias threshold magnitude, > 0 *)
  gamma_n : float;  (** NMOS body-effect coefficient, sqrt(V) *)
  gamma_p : float;
  phi : float;  (** surface potential 2*phi_F, V *)
  lambda_n : float;  (** NMOS channel-length modulation, 1/V *)
  lambda_p : float;
  l_diffusion : float;  (** source/drain diffusion extent, m *)
  cj : float;  (** zero-bias junction capacitance per area, F/m^2 *)
  cjsw : float;  (** zero-bias sidewall capacitance per perimeter, F/m *)
  pb : float;  (** junction built-in potential, V *)
  mj : float;  (** junction grading coefficient *)
  c_overlap : float;  (** gate-drain/source overlap capacitance per width, F/m *)
  r_sheet_wire : float;  (** wire sheet resistance, ohm/square *)
  c_wire_area : float;  (** wire capacitance per area, F/m^2 *)
  c_wire_fringe : float;  (** wire fringe capacitance per length, F/m *)
}

val cmosp35 : t
(** Default 0.35 um, 3.3 V technology. *)

type corner = Typical | Fast | Slow

val corner : t -> corner -> t
(** Process-corner derating: [Fast] raises transconductance and lowers
    thresholds and junction capacitance; [Slow] the opposite. The spreads
    (±15 % kp, ∓10 % Vth, ∓8 % Cj) are typical foundry corner magnitudes
    for the era's processes. *)

val corner_name : corner -> string
