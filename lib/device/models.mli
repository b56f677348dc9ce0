(** Convenience constructors for the two standard device-model stacks:
    the analytic "golden" model (playing the role of Hspice/BSIM3) and
    the tabular model QWM consumes (characterized from the golden one,
    as the paper characterizes its tables from Hspice sweeps). *)

val golden : ?miller_factor:float -> Tech.t -> Device_model.t

val table :
  ?miller_factor:float ->
  ?grid_step:float ->
  Tech.t ->
  Device_model.t
(** Characterizes both polarities; ~0.1 s of one-time work at the default
    0.1 V grid. *)
