(** NLDM-style cell characterization with QWM as the evaluation engine.

    The paper's motivating use case: cells whose outputs do not land on
    gate inputs cannot be pre-characterized once and for all — the stage
    must be evaluated on the fly, so the evaluator must be fast. This
    module sweeps a stage's worst-case scenario over an (input slew x
    output load) grid and builds the delay and output-slew lookup tables
    a library flow consumes, with bilinear interpolated queries. *)

type table = {
  slews : float array;  (** input-slew breakpoints, seconds, ascending *)
  loads : float array;  (** load breakpoints, farads, ascending *)
  delay : Tqwm_num.Mat.t;  (** [delay.(slew_index).(load_index)] *)
  output_slew : Tqwm_num.Mat.t;
}

val default_slews : float array
(** 5, 20, 50, 120 ps. *)

val default_loads : float array
(** 2, 5, 10, 25, 60 fF. *)

val characterize :
  model:Tqwm_device.Device_model.t ->
  ?slews:float array ->
  ?loads:float array ->
  (load:float -> Tqwm_circuit.Scenario.t) ->
  table
(** [characterize ~model make] runs QWM at every grid point; [make ~load]
    builds the scenario at a given output load (e.g.
    [fun ~load -> Scenario.nand_falling ~n:3 ~load tech]), and the input
    slew is applied with {!Tqwm_circuit.Scenario.with_ramp_input}.
    @raise Failure when a grid point's output never crosses 50 %. *)

val delay_at : table -> slew:float -> load:float -> float
(** Bilinear interpolated delay; clamped extrapolation outside the grid. *)

val slew_at : table -> slew:float -> load:float -> float

val pp : Format.formatter -> table -> unit
(** Render as a liberty-flavoured text table. *)
