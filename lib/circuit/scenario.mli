(** Worst-case switching scenarios — a stage plus everything the engines
    need to run it: gate drives, initial node voltages, the observed
    output and its expected transition direction.

    These encode the paper's experiments: static timing analysis only
    simulates the worst-case charge/discharge of each stage (§III-C). *)

open Tqwm_device
open Tqwm_wave

type t = {
  name : string;
  tech : Tech.t;
  stage : Stage.t;
  sources : (string * Source.t) list;  (** one entry per stage input *)
  output : Stage.node;
  output_edge : Measure.edge;
  rail : Chain.rail;  (** which network drives the transition *)
  t_end : float;  (** simulation window *)
  initial : float array;  (** initial voltage per stage node *)
}

val precharge_voltage : Tech.t -> float
(** Fixed point of [v = VDD - Vth_n(vsb = v)]: the voltage an internal
    node reaches when charged through an NMOS whose gate is at VDD. *)

val predischarge_voltage : Tech.t -> float
(** Dual fixed point for nodes discharged through a PMOS passing 0. *)

val source : t -> string -> Source.t
(** @raise Not_found for an unknown input. *)

val conducting : t -> Stage.edge -> bool
(** Whether an edge conducts once all inputs settle (evaluated at
    [t_end]); used to pick the worst-case path. *)

val lower : model:Device_model.t -> t -> Path.lowering
(** Lower the scenario's stage to its charge/discharge chain, with node
    capacitances evaluated at the initial node biases.
    @raise Path.No_path, naming the scenario, when no path conducts at
    [t_end] — for example under an input ramp slower than the window. *)

val gate_value : t -> string -> float -> float
(** Gate-drive voltage of an input at a time. *)

(** {2 Constructors for the paper's workloads} *)

val inverter_falling : ?load:float -> Tech.t -> t

val nand_falling : n:int -> ?load:float -> Tech.t -> t
(** All inputs high, the bottom input switching 0 -> VDD at t = 0; output
    falls (Table I workload). *)

val nor_rising : n:int -> ?load:float -> Tech.t -> t
(** All inputs low, the input next to VDD switching VDD -> 0; output rises
    through the PMOS chain (exercises the pull-up mirror path). *)

val aoi21_falling : ?load:float -> Tech.t -> t
(** AOI21 with ["a"] switching high, ["b"] high and ["c"] low: the output
    falls through the series a-b branch while the parallel c branch stays
    off — exercising conducting-branch selection in a branching
    pull-down network. *)

val oai21_rising : ?load:float -> Tech.t -> t
(** OAI21 with ["a"] switching low, ["b"] low and ["c"] high: the output
    rises through the series PMOS pair. *)

val nand_pass_falling : n:int -> ?load:float -> Tech.t -> t
(** The paper's Example 1 / Fig. 1 stage: NAND -> pass transistor -> wire.
    All NAND inputs high with the bottom one switching; ["en"] held high;
    the far wire end falls. The pass transistor contributes a genuine
    mid-transient critical point (it only turns on once the NAND output
    has fallen a threshold below its gate). *)

val stack_falling : ?name:string -> widths:float array -> ?load:float -> Tech.t -> t
(** Pure NMOS stack, bottom gate switching (Table II / Figs. 7 and 9). *)

val manchester : bits:int -> ?load:float -> Tech.t -> t
(** Carry-chain discharge: precharged carry nodes, ["g0"] switching. *)

val decoder : levels:int -> ?wire_segments:int -> ?load:float -> Tech.t -> t
(** Decoder-tree discharge with long wires (Fig. 10 workload). *)

val with_ramp_input : rise_time:float -> t -> t
(** Replace the switching (step) input by a ramp of the given rise time. *)
