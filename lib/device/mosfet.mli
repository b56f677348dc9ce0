(** Analytic MOSFET I/V model.

    A level-1 (Shichman–Hodges) square-law model extended with body
    effect and channel-length modulation, parameterized by {!Tech.t}. The
    channel-length-modulation term is referenced to the saturation voltage
    so the triode/saturation boundary is current-continuous. This is the
    "golden" physics both engines share (the paper used BSIM3 via Hspice;
    see DESIGN.md). *)

type polarity = N | P

val threshold : Tech.t -> polarity -> vsb:float -> float
(** Body-effect threshold magnitude. [vsb] is the source-to-bulk voltage
    for NMOS and bulk-to-source for PMOS (>= 0 in normal operation;
    clamped for robustness). Always positive. *)

val saturation_voltage : Tech.t -> polarity -> vgs:float -> vsb:float -> float
(** Overdrive [|vgs| - vth], clamped at zero. *)

val ids : Tech.t -> polarity -> w:float -> l:float -> vg:float -> vd:float -> vs:float -> float
(** Drain current with explicit drain/source roles ([vd >= vs] assumed for
    NMOS saturation/triode classification; callers should use
    {!channel_current} unless they know terminal roles). NMOS bulk at 0,
    PMOS bulk at VDD. *)

val channel_current :
  Tech.t -> polarity -> w:float -> l:float -> vg:float -> va:float -> vb:float -> float
(** Current flowing from channel terminal [a] to terminal [b], resolving
    which acts as source/drain from the potentials (MOSFETs are
    symmetric). Positive when conventional current flows a -> b. *)
