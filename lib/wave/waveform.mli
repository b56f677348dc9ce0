(** Voltage waveforms.

    Two representations: sampled piecewise-linear traces (what the SPICE
    engine emits) and analytic piecewise-quadratic traces (what QWM emits —
    each region contributes one quadratic piece; the paper plots QWM
    results as segments connecting the critical points). *)

type t
(** A sampled waveform: strictly increasing times with linear
    interpolation between samples and constant extension outside. *)

val of_samples : (float * float) array -> t
(** @raise Invalid_argument on empty input or non-increasing times. *)

val samples : t -> (float * float) array

val start_time : t -> float

val end_time : t -> float

val value_at : t -> float -> float

val map_values : (float -> float) -> t -> t

val crossings : t -> level:float -> (float * [ `Rising | `Falling ]) list
(** All level crossings in time order (linear interpolation inside
    segments); samples exactly on the level resolve by the segment
    direction. *)

val first_crossing :
  t -> level:float -> direction:[ `Rising | `Falling | `Any ] -> float option

(** {2 Piecewise-quadratic waveforms} *)

type piece = {
  t0 : float;  (** piece start time *)
  dt : float;  (** piece duration, > 0 *)
  v0 : float;  (** value at [t0] *)
  dv : float;  (** first derivative at [t0] *)
  ddv : float;  (** constant second derivative over the piece *)
}
(** On [t0, t0+dt]: [v(t) = v0 + dv*(t-t0) + ddv/2*(t-t0)^2]. *)

type quadratic
(** Contiguous sequence of quadratic pieces, stored as five parallel
    float64 columns (structure-of-arrays), usually zero-copy views into
    one contiguous slab. *)

val quadratic_of_pieces : piece list -> quadratic
(** Packs the pieces into a fresh contiguous slab.
    @raise Invalid_argument if pieces are empty, non-contiguous (ends and
    starts differing by more than 1e-15 s) or have non-positive
    durations. *)

val of_columns :
  t0:Tqwm_num.Vec.t ->
  dt:Tqwm_num.Vec.t ->
  v0:Tqwm_num.Vec.t ->
  dv:Tqwm_num.Vec.t ->
  ddv:Tqwm_num.Vec.t ->
  quadratic
(** Zero-copy constructor over caller-owned column views (e.g. slices of
    a solver arena slab).  The columns are adopted, not copied: they must
    not be mutated afterwards.  Validation matches
    [quadratic_of_pieces]. *)

val quadratic_pieces : quadratic -> piece list

(** {3 Packed-block form}

    One waveform as [5 * length] consecutive floats of a shared slab
    (columns in t0/dt/v0/dv/ddv order), so many waveforms packed
    back-to-back form one contiguous range that can be hashed without
    touching boxed structure. *)

val packed_size : quadratic -> int
(** Floats the packed form occupies: five per piece. *)

val blit_packed : quadratic -> Tqwm_num.Vec.t -> pos:int -> unit
(** Copy the five columns into [dst] starting at [pos] in packed order. *)

val quadratic_value_at : quadratic -> float -> float
(** Constant extension outside the covered span. *)

val quadratic_end_value : quadratic -> float

val quadratic_first_crossing :
  quadratic -> level:float -> direction:[ `Rising | `Falling | `Any ] -> float option
(** Analytic crossing search using the quadratic roots of each piece. *)

val sample_quadratic : quadratic -> dt:float -> t
(** Densify for plotting/comparison; includes the final instant.
    @raise Invalid_argument if [dt <= 0]. *)
