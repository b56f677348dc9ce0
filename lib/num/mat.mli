(** Dense row-major matrices over Bigarray-backed storage. *)

type t = {
  rows : int;
  cols : int;
  data : Vec.t;  (** row-major, length [rows * cols] *)
}

val create : int -> int -> t
(** [create r c] is the zero [r]x[c] matrix. *)

val of_vec : rows:int -> cols:int -> Vec.t -> t
(** [of_vec ~rows ~cols v] wraps [v] (length [rows * cols]) as a matrix
    without copying — [v] may be a {!Vec.view} into a larger slab, so
    workspace matrices share their storage with the owning arena. *)

val init : int -> int -> (int -> int -> float) -> t

val identity : int -> t

val copy : t -> t

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] accumulates [x] into entry [(i, j)]; the basic
    operation of matrix stamping. *)

val dims : t -> int * int

val of_rows : float array array -> t

val transpose : t -> t

val mul : t -> t -> t

val mul_vec : t -> Vec.t -> Vec.t

val scale : float -> t -> t

val max_abs_diff : t -> t -> float
