(** Tridiagonal systems (Thomas algorithm, O(n)). *)

type t = {
  lower : Vec.t;  (** sub-diagonal, length n (entry 0 unused) *)
  diag : Vec.t;  (** main diagonal, length n *)
  upper : Vec.t;  (** super-diagonal, length n (entry n-1 unused) *)
}

exception Singular of int

val make : lower:Vec.t -> diag:Vec.t -> upper:Vec.t -> t
(** @raise Invalid_argument if the three bands differ in length. *)

val dim : t -> int

val of_mat : Mat.t -> t
(** Extract the three bands of a square matrix (off-band entries ignored). *)

val to_mat : t -> Mat.t

val solve : t -> Vec.t -> Vec.t
(** Thomas algorithm. @raise Singular on a zero pivot (no pivoting is
    performed; intended for diagonally-dominant timing systems). *)

val eliminate_into :
  n:int -> lower:Vec.t -> diag:Vec.t -> upper:Vec.t -> piv:Vec.t -> cp:Vec.t -> unit
(** The Thomas elimination of the matrix alone, over the {e first [n]
    entries} of capacity-sized buffers, allocation-free: the pivots land
    in [piv] and the modified upper coefficients in [cp], ready for any
    number of {!substitute_into} calls. Entries at index [>= n] of every
    array are neither read nor written.
    @raise Singular on a zero pivot.
    @raise Invalid_argument if any buffer is shorter than [n]. *)

val substitute_into :
  n:int -> lower:Vec.t -> piv:Vec.t -> cp:Vec.t -> b:Vec.t -> x:Vec.t -> unit
(** The forward and back substitution of one right-hand side [b] on the
    factorization {!eliminate_into} left in [piv]/[cp] (and the same
    [lower] band); the solution lands in [x], which may be [b]. Each
    right-hand side sees exactly the operations, in the same order, of a
    {!solve_into} on it, so it is bit-identical to one.
    @raise Invalid_argument if any buffer is shorter than [n]. *)

val solve_into :
  n:int ->
  lower:Vec.t ->
  diag:Vec.t ->
  upper:Vec.t ->
  cp:Vec.t ->
  dp:Vec.t ->
  b:Vec.t ->
  x:Vec.t ->
  unit
(** Allocation-free Thomas kernel over the {e first [n] entries} of
    capacity-sized buffers — bit-identical to {!solve} on the same bands:
    {!eliminate_into} with [dp] as the pivot buffer, then
    {!substitute_into}. [cp]/[dp] are scratch; the solution lands in
    [x]. Entries at index [>= n] of every array are neither read nor
    written, so buffers may be reused across systems of different sizes
    without clearing.
    @raise Singular on a zero pivot.
    @raise Invalid_argument if any buffer is shorter than [n]. *)

val mul_vec : t -> Vec.t -> Vec.t
