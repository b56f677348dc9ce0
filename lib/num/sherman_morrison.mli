(** Sherman–Morrison rank-1 update solves.

    The QWM Jacobian is a tridiagonal matrix plus a rank-1 correction
    [u vT] contributed by the region-length column (paper §IV-B). Given a
    fast solver for the base matrix [A], the update

    {[ (A + u vT)^-1 b = y - (vT y / (1 + vT z)) z ]}

    with [A y = b] and [A z = u] costs two base solves, which share one
    elimination of [A]. *)

exception Singular
(** Raised when [1 + vT z] vanishes, i.e. the updated matrix is singular. *)

val solve_tridiag : Tridiag.t -> u:Vec.t -> v:Vec.t -> Vec.t -> Vec.t
(** [solve_tridiag a ~u ~v b] solves [(A + u vT) x = b] for a tridiagonal
    [A], the paper's exact use: {!solve_tridiag_into} over fresh buffers.
    @raise Singular / Tridiag.Singular as {!solve_tridiag_into}.
    @raise Invalid_argument when [u], [v] or [b] differs in length from
    [A]. *)

val solve_tridiag_into :
  n:int ->
  lower:Vec.t ->
  diag:Vec.t ->
  upper:Vec.t ->
  u:Vec.t ->
  v:Vec.t ->
  cp:Vec.t ->
  dp:Vec.t ->
  y:Vec.t ->
  z:Vec.t ->
  b:Vec.t ->
  x:Vec.t ->
  unit
(** The rank-1-update solve over the first [n] entries of capacity-sized
    buffers, allocation-free. [cp]/[dp] hold the base matrix's one Thomas
    elimination (coefficients and pivots), [y]/[z] the two base solves;
    the solution lands in [x.(0..n-1)]. Nothing past the prefixes is read
    or written.
    @raise Singular when [1 + vT z] vanishes.
    @raise Tridiag.Singular on a zero pivot of the base matrix.
    @raise Invalid_argument if any buffer is shorter than [n]. *)
