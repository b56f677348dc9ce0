(** Bordered tridiagonal systems.

    The per-region QWM Jacobian has the block shape

    {[ [ T  u ] [xa]   [f]
       [ vT d ] [xd] = [g] ]}

    with [T] tridiagonal (n x n), [u] the last column, [vT] the last row and
    [d] the corner scalar. Block elimination needs two tridiagonal solves,
    [xd = (g - vT T^-1 f) / (d - vT T^-1 u)], [xa = T^-1 (f - u xd)],
    which share one elimination of [T].
    Total cost O(n), the complexity the paper claims for its
    Sherman–Morrison formulation. *)

exception Singular

type t = {
  core : Tridiag.t;
  last_col : Vec.t;  (** u, length n *)
  last_row : Vec.t;  (** v, length n *)
  corner : float;  (** d *)
}

val to_mat : t -> Mat.t
(** Densify (for tests and the dense-LU ablation path). *)

val solve : t -> Vec.t -> Vec.t
(** [solve sys b] with [b] of length [n + 1].
    @raise Singular when the Schur complement vanishes.
    @raise Tridiag.Singular when the tridiagonal core does. *)

val solve_into :
  n:int ->
  lower:Vec.t ->
  diag:Vec.t ->
  upper:Vec.t ->
  last_col:Vec.t ->
  last_row:Vec.t ->
  corner:float ->
  cp:Vec.t ->
  dp:Vec.t ->
  y:Vec.t ->
  z:Vec.t ->
  b:Vec.t ->
  x:Vec.t ->
  unit
(** Allocation-free block elimination over the first [n + 1] entries of
    capacity-sized buffers — bit-identical to {!solve} on the same system.
    The bands and borders use their first [n] entries; [b], [x] and the
    scratch vectors [cp]/[dp] (the core's one Thomas elimination: its
    coefficients and pivots) and [y]/[z] (the two tridiagonal solves)
    use their first [n + 1]. Nothing past those prefixes is read or
    written.
    @raise Singular / Tridiag.Singular as {!solve}.
    @raise Invalid_argument if any buffer is too short. *)
