(** LU decomposition with partial pivoting, and direct dense solves.

    One Doolittle elimination ({!factorize_into}) and one substitution
    ({!solve_factored_into}) run in place over caller-owned buffers; the
    allocating entry points copy their inputs and call them. *)

exception Singular of int
(** Raised when elimination meets a (near-)zero pivot; the payload is the
    offending column. *)

type factor
(** A factored matrix (P*A = L*U), reusable for multiple right-hand sides. *)

val factorize : Mat.t -> factor
(** {!factorize_into} on a copy of the matrix.
    @raise Singular if the matrix is numerically singular.
    @raise Invalid_argument on a non-square matrix. *)

val solve_factored : factor -> Vec.t -> Vec.t
(** {!solve_factored_into} into a fresh vector.
    @raise Invalid_argument on a dimension mismatch. *)

val solve : Mat.t -> Vec.t -> Vec.t
(** [solve a b] solves [a x = b]. *)

val factorize_into : n:int -> Mat.t -> perm:int array -> unit
(** In-place LU factorization (partial pivoting) of the leading [n] x [n]
    block of the matrix. The matrix's column count is the row stride, so
    one capacity-sized matrix hosts systems of any [n <= min rows cols];
    the caller must (re)stamp the leading block before each call since
    the factors overwrite it. [perm.(0 .. n-1)] receives the row
    permutation.
    @raise Singular on a numerically singular block.
    @raise Invalid_argument if the block or [perm] is too small. *)

val solve_factored_into :
  n:int -> Mat.t -> perm:int array -> b:Vec.t -> x:Vec.t -> unit
(** Substitution on a {!factorize_into}-factored block: solves into
    [x.(0 .. n-1)] reading [b.(0 .. n-1)], allocation-free. [b] and [x]
    must not alias.
    @raise Invalid_argument if a buffer is shorter than [n]. *)
