(** Dense floating-point vectors.

    Bigarray-backed ([float64]/[c_layout]) so the numeric kernels run
    over unboxed, contiguous storage, and larger slabs can be carved
    into zero-copy {!view}s sharing one allocation. The type is kept
    transparent: consumers index with the [v.{i}] Bigarray syntax.
    All functions are total unless stated otherwise; dimension
    mismatches raise [Invalid_argument]. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** [create n] is a zero vector of length [n]. *)

val init : int -> (int -> float) -> t
(** [init n f] fills indices [0 .. n-1] in increasing order. *)

val copy : t -> t

external dim : t -> int = "%caml_ba_dim_1"

val of_array : float array -> t

val to_array : t -> float array

val of_list : float list -> t

val view : t -> pos:int -> len:int -> t
(** [view v ~pos ~len] is the zero-copy [Array1.sub] window
    [v.(pos .. pos+len-1)]; writes through the view are visible in [v].
    @raise Invalid_argument when the window exceeds [v]. *)

external get : t -> int -> float = "%caml_ba_ref_1"

external set : t -> int -> float -> unit = "%caml_ba_set_1"

external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"
(** Unchecked access — only after {!check_prefix1} has validated the
    index range.

    The four accessors (and [dim]) are [external] compiler primitives
    rather than wrapper functions on purpose: dune's dev profile builds
    with [-opaque], which disables cross-module inlining, and a
    non-inlined float-returning accessor boxes its result on every call
    — the hot kernels would pay ~4 words per element access. A primitive
    declared in the interface specializes at every call site (the
    element kind and layout are statically known through {!t}), so reads
    and writes compile to direct unboxed memory accesses in all
    profiles. *)

external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

val add : t -> t -> t
(** Elementwise sum. *)

val sub : t -> t -> t
(** Elementwise difference. *)

val scale : float -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] updates [y <- a*x + y] in place. *)

val dot : t -> t -> float

val check_prefix1 : string -> int -> t -> unit
(** [check_prefix1 name n v] validates that [v] has at least [n] entries
    (and [n >= 0]); [name] labels the raised [Invalid_argument].
    Allocation-free — the in-place kernels call it once per operand and
    then index the first [n] entries unchecked. *)

val dot_n : int -> t -> t -> float
(** [dot_n n x y] is the dot product of the first [n] entries, accumulated
    in index order ({!dot} is [dot_n] over the whole vectors) — the prefix
    form the in-place solver kernels use so capacity-sized scratch buffers
    never enter the product.
    @raise Invalid_argument if either vector is shorter than [n]. *)

val blit_n : int -> t -> t -> unit
(** [blit_n n x y] copies the first [n] entries of [x] into [y]. *)

val fill_n : int -> t -> float -> unit
(** [fill_n n v x] sets the first [n] entries of [v] to [x]. *)

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
(** Max absolute entry; 0 for the empty vector. *)

val max_abs_diff : t -> t -> float
(** [max_abs_diff x y] is [norm_inf (sub x y)]. *)
