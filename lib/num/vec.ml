(* Bigarray-backed storage: float64/c_layout means the kernels index
   unboxed, contiguous memory, and larger slabs can be carved into
   zero-copy [Array1.sub] views (see [view]) that share that memory. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill v 0.0;
  v

external dim : t -> int = "%caml_ba_dim_1"

external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"

external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

external get : t -> int -> float = "%caml_ba_ref_1"

external set : t -> int -> float -> unit = "%caml_ba_set_1"

let init n f =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    unsafe_set v i (f i)
  done;
  v

let copy x =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (dim x) in
  Bigarray.Array1.blit x v;
  v

let of_array a = Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout a

let to_array x = Array.init (dim x) (fun i -> x.{i})

let of_list l = of_array (Array.of_list l)

let view v ~pos ~len = Bigarray.Array1.sub v pos len

let check_dims name x y =
  if dim x <> dim y then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
                   (dim x) (dim y))

let map2 f x y =
  check_dims "map2" x y;
  init (dim x) (fun i -> f x.{i} y.{i})

let add x y = map2 ( +. ) x y

let sub x y = map2 ( -. ) x y

let scale a x = init (dim x) (fun i -> a *. x.{i})

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to dim x - 1 do
    unsafe_set y i ((a *. unsafe_get x i) +. unsafe_get y i)
  done

(* The hot-path kernels call this once per operand, so the check itself
   never allocates. After it passes, indices below [n] are in bounds, so
   the kernels may use [unsafe_get]/[unsafe_set]. *)
let[@inline] check_prefix1 name n x =
  if n < 0 then invalid_arg (Printf.sprintf "%s: negative prefix %d" name n);
  if dim x < n then
    invalid_arg
      (Printf.sprintf "%s: prefix %d exceeds length %d" name n (dim x))

let dot_n n x y =
  check_prefix1 "Vec.dot_n" n x;
  check_prefix1 "Vec.dot_n" n y;
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. (unsafe_get x i *. unsafe_get y i)
  done;
  !s

let blit_n n x y =
  check_prefix1 "Vec.blit_n" n x;
  check_prefix1 "Vec.blit_n" n y;
  for i = 0 to n - 1 do
    unsafe_set y i (unsafe_get x i)
  done

let fill_n n v x =
  check_prefix1 "Vec.fill_n" n v;
  for i = 0 to n - 1 do
    unsafe_set v i x
  done

let dot x y =
  check_dims "dot" x y;
  dot_n (dim x) x y

let norm2 x = sqrt (dot x x)

let norm_inf x =
  let m = ref 0.0 in
  for i = 0 to dim x - 1 do
    m := Float.max !m (Float.abs (unsafe_get x i))
  done;
  !m

let max_abs_diff x y =
  check_dims "max_abs_diff" x y;
  let m = ref 0.0 in
  for i = 0 to dim x - 1 do
    m := Float.max !m (Float.abs (unsafe_get x i -. unsafe_get y i))
  done;
  !m
