(* Unit and property tests for the numeric kernels. *)

open Tqwm_num

let check_float = Alcotest.(check (float 1e-9))

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- Vec ---------- *)

let test_vec_basic () =
  let v = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  check_float "dot" 14.0 (Vec.dot v v);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 v);
  check_float "norm_inf" 3.0 (Vec.norm_inf v);
  let w = Vec.sub (Vec.add v v) v in
  check_float "add/sub roundtrip" 0.0 (Vec.max_abs_diff v w);
  let y = Vec.copy v in
  Vec.axpy 2.0 v y;
  check_float "axpy" 9.0 y.{2}

let test_vec_errors () =
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)")
    (fun () ->
      ignore (Vec.dot (Vec.of_array [| 1.0; 2.0 |]) (Vec.of_array [| 1.0; 2.0; 3.0 |])))

(* ---------- Mat ---------- *)

let test_mat_mul () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let i = Mat.identity 2 in
  check_float "a*i = a" 0.0 (Mat.max_abs_diff a (Mat.mul a i));
  let b = Mat.mul a a in
  check_float "mul(0,0)" 7.0 (Mat.get b 0 0);
  check_float "mul(1,1)" 22.0 (Mat.get b 1 1);
  let t = Mat.transpose a in
  check_float "transpose" 2.0 (Mat.get t 1 0)

let test_mat_vec () =
  let a = Mat.of_rows [| [| 2.0; 0.0 |]; [| 1.0; 3.0 |] |] in
  let y = Mat.mul_vec a (Vec.of_list [ 1.0; 2.0 ]) in
  check_float "mul_vec 0" 2.0 y.{0};
  check_float "mul_vec 1" 7.0 y.{1}

(* ---------- Lu ---------- *)

let test_lu_solve () =
  let a = Mat.of_rows [| [| 4.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Lu.solve a (Vec.of_list [ 1.0; 2.0 ]) in
  check_close "x0" (1.0 /. 11.0) x.{0};
  check_close "x1" (7.0 /. 11.0) x.{1}

let test_lu_singular () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match Lu.factorize a with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let random_spd_system rng n =
  (* diagonally dominant => well-conditioned, solvable *)
  let a =
    Mat.init n n (fun i j ->
        let v = QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.float_range (-1.0) 1.0) in
        if i = j then 4.0 +. Float.abs v else v /. float_of_int n)
  in
  let x = Vec.init n (fun _ -> QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.float_range (-5.0) 5.0)) in
  (a, x)

let prop_lu_roundtrip =
  QCheck2.Test.make ~name:"lu solve recovers solution" ~count:100
    QCheck2.Gen.(pair (int_range 1 12) (int_bound 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let a, x = random_spd_system rng n in
      let b = Mat.mul_vec a x in
      let x' = Lu.solve a b in
      Vec.max_abs_diff x x' < 1e-8)

(* ---------- Tridiag ---------- *)

let random_tridiag rng n =
  let gen = QCheck2.Gen.float_range (-1.0) 1.0 in
  let g () = QCheck2.Gen.generate1 ~rand:rng gen in
  Tridiag.make
    ~lower:(Vec.init n (fun i -> if i = 0 then 0.0 else g ()))
    ~diag:(Vec.init n (fun _ -> 4.0 +. Float.abs (g ())))
    ~upper:(Vec.init n (fun i -> if i = n - 1 then 0.0 else g ()))

let prop_tridiag_vs_lu =
  QCheck2.Test.make ~name:"tridiagonal solve matches dense LU" ~count:100
    QCheck2.Gen.(pair (int_range 1 15) (int_bound 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 17 |] in
      let t = random_tridiag rng n in
      let b = Vec.init n (fun _ -> QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.float_range (-3.0) 3.0)) in
      let x_t = Tridiag.solve t b in
      let x_d = Lu.solve (Tridiag.to_mat t) b in
      Vec.max_abs_diff x_t x_d < 1e-8)

let test_tridiag_mul_vec () =
  let t =
    Tridiag.make
      ~lower:(Vec.of_list [ 0.0; 1.0; 1.0 ])
      ~diag:(Vec.of_list [ 2.0; 2.0; 2.0 ])
      ~upper:(Vec.of_list [ 1.0; 1.0; 0.0 ])
  in
  let y = Tridiag.mul_vec t (Vec.of_list [ 1.0; 1.0; 1.0 ]) in
  check_float "row 0" 3.0 y.{0};
  check_float "row 1" 4.0 y.{1};
  check_float "row 2" 3.0 y.{2}

let test_tridiag_of_mat_roundtrip () =
  let t =
    Tridiag.make
      ~lower:(Vec.of_list [ 0.0; -1.0 ])
      ~diag:(Vec.of_list [ 3.0; 5.0 ])
      ~upper:(Vec.of_list [ 2.0; 0.0 ])
  in
  let t' = Tridiag.of_mat (Tridiag.to_mat t) in
  check_float "roundtrip" 0.0 (Mat.max_abs_diff (Tridiag.to_mat t) (Tridiag.to_mat t'))

(* ---------- Bordered and Sherman-Morrison ---------- *)

let random_bordered rng n =
  let gen = QCheck2.Gen.float_range (-1.0) 1.0 in
  let g () = QCheck2.Gen.generate1 ~rand:rng gen in
  {
    Bordered.core = random_tridiag rng n;
    last_col = Vec.init n (fun _ -> g ());
    last_row = Vec.init n (fun _ -> g ());
    corner = 5.0 +. Float.abs (g ());
  }

let prop_bordered_vs_lu =
  QCheck2.Test.make ~name:"bordered solve matches dense LU" ~count:100
    QCheck2.Gen.(pair (int_range 1 12) (int_bound 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 23 |] in
      let sys = random_bordered rng n in
      let b =
        Vec.init (n + 1) (fun _ ->
            QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.float_range (-3.0) 3.0))
      in
      let x_b = Bordered.solve sys b in
      let x_d = Lu.solve (Bordered.to_mat sys) b in
      Vec.max_abs_diff x_b x_d < 1e-7)

let prop_sherman_morrison =
  QCheck2.Test.make ~name:"sherman-morrison matches dense rank-1 update" ~count:100
    QCheck2.Gen.(pair (int_range 1 12) (int_bound 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 31 |] in
      let t = random_tridiag rng n in
      let gen = QCheck2.Gen.float_range (-0.3) 0.3 in
      let g () = QCheck2.Gen.generate1 ~rand:rng gen in
      let u = Vec.init n (fun _ -> g ()) and v = Vec.init n (fun _ -> g ()) in
      let b = Vec.init n (fun _ -> g ()) in
      let x_sm = Sherman_morrison.solve_tridiag t ~u ~v b in
      let dense =
        Mat.init n n (fun i j -> Mat.get (Tridiag.to_mat t) i j +. (u.{i} *. v.{j}))
      in
      let x_d = Lu.solve dense b in
      Vec.max_abs_diff x_sm x_d < 1e-7)

let test_bordered_dim_zero () =
  let sys =
    let empty () = Vec.create 0 in
    { Bordered.core = Tridiag.make ~lower:(empty ()) ~diag:(empty ()) ~upper:(empty ());
      last_col = empty (); last_row = empty (); corner = 2.0 }
  in
  let x = Bordered.solve sys (Vec.of_list [ 4.0 ]) in
  check_float "corner-only" 2.0 x.{0}

(* ---------- In-place prefix kernels vs their allocating forms ----------

   The QWM hot path runs every linear solve through the [_into] kernels on
   reused capacity-sized workspace buffers. Each kernel must produce
   bit-identical results over the live [n]-prefix of oversized buffers:
   slack and scratch slots are pre-poisoned with NaN, so if a kernel ever
   read past its prefix — or a stale slot it is contracted to re-zero —
   the poison would propagate into the solution and the exact-bits check
   would fail. *)

let nan_filled len = Vec.init len (fun _ -> Float.nan)

(* embed [src] in a NaN-poisoned buffer with random extra capacity *)
let with_slack rng src =
  let slack = QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.int_range 0 5) in
  let out = nan_filled (Vec.dim src + slack) in
  Vec.blit_n (Vec.dim src) src out;
  out

let bits_equal_prefix n (x : Vec.t) (y : Vec.t) =
  let ok = ref true in
  for i = 0 to n - 1 do
    if not (Int64.equal (Int64.bits_of_float x.{i}) (Int64.bits_of_float y.{i})) then
      ok := false
  done;
  !ok

let random_b rng n =
  Vec.init n (fun _ -> QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.float_range (-3.0) 3.0))

let prop_tridiag_solve_into =
  QCheck2.Test.make ~name:"solve_into on poisoned slack buffers is bit-identical" ~count:200
    QCheck2.Gen.(pair (int_range 1 15) (int_bound 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 41 |] in
      let t = random_tridiag rng n in
      let b = random_b rng n in
      let x_ref = Tridiag.solve t b in
      let scratch () = nan_filled (n + 3) in
      let x = scratch () in
      Tridiag.solve_into ~n ~lower:(with_slack rng t.Tridiag.lower)
        ~diag:(with_slack rng t.Tridiag.diag) ~upper:(with_slack rng t.Tridiag.upper)
        ~cp:(scratch ()) ~dp:(scratch ()) ~b:(with_slack rng b) ~x;
      bits_equal_prefix n x_ref x)

let prop_bordered_solve_into =
  QCheck2.Test.make ~name:"solve_into on poisoned slack buffers is bit-identical" ~count:200
    QCheck2.Gen.(pair (int_range 1 12) (int_bound 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 43 |] in
      let sys = random_bordered rng n in
      let b = random_b rng (n + 1) in
      let x_ref = Bordered.solve sys b in
      let scratch () = nan_filled (n + 4) in
      let x = scratch () in
      Bordered.solve_into ~n ~lower:(with_slack rng sys.Bordered.core.Tridiag.lower)
        ~diag:(with_slack rng sys.Bordered.core.Tridiag.diag)
        ~upper:(with_slack rng sys.Bordered.core.Tridiag.upper)
        ~last_col:(with_slack rng sys.Bordered.last_col)
        ~last_row:(with_slack rng sys.Bordered.last_row) ~corner:sys.Bordered.corner
        ~cp:(scratch ()) ~dp:(scratch ()) ~y:(scratch ()) ~z:(scratch ())
        ~b:(with_slack rng b) ~x;
      bits_equal_prefix (n + 1) x_ref x)

let prop_sherman_morrison_solve_into =
  QCheck2.Test.make ~name:"solve_tridiag_into on poisoned slack buffers is bit-identical"
    ~count:200
    QCheck2.Gen.(pair (int_range 1 12) (int_bound 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 47 |] in
      let t = random_tridiag rng n in
      let gen = QCheck2.Gen.float_range (-0.3) 0.3 in
      let g () = QCheck2.Gen.generate1 ~rand:rng gen in
      let u = Vec.init n (fun _ -> g ()) and v = Vec.init n (fun _ -> g ()) in
      let b = random_b rng n in
      let x_ref = Sherman_morrison.solve_tridiag t ~u ~v b in
      let scratch () = nan_filled (n + 2) in
      let x = scratch () in
      Sherman_morrison.solve_tridiag_into ~n ~lower:(with_slack rng t.Tridiag.lower)
        ~diag:(with_slack rng t.Tridiag.diag) ~upper:(with_slack rng t.Tridiag.upper)
        ~u:(with_slack rng u) ~v:(with_slack rng v) ~cp:(scratch ()) ~dp:(scratch ())
        ~y:(scratch ()) ~z:(scratch ()) ~b:(with_slack rng b) ~x;
      bits_equal_prefix n x_ref x)

(* ---------- One elimination, two substitutions ----------

   [Bordered.solve_into] and [Sherman_morrison.solve_tridiag_into]
   eliminate their tridiagonal matrix once and substitute both
   right-hand sides on it. Each right-hand side must still see exactly
   the arithmetic of a full Thomas sweep of its own: the references
   below run two textbook sweeps, elimination and substitution
   interleaved, on plain float arrays, and the kernels must match them
   bit for bit, on NaN-poisoned slack buffers, and raise the same
   exception on the same singular inputs. *)

let thomas_sweep ~n ~lower ~diag ~upper b =
  let cp = Array.make n 0.0 and dp = Array.make n 0.0 and x = Array.make n 0.0 in
  if n > 0 then begin
    let d0 = diag.(0) in
    if Float.abs d0 < 1e-300 then raise (Tridiag.Singular 0);
    cp.(0) <- upper.(0) /. d0;
    dp.(0) <- b.(0) /. d0;
    for i = 1 to n - 1 do
      let denom = diag.(i) -. (lower.(i) *. cp.(i - 1)) in
      if Float.abs denom < 1e-300 then raise (Tridiag.Singular i);
      if i < n - 1 then cp.(i) <- upper.(i) /. denom;
      dp.(i) <- (b.(i) -. (lower.(i) *. dp.(i - 1))) /. denom
    done;
    x.(n - 1) <- dp.(n - 1);
    for i = n - 2 downto 0 do
      x.(i) <- dp.(i) -. (cp.(i) *. x.(i + 1))
    done
  end;
  x

let dot_prefix n x y =
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. (x.(i) *. y.(i))
  done;
  !s

let bordered_two_sweeps ~n ~lower ~diag ~upper ~last_col ~last_row ~corner b =
  if n = 0 then begin
    if Float.abs corner < 1e-300 then raise Bordered.Singular;
    [| b.(0) /. corner |]
  end
  else begin
    let y = thomas_sweep ~n ~lower ~diag ~upper b in
    let z = thomas_sweep ~n ~lower ~diag ~upper last_col in
    let schur = corner -. dot_prefix n last_row z in
    if Float.abs schur < 1e-300 then raise Bordered.Singular;
    let xd = (b.(n) -. dot_prefix n last_row y) /. schur in
    Array.init (n + 1) (fun i -> if i = n then xd else y.(i) -. (z.(i) *. xd))
  end

let sherman_morrison_two_sweeps ~n ~lower ~diag ~upper ~u ~v b =
  let y = thomas_sweep ~n ~lower ~diag ~upper b in
  let z = thomas_sweep ~n ~lower ~diag ~upper u in
  let denom = 1.0 +. dot_prefix n v z in
  if Float.abs denom < 1e-300 then raise Sherman_morrison.Singular;
  let coeff = dot_prefix n v y /. denom in
  Array.init n (fun i -> y.(i) -. (coeff *. z.(i)))

(* a solve's solution bits, or the exception it raised *)
let outcome f =
  match f () with
  | x -> Ok (Array.map Int64.bits_of_float x)
  | exception Tridiag.Singular i -> Error (Printf.sprintf "Tridiag.Singular %d" i)
  | exception Bordered.Singular -> Error "Bordered.Singular"
  | exception Sherman_morrison.Singular -> Error "Sherman_morrison.Singular"

(* A random diagonally dominant tridiagonal matrix as float arrays; one
   case in three has an exact zero pivot at a random row. *)
let random_bands rng n =
  let g () = QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.float_range (-1.0) 1.0) in
  let lower = Array.init n (fun i -> if i = 0 then 0.0 else g ()) in
  let diag = Array.init n (fun _ -> 4.0 +. Float.abs (g ())) in
  let upper = Array.init n (fun i -> if i = n - 1 then 0.0 else g ()) in
  if n > 0 && Random.State.int rng 3 = 0 then begin
    let k = Random.State.int rng n in
    lower.(k) <- 0.0;
    diag.(k) <- 0.0
  end;
  (lower, diag, upper)

let poisoned rng a = with_slack rng (Vec.of_array a)

let prefix_array n (v : Vec.t) = Array.init n (fun i -> v.{i})

let prop_bordered_eliminates_once =
  QCheck2.Test.make ~name:"bordered eliminate-once matches two Thomas sweeps" ~count:1000
    QCheck2.Gen.(pair (int_range 0 12) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 59 |] in
      let g () = QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.float_range (-1.0) 1.0) in
      let lower, diag, upper = random_bands rng n in
      let last_col = Array.init n (fun _ -> g ()) in
      let last_row = Array.init n (fun _ -> g ()) in
      let b = Array.init (n + 1) (fun _ -> 3.0 *. g ()) in
      let corner =
        (* one case in four: a Schur complement of exactly zero *)
        match thomas_sweep ~n ~lower ~diag ~upper last_col with
        | z when Random.State.int rng 4 = 0 -> dot_prefix n last_row z
        | _ | (exception Tridiag.Singular _) -> 5.0 +. Float.abs (g ())
      in
      let expected =
        outcome (fun () ->
            bordered_two_sweeps ~n ~lower ~diag ~upper ~last_col ~last_row ~corner b)
      in
      let scratch () = nan_filled (n + 1 + Random.State.int rng 3) in
      let x = scratch () in
      let actual =
        outcome (fun () ->
            Bordered.solve_into ~n ~lower:(poisoned rng lower) ~diag:(poisoned rng diag)
              ~upper:(poisoned rng upper) ~last_col:(poisoned rng last_col)
              ~last_row:(poisoned rng last_row) ~corner ~cp:(scratch ()) ~dp:(scratch ())
              ~y:(scratch ()) ~z:(scratch ()) ~b:(poisoned rng b) ~x;
            prefix_array (n + 1) x)
      in
      expected = actual)

let prop_sherman_morrison_eliminates_once =
  QCheck2.Test.make ~name:"sherman-morrison eliminate-once matches two Thomas sweeps"
    ~count:1000
    QCheck2.Gen.(pair (int_range 1 12) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 61 |] in
      let g () = QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.float_range (-0.3) 0.3) in
      let lower, diag, upper = random_bands rng n in
      let u = Array.init n (fun _ -> g ()) and v = Array.init n (fun _ -> g ()) in
      let b = Array.init n (fun _ -> 10.0 *. g ()) in
      let expected =
        outcome (fun () -> sherman_morrison_two_sweeps ~n ~lower ~diag ~upper ~u ~v b)
      in
      let scratch () = nan_filled (n + Random.State.int rng 3) in
      let x = scratch () in
      let actual =
        outcome (fun () ->
            Sherman_morrison.solve_tridiag_into ~n ~lower:(poisoned rng lower)
              ~diag:(poisoned rng diag) ~upper:(poisoned rng upper) ~u:(poisoned rng u)
              ~v:(poisoned rng v) ~cp:(scratch ()) ~dp:(scratch ()) ~y:(scratch ())
              ~z:(scratch ()) ~b:(poisoned rng b) ~x;
            prefix_array n x)
      in
      expected = actual)

(* A rank-1 update that makes the matrix exactly singular: [A = 2I],
   [u = e0], [v = -2 e0], so [1 + vT A^-1 u = 0]. *)
let test_sherman_morrison_singular_update () =
  let n = 3 in
  let lower = [| 0.0; 0.0; 0.0 |] and diag = [| 2.0; 2.0; 2.0 |] in
  let upper = [| 0.0; 0.0; 0.0 |] in
  let u = [| 1.0; 0.0; 0.0 |] and v = [| -2.0; 0.0; 0.0 |] and b = [| 1.0; 1.0; 1.0 |] in
  let vec = Vec.of_array in
  let scratch () = nan_filled n in
  Alcotest.(check (result (array int64) string))
    "reference raises" (Error "Sherman_morrison.Singular")
    (outcome (fun () -> sherman_morrison_two_sweeps ~n ~lower ~diag ~upper ~u ~v b));
  Alcotest.(check (result (array int64) string))
    "kernel raises" (Error "Sherman_morrison.Singular")
    (outcome (fun () ->
         let x = scratch () in
         Sherman_morrison.solve_tridiag_into ~n ~lower:(vec lower) ~diag:(vec diag)
           ~upper:(vec upper) ~u:(vec u) ~v:(vec v) ~cp:(scratch ()) ~dp:(scratch ())
           ~y:(scratch ()) ~z:(scratch ()) ~b:(vec b) ~x;
         prefix_array n x))

let prop_lu_factorize_into =
  QCheck2.Test.make
    ~name:"factorize_into/solve_factored_into in a poisoned capacity matrix is bit-identical"
    ~count:200
    QCheck2.Gen.(pair (int_range 1 10) (int_bound 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 53 |] in
      let a, x_exact = random_spd_system rng n in
      let b = Mat.mul_vec a x_exact in
      let x_ref = Lu.solve a b in
      (* capacity matrix: NaN everywhere, then the system stamped into the
         leading block (the factorization must never look past it) *)
      let slack = QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.int_range 0 4) in
      let cap = n + slack in
      let m = Mat.init cap cap (fun _ _ -> Float.nan) in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Mat.set m i j (Mat.get a i j)
        done
      done;
      let perm = Array.make cap (-1) in
      Lu.factorize_into ~n m ~perm;
      let x = nan_filled cap in
      Lu.solve_factored_into ~n m ~perm ~b:(with_slack rng b) ~x;
      bits_equal_prefix n x_ref x)

let prop_tridiag_solve_into_views =
  QCheck2.Test.make
    ~name:"solve_into on disjoint sub views of one slab is bit-identical and zero-copy"
    ~count:200
    QCheck2.Gen.(pair (int_range 1 15) (int_bound 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 59 |] in
      let t = random_tridiag rng n in
      let b = random_b rng n in
      let x_ref = Tridiag.solve t b in
      (* the Workspace pattern: one NaN-poisoned slab, seven disjoint
         capacity-sized [Array1.sub] views carved out of it as the
         kernel's operands; aliasing one backing buffer must not change
         a single bit of the solution *)
      let cap = n + QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.int_range 0 4) in
      let slab = nan_filled (7 * cap) in
      let view k = Vec.view slab ~pos:(k * cap) ~len:cap in
      let fill k src = Vec.blit_n n src (view k) in
      fill 0 t.Tridiag.lower;
      fill 1 t.Tridiag.diag;
      fill 2 t.Tridiag.upper;
      fill 5 b;
      let x = view 6 in
      Tridiag.solve_into ~n ~lower:(view 0) ~diag:(view 1) ~upper:(view 2)
        ~cp:(view 3) ~dp:(view 4) ~b:(view 5) ~x;
      (* bit-identical over the live prefix, and the writes must show
         through a freshly-carved view of the parent slab — [Vec.view]
         aliases the slab's memory, it never copies *)
      bits_equal_prefix n x_ref x
      && bits_equal_prefix n x_ref (Vec.view slab ~pos:(6 * cap) ~len:cap))

(* ---------- Newton ---------- *)

let test_newton_scalar () =
  let problem =
    {
      Newton.residual = (fun x -> Vec.of_list [ (x.{0} *. x.{0}) -. 4.0 ]);
      solve_linearized = (fun x f -> Vec.of_list [ f.{0} /. (2.0 *. x.{0}) ]);
    }
  in
  let out = Newton.solve problem (Vec.of_list [ 1.0 ]) in
  Alcotest.(check bool) "converged" true out.Newton.converged;
  check_close "root" 2.0 out.Newton.x.{0}

let test_newton_2d () =
  (* x^2 + y^2 = 2, x = y -> (1, 1) *)
  let residual x =
    Vec.of_list [ (x.{0} *. x.{0}) +. (x.{1} *. x.{1}) -. 2.0; x.{0} -. x.{1} ]
  in
  let solve_linearized x f =
    let j = Mat.of_rows [| [| 2.0 *. x.{0}; 2.0 *. x.{1} |]; [| 1.0; -1.0 |] |] in
    Lu.solve j f
  in
  let out = Newton.solve { Newton.residual; solve_linearized } (Vec.of_list [ 2.0; 0.5 ]) in
  Alcotest.(check bool) "converged" true out.Newton.converged;
  check_close "x" 1.0 out.Newton.x.{0};
  check_close "y" 1.0 out.Newton.x.{1}

let test_newton_failure_reported () =
  (* no real root of x^2 + 1 *)
  let problem =
    {
      Newton.residual = (fun x -> Vec.of_list [ (x.{0} *. x.{0}) +. 1.0 ]);
      solve_linearized = (fun x f -> Vec.of_list [ f.{0} /. (2.0 *. x.{0} +. 1e-9) ]);
    }
  in
  let out =
    Newton.solve ~max_iterations:25 problem (Vec.of_list [ 3.0 ])
  in
  Alcotest.(check bool) "not converged" false out.Newton.converged

(* ---------- Polyfit ---------- *)

let prop_polyfit_recovers =
  QCheck2.Test.make ~name:"polyfit recovers exact polynomials" ~count:100
    QCheck2.Gen.(pair (int_range 0 3) (int_bound 10000))
    (fun (degree, seed) ->
      let rng = Random.State.make [| seed; 41 |] in
      let coeffs =
        Array.init (degree + 1) (fun _ ->
            QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.float_range (-2.0) 2.0))
      in
      let pts =
        Array.init (degree + 4) (fun i ->
            let x = float_of_int i /. 2.0 in
            (x, Polyfit.eval coeffs x))
      in
      let fitted = Polyfit.fit ~degree pts in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) coeffs fitted)

let test_polyfit_wrappers () =
  let pts = [| (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) |] in
  let intercept, slope = Polyfit.linear pts in
  check_close "intercept" 1.0 intercept;
  check_close "slope" 2.0 slope;
  let c0, c1, c2 = Polyfit.quadratic [| (0.0, 0.0); (1.0, 1.0); (2.0, 4.0); (3.0, 9.0) |] in
  check_close "c0" 0.0 ~eps:1e-7 c0;
  check_close "c1" 0.0 ~eps:1e-7 c1;
  check_close "c2" 1.0 c2;
  check_close "deriv" 4.0 (Polyfit.eval_deriv [| 0.0; 0.0; 1.0 |] 2.0)

let test_polyfit_errors () =
  Alcotest.check_raises "too few points"
    (Invalid_argument "Polyfit.fit: not enough points") (fun () ->
      ignore (Polyfit.fit ~degree:2 [| (0.0, 0.0) |]))

let test_polyfit_max_residual () =
  let pts = [| (0.0, 0.0); (1.0, 1.1) |] in
  let r = Polyfit.max_residual [| 0.0; 1.0 |] pts in
  check_close "residual" 0.1 r

(* ---------- Interp ---------- *)

let test_interp_linear () =
  let ax = Interp.axis ~start:0.0 ~stop:2.0 ~count:3 in
  let samples = Vec.of_list [ 0.0; 10.0; 40.0 ] in
  check_close "knot value" 10.0 (Interp.linear ax samples 1.0);
  check_close "between" 5.0 (Interp.linear ax samples 0.5);
  check_close "extrapolate" 55.0 (Interp.linear ax samples 2.5)

let test_interp_bilinear () =
  let ax = Interp.axis ~start:0.0 ~stop:1.0 ~count:2 in
  let table = Mat.of_rows [| [| 0.0; 1.0 |]; [| 2.0; 3.0 |] |] in
  check_close "corner" 3.0 (Interp.bilinear ax ax table 1.0 1.0);
  check_close "center" 1.5 (Interp.bilinear ax ax table 0.5 0.5)

let prop_interp_exact_at_knots =
  QCheck2.Test.make ~name:"interpolation exact at grid knots" ~count:50
    QCheck2.Gen.(int_bound 10000)
    (fun seed ->
      let rng = Random.State.make [| seed; 43 |] in
      let n = 5 in
      let ax = Interp.axis ~start:(-1.0) ~stop:1.0 ~count:n in
      let samples =
        Vec.init n (fun _ ->
            QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.float_range (-4.0) 4.0))
      in
      let ok = ref true in
      for i = 0 to n - 1 do
        if Float.abs (Interp.linear ax samples (Interp.knot ax i) -. samples.{i}) > 1e-9
        then ok := false
      done;
      !ok)

let test_interp_errors () =
  Alcotest.check_raises "bad axis" (Invalid_argument "Interp.axis: count < 2") (fun () ->
      ignore (Interp.axis ~start:0.0 ~stop:1.0 ~count:1))

let test_interp_nonuniform () =
  let xs = [| 0.0; 1.0; 4.0; 10.0 |] in
  let ys = [| 0.0; 2.0; 8.0; 20.0 |] in
  check_close "at knot" 8.0 (Interp.piecewise_linear ~xs ~ys 4.0);
  check_close "between" 5.0 (Interp.piecewise_linear ~xs ~ys 2.5);
  check_close "extrapolates" 22.0 (Interp.piecewise_linear ~xs ~ys 11.0);
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Interp: axis must be strictly increasing") (fun () ->
      ignore (Interp.piecewise_linear ~xs:[| 0.0; 0.0 |] ~ys:[| 1.0; 2.0 |] 0.5))

let test_interp_table_lookup () =
  let xs = [| 0.0; 2.0 |] and ys = [| 0.0; 1.0; 10.0 |] in
  let table = Mat.of_rows [| [| 0.0; 1.0; 10.0 |]; [| 2.0; 3.0; 12.0 |] |] in
  check_close "corner" 12.0 (Interp.table_lookup ~xs ~ys table 2.0 10.0);
  check_close "center of first cell" 1.5 (Interp.table_lookup ~xs ~ys table 1.0 0.5);
  check_close "non-uniform cell" 5.5 (Interp.table_lookup ~xs ~ys table 0.0 5.5)

(* ---------- Quad ---------- *)

let test_quad_roots () =
  (match Quad.roots ~a:1.0 ~b:(-3.0) ~c:2.0 with
  | [ r1; r2 ] ->
    check_close "root 1" 1.0 r1;
    check_close "root 2" 2.0 r2
  | _ -> Alcotest.fail "expected two roots");
  (match Quad.roots ~a:0.0 ~b:2.0 ~c:(-4.0) with
  | [ r ] -> check_close "linear root" 2.0 r
  | _ -> Alcotest.fail "expected one root");
  Alcotest.(check (list (float 1e-9))) "no real roots" [] (Quad.roots ~a:1.0 ~b:0.0 ~c:1.0);
  Alcotest.(check (list (float 1e-9))) "degenerate" [] (Quad.roots ~a:0.0 ~b:0.0 ~c:1.0)

let prop_quad_roots_reconstruct =
  QCheck2.Test.make ~name:"quadratic roots satisfy the polynomial" ~count:200
    QCheck2.Gen.(triple (float_range (-5.0) 5.0) (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
    (fun (a, b, c) ->
      Quad.roots ~a ~b ~c
      |> List.for_all (fun r -> Float.abs (Quad.eval ~a ~b ~c r) < 1e-6))

let test_quad_smallest_positive () =
  (match Quad.smallest_positive_root ~a:1.0 ~b:0.0 ~c:(-4.0) with
  | Some r -> check_close "positive root" 2.0 r
  | None -> Alcotest.fail "expected a root");
  Alcotest.(check bool) "none positive" true
    (Quad.smallest_positive_root ~a:1.0 ~b:3.0 ~c:2.0 = None)

(* ---------- Stats ---------- *)

let test_stats () =
  check_close "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_close "geomean" 2.0 (Stats.geometric_mean [ 1.0; 4.0 ]);
  check_close "max_abs" 3.0 (Stats.max_abs [ -3.0; 2.0 ]);
  check_close "rms" (sqrt 2.5) (Stats.rms [ 1.0; 2.0 ]);
  check_close "rel err" 0.1 (Stats.relative_error ~reference:10.0 11.0);
  check_close "percent" 12.0 (Stats.percent 0.12)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let prop p = QCheck_alcotest.to_alcotest p in
  Alcotest.run "tqwm_num"
    [
      ("vec", [ quick "basic ops" test_vec_basic; quick "errors" test_vec_errors ]);
      ("mat", [ quick "mul" test_mat_mul; quick "mul_vec" test_mat_vec ]);
      ( "lu",
        [
          quick "solve 2x2" test_lu_solve;
          quick "singular" test_lu_singular;
          prop prop_lu_roundtrip;
        ] );
      ( "tridiag",
        [
          prop prop_tridiag_vs_lu;
          quick "mul_vec" test_tridiag_mul_vec;
          quick "of_mat roundtrip" test_tridiag_of_mat_roundtrip;
        ] );
      ( "bordered",
        [
          prop prop_bordered_vs_lu;
          prop prop_sherman_morrison;
          quick "dim zero" test_bordered_dim_zero;
        ] );
      ( "prefix-kernels",
        [
          prop prop_tridiag_solve_into;
          prop prop_bordered_solve_into;
          prop prop_sherman_morrison_solve_into;
          prop prop_lu_factorize_into;
          prop prop_tridiag_solve_into_views;
        ] );
      ( "eliminate once",
        [
          prop prop_bordered_eliminates_once;
          prop prop_sherman_morrison_eliminates_once;
          quick "sherman-morrison singular update" test_sherman_morrison_singular_update;
        ] );
      ( "newton",
        [
          quick "scalar" test_newton_scalar;
          quick "2d" test_newton_2d;
          quick "failure" test_newton_failure_reported;
        ] );
      ( "polyfit",
        [
          prop prop_polyfit_recovers;
          quick "wrappers" test_polyfit_wrappers;
          quick "errors" test_polyfit_errors;
          quick "max_residual" test_polyfit_max_residual;
        ] );
      ( "interp",
        [
          quick "linear" test_interp_linear;
          quick "bilinear" test_interp_bilinear;
          prop prop_interp_exact_at_knots;
          quick "errors" test_interp_errors;
          quick "non-uniform 1d" test_interp_nonuniform;
          quick "non-uniform table" test_interp_table_lookup;
        ] );
      ( "quad",
        [
          quick "roots" test_quad_roots;
          prop prop_quad_roots_reconstruct;
          quick "smallest positive" test_quad_smallest_positive;
        ] );
      ("stats", [ quick "all" test_stats ]);
    ]
