exception Singular

type t = { core : Tridiag.t; last_col : Vec.t; last_row : Vec.t; corner : float }

let to_mat t =
  let n = Tridiag.dim t.core in
  let m = Mat.create (n + 1) (n + 1) in
  let core = Tridiag.to_mat t.core in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set m i j (Mat.get core i j)
    done;
    Mat.set m i n t.last_col.{i};
    Mat.set m n i t.last_row.{i}
  done;
  Mat.set m n n t.corner;
  m

(* In-place block elimination over the first [n + 1] entries of
   capacity-sized buffers; the arithmetic of [solve], allocation-free.
   The tridiagonal core is eliminated once, its coefficients in [cp] and
   its pivots in [dp], and both right-hand sides substitute on it: [y]
   and [z] hold the two tridiagonal solves, the solution lands in
   [x.(0 .. n)]. *)
let solve_into ~n ~lower ~diag ~upper ~last_col ~last_row ~corner ~cp ~dp ~y ~z
    ~b ~x =
  Vec.check_prefix1 "Bordered.solve_into" n lower;
  Vec.check_prefix1 "Bordered.solve_into" n diag;
  Vec.check_prefix1 "Bordered.solve_into" n upper;
  Vec.check_prefix1 "Bordered.solve_into" n last_col;
  Vec.check_prefix1 "Bordered.solve_into" n last_row;
  Vec.check_prefix1 "Bordered.solve_into" (n + 1) cp;
  Vec.check_prefix1 "Bordered.solve_into" (n + 1) dp;
  Vec.check_prefix1 "Bordered.solve_into" (n + 1) y;
  Vec.check_prefix1 "Bordered.solve_into" (n + 1) z;
  Vec.check_prefix1 "Bordered.solve_into" (n + 1) b;
  Vec.check_prefix1 "Bordered.solve_into" (n + 1) x;
  if n = 0 then begin
    if Float.abs corner < 1e-300 then raise Singular;
    Vec.unsafe_set x 0 (Vec.unsafe_get b 0 /. corner)
  end
  else begin
    let g = Vec.unsafe_get b n in
    Tridiag.eliminate_into ~n ~lower ~diag ~upper ~piv:dp ~cp;
    Tridiag.substitute_into ~n ~lower ~piv:dp ~cp ~b ~x:y;
    Tridiag.substitute_into ~n ~lower ~piv:dp ~cp ~b:last_col ~x:z;
    let schur = corner -. Vec.dot_n n last_row z in
    if Float.abs schur < 1e-300 then raise Singular;
    let xd = (g -. Vec.dot_n n last_row y) /. schur in
    for i = 0 to n - 1 do
      Vec.unsafe_set x i (Vec.unsafe_get y i -. (Vec.unsafe_get z i *. xd))
    done;
    Vec.unsafe_set x n xd
  end

let solve t b =
  let n = Tridiag.dim t.core in
  if Vec.dim b <> n + 1 then invalid_arg "Bordered.solve: dimension mismatch";
  if Vec.dim t.last_col <> n || Vec.dim t.last_row <> n then
    invalid_arg "Bordered.solve: border length mismatch";
  let cp = Vec.create (n + 1) and dp = Vec.create (n + 1) in
  let y = Vec.create (n + 1) and z = Vec.create (n + 1) in
  let x = Vec.create (n + 1) in
  solve_into ~n ~lower:t.core.Tridiag.lower ~diag:t.core.Tridiag.diag
    ~upper:t.core.Tridiag.upper ~last_col:t.last_col ~last_row:t.last_row
    ~corner:t.corner ~cp ~dp ~y ~z ~b ~x;
  x
