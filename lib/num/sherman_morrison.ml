exception Singular

(* In-place rank-1-update solve over the first [n] entries of
   capacity-sized buffers, with a tridiagonal base matrix, allocation-free.
   The base matrix is eliminated once, its coefficients in [cp] and its
   pivots in [dp]; [y]/[z] hold the two base solves, the solution lands in
   [x.(0..n-1)]. *)
let solve_tridiag_into ~n ~lower ~diag ~upper ~u ~v ~cp ~dp ~y ~z ~b ~x =
  Vec.check_prefix1 "Sherman_morrison.solve_tridiag_into" n lower;
  Vec.check_prefix1 "Sherman_morrison.solve_tridiag_into" n diag;
  Vec.check_prefix1 "Sherman_morrison.solve_tridiag_into" n upper;
  Vec.check_prefix1 "Sherman_morrison.solve_tridiag_into" n u;
  Vec.check_prefix1 "Sherman_morrison.solve_tridiag_into" n v;
  Vec.check_prefix1 "Sherman_morrison.solve_tridiag_into" n cp;
  Vec.check_prefix1 "Sherman_morrison.solve_tridiag_into" n dp;
  Vec.check_prefix1 "Sherman_morrison.solve_tridiag_into" n y;
  Vec.check_prefix1 "Sherman_morrison.solve_tridiag_into" n z;
  Vec.check_prefix1 "Sherman_morrison.solve_tridiag_into" n b;
  Vec.check_prefix1 "Sherman_morrison.solve_tridiag_into" n x;
  Tridiag.eliminate_into ~n ~lower ~diag ~upper ~piv:dp ~cp;
  Tridiag.substitute_into ~n ~lower ~piv:dp ~cp ~b ~x:y;
  Tridiag.substitute_into ~n ~lower ~piv:dp ~cp ~b:u ~x:z;
  let denom = 1.0 +. Vec.dot_n n v z in
  if Float.abs denom < 1e-300 then raise Singular;
  let coeff = Vec.dot_n n v y /. denom in
  for i = 0 to n - 1 do
    Vec.unsafe_set x i (Vec.unsafe_get y i -. (coeff *. Vec.unsafe_get z i))
  done

let solve_tridiag (t : Tridiag.t) ~u ~v b =
  let n = Tridiag.dim t in
  if Vec.dim u <> n || Vec.dim v <> n || Vec.dim b <> n then
    invalid_arg "Sherman_morrison.solve_tridiag: dimension mismatch";
  let cp = Vec.create n and dp = Vec.create n and y = Vec.create n in
  let z = Vec.create n and x = Vec.create n in
  solve_tridiag_into ~n ~lower:t.lower ~diag:t.diag ~upper:t.upper ~u ~v ~cp ~dp ~y ~z
    ~b ~x;
  x
