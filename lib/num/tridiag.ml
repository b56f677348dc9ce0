type t = { lower : Vec.t; diag : Vec.t; upper : Vec.t }

exception Singular of int

let make ~lower ~diag ~upper =
  let n = Vec.dim diag in
  if Vec.dim lower <> n || Vec.dim upper <> n then
    invalid_arg "Tridiag.make: band length mismatch";
  { lower; diag; upper }

let dim t = Vec.dim t.diag

let of_mat m =
  let n, cols = Mat.dims m in
  if n <> cols then invalid_arg "Tridiag.of_mat: non-square matrix";
  let lower = Vec.create n and diag = Vec.create n and upper = Vec.create n in
  for i = 0 to n - 1 do
    if i > 0 then lower.{i} <- Mat.get m i (i - 1);
    diag.{i} <- Mat.get m i i;
    if i < n - 1 then upper.{i} <- Mat.get m i (i + 1)
  done;
  { lower; diag; upper }

let to_mat t =
  let n = dim t in
  Mat.init n n (fun i j ->
      if j = i - 1 then t.lower.{i}
      else if j = i then t.diag.{i}
      else if j = i + 1 then t.upper.{i}
      else 0.0)

(* The Thomas algorithm over the first [n] entries of capacity-sized
   buffers, allocation-free, in two halves: [eliminate_into] factors the
   matrix alone (the pivots into [piv], the modified upper coefficients
   into [cp]), and [substitute_into] runs the forward and back
   substitution of one right-hand side on that factorization. A caller
   with several right-hand sides on one matrix eliminates once; each
   right-hand side sees the operations of a full sweep in the same
   order. Entries past [n] are never read or written, and the prefix
   checks are hoisted here so the sweep loops index unchecked. *)
let eliminate_into ~n ~lower ~diag ~upper ~piv ~cp =
  Vec.check_prefix1 "Tridiag.eliminate_into" n lower;
  Vec.check_prefix1 "Tridiag.eliminate_into" n diag;
  Vec.check_prefix1 "Tridiag.eliminate_into" n upper;
  Vec.check_prefix1 "Tridiag.eliminate_into" n piv;
  Vec.check_prefix1 "Tridiag.eliminate_into" n cp;
  if n > 0 then begin
    let d0 = Vec.unsafe_get diag 0 in
    if Float.abs d0 < 1e-300 then raise (Singular 0);
    Vec.unsafe_set piv 0 d0;
    Vec.unsafe_set cp 0 (Vec.unsafe_get upper 0 /. d0);
    for i = 1 to n - 1 do
      let denom =
        Vec.unsafe_get diag i -. (Vec.unsafe_get lower i *. Vec.unsafe_get cp (i - 1))
      in
      if Float.abs denom < 1e-300 then raise (Singular i);
      Vec.unsafe_set piv i denom;
      if i < n - 1 then Vec.unsafe_set cp i (Vec.unsafe_get upper i /. denom)
    done
  end

(* The forward pass writes its modified right-hand side into [x], and the
   back pass overwrites it in place with the solution; [b] may be [x]. *)
let substitute_into ~n ~lower ~piv ~cp ~b ~x =
  Vec.check_prefix1 "Tridiag.substitute_into" n lower;
  Vec.check_prefix1 "Tridiag.substitute_into" n piv;
  Vec.check_prefix1 "Tridiag.substitute_into" n cp;
  Vec.check_prefix1 "Tridiag.substitute_into" n b;
  Vec.check_prefix1 "Tridiag.substitute_into" n x;
  if n > 0 then begin
    Vec.unsafe_set x 0 (Vec.unsafe_get b 0 /. Vec.unsafe_get piv 0);
    for i = 1 to n - 1 do
      Vec.unsafe_set x i
        ((Vec.unsafe_get b i -. (Vec.unsafe_get lower i *. Vec.unsafe_get x (i - 1)))
        /. Vec.unsafe_get piv i)
    done;
    for i = n - 2 downto 0 do
      Vec.unsafe_set x i
        (Vec.unsafe_get x i -. (Vec.unsafe_get cp i *. Vec.unsafe_get x (i + 1)))
    done
  end

let solve_into ~n ~lower ~diag ~upper ~cp ~dp ~b ~x =
  eliminate_into ~n ~lower ~diag ~upper ~piv:dp ~cp;
  substitute_into ~n ~lower ~piv:dp ~cp ~b ~x

let solve t b =
  let n = dim t in
  if Vec.dim b <> n then invalid_arg "Tridiag.solve: dimension mismatch";
  let cp = Vec.create n and dp = Vec.create n and x = Vec.create n in
  solve_into ~n ~lower:t.lower ~diag:t.diag ~upper:t.upper ~cp ~dp ~b ~x;
  x

let mul_vec t x =
  let n = dim t in
  if Vec.dim x <> n then invalid_arg "Tridiag.mul_vec: dimension mismatch";
  Vec.init n (fun i ->
      let s = ref (t.diag.{i} *. x.{i}) in
      if i > 0 then s := !s +. (t.lower.{i} *. x.{i - 1});
      if i < n - 1 then s := !s +. (t.upper.{i} *. x.{i + 1});
      !s)
