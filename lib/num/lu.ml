exception Singular of int

type factor = { lu : Mat.t; perm : int array }

let pivot_epsilon = 1e-300

(* Doolittle LU with partial pivoting, in place over the leading [n] x [n]
   block of [m] (the matrix's column count is the row stride, so a
   capacity-sized matrix can host systems of any [n <= min rows cols]):
   the combined L\U factors overwrite the block and [perm.(0 .. n-1)]
   records the row exchanges. Entries outside the block are untouched. *)
let factorize_into ~n m ~perm =
  let rows, cols = Mat.dims m in
  if n < 0 || n > rows || n > cols then
    invalid_arg "Lu.factorize_into: block exceeds matrix";
  if Array.length perm < n then invalid_arg "Lu.factorize_into: perm too short";
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  let swap_rows i j =
    if i <> j then begin
      for c = 0 to n - 1 do
        let t = Mat.get m i c in
        Mat.set m i c (Mat.get m j c);
        Mat.set m j c t
      done;
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    end
  in
  for k = 0 to n - 1 do
    let best = ref k and best_mag = ref (Float.abs (Mat.get m k k)) in
    for i = k + 1 to n - 1 do
      let mag = Float.abs (Mat.get m i k) in
      if mag > !best_mag then begin
        best := i;
        best_mag := mag
      end
    done;
    if !best_mag < pivot_epsilon then raise (Singular k);
    swap_rows k !best;
    let pivot = Mat.get m k k in
    for i = k + 1 to n - 1 do
      let factor = Mat.get m i k /. pivot in
      Mat.set m i k factor;
      if factor <> 0.0 then
        for j = k + 1 to n - 1 do
          Mat.set m i j (Mat.get m i j -. (factor *. Mat.get m k j))
        done
    done
  done

(* Forward/back substitution on an [factorize_into]-factored block,
   writing the solution into [x.(0 .. n-1)]. [b] is only read. *)
let solve_factored_into ~n m ~perm ~b ~x =
  Vec.check_prefix1 "Lu.solve_factored_into" n b;
  Vec.check_prefix1 "Lu.solve_factored_into" n x;
  if Array.length perm < n then
    invalid_arg "Lu.solve_factored_into: perm too short";
  for i = 0 to n - 1 do
    Vec.unsafe_set x i (Vec.unsafe_get b perm.(i))
  done;
  for i = 1 to n - 1 do
    let s = ref (Vec.unsafe_get x i) in
    for j = 0 to i - 1 do
      s := !s -. (Mat.get m i j *. Vec.unsafe_get x j)
    done;
    Vec.unsafe_set x i !s
  done;
  for i = n - 1 downto 0 do
    let s = ref (Vec.unsafe_get x i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Mat.get m i j *. Vec.unsafe_get x j)
    done;
    Vec.unsafe_set x i (!s /. Mat.get m i i)
  done

let factorize a =
  let n, cols = Mat.dims a in
  if n <> cols then invalid_arg "Lu.factorize: non-square matrix";
  let lu = Mat.copy a and perm = Array.make n 0 in
  factorize_into ~n lu ~perm;
  { lu; perm }

let solve_factored { lu; perm } b =
  let n = Array.length perm in
  if Vec.dim b <> n then invalid_arg "Lu.solve_factored: dimension mismatch";
  let x = Vec.create n in
  solve_factored_into ~n lu ~perm ~b ~x;
  x

let solve a b = solve_factored (factorize a) b
