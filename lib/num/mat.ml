type t = { rows : int; cols : int; data : Vec.t }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Vec.create (rows * cols) }

let of_vec ~rows ~cols data =
  if rows < 0 || cols < 0 then invalid_arg "Mat.of_vec: negative dimension";
  if Vec.dim data <> rows * cols then
    invalid_arg "Mat.of_vec: data length mismatch";
  { rows; cols; data }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.{(i * cols) + j} <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let copy m = { m with data = Vec.copy m.data }

let get m i j = m.data.{(i * m.cols) + j}

let set m i j x = m.data.{(i * m.cols) + j} <- x

let add_to m i j x = m.data.{(i * m.cols) + j} <- m.data.{(i * m.cols) + j} +. x

let dims m = (m.rows, m.cols)

let of_rows rows =
  let r = Array.length rows in
  if r = 0 then create 0 0
  else begin
    let c = Array.length rows.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> c then invalid_arg "Mat.of_rows: ragged rows")
      rows;
    init r c (fun i j -> rows.(i).(j))
  end

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  let m = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          add_to m i j (aik *. get b k j)
        done
    done
  done;
  m

let mul_vec a x =
  if a.cols <> Vec.dim x then invalid_arg "Mat.mul_vec: dimension mismatch";
  Vec.init a.rows (fun i ->
      let s = ref 0.0 in
      for j = 0 to a.cols - 1 do
        s := !s +. (get a i j *. x.{j})
      done;
      !s)

let scale k m = { m with data = Vec.scale k m.data }

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Mat.max_abs_diff: dimension mismatch";
  Vec.max_abs_diff a.data b.data
