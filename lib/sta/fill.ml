let init empty n f =
  let a = Array.make n empty in
  for i = 0 to n - 1 do
    a.(i) <- f i
  done;
  a
