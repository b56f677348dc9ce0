type outcome = {
  x : Vec.t;
  iterations : int;
  residual_norm : float;
  converged : bool;
  stalled : bool;
}

type problem = {
  residual : Vec.t -> Vec.t;
  solve_linearized : Vec.t -> Vec.t -> Vec.t;
}

(* stop when |F|_inf falls below *)
let residual_tolerance = 1e-9

(* stop when |dx|_inf falls below *)
let step_tolerance = 1e-12

let solve ?(max_iterations = 60) problem x0 =
  let rec loop x iter =
    let f = problem.residual x in
    let fnorm = Vec.norm_inf f in
    if fnorm <= residual_tolerance then
      { x; iterations = iter; residual_norm = fnorm; converged = true; stalled = false }
    else if iter >= max_iterations then
      { x; iterations = iter; residual_norm = fnorm; converged = false; stalled = false }
    else
      match problem.solve_linearized x f with
      | exception _ ->
        { x; iterations = iter; residual_norm = fnorm; converged = false; stalled = false }
      | dx ->
        let step_norm = Vec.norm_inf dx in
        let x' = Vec.init (Vec.dim x) (fun i -> x.{i} -. dx.{i}) in
        if step_norm <= step_tolerance then
          (* the iteration can no longer move: accept at a deliberately
             loosened tolerance, but flag the stall so callers (and
             telemetry) can tell this apart from a clean convergence *)
          let f' = problem.residual x' in
          let fnorm' = Vec.norm_inf f' in
          {
            x = x';
            iterations = iter + 1;
            residual_norm = fnorm';
            converged = fnorm' <= residual_tolerance *. 10.0;
            stalled = true;
          }
        else loop x' (iter + 1)
  in
  loop (Vec.copy x0) 0
