(** Newton–Raphson for small nonlinear systems F(x) = 0, taking full
    steps.

    The linear step is delegated to a caller-supplied solver; the
    reference transient engine passes its dense-LU or successive-chord
    solve. The QWM engine has its own region Newton in
    [Tqwm_core.Qwm_solver]. *)

type outcome = {
  x : Vec.t;  (** final iterate *)
  iterations : int;
  residual_norm : float;  (** inf-norm of F at the final iterate *)
  converged : bool;
  stalled : bool;
      (** The step-stall exit was taken: a Newton update fell below
          1e-12 (inf-norm) before |F|_inf reached the 1e-9 residual
          tolerance. A stalled outcome reports [converged = true] only
          under a deliberately loosened acceptance of 1e-8 — callers
          that care about full-tolerance convergence must check this
          flag. *)
}

type problem = {
  residual : Vec.t -> Vec.t;  (** F *)
  solve_linearized : Vec.t -> Vec.t -> Vec.t;
      (** [solve_linearized x f] returns the Newton update [dx] with
          [J(x) dx = f]; may raise to signal a singular Jacobian. *)
}

val solve : ?max_iterations:int -> problem -> Vec.t -> outcome
(** [solve problem x0] iterates from [x0] until |F|_inf <= 1e-9, the
    step stalls, or [max_iterations] (default 60) iterations have run.
    Linear-solver exceptions are caught and reported as
    [converged = false] at the last healthy iterate. *)
