(** QWM engine configuration. *)

type linear_solver =
  | Bordered  (** O(K) block elimination on the bordered tridiagonal system *)
  | Sherman_morrison
      (** the paper's formulation: tridiagonal core plus a rank-1 update for
          the region-length column (§IV-B) *)
  | Dense_lu  (** O(K^3) dense solve — the ablation baseline *)

type waveform_model =
  | Quadratic
      (** the paper's model: per-region linear current, quadratic voltage,
          one [alpha] parameter per node (§IV-A) *)
  | Linear
      (** simpler alternative (the conclusion's "suitability of other
          waveforms"): per-region constant current, linear voltage; the
          unknowns are the region currents themselves. Cheaper but loses
          slope continuity — the accuracy ablation quantifies the cost *)

type t = {
  levels : float list;
      (** output-ladder matching points (fractions of VDD, descending) used
          after the last transistor has turned on; each contributes one
          quadratic region *)
  linear_solver : linear_solver;
  waveform_model : waveform_model;
  reduce_wires : bool;
      (** collapse wire runs in the chain into O'Brien–Savarino pi macros
          (the paper's treatment of the decoder-tree wires) *)
}

val default : t
