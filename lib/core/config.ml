type linear_solver = Bordered | Sherman_morrison | Dense_lu

type waveform_model = Quadratic | Linear

type t = {
  levels : float list;
  linear_solver : linear_solver;
  waveform_model : waveform_model;
  reduce_wires : bool;
}

let default =
  {
    levels = [ 0.85; 0.72; 0.6; 0.5; 0.4; 0.3; 0.2; 0.12; 0.06 ];
    linear_solver = Bordered;
    waveform_model = Quadratic;
    reduce_wires = true;
  }
