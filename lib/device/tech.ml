type t = {
  name : string;
  vdd : float;
  l_min : float;
  w_min : float;
  cox : float;
  kp_n : float;
  kp_p : float;
  vt0_n : float;
  vt0_p : float;
  gamma_n : float;
  gamma_p : float;
  phi : float;
  lambda_n : float;
  lambda_p : float;
  l_diffusion : float;
  cj : float;
  cjsw : float;
  pb : float;
  mj : float;
  c_overlap : float;
  r_sheet_wire : float;
  c_wire_area : float;
  c_wire_fringe : float;
}

let cmosp35 =
  {
    name = "cmosp35";
    vdd = 3.3;
    l_min = 0.35e-6;
    w_min = 0.8e-6;
    cox = 4.5e-3;
    kp_n = 1.8e-4;
    kp_p = 6.0e-5;
    vt0_n = 0.55;
    vt0_p = 0.70;
    gamma_n = 0.45;
    gamma_p = 0.40;
    phi = 0.70;
    lambda_n = 0.06;
    lambda_p = 0.08;
    l_diffusion = 0.8e-6;
    cj = 9.0e-4;
    cjsw = 2.8e-10;
    pb = 0.9;
    mj = 0.36;
    c_overlap = 1.2e-10;
    r_sheet_wire = 0.08;
    c_wire_area = 3.0e-5;
    c_wire_fringe = 8.0e-11;
  }

type corner = Typical | Fast | Slow

let corner t = function
  | Typical -> t
  | Fast ->
    {
      t with
      name = t.name ^ "-fast";
      kp_n = t.kp_n *. 1.15;
      kp_p = t.kp_p *. 1.15;
      vt0_n = t.vt0_n *. 0.90;
      vt0_p = t.vt0_p *. 0.90;
      cj = t.cj *. 0.92;
      cjsw = t.cjsw *. 0.92;
    }
  | Slow ->
    {
      t with
      name = t.name ^ "-slow";
      kp_n = t.kp_n *. 0.85;
      kp_p = t.kp_p *. 0.85;
      vt0_n = t.vt0_n *. 1.10;
      vt0_p = t.vt0_p *. 1.10;
      cj = t.cj *. 1.08;
      cjsw = t.cjsw *. 1.08;
    }

let corner_name = function Typical -> "typical" | Fast -> "fast" | Slow -> "slow"
