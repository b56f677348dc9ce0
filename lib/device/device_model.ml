type terminal_voltages = {
  mutable input : float;
  mutable src : float;
  mutable snk : float;
}

(* All-float record, so the fields are stored flat: writing them is a
   plain float store and reading them into locals never boxes. One such
   record, owned by the caller and reused across calls, makes the
   derivative query allocation-free. *)
type derivs = { mutable cur : float; mutable dsrc : float; mutable dsnk : float }

let derivs () = { cur = 0.0; dsrc = 0.0; dsnk = 0.0 }

type t = {
  name : string;
  iv : Device.t -> terminal_voltages -> float;
  iv_derivatives_into : Device.t -> terminal_voltages -> derivs -> unit;
  threshold : Device.t -> terminal_voltages -> float;
  src_cap : Device.t -> v:float -> float;
  snk_cap : Device.t -> v:float -> float;
  input_cap : Device.t -> float;
}

let finite_difference_derivatives iv device tv =
  let h = 1e-6 in
  let dsrc =
    (iv device { tv with src = tv.src +. h } -. iv device { tv with src = tv.src -. h })
    /. (2.0 *. h)
  in
  let dsnk =
    (iv device { tv with snk = tv.snk +. h } -. iv device { tv with snk = tv.snk -. h })
    /. (2.0 *. h)
  in
  (dsrc, dsnk)

let analytic ?(miller_factor = 1.0) (tech : Tech.t) =
  let iv (device : Device.t) tv =
    match device.kind with
    | Device.Nmos ->
      Mosfet.channel_current tech Mosfet.N ~w:device.w ~l:device.l ~vg:tv.input
        ~va:tv.src ~vb:tv.snk
    | Device.Pmos ->
      Mosfet.channel_current tech Mosfet.P ~w:device.w ~l:device.l ~vg:tv.input
        ~va:tv.src ~vb:tv.snk
    | Device.Wire ->
      (tv.src -. tv.snk) /. Capacitance.wire_resistance tech ~w:device.w ~l:device.l
  in
  let threshold (device : Device.t) tv =
    match device.kind with
    | Device.Nmos -> Mosfet.threshold tech Mosfet.N ~vsb:tv.snk
    | Device.Pmos -> Mosfet.threshold tech Mosfet.P ~vsb:(tech.vdd -. tv.src)
    | Device.Wire -> 0.0
  in
  let iv_derivatives_into (device : Device.t) tv (out : derivs) =
    out.cur <- iv device tv;
    match device.kind with
    | Device.Nmos | Device.Pmos ->
      let dsrc, dsnk = finite_difference_derivatives iv device tv in
      out.dsrc <- dsrc;
      out.dsnk <- dsnk
    | Device.Wire ->
      let g = 1.0 /. Capacitance.wire_resistance tech ~w:device.w ~l:device.l in
      out.dsrc <- g;
      out.dsnk <- -.g
  in
  let terminal_cap device ~v = Capacitance.terminal ~miller_factor tech device ~v in
  {
    name = "analytic";
    iv;
    iv_derivatives_into;
    threshold;
    src_cap = terminal_cap;
    snk_cap = terminal_cap;
    input_cap =
      (fun (device : Device.t) ->
        match device.kind with
        | Device.Nmos | Device.Pmos -> Capacitance.gate tech ~w:device.w ~l:device.l
        | Device.Wire -> 0.0);
  }
