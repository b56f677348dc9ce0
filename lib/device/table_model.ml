module Interp = Tqwm_num.Interp
module Polyfit = Tqwm_num.Polyfit

type fit = {
  s1 : float;
  s2 : float;
  t0 : float;
  t1 : float;
  t2 : float;
  vth : float;
  vdsat : float;
}

let zero_fit ~vth = { s1 = 0.0; s2 = 0.0; t0 = 0.0; t1 = 0.0; t2 = 0.0; vth; vdsat = 0.0 }

type t = {
  tech : Tech.t;
  polarity : Mosfet.polarity;
  vg_axis : Interp.axis;
  vs_axis : Interp.axis;
  fits : fit array array;  (** indexed [vg][vs] *)
  vth_by_vs : Tqwm_num.Vec.t;
}

let reference_w = 1.0e-6

let reference_l (tech : Tech.t) = tech.l_min

(* Slope of one grid point's piecewise fit at a channel drop [x = vd - vs]:
   the quadratic covers the triode region, the line the saturation region. *)
let[@inline] fit_eval_deriv fit x =
  if x <= fit.vdsat then fit.t1 +. (2.0 *. fit.t2 *. x) else fit.s1

let sample_range ~lo ~hi ~count f =
  Array.init count (fun i ->
      let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int (count - 1)) in
      (x, f x))

(* sample points per region fit: the triode quadratic and the
   saturation line *)
let samples_per_fit = 9

let characterize ?(grid_step = 0.1) (tech : Tech.t) ~polarity ~source ~threshold =
  if grid_step <= 0.0 then invalid_arg "Table_model.characterize: grid_step <= 0";
  let count = int_of_float (Float.ceil (tech.vdd /. grid_step)) + 1 in
  let vg_axis = Interp.axis ~start:0.0 ~stop:tech.vdd ~count in
  let vs_axis = vg_axis in
  let fit_point g s =
    let vth = threshold ~vs:s in
    let vdsat = Float.max (g -. s -. vth) 0.0 in
    let headroom = tech.vdd -. s in
    if vdsat <= 1e-9 || headroom <= 1e-9 then zero_fit ~vth
    else begin
      let current x = source ~vg:g ~vs:s ~vd:(s +. x) in
      let triode_end = Float.min vdsat headroom in
      let triode_pts =
        sample_range ~lo:0.0 ~hi:triode_end ~count:samples_per_fit current
      in
      let t0, t1, t2 = Polyfit.quadratic triode_pts in
      let s1, s2 =
        if vdsat < headroom -. 1e-9 then
          let sat_pts =
            sample_range ~lo:vdsat ~hi:headroom ~count:samples_per_fit current
          in
          Polyfit.linear sat_pts |> fun (intercept, slope) -> (slope, intercept)
        else begin
          (* no saturation headroom on the grid: continue with the triode tangent *)
          let slope = t1 +. (2.0 *. t2 *. triode_end) in
          let value = t0 +. (t1 *. triode_end) +. (t2 *. triode_end *. triode_end) in
          (slope, value -. (slope *. triode_end))
        end
      in
      { s1; s2; t0; t1; t2; vth; vdsat = triode_end }
    end
  in
  let fits =
    Array.init count (fun i ->
        Array.init count (fun j -> fit_point (Interp.knot vg_axis i) (Interp.knot vs_axis j)))
  in
  let vth_by_vs = Tqwm_num.Vec.init count (fun j -> fits.(0).(j).vth) in
  { tech; polarity; vg_axis; vs_axis; fits; vth_by_vs }

let of_analytic ?grid_step (tech : Tech.t) polarity =
  let w = reference_w and l = reference_l tech in
  let source =
    match polarity with
    | Mosfet.N -> fun ~vg ~vs ~vd -> Mosfet.ids tech Mosfet.N ~w ~l ~vg ~vd ~vs
    | Mosfet.P ->
      (* pull-down-normalized coordinates: mirror about VDD *)
      fun ~vg ~vs ~vd ->
        Mosfet.ids tech Mosfet.P ~w ~l ~vg:(tech.vdd -. vg) ~vd:(tech.vdd -. vd)
          ~vs:(tech.vdd -. vs)
  in
  let threshold ~vs = Mosfet.threshold tech polarity ~vsb:vs in
  characterize ?grid_step tech ~polarity ~source ~threshold

(* Bilinear interpolation between the four neighbouring grid fits; each
   corner's polynomial is evaluated at the query's own vd (paper §V-A). *)
let interp_corners t ~vg ~vs ~vd eval =
  let i, tx = Interp.locate t.vg_axis vg in
  let j, ty = Interp.locate t.vs_axis vs in
  let corner di dj =
    let fit = t.fits.(i + di).(j + dj) in
    let s_corner = Interp.knot t.vs_axis (j + dj) in
    eval fit (vd -. s_corner)
  in
  let f00 = corner 0 0 and f10 = corner 1 0 and f01 = corner 0 1 and f11 = corner 1 1 in
  ((1.0 -. tx) *. (1.0 -. ty) *. f00)
  +. (tx *. (1.0 -. ty) *. f10)
  +. ((1.0 -. tx) *. ty *. f01)
  +. (tx *. ty *. f11)

(* The hot lookups below are bilinear corner interpolations with every
   helper expanded in place: no closure, no [Interp.locate] tuple, and no
   float-returning call to [Interp.locate_frac]/[Interp.knot] (this
   compiler boxes each such return, ~2 words per call, and does not
   reliably inline them away). Each corner's piecewise fit is evaluated
   at the query's own channel drop: the quadratic below [vdsat], the line
   above it. *)

(* [Interp.locate_index] without its [Float.floor], a libm call:
   truncation differs from the floor only on negative non-integral
   inputs, and there both land below 0 or on it, where the clamp puts
   them on 0. NaN and values past the int range convert alike with or
   without the floor. *)
let[@inline] locate_index_x (ax : Interp.axis) x =
  let raw = (x -. ax.Interp.start) /. ax.Interp.step in
  let i = int_of_float raw in
  if i < 0 then 0 else if i > ax.Interp.count - 2 then ax.Interp.count - 2 else i

let lookup t ~vg ~vs ~vd =
  let gax = t.vg_axis and sax = t.vs_axis in
  let i = locate_index_x gax vg in
  let tx = ((vg -. gax.Interp.start) /. gax.Interp.step) -. float_of_int i in
  let j = locate_index_x sax vs in
  let ty = ((vs -. sax.Interp.start) /. sax.Interp.step) -. float_of_int j in
  let x0 = vd -. (sax.Interp.start +. (float_of_int j *. sax.Interp.step)) in
  let x1 = vd -. (sax.Interp.start +. (float_of_int (j + 1) *. sax.Interp.step)) in
  let fi = t.fits.(i) and fi1 = t.fits.(i + 1) in
  let c00 = fi.(j) and c10 = fi1.(j) and c01 = fi.(j + 1) and c11 = fi1.(j + 1) in
  let f00 =
    if x0 <= c00.vdsat then c00.t0 +. (c00.t1 *. x0) +. (c00.t2 *. x0 *. x0)
    else (c00.s1 *. x0) +. c00.s2
  in
  let f10 =
    if x0 <= c10.vdsat then c10.t0 +. (c10.t1 *. x0) +. (c10.t2 *. x0 *. x0)
    else (c10.s1 *. x0) +. c10.s2
  in
  let f01 =
    if x1 <= c01.vdsat then c01.t0 +. (c01.t1 *. x1) +. (c01.t2 *. x1 *. x1)
    else (c01.s1 *. x1) +. c01.s2
  in
  let f11 =
    if x1 <= c11.vdsat then c11.t0 +. (c11.t1 *. x1) +. (c11.t2 *. x1 *. x1)
    else (c11.s1 *. x1) +. c11.s2
  in
  ((1.0 -. tx) *. (1.0 -. ty) *. f00)
  +. (tx *. (1.0 -. ty) *. f10)
  +. ((1.0 -. tx) *. ty *. f01)
  +. (tx *. ty *. f11)

let lookup_dvd t ~vg ~vs ~vd = interp_corners t ~vg ~vs ~vd fit_eval_deriv

(* The current and both fast derivatives in one corner pass (paper §V-A:
   "I/V queries ... dIds/dVd and dIds/dVs can be computed very fast").
   The current is [lookup]'s interpolation of the same corners, term for
   term; dI/dVd interpolates the fitted-polynomial slopes; dI/dVs
   differentiates the interpolation weights (the corners' own [vds]
   arguments do not depend on the query's source voltage). The raw
   table-frame current lands in [out.cur], dI/dVd in [out.dsrc] and dI/dVs
   in [out.dsnk] (scratch semantics — the caller maps them onto
   terminals). *)
let lookup_derivs_into t ~vg ~vs ~vd (out : Device_model.derivs) =
  let gax = t.vg_axis and sax = t.vs_axis in
  let i = locate_index_x gax vg in
  let tx = ((vg -. gax.Interp.start) /. gax.Interp.step) -. float_of_int i in
  let j = locate_index_x sax vs in
  let ty = ((vs -. sax.Interp.start) /. sax.Interp.step) -. float_of_int j in
  let x0 = vd -. (sax.Interp.start +. (float_of_int j *. sax.Interp.step)) in
  let x1 = vd -. (sax.Interp.start +. (float_of_int (j + 1) *. sax.Interp.step)) in
  let fi = t.fits.(i) and fi1 = t.fits.(i + 1) in
  let c00 = fi.(j) and c10 = fi1.(j) and c01 = fi.(j + 1) and c11 = fi1.(j + 1) in
  let f00 =
    if x0 <= c00.vdsat then c00.t0 +. (c00.t1 *. x0) +. (c00.t2 *. x0 *. x0)
    else (c00.s1 *. x0) +. c00.s2
  in
  let f10 =
    if x0 <= c10.vdsat then c10.t0 +. (c10.t1 *. x0) +. (c10.t2 *. x0 *. x0)
    else (c10.s1 *. x0) +. c10.s2
  in
  let f01 =
    if x1 <= c01.vdsat then c01.t0 +. (c01.t1 *. x1) +. (c01.t2 *. x1 *. x1)
    else (c01.s1 *. x1) +. c01.s2
  in
  let f11 =
    if x1 <= c11.vdsat then c11.t0 +. (c11.t1 *. x1) +. (c11.t2 *. x1 *. x1)
    else (c11.s1 *. x1) +. c11.s2
  in
  let d00 = if x0 <= c00.vdsat then c00.t1 +. (2.0 *. c00.t2 *. x0) else c00.s1 in
  let d10 = if x0 <= c10.vdsat then c10.t1 +. (2.0 *. c10.t2 *. x0) else c10.s1 in
  let d01 = if x1 <= c01.vdsat then c01.t1 +. (2.0 *. c01.t2 *. x1) else c01.s1 in
  let d11 = if x1 <= c11.vdsat then c11.t1 +. (2.0 *. c11.t2 *. x1) else c11.s1 in
  let w00 = (1.0 -. tx) *. (1.0 -. ty)
  and w10 = tx *. (1.0 -. ty)
  and w01 = (1.0 -. tx) *. ty
  and w11 = tx *. ty in
  out.Device_model.cur <- (w00 *. f00) +. (w10 *. f10) +. (w01 *. f01) +. (w11 *. f11);
  out.Device_model.dsrc <- (w00 *. d00) +. (w10 *. d10) +. (w01 *. d01) +. (w11 *. d11);
  out.Device_model.dsnk <-
    (((1.0 -. tx) *. (f01 -. f00)) +. (tx *. (f11 -. f10))) /. sax.Interp.step

let threshold t ~vs =
  Interp.linear t.vs_axis t.vth_by_vs vs

let fit_at t i j = t.fits.(i).(j)

let grid t = (t.vg_axis, t.vs_axis)

let[@inline] geometry_scale t (device : Device.t) =
  device.w *. reference_l t.tech /. (device.l *. reference_w)

(* Current src -> snk for a transistor edge, resolving terminal symmetry
   and the PMOS mirror onto the normalized table. *)
let transistor_iv table (device : Device.t) (tv : Device_model.terminal_voltages) =
  let scale = geometry_scale table device in
  match table.polarity with
  | Mosfet.N ->
    if tv.src >= tv.snk then scale *. lookup table ~vg:tv.input ~vs:tv.snk ~vd:tv.src
    else -.(scale *. lookup table ~vg:tv.input ~vs:tv.src ~vd:tv.snk)
  | Mosfet.P ->
    let vdd = table.tech.vdd in
    let g = vdd -. tv.input and a = vdd -. tv.src and b = vdd -. tv.snk in
    if b >= a then scale *. lookup table ~vg:g ~vs:a ~vd:b
    else -.(scale *. lookup table ~vg:g ~vs:b ~vd:a)

let to_device_model ?(miller_factor = 1.0) (tech : Tech.t) ~nmos ~pmos =
  let analytic = Device_model.analytic ~miller_factor tech in
  let iv (device : Device.t) tv =
    match device.kind with
    | Device.Nmos -> transistor_iv nmos device tv
    | Device.Pmos -> transistor_iv pmos device tv
    | Device.Wire -> analytic.Device_model.iv device tv
  in
  (* The current and (dI/dVsrc, dI/dVsnk) from the fast table lookup,
     with the same terminal-symmetry and polarity normalization as
     [transistor_iv]: the raw current and (dvd, dvs) pair arrive in [out]
     (scratch) and are rescaled, signed and swapped in place, the current
     exactly as [transistor_iv] scales and signs [lookup]. *)
  let transistor_derivs_into table device (tv : Device_model.terminal_voltages)
      (out : Device_model.derivs) =
    let scale = geometry_scale table device in
    match table.polarity with
    | Mosfet.N ->
      if tv.src >= tv.snk then begin
        lookup_derivs_into table ~vg:tv.input ~vs:tv.snk ~vd:tv.src out;
        let dvd = out.Device_model.dsrc and dvs = out.Device_model.dsnk in
        out.Device_model.cur <- scale *. out.Device_model.cur;
        out.Device_model.dsrc <- scale *. dvd;
        out.Device_model.dsnk <- scale *. dvs
      end
      else begin
        lookup_derivs_into table ~vg:tv.input ~vs:tv.src ~vd:tv.snk out;
        let dvd = out.Device_model.dsrc and dvs = out.Device_model.dsnk in
        out.Device_model.cur <- -.(scale *. out.Device_model.cur);
        out.Device_model.dsrc <- -.(scale *. dvs);
        out.Device_model.dsnk <- -.(scale *. dvd)
      end
    | Mosfet.P ->
      let vdd = table.tech.vdd in
      let g = vdd -. tv.input and a = vdd -. tv.src and b = vdd -. tv.snk in
      if b >= a then begin
        lookup_derivs_into table ~vg:g ~vs:a ~vd:b out;
        let dvd = out.Device_model.dsrc and dvs = out.Device_model.dsnk in
        out.Device_model.cur <- scale *. out.Device_model.cur;
        out.Device_model.dsrc <- -.(scale *. dvs);
        out.Device_model.dsnk <- -.(scale *. dvd)
      end
      else begin
        lookup_derivs_into table ~vg:g ~vs:b ~vd:a out;
        let dvd = out.Device_model.dsrc and dvs = out.Device_model.dsnk in
        out.Device_model.cur <- -.(scale *. out.Device_model.cur);
        out.Device_model.dsrc <- scale *. dvd;
        out.Device_model.dsnk <- scale *. dvs
      end
  in
  let iv_derivatives_into (device : Device.t) tv out =
    match device.kind with
    | Device.Nmos -> transistor_derivs_into nmos device tv out
    | Device.Pmos -> transistor_derivs_into pmos device tv out
    | Device.Wire -> analytic.Device_model.iv_derivatives_into device tv out
  in
  let threshold_fn (device : Device.t) (tv : Device_model.terminal_voltages) =
    match device.kind with
    | Device.Nmos -> threshold nmos ~vs:tv.snk
    | Device.Pmos -> threshold pmos ~vs:(tech.vdd -. tv.src)
    | Device.Wire -> 0.0
  in
  {
    analytic with
    Device_model.name = "table";
    iv;
    iv_derivatives_into;
    threshold = threshold_fn;
  }
