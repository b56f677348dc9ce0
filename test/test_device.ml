(* Tests for the device layer: analytic MOSFET physics, capacitances and
   the tabular characterization. *)

open Tqwm_device

let tech = Tech.cmosp35

let golden = Models.golden tech

let table_n = lazy (Table_model.of_analytic tech Mosfet.N)

let table_p = lazy (Table_model.of_analytic tech Mosfet.P)

let table_model = lazy (Table_model.to_device_model tech ~nmos:(Lazy.force table_n) ~pmos:(Lazy.force table_p))

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- thresholds ---------- *)

let test_threshold_zero_bias () =
  check_close "nmos vt0" tech.Tech.vt0_n (Mosfet.threshold tech Mosfet.N ~vsb:0.0);
  check_close "pmos vt0" tech.Tech.vt0_p (Mosfet.threshold tech Mosfet.P ~vsb:0.0)

let prop_threshold_monotone =
  QCheck2.Test.make ~name:"threshold increases with body bias" ~count:100
    QCheck2.Gen.(pair (float_range 0.0 3.0) (float_range 0.001 0.3))
    (fun (vsb, dv) ->
      Mosfet.threshold tech Mosfet.N ~vsb:(vsb +. dv) > Mosfet.threshold tech Mosfet.N ~vsb)

(* ---------- analytic I/V ---------- *)

let test_ids_cutoff () =
  check_close "below threshold" 0.0
    (Mosfet.ids tech Mosfet.N ~w:1e-6 ~l:0.35e-6 ~vg:0.3 ~vd:3.3 ~vs:0.0);
  check_close "zero vds" 0.0
    (Mosfet.ids tech Mosfet.N ~w:1e-6 ~l:0.35e-6 ~vg:3.3 ~vd:1.0 ~vs:1.0)

let test_ids_saturation_value () =
  (* 0.5 * kp * w/l * vod^2 at vds = vdsat *)
  let w = 1e-6 and l = 0.35e-6 in
  let vod = 3.3 -. tech.Tech.vt0_n in
  let expected = 0.5 *. tech.Tech.kp_n *. (w /. l) *. vod *. vod in
  check_close ~eps:1e-6 "idsat"
    expected
    (Mosfet.ids tech Mosfet.N ~w ~l ~vg:3.3 ~vd:vod ~vs:0.0)

let prop_ids_continuous_at_vdsat =
  QCheck2.Test.make ~name:"current continuous across the triode/saturation boundary"
    ~count:100
    QCheck2.Gen.(pair (float_range 1.0 3.3) (float_range 0.0 1.0))
    (fun (vg, vs) ->
      let vod = Mosfet.saturation_voltage tech Mosfet.N ~vgs:(vg -. vs) ~vsb:vs in
      if vod <= 0.01 then true
      else begin
        let eps = 1e-6 in
        let i_lo =
          Mosfet.ids tech Mosfet.N ~w:1e-6 ~l:0.35e-6 ~vg ~vd:(vs +. vod -. eps) ~vs
        in
        let i_hi =
          Mosfet.ids tech Mosfet.N ~w:1e-6 ~l:0.35e-6 ~vg ~vd:(vs +. vod +. eps) ~vs
        in
        Float.abs (i_hi -. i_lo) < 1e-7
      end)

let prop_ids_monotone_vd =
  QCheck2.Test.make ~name:"current non-decreasing in drain voltage" ~count:100
    QCheck2.Gen.(triple (float_range 1.0 3.3) (float_range 0.0 2.0) (float_range 0.0 3.0))
    (fun (vg, vs, vd_base) ->
      let vd1 = vs +. vd_base and vd2 = vs +. vd_base +. 0.05 in
      Mosfet.ids tech Mosfet.N ~w:1e-6 ~l:0.35e-6 ~vg ~vd:vd2 ~vs
      >= Mosfet.ids tech Mosfet.N ~w:1e-6 ~l:0.35e-6 ~vg ~vd:vd1 ~vs -. 1e-12)

let prop_channel_antisymmetric =
  QCheck2.Test.make ~name:"channel current is antisymmetric under terminal swap"
    ~count:100
    QCheck2.Gen.(triple (float_range 0.0 3.3) (float_range 0.0 3.3) (float_range 0.0 3.3))
    (fun (vg, va, vb) ->
      let f pol =
        let i_ab = Mosfet.channel_current tech pol ~w:1e-6 ~l:0.35e-6 ~vg ~va ~vb in
        let i_ba = Mosfet.channel_current tech pol ~w:1e-6 ~l:0.35e-6 ~vg ~va:vb ~vb:va in
        Float.abs (i_ab +. i_ba) < 1e-12
      in
      f Mosfet.N && f Mosfet.P)

let test_pmos_conducts_when_gate_low () =
  let i = Mosfet.channel_current tech Mosfet.P ~w:2e-6 ~l:0.35e-6 ~vg:0.0 ~va:3.3 ~vb:1.0 in
  Alcotest.(check bool) "pull-up current positive" true (i > 1e-5);
  let off = Mosfet.channel_current tech Mosfet.P ~w:2e-6 ~l:0.35e-6 ~vg:3.3 ~va:3.3 ~vb:1.0 in
  check_close "off" 0.0 off

let test_derivatives_match_fd () =
  (* the golden model's derivative kernel against central differences
     taken straight on the channel current *)
  let d = Device_model.derivs () in
  golden.Device_model.iv_derivatives_into (Device.nmos ~w:1e-6 tech)
    { Device_model.input = 3.3; src = 2.0; snk = 0.5 }
    d;
  let i ~va ~vb = Mosfet.channel_current tech Mosfet.N ~w:1e-6 ~l:0.35e-6 ~vg:3.3 ~va ~vb in
  let h = 1e-4 in
  let check_rel msg expected actual =
    if Float.abs (expected -. actual) > 1e-3 *. Float.abs expected then
      Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual
  in
  check_rel "dI/dva"
    ((i ~va:(2.0 +. h) ~vb:0.5 -. i ~va:(2.0 -. h) ~vb:0.5) /. (2.0 *. h))
    d.Device_model.dsrc;
  check_rel "dI/dvb"
    ((i ~va:2.0 ~vb:(0.5 +. h) -. i ~va:2.0 ~vb:(0.5 -. h)) /. (2.0 *. h))
    d.Device_model.dsnk;
  Alcotest.(check bool) "dI/dva >= 0" true (d.Device_model.dsrc >= 0.0);
  Alcotest.(check bool) "dI/dvb <= 0" true (d.Device_model.dsnk <= 0.0)

(* ---------- capacitances ---------- *)

let test_junction_bias_dependence () =
  let c0 = Capacitance.junction tech ~w:1e-6 ~v:0.0 in
  let c_rev = Capacitance.junction tech ~w:1e-6 ~v:3.3 in
  check_close "zero-bias value" (Capacitance.junction_zero_bias tech ~w:1e-6) c0;
  Alcotest.(check bool) "reverse bias shrinks junction cap" true (c_rev < c0)

let test_wire_caps () =
  let w = 1e-6 and l = 100e-6 in
  let total = Capacitance.wire_total tech ~w ~l in
  let half = Capacitance.terminal tech (Device.wire ~w ~l) ~v:0.0 in
  check_close "wire splits half per end" (total /. 2.0) half;
  Alcotest.(check bool) "wire resistance positive" true
    (Capacitance.wire_resistance tech ~w ~l > 0.0)

let test_miller_factor () =
  let d = Device.nmos ~w:2e-6 tech in
  let c1 = Capacitance.terminal tech d ~v:1.0 in
  let c2 = Capacitance.terminal ~miller_factor:2.0 tech d ~v:1.0 in
  check_close "miller adds one overlap" (Capacitance.overlap tech ~w:2e-6) (c2 -. c1)

let test_device_constructors () =
  Alcotest.check_raises "bad width" (Invalid_argument "Device: non-positive geometry")
    (fun () -> ignore (Device.nmos ~w:0.0 tech));
  let d = Device.nmos ~w:1e-6 tech in
  check_close "default length" tech.Tech.l_min d.Device.l

(* ---------- table model ---------- *)

let idsat_scale = Mosfet.ids tech Mosfet.N ~w:1e-6 ~l:0.35e-6 ~vg:3.3 ~vd:3.3 ~vs:0.0

let prop_table_matches_golden =
  QCheck2.Test.make ~name:"table model tracks the analytic model within 0.5% of Idsat"
    ~count:200
    QCheck2.Gen.(triple (float_range 0.0 3.3) (float_range 0.0 3.3) (float_range 0.0 3.3))
    (fun (vg, vs, vd) ->
      let t = Lazy.force table_n in
      if vd < vs then true
      else begin
        let approx = Table_model.lookup t ~vg ~vs ~vd in
        let exact = Mosfet.ids tech Mosfet.N ~w:1e-6 ~l:0.35e-6 ~vg ~vd ~vs in
        Float.abs (approx -. exact) < 0.005 *. idsat_scale
      end)

let prop_table_dvd_matches_fd =
  QCheck2.Test.make ~name:"table dIds/dVd matches finite differences" ~count:100
    QCheck2.Gen.(triple (float_range 0.5 3.2) (float_range 0.0 1.5) (float_range 0.0 1.5))
    (fun (vg, vs, dvd) ->
      let t = Lazy.force table_n in
      let vd = vs +. 0.05 +. dvd in
      let h = 1e-4 in
      let fd =
        (Table_model.lookup t ~vg ~vs ~vd:(vd +. h)
        -. Table_model.lookup t ~vg ~vs ~vd:(vd -. h))
        /. (2.0 *. h)
      in
      let an = Table_model.lookup_dvd t ~vg ~vs ~vd in
      (* fits are piecewise polynomials: allow slack at segment joints *)
      Float.abs (fd -. an) < 0.02 *. ((Float.abs fd +. Float.abs an) +. 1e-4))

let prop_table_analytic_derivs_match_fd =
  (* the one-pass derivative kernel QWM runs must agree with central
     differences on the interpolated surface for every polarity and
     terminal order *)
  QCheck2.Test.make ~name:"table iv_derivatives match finite differences" ~count:200
    QCheck2.Gen.(
      quad (oneofl [ Device.Nmos; Device.Pmos ]) (float_range 0.0 3.3)
        (float_range 0.05 3.25) (float_range 0.05 3.25))
    (fun (kind, vg, v_src, v_snk) ->
      let model = Lazy.force table_model in
      let dev = { Device.kind; w = 2e-6; l = 0.35e-6 } in
      let tv = { Device_model.input = vg; src = v_src; snk = v_snk } in
      (* keep away from grid knots where the surface kinks *)
      let near_knot x = Float.abs (Float.rem x 0.1) < 0.005 in
      if near_knot v_src || near_knot v_snk || Float.abs (v_src -. v_snk) < 0.02 then true
      else begin
        let d = Device_model.derivs () in
        model.Device_model.iv_derivatives_into dev tv d;
        let da = d.Device_model.dsrc and db = d.Device_model.dsnk in
        let fa, fb =
          Device_model.finite_difference_derivatives model.Device_model.iv dev tv
        in
        let tol = 0.02 *. (Float.abs fa +. Float.abs fb +. 1e-5) in
        Float.abs (da -. fa) < tol && Float.abs (db -. fb) < tol
      end)

let test_lookup_with_derivs_consistent () =
  let t = Lazy.force table_n in
  let d = Device_model.derivs () in
  Table_model.lookup_derivs_into t ~vg:3.3 ~vs:0.42 ~vd:2.17 d;
  check_close ~eps:1e-12 "dvd matches lookup_dvd"
    (Table_model.lookup_dvd t ~vg:3.3 ~vs:0.42 ~vd:2.17) d.Device_model.dsrc;
  Alcotest.(check bool) "dvs negative (raising source reduces current)" true
    (d.Device_model.dsnk < 0.0)

(* ---------- the current of the derivative call ---------- *)

(* [iv_derivatives_into] leaves the current [iv] returns in [cur], bit
   for bit: the QWM solver takes a Newton iterate's currents and
   Jacobian entries from that one call. *)
let cur_bits_match (model : Device_model.t) dev (tv : Device_model.terminal_voltages) =
  let d = Device_model.derivs () in
  model.Device_model.iv_derivatives_into dev tv d;
  Int64.equal (Int64.bits_of_float d.Device_model.cur)
    (Int64.bits_of_float (model.Device_model.iv dev tv))

let fused_devices =
  [ Device.nmos ~w:2e-6 tech; Device.pmos ~w:3e-6 tech; Device.wire ~w:0.6e-6 ~l:80e-6 ]

(* Every grid knot exactly, off-grid voltages, and voltages below 0 and
   above VDD, in every combination of gate, src and snk: both terminal
   orders and equal terminals, for each polarity and for a wire. *)
let test_fused_current_bit_identical () =
  let vg_axis, _ = Table_model.grid (Lazy.force table_n) in
  let knots = List.init vg_axis.Tqwm_num.Interp.count (Tqwm_num.Interp.knot vg_axis) in
  let volts = knots @ [ -0.4; -0.05; 0.137; 1.2345; 2.71; 3.2999; 3.35; 3.8 ] in
  List.iter
    (fun (name, model) ->
      List.iter
        (fun (dev : Device.t) ->
          List.iter
            (fun input ->
              List.iter
                (fun src ->
                  List.iter
                    (fun snk ->
                      let tv = { Device_model.input; src; snk } in
                      if not (cur_bits_match model dev tv) then
                        Alcotest.failf "%s %s: cur <> iv at input %h, src %h, snk %h" name
                          (Device.kind_to_string dev.Device.kind) input src snk)
                    volts)
                volts)
            volts)
        fused_devices)
    [ ("table", Lazy.force table_model); ("analytic", golden) ]

let prop_fused_current_bit_identical =
  QCheck2.Test.make ~name:"derivs.cur is iv bit for bit" ~count:2000
    QCheck2.Gen.(
      quad (oneofl fused_devices) (float_range (-0.5) 3.8) (float_range (-0.5) 3.8)
        (float_range (-0.5) 3.8))
    (fun (dev, input, src, snk) ->
      let tv = { Device_model.input; src; snk } in
      cur_bits_match (Lazy.force table_model) dev tv && cur_bits_match golden dev tv)

let test_table_threshold_interpolation () =
  let t = Lazy.force table_n in
  List.iter
    (fun vs ->
      check_close ~eps:1e-3 "vth interp"
        (Mosfet.threshold tech Mosfet.N ~vsb:vs)
        (Table_model.threshold t ~vs))
    [ 0.0; 0.05; 0.55; 1.23; 2.0 ]

let test_table_fit_parameters () =
  (* at Vg = VDD, Vs = 0 the triode fit must reproduce the square law *)
  let t = Lazy.force table_n in
  let vg_axis, _ = Table_model.grid t in
  let last = vg_axis.Tqwm_num.Interp.count - 1 in
  let fit = Table_model.fit_at t last 0 in
  let beta = tech.Tech.kp_n *. (1e-6 /. 0.35e-6) in
  let vod = 3.3 -. tech.Tech.vt0_n in
  check_close ~eps:1e-3 "t1 = beta * vod" (beta *. vod) fit.Table_model.t1;
  check_close ~eps:1e-3 "t2 = -beta/2" (-.beta /. 2.0) fit.Table_model.t2;
  check_close ~eps:1e-6 "vth stored" tech.Tech.vt0_n fit.Table_model.vth;
  check_close ~eps:1e-6 "vdsat stored" vod fit.Table_model.vdsat

let test_table_geometry_scaling () =
  (* current scales exactly with w/l in the underlying physics *)
  let model = Lazy.force table_model in
  let tv = { Device_model.input = 3.3; src = 2.0; snk = 0.0 } in
  let i1 = model.Device_model.iv (Device.nmos ~w:1e-6 tech) tv in
  let i3 = model.Device_model.iv (Device.nmos ~w:3e-6 tech) tv in
  check_close ~eps:1e-9 "3x width -> 3x current" (3.0 *. i1) i3

let test_table_model_pmos_and_reverse () =
  let model = Lazy.force table_model in
  let dev = Device.pmos ~w:2e-6 tech in
  let tv = { Device_model.input = 0.0; src = 3.3; snk = 1.5 } in
  let approx = model.Device_model.iv dev tv in
  let exact = golden.Device_model.iv dev tv in
  check_close ~eps:5e-3 "pmos forward" exact approx;
  (* reverse conduction via terminal symmetry *)
  let tv_rev = { Device_model.input = 3.3; src = 0.5; snk = 2.0 } in
  let dev_n = Device.nmos ~w:2e-6 tech in
  let approx_r = model.Device_model.iv dev_n tv_rev in
  let exact_r = golden.Device_model.iv dev_n tv_rev in
  Alcotest.(check bool) "reverse current negative" true (approx_r < 0.0);
  check_close ~eps:5e-3 "reverse matches" exact_r approx_r

let test_table_wire_passthrough () =
  let model = Lazy.force table_model in
  let dev = Device.wire ~w:1e-6 ~l:50e-6 in
  let tv = { Device_model.input = 0.0; src = 2.0; snk = 1.0 } in
  check_close "wire iv identical" (golden.Device_model.iv dev tv)
    (model.Device_model.iv dev tv)

let test_characterize_validation () =
  Alcotest.check_raises "bad grid"
    (Invalid_argument "Table_model.characterize: grid_step <= 0") (fun () ->
      ignore (Table_model.of_analytic ~grid_step:0.0 tech Mosfet.N))

(* ---------- corners ---------- *)

let test_corners_order_current () =
  let ids tech' =
    Mosfet.ids tech' Mosfet.N ~w:1e-6 ~l:0.35e-6 ~vg:3.3 ~vd:3.3 ~vs:0.0
  in
  let fast = ids (Tech.corner tech Tech.Fast) in
  let typ = ids (Tech.corner tech Tech.Typical) in
  let slow = ids (Tech.corner tech Tech.Slow) in
  Alcotest.(check bool) "fast > typical > slow" true (fast > typ && typ > slow);
  Alcotest.(check string) "typical unchanged" tech.Tech.name
    (Tech.corner tech Tech.Typical).Tech.name

(* ---------- device model record ---------- *)

let test_analytic_model_wire () =
  let dev = Device.wire ~w:1e-6 ~l:10e-6 in
  let r = Capacitance.wire_resistance tech ~w:1e-6 ~l:10e-6 in
  let tv = { Device_model.input = 0.0; src = 1.0; snk = 0.0 } in
  check_close "ohm's law" (1.0 /. r) (golden.Device_model.iv dev tv);
  let d = Device_model.derivs () in
  golden.Device_model.iv_derivatives_into dev tv d;
  check_close "g" (1.0 /. r) d.Device_model.dsrc;
  check_close "-g" (-1.0 /. r) d.Device_model.dsnk;
  check_close "wire threshold" 0.0 (golden.Device_model.threshold dev tv)

let test_model_threshold_polarity () =
  let tv = { Device_model.input = 3.3; src = 3.3; snk = 1.0 } in
  check_close "nmos threshold uses snk"
    (Mosfet.threshold tech Mosfet.N ~vsb:1.0)
    (golden.Device_model.threshold (Device.nmos ~w:1e-6 tech) tv);
  check_close "pmos threshold uses src"
    (Mosfet.threshold tech Mosfet.P ~vsb:0.0)
    (golden.Device_model.threshold (Device.pmos ~w:1e-6 tech) tv)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let prop p = QCheck_alcotest.to_alcotest p in
  Alcotest.run "tqwm_device"
    [
      ( "threshold",
        [ quick "zero bias" test_threshold_zero_bias; prop prop_threshold_monotone ] );
      ( "mosfet",
        [
          quick "cutoff" test_ids_cutoff;
          quick "saturation value" test_ids_saturation_value;
          prop prop_ids_continuous_at_vdsat;
          prop prop_ids_monotone_vd;
          prop prop_channel_antisymmetric;
          quick "pmos polarity" test_pmos_conducts_when_gate_low;
          quick "derivative signs" test_derivatives_match_fd;
        ] );
      ( "capacitance",
        [
          quick "junction bias" test_junction_bias_dependence;
          quick "wire split" test_wire_caps;
          quick "miller" test_miller_factor;
          quick "device constructors" test_device_constructors;
        ] );
      ( "table",
        [
          prop prop_table_matches_golden;
          prop prop_table_dvd_matches_fd;
          prop prop_table_analytic_derivs_match_fd;
          quick "with_derivs consistent" test_lookup_with_derivs_consistent;
          quick "fused current bit-identical" test_fused_current_bit_identical;
          prop prop_fused_current_bit_identical;
          quick "threshold interpolation" test_table_threshold_interpolation;
          quick "fit parameters" test_table_fit_parameters;
          quick "geometry scaling" test_table_geometry_scaling;
          quick "pmos and reverse" test_table_model_pmos_and_reverse;
          quick "wire passthrough" test_table_wire_passthrough;
          quick "validation" test_characterize_validation;
        ] );
      ("corners", [ quick "current ordering" test_corners_order_current ]);
      ( "device model",
        [
          quick "wire analytic" test_analytic_model_wire;
          quick "threshold polarity" test_model_threshold_polarity;
        ] );
    ]
