type polarity = N | P

let clamp_low x lo = if x < lo then lo else x

let threshold (tech : Tech.t) polarity ~vsb =
  let vt0, gamma = match polarity with
    | N -> (tech.vt0_n, tech.gamma_n)
    | P -> (tech.vt0_p, tech.gamma_p)
  in
  (* clamp the forward-bias excursion so the sqrt stays real *)
  let vsb = clamp_low vsb (-.tech.phi /. 2.0) in
  vt0 +. (gamma *. (sqrt (tech.phi +. vsb) -. sqrt tech.phi))

let saturation_voltage tech polarity ~vgs ~vsb =
  clamp_low (Float.abs vgs -. threshold tech polarity ~vsb) 0.0

(* Square-law current for a device already normalized to "NMOS pull-down"
   coordinates: overdrive [vod], positive [vds], transconductance [beta],
   channel-length modulation [lambda]. *)
let square_law ~beta ~lambda ~vod ~vds =
  if vod <= 0.0 || vds <= 0.0 then 0.0
  else if vds < vod then beta *. ((vod -. (vds /. 2.0)) *. vds)
  else 0.5 *. beta *. vod *. vod *. (1.0 +. (lambda *. (vds -. vod)))

let ids (tech : Tech.t) polarity ~w ~l ~vg ~vd ~vs =
  match polarity with
  | N ->
    let vsb = vs in
    let vod = (vg -. vs) -. threshold tech N ~vsb in
    square_law ~beta:(tech.kp_n *. (w /. l)) ~lambda:tech.lambda_n ~vod ~vds:(vd -. vs)
  | P ->
    (* mirror to pull-down coordinates about VDD; bulk at VDD *)
    let vsb = tech.vdd -. vs in
    let vod = (vs -. vg) -. threshold tech P ~vsb in
    square_law ~beta:(tech.kp_p *. (w /. l)) ~lambda:tech.lambda_p ~vod ~vds:(vs -. vd)

let channel_current tech polarity ~w ~l ~vg ~va ~vb =
  match polarity with
  | N ->
    (* NMOS source is the lower-potential terminal *)
    if va >= vb then ids tech N ~w ~l ~vg ~vd:va ~vs:vb
    else -.ids tech N ~w ~l ~vg ~vd:vb ~vs:va
  | P ->
    (* PMOS source is the higher-potential terminal *)
    if va >= vb then ids tech P ~w ~l ~vg ~vd:vb ~vs:va
    else -.ids tech P ~w ~l ~vg ~vd:va ~vs:vb
