module Mat = Tqwm_num.Mat
module Interp = Tqwm_num.Interp
open Tqwm_circuit

type table = {
  slews : float array;
  loads : float array;
  delay : Mat.t;
  output_slew : Mat.t;
}

let default_slews = [| 5e-12; 20e-12; 50e-12; 120e-12 |]

let default_loads = [| 2e-15; 5e-15; 10e-15; 25e-15; 60e-15 |]

let characterize ~model ?(slews = default_slews) ?(loads = default_loads) make =
  let ns = Array.length slews and nl = Array.length loads in
  if ns < 2 || nl < 2 then invalid_arg "Characterize: need at least 2x2 grid";
  let delay = Mat.create ns nl and output_slew = Mat.create ns nl in
  for i = 0 to ns - 1 do
    for j = 0 to nl - 1 do
      let scenario =
        Scenario.with_ramp_input ~rise_time:slews.(i) (make ~load:loads.(j))
      in
      let report = Tqwm_core.Qwm.run ~model scenario in
      (* stage delay is referenced to the ramp's own 50% crossing *)
      (match report.Tqwm_core.Qwm.delay with
      | Some d -> Mat.set delay i j (Float.max (d -. (slews.(i) /. 2.0)) 0.0)
      | None ->
        failwith
          (Printf.sprintf "Characterize: no 50%% crossing at slew %.3g, load %.3g"
             slews.(i) loads.(j)));
      match report.Tqwm_core.Qwm.slew with
      | Some s -> Mat.set output_slew i j s
      | None -> failwith "Characterize: output slew unavailable"
    done
  done;
  { slews; loads; delay; output_slew }

let delay_at table ~slew ~load =
  Interp.table_lookup ~xs:table.slews ~ys:table.loads table.delay slew load

let slew_at table ~slew ~load =
  Interp.table_lookup ~xs:table.slews ~ys:table.loads table.output_slew slew load

let pp fmt table =
  let ps x = x *. 1e12 in
  Format.fprintf fmt "%12s" "slew\\load";
  Array.iter (fun l -> Format.fprintf fmt " %8.1ffF" (l *. 1e15)) table.loads;
  Format.fprintf fmt "@\n";
  Array.iteri
    (fun i s ->
      Format.fprintf fmt "%10.1fps" (ps s);
      Array.iteri
        (fun j _ -> Format.fprintf fmt " %8.2fps" (ps (Mat.get table.delay i j)))
        table.loads;
      Format.fprintf fmt "@\n")
    table.slews
