open Tqwm_circuit
module Models = Tqwm_device.Models
module Qwm = Tqwm_core.Qwm
module Engine = Tqwm_spice.Engine
module Transient = Tqwm_spice.Transient
module Compare = Tqwm_wave.Compare
module Metrics = Tqwm_obs.Metrics
module Trace = Tqwm_obs.Trace
module Json = Tqwm_obs.Json

let c_stages_audited = Metrics.counter "audit.stages_audited"

let h_delay_error =
  Metrics.histogram "audit.delay_error_pct"
    ~bounds:[| 0.1; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 |]

let h_rms =
  Metrics.histogram "audit.rms"
    ~bounds:[| 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 |]

type stage_record = {
  workload : string;
  stage : string;
  golden_delay : float;
  qwm_delay : float;
  delay_error_pct : float;
  accuracy_pct : float;
  golden_slew : float option;
  qwm_slew : float option;
  slew_error_pct : float option;
  rms_pct_of_swing : float;
  regions : int;
  newton_iterations : int;
  golden_seconds : float;
  qwm_seconds : float;
}

type summary = {
  name : string;
  stages : int;
  avg_accuracy_pct : float;
  worst_accuracy_pct : float;
  avg_delay_error_pct : float;
  max_delay_error_pct : float;
  avg_rms_pct : float;
  max_rms_pct : float;
  golden_seconds : float;
  qwm_seconds : float;
  runtime_ratio : float;
}

type t = {
  workloads : (summary * stage_record list) list;
  overall : summary;
}

(* ---------- workload catalog ---------- *)

let catalog ?(smoke = false) tech =
  let stack len seed = Random_circuits.stack_scenario tech ~len ~seed in
  if smoke then
    [
      ("chain", [ Scenario.inverter_falling tech; Scenario.nand_falling ~n:2 tech ]);
      ("random-stacks", [ stack 5 0; stack 6 1 ]);
      ("decoder-tree", [ Scenario.decoder ~levels:1 tech ]);
      ("awe-wires", [ Scenario.nand_pass_falling ~n:2 tech ]);
    ]
  else
    [
      ( "chain",
        [
          Scenario.inverter_falling tech;
          Scenario.nand_falling ~n:2 tech;
          Scenario.nand_falling ~n:3 tech;
          Scenario.nand_falling ~n:4 tech;
        ] );
      ("random-stacks", [ stack 5 0; stack 6 1; stack 8 2; stack 10 3 ]);
      ( "decoder-tree",
        [
          Scenario.decoder ~levels:1 tech;
          Scenario.decoder ~levels:2 tech;
          Scenario.decoder ~levels:3 tech;
        ] );
      ( "awe-wires",
        [
          Scenario.nand_pass_falling ~n:2 tech;
          Scenario.nand_pass_falling ~n:3 tech;
          Scenario.manchester ~bits:5 tech;
        ] );
    ]

(* ---------- one stage: golden vs QWM ---------- *)

let audit_stage ~golden ~table ~config ~dt ~workload scenario =
  let name = scenario.Scenario.name in
  let fail fmt =
    Printf.ksprintf (fun m -> failwith (Printf.sprintf "Audit: %s/%s: %s" workload name m)) fmt
  in
  let sp =
    Engine.run ~model:golden ~config:{ Transient.default_config with Transient.dt }
      scenario
  in
  let qw = Qwm.run ~model:table ~config scenario in
  let golden_delay =
    match sp.Engine.delay with
    | Some d when d > 0.0 -> d
    | Some _ | None -> fail "golden engine reports no positive delay"
  in
  let qwm_delay =
    match qw.Qwm.delay with
    | Some d -> d
    | None -> fail "QWM reports no output crossing"
  in
  let delay_error_pct = Compare.delay_error_percent ~reference:golden_delay qwm_delay in
  let slew_error_pct =
    match (sp.Engine.slew, qw.Qwm.slew) with
    | Some a, Some b when a > 0.0 -> Some (100.0 *. Float.abs (b -. a) /. a)
    | (Some _ | None), _ -> None
  in
  let cmp =
    Compare.waveforms ~reference:sp.Engine.output
      (Qwm.output_waveform qw ~dt:(Float.min dt 1e-12))
  in
  Metrics.incr c_stages_audited;
  Metrics.observe h_delay_error delay_error_pct;
  Metrics.observe h_rms cmp.Compare.rms_percent_of_swing;
  {
    workload;
    stage = name;
    golden_delay;
    qwm_delay;
    delay_error_pct;
    accuracy_pct = Compare.accuracy_percent ~reference:golden_delay qwm_delay;
    golden_slew = sp.Engine.slew;
    qwm_slew = qw.Qwm.slew;
    slew_error_pct;
    rms_pct_of_swing = cmp.Compare.rms_percent_of_swing;
    regions = qw.Qwm.stats.Tqwm_core.Qwm_solver.regions;
    newton_iterations = qw.Qwm.stats.Tqwm_core.Qwm_solver.newton_iterations;
    golden_seconds = sp.Engine.runtime_seconds;
    qwm_seconds = qw.Qwm.runtime_seconds;
  }

(* ---------- aggregation ---------- *)

let summarize name (records : stage_record list) =
  let n = List.length records in
  let fn = float_of_int (max n 1) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 records in
  let maxi f = List.fold_left (fun acc r -> Float.max acc (f r)) neg_infinity records in
  let golden_seconds = sum (fun r -> r.golden_seconds) in
  let qwm_seconds = sum (fun r -> r.qwm_seconds) in
  {
    name;
    stages = n;
    avg_accuracy_pct = sum (fun r -> r.accuracy_pct) /. fn;
    worst_accuracy_pct =
      List.fold_left (fun acc r -> Float.min acc r.accuracy_pct) infinity records;
    avg_delay_error_pct = sum (fun r -> r.delay_error_pct) /. fn;
    max_delay_error_pct = maxi (fun r -> r.delay_error_pct);
    avg_rms_pct = sum (fun r -> r.rms_pct_of_swing) /. fn;
    max_rms_pct = maxi (fun r -> r.rms_pct_of_swing);
    golden_seconds;
    qwm_seconds;
    runtime_ratio = (if qwm_seconds > 0.0 then golden_seconds /. qwm_seconds else 0.0);
  }

let of_records ~workload_order records =
  let workloads =
    List.map
      (fun w ->
        let rs = List.filter (fun r -> String.equal r.workload w) records in
        (summarize w rs, rs))
      workload_order
  in
  { workloads; overall = summarize "overall" records }

let run ?(config = Tqwm_core.Config.default) ?(dt = 1e-12) ?(domains = 1)
    ?workloads tech =
  let workloads = match workloads with Some w -> w | None -> catalog tech in
  List.iter
    (fun (w, scenarios) ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (s : Scenario.t) ->
          if Hashtbl.mem seen s.Scenario.name then
            invalid_arg
              (Printf.sprintf "Audit.run: duplicate stage %s in workload %s"
                 s.Scenario.name w);
          Hashtbl.add seen s.Scenario.name ())
        scenarios)
    workloads;
  let golden = Models.golden tech in
  let table = Models.table tech in
  let flat =
    Array.of_list
      (List.concat_map (fun (w, ss) -> List.map (fun s -> (w, s)) ss) workloads)
  in
  (* one level of independent stages; each writes its own slot, so the
     records land in catalog order whichever domain ran them *)
  let records = Array.make (Array.length flat) None in
  Trace.with_span ~name:"audit" ~cat:"audit" (fun () ->
      Tqwm_sta.Parallel.run ~domains
        ~f:(fun i ->
          let workload, scenario = flat.(i) in
          records.(i) <-
            Some
              (Trace.with_span
                 ~name:("audit:" ^ workload ^ "/" ^ scenario.Scenario.name)
                 ~cat:"audit" (fun () ->
                   audit_stage ~golden ~table ~config ~dt ~workload scenario)))
        [| Array.init (Array.length flat) Fun.id |]);
  of_records ~workload_order:(List.map fst workloads)
    (List.map Option.get (Array.to_list records))

(* ---------- reproducibility equality ---------- *)

let strip_record (r : stage_record) =
  { r with golden_seconds = 0.0; qwm_seconds = 0.0 }

let strip_summary s =
  { s with golden_seconds = 0.0; qwm_seconds = 0.0; runtime_ratio = 0.0 }

let equal_measurements a b =
  let strip t =
    ( List.map
        (fun (s, rs) -> (strip_summary s, List.map strip_record rs))
        t.workloads,
      strip_summary t.overall )
  in
  strip a = strip b

(* ---------- JSON ---------- *)

let opt_float = function None -> Json.Null | Some x -> Json.Float x

(* delays and slews are stored in raw seconds so records round-trip
   bit-exactly through the ledger (the text report prints picoseconds) *)
let record_to_json r =
  Json.Obj
    [
      ("stage", Json.String r.stage);
      ("golden_delay", Json.Float r.golden_delay);
      ("qwm_delay", Json.Float r.qwm_delay);
      ("delay_error_pct", Json.Float r.delay_error_pct);
      ("accuracy_pct", Json.Float r.accuracy_pct);
      ("golden_slew", opt_float r.golden_slew);
      ("qwm_slew", opt_float r.qwm_slew);
      ("slew_error_pct", opt_float r.slew_error_pct);
      ("rms_pct_of_swing", Json.Float r.rms_pct_of_swing);
      ("regions", Json.Int r.regions);
      ("newton_iterations", Json.Int r.newton_iterations);
      ("golden_seconds", Json.Float r.golden_seconds);
      ("qwm_seconds", Json.Float r.qwm_seconds);
    ]

let summary_to_json s =
  Json.Obj
    [
      ("stages", Json.Int s.stages);
      ("avg_accuracy_pct", Json.Float s.avg_accuracy_pct);
      ("worst_accuracy_pct", Json.Float s.worst_accuracy_pct);
      ("avg_delay_error_pct", Json.Float s.avg_delay_error_pct);
      ("max_delay_error_pct", Json.Float s.max_delay_error_pct);
      ("avg_rms_pct", Json.Float s.avg_rms_pct);
      ("max_rms_pct", Json.Float s.max_rms_pct);
      ("golden_seconds", Json.Float s.golden_seconds);
      ("qwm_seconds", Json.Float s.qwm_seconds);
      ("runtime_ratio", Json.Float s.runtime_ratio);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "tqwm-audit/1");
      ( "workloads",
        Json.List
          (List.map
             (fun (s, rs) ->
               match summary_to_json s with
               | Json.Obj fields ->
                 Json.Obj
                   (("name", Json.String s.name)
                   :: (fields @ [ ("records", Json.List (List.map record_to_json rs)) ]))
               | _ -> assert false)
             t.workloads) );
      ("overall", summary_to_json t.overall);
    ]

let parse_fail fmt = Printf.ksprintf (fun m -> failwith ("Audit.of_json: " ^ m)) fmt

let number field = function
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | Some _ | None -> parse_fail "missing number %s" field

let integer field = function
  | Some (Json.Int i) -> i
  | Some _ | None -> parse_fail "missing integer %s" field

let string_field field = function
  | Some (Json.String s) -> s
  | Some _ | None -> parse_fail "missing string %s" field

let opt_number = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | Some Json.Null | None -> None
  | Some _ -> parse_fail "non-numeric optional field"

let record_of_json ~workload j =
  let m f = Json.member f j in
  {
    workload;
    stage = string_field "stage" (m "stage");
    golden_delay = number "golden_delay" (m "golden_delay");
    qwm_delay = number "qwm_delay" (m "qwm_delay");
    delay_error_pct = number "delay_error_pct" (m "delay_error_pct");
    accuracy_pct = number "accuracy_pct" (m "accuracy_pct");
    golden_slew = opt_number (m "golden_slew");
    qwm_slew = opt_number (m "qwm_slew");
    slew_error_pct = opt_number (m "slew_error_pct");
    rms_pct_of_swing = number "rms_pct_of_swing" (m "rms_pct_of_swing");
    regions = integer "regions" (m "regions");
    newton_iterations = integer "newton_iterations" (m "newton_iterations");
    golden_seconds = number "golden_seconds" (m "golden_seconds");
    qwm_seconds = number "qwm_seconds" (m "qwm_seconds");
  }

let summary_of_json ~name j =
  let m f = Json.member f j in
  {
    name;
    stages = integer "stages" (m "stages");
    avg_accuracy_pct = number "avg_accuracy_pct" (m "avg_accuracy_pct");
    worst_accuracy_pct = number "worst_accuracy_pct" (m "worst_accuracy_pct");
    avg_delay_error_pct = number "avg_delay_error_pct" (m "avg_delay_error_pct");
    max_delay_error_pct = number "max_delay_error_pct" (m "max_delay_error_pct");
    avg_rms_pct = number "avg_rms_pct" (m "avg_rms_pct");
    max_rms_pct = number "max_rms_pct" (m "max_rms_pct");
    golden_seconds = number "golden_seconds" (m "golden_seconds");
    qwm_seconds = number "qwm_seconds" (m "qwm_seconds");
    runtime_ratio = number "runtime_ratio" (m "runtime_ratio");
  }

let of_json j =
  (match Json.member "schema" j with
  | Some (Json.String "tqwm-audit/1") -> ()
  | Some (Json.String other) -> parse_fail "unsupported schema %s" other
  | Some _ | None -> parse_fail "not a tqwm-audit record");
  let workloads =
    match Json.member "workloads" j with
    | Some (Json.List ws) ->
      List.map
        (fun w ->
          let name = string_field "name" (Json.member "name" w) in
          let records =
            match Json.member "records" w with
            | Some (Json.List rs) -> List.map (record_of_json ~workload:name) rs
            | Some _ | None -> parse_fail "workload %s has no records" name
          in
          (summary_of_json ~name w, records))
        ws
    | Some _ | None -> parse_fail "missing workloads"
  in
  let overall =
    match Json.member "overall" j with
    | Some o -> summary_of_json ~name:"overall" o
    | None -> parse_fail "missing overall"
  in
  { workloads; overall }

(* ---------- text report ---------- *)

let pp fmt t =
  let ps = 1e12 in
  Format.fprintf fmt "%-12s %-14s %10s %10s %7s %7s %6s %4s %6s@."
    "workload" "stage" "golden(ps)" "qwm(ps)" "err%" "acc%" "rms%" "reg" "NR";
  List.iter
    (fun (_, records) ->
      List.iter
        (fun r ->
          Format.fprintf fmt "%-12s %-14s %10.2f %10.2f %7.2f %7.2f %6.2f %4d %6d@."
            r.workload r.stage (r.golden_delay *. ps) (r.qwm_delay *. ps)
            r.delay_error_pct r.accuracy_pct r.rms_pct_of_swing r.regions
            r.newton_iterations)
        records)
    t.workloads;
  List.iter
    (fun (s, _) ->
      Format.fprintf fmt
        "%-12s %d stages: accuracy avg %.2f%% worst %.2f%%, rms avg %.2f%%, \
         golden/qwm runtime %.1fx@."
        s.name s.stages s.avg_accuracy_pct s.worst_accuracy_pct s.avg_rms_pct
        s.runtime_ratio)
    t.workloads;
  let o = t.overall in
  Format.fprintf fmt
    "overall: %d stages, avg accuracy %.2f%% (worst %.2f%%), avg delay error \
     %.2f%%, avg rms %.2f%%, golden/qwm runtime %.1fx@."
    o.stages o.avg_accuracy_pct o.worst_accuracy_pct o.avg_delay_error_pct
    o.avg_rms_pct o.runtime_ratio
