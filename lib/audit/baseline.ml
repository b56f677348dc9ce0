module Json = Tqwm_obs.Json
module Ledger = Tqwm_obs.Ledger

let band_abs_pp = 0.25
let band_rel = 0.05

type classification = Unchanged | Improved | Regressed

let classification_to_string = function
  | Unchanged -> "unchanged"
  | Improved -> "improved"
  | Regressed -> "regressed"

let classify ~baseline ~current =
  let margin = band_abs_pp +. (band_rel *. Float.abs baseline) in
  if current -. baseline > margin then Regressed
  else if baseline -. current > margin then Improved
  else Unchanged

type delta = {
  metric : string;
  workload : string;
  stage : string option;
  baseline : float;
  current : float;
  classification : classification;
}

let delta ~metric ~workload ?stage ~baseline ~current () =
  {
    metric;
    workload;
    stage;
    baseline;
    current;
    classification = classify ~baseline ~current;
  }

let record_deltas (base : Audit.stage_record) (cur : Audit.stage_record) =
  let d metric baseline current =
    delta ~metric ~workload:cur.Audit.workload ~stage:cur.Audit.stage
      ~baseline ~current ()
  in
  let slew =
    match (base.Audit.slew_error_pct, cur.Audit.slew_error_pct) with
    | Some b, Some c -> [ d "slew_error_pct" b c ]
    | (Some _ | None), _ -> []
  in
  d "delay_error_pct" base.Audit.delay_error_pct cur.Audit.delay_error_pct
  :: d "rms_pct_of_swing" base.Audit.rms_pct_of_swing cur.Audit.rms_pct_of_swing
  :: slew

let summary_deltas (base : Audit.summary) (cur : Audit.summary) =
  let d metric baseline current =
    delta ~metric ~workload:cur.Audit.name ~baseline ~current ()
  in
  [
    d "avg_delay_error_pct" base.Audit.avg_delay_error_pct cur.Audit.avg_delay_error_pct;
    d "max_delay_error_pct" base.Audit.max_delay_error_pct cur.Audit.max_delay_error_pct;
    d "avg_rms_pct" base.Audit.avg_rms_pct cur.Audit.avg_rms_pct;
  ]

let compare_audits ~baseline current =
  let base_records =
    List.concat_map
      (fun ((_ : Audit.summary), rs) ->
        List.map (fun (r : Audit.stage_record) -> ((r.Audit.workload, r.Audit.stage), r)) rs)
      baseline.Audit.workloads
  in
  let stage_deltas =
    List.concat_map
      (fun ((_ : Audit.summary), rs) ->
        List.concat_map
          (fun (cur : Audit.stage_record) ->
            match List.assoc_opt (cur.Audit.workload, cur.Audit.stage) base_records with
            | Some base -> record_deltas base cur
            | None -> [])
          rs)
      current.Audit.workloads
  in
  let base_summaries =
    List.map (fun ((s : Audit.summary), _) -> (s.Audit.name, s)) baseline.Audit.workloads
  in
  let workload_deltas =
    List.concat_map
      (fun ((cur : Audit.summary), _) ->
        match List.assoc_opt cur.Audit.name base_summaries with
        | Some base -> summary_deltas base cur
        | None -> [])
      current.Audit.workloads
  in
  stage_deltas @ workload_deltas
  @ summary_deltas baseline.Audit.overall current.Audit.overall

let load path =
  Option.map Audit.of_json (Ledger.last path)

let save ~path audit = Ledger.append ~path (Audit.to_json audit)
