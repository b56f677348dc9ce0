module Json = Tqwm_obs.Json
module Metrics = Tqwm_obs.Metrics
module Trace = Tqwm_obs.Trace

let c_unchanged = Metrics.counter "audit.unchanged"
let c_improved = Metrics.counter "audit.improved"
let c_regressed = Metrics.counter "audit.regressed"

type report = {
  deltas : Baseline.delta list;
  regressed : Baseline.delta list;
  improved : Baseline.delta list;
  unchanged : int;
  unmatched : int;
  regressions_by_workload : (string * int) list;
}

let excursion (d : Baseline.delta) = d.Baseline.current -. d.Baseline.baseline

let check ~baseline current =
  let deltas = Baseline.compare_audits ~baseline current in
  let regressed =
    List.filter (fun d -> d.Baseline.classification = Baseline.Regressed) deltas
    |> List.sort (fun a b -> Float.compare (excursion b) (excursion a))
  in
  let improved =
    List.filter (fun d -> d.Baseline.classification = Baseline.Improved) deltas
  in
  let unchanged =
    List.length deltas - List.length regressed - List.length improved
  in
  let unmatched =
    let base_keys =
      List.concat_map
        (fun ((_ : Audit.summary), rs) ->
          List.map (fun (r : Audit.stage_record) -> (r.Audit.workload, r.Audit.stage)) rs)
        baseline.Audit.workloads
    in
    List.concat_map
      (fun ((_ : Audit.summary), rs) ->
        List.filter
          (fun (r : Audit.stage_record) ->
            not (List.mem (r.Audit.workload, r.Audit.stage) base_keys))
          rs)
      current.Audit.workloads
    |> List.length
  in
  let regressions_by_workload =
    List.fold_left
      (fun acc (d : Baseline.delta) ->
        let n = Option.value (List.assoc_opt d.Baseline.workload acc) ~default:0 in
        (d.Baseline.workload, n + 1) :: List.remove_assoc d.Baseline.workload acc)
      [] regressed
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  Metrics.add c_unchanged unchanged;
  Metrics.add c_improved (List.length improved);
  Metrics.add c_regressed (List.length regressed);
  List.iter
    (fun (d : Baseline.delta) ->
      Trace.instant ~name:"audit.drift" ~cat:"audit"
        ~args:
          [
            ("metric", Json.String d.Baseline.metric);
            ("workload", Json.String d.Baseline.workload);
            ( "stage",
              match d.Baseline.stage with
              | Some s -> Json.String s
              | None -> Json.Null );
            ("baseline", Json.Float d.Baseline.baseline);
            ("current", Json.Float d.Baseline.current);
          ]
        ())
    regressed;
  { deltas; regressed; improved; unchanged; unmatched; regressions_by_workload }

let has_regressions r = r.regressed <> []

let worst r = match r.regressed with [] -> None | w :: _ -> Some w

let target (d : Baseline.delta) =
  match d.Baseline.stage with
  | Some s -> Printf.sprintf "%s/%s" d.Baseline.workload s
  | None -> d.Baseline.workload

let pp fmt r =
  List.iter
    (fun (d : Baseline.delta) ->
      Format.fprintf fmt "REGRESSED %-20s %-24s %.3f -> %.3f (+%.3f)@."
        d.Baseline.metric (target d) d.Baseline.baseline d.Baseline.current
        (excursion d))
    r.regressed;
  List.iter
    (fun (d : Baseline.delta) ->
      Format.fprintf fmt "improved  %-20s %-24s %.3f -> %.3f@." d.Baseline.metric
        (target d) d.Baseline.baseline d.Baseline.current)
    r.improved;
  (match r.regressions_by_workload with
  | [] -> ()
  | by ->
    Format.fprintf fmt "regressions by workload: %s@."
      (String.concat ", "
         (List.map (fun (w, n) -> Printf.sprintf "%s=%d" w n) by)));
  Format.fprintf fmt
    "drift: %d regressed, %d improved, %d unchanged, %d unmatched stage%s@."
    (List.length r.regressed) (List.length r.improved) r.unchanged r.unmatched
    (if r.unmatched = 1 then "" else "s")

let delta_to_json (d : Baseline.delta) =
  Json.Obj
    [
      ("metric", Json.String d.Baseline.metric);
      ("workload", Json.String d.Baseline.workload);
      ( "stage",
        match d.Baseline.stage with Some s -> Json.String s | None -> Json.Null );
      ("baseline", Json.Float d.Baseline.baseline);
      ("current", Json.Float d.Baseline.current);
      ( "classification",
        Json.String (Baseline.classification_to_string d.Baseline.classification) );
    ]

let to_json r =
  Json.Obj
    [
      ("regressed", Json.List (List.map delta_to_json r.regressed));
      ("improved", Json.List (List.map delta_to_json r.improved));
      ("unchanged", Json.Int r.unchanged);
      ("unmatched", Json.Int r.unmatched);
      ( "regressions_by_workload",
        Json.Obj
          (List.map (fun (w, n) -> (w, Json.Int n)) r.regressions_by_workload) );
    ]
