open Tqwm_circuit

let ps x = x *. 1e12

(* [Json.List] of [f i a.(i)], built as a list directly: [Array.map] into
   an array of more than 256 elements would force a minor collection
   (see {!Fill}). *)
let json_array f a = Tqwm_obs.Json.List (List.init (Array.length a) (fun i -> f i a.(i)))

let print fmt graph analysis =
  Format.fprintf fmt "%-16s %12s %12s %12s %12s@\n" "stage" "arrival_in" "delay" "slew"
    "arrival_out";
  Array.iter
    (fun (t : Arrival.stage_timing) ->
      let name = (Timing_graph.scenario graph t.Arrival.id).Scenario.name in
      Format.fprintf fmt "%-16s %10.2fps %10.2fps %10.2fps %10.2fps@\n" name
        (ps t.Arrival.arrival_in) (ps t.Arrival.delay) (ps t.Arrival.slew)
        (ps t.Arrival.arrival_out))
    analysis.Arrival.timings;
  Format.fprintf fmt "critical path: %s@\n"
    (String.concat " -> "
       (List.map
          (fun id -> (Timing_graph.scenario graph id).Scenario.name)
          analysis.Arrival.critical_path));
  Format.fprintf fmt "worst arrival: %.2f ps@\n" (ps analysis.Arrival.worst_arrival)

let critical_path_string graph analysis =
  String.concat " -> "
    (List.map
       (fun id -> (Timing_graph.scenario graph id).Scenario.name)
       analysis.Arrival.critical_path)

let path_string graph (path : Path_enum.path) =
  String.concat " -> "
    (List.map
       (fun id -> (Timing_graph.scenario graph id).Scenario.name)
       path.Path_enum.stages)

let print_slack fmt graph (analysis : Arrival.analysis)
    (required : Arrival.required_report) =
  Format.fprintf fmt "%-16s %12s %12s %12s@\n" "stage" "arrival" "required" "slack";
  Array.iteri
    (fun id (t : Arrival.stage_timing) ->
      let name = (Timing_graph.scenario graph id).Scenario.name in
      Format.fprintf fmt "%-16s %10.2fps %10.2fps %10.2fps@\n" name
        (ps t.Arrival.arrival_out)
        (ps required.Arrival.req.(id))
        (ps required.Arrival.req_slack.(id)))
    analysis.Arrival.timings;
  Format.fprintf fmt "endpoints:@\n";
  Array.iter
    (fun id ->
      let name = (Timing_graph.scenario graph id).Scenario.name in
      Format.fprintf fmt "  %-16s arrival %10.2fps  slack %10.2fps%s@\n" name
        (ps analysis.Arrival.timings.(id).Arrival.arrival_out)
        (ps required.Arrival.req_slack.(id))
        (if required.Arrival.req_slack.(id) < 0.0 then "  VIOLATED" else ""))
    required.Arrival.endpoints;
  Format.fprintf fmt "clock period: %.2f ps@\n" (ps required.Arrival.clock_period);
  Format.fprintf fmt "WNS: %.2f ps  TNS: %.2f ps@\n" (ps required.Arrival.wns)
    (ps required.Arrival.tns)

let print_timing fmt graph (required : Arrival.required_report)
    (paths : Path_enum.explained list) =
  Format.fprintf fmt "clock period: %.2f ps  WNS: %.2f ps  TNS: %.2f ps@\n"
    (ps required.Arrival.clock_period)
    (ps required.Arrival.wns) (ps required.Arrival.tns);
  Format.fprintf fmt "%d worst path(s):@\n" (List.length paths);
  List.iteri
    (fun rank (e : Path_enum.explained) ->
      let p = e.Path_enum.path in
      let endpoint =
        match List.rev p.Path_enum.stages with id :: _ -> id | [] -> -1
      in
      Format.fprintf fmt
        "@\npath #%d  endpoint %d  arrival %.2f ps  slack %.2f ps%s@\n"
        (rank + 1) endpoint (ps p.Path_enum.arrival) (ps p.Path_enum.slack)
        (if p.Path_enum.slack < 0.0 then "  VIOLATED" else "");
      Format.fprintf fmt "  %s@\n" (path_string graph p);
      Format.fprintf fmt "  %-16s %10s %10s %10s %10s %8s %8s %7s@\n" "stage"
        "arr_in" "delay" "slew" "arr_out" "regions" "newton" "shared";
      List.iter
        (fun (s : Path_enum.stage_attribution) ->
          let t = s.Path_enum.timing in
          Format.fprintf fmt
            "  %-16s %8.2fps %8.2fps %8.2fps %8.2fps %8d %8d %7s@\n"
            s.Path_enum.name (ps t.Arrival.arrival_in) (ps t.Arrival.delay)
            (ps t.Arrival.slew)
            (ps t.Arrival.arrival_out)
            s.Path_enum.regions s.Path_enum.newton_iterations
            (match s.Path_enum.cache_uses with
            | 0 -> "-"  (* solved outside any cache *)
            | 1 -> "no"
            | n -> Printf.sprintf "x%d" n))
        e.Path_enum.through)
    paths

let to_json graph analysis =
  let module Json = Tqwm_obs.Json in
  let stage_json (t : Arrival.stage_timing) =
    Json.Obj
      [
        ("id", Json.Int t.Arrival.id);
        ("name", Json.String (Timing_graph.scenario graph t.Arrival.id).Scenario.name);
        ("arrival_in_ps", Json.Float (ps t.Arrival.arrival_in));
        ("delay_ps", Json.Float (ps t.Arrival.delay));
        ("slew_ps", Json.Float (ps t.Arrival.slew));
        ("arrival_out_ps", Json.Float (ps t.Arrival.arrival_out));
        ( "critical_fanin",
          match t.Arrival.critical_fanin with
          | None -> Json.Null
          | Some id -> Json.Int id );
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "tqwm-sta-report/1");
      ( "stages",
        json_array (fun _ t -> stage_json t) analysis.Arrival.timings );
      ( "critical_path",
        Json.List
          (List.map
             (fun id ->
               Json.String (Timing_graph.scenario graph id).Scenario.name)
             analysis.Arrival.critical_path) );
      ("worst_arrival_ps", Json.Float (ps analysis.Arrival.worst_arrival));
    ]

(* The timing-report document is a pure function of the analysis and the
   enumerated paths — deliberately no runtime/GC block, so two runs that
   agree on the timing agree on the bytes: the bit-identity contract
   test/cli.t and test_sta's seq-vs-parallel case diff against. *)
let timing_to_json graph (analysis : Arrival.analysis)
    (required : Arrival.required_report) (paths : Path_enum.explained list) =
  let module Json = Tqwm_obs.Json in
  let name id = (Timing_graph.scenario graph id).Scenario.name in
  let endpoint_json id =
    Json.Obj
      [
        ("id", Json.Int id);
        ("name", Json.String (name id));
        ("arrival_ps", Json.Float (ps analysis.Arrival.timings.(id).Arrival.arrival_out));
        ("required_ps", Json.Float (ps required.Arrival.req.(id)));
        ("slack_ps", Json.Float (ps required.Arrival.req_slack.(id)));
      ]
  in
  let stage_json id (t : Arrival.stage_timing) =
    Json.Obj
      [
        ("id", Json.Int id);
        ("name", Json.String (name id));
        ("arrival_in_ps", Json.Float (ps t.Arrival.arrival_in));
        ("delay_ps", Json.Float (ps t.Arrival.delay));
        ("slew_ps", Json.Float (ps t.Arrival.slew));
        ("arrival_out_ps", Json.Float (ps t.Arrival.arrival_out));
        ("required_ps", Json.Float (ps required.Arrival.req.(id)));
        ("slack_ps", Json.Float (ps required.Arrival.req_slack.(id)));
        ( "critical_fanin",
          match t.Arrival.critical_fanin with
          | None -> Json.Null
          | Some id -> Json.Int id );
      ]
  in
  let attribution_json (s : Path_enum.stage_attribution) =
    let t = s.Path_enum.timing in
    Json.Obj
      [
        ("id", Json.Int t.Arrival.id);
        ("name", Json.String s.Path_enum.name);
        ("arrival_in_ps", Json.Float (ps t.Arrival.arrival_in));
        ("delay_ps", Json.Float (ps t.Arrival.delay));
        ("slew_ps", Json.Float (ps t.Arrival.slew));
        ("arrival_out_ps", Json.Float (ps t.Arrival.arrival_out));
        ("regions", Json.Int s.Path_enum.regions);
        ("newton_iterations", Json.Int s.Path_enum.newton_iterations);
        ("cache_uses", Json.Int s.Path_enum.cache_uses);
      ]
  in
  let path_json rank (e : Path_enum.explained) =
    let p = e.Path_enum.path in
    Json.Obj
      [
        ("rank", Json.Int (rank + 1));
        ("arrival_ps", Json.Float (ps p.Path_enum.arrival));
        ("slack_ps", Json.Float (ps p.Path_enum.slack));
        ( "stages",
          Json.List (List.map attribution_json e.Path_enum.through) );
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "tqwm-report/1");
      ("clock_period_ps", Json.Float (ps required.Arrival.clock_period));
      ("wns_ps", Json.Float (ps required.Arrival.wns));
      ("tns_ps", Json.Float (ps required.Arrival.tns));
      ("worst_slack_ps", Json.Float (ps required.Arrival.req_worst_slack));
      ("worst_arrival_ps", Json.Float (ps analysis.Arrival.worst_arrival));
      ( "endpoints",
        json_array (fun _ id -> endpoint_json id) required.Arrival.endpoints );
      ( "stages",
        json_array stage_json analysis.Arrival.timings );
      ("paths", Json.List (List.mapi path_json paths));
    ]
