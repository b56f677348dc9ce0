(* Shape checks for the JSON documents the binaries write and the repo
   commits, read back through [Tqwm_obs.Json]. Each check fails the
   running Alcotest case, naming the document and the offending field;
   [ctx] is the document's name in that message. *)

module Json = Tqwm_obs.Json

let fail ctx fmt = Printf.ksprintf (fun m -> Alcotest.failf "%s: %s" ctx m) fmt

let field ctx name = function
  | Json.Obj fields -> (
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> fail ctx "missing field %S" name)
  | j -> fail ctx "expected an object, got %s" (Json.to_string j)

let number ctx name j =
  match field ctx name j with
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | v -> fail ctx "%s is not a number: %s" name (Json.to_string v)

let int ctx name j =
  match field ctx name j with
  | Json.Int i -> i
  | v -> fail ctx "%s is not an integer: %s" name (Json.to_string v)

let string ctx name j =
  match field ctx name j with
  | Json.String s -> s
  | v -> fail ctx "%s is not a string: %s" name (Json.to_string v)

let list ctx name j =
  match field ctx name j with
  | Json.List l -> l
  | v -> fail ctx "%s is not a list: %s" name (Json.to_string v)

let obj ctx name j =
  match field ctx name j with
  | Json.Obj fields -> fields
  | v -> fail ctx "%s is not an object: %s" name (Json.to_string v)

let non_empty ctx name = function [] -> fail ctx "empty %s" name | l -> l

let numbers ctx names j = List.iter (fun name -> ignore (number ctx name j)) names

let schema ctx expected j =
  let s = string ctx "schema" j in
  if s <> expected then fail ctx "schema %S, wanted %S" s expected

let rows ctx name j f =
  List.iteri (fun i row -> f (Printf.sprintf "%s.%s[%d]" ctx name i) row) (list ctx name j)

(* The analysis member of [tqwm-sta-report/1] and [tqwm-incr-report/1]. *)
let analysis ctx j =
  ignore (non_empty ctx "stages" (list ctx "stages" j));
  rows ctx "stages" j (fun ctx row ->
      ignore (int ctx "id" row);
      numbers ctx [ "arrival_in_ps"; "delay_ps"; "slew_ps"; "arrival_out_ps" ] row);
  ignore (list ctx "critical_path" j);
  ignore (number ctx "worst_arrival_ps" j)

let sta_report ctx j =
  schema ctx "tqwm-sta-report/1" j;
  analysis ctx j

let incr_report ctx j =
  schema ctx "tqwm-incr-report/1" j;
  (match string ctx "mode" j with
  | "incremental" | "scratch" -> ()
  | mode -> fail ctx "unknown mode %S" mode);
  analysis (ctx ^ ".analysis") (field ctx "analysis" j);
  (* scripts that set a clock also report the slack aggregates *)
  (match Json.member "timing" j with
  | None -> ()
  | Some timing ->
    numbers (ctx ^ ".timing") [ "clock_period_ps"; "wns_ps"; "tns_ps"; "worst_slack_ps" ] timing);
  let stats = field ctx "stats" j in
  List.iter
    (fun name -> ignore (int (ctx ^ ".stats") name stats))
    [ "edits"; "recomputes"; "stages_reeval"; "cutoff_hits" ]

(* [tqwm-report/1]: beyond its fields, WNS is the worst endpoint slack
   the document carries, and paths are ranked 1, 2, ... worst first. *)
let timing_report ctx j =
  schema ctx "tqwm-report/1" j;
  numbers ctx [ "clock_period_ps"; "wns_ps"; "tns_ps"; "worst_slack_ps"; "worst_arrival_ps" ] j;
  let clock = number ctx "clock_period_ps" j in
  if not (clock > 0.0) then fail ctx "clock_period_ps %g is not positive" clock;
  let endpoints = non_empty ctx "endpoints" (list ctx "endpoints" j) in
  rows ctx "endpoints" j (fun ctx row ->
      ignore (int ctx "id" row);
      ignore (string ctx "name" row);
      numbers ctx [ "arrival_ps"; "required_ps"; "slack_ps" ] row);
  let wns = number ctx "wns_ps" j in
  let worst =
    List.fold_left (fun m e -> Float.min m (number ctx "slack_ps" e)) Float.infinity endpoints
  in
  if Float.abs (wns -. worst) > 1e-6 then
    fail ctx "wns_ps %g disagrees with the endpoint slacks (min %g)" wns worst;
  ignore (non_empty ctx "stages" (list ctx "stages" j));
  rows ctx "stages" j (fun ctx row ->
      ignore (int ctx "id" row);
      numbers ctx
        [ "arrival_in_ps"; "delay_ps"; "slew_ps"; "arrival_out_ps"; "required_ps"; "slack_ps" ]
        row);
  let prev = ref Float.neg_infinity in
  List.iteri
    (fun i path ->
      let pctx = Printf.sprintf "%s.paths[%d]" ctx i in
      if int pctx "rank" path <> i + 1 then fail pctx "rank is not %d" (i + 1);
      let slack = number pctx "slack_ps" path in
      if slack < !prev -. 1e-9 then fail pctx "slack %g out of order (worst first)" slack;
      prev := slack;
      ignore (number pctx "arrival_ps" path);
      ignore (non_empty pctx "stages" (list pctx "stages" path));
      rows pctx "stages" path (fun ctx row ->
          ignore (int ctx "id" row);
          ignore (string ctx "name" row);
          numbers ctx [ "arrival_in_ps"; "delay_ps"; "arrival_out_ps" ] row;
          List.iter
            (fun name -> if int ctx name row < 0 then fail ctx "negative %s" name)
            [ "regions"; "newton_iterations"; "cache_uses" ]))
    (list ctx "paths" j)

(* [tqwm-audit/1], as [Audit.to_json] writes it. *)
let audit ctx j =
  schema ctx "tqwm-audit/1" j;
  ignore (non_empty ctx "workloads" (list ctx "workloads" j));
  rows ctx "workloads" j (fun ctx row ->
      ignore (string ctx "name" row);
      ignore (number ctx "avg_accuracy_pct" row));
  numbers (ctx ^ ".overall") [ "stages"; "avg_accuracy_pct"; "runtime_ratio" ]
    (field ctx "overall" j)

let alloc_budget ctx j =
  schema ctx "tqwm-alloc-budget/1" j;
  let words = field ctx "solver_words_per_region" j in
  List.iter
    (fun (name, _) -> ignore (number (ctx ^ ".solver_words_per_region") name words))
    (non_empty ctx "solver_words_per_region" (obj ctx "solver_words_per_region" j));
  List.iter
    (fun (name, ceilings) ->
      let ctx = ctx ^ ".solver_work_per_region." ^ name in
      List.iter
        (fun what ->
          let v = number ctx what ceilings in
          if not (v > 0.0) then fail ctx "%s ceiling %g is not positive" what v)
        [ "newton_iterations"; "device_calls" ])
    (non_empty ctx "solver_work_per_region" (obj ctx "solver_work_per_region" j));
  let daemon = number ctx "daemon_words_per_round" j in
  if not (daemon > 0.0) then fail ctx "daemon_words_per_round %g is not positive" daemon

(* A ledger's records, each carrying the date and commit stamps
   [Ledger.append] writes, returned for the caller to check by schema. *)
let ledger ctx records =
  List.iteri
    (fun i record ->
      let ctx = Printf.sprintf "%s[%d]" ctx i in
      List.iter (fun stamp -> ignore (string ctx stamp record)) [ "date"; "commit" ])
    (non_empty ctx "ledger" records);
  records

let trace ctx j =
  rows ctx "traceEvents" j (fun ctx event ->
      ignore (string ctx "name" event);
      ignore (string ctx "ph" event))

let metrics ctx j =
  List.iter
    (fun (name, v) ->
      match v with
      | Json.Int _ -> ()
      | v -> fail ctx "counter %s is not an integer: %s" name (Json.to_string v))
    (obj ctx "counters" j);
  List.iter
    (fun (name, v) ->
      match v with
      | Json.Int _ | Json.Float _ | Json.Null -> ()
      | v -> fail ctx "gauge %s is not a number: %s" name (Json.to_string v))
    (obj ctx "gauges" j)

(* The daemon access log's closed record: exactly these fields. The
   outcome is "ok" or one of Protocol.error's codes; unparsed frames log
   the verb "-". *)
let access_fields =
  [ "ts"; "request"; "session"; "verb"; "outcome"; "bytes_in"; "bytes_out"; "latency_us" ]

let access_outcomes =
  [ "ok"; "parse_error"; "unknown_verb"; "bad_request"; "script_error"; "oversized_line";
    "server_full"; "internal" ]

let access_record ctx j =
  (match j with
  | Json.Obj fields ->
    if List.sort compare (List.map fst fields) <> List.sort compare access_fields then
      fail ctx "fields %s, wanted %s"
        (String.concat "," (List.map fst fields))
        (String.concat "," access_fields)
  | _ -> fail ctx "not an object");
  List.iter
    (fun name -> if not (number ctx name j >= 0.0) then fail ctx "%s is negative" name)
    [ "ts"; "latency_us" ];
  List.iter
    (fun name -> if int ctx name j < 0 then fail ctx "%s is negative" name)
    [ "bytes_in"; "bytes_out" ];
  List.iter
    (fun name -> if string ctx name j = "" then fail ctx "empty %s" name)
    [ "request"; "session"; "verb"; "outcome" ];
  let outcome = string ctx "outcome" j in
  if not (List.mem outcome access_outcomes) then fail ctx "unknown outcome %S" outcome
