(* The repository benchmark: one workload per process.

     main.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
              [--trace-out FILE] [--scale F]

   Workloads: stage-solve, sta-cold, sta-repeat, eco-daemon (see
   README.md). The seed makes the inputs; [--seconds] (default 20) is
   the measured time. An untraced run prints the end-to-end metrics; a
   traced run ([--trace 1]) prints the per-layer metrics instead and,
   with [--trace-out], writes its spans as a Chrome trace. [--scale]
   shrinks the inputs for smoke tests. Every metric is printed by name
   with its unit; the last line of standard output is one JSON object
   with the keys correct, attempted, failed and metrics. The exit code
   is 0 only when every correctness check passed. *)

module Json = Tqwm_obs.Json

type options = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
  scale : float;
}

let usage =
  "main.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--trace-out FILE] [--scale F]"

let parse () =
  let workload = ref "" and seed = ref None and seconds = ref 20.0 and trace = ref 0 in
  let trace_out = ref None and scale = ref 1.0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat " | " Spec.workloads);
      ("--seed", Arg.Int (fun n -> seed := Some n), "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  print per-layer metrics from a traced run");
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE  Chrome trace of spans");
      ("--scale", Arg.Set_float scale, "F  input-size factor (default 1)");
    ]
  in
  let fail msg =
    prerr_endline msg;
    Arg.usage spec usage;
    exit 2
  in
  Arg.parse spec (fun a -> fail ("unexpected argument " ^ a)) usage;
  if not (List.mem !workload Spec.workloads) then fail ("unknown workload " ^ !workload);
  if !seconds <= 0.0 || !scale <= 0.0 || !scale > 1.0 then fail "bad --seconds or --scale";
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  match !seed with
  | None -> fail "--seed is required"
  | Some seed ->
    {
      workload = !workload;
      seed;
      seconds = !seconds;
      trace = !trace = 1;
      trace_out = !trace_out;
      scale = !scale;
    }

let run_workload = function
  | "stage-solve" -> Stage_solve.run
  | "sta-cold" -> Sta_runs.cold
  | "sta-repeat" -> Sta_runs.repeat
  | "eco-daemon" -> Eco_daemon.run
  | w -> invalid_arg w

(* The printed metrics: the end-to-end set on an untraced run, the
   per-layer set on a traced one. A layer the workload does not reach
   reads 0, which only a share or a count may do. *)
let select ~trace (outcome : Run.outcome) =
  let measured = ("peak_rss_mb", Timer.peak_rss_mb ()) :: outcome.Run.metrics in
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name measured with
      | Some v -> (name, unit, v)
      | None when trace && not (List.mem unit Spec.time_units) -> (name, unit, 0.0)
      | None -> failwith ("metric not measured: " ^ name))
    (if trace then Spec.per_layer else Spec.end_to_end)

let () =
  let o = parse () in
  let spans = if o.trace then Some (Span.create ~lane:0) else None in
  let outcome =
    run_workload o.workload { Run.seed = o.seed; seconds = o.seconds; scale = o.scale; spans }
  in
  let metrics = select ~trace:o.trace outcome in
  let checks =
    outcome.Run.checks
    @ [
        ( "every metric is a finite number",
          List.for_all (fun (_, _, v) -> Float.is_finite v) metrics );
      ]
  in
  let correct = outcome.Run.failed = 0 && List.for_all snd checks in
  Printf.printf "%s seed %d%s: %d operations, %d failed\n" o.workload o.seed
    (if o.trace then " (traced)" else "")
    outcome.Run.attempted outcome.Run.failed;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-32s %14.6g %s\n" name v unit) metrics;
  List.iter
    (fun (name, ok) -> Printf.printf "check %-4s %s\n" (if ok then "ok" else "FAIL") name)
    checks;
  (match o.trace_out with
  | Some file -> Json.write_file file (Span.to_chrome (Span.all ()))
  | None -> ());
  let value v = if Float.is_finite v then Json.Float v else Json.Float 0.0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int outcome.Run.attempted);
            ("failed", Json.Int outcome.Run.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, Json.Obj [ ("value", value v); ("unit", Json.String unit) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
