(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Wang & Zhu, DATE 2003), plus the ablations called out in
   DESIGN.md. Run everything with

     dune exec bench/main.exe

   or select one experiment:

     dune exec bench/main.exe -- --table I
     dune exec bench/main.exe -- --table II
     dune exec bench/main.exe -- --figure 5|7|8|9|10
     dune exec bench/main.exe -- --table ablation-linsolve
     dune exec bench/main.exe -- --table ablation-sc
     dune exec bench/main.exe -- --table ablation-grid
     dune exec bench/main.exe -- --table ablation-waveform
     dune exec bench/main.exe -- --table obs
     dune exec bench/main.exe -- --bechamel

   Performance of the STA engine, the incremental sessions and the
   timing daemon is measured by the repository benchmark in benchmark/;
   this harness keeps the paper's experiments, the ablations and the
   telemetry-overhead table (--table obs), which measures the library's
   own tracing and access log.

   Absolute runtimes differ from the paper (SUN Blade 1000 + Hspice/BSIM3
   there; this machine + our analytic golden engine here); the shape of
   each result is the reproduction target. See EXPERIMENTS.md. *)

open Tqwm_device
open Tqwm_circuit
module Qwm = Tqwm_core.Qwm
module Config = Tqwm_core.Config
module Qwm_solver = Tqwm_core.Qwm_solver
module Engine = Tqwm_spice.Engine
module Transient = Tqwm_spice.Transient
module Waveform = Tqwm_wave.Waveform
module Measure = Tqwm_wave.Measure

let tech = Tech.cmosp35

let golden = Models.golden tech

let table_model = lazy (Models.table tech)

let ps = 1e12

(* median-of-N wall-clock timing for a thunk *)
let time_median ?(repeat = 5) f =
  let times =
    List.init repeat (fun _ ->
        let t0 = Unix.gettimeofday () in
        let (_ : 'a) = f () in
        Unix.gettimeofday () -. t0)
    |> List.sort compare
  in
  List.nth times (repeat / 2)

let spice_config dt = { Transient.default_config with Transient.dt }

let run_spice ~dt scenario = Engine.run ~model:golden ~config:(spice_config dt) scenario

let run_qwm scenario = Qwm.run ~model:(Lazy.force table_model) scenario

type row = {
  name : string;
  spice_1ps : float;  (** seconds *)
  spice_10ps : float;
  qwm_time : float;
  speedup_1ps : float;
  speedup_10ps : float;
  error_percent : float;
}

let measure_row scenario =
  let t_1ps = time_median (fun () -> run_spice ~dt:1e-12 scenario) in
  let t_10ps = time_median (fun () -> run_spice ~dt:10e-12 scenario) in
  let t_qwm = time_median ~repeat:9 (fun () -> run_qwm scenario) in
  let reference = (run_spice ~dt:1e-12 scenario).Engine.delay in
  let qwm_delay = (run_qwm scenario).Qwm.delay in
  let error_percent =
    match (reference, qwm_delay) with
    | Some a, Some b -> 100.0 *. Float.abs (b -. a) /. a
    | (Some _ | None), _ -> nan
  in
  {
    name = scenario.Scenario.name;
    spice_1ps = t_1ps;
    spice_10ps = t_10ps;
    qwm_time = t_qwm;
    speedup_1ps = t_1ps /. t_qwm;
    speedup_10ps = t_10ps /. t_qwm;
    error_percent;
  }

let print_rows title rows =
  Printf.printf "\n=== %s ===\n" title;
  Printf.printf "%-12s %12s %9s %12s %9s %12s %8s\n" "Circuit" "Spice(1ps)" "Speed-up"
    "Spice(10ps)" "Speed-up" "QWM" "Error";
  List.iter
    (fun r ->
      Printf.printf "%-12s %10.2fms %8.1fx %10.2fms %8.1fx %10.3fms %7.2f%%\n" r.name
        (r.spice_1ps *. 1e3) r.speedup_1ps (r.spice_10ps *. 1e3) r.speedup_10ps
        (r.qwm_time *. 1e3) r.error_percent)
    rows;
  let errors = List.map (fun r -> r.error_percent) rows in
  let speedups1 = List.map (fun r -> r.speedup_1ps) rows in
  let speedups10 = List.map (fun r -> r.speedup_10ps) rows in
  let avg xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  Printf.printf
    "summary: avg speed-up %.1fx (1ps) / %.1fx (10ps); avg |error| %.2f%%, worst %.2f%%\n"
    (avg speedups1) (avg speedups10) (avg errors)
    (List.fold_left Float.max 0.0 errors)

(* ---------- Table I: QWM vs reference engine on logic gates ---------- *)

let table1 () =
  let scenarios =
    [
      Scenario.inverter_falling tech;
      Scenario.nand_falling ~n:2 tech;
      Scenario.nand_falling ~n:3 tech;
      Scenario.nand_falling ~n:4 tech;
    ]
  in
  print_rows "Table I: QWM vs SPICE-engine for logic gates (paper Table I)"
    (List.map measure_row scenarios)

(* ---------- Table II: random transistor stacks, lengths 5..10 ---------- *)

let table2 () =
  print_rows
    "Table II: QWM vs SPICE-engine for randomly generated logic stages (paper Table II)"
    (List.map measure_row (Random_circuits.table2_suite tech))

(* ---------- Figure 5: device-model I/V surface ---------- *)

let figure5 () =
  Printf.printf "\n=== Figure 5: NMOS I/V relationship Ids(Vd, Vs) at Vg = VDD ===\n";
  Printf.printf "%6s" "Vs\\Vd";
  let points = [ 0.0; 0.55; 1.1; 1.65; 2.2; 2.75; 3.3 ] in
  List.iter (fun vd -> Printf.printf " %8.2f" vd) points;
  print_newline ();
  List.iter
    (fun vs ->
      Printf.printf "%6.2f" vs;
      List.iter
        (fun vd ->
          let i =
            if vd < vs then 0.0
            else Mosfet.ids tech Mosfet.N ~w:1e-6 ~l:tech.Tech.l_min ~vg:tech.Tech.vdd ~vd ~vs
          in
          Printf.printf " %8.4f" (i *. 1e3))
        points;
      Printf.printf "  (mA)\n")
    points

(* ---------- Figure 7: discharge currents of a 6-NMOS stack ---------- *)

let figure7 () =
  Printf.printf
    "\n=== Figure 7: discharge current of a 6-NMOS transistor stack (mA) ===\n";
  let scenario = Scenario.stack_falling ~widths:(Array.make 6 1.6e-6) tech in
  let config = { (spice_config 1e-12) with Transient.record_currents = true } in
  let result = Transient.simulate ~model:golden ~config scenario in
  let stage = scenario.Scenario.stage in
  let times = List.init 13 (fun i -> float_of_int i *. 25e-12) in
  Printf.printf "%7s" "t(ps)";
  Array.iteri (fun e _ -> Printf.printf "   I%d" (e + 1)) stage.Stage.edges;
  Printf.printf "   (edge channel currents J_k)\n";
  List.iter
    (fun t ->
      let step = int_of_float (t /. 1e-12) in
      if step < Array.length result.Transient.times then begin
        Printf.printf "%7.0f" (t *. ps);
        (match result.Transient.currents with
        | Some cur -> Array.iter (fun i -> Printf.printf " %4.2f" (i *. 1e3)) cur.(step)
        | None -> ());
        print_newline ()
      end)
    times;
  (* single-peak observation + critical points *)
  let qwm = run_qwm scenario in
  Printf.printf "QWM critical points (ps): %s\n"
    (String.concat ", "
       (List.map (fun t -> Printf.sprintf "%.1f" (t *. ps)) qwm.Qwm.critical_times));
  (* peak instants of each edge current should track the critical points *)
  Array.iteri
    (fun e _ ->
      let w = Transient.edge_current_waveform result e in
      let peak_t, peak_v =
        Array.fold_left
          (fun (bt, bv) (t, v) -> if v > bv then (t, v) else (bt, bv))
          (0.0, neg_infinity) (Waveform.samples w)
      in
      Printf.printf "edge %d: peak %.2f mA at %.1f ps\n" (e + 1) (peak_v *. 1e3)
        (peak_t *. ps))
    stage.Stage.edges

(* ---------- Figure 8: I/V curve fitting ---------- *)

let figure8 () =
  Printf.printf "\n=== Figure 8: I/V curve fitting (linear saturation / quadratic triode) ===\n";
  let t = Table_model.of_analytic tech Mosfet.N in
  let vg_axis, vs_axis = Table_model.grid t in
  let gi = vg_axis.Tqwm_num.Interp.count - 1 in
  let fit = Table_model.fit_at t gi 0 in
  Printf.printf "at Vg = %.2f V, Vs = %.2f V (7 stored parameters):\n"
    (Tqwm_num.Interp.knot vg_axis gi)
    (Tqwm_num.Interp.knot vs_axis 0);
  Printf.printf "  saturation: Ids = s1*Vds + s2,          s1=%.4e s2=%.4e\n"
    fit.Table_model.s1 fit.Table_model.s2;
  Printf.printf "  triode:     Ids = t2*Vds^2 + t1*Vds + t0, t2=%.4e t1=%.4e t0=%.4e\n"
    fit.Table_model.t2 fit.Table_model.t1 fit.Table_model.t0;
  Printf.printf "  vth=%.4f V, vdsat=%.4f V\n" fit.Table_model.vth fit.Table_model.vdsat;
  Printf.printf "%8s %12s %12s %12s\n" "Vds(V)" "golden(mA)" "fitted(mA)" "error(uA)";
  let worst = ref 0.0 in
  List.iter
    (fun vds ->
      let exact =
        Mosfet.ids tech Mosfet.N ~w:1e-6 ~l:tech.Tech.l_min ~vg:tech.Tech.vdd ~vd:vds
          ~vs:0.0
      in
      let fitted = Table_model.lookup t ~vg:tech.Tech.vdd ~vs:0.0 ~vd:vds in
      worst := Float.max !worst (Float.abs (fitted -. exact));
      Printf.printf "%8.2f %12.4f %12.4f %12.3f\n" vds (exact *. 1e3) (fitted *. 1e3)
        ((fitted -. exact) *. 1e6))
    [ 0.0; 0.3; 0.8; 1.5; 2.2; 2.75; 3.0; 3.3 ];
  Printf.printf "max fit error %.3f uA\n" (!worst *. 1e6)

(* ---------- Figure 9: 6-NMOS stack waveforms, QWM vs SPICE ---------- *)

let figure9 () =
  Printf.printf
    "\n=== Figure 9: 6-NMOS stack simulation (Manchester carry chain longest path) ===\n";
  let scenario = Scenario.manchester ~bits:5 tech in
  let sp = run_spice ~dt:1e-12 scenario in
  let qw = run_qwm scenario in
  Printf.printf "%7s" "t(ps)";
  List.iter (fun (name, _) -> Printf.printf " %6s " name) qw.Qwm.node_quadratics;
  Printf.printf "| spice out\n";
  List.iter
    (fun t_ps ->
      let t = t_ps *. 1e-12 in
      Printf.printf "%7.0f" t_ps;
      List.iter
        (fun (_, q) -> Printf.printf " %6.3f " (Waveform.quadratic_value_at q t))
        qw.Qwm.node_quadratics;
      Printf.printf "| %6.3f\n" (Waveform.value_at sp.Engine.output t))
    [ 0.0; 15.0; 30.0; 50.0; 75.0; 100.0; 130.0; 170.0; 220.0; 300.0; 400.0 ];
  let cmp =
    Tqwm_wave.Compare.waveforms ~reference:sp.Engine.output
      (Qwm.output_waveform qw ~dt:1e-12)
  in
  (match (sp.Engine.delay, qw.Qwm.delay) with
  | Some a, Some b ->
    Printf.printf
      "delay: spice %.2f ps vs qwm %.2f ps -> accuracy %.2f%% (waveform RMS %.2f%% of swing)\n"
      (a *. ps) (b *. ps)
      (100.0 -. (100.0 *. Float.abs (b -. a) /. a))
      cmp.Tqwm_wave.Compare.rms_percent_of_swing
  | (Some _ | None), _ -> ())

(* ---------- Figure 10: decoder-tree simulation with pi-model wires ---------- *)

let figure10 () =
  Printf.printf "\n=== Figure 10: decoder tree simulation (wires as pi macromodels) ===\n";
  let scenario = Scenario.decoder ~levels:3 tech in
  let sp = run_spice ~dt:1e-12 scenario in
  let qw = run_qwm scenario in
  let chain = qw.Qwm.lowering.Path.chain in
  Printf.printf "stage: %d edges; QWM chain after O'Brien-Savarino reduction: %d edges\n"
    (Array.length scenario.Scenario.stage.Stage.edges)
    (Chain.length chain);
  (* waveform pairs across each wire (both terminals), as in the figure *)
  Printf.printf "%7s" "t(ps)";
  List.iter (fun (name, _) -> Printf.printf " %6s " name) qw.Qwm.node_quadratics;
  print_newline ();
  List.iter
    (fun t_ps ->
      Printf.printf "%7.0f" t_ps;
      List.iter
        (fun (_, q) ->
          Printf.printf " %6.3f " (Waveform.quadratic_value_at q (t_ps *. 1e-12)))
        qw.Qwm.node_quadratics;
      print_newline ())
    [ 0.0; 30.0; 60.0; 100.0; 150.0; 220.0; 300.0; 450.0 ];
  let t_spice = time_median (fun () -> run_spice ~dt:1e-12 scenario) in
  let t_qwm = time_median (fun () -> run_qwm scenario) in
  match (sp.Engine.delay, qw.Qwm.delay) with
  | Some a, Some b ->
    Printf.printf "speed-up over 1ps reference: %.1fx; accuracy %.2f%%\n"
      (t_spice /. t_qwm)
      (100.0 -. (100.0 *. Float.abs (b -. a) /. a))
  | (Some _ | None), _ -> ()

(* ---------- Ablation A: linear solvers inside the QWM Newton ---------- *)

let ablation_linsolve () =
  Printf.printf
    "\n=== Ablation: tridiagonal+Sherman-Morrison vs dense LU in the region solve ===\n";
  Printf.printf "(paper SIV-B: 'tridiagonal method gives almost twice speedup over LU')\n";
  let scenario = Random_circuits.stack_scenario tech ~len:10 ~seed:1 in
  let model = Lazy.force table_model in
  List.iter
    (fun (name, solver) ->
      let config = { Config.default with Config.linear_solver = solver } in
      let t = time_median ~repeat:9 (fun () -> Qwm.run ~model ~config scenario) in
      let report = Qwm.run ~model ~config scenario in
      Printf.printf "%-18s %8.3f ms  (%d linear solves, delay %s)\n" name (t *. 1e3)
        report.Qwm.stats.Qwm_solver.linear_solves
        (match report.Qwm.delay with
        | Some d -> Printf.sprintf "%.2f ps" (d *. ps)
        | None -> "none"))
    [
      ("bordered", Config.Bordered);
      ("sherman-morrison", Config.Sherman_morrison);
      ("dense-lu", Config.Dense_lu);
    ]

(* ---------- Ablation B: Newton-Raphson vs successive chords (TETA) ---------- *)

let ablation_sc () =
  Printf.printf "\n=== Ablation: Newton-Raphson vs successive-chord transient solver ===\n";
  let scenario = Scenario.nand_falling ~n:3 tech in
  List.iter
    (fun (name, solver, max_iterations) ->
      let config = { (spice_config 1e-12) with Transient.solver; max_iterations } in
      let t = time_median (fun () -> Engine.run ~model:golden ~config scenario) in
      let report = Engine.run ~model:golden ~config scenario in
      Printf.printf "%-18s %8.3f ms  (%d nonlinear iterations, delay %s)\n" name
        (t *. 1e3)
        report.Engine.result.Transient.stats.Transient.nonlinear_iterations
        (match report.Engine.delay with
        | Some d -> Printf.sprintf "%.2f ps" (d *. ps)
        | None -> "none"))
    [
      ("newton-raphson", Transient.Newton_raphson, 50);
      ("successive-chord", Transient.Successive_chord, 400);
    ]

(* ---------- Ablation C: table grid resolution vs QWM accuracy ---------- *)

let ablation_grid () =
  Printf.printf "\n=== Ablation: characterization grid step vs QWM delay accuracy ===\n";
  let scenario = Scenario.stack_falling ~widths:(Array.make 6 1.6e-6) tech in
  let reference =
    match (run_spice ~dt:1e-12 scenario).Engine.delay with
    | Some d -> d
    | None -> failwith "reference delay missing"
  in
  List.iter
    (fun grid_step ->
      let model = Models.table ~grid_step tech in
      let report = Qwm.run ~model scenario in
      match report.Qwm.delay with
      | Some d ->
        Printf.printf "grid %.2f V: delay %.2f ps, error %.2f%%\n" grid_step (d *. ps)
          (100.0 *. Float.abs (d -. reference) /. reference)
      | None -> Printf.printf "grid %.2f V: no delay\n" grid_step)
    [ 0.4; 0.2; 0.1; 0.05 ]

(* ---------- Ablation D: waveform model (quadratic vs linear) ---------- *)

let ablation_waveform () =
  Printf.printf
    "\n=== Ablation: waveform model — the paper's quadratic vs a linear alternative ===\n";
  Printf.printf "(the conclusion's future work: 'suitability of other waveforms')\n";
  let scenarios =
    [
      Scenario.inverter_falling tech;
      Scenario.nand_falling ~n:3 tech;
      Scenario.stack_falling ~widths:(Array.make 6 1.6e-6) tech;
    ]
  in
  let sparse = [ 0.5; 0.15 ] in
  let run scenario waveform_model levels =
    let config = { Config.default with Config.waveform_model; levels } in
    (Qwm.run ~model:(Lazy.force table_model) ~config scenario).Qwm.delay
  in
  Printf.printf "%-10s %16s %16s %16s %16s\n" "circuit" "quad (dense)" "linear (dense)"
    "quad (sparse)" "linear (sparse)";
  List.iter
    (fun scenario ->
      let reference =
        match (run_spice ~dt:1e-12 scenario).Engine.delay with
        | Some d -> d
        | None -> nan
      in
      let err = function
        | Some d -> Printf.sprintf "%8.2f%%" (100.0 *. Float.abs (d -. reference) /. reference)
        | None -> "    none"
      in
      Printf.printf "%-10s %16s %16s %16s %16s\n" scenario.Scenario.name
        (err (run scenario Config.Quadratic Config.default.Config.levels))
        (err (run scenario Config.Linear Config.default.Config.levels))
        (err (run scenario Config.Quadratic sparse))
        (err (run scenario Config.Linear sparse)))
    scenarios

(* ---------- Telemetry overhead of the serving stack ---------- *)

module Timing_graph = Tqwm_sta.Timing_graph
module Workloads = Tqwm_sta.Workloads
module Json = Tqwm_obs.Json
module Trace = Tqwm_obs.Trace
module Server = Tqwm_server.Server
module Server_client = Tqwm_server.Client
module Server_protocol = Tqwm_server.Protocol

(* The same two-client edit/report/slack workload served by fresh
   two-worker daemons, once with every observability feature off (the
   deployment default) and once with request-scoped tracing plus the
   JSONL access log on, and the throughput delta reported. The table
   fails when the traced pass captures no trace events or the access log
   loses a request. *)
let sta_obs () =
  let rounds = 25 in
  let workers = 2 and clients = 2 in
  let graph = Workloads.decoder_tree ~fanout:4 ~depth:3 tech in
  let n_stages = Timing_graph.num_stages graph in
  Printf.printf
    "\n=== Telemetry overhead: %d workers, %d sessions, %d rounds each — serve with \
     tracing+access-log on vs off ===\n"
    workers clients rounds;
  let run_pass ~label ~access_log ~tracing =
    if tracing then Trace.enable ~cap:1_000_000 () else Trace.disable ();
    let sock =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tqwm-bench-obs-%s-%d.sock" label (Unix.getpid ()))
    in
    (try Sys.remove sock with Sys_error _ -> ());
    let server =
      Server.start ~tech ~graph ~workers ~max_sessions:(clients + 4) ?access_log
        (Server_protocol.Unix_sock sock)
    in
    let addr = Server.address server in
    let run_client idx =
      let c = Server_client.connect addr in
      let n = ref 0 in
      let send verb args =
        let (_ : Json.t) = Server_client.request c verb args in
        incr n
      in
      send "load" [];
      for round = 1 to rounds do
        let stage = (idx + (3 * round)) mod n_stages in
        let scale = 0.8 +. (0.1 *. float_of_int ((idx + round) mod 8)) in
        send "edit"
          [ ("line", Json.String (Printf.sprintf "resize %d 0 %.2f" stage scale)) ];
        send "report" [];
        send "slack" [ ("clock_period_ps", Json.Float 900.0) ]
      done;
      Server_client.close c;
      !n
    in
    let t0 = Unix.gettimeofday () in
    let client_domains =
      List.init clients (fun i -> Domain.spawn (fun () -> run_client i))
    in
    let requests = List.fold_left ( + ) 0 (List.map Domain.join client_domains) in
    let duration = Unix.gettimeofday () -. t0 in
    let trace_events =
      if not tracing then 0
      else
        match Trace.to_json () with
        | Json.Obj fields -> (
          match List.assoc_opt "traceEvents" fields with
          | Some (Json.List events) -> List.length events
          | _ -> 0)
        | _ -> 0
    in
    Server.stop server;
    Trace.disable ();
    (requests, duration, float_of_int requests /. duration, trace_events)
  in
  (* untimed warmup: the first pass would otherwise pay the lazy model
     characterization and cold code paths, dragging the measured "off"
     qps down and making the telemetry overhead look negative *)
  let (_ : int * float * float * int) =
    run_pass ~label:"warmup" ~access_log:None ~tracing:false
  in
  let log_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tqwm-bench-obs-%d.jsonl" (Unix.getpid ()))
  in
  (* every logged line must be whole, valid JSON with the closed schema's
     field count — torn concurrent writes would fail to parse here *)
  let validate_log () =
    let ic = open_in log_path in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then begin
           (match Json.of_string line with
           | Json.Obj fields when List.length fields = 8 -> ()
           | _ -> failwith ("bench obs: bad access-log line: " ^ line));
           incr n
         end
       done
     with End_of_file -> ());
    close_in ic;
    !n
  in
  (* alternate off/on passes and keep the best of each mode: a single
     pass on an oversubscribed runner measures the scheduler's mood,
     not the telemetry *)
  let passes = 3 in
  let best a b =
    let (_, _, qa, _), _ = a and (_, _, qb, _), _ = b in
    if qb > qa then b else a
  in
  let measure () =
    let off = (run_pass ~label:"off" ~access_log:None ~tracing:false, 0) in
    (try Sys.remove log_path with Sys_error _ -> ());
    let on_run = run_pass ~label:"on" ~access_log:(Some log_path) ~tracing:true in
    let lines = validate_log () in
    (try Sys.remove log_path with Sys_error _ -> ());
    (off, (on_run, lines))
  in
  let first = measure () in
  let best_off, best_on =
    List.fold_left
      (fun (bo, bn) () ->
        let o, n = measure () in
        (best bo o, best bn n))
      first
      (List.init (passes - 1) (fun _ -> ()))
  in
  let (off_requests, off_duration, off_qps, _), _ = best_off in
  let (on_requests, on_duration, on_qps, trace_events), log_lines = best_on in
  let overhead_pct = 100.0 *. (off_qps -. on_qps) /. off_qps in
  Printf.printf "%-14s %10s %12s %10s\n" "telemetry" "requests" "duration" "qps";
  Printf.printf "%-14s %10d %10.2f s %10.0f\n" "off" off_requests off_duration off_qps;
  Printf.printf "%-14s %10d %10.2f s %10.0f\n" "on" on_requests on_duration on_qps;
  Printf.printf
    "overhead with tracing+log on: %.1f%% (%d trace events, %d access-log lines)\n"
    overhead_pct trace_events log_lines;
  if trace_events = 0 then
    failwith "bench obs: the traced pass captured no trace events";
  if log_lines < on_requests then
    failwith
      (Printf.sprintf "bench obs: %d access-log lines for %d requests" log_lines
         on_requests)

(* ---------- Bechamel micro-benchmarks: one Test.make per table/figure ---------- *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let model = Lazy.force table_model in
  let stage name scenario = Test.make ~name (Staged.stage (fun () -> Qwm.run ~model scenario)) in
  let spice name dt scenario =
    Test.make ~name
      (Staged.stage (fun () -> Engine.run ~model:golden ~config:(spice_config dt) scenario))
  in
  let tests =
    Test.make_grouped ~name:"tqwm" ~fmt:"%s %s"
      [
        (* Table I kernels *)
        stage "tableI-qwm-nand3" (Scenario.nand_falling ~n:3 tech);
        spice "tableI-spice-nand3-10ps" 10e-12 (Scenario.nand_falling ~n:3 tech);
        (* Table II kernel *)
        stage "tableII-qwm-ckt8_2" (Random_circuits.stack_scenario tech ~len:8 ~seed:2);
        (* Figure 7/9 kernel *)
        stage "fig9-qwm-manchester5" (Scenario.manchester ~bits:5 tech);
        (* Figure 10 kernel *)
        stage "fig10-qwm-decoder3" (Scenario.decoder ~levels:3 tech);
        (* Figure 8 kernel: one characterization *)
        Test.make ~name:"fig8-characterize-nmos"
          (Staged.stage (fun () -> Table_model.of_analytic ~grid_step:0.2 tech Mosfet.N));
        (* Ablation A kernel *)
        Test.make ~name:"ablation-qwm-dense-lu"
          (Staged.stage (fun () ->
               Qwm.run ~model
                 ~config:{ Config.default with Config.linear_solver = Config.Dense_lu }
                 (Random_circuits.stack_scenario tech ~len:10 ~seed:1)));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols (Instance.monotonic_clock :> Measure.witness) raw in
  Printf.printf "\n=== Bechamel micro-benchmarks (monotonic clock per run) ===\n";
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-34s %12.1f ns/run\n" name est
      | Some _ | None -> Printf.printf "%-34s (no estimate)\n" name)
    results

(* ---------- driver ---------- *)

let all () =
  table1 ();
  table2 ();
  figure5 ();
  figure7 ();
  figure8 ();
  figure9 ();
  figure10 ();
  ablation_linsolve ();
  ablation_sc ();
  ablation_grid ();
  ablation_waveform ();
  bechamel ()

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> all ()
  | [ _; "--table"; "I" ] -> table1 ()
  | [ _; "--table"; "II" ] -> table2 ()
  | [ _; "--figure"; "5" ] -> figure5 ()
  | [ _; "--figure"; "7" ] -> figure7 ()
  | [ _; "--figure"; "8" ] -> figure8 ()
  | [ _; "--figure"; "9" ] -> figure9 ()
  | [ _; "--figure"; "10" ] -> figure10 ()
  | [ _; "--table"; "ablation-linsolve" ] -> ablation_linsolve ()
  | [ _; "--table"; "ablation-sc" ] -> ablation_sc ()
  | [ _; "--table"; "ablation-grid" ] -> ablation_grid ()
  | [ _; "--table"; "ablation-waveform" ] -> ablation_waveform ()
  | [ _; "--table"; "obs" ] -> sta_obs ()
  | [ _; "--bechamel" ] -> bechamel ()
  | _ ->
    prerr_endline
      "usage: main.exe [--table I|II|ablation-linsolve|ablation-sc|ablation-grid|\
       ablation-waveform | --table obs | --figure 5|7|8|9|10 | --bechamel]";
    exit 1
