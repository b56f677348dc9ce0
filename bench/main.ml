(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Wang & Zhu, DATE 2003), plus the ablations called out in
   DESIGN.md. Run everything with

     dune exec bench/main.exe

   or select one experiment:

     dune exec bench/main.exe -- --table I
     dune exec bench/main.exe -- --table II
     dune exec bench/main.exe -- --table parallel [--domains N]
     dune exec bench/main.exe -- --table server [--smoke] [--domains N] [--clients C]
     dune exec bench/main.exe -- --table obs [--smoke] [--domains N] [--clients C]
     dune exec bench/main.exe -- --table incr [--smoke]
     dune exec bench/main.exe -- --table audit [--smoke]
     dune exec bench/main.exe -- --table alloc [--smoke]
     dune exec bench/main.exe -- --table report [--smoke]
     dune exec bench/main.exe -- --figure 5|7|8|9|10
     dune exec bench/main.exe -- --table ablation-linsolve
     dune exec bench/main.exe -- --table ablation-sc
     dune exec bench/main.exe -- --table ablation-grid
     dune exec bench/main.exe -- --bechamel
     dune exec bench/main.exe -- --smoke        # bounded CI smoke run

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
  let n_edges = Array.length stage.Stage.edges in
  (* node k's discharge current = J_{k+1} - J_k (difference of neighbour
     channel currents, paper Eq. (4)) *)
  let node_current step node =
    match result.Transient.currents with
    | None -> 0.0
    | Some cur ->
      let j k = if k >= n_edges then 0.0 else cur.(step).(k) in
      j node -. j (node - 1) |> fun x -> -.x
  in
  ignore node_current;
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

(* ---------- Parallel STA: level-parallel propagation + stage cache ---------- *)

module Timing_graph = Tqwm_sta.Timing_graph
module Arrival = Tqwm_sta.Arrival
module Parallel = Tqwm_sta.Parallel
module Stage_cache = Tqwm_sta.Stage_cache
module Workloads = Tqwm_sta.Workloads
module Metrics = Tqwm_obs.Metrics
module Json = Tqwm_obs.Json

let same_analysis (a : Arrival.analysis) (b : Arrival.analysis) =
  a.Arrival.timings = b.Arrival.timings
  && a.Arrival.critical_path = b.Arrival.critical_path
  && a.Arrival.worst_arrival = b.Arrival.worst_arrival

let sta_parallel ?(smoke = false) ?(domains = 4) () =
  let model = Lazy.force table_model in
  let repeat = if smoke then 1 else 3 in
  let workloads =
    if smoke then
      [
        ("decoder-tree", Workloads.decoder_tree ~fanout:3 ~depth:2 tech);
        ("random-stacks", Workloads.random_stacks ~width:4 ~depth:2 tech);
      ]
    else
      [
        ("decoder-tree", Workloads.decoder_tree ~fanout:4 ~depth:3 tech);
        ("random-stacks", Workloads.random_stacks ~width:12 ~depth:4 tech);
      ]
  in
  Printf.printf
    "\n=== Parallel STA propagation: %d domains vs sequential, stage cache ===\n"
    domains;
  let cores = Parallel.default_domains () in
  (* honesty: oversubscribed runs (more domains than cores) cannot show a
     wall-clock speedup — flag them instead of reporting a silent 0.15x *)
  let degraded = cores < domains in
  Printf.printf "(machine reports %d available core%s%s)\n" cores
    (if cores = 1 then "" else "s")
    (if degraded then
       " — wall-clock speedup is bounded by the hardware, not the engine"
     else "");
  if degraded then
    Printf.eprintf
      "bench: WARNING: %d domains on %d available core%s — parallel timings are \
       oversubscribed; speedup figures below are degraded and not asserted\n"
      domains cores
      (if cores = 1 then "" else "s");
  Printf.printf "%-14s %7s %10s %10s %8s %7s %7s %10s %8s %7s %10s\n" "workload"
    "stages" "seq" "par" "speedup" "steals" "chunks" "identical" "hits" "solves"
    "warm";
  Metrics.reset ();
  let counter name = Option.value (Metrics.find_counter name) ~default:0 in
  let rows =
    List.map
      (fun (name, graph) ->
      (* freeze outside the timed region: measured time is propagation *)
      ignore (Timing_graph.freeze graph);
      let t_seq =
        time_median ~repeat (fun () -> Parallel.propagate ~model ~domains:1 graph)
      in
      let t_par =
        time_median ~repeat (fun () -> Parallel.propagate ~model ~domains graph)
      in
      (* steal telemetry of one representative run *)
      let steals0 = counter "sta.steals" and chunks0 = counter "sta.chunks" in
      let (_ : Arrival.analysis) = Parallel.propagate ~model ~domains graph in
      let steals = counter "sta.steals" - steals0 in
      let chunks = counter "sta.chunks" - chunks0 in
      let identical =
        let seq = Parallel.propagate ~model ~domains:1 graph in
        let par = Parallel.propagate ~model ~domains graph in
        let cache_seq = Stage_cache.create () in
        let cseq = Parallel.propagate ~model ~cache:cache_seq ~domains:1 graph in
        let cache_par = Stage_cache.create () in
        let cpar = Parallel.propagate ~model ~cache:cache_par ~domains graph in
        same_analysis seq par && same_analysis cseq cpar
      in
      let cache = Stage_cache.create () in
      let (_ : Arrival.analysis) = Parallel.propagate ~model ~cache ~domains graph in
      (* snapshot before the warm-cache timing below inflates the counters *)
      let stats = Stage_cache.stats cache in
      let cold_hit_rate =
        let total = stats.Stage_cache.hits + stats.Stage_cache.misses in
        if total = 0 then 0.0
        else float_of_int stats.Stage_cache.hits /. float_of_int total
      in
      (* warm cache: every stage hits, leaving only scheduling overhead *)
      let t_warm =
        time_median ~repeat (fun () -> Parallel.propagate ~model ~cache ~domains graph)
      in
      (* with real cores behind every domain, parallel propagation must
         not lose to sequential; skipped when oversubscription makes the
         number meaningless *)
      if not degraded then assert (t_seq /. t_par > 0.5);
      Printf.printf
        "%-14s %7d %8.1fms %8.1fms %7.2fx %7d %7d %10s %7.0f%% %7d %8.2fms\n"
        name
        (Timing_graph.num_stages graph) (t_seq *. 1e3) (t_par *. 1e3)
        (t_seq /. t_par) steals chunks
        (if identical then "yes" else "NO")
        (100.0 *. cold_hit_rate)
        stats.Stage_cache.misses (t_warm *. 1e3);
      Json.Obj
        [
          ("name", Json.String name);
          ("stages", Json.Int (Timing_graph.num_stages graph));
          ("seq_ms", Json.Float (t_seq *. 1e3));
          ("par_ms", Json.Float (t_par *. 1e3));
          ("speedup", Json.Float (t_seq /. t_par));
          ("steals", Json.Int steals);
          ("chunks", Json.Int chunks);
          (* stamped per row, not just top-level: a scenario record cut out
             of the ledger stays honest about oversubscription on its own *)
          ("degraded", Json.Bool degraded);
          ("identical", Json.Bool identical);
          ( "cache",
            Json.Obj
              [
                ("hits", Json.Int stats.Stage_cache.hits);
                ("misses", Json.Int stats.Stage_cache.misses);
                ("hit_rate", Json.Float cold_hit_rate);
              ] );
          ("warm_ms", Json.Float (t_warm *. 1e3));
        ])
      workloads
  in
  Printf.printf
    "(identical = parallel and cached timings bit-equal to sequential;\n\
    \ par = %d-domain wall clock; steals/chunks = telemetry of one parallel run;\n\
    \ solves = QWM runs through a cold shared cache; warm = propagation with a\n\
    \ fully warm cache, i.e. pure scheduling overhead)\n"
    domains;
  Json.Obj
    [
      ("schema", Json.String "tqwm-bench-parallel/3");
      ("smoke", Json.Bool smoke);
      ("domains", Json.Int domains);
      (* 0 = auto-sized from level width and domain count (Parallel.propagate
         default); a fixed positive value would be recorded verbatim *)
      ("chunk_size", Json.Int 0);
      ("available_cores", Json.Int cores);
      ("degraded", Json.Bool degraded);
      ("workloads", Json.List rows);
      (* cumulative solver/cache telemetry over every run above — the
         absolute values scale with [repeat], so compare like runs only *)
      ("metrics", Metrics.snapshot ());
    ]

(* ---------- Incremental STA: full re-propagation vs edit-driven refresh ---------- *)

module Edit = Tqwm_incr.Edit
module Session = Tqwm_incr.Session

let counter_value name =
  Option.value (List.assoc_opt name (Metrics.counters_alist ())) ~default:0

let sta_incr ?(smoke = false) () =
  let model = Lazy.force table_model in
  let fanout, depth = if smoke then (3, 2) else (4, 4) in
  let graph = Workloads.decoder_tree ~fanout ~depth tech in
  let n = Timing_graph.num_stages graph in
  let edits = if smoke then 8 else 30 in
  Printf.printf
    "\n=== Incremental STA: decoder tree (fan-out %d, depth %d, %d stages), %d random \
     single-stage edits ===\n"
    fanout depth n edits;
  let cache = Stage_cache.create () in
  let session = Session.create ~model ~cache graph in
  ignore (Session.analysis session);
  (* the oracle keeps its own equally-warm cache: after each edit both
     sides pay the same fresh solves for the affected cone, and the
     measured difference is the full propagation's visit to every other
     stage (cache lookups included) that the incremental engine skips *)
  let scratch_cache = Stage_cache.create () in
  ignore (Session.scratch_analysis ~cache:scratch_cache session);
  let rng = Random.State.make [| 2003 |] in
  let t_incr = ref 0.0 and t_full = ref 0.0 and reeval = ref 0 in
  let identical = ref true in
  for _ = 1 to edits do
    let stage = Random.State.int rng n in
    let scenario = Timing_graph.scenario graph stage in
    let edge = Random.State.int rng (Array.length scenario.Scenario.stage.Stage.edges) in
    let scale = 0.6 +. Random.State.float rng 1.2 in
    ignore (Session.apply session (Edit.Resize_device { stage; edge; scale }));
    let t0 = Unix.gettimeofday () in
    reeval := !reeval + Session.recompute session;
    let t1 = Unix.gettimeofday () in
    let scratch = Session.scratch_analysis ~cache:scratch_cache session in
    let t2 = Unix.gettimeofday () in
    t_incr := !t_incr +. (t1 -. t0);
    t_full := !t_full +. (t2 -. t1);
    if not (same_analysis (Session.analysis session) scratch) then identical := false
  done;
  let frac = float_of_int !reeval /. float_of_int (edits * n) in
  Printf.printf
    "full   %8.2f ms/edit   (every one of %d stages re-timed)\n"
    (!t_full /. float_of_int edits *. 1e3) n;
  Printf.printf
    "incr   %8.2f ms/edit   (avg %.1f stages re-timed = %.1f%% of the graph)\n"
    (!t_incr /. float_of_int edits *. 1e3)
    (float_of_int !reeval /. float_of_int edits)
    (100.0 *. frac);
  Printf.printf "speedup %7.1fx         identical to from-scratch: %s\n"
    (!t_full /. !t_incr)
    (if !identical then "yes" else "NO");
  (* a timing-neutral edit (scale 1.0) must die at the edited stage: one
     re-evaluation, one cutoff hit on the Tqwm_obs counter *)
  let cutoff0 = counter_value "incr.cutoff_hits" in
  ignore (Session.apply session (Edit.Resize_device { stage = 0; edge = 0; scale = 1.0 }));
  let neutral_reeval = Session.recompute session in
  let cutoff_delta = counter_value "incr.cutoff_hits" - cutoff0 in
  Printf.printf "cutoff: neutral edit re-timed %d stage (%d cutoff hit)\n" neutral_reeval
    cutoff_delta;
  assert (neutral_reeval = 1 && cutoff_delta = 1);
  assert (frac < 0.20);
  assert !identical;
  Json.Obj
    [
      ("schema", Json.String "tqwm-bench-incr/1");
      ("smoke", Json.Bool smoke);
      ( "workload",
        Json.Obj
          [
            ("name", Json.String "decoder-tree");
            ("fanout", Json.Int fanout);
            ("depth", Json.Int depth);
            ("stages", Json.Int n);
          ] );
      ("edits", Json.Int edits);
      ("full_ms_per_edit", Json.Float (!t_full /. float_of_int edits *. 1e3));
      ("incr_ms_per_edit", Json.Float (!t_incr /. float_of_int edits *. 1e3));
      ("speedup", Json.Float (!t_full /. !t_incr));
      ("stages_reeval_avg", Json.Float (float_of_int !reeval /. float_of_int edits));
      ("reeval_fraction", Json.Float frac);
      ("identical", Json.Bool !identical);
      ( "cutoff",
        Json.Obj
          [
            ("neutral_edit_reeval", Json.Int neutral_reeval);
            ("cutoff_hits", Json.Int cutoff_delta);
          ] );
    ]

(* ---------- Accuracy audit: golden-vs-QWM over the workload catalog ---------- *)

module Audit = Tqwm_audit.Audit

let sta_audit ?(smoke = false) () =
  Printf.printf
    "\n=== Accuracy audit: QWM vs golden engine over the workload catalog%s ===\n"
    (if smoke then " (smoke subset)" else "");
  let workloads = Audit.catalog ~smoke tech in
  let audit = Audit.run ~workloads tech in
  Audit.pp Format.std_formatter audit;
  (* the paper's trade-off point: accuracy and speed-up from the same run *)
  Printf.printf
    "trade-off: %.2f%% average accuracy at %.1fx golden/QWM runtime ratio\n"
    audit.Audit.overall.Audit.avg_accuracy_pct
    audit.Audit.overall.Audit.runtime_ratio;
  Audit.to_json audit

(* ---------- Allocation profile: the workspace-reuse hot path ---------- *)

(* Cold hands the solver a fresh [Qwm_solver.Workspace] every solve; warm
   reuses one across the loop (the production configuration: the stage
   cache reuses a per-domain workspace). Two allocation views per mode:
   the solver's own [qwm.alloc.minor_words] counter isolates the region
   solve loop — the metric the budget gate tracks — while the process
   delta around the loop includes scenario lowering, waveform assembly
   and (in cold mode) the workspace allocation itself. *)
let alloc_table ?(smoke = false) () =
  let model = Lazy.force table_model in
  let solves = if smoke then 200 else 1000 in
  let scenarios =
    if smoke then
      [ ("stack6", Scenario.stack_falling ~widths:(Array.make 6 1.6e-6) tech) ]
    else
      [
        ("nand3", Scenario.nand_falling ~n:3 tech);
        ("stack6", Scenario.stack_falling ~widths:(Array.make 6 1.6e-6) tech);
        ("stack10", Random_circuits.stack_scenario tech ~len:10 ~seed:1);
      ]
  in
  Printf.printf
    "\n=== Allocation profile: words per region solve, cold vs reused workspace ===\n";
  Printf.printf "(%d solves per mode; solver w/reg = qwm.alloc.minor_words per region,\n" solves;
  Printf.printf " process w/solve = whole-loop minor-word delta per solve)\n";
  Printf.printf "%-10s %8s %6s | %14s %14s | %16s %16s\n" "scenario" "mode" "reg/s"
    "solver w/reg" "proc w/solve" "solves/s" "ms/solve";
  let counter name = Option.value (Metrics.find_counter name) ~default:0 in
  let measure name scenario ~mode =
    let shared =
      match mode with `Warm -> Some (Qwm_solver.Workspace.create ()) | `Cold -> None
    in
    let run () =
      let workspace =
        match shared with Some ws -> ws | None -> Qwm_solver.Workspace.create ()
      in
      Qwm.run ~model ~workspace scenario
    in
    ignore (run ());  (* warm-up: tables, branch history, (warm) buffers *)
    Gc.full_major ();
    let solver_w0 = counter "qwm.alloc.minor_words" in
    let a0 = Tqwm_obs.Alloc.sample () in
    let t0 = Unix.gettimeofday () in
    let regions = ref 0 in
    for _ = 1 to solves do
      let r = run () in
      regions := !regions + r.Qwm.stats.Qwm_solver.regions
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let d = Tqwm_obs.Alloc.since a0 in
    let solver_words = counter "qwm.alloc.minor_words" - solver_w0 in
    let solver_wpr = float_of_int solver_words /. float_of_int !regions in
    let proc_wps = d.Tqwm_obs.Alloc.minor_words /. float_of_int solves in
    let solves_per_s = float_of_int solves /. dt in
    Printf.printf "%-10s %8s %6d | %14.0f %14.0f | %16.1f %16.4f\n" name
      (match mode with `Cold -> "cold" | `Warm -> "warm")
      (!regions / solves) solver_wpr proc_wps solves_per_s
      (dt /. float_of_int solves *. 1e3);
    Json.Obj
      [
        ("mode", Json.String (match mode with `Cold -> "cold" | `Warm -> "warm"));
        ("regions_per_solve", Json.Int (!regions / solves));
        ("solver_words_per_region", Json.Float solver_wpr);
        ("process_words_per_solve", Json.Float proc_wps);
        ("solves_per_s", Json.Float solves_per_s);
        ("ms_per_solve", Json.Float (dt /. float_of_int solves *. 1e3));
      ]
  in
  let rows =
    List.map
      (fun (name, scenario) ->
        let cold = measure name scenario ~mode:`Cold in
        let warm = measure name scenario ~mode:`Warm in
        Json.Obj [ ("name", Json.String name); ("cold", cold); ("warm", warm) ])
      scenarios
  in
  (* Arena leg: one sequential propagation over a decoder tree through
     the timing arena, reporting the packed per-level waveform footprint
     and the whole-propagation allocation per stage. *)
  let arena_json =
    let fanout, depth = if smoke then (3, 2) else (4, 3) in
    let graph = Workloads.decoder_tree ~fanout ~depth tech in
    let n = Timing_graph.num_stages graph in
    let levels = Array.length (Timing_graph.levels graph) in
    ignore (Arrival.propagate ~model graph);  (* warm-up *)
    Gc.full_major ();
    let a0 = Tqwm_obs.Alloc.sample () in
    let _, arena = Arrival.propagate_arena ~model graph in
    let d = Tqwm_obs.Alloc.since a0 in
    let packed = ref 0 in
    for id = 0 to Tqwm_sta.Timing_arena.length arena - 1 do
      match Tqwm_sta.Timing_arena.output arena id with
      | Some q -> packed := !packed + Tqwm_wave.Waveform.packed_size q
      | None -> ()
    done;
    let words_per_stage = d.Tqwm_obs.Alloc.minor_words /. float_of_int n in
    Printf.printf
      "arena: decoder-tree %d stages / %d levels, %d packed floats, %.0f minor \
       words/stage\n"
      n levels !packed words_per_stage;
    Json.Obj
      [
        ("workload", Json.String "decoder-tree");
        ("stages", Json.Int n);
        ("levels", Json.Int levels);
        ("packed_floats", Json.Int !packed);
        ("minor_words_per_stage", Json.Float words_per_stage);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "tqwm-bench-alloc/2");
      ("smoke", Json.Bool smoke);
      ("solves_per_mode", Json.Int solves);
      ("storage", Json.String "bigarray-float64");
      ("scenarios", Json.List rows);
      ("arena", arena_json);
    ]

(* ---------- Timing report: k-worst enumeration + seq-vs-parallel identity ---------- *)

module Path_enum = Tqwm_sta.Path_enum
module Sta_report = Tqwm_sta.Report

(* The observability gate: the full tqwm-report/1 document (backward
   required times, WNS/TNS, k worst paths with per-stage attribution)
   must come out byte-identical from a sequential and a 4-domain
   work-stealing run — path enumeration and slack aggregation consume
   only the (deterministic) analysis, so any divergence is a scheduling
   leak into the observability surface. *)
let sta_report ?(smoke = false) () =
  let model = Lazy.force table_model in
  let fanout, depth = if smoke then (3, 2) else (4, 4) in
  let k = if smoke then 5 else 10 in
  let domains = 4 in
  let graph = Workloads.decoder_tree ~fanout ~depth tech in
  let n = Timing_graph.num_stages graph in
  Printf.printf
    "\n=== Timing report: decoder tree (fan-out %d, depth %d, %d stages), %d worst \
     paths, sequential vs %d domains ===\n"
    fanout depth n k domains;
  let document ~domains =
    let cache = Stage_cache.create () in
    let t0 = Unix.gettimeofday () in
    let analysis =
      if domains = 1 then Arrival.propagate ~model ~cache graph
      else Parallel.propagate ~model ~cache ~domains graph
    in
    let clock_period =
      if analysis.Arrival.worst_arrival > 0.0 then analysis.Arrival.worst_arrival
      else 1e-9
    in
    let required = Arrival.required graph analysis ~clock_period in
    let paths = Path_enum.k_worst ~clock_period ~k graph analysis in
    let explained = List.map (Path_enum.explain ~model ~cache graph analysis) paths in
    let doc = Sta_report.timing_to_json graph analysis required explained in
    (Unix.gettimeofday () -. t0, required, paths, doc)
  in
  let t_seq, required, paths, doc_seq = document ~domains:1 in
  let t_par, _, _, doc_par = document ~domains in
  let identical = Json.to_string doc_seq = Json.to_string doc_par in
  Printf.printf "seq    %8.2f ms   par(%d) %8.2f ms   report identical: %s\n"
    (t_seq *. 1e3) domains (t_par *. 1e3)
    (if identical then "yes" else "NO");
  Printf.printf "clock %.2f ps  WNS %.2f ps  TNS %.2f ps  endpoints %d\n"
    (required.Arrival.clock_period *. ps)
    (required.Arrival.wns *. ps)
    (required.Arrival.tns *. ps)
    (Array.length required.Arrival.endpoints);
  List.iteri
    (fun i (p : Path_enum.path) ->
      Printf.printf "path %2d: %d stages, arrival %.2f ps, slack %.2f ps\n" (i + 1)
        (List.length p.Path_enum.stages)
        (p.Path_enum.arrival *. ps) (p.Path_enum.slack *. ps))
    paths;
  assert identical;
  assert (List.length paths = k);
  (* distinct stage sequences, worst first *)
  let sequences = List.map (fun (p : Path_enum.path) -> p.Path_enum.stages) paths in
  assert (List.length (List.sort_uniq compare sequences) = k);
  let rec sorted = function
    | (a : Path_enum.path) :: (b :: _ as rest) ->
      a.Path_enum.slack <= b.Path_enum.slack && sorted rest
    | [ _ ] | [] -> true
  in
  assert (sorted paths);
  Json.Obj
    [
      ("schema", Json.String "tqwm-bench-report/1");
      ("smoke", Json.Bool smoke);
      ( "workload",
        Json.Obj
          [
            ("name", Json.String "decoder-tree");
            ("fanout", Json.Int fanout);
            ("depth", Json.Int depth);
            ("stages", Json.Int n);
          ] );
      ("k", Json.Int k);
      ("domains", Json.Int domains);
      ("seq_ms", Json.Float (t_seq *. 1e3));
      ("par_ms", Json.Float (t_par *. 1e3));
      ("identical", Json.Bool identical);
      ("clock_period_ps", Json.Float (required.Arrival.clock_period *. ps));
      ("wns_ps", Json.Float (required.Arrival.wns *. ps));
      ("tns_ps", Json.Float (required.Arrival.tns *. ps));
      ("endpoints", Json.Int (Array.length required.Arrival.endpoints));
      ( "paths",
        Json.List
          (List.map
             (fun (p : Path_enum.path) ->
               Json.Obj
                 [
                   ("stages", Json.Int (List.length p.Path_enum.stages));
                   ("arrival_ps", Json.Float (p.Path_enum.arrival *. ps));
                   ("slack_ps", Json.Float (p.Path_enum.slack *. ps));
                 ])
             paths) );
    ]

(* ---------- Timing server: concurrent what-if sessions over one daemon ---------- *)

module Server = Tqwm_server.Server
module Server_client = Tqwm_server.Client
module Server_protocol = Tqwm_server.Protocol
module Script = Tqwm_incr.Script

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

(* Sustained request throughput and per-verb latency of the timing daemon:
   [clients] concurrent sessions, each a copy-on-write fork of one shared
   baseline decoder tree, each running [rounds] of edit/report/query/slack
   (plus a periodic timing document), with [workers] serving domains.
   Latencies are measured client-side, so a queued connection's first
   request honestly includes its wait for a worker. *)
let sta_server ?(smoke = false) ?(domains = 2) ?(clients = 4) () =
  let fanout, depth = if smoke then (3, 2) else (4, 3) in
  let rounds = if smoke then 5 else 25 in
  let workers = max 1 domains in
  if clients < 1 then invalid_arg "--clients must be >= 1";
  let graph = Workloads.decoder_tree ~fanout ~depth tech in
  let n_stages = Timing_graph.num_stages graph in
  let cores = Parallel.default_domains () in
  let degraded = cores < workers + clients + 1 in
  Printf.printf
    "\n=== Timing server: %d worker%s, %d concurrent sessions over a shared %d-stage \
     decoder tree, %d edit rounds each ===\n"
    workers
    (if workers = 1 then "" else "s")
    clients n_stages rounds;
  if degraded then
    Printf.printf
      "(machine reports %d available core%s — %d domains total; latencies are \
       oversubscribed)\n"
      cores
      (if cores = 1 then "" else "s")
      (workers + clients + 1);
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tqwm-bench-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let server =
    Server.start ~tech ~graph ~workers ~max_sessions:(clients + 4)
      (Server_protocol.Unix_sock sock)
  in
  let addr = Server.address server in
  let run_client idx =
    let c = Server_client.connect addr in
    let samples = ref [] in
    let timed verb args =
      let t0 = Unix.gettimeofday () in
      let (_ : Json.t) = Server_client.request c verb args in
      samples := (verb, (Unix.gettimeofday () -. t0) *. 1e3) :: !samples
    in
    timed "load" [];
    for round = 1 to rounds do
      (* per-client edit targets and scales so sessions genuinely diverge *)
      let stage = (idx + (3 * round)) mod n_stages in
      let scale = 0.8 +. (0.1 *. float_of_int ((idx + round) mod 8)) in
      timed "edit"
        [ ("line", Json.String (Printf.sprintf "resize %d 0 %.2f" stage scale)) ];
      timed "report" [];
      timed "query" [ ("from", Json.Int 0); ("to", Json.Int (n_stages - 1)) ];
      timed "slack" [ ("clock_period_ps", Json.Float 900.0) ];
      if round mod 5 = 0 then timed "timing" [ ("k", Json.Int 1) ]
    done;
    Server_client.close c;
    !samples
  in
  let t0 = Unix.gettimeofday () in
  let client_domains =
    List.init clients (fun i -> Domain.spawn (fun () -> run_client i))
  in
  let samples = List.concat_map Domain.join client_domains in
  let duration = Unix.gettimeofday () -. t0 in
  (* byte-identity gate: one more session replays a fixed edit script and
     both its documents must equal an in-process offline Script run *)
  let script_text =
    "graph decoder 3 2\nclock 700\nresize 0 0 1.5\nload 4 12e-15\nreport\ntiming 2\n"
  in
  let c = Server_client.connect addr in
  let replayed = Server_client.replay ~k:2 c script_text in
  Server_client.close c;
  let offline =
    let buf = Buffer.create 256 in
    Script.run ~tech
      ~model:(Lazy.force table_model)
      ~out:(Format.formatter_of_buffer buf) script_text
  in
  let identical =
    Json.to_string replayed.Server_client.document
    = Json.to_string offline.Script.json
    &&
    match replayed.Server_client.timing with
    | Some t ->
      Json.to_string t
      = Json.to_string
          (Script.timing_json ?clock_period:offline.Script.clock_period ~k:2
             offline.Script.session)
    | None -> false
  in
  Server.stop server;
  let requests = List.length samples + 2 (* identity session: load + close *) in
  let qps = float_of_int requests /. duration in
  let verb_rows =
    List.filter_map
      (fun verb ->
        let lat =
          List.filter_map (fun (v, ms) -> if v = verb then Some ms else None) samples
          |> Array.of_list
        in
        if Array.length lat = 0 then None
        else begin
          Array.sort compare lat;
          Some (verb, lat)
        end)
      [ "load"; "edit"; "report"; "query"; "slack"; "timing" ]
  in
  Printf.printf "%-8s %7s %10s %10s\n" "verb" "count" "p50" "p99";
  List.iter
    (fun (verb, lat) ->
      Printf.printf "%-8s %7d %8.2fms %8.2fms\n" verb (Array.length lat)
        (percentile lat 0.5) (percentile lat 0.99))
    verb_rows;
  Printf.printf
    "sustained %.0f requests/s over %.2f s (%d requests, %d sessions); replayed \
     documents identical to offline: %s\n"
    qps duration requests (clients + 1)
    (if identical then "yes" else "NO");
  assert identical;
  Json.Obj
    [
      ("schema", Json.String "tqwm-bench-server/1");
      ("smoke", Json.Bool smoke);
      ("workers", Json.Int workers);
      ("clients", Json.Int clients);
      ("sessions", Json.Int (clients + 1));
      ("rounds", Json.Int rounds);
      ("requests", Json.Int requests);
      ("duration_s", Json.Float duration);
      ("qps", Json.Float qps);
      ("available_cores", Json.Int cores);
      ("degraded", Json.Bool degraded);
      ( "graph",
        Json.Obj
          [
            ("name", Json.String "decoder-tree");
            ("fanout", Json.Int fanout);
            ("depth", Json.Int depth);
            ("stages", Json.Int n_stages);
          ] );
      ( "verbs",
        Json.Obj
          (List.map
             (fun (verb, lat) ->
               ( verb,
                 Json.Obj
                   [
                     ("count", Json.Int (Array.length lat));
                     ("p50_ms", Json.Float (percentile lat 0.5));
                     ("p99_ms", Json.Float (percentile lat 0.99));
                   ] ))
             verb_rows) );
      ("identical", Json.Bool identical);
    ]

module Trace = Tqwm_obs.Trace

(* Telemetry overhead of the serving stack: the same multi-client
   edit/report/slack workload run twice against fresh daemons — once
   with every observability feature off (the deployment default) and
   once with request-scoped tracing plus the JSONL access log on — and
   the throughput delta reported. The "off" pass is the one the < 3%
   regression gate in ISSUE 9 watches via the tqwm-bench-obs/1 ledger. *)
let sta_obs ?(smoke = false) ?(domains = 2) ?(clients = 2) () =
  let fanout, depth = if smoke then (3, 2) else (4, 3) in
  let rounds = if smoke then 5 else 25 in
  let workers = max 1 domains in
  if clients < 1 then invalid_arg "--clients must be >= 1";
  let graph = Workloads.decoder_tree ~fanout ~depth tech in
  let n_stages = Timing_graph.num_stages graph in
  Printf.printf
    "\n=== Telemetry overhead: %d worker%s, %d session%s, %d rounds each — serve \
     with tracing+access-log on vs off ===\n"
    workers
    (if workers = 1 then "" else "s")
    clients
    (if clients = 1 then "" else "s")
    rounds;
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
  let passes = if smoke then 1 else 3 in
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
  if log_lines < on_requests then
    failwith
      (Printf.sprintf "bench obs: %d access-log lines for %d requests" log_lines
         on_requests);
  Json.Obj
    [
      ("schema", Json.String "tqwm-bench-obs/1");
      ("smoke", Json.Bool smoke);
      ("workers", Json.Int workers);
      ("clients", Json.Int clients);
      ("rounds", Json.Int rounds);
      ( "off",
        Json.Obj
          [
            ("requests", Json.Int off_requests);
            ("duration_s", Json.Float off_duration);
            ("qps", Json.Float off_qps);
          ] );
      ( "on",
        Json.Obj
          [
            ("requests", Json.Int on_requests);
            ("duration_s", Json.Float on_duration);
            ("qps", Json.Float on_qps);
            ("trace_events", Json.Int trace_events);
            ("log_lines", Json.Int log_lines);
          ] );
      ("overhead_pct", Json.Float overhead_pct);
    ]

let smoke () =
  (* bounded CI smoke: one cheap accuracy row + the small parallel experiment *)
  let scenario = Scenario.nand_falling ~n:2 tech in
  let reference = (run_spice ~dt:10e-12 scenario).Engine.delay in
  let qwm_delay = (run_qwm scenario).Qwm.delay in
  (match (reference, qwm_delay) with
  | Some a, Some b ->
    Printf.printf "smoke: nand2 delay qwm %.2f ps vs spice(10ps) %.2f ps (%.2f%% apart)\n"
      (b *. ps) (a *. ps)
      (100.0 *. Float.abs (b -. a) /. a)
  | (Some _ | None), _ -> failwith "smoke: missing delay");
  sta_parallel ~smoke:true ()

(* Append the JSON document produced by a machine-readable experiment to
   the trajectory file named by [--json FILE] — one date- and
   commit-stamped record per invocation (see Tqwm_obs.Ledger), so
   repeated runs accumulate instead of overwriting and every point is
   attributable to the revision that produced it. *)
let write_json json_path doc =
  match json_path with
  | None -> ()
  | Some path ->
    (match doc with
    | Some doc ->
      let n = Tqwm_obs.Ledger.append ~path doc in
      Printf.printf "bench: appended JSON results to %s (%d run record%s)\n" path n
        (if n = 1 then "" else "s")
    | None ->
      Printf.eprintf
        "bench: --json is only produced by --table parallel, --table server, \
         --table obs, --table incr, --table audit, --table alloc, --table \
         report and --smoke; ignoring\n")

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
  ignore (sta_parallel ());
  ignore (sta_incr ());
  ignore (sta_audit ());
  bechamel ()

let () =
  (* peel "--json FILE" off anywhere in the command line before dispatch *)
  let rec strip_json = function
    | "--json" :: path :: rest ->
      let json, rest = strip_json rest in
      (Some (Option.value json ~default:path), rest)
    | arg :: rest ->
      let json, rest = strip_json rest in
      (json, arg :: rest)
    | [] -> (None, [])
  in
  (* peel "--NAME VALUE" off anywhere in the command line *)
  let strip_opt name argv =
    let rec go = function
      | arg :: value :: rest when arg = name ->
        let found, rest = go rest in
        (Some (Option.value found ~default:value), rest)
      | arg :: rest ->
        let found, rest = go rest in
        (found, arg :: rest)
      | [] -> (None, [])
    in
    go argv
  in
  let int_opt name v =
    Option.map
      (fun s ->
        match int_of_string_opt s with
        | Some v when v >= 1 -> v
        | Some _ | None ->
          Printf.eprintf "bench: %s expects an integer >= 1, got %S\n" name s;
          exit 1)
      v
  in
  let json_path, argv = strip_json (Array.to_list Sys.argv) in
  let domains_arg, argv = strip_opt "--domains" argv in
  let clients_arg, argv = strip_opt "--clients" argv in
  let domains = int_opt "--domains" domains_arg in
  let clients = int_opt "--clients" clients_arg in
  let doc =
    match argv with
    | _ :: "--table" :: "I" :: _ -> table1 (); None
    | _ :: "--table" :: "II" :: _ -> table2 (); None
    | _ :: "--table" :: "parallel" :: rest ->
      Some (sta_parallel ~smoke:(List.mem "--smoke" rest) ?domains ())
    | _ :: "--table" :: "server" :: rest ->
      Some (sta_server ~smoke:(List.mem "--smoke" rest) ?domains ?clients ())
    | _ :: "--table" :: "obs" :: rest ->
      Some (sta_obs ~smoke:(List.mem "--smoke" rest) ?domains ?clients ())
    | _ :: "--table" :: "incr" :: rest -> Some (sta_incr ~smoke:(List.mem "--smoke" rest) ())
    | _ :: "--table" :: "audit" :: rest -> Some (sta_audit ~smoke:(List.mem "--smoke" rest) ())
    | _ :: "--table" :: "alloc" :: rest -> Some (alloc_table ~smoke:(List.mem "--smoke" rest) ())
    | _ :: "--table" :: "report" :: rest -> Some (sta_report ~smoke:(List.mem "--smoke" rest) ())
    | _ :: "--smoke" :: _ -> Some (smoke ())
    | _ :: "--table" :: "ablation-linsolve" :: _ -> ablation_linsolve (); None
    | _ :: "--table" :: "ablation-sc" :: _ -> ablation_sc (); None
    | _ :: "--table" :: "ablation-grid" :: _ -> ablation_grid (); None
    | _ :: "--table" :: "ablation-waveform" :: _ -> ablation_waveform (); None
    | _ :: "--figure" :: "5" :: _ -> figure5 (); None
    | _ :: "--figure" :: "7" :: _ -> figure7 (); None
    | _ :: "--figure" :: "8" :: _ -> figure8 (); None
    | _ :: "--figure" :: "9" :: _ -> figure9 (); None
    | _ :: "--figure" :: "10" :: _ -> figure10 (); None
    | _ :: "--bechamel" :: _ -> bechamel (); None
    | [ _ ] -> all (); None
    | _ :: _ :: _ | [] ->
      prerr_endline
        "usage: main.exe [--table I|II|parallel|server|obs|incr|audit|alloc|report|ablation-linsolve|ablation-sc|ablation-grid] \
         [--figure 5|7|8|9|10] [--bechamel] [--smoke] [--json FILE] [--domains N] \
         [--clients C]";
      exit 1
  in
  write_json json_path doc
