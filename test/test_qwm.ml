(* Tests for the QWM core: accuracy against the SPICE reference on the
   paper's workloads, critical-point structure, the three linear-solver
   paths, pi-model wire collapsing, ramp inputs and failure handling. *)

open Tqwm_device
open Tqwm_circuit
module Qwm = Tqwm_core.Qwm
module Qwm_solver = Tqwm_core.Qwm_solver
module Config = Tqwm_core.Config
module Engine = Tqwm_spice.Engine
module Waveform = Tqwm_wave.Waveform
module Json = Tqwm_obs.Json
module Metrics = Tqwm_obs.Metrics
module Trace = Tqwm_obs.Trace

let tech = Tech.cmosp35

let golden = Models.golden tech

let table = lazy (Models.table tech)

let spice_delay scenario =
  match (Engine.run ~model:golden scenario).Engine.delay with
  | Some d -> d
  | None -> Alcotest.fail "spice delay missing"

let qwm_report ?config scenario = Qwm.run ~model:(Lazy.force table) ?config scenario

let qwm_delay ?config scenario =
  match (qwm_report ?config scenario).Qwm.delay with
  | Some d -> d
  | None -> Alcotest.fail "qwm delay missing"

let check_error_below msg limit scenario =
  let reference = spice_delay scenario in
  let d = qwm_delay scenario in
  let err = 100.0 *. Float.abs (d -. reference) /. reference in
  if err > limit then
    Alcotest.failf "%s: delay error %.2f%% exceeds %.1f%% (spice %.2fps, qwm %.2fps)" msg
      err limit (reference *. 1e12) (d *. 1e12)

(* ---------- accuracy on the paper's workloads ---------- *)

let test_gate_accuracy () =
  check_error_below "inv" 3.0 (Scenario.inverter_falling tech);
  check_error_below "nand2" 4.0 (Scenario.nand_falling ~n:2 tech);
  check_error_below "nand3" 4.0 (Scenario.nand_falling ~n:3 tech);
  check_error_below "nand4" 4.0 (Scenario.nand_falling ~n:4 tech)

let test_nor_pull_up_accuracy () =
  check_error_below "nor2" 4.0 (Scenario.nor_rising ~n:2 tech);
  check_error_below "nor3" 4.0 (Scenario.nor_rising ~n:3 tech)

let test_stack_accuracy () =
  check_error_below "stack6" 3.0
    (Scenario.stack_falling ~widths:(Array.make 6 1.6e-6) tech);
  check_error_below "manchester5" 3.0 (Scenario.manchester ~bits:5 tech)

let test_random_stack_accuracy () =
  List.iter
    (fun (len, seed) ->
      check_error_below
        (Printf.sprintf "ckt%d_%d" len seed)
        4.0
        (Random_circuits.stack_scenario tech ~len ~seed))
    [ (5, 1); (7, 2); (10, 3) ]

let test_decoder_accuracy () =
  check_error_below "decoder2" 5.0 (Scenario.decoder ~levels:2 tech)

let test_complex_gate_accuracy () =
  (* OAI21's conducting side branch is tiny: tight bound. AOI21 slaves a
     larger branch through an on PMOS; full-slaving is documented as
     conservative, so allow more error but require the pessimistic sign. *)
  check_error_below "oai21" 5.0 (Scenario.oai21_rising tech);
  let scenario = Scenario.aoi21_falling tech in
  let reference = spice_delay scenario in
  let d = qwm_delay scenario in
  let err = 100.0 *. Float.abs (d -. reference) /. reference in
  if err > 15.0 then Alcotest.failf "aoi21 error %.2f%% exceeds 15%%" err;
  if d < reference then
    Alcotest.failf "aoi21 expected pessimistic (qwm %.2fps < spice %.2fps)" (d *. 1e12)
      (reference *. 1e12)

let test_fig1_nand_pass_accuracy () =
  (* the paper's Example 1 stage: NAND + pass transistor + wire *)
  let scenario = Scenario.nand_pass_falling ~n:3 tech in
  check_error_below "nandpass3" 5.0 scenario;
  (* the pass transistor must contribute a genuine mid-transient critical
     point: not all turn-ons can fire at t = 0 *)
  let qw = qwm_report scenario in
  Alcotest.(check bool) "pass-gate turn-on is mid-transient" true
    (List.exists (fun t -> t > 1e-12) qw.Qwm.critical_times)

let test_node_delays_monotone_along_chain () =
  (* Manchester carry arrivals must increase with bit position — all read
     from a single QWM solve *)
  let qw = qwm_report (Scenario.manchester ~bits:5 tech) in
  let delays =
    List.filter_map
      (fun i -> Qwm.node_delay qw (Printf.sprintf "c%d" i))
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check int) "all carries cross" 5 (List.length delays);
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "carry arrivals ascend" true (ascending delays);
  (match Qwm.node_delay qw "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found")

let test_node_current_matches_spice_peak () =
  (* QWM's piecewise-linear node current (paper Eq. (2)) should show the
     same initial peak as the reference engine's bottom-edge current *)
  let scenario = Scenario.stack_falling ~widths:(Array.make 4 1.6e-6) tech in
  let qw = qwm_report scenario in
  let i_qwm = Qwm.node_current qw "x1" ~dt:1e-12 in
  let lo_q, _ = Tqwm_wave.Measure.swing i_qwm in
  let config =
    { Tqwm_spice.Transient.default_config with Tqwm_spice.Transient.record_currents = true }
  in
  let sp = Tqwm_spice.Transient.simulate ~model:golden ~config scenario in
  (* node x1's discharge current = J2 - J1 *)
  let j k t =
    Waveform.value_at (Tqwm_spice.Transient.edge_current_waveform sp k) t
  in
  let spice_peak = ref 0.0 in
  for i = 0 to 200 do
    let t = float_of_int i *. 1e-12 in
    spice_peak := Float.min !spice_peak (j 1 t -. j 0 t)
  done;
  (* both are large negative discharge currents of the same magnitude *)
  if Float.abs (lo_q -. !spice_peak) > 0.35 *. Float.abs !spice_peak then
    Alcotest.failf "peak current mismatch: qwm %.3g vs spice %.3g" lo_q !spice_peak

let test_waveform_rms () =
  let scenario = Scenario.stack_falling ~widths:(Array.make 6 1.6e-6) tech in
  let sp = Engine.run ~model:golden scenario in
  let qw = qwm_report scenario in
  let report =
    Tqwm_wave.Compare.waveforms ~reference:sp.Engine.output
      (Qwm.output_waveform qw ~dt:1e-12)
  in
  if report.Tqwm_wave.Compare.rms_percent_of_swing > 4.0 then
    Alcotest.failf "waveform RMS %.2f%% of swing exceeds 4%%"
      report.Tqwm_wave.Compare.rms_percent_of_swing

(* ---------- critical-point structure ---------- *)

let test_critical_points_count_and_order () =
  let k = 6 in
  let qw = qwm_report (Scenario.stack_falling ~widths:(Array.make k 1.6e-6) tech) in
  let crits = qw.Qwm.critical_times in
  Alcotest.(check int) "one turn-on per transistor" k (List.length crits);
  let rec ascending = function
    | a :: (b :: _ as rest) -> a <= b && ascending rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "ascending" true (ascending crits);
  Alcotest.(check int) "stats agree" k qw.Qwm.stats.Qwm_solver.turn_ons

let test_critical_points_spread_for_precharged_stack () =
  (* the Fig. 7 cascade: consecutive turn-ons are separated in time *)
  let qw = qwm_report (Scenario.manchester ~bits:5 tech) in
  match qw.Qwm.critical_times with
  | first :: rest ->
    Alcotest.(check (float 1e-15)) "first fires at t=0" 0.0 first;
    Alcotest.(check bool) "later turn-ons are strictly positive" true
      (List.for_all (fun t -> t > 0.0) rest)
  | [] -> Alcotest.fail "critical points expected"

let test_turn_on_matches_spice_cascade () =
  (* QWM's predicted turn-on of M2 = instant node x1 crosses VDD - Vth;
     compare against the SPICE trace of x1 *)
  let scenario = Scenario.stack_falling ~widths:(Array.make 4 1.6e-6) tech in
  let qw = qwm_report scenario in
  let t_qwm = List.nth qw.Qwm.critical_times 1 in
  let sp = Engine.run ~model:golden scenario in
  let x1 = Builders.find_node scenario.Scenario.stage "x1" in
  let w = Tqwm_spice.Transient.node_waveform sp.Engine.result x1 in
  let vp = Scenario.precharge_voltage tech in
  match Waveform.first_crossing w ~level:vp ~direction:`Falling with
  | Some t_sp ->
    if Float.abs (t_qwm -. t_sp) > 0.3 *. t_sp +. 1e-12 then
      Alcotest.failf "turn-on mismatch: qwm %.2fps vs spice %.2fps" (t_qwm *. 1e12)
        (t_sp *. 1e12)
  | None -> Alcotest.fail "spice crossing missing"

(* ---------- linear-solver paths ---------- *)

let test_linear_solvers_identical () =
  let scenario = Random_circuits.stack_scenario tech ~len:8 ~seed:2 in
  let delay solver =
    qwm_delay ~config:{ Config.default with Config.linear_solver = solver } scenario
  in
  let d_b = delay Config.Bordered in
  let d_s = delay Config.Sherman_morrison in
  let d_l = delay Config.Dense_lu in
  Alcotest.(check (float 1e-15)) "bordered = sherman" d_b d_s;
  Alcotest.(check (float 1e-15)) "bordered = dense" d_b d_l

(* Within each linear-solver mode, results must be bit-identical whatever
   scratch workspace the solve uses: the domain default, a freshly created
   one, or one reused after being dirtied by a longer chain (stale slots
   and over-capacity buffers must never leak into results). Across modes
   only tolerance equality holds — the three solvers order floating-point
   operations differently — hence the [float 1e-15] checks above rather
   than bit comparison. *)
let test_workspace_reuse_bit_identical () =
  let model = Lazy.force table in
  let piece_bits (p : Waveform.piece) =
    List.map Int64.bits_of_float
      [ p.Waveform.t0; p.Waveform.dt; p.Waveform.v0; p.Waveform.dv; p.Waveform.ddv ]
  in
  let fingerprint (r : Qwm.report) =
    ( List.map
        (fun (name, q) ->
          (name, List.concat_map piece_bits (Waveform.quadratic_pieces q)))
        r.Qwm.node_quadratics,
      List.map Int64.bits_of_float r.Qwm.critical_times,
      Option.map Int64.bits_of_float r.Qwm.delay )
  in
  let scenario = Random_circuits.stack_scenario tech ~len:8 ~seed:5 in
  let dirty = Random_circuits.stack_scenario tech ~len:10 ~seed:9 in
  List.iter
    (fun solver ->
      let config = { Config.default with Config.linear_solver = solver } in
      let run ?workspace () = fingerprint (Qwm.run ~model ~config ?workspace scenario) in
      let reference = run () in
      (* capacity 2 forces the grow-on-demand path on an 8-node chain *)
      let ws = Qwm_solver.Workspace.create ~capacity:2 () in
      Alcotest.(check bool) "fresh workspace bit-identical" true (run ~workspace:ws () = reference);
      ignore (Qwm.run ~model ~config ~workspace:ws dirty);
      Alcotest.(check bool) "dirtied workspace bit-identical" true
        (run ~workspace:ws () = reference))
    [ Config.Bordered; Config.Sherman_morrison; Config.Dense_lu ]

(* ---------- bit identity ---------- *)

(* A digest of everything a solve computes: the [%h] text of each delay,
   slew, critical time and node-quadratic coefficient, and the regions,
   Newton iterations, residuals and bisections it took. A change that
   only makes the solver faster must leave every digest below as it is. *)
let solver_digest ?config scenarios =
  let b = Buffer.create 65536 in
  let float x = Printf.bprintf b "%h;" x in
  let option = function Some x -> float x | None -> Buffer.add_string b "none;" in
  List.iter
    (fun scenario ->
      let r = qwm_report ?config scenario in
      Printf.bprintf b "%s:" scenario.Scenario.name;
      option r.Qwm.delay;
      option r.Qwm.slew;
      List.iter float r.Qwm.critical_times;
      List.iter
        (fun (name, q) ->
          Buffer.add_string b name;
          List.iter
            (fun (p : Waveform.piece) ->
              List.iter float
                [ p.Waveform.t0; p.Waveform.dt; p.Waveform.v0; p.Waveform.dv; p.Waveform.ddv ])
            (Waveform.quadratic_pieces q))
        r.Qwm.node_quadratics;
      let s = r.Qwm.stats in
      Printf.bprintf b "%d;%d;%d;%d\n" s.Qwm_solver.regions s.Qwm_solver.newton_iterations
        s.Qwm_solver.residuals s.Qwm_solver.bisections)
    scenarios;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The audit catalog's 14 stages, the random stacks, and the paths the
   catalog does not reach: pull-up chains, ramp inputs (a moving gate
   during a region), the linear waveform model and the two other
   linear solvers. *)
let test_solver_digest () =
  (* 36 Table II stacks, six per length 5..10, from a fixed seed *)
  let stacks =
    let rng = Random.State.make [| 29; 0xd16e |] in
    List.concat_map
      (fun len ->
        List.init 6 (fun _ ->
            Random_circuits.stack_scenario tech ~len ~seed:(Random.State.bits rng)))
      [ 5; 6; 7; 8; 9; 10 ]
  in
  let with_solver linear_solver = { Config.default with Config.linear_solver } in
  let ramp rise_time scenario = Scenario.with_ramp_input ~rise_time scenario in
  let variants =
    [
      Scenario.nor_rising ~n:2 tech;
      Scenario.nor_rising ~n:3 tech;
      Scenario.aoi21_falling tech;
      Scenario.oai21_rising tech;
      ramp 60e-12 (Scenario.nand_falling ~n:3 tech);
      ramp 200e-12 (Scenario.stack_falling ~widths:(Array.make 3 1.6e-6) tech);
      ramp 80e-12 (Scenario.decoder ~levels:2 tech);
    ]
  in
  let stack8 = [ Random_circuits.stack_scenario tech ~len:8 ~seed:2 ] in
  List.iter
    (fun (what, expected, digest) ->
      Alcotest.(check string) (what ^ " digest") expected (Lazy.force digest))
    [
      ( "audit catalog",
        "ec5de1fd2d3cb908ee8c70c06cfc2b2d",
        lazy (solver_digest (List.concat_map snd (Tqwm_audit.Audit.catalog tech))) );
      ("random stacks", "fdaf53171a2dfb74a5a22fd60a0f0042", lazy (solver_digest stacks));
      ( "pull-up, complex and ramp stages",
        "484b3379c8449966bc265104ec191858",
        lazy (solver_digest variants) );
      ( "linear waveform model",
        "39afcb2b92ebf495ffe334a4bd74ddbf",
        lazy
          (solver_digest
             ~config:{ Config.default with Config.waveform_model = Config.Linear }
             (Scenario.nand_falling ~n:3 tech :: stack8)) );
      ( "Sherman-Morrison solver",
        "21deea6bb98dc0671e68eabbd0e933ab",
        lazy (solver_digest ~config:(with_solver Config.Sherman_morrison) stack8) );
      ( "dense LU solver",
        "9b8da0e900fc1613ff80f61a0cf04f4e",
        lazy (solver_digest ~config:(with_solver Config.Dense_lu) stack8) );
    ]

(* the committed ceilings, shape-checked before any test reads one *)
let alloc_budget =
  lazy
    (let doc =
       Json.of_string (In_channel.with_open_bin "../ALLOC_budget.json" In_channel.input_all)
     in
     Schema.alloc_budget "ALLOC_budget.json" doc;
     doc)

(* A number in ALLOC_budget.json under the [path] of members. *)
let budget_number path =
  let member doc key = Option.bind doc (Json.member key) in
  match List.fold_left member (Some (Lazy.force alloc_budget)) path with
  | Some (Json.Int x) -> float_of_int x
  | Some (Json.Float x) -> x
  | Some _ | None -> Alcotest.failf "ALLOC_budget.json has no %s" (String.concat "." path)

(* The region loop's allocation, as the solver's own
   [qwm.alloc.minor_words] counter sees it, must stay within the
   committed ALLOC_budget.json ceiling on stack6, both with a fresh
   workspace per solve (cold) and with one reused across solves (warm,
   the stage cache's configuration). A boxed float accessor, a tuple
   chain or a per-iteration buffer in the loop shows up here. *)
let test_alloc_budget () =
  let budget = budget_number [ "solver_words_per_region"; "stack6" ] in
  let model = Lazy.force table in
  let scenario = Scenario.stack_falling ~widths:(Array.make 6 1.6e-6) tech in
  let words () = Option.value (Metrics.find_counter "qwm.alloc.minor_words") ~default:0 in
  let words_per_region workspace =
    let run () = Qwm.run ~model ~workspace:(workspace ()) scenario in
    (* the first solve grows a reused workspace to the chain's size *)
    ignore (run ());
    let w0 = words () and regions = ref 0 in
    for _ = 1 to 200 do
      regions := !regions + (run ()).Qwm.stats.Qwm_solver.regions
    done;
    float_of_int (words () - w0) /. float_of_int !regions
  in
  let shared = Qwm_solver.Workspace.create () in
  List.iter
    (fun (mode, workspace) ->
      let wpr = words_per_region workspace in
      if wpr > budget then
        Alcotest.failf "stack6 (%s): %.1f words per region exceeds the budget of %g"
          mode wpr budget)
    [ ("cold", fun () -> Qwm_solver.Workspace.create ()); ("warm", fun () -> shared) ]

let device_calls (s : Qwm_solver.stats) =
  s.Qwm_solver.device_calls_residual + s.Qwm_solver.device_calls_jacobian
  + s.Qwm_solver.device_calls_estimator + s.Qwm_solver.device_calls_other

(* The solver's deterministic work per region — Newton iterations and
   device-model calls — must stay within the committed ceilings of
   ALLOC_budget.json's [solver_work_per_region]. A start that wastes
   attempts, a line search that keeps iterating after it stalled, an
   estimator that crawls, or a Jacobian or estimator step that queries
   the table again where its residual's one call per edge already did,
   shows up here on any host, however noisy its clock. *)
let test_work_budget () =
  List.iter
    (fun (name, scenario) ->
      let stats = (qwm_report scenario).Qwm.stats in
      let per_region x = float_of_int x /. float_of_int stats.Qwm_solver.regions in
      List.iter
        (fun (what, value) ->
          let ceiling = budget_number [ "solver_work_per_region"; name; what ] in
          if value > ceiling then
            Alcotest.failf "%s: %.2f %s per region exceeds the budget of %g" name value what
              ceiling)
        [
          ("newton_iterations", per_region stats.Qwm_solver.newton_iterations);
          ("device_calls", per_region (device_calls stats));
        ])
    [
      ("stack6", Scenario.stack_falling ~widths:(Array.make 6 1.6e-6) tech);
      ("decoder3", Scenario.decoder ~levels:3 tech);
    ]

(* Cheaper region starts must not buy their savings with more regions,
   more bisections or more fixed-length fallbacks: each stays at or below
   its value before the region starts were reworked. *)
let test_escalation_counts_pinned () =
  List.iter
    (fun (scenario, regions, bisections, fallbacks) ->
      let stats = (qwm_report scenario).Qwm.stats in
      List.iter
        (fun (what, value, limit) ->
          if value > limit then
            Alcotest.failf "%s: %d %s, more than the %d before" scenario.Scenario.name value
              what limit)
        [
          ("regions", stats.Qwm_solver.regions, regions);
          ("bisections", stats.Qwm_solver.bisections, bisections);
          ("fixed-length fallbacks", stats.Qwm_solver.failures, fallbacks);
        ])
    [
      (Scenario.inverter_falling tech, 9, 0, 0);
      (Scenario.nand_falling ~n:2 tech, 10, 1, 0);
      (Scenario.nand_falling ~n:3 tech, 12, 3, 0);
      (Scenario.nand_falling ~n:4 tech, 14, 5, 0);
      (Scenario.manchester ~bits:5 tech, 14, 0, 0);
      (Scenario.decoder ~levels:3 tech, 70, 58, 2);
    ]

(* ---------- solver counters ---------- *)

(* [model] with every closure the solver calls counted, as the
   benchmark's layer profile counts them. *)
let counting (model : Device_model.t) =
  let calls = ref 0 in
  let counted =
    {
      model with
      Device_model.iv =
        (fun d tv ->
          incr calls;
          model.Device_model.iv d tv);
      iv_derivatives_into =
        (fun d tv out ->
          incr calls;
          model.Device_model.iv_derivatives_into d tv out);
      threshold =
        (fun d tv ->
          incr calls;
          model.Device_model.threshold d tv);
    }
  in
  (counted, calls)

(* The four device-call phases partition exactly the calls a counting
   model sees, and tracing a solve changes none of its counts. The ramp
   input moves a gate during the regions, which the Jacobian's explicit
   time derivative queries. *)
let test_phases_partition_device_calls () =
  List.iter
    (fun scenario ->
      let run ~traced =
        let model, calls = counting (Lazy.force table) in
        if traced then Trace.enable ();
        let report =
          Fun.protect
            ~finally:(fun () -> if traced then Trace.disable ())
            (fun () -> Qwm.run ~model scenario)
        in
        (report.Qwm.stats, !calls)
      in
      let untraced, calls = run ~traced:false in
      let traced, traced_calls = run ~traced:true in
      let name = scenario.Scenario.name in
      Alcotest.(check int)
        (name ^ ": phases sum to the counted calls")
        calls (device_calls untraced);
      Alcotest.(check int) (name ^ ": traced phases sum to the counted calls") traced_calls
        (device_calls traced);
      Alcotest.(check bool) (name ^ ": tracing changes no count") true (traced = untraced))
    [
      Scenario.inverter_falling tech;
      Scenario.nand_falling ~n:2 tech;
      Scenario.nand_falling ~n:3 tech;
      Scenario.nand_falling ~n:4 tech;
      Scenario.decoder ~levels:3 tech;
      Scenario.with_ramp_input ~rise_time:60e-12 (Scenario.nand_falling ~n:3 tech);
    ]

(* The estimator reaches every target of the pi-wire decoders, whose
   stiff near-wire node made an explicit scan oscillate until its step
   cap, and it does so in a few steps. *)
let test_estimator_reaches_targets () =
  List.iter
    (fun scenario ->
      let stats = (qwm_report scenario).Qwm.stats in
      let name = scenario.Scenario.name in
      let runs = stats.Qwm_solver.estimator_runs in
      Alcotest.(check bool) (name ^ ": estimator runs") true (runs > 0);
      Alcotest.(check int)
        (name ^ ": estimator misses")
        0 stats.Qwm_solver.estimator_misses;
      let steps = float_of_int stats.Qwm_solver.estimator_steps /. float_of_int runs in
      if steps > 10.0 then
        Alcotest.failf "%s: %.1f estimator steps per run, over 10" name steps)
    [ Scenario.decoder ~levels:2 tech; Scenario.decoder ~levels:3 tech ]

(* [qwm.newton_per_region] observes each committed region once, with
   every Newton iteration spent on it: over a bisecting solve its count
   moves with [qwm.regions] and its sum with [qwm.newton_iterations]. *)
let test_newton_histogram_per_region () =
  let histogram () =
    match List.assoc_opt "qwm.newton_per_region" (Metrics.export ()) with
    | Some (Metrics.Histogram_value { counts; sum; _ }) ->
      (Array.fold_left ( + ) 0 counts, sum)
    | Some _ | None -> Alcotest.fail "qwm.newton_per_region not registered"
  in
  let counter name = Option.value (Metrics.find_counter name) ~default:0 in
  let scenario = Scenario.decoder ~levels:3 tech in
  let n0, sum0 = histogram () in
  let regions0 = counter "qwm.regions" and newton0 = counter "qwm.newton_iterations" in
  let stats = (qwm_report scenario).Qwm.stats in
  let n1, sum1 = histogram () in
  Alcotest.(check bool) "the solve bisects" true (stats.Qwm_solver.bisections > 0);
  Alcotest.(check int)
    "one observation per region"
    (counter "qwm.regions" - regions0)
    (n1 - n0);
  Alcotest.(check (float 0.0))
    "observations sum to the Newton iterations"
    (float_of_int (counter "qwm.newton_iterations" - newton0))
    (sum1 -. sum0)

(* ---------- waveform models ---------- *)

let test_linear_waveform_model_converges () =
  let config = { Config.default with Config.waveform_model = Config.Linear } in
  List.iter
    (fun scenario ->
      let reference = spice_delay scenario in
      let d = qwm_delay ~config scenario in
      let err = 100.0 *. Float.abs (d -. reference) /. reference in
      if err > 6.0 then
        Alcotest.failf "%s: linear-model error %.2f%% exceeds 6%%" scenario.Scenario.name
          err)
    [
      Scenario.inverter_falling tech;
      Scenario.nand_falling ~n:3 tech;
      Scenario.stack_falling ~widths:(Array.make 5 1.6e-6) tech;
    ]

let test_quadratic_beats_linear_on_sparse_ladder () =
  (* with few matching points the quadratic pieces must carry the shape *)
  let sparse = [ 0.5; 0.15 ] in
  let scenario = Scenario.nand_falling ~n:3 tech in
  let reference = spice_delay scenario in
  let err waveform_model =
    let config = { Config.default with Config.waveform_model; levels = sparse } in
    100.0 *. Float.abs (qwm_delay ~config scenario -. reference) /. reference
  in
  let e_quad = err Config.Quadratic and e_lin = err Config.Linear in
  if e_quad >= e_lin then
    Alcotest.failf "expected quadratic (%.2f%%) to beat linear (%.2f%%)" e_quad e_lin

let test_linear_pieces_are_linear () =
  let config = { Config.default with Config.waveform_model = Config.Linear } in
  let qw = qwm_report ~config (Scenario.nand_falling ~n:2 tech) in
  List.iter
    (fun (_, q) ->
      List.iter
        (fun (piece : Waveform.piece) ->
          Alcotest.(check (float 0.0)) "no curvature" 0.0 piece.Waveform.ddv)
        (Waveform.quadratic_pieces q))
    qw.Qwm.node_quadratics

(* ---------- pi-model collapsing ---------- *)

let test_collapse_reduces_chain () =
  let scenario = Scenario.decoder ~levels:3 tech in
  let model = Lazy.force table in
  let full =
    Qwm.lower_scenario ~model
      ~config:{ Config.default with Config.reduce_wires = false }
      scenario
  in
  let reduced = Qwm.lower_scenario ~model ~config:Config.default scenario in
  Alcotest.(check bool) "fewer chain edges" true
    (Chain.length reduced.Path.chain < Chain.length full.Path.chain);
  (* every wire run becomes exactly one resistor edge: 3 levels -> 4+3 edges *)
  Alcotest.(check int) "pi per level" 7 (Chain.length reduced.Path.chain)

let test_collapse_conserves_capacitance () =
  let scenario = Scenario.decoder ~levels:2 tech in
  let model = Lazy.force table in
  let full =
    Qwm.lower_scenario ~model
      ~config:{ Config.default with Config.reduce_wires = false }
      scenario
  in
  let reduced = Qwm.lower_scenario ~model ~config:Config.default scenario in
  let total chain = Array.fold_left ( +. ) 0.0 chain.Chain.caps in
  let before = total full.Path.chain and after = total reduced.Path.chain in
  if Float.abs (before -. after) > 1e-6 *. before then
    Alcotest.failf "capacitance not conserved: %.4g fF vs %.4g fF" (before *. 1e15)
      (after *. 1e15)

let test_reduced_vs_unreduced_delay () =
  let scenario = Scenario.decoder ~levels:2 tech in
  let d_red = qwm_delay scenario in
  let d_full =
    qwm_delay ~config:{ Config.default with Config.reduce_wires = false } scenario
  in
  Alcotest.(check bool) "pi model preserves delay within 5%" true
    (Float.abs (d_red -. d_full) /. d_full < 0.05)

(* ---------- ramp inputs ---------- *)

let test_ramp_input_accuracy () =
  let scenario =
    Scenario.with_ramp_input ~rise_time:60e-12 (Scenario.nand_falling ~n:3 tech)
  in
  check_error_below "nand3 ramp" 5.0 scenario

let test_slow_ramp_delays_first_turn_on () =
  (* with a slow ramp the bottom transistor cannot turn on before its gate
     passes Vth: the first critical time must be near rise_time*vth/vdd *)
  let rise_time = 200e-12 in
  let scenario =
    Scenario.with_ramp_input ~rise_time
      (Scenario.stack_falling ~widths:(Array.make 3 1.6e-6) tech)
  in
  let qw = qwm_report scenario in
  match qw.Qwm.critical_times with
  | first :: _ ->
    let expected = rise_time *. tech.Tech.vt0_n /. tech.Tech.vdd in
    if Float.abs (first -. expected) > 0.25 *. expected then
      Alcotest.failf "first turn-on %.2fps, expected about %.2fps" (first *. 1e12)
        (expected *. 1e12)
  | [] -> Alcotest.fail "critical times expected"

(* ---------- randomized integration property ---------- *)

(* random mixed chains: stacks with wire segments spliced between
   transistors and random loads, checked end-to-end against the
   reference engine *)
let random_mixed_scenario seed =
  let state = Random.State.make [| seed; 9001 |] in
  let uniform lo hi = lo +. ((hi -. lo) *. Random.State.float state 1.0) in
  let transistors = 2 + Random.State.int state 4 in
  let b = Stage.create () in
  let out = Stage.add_node b "out" in
  let rec build below k =
    if k > transistors then below
    else begin
      let above = if k = transistors then out else Stage.add_node b (Printf.sprintf "n%d" k) in
      let w = uniform tech.Tech.w_min (5.0 *. tech.Tech.w_min) in
      Stage.add_edge b ~gate:(Printf.sprintf "g%d" k) (Device.nmos ~w tech) ~src:above
        ~snk:below;
      (* occasionally splice a wire above the transistor *)
      let above =
        if k < transistors && Random.State.bool state then begin
          let far = Stage.add_node b (Printf.sprintf "w%d" k) in
          Stage.add_edge b
            (Device.wire ~w:0.6e-6 ~l:(uniform 20e-6 120e-6))
            ~src:far ~snk:above;
          far
        end
        else above
      in
      build above (k + 1)
    end
  in
  let top = build (Stage.ground b) 1 in
  assert (top = out);
  Stage.add_load b out (uniform 5e-15 30e-15);
  Stage.mark_output b out;
  let stage = Stage.finish b in
  let sources =
    List.init transistors (fun i ->
        let name = Printf.sprintf "g%d" (i + 1) in
        ( name,
          if i = 0 then Tqwm_wave.Source.step ~low:0.0 ~high:tech.Tech.vdd ()
          else Tqwm_wave.Source.constant tech.Tech.vdd ))
  in
  {
    Scenario.name = Printf.sprintf "mixed%d" seed;
    tech;
    stage;
    sources;
    output = Builders.output_exn stage;
    output_edge = Tqwm_wave.Measure.Falling;
    rail = Chain.Pull_down;
    t_end = 1.2e-9;
    initial =
      Array.init stage.Stage.num_nodes (fun n ->
          if n = stage.Stage.ground then 0.0 else tech.Tech.vdd);
  }

let test_random_mixed_chains () =
  List.iter
    (fun seed ->
      let scenario = random_mixed_scenario seed in
      let reference = spice_delay scenario in
      let d = qwm_delay scenario in
      let err = 100.0 *. Float.abs (d -. reference) /. reference in
      if err > 8.0 then
        Alcotest.failf "mixed chain seed %d: error %.2f%% exceeds 8%%" seed err)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* ---------- robustness and configuration ---------- *)

let test_no_failures_on_suite () =
  List.iter
    (fun scenario ->
      let qw = qwm_report scenario in
      Alcotest.(check int)
        (scenario.Scenario.name ^ " fallback-free")
        0 qw.Qwm.stats.Qwm_solver.failures)
    [
      Scenario.inverter_falling tech;
      Scenario.nand_falling ~n:4 tech;
      Scenario.stack_falling ~widths:(Array.make 6 1.6e-6) tech;
    ]

let test_fewer_levels_fewer_regions () =
  let scenario = Scenario.nand_falling ~n:2 tech in
  let regions levels =
    (qwm_report ~config:{ Config.default with Config.levels } scenario).Qwm.stats
      .Qwm_solver.regions
  in
  Alcotest.(check bool) "coarser ladder, fewer regions" true
    (regions [ 0.5; 0.2 ] < regions Config.default.Config.levels)

let test_short_window_truncates () =
  let scenario = { (Scenario.nand_falling ~n:2 tech) with Scenario.t_end = 5e-12 } in
  let qw = qwm_report scenario in
  Alcotest.(check bool) "solved time bounded" true
    (qw.Qwm.stats.Qwm_solver.regions < 50);
  (* output barely moves in 5 ps: no 50% crossing *)
  Alcotest.(check bool) "no delay in tiny window" true (qw.Qwm.delay = None)

let test_node_waveforms_cover_nodes () =
  let scenario = Scenario.stack_falling ~widths:(Array.make 5 1.6e-6) tech in
  let qw = qwm_report scenario in
  Alcotest.(check int) "one quadratic per chain node" 5
    (List.length qw.Qwm.node_quadratics);
  List.iter
    (fun (name, q) ->
      let v0 = Waveform.quadratic_value_at q 0.0 in
      if Float.abs (v0 -. tech.Tech.vdd) > 1e-6 then
        Alcotest.failf "%s starts at %.3f, expected vdd" name v0)
    qw.Qwm.node_quadratics

let test_monotone_output () =
  (* the falling output never rises above its starting point *)
  let scenario = Scenario.nand_falling ~n:3 tech in
  let qw = qwm_report scenario in
  let w = Qwm.output_waveform qw ~dt:1e-12 in
  let _, hi = Tqwm_wave.Measure.swing w in
  Alcotest.(check bool) "bounded above by vdd + 0.05" true (hi <= tech.Tech.vdd +. 0.05)

let test_switching_energy () =
  (* a falling inverter dissipates (almost) the full 1/2 C VDD^2 stored on
     its output node *)
  let scenario = Scenario.inverter_falling tech in
  let qw = qwm_report scenario in
  let c_out = qw.Qwm.lowering.Path.chain.Chain.caps.(0) in
  let expected = 0.5 *. c_out *. tech.Tech.vdd *. tech.Tech.vdd in
  let e = Qwm.switching_energy qw in
  if Float.abs (e -. expected) > 0.05 *. expected then
    Alcotest.failf "energy %.3g J, expected about %.3g J" e expected;
  (* a deeper stack stores strictly more switchable energy *)
  let stack = qwm_report (Scenario.stack_falling ~widths:(Array.make 6 1.6e-6) tech) in
  Alcotest.(check bool) "stack dissipates more" true
    (Qwm.switching_energy stack > e)

let test_initial_mismatch_rejected () =
  let scenario = Scenario.nand_falling ~n:2 tech in
  let model = Lazy.force table in
  let lowering = Qwm.lower_scenario ~model ~config:Config.default scenario in
  Alcotest.check_raises "bad initial length"
    (Invalid_argument "Qwm_solver.solve: initial voltage count mismatch") (fun () ->
      ignore
        (Qwm_solver.solve ?workspace:None ~model ~config:Config.default ~scenario
           ~chain:lowering.Path.chain ~initial:[| 1.0 |]))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "tqwm_core"
    [
      ( "accuracy",
        [
          slow "gates" test_gate_accuracy;
          slow "nor pull-up" test_nor_pull_up_accuracy;
          slow "stacks" test_stack_accuracy;
          slow "random stacks" test_random_stack_accuracy;
          slow "decoder" test_decoder_accuracy;
          slow "complex gates" test_complex_gate_accuracy;
          slow "fig1 nand+pass" test_fig1_nand_pass_accuracy;
          quick "node delays along chain" test_node_delays_monotone_along_chain;
          slow "node current vs spice" test_node_current_matches_spice_peak;
          slow "waveform rms" test_waveform_rms;
        ] );
      ( "critical points",
        [
          quick "count and order" test_critical_points_count_and_order;
          quick "cascade spread" test_critical_points_spread_for_precharged_stack;
          slow "matches spice cascade" test_turn_on_matches_spice_cascade;
        ] );
      ( "linear solvers",
        [
          quick "all paths identical" test_linear_solvers_identical;
          quick "workspace reuse bit-identical" test_workspace_reuse_bit_identical;
        ] );
      ("bit identity", [ quick "solver digest" test_solver_digest ]);
      ( "workspace",
        [
          quick "allocation within ALLOC_budget.json" test_alloc_budget;
          quick "work per region within ALLOC_budget.json" test_work_budget;
          quick "escalation counts pinned" test_escalation_counts_pinned;
        ] );
      ( "solver counters",
        [
          quick "phases partition device calls" test_phases_partition_device_calls;
          quick "estimator reaches targets" test_estimator_reaches_targets;
          quick "newton histogram per region" test_newton_histogram_per_region;
        ] );
      ( "waveform models",
        [
          slow "linear model converges" test_linear_waveform_model_converges;
          slow "quadratic beats linear when sparse" test_quadratic_beats_linear_on_sparse_ladder;
          quick "linear pieces have no curvature" test_linear_pieces_are_linear;
        ] );
      ( "pi reduction",
        [
          quick "reduces chain" test_collapse_reduces_chain;
          quick "conserves capacitance" test_collapse_conserves_capacitance;
          quick "delay preserved" test_reduced_vs_unreduced_delay;
        ] );
      ( "ramp inputs",
        [
          slow "accuracy" test_ramp_input_accuracy;
          quick "slow ramp delays turn-on" test_slow_ramp_delays_first_turn_on;
        ] );
      ( "robustness",
        [
          slow "random mixed chains" test_random_mixed_chains;
          quick "no fallbacks on suite" test_no_failures_on_suite;
          quick "level ladder config" test_fewer_levels_fewer_regions;
          quick "short window" test_short_window_truncates;
          quick "node waveforms" test_node_waveforms_cover_nodes;
          quick "output bounded" test_monotone_output;
          quick "switching energy" test_switching_energy;
          quick "initial mismatch" test_initial_mismatch_rejected;
        ] );
    ]
