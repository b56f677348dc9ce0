(* qwm_sim: simulate a logic stage with the QWM engine, the SPICE-like
   reference engine, or both, and report delay/slew/accuracy; or run a
   multi-stage STA propagation over a fan-out tree of the stage. *)

open Tqwm_device
open Tqwm_circuit
module Qwm = Tqwm_core.Qwm
module Engine = Tqwm_spice.Engine
module Transient = Tqwm_spice.Transient
module Measure = Tqwm_wave.Measure
module Waveform = Tqwm_wave.Waveform
module Timing_graph = Tqwm_sta.Timing_graph
module Parallel = Tqwm_sta.Parallel
module Stage_cache = Tqwm_sta.Stage_cache
module Workloads = Tqwm_sta.Workloads
module Path_enum = Tqwm_sta.Path_enum
module Report = Tqwm_sta.Report
module Arrival = Tqwm_sta.Arrival
module Metrics = Tqwm_obs.Metrics
module Trace = Tqwm_obs.Trace
module Json = Tqwm_obs.Json
module Alloc = Tqwm_obs.Alloc

(* Attach the process's current [Gc.quick_stat] to a JSON document so the
   allocation counters land next to the data they explain. *)
let with_gc_stat doc =
  match doc with
  | Json.Obj fields -> Json.Obj (fields @ [ ("gc", Alloc.quick_stat_json ()) ])
  | other -> other
module Audit = Tqwm_audit.Audit
module Audit_baseline = Tqwm_audit.Baseline
module Drift = Tqwm_audit.Drift

let ps = 1e12

let fmt_delay = function
  | Some d -> Printf.sprintf "%.2f ps" (d *. ps)
  | None -> "none"

let print_waveform_samples name w ~count =
  let t0 = Waveform.start_time w and t1 = Waveform.end_time w in
  Printf.printf "# waveform %s (time_ps voltage)\n" name;
  for i = 0 to count - 1 do
    let t = t0 +. ((t1 -. t0) *. float_of_int i /. float_of_int (count - 1)) in
    Printf.printf "%.2f %.4f\n" (t *. ps) (Waveform.value_at w t)
  done

let run_spice ~model ~dt ~waveform scenario =
  let config = { Transient.default_config with Transient.dt } in
  let report = Engine.run ~model ~config scenario in
  Printf.printf "spice: delay=%s slew=%s steps=%d newton=%d runtime=%.4fs\n"
    (fmt_delay report.Engine.delay) (fmt_delay report.Engine.slew)
    report.Engine.result.Transient.stats.Transient.steps
    report.Engine.result.Transient.stats.Transient.nonlinear_iterations
    report.Engine.runtime_seconds;
  if waveform then print_waveform_samples "spice.out" report.Engine.output ~count:60;
  report

let run_qwm ~model ~waveform scenario =
  let report = Qwm.run ~model scenario in
  Printf.printf "qwm:   delay=%s slew=%s regions=%d newton=%d runtime=%.5fs\n"
    (fmt_delay report.Qwm.delay) (fmt_delay report.Qwm.slew)
    report.Qwm.stats.Tqwm_core.Qwm_solver.regions
    report.Qwm.stats.Tqwm_core.Qwm_solver.newton_iterations report.Qwm.runtime_seconds;
  Printf.printf "qwm:   critical points (ps): %s\n"
    (String.concat ", "
       (List.map (fun t -> Printf.sprintf "%.2f" (t *. ps)) report.Qwm.critical_times));
  if waveform then
    print_waveform_samples "qwm.out" (Qwm.output_waveform report ~dt:2e-12) ~count:60;
  report

(* A usage error unless [v] is finite and > 0. *)
let require_positive flag v =
  if not (v > 0.0 && Float.is_finite v) then (
    Printf.eprintf "qwm_sim: %s must be finite and > 0 (got %g)\n" flag v;
    exit 2)

let require_non_negative flag v =
  if not (v >= 0.0 && Float.is_finite v) then (
    Printf.eprintf "qwm_sim: %s must be finite and >= 0 (got %g)\n" flag v;
    exit 2)

(* --sta: propagate arrivals over a fan-out tree of the selected stage *)
let run_sta ~tech ~depth ~fanout ~domains ~report_timing ~report_slack ~k_paths
    ~clock_period_ps ~json_file scenario =
  if fanout < 1 then (
    Printf.eprintf "qwm_sim: --fanout must be >= 1 (got %d)\n" fanout;
    exit 2);
  if k_paths < 1 then (
    Printf.eprintf "qwm_sim: --k-paths must be >= 1 (got %d)\n" k_paths;
    exit 2);
  Option.iter (require_positive "--clock-period") clock_period_ps;
  let domains = max 1 domains in
  let model = Models.table tech in
  let graph = Workloads.fanout_tree ~fanout ~depth scenario in
  ignore (Timing_graph.freeze graph);
  let cache = Stage_cache.create () in
  let t0 = Unix.gettimeofday () in
  let analysis = Parallel.propagate ~model ~cache ~domains graph in
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf
    "sta: %d copies of %s (fan-out %d, depth %d), %d domain%s: %.3f ms\n"
    (Timing_graph.num_stages graph) scenario.Scenario.name fanout depth domains
    (if domains = 1 then "" else "s")
    (elapsed *. 1e3);
  if Timing_graph.num_stages graph <= 16 then
    Report.print Format.std_formatter graph analysis
  else
    Printf.printf "worst arrival %.2f ps over a %d-stage critical path\n"
      (analysis.Tqwm_sta.Arrival.worst_arrival *. ps)
      (List.length analysis.Tqwm_sta.Arrival.critical_path);
  let s = Stage_cache.stats cache in
  Printf.printf "cache: %d solves, %d hits (%.0f%% hit rate)\n" s.Stage_cache.misses
    s.Stage_cache.hits
    (100.0 *. Stage_cache.hit_rate cache);
  if report_timing || report_slack then begin
    let clock_period =
      match clock_period_ps with
      | Some p -> p *. 1e-12
      | None -> Arrival.zero_slack_clock analysis
    in
    let required = Arrival.required graph analysis ~clock_period in
    if report_slack then Report.print_slack Format.std_formatter graph analysis required;
    let explained =
      if report_timing || json_file <> None then
        List.map
          (Path_enum.explain ~model ~cache graph analysis)
          (Path_enum.k_worst ~clock_period ~k:k_paths graph analysis)
      else []
    in
    if report_timing then
      Report.print_timing Format.std_formatter graph required explained;
    match json_file with
    | None -> ()
    | Some path ->
      (* no gc block here: the timing report is bit-identical across
         runs and domain counts, and test/cli.t diffs the bytes *)
      Json.write_file path (Report.timing_to_json graph analysis required explained);
      Printf.printf "sta: wrote timing report to %s\n" path
  end
  else begin
    match json_file with
    | None -> ()
    | Some path ->
      Json.write_file path (with_gc_stat (Report.to_json graph analysis));
      Printf.printf "sta: wrote JSON report to %s\n" path
  end;
  0

(* --serve: the timing daemon — load once, serve concurrent what-if
   sessions over the protocol in lib/server until SIGINT/SIGTERM *)
let run_serve ~tech ~addr ~graph_spec ~domains ~epsilon_ps ~max_sessions ~prom
    ~access_log ~slow_ms =
  let address =
    match Tqwm_server.Protocol.parse_address addr with
    | a -> a
    | exception Invalid_argument msg ->
      Printf.eprintf "qwm_sim: %s\n" msg;
      exit 2
  in
  if max_sessions < 1 then (
    Printf.eprintf "qwm_sim: --max-sessions must be >= 1 (got %d)\n" max_sessions;
    exit 2);
  require_non_negative "--slow-ms" slow_ms;
  require_non_negative "--epsilon" epsilon_ps;
  let prom_addr =
    match prom with
    | None -> None
    | Some spec -> (
      match Tqwm_server.Protocol.parse_address spec with
      | a -> Some (Tqwm_server.Protocol.sockaddr_of_address a)
      | exception Invalid_argument msg ->
        Printf.eprintf "qwm_sim: --prom: %s\n" msg;
        exit 2)
  in
  let graph =
    match graph_spec with
    | None -> None
    | Some spec -> (
      match Tqwm_incr.Script.graph_of_spec ~tech spec with
      | g -> Some g
      | exception Invalid_argument msg ->
        Printf.eprintf "qwm_sim: --graph: %s\n" msg;
        exit 2)
  in
  let workers = max 1 domains in
  let server =
    Tqwm_server.Server.start ~tech ?graph ~workers ~epsilon:(epsilon_ps *. 1e-12)
      ~max_sessions ?access_log ~slow_threshold:(slow_ms *. 1e-3) address
  in
  let prom_server = Option.map Tqwm_obs.Prometheus.serve prom_addr in
  Printf.printf "serve: listening on %s (%d worker%s%s, max %d sessions)\n%!"
    (Tqwm_server.Server.address server)
    workers
    (if workers = 1 then "" else "s")
    (match graph with
    | Some g ->
      Printf.sprintf ", baseline %d stages" (Timing_graph.num_stages g)
    | None -> "")
    max_sessions;
  Option.iter
    (fun p ->
      Printf.printf "serve: Prometheus metrics on http://%s/metrics\n%!"
        (match Tqwm_obs.Prometheus.bound p with
        | Unix.ADDR_INET (a, port) ->
          Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) port
        | Unix.ADDR_UNIX path -> path))
    prom_server;
  Option.iter
    (fun path -> Printf.printf "serve: access log at %s\n%!" path)
    access_log;
  let stop_requested = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler;
  while not (Atomic.get stop_requested) do
    Unix.sleepf 0.1
  done;
  Printf.printf "serve: shutting down\n%!";
  Option.iter Tqwm_obs.Prometheus.stop prom_server;
  Tqwm_server.Server.stop server;
  0

(* --incr: drive an incremental session from an edit/query script *)
let run_incr ~tech ~domains ~scratch ~epsilon_ps ~json_file
    ~timing_json_file ~timing_k path =
  if timing_k < 1 then (
    Printf.eprintf "qwm_sim: --timing-k must be >= 1 (got %d)\n" timing_k;
    exit 2);
  require_non_negative "--epsilon" epsilon_ps;
  let model = Models.table tech in
  let mode = if scratch then Tqwm_incr.Script.Scratch else Tqwm_incr.Script.Incremental in
  match
    Tqwm_incr.Script.run_file ~tech ~model ~domains ~epsilon:(epsilon_ps *. 1e-12) ~mode
      path
  with
  | exception Tqwm_incr.Script.Script_error { line; message } ->
    Printf.eprintf "%s:%d: %s\n" path line message;
    1
  | exception Sys_error msg ->
    Printf.eprintf "%s\n" msg;
    1
  | outcome ->
    let stats = Tqwm_incr.Session.stats outcome.Tqwm_incr.Script.session in
    Printf.printf
      "incr: %d edits, %d recomputes, %d stages re-evaluated, %d cutoff hits\n"
      stats.Tqwm_incr.Session.edits stats.Tqwm_incr.Session.recomputes
      stats.Tqwm_incr.Session.stages_reeval stats.Tqwm_incr.Session.cutoff_hits;
    (match json_file with
    | None -> ()
    | Some out ->
      Json.write_file out outcome.Tqwm_incr.Script.json;
      Printf.printf "incr: wrote JSON report to %s\n" out);
    (match timing_json_file with
    | None -> ()
    | Some out ->
      (* the same tqwm-report/1 document a live server session answers
         to a [timing] request — the byte-identity oracle test/cli.t
         compares server replays against *)
      Json.write_file out
        (Tqwm_incr.Script.timing_json
           ?clock_period:outcome.Tqwm_incr.Script.clock_period ~k:timing_k
           outcome.Tqwm_incr.Script.session);
      Printf.printf "incr: wrote timing report to %s\n" out);
    0

(* --audit: golden-vs-QWM accuracy observatory over the workload catalog,
   with drift detection against the persisted AUDIT_accuracy.json ledger *)
let run_audit ~tech ~domains ~baseline_file ~update_baseline ~json_file =
  let path = Option.value baseline_file ~default:"AUDIT_accuracy.json" in
  let t0 = Unix.gettimeofday () in
  let audit = Audit.run ~domains tech in
  let elapsed = Unix.gettimeofday () -. t0 in
  Audit.pp Format.std_formatter audit;
  Printf.printf "audit: %d stages on %d domain%s in %.2f s\n"
    audit.Audit.overall.Audit.stages domains
    (if domains = 1 then "" else "s")
    elapsed;
  let drift =
    match Audit_baseline.load path with
    | None ->
      Printf.printf
        "audit: no baseline at %s (run with --update-baseline to create one)\n"
        path;
      None
    | Some baseline ->
      let report = Drift.check ~baseline audit in
      Printf.printf "audit: drift vs %s (tolerance %.2fpp + %.0f%%):\n" path
        Audit_baseline.band_abs_pp
        (100.0 *. Audit_baseline.band_rel);
      Drift.pp Format.std_formatter report;
      Some report
    | exception Failure msg ->
      Printf.eprintf "qwm_sim: cannot read baseline %s: %s\n" path msg;
      exit 2
  in
  if update_baseline then begin
    let n = Audit_baseline.save ~path audit in
    Printf.printf "audit: appended baseline record to %s (%d record%s)\n" path n
      (if n = 1 then "" else "s")
  end;
  (match json_file with
  | None -> ()
  | Some out ->
    let doc =
      match Audit.to_json audit with
      | Json.Obj fields ->
        Json.Obj
          (fields
          @ [
              ("baseline", Json.String path);
              ( "drift",
                match drift with Some r -> Drift.to_json r | None -> Json.Null );
            ])
      | other -> other
    in
    Json.write_file out doc;
    Printf.printf "audit: wrote JSON report to %s\n" out);
  match drift with Some r when Drift.has_regressions r -> 1 | Some _ | None -> 0

(* --partition: parse a netlist deck and report its logic stages *)
let partition_netlist path =
  let tech = Tech.cmosp35 in
  match Netlist_parser.parse_file tech path with
  | exception Netlist_parser.Parse_error { line; message } ->
    Printf.eprintf "%s:%d: %s\n" path line message;
    1
  | exception Sys_error msg ->
    Printf.eprintf "%s\n" msg;
    1
  | net ->
    let gate_load (d : Device.t) = Capacitance.gate tech ~w:d.Device.w ~l:d.Device.l in
    let extraction = Ccc.extract ~gate_load net in
    Printf.printf "%s: %d nodes, %d elements -> %d logic stages\n" path
      net.Netlist.num_nodes
      (Array.length net.Netlist.elements)
      (Array.length extraction.Ccc.instances);
    Array.iter
      (fun inst ->
        let stage = inst.Ccc.stage in
        Printf.printf "stage %d: %d edges, inputs {%s}, outputs {%s}\n"
          inst.Ccc.component
          (Array.length stage.Stage.edges)
          (String.concat ", " (List.map fst inst.Ccc.input_nets))
          (String.concat ", "
             (List.map (Stage.node_name stage) stage.Stage.outputs));
        Format.printf "%a" Stage.pp stage)
      extraction.Ccc.instances;
    0

let run_main circuit engine dt_ps waveform ramp_ps partition incr_script scratch
    epsilon_ps sta_depth sta_fanout domains report_timing report_slack k_paths
    clock_period_ps json_file audit baseline_file update_baseline serve graph_spec
    max_sessions timing_json_file timing_k prom access_log slow_ms =
  match serve with
  | Some addr ->
    run_serve ~tech:Tech.cmosp35 ~addr ~graph_spec
      ~domains:(Option.value domains ~default:1)
      ~epsilon_ps ~max_sessions ~prom ~access_log ~slow_ms
  | None ->
  if audit then
    run_audit ~tech:Tech.cmosp35
      ~domains:(Option.value domains ~default:1)
      ~baseline_file ~update_baseline ~json_file
  else
  match partition with
  | Some path -> partition_netlist path
  | None ->
  match incr_script with
  | Some path ->
    run_incr ~tech:Tech.cmosp35
      ~domains:(Option.value domains ~default:1)
      ~scratch ~epsilon_ps ~json_file ~timing_json_file ~timing_k path
  | None ->
  require_positive "--dt" dt_ps;
  Option.iter (require_positive "--ramp") ramp_ps;
  let tech = Tech.cmosp35 in
  match Catalog.scenario tech circuit with
  | exception Not_found ->
    Printf.eprintf "unknown circuit %S; examples: %s\n" circuit
      (String.concat ", " Catalog.examples);
    1
  | scenario ->
    let scenario =
      match ramp_ps with
      | None -> scenario
      | Some r -> Scenario.with_ramp_input ~rise_time:(r *. 1e-12) scenario
    in
    (* a stage that cannot be timed (e.g. an input ramp slower than the
       window) is a result to report, not an internal error *)
    try
    match sta_depth with
    | Some depth ->
      let domains = Option.value domains ~default:(Parallel.default_domains ()) in
      run_sta ~tech ~depth ~fanout:sta_fanout ~domains ~report_timing ~report_slack
        ~k_paths ~clock_period_ps ~json_file scenario
    | None ->
    Printf.printf "circuit %s: %d nodes, %d edges, window %.0f ps\n"
      scenario.Scenario.name scenario.Scenario.stage.Stage.num_nodes
      (Array.length scenario.Scenario.stage.Stage.edges)
      (scenario.Scenario.t_end *. ps);
    let golden = Models.golden tech in
    let dt = dt_ps *. 1e-12 in
    (match engine with
    | `Spice -> ignore (run_spice ~model:golden ~dt ~waveform scenario)
    | `Qwm -> ignore (run_qwm ~model:(Models.table tech) ~waveform scenario)
    | `Both ->
      let sp = run_spice ~model:golden ~dt ~waveform scenario in
      let qw = run_qwm ~model:(Models.table tech) ~waveform scenario in
      (match (sp.Engine.delay, qw.Qwm.delay) with
      | Some a, Some b ->
        Printf.printf "delay error: %.2f%%  speed-up: %.1fx\n"
          (100.0 *. Float.abs (b -. a) /. a)
          (sp.Engine.runtime_seconds /. qw.Qwm.runtime_seconds)
      | (Some _ | None), _ -> ()));
    0
    with Path.No_path message | Arrival.Analysis_failure message ->
      Printf.eprintf "qwm_sim: %s\n" message;
      1

let main circuit engine dt_ps waveform ramp_ps partition incr_script scratch
    epsilon_ps sta_depth sta_fanout domains report_timing report_slack k_paths
    clock_period_ps json_file audit baseline_file update_baseline serve graph_spec
    max_sessions timing_json_file timing_k trace_file metrics_file prom access_log
    slow_ms =
  (* the daemon gets a bounded buffer so a long run cannot grow without
     limit *)
  if trace_file <> None then
    if serve <> None then Trace.enable ~cap:262_144 () else Trace.enable ();
  let code =
    run_main circuit engine dt_ps waveform ramp_ps partition incr_script scratch
      epsilon_ps sta_depth sta_fanout domains report_timing report_slack k_paths
      clock_period_ps json_file audit baseline_file update_baseline serve graph_spec
      max_sessions timing_json_file timing_k prom access_log slow_ms
  in
  (match trace_file with
  | None -> ()
  | Some path ->
    Trace.write_file path;
    Printf.printf "trace: wrote Chrome trace events to %s (open in chrome://tracing or ui.perfetto.dev)\n"
      path);
  (match metrics_file with
  | None -> ()
  | Some path ->
    Json.write_file path (with_gc_stat (Metrics.snapshot ()));
    Printf.printf "metrics: wrote counters, histograms and gc stats to %s\n" path);
  code

open Cmdliner

let circuit =
  let doc = "Circuit to simulate (inv, nand<k>, nor<k>, stack<k>, manchester<bits>, decoder<levels>, ckt<len>_<seed>)." in
  Arg.(value & pos 0 string "nand3" & info [] ~docv:"CIRCUIT" ~doc)

let engine =
  let doc = "Engine: qwm, spice, or both." in
  Arg.(value
    & opt (enum [ ("qwm", `Qwm); ("spice", `Spice); ("both", `Both) ]) `Both
    & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

let dt =
  let doc = "SPICE-engine step size in picoseconds." in
  Arg.(value & opt float 1.0 & info [ "dt" ] ~docv:"PS" ~doc)

let waveform =
  let doc = "Print output waveform samples." in
  Arg.(value & flag & info [ "w"; "waveform" ] ~doc)

let ramp =
  let doc = "Drive the switching input with a ramp of this rise time (ps) instead of a step." in
  Arg.(value & opt (some float) None & info [ "ramp" ] ~docv:"PS" ~doc)

let partition =
  let doc = "Parse a SPICE-flavoured netlist file and print its channel-connected logic stages instead of simulating." in
  Arg.(value & opt (some file) None & info [ "p"; "partition" ] ~docv:"FILE" ~doc)

let incr_script =
  let doc = "Run an incremental STA session from the edit/query command file $(docv) (commands: graph, stage, connect, disconnect, remove, resize, load, swap, retime, report, query). With --json, writes the final analysis and session stats." in
  Arg.(value & opt (some file) None & info [ "incr" ] ~docv:"SCRIPT" ~doc)

let scratch =
  let doc = "In --incr mode, compute every report from scratch instead of incrementally (the oracle the incremental engine is checked against)." in
  Arg.(value & flag & info [ "scratch" ] ~doc)

let epsilon_ps =
  let doc = "In --incr and --serve modes, early-cutoff tolerance in picoseconds on per-stage arrival and slew (finite and >= 0; 0 = exact, bit-identical to from-scratch)." in
  Arg.(value & opt float 0.0 & info [ "epsilon" ] ~docv:"PS" ~doc)

let sta_depth =
  let doc = "Instead of a single solve, run static timing analysis over a fan-out tree of DEPTH levels of copies of the circuit." in
  Arg.(value & opt (some int) None & info [ "sta" ] ~docv:"DEPTH" ~doc)

let sta_fanout =
  let doc = "Fan-out per tree level in --sta mode." in
  Arg.(value & opt int 2 & info [ "fanout" ] ~docv:"K" ~doc)

let domains =
  let doc = "Domains used by --sta propagation (default: the recommended domain count of this machine)." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let report_timing =
  let doc =
    "In --sta mode, enumerate the --k-paths worst paths and print each \
     with stage-by-stage attribution (arrival, delay, slew, QWM \
     region/Newton counts, cache sharing) plus the WNS/TNS summary. With \
     --json, writes the versioned tqwm-report/1 document instead of the \
     legacy analysis dump."
  in
  Arg.(value & flag & info [ "report-timing" ] ~doc)

let report_slack =
  let doc =
    "In --sta mode, print the per-stage arrival/required/slack table, the \
     endpoint table and the WNS/TNS summary from the backward \
     required-time pass."
  in
  Arg.(value & flag & info [ "report-slack" ] ~doc)

let k_paths =
  let doc = "Number of worst paths enumerated by --report-timing (>= 1)." in
  Arg.(value & opt int 5 & info [ "k-paths" ] ~docv:"N" ~doc)

let clock_period_ps =
  let doc =
    "Clock period in picoseconds for slack/required-time reporting. \
     Default: the worst arrival (zero-slack normalization), so slacks \
     read as margin to the critical path."
  in
  Arg.(value & opt (some float) None & info [ "clock-period" ] ~docv:"PS" ~doc)

let json_file =
  let doc = "In --sta mode, write the machine-readable analysis (per-stage timings, critical path) to $(docv); in --audit mode, the tqwm-audit/1 accuracy report with its drift section." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let audit =
  let doc = "Run the accuracy audit: QWM and the golden engine side-by-side over the workload catalog (chains, random stacks, decoder trees, AWE-reduced wires), reporting per-stage delay/slew/waveform errors and drift against the persisted baseline ledger. Exits 1 if any metric is classified as regressed." in
  Arg.(value & flag & info [ "audit" ] ~doc)

let baseline_file =
  let doc = "Baseline ledger the audit compares against and --update-baseline appends to (default AUDIT_accuracy.json)." in
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)

let update_baseline =
  let doc = "Append this audit run to the baseline ledger (date- and commit-stamped)." in
  Arg.(value & flag & info [ "update-baseline" ] ~doc)

let serve =
  let doc =
    "Run as a timing daemon on $(docv) (unix:PATH or HOST:PORT; TCP port \
     0 picks a free port): one shared frozen baseline graph, --domains \
     worker domains, each client connection an isolated what-if session \
     speaking newline-delimited JSON (verbs: load, edit, script, report, \
     query, timing, slack, explain, document, metrics, health, trace, \
     close). Runs until SIGINT/SIGTERM."
  in
  Arg.(value & opt (some string) None & info [ "serve" ] ~docv:"ADDR" ~doc)

let graph_spec =
  let doc =
    "In --serve mode, the shared baseline graph as a workload spec (the \
     script [graph] grammar without the keyword: 'chain N', 'diamond', \
     'decoder FANOUT DEPTH [LEVELS]', 'stacks WIDTH DEPTH [SEED]'). Its \
     analysis runs once at startup; clients load copy-on-write forks of \
     it."
  in
  Arg.(value & opt (some string) None & info [ "graph" ] ~docv:"SPEC" ~doc)

let max_sessions =
  let doc = "In --serve mode, the concurrent-session cap; connections beyond it are answered with a server_full error." in
  Arg.(value & opt int 64 & info [ "max-sessions" ] ~docv:"N" ~doc)

let timing_json_file =
  let doc =
    "In --incr mode, also write the tqwm-report/1 timing document of the \
     final session state (k worst paths under the script's clock) to \
     $(docv) — byte-identical to a server session's [timing] response \
     after the same commands."
  in
  Arg.(value & opt (some string) None & info [ "timing-json" ] ~docv:"FILE" ~doc)

let timing_k =
  let doc = "Number of worst paths in the --timing-json document (>= 1)." in
  Arg.(value & opt int 1 & info [ "timing-k" ] ~docv:"N" ~doc)

let trace_file =
  let doc = "Record Chrome trace events (per-stage spans, per-domain workers, QWM regions) and write them to $(docv); load in chrome://tracing or ui.perfetto.dev. In --serve mode the events are request-scoped (request and session ids on every span, merged across worker domains), the buffer is bounded, the live buffer is also served by the [trace] verb, and the file is written at shutdown." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let prom =
  let doc =
    "In --serve mode, expose Prometheus text-format metrics over HTTP on \
     $(docv) (unix:PATH or HOST:PORT; port 0 picks a free port): GET \
     /metrics renders the live registry — counters, gauges and \
     histograms with cumulative buckets."
  in
  Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"ADDR" ~doc)

let access_log =
  let doc =
    "In --serve mode, append one JSON line per request to $(docv): ts, \
     request id, session, verb, outcome (ok or the error code), bytes \
     in/out, latency in microseconds."
  in
  Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE" ~doc)

let slow_ms =
  let doc =
    "In --serve mode, the slow-request threshold in milliseconds: \
     requests at or above it bump server.slow_requests and, with tracing \
     on, emit a server.slow_request trace instant."
  in
  Arg.(value & opt float 250.0 & info [ "slow-ms" ] ~docv:"MS" ~doc)

let metrics_file =
  let doc = "Write a JSON snapshot of telemetry counters and histograms (solver regions/iterations, cache hits, SPICE steps) to $(docv) on exit." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "transistor-level timing analysis by piecewise quadratic waveform matching" in
  Cmd.v
    (Cmd.info "qwm_sim" ~version:"1.0.0" ~doc)
    Term.(
      const main $ circuit $ engine $ dt $ waveform $ ramp $ partition
      $ incr_script $ scratch $ epsilon_ps $ sta_depth $ sta_fanout $ domains
      $ report_timing $ report_slack $ k_paths $ clock_period_ps $ json_file $ audit
      $ baseline_file $ update_baseline $ serve $ graph_spec $ max_sessions
      $ timing_json_file $ timing_k $ trace_file $ metrics_file $ prom $ access_log
      $ slow_ms)

let () = exit (Cmd.eval' cmd)
