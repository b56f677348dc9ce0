(* The metrics every run prints, with their units. BENCHMARK.json lists
   the same names; the runtest check holds the two together. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_ms_p50", "ms");
    ("op_ms_slow10", "ms");
    ("peak_rss_mb", "MB");
  ]

(* Layer metrics. A workload that does not reach a layer reports 0 for
   its shares and counts; times are measured on every workload. *)
let per_layer =
  [
    (* circuit, core, device, num: replays of the workload's distinct
       stage solves *)
    ("circuit.lower_us", "us");
    ("core.solve_us", "us");
    ("core.regions_per_solve", "count");
    ("core.newton_per_region", "count");
    ("core.linear_solves_per_region", "count");
    ("core.bisections_per_solve", "count");
    ("core.unconverged_regions", "count");
    ("core.alloc_words_per_region", "words");
    ("device.calls_per_region", "count");
    ("device.ns_per_call", "ns");
    ("num.ns_per_linear_solve", "ns");
    ("device.share_pct", "%");
    ("num.share_pct", "%");
    ("core.unattributed_pct", "%");
    (* spice: the reference engine on the same stages *)
    ("spice.ms_per_solve_1ps", "ms");
    ("spice.ms_per_solve_10ps", "ms");
    ("spice.steps_per_solve", "count");
    ("spice.nr_per_step", "count");
    ("paper.speedup_1ps", "x");
    ("paper.speedup_10ps", "x");
    ("paper.delay_err_mean_pct", "%");
    ("paper.delay_err_max_pct", "%");
    (* sta: shares of one full timing run *)
    ("sta.propagate_pct", "%");
    ("sta.shape_pct", "%");
    ("sta.fingerprint_pct", "%");
    ("sta.lookup_pct", "%");
    ("sta.solve_pct", "%");
    ("sta.unattributed_pct", "%");
    ("sta.required_pct", "%");
    ("sta.kworst_pct", "%");
    ("sta.explain_pct", "%");
    ("sta.report_json_pct", "%");
    ("sta.solves_per_run", "count");
    ("sta.cache_hit_pct", "%");
    ("sta.speedup_2dom", "x");
    (* server, incr, obs: shares of the client-observed request time *)
    ("server.edit_pct", "%");
    ("server.report_pct", "%");
    ("server.slack_pct", "%");
    ("server.timing_pct", "%");
    ("incr.apply_pct", "%");
    ("incr.recompute_pct", "%");
    ("incr.report_pct", "%");
    ("incr.slack_pct", "%");
    ("incr.timing_pct", "%");
    ("obs.json_pct", "%");
    ("server.transport_pct", "%");
    ("incr.stages_reeval_per_edit", "count");
    ("incr.cutoff_hits_per_edit", "count");
    ("sta.solves_per_edit", "count");
    (* every workload *)
    ("trace_overhead_pct", "%");
  ]

let time_units = [ "s"; "ms"; "us"; "ns" ]

let workloads = [ "stage-solve"; "sta-cold"; "sta-repeat"; "eco-daemon" ]
