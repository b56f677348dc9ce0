(* Tests for the accuracy observatory (Tqwm_audit): workload catalog
   shape, decoder-tree accuracy against the golden engine, sequential ==
   parallel audit measurements, allocation counted on worker domains,
   JSON/ledger round-trips, and the drift checker — self-comparison is
   all-unchanged, a deliberately degraded solver config is classified as
   regressed, and classifications feed the audit.* counters. *)

open Tqwm_device
module Audit = Tqwm_audit.Audit
module Baseline = Tqwm_audit.Baseline
module Drift = Tqwm_audit.Drift
module Json = Tqwm_obs.Json
module Ledger = Tqwm_obs.Ledger
module Metrics = Tqwm_obs.Metrics

let tech = Tech.cmosp35

(* the bounded catalog at a coarse golden step: cheap enough to audit
   several times per test run, still exercising all four families *)
let smoke_workloads = lazy (Audit.catalog ~smoke:true tech)

let smoke_audit = lazy (Audit.run ~dt:10e-12 ~workloads:(Lazy.force smoke_workloads) tech)

(* a deliberately damaged solver: a coarse matching ladder and the
   linear waveform model — still converges, but accuracy must visibly
   degrade against the default-config baseline *)
let perturbed_config =
  {
    Tqwm_core.Config.default with
    Tqwm_core.Config.levels = [ 0.85; 0.5; 0.12 ];
    waveform_model = Tqwm_core.Config.Linear;
  }

let perturbed_audit =
  lazy
    (Audit.run ~config:perturbed_config ~dt:10e-12
       ~workloads:(Lazy.force smoke_workloads) tech)

(* ---------- catalog ---------- *)

let test_catalog () =
  let families = List.map fst (Audit.catalog tech) in
  Alcotest.(check (list string))
    "the paper's workload families"
    [ "chain"; "random-stacks"; "decoder-tree"; "awe-wires" ]
    families;
  Alcotest.(check (list string))
    "smoke subset keeps every family" families
    (List.map fst (Audit.catalog ~smoke:true tech));
  (* stage names key baseline comparisons: unique within each workload *)
  List.iter
    (fun (w, scenarios) ->
      Alcotest.(check bool)
        (w ^ " non-empty") true (scenarios <> []);
      let names =
        List.map (fun s -> s.Tqwm_circuit.Scenario.name) scenarios
      in
      Alcotest.(check bool)
        (w ^ " stage names unique") true
        (List.sort_uniq compare names = List.sort compare names))
    (Audit.catalog tech)

(* ---------- accuracy ---------- *)

let test_decoder_accuracy () =
  let workloads =
    List.filter (fun (w, _) -> String.equal w "decoder-tree") (Audit.catalog tech)
  in
  let audit = Audit.run ~workloads tech in
  let summary, records =
    match audit.Audit.workloads with
    | [ (s, rs) ] -> (s, rs)
    | _ -> Alcotest.fail "expected exactly one workload"
  in
  if summary.Audit.avg_accuracy_pct < 98.0 then
    Alcotest.failf "decoder-tree average accuracy %.2f%% < 98%%"
      summary.Audit.avg_accuracy_pct;
  List.iter
    (fun r ->
      if r.Audit.accuracy_pct < 96.0 then
        Alcotest.failf "%s accuracy %.2f%% < 96%%" r.Audit.stage
          r.Audit.accuracy_pct;
      Alcotest.(check bool)
        (r.Audit.stage ^ " solver stats recorded") true
        (r.Audit.regions > 0 && r.Audit.newton_iterations > 0))
    records;
  Alcotest.(check bool)
    "overall mirrors the single workload" true
    (Float.abs
       (audit.Audit.overall.Audit.avg_accuracy_pct
       -. summary.Audit.avg_accuracy_pct)
    < 1e-9)

let test_audit_feeds_metrics () =
  let before = Option.value (Metrics.find_counter "audit.stages_audited") ~default:0 in
  let audit = Lazy.force smoke_audit in
  ignore (Lazy.force smoke_audit);
  let after = Option.value (Metrics.find_counter "audit.stages_audited") ~default:0 in
  Alcotest.(check bool)
    "audit.stages_audited counted every stage" true
    (after - before >= audit.Audit.overall.Audit.stages || before > 0)

(* ---------- determinism ---------- *)

let test_sequential_equals_parallel () =
  let workloads = Lazy.force smoke_workloads in
  let seq = Lazy.force smoke_audit in
  let par = Audit.run ~dt:10e-12 ~domains:4 ~workloads tech in
  Alcotest.(check bool)
    "4-domain audit measures identically to sequential" true
    (Audit.equal_measurements seq par)

(* Worker domains fold their GC growth into the process-wide
   [qwm.alloc.domains_*] counters before they exit, so a parallel audit's
   allocation is not lost with its domains. *)
let test_workers_count_allocation () =
  let words () =
    Option.value (Metrics.find_counter "qwm.alloc.domains_minor_words") ~default:0
  in
  let before = words () in
  ignore (Audit.run ~dt:10e-12 ~domains:2 ~workloads:(Lazy.force smoke_workloads) tech);
  Alcotest.(check bool) "qwm.alloc.domains_minor_words grew" true (words () > before)

(* ---------- persistence ---------- *)

let test_json_roundtrip () =
  let audit = Lazy.force smoke_audit in
  let through =
    Audit.of_json (Json.of_string (Json.to_string (Audit.to_json audit)))
  in
  Alcotest.(check bool) "bit-exact through JSON text" true (through = audit)

let test_ledger_roundtrip () =
  let audit = Lazy.force smoke_audit in
  let path = Filename.temp_file "tqwm_audit" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sys.remove path;
      Alcotest.(check int) "first append" 1 (Baseline.save ~path audit);
      Alcotest.(check int) "second append" 2 (Baseline.save ~path audit);
      List.iter
        (fun record ->
          (match Json.member "date" record with
          | Some (Json.String _) -> ()
          | _ -> Alcotest.fail "record lacks a date stamp");
          match Json.member "commit" record with
          | Some (Json.String c) ->
            Alcotest.(check bool) "commit stamp non-empty" true (c <> "")
          | _ -> Alcotest.fail "record lacks a commit stamp")
        (Ledger.read path);
      match Baseline.load path with
      | Some loaded ->
        Alcotest.(check bool) "newest record reloads bit-exactly" true
          (loaded = audit)
      | None -> Alcotest.fail "ledger has no loadable baseline")

(* ---------- classification ---------- *)

let test_classify_tolerances () =
  (* margin around baseline 2.0 is 0.25 + 0.05 * 2.0 = 0.35 *)
  let classify current = Baseline.classify ~baseline:2.0 ~current in
  Alcotest.(check bool) "inside the band" true (classify 2.34 = Baseline.Unchanged);
  Alcotest.(check bool) "band is symmetric" true (classify 1.66 = Baseline.Unchanged);
  Alcotest.(check bool) "above the band" true (classify 2.36 = Baseline.Regressed);
  Alcotest.(check bool) "below the band" true (classify 1.64 = Baseline.Improved);
  (* the relative term scales with the baseline: 0.25 + 0.05 * 20 = 1.25 *)
  let wide = Baseline.classify ~baseline:20.0 ~current:21.2 in
  Alcotest.(check bool) "relative slack absorbs 6%% of 20" true
    (wide = Baseline.Unchanged);
  Alcotest.(check bool) "but not 7%% of 20" true
    (Baseline.classify ~baseline:20.0 ~current:21.4 = Baseline.Regressed)

let test_self_comparison_unchanged () =
  let audit = Lazy.force smoke_audit in
  let report = Drift.check ~baseline:audit audit in
  Alcotest.(check bool) "no regressions" false (Drift.has_regressions report);
  Alcotest.(check int) "no improvements" 0 (List.length report.Drift.improved);
  Alcotest.(check int) "no unmatched stages" 0 report.Drift.unmatched;
  Alcotest.(check int)
    "every metric unchanged"
    (List.length report.Drift.deltas)
    report.Drift.unchanged;
  Alcotest.(check bool)
    "metrics were actually compared" true
    (report.Drift.deltas <> [])

let test_perturbed_config_regresses () =
  let baseline = Lazy.force smoke_audit in
  let perturbed = Lazy.force perturbed_audit in
  let report = Drift.check ~baseline perturbed in
  Alcotest.(check bool) "degraded solver regresses" true
    (Drift.has_regressions report);
  (* the report pinpoints the movers: every regression names a metric and
     a workload family, and the per-family tally is consistent *)
  (match Drift.worst report with
  | Some worst ->
    Alcotest.(check bool) "worst excursion is positive" true
      (worst.Baseline.current > worst.Baseline.baseline);
    Alcotest.(check bool) "worst is classified regressed" true
      (worst.Baseline.classification = Baseline.Regressed)
  | None -> Alcotest.fail "no worst regression");
  let tallied =
    List.fold_left (fun acc (_, n) -> acc + n) 0
      report.Drift.regressions_by_workload
  in
  Alcotest.(check int)
    "per-family tally covers every regression"
    (List.length report.Drift.regressed)
    tallied

let test_drift_feeds_counters () =
  let baseline = Lazy.force smoke_audit in
  let perturbed = Lazy.force perturbed_audit in
  let before = Option.value (Metrics.find_counter "audit.regressed") ~default:0 in
  let report = Drift.check ~baseline perturbed in
  let after = Option.value (Metrics.find_counter "audit.regressed") ~default:0 in
  Alcotest.(check int)
    "audit.regressed counter advanced by the report's count"
    (List.length report.Drift.regressed)
    (after - before)

let test_unmatched_stages_counted () =
  let audit = Lazy.force smoke_audit in
  let truncated =
    {
      audit with
      Audit.workloads =
        List.filter
          (fun ((s : Audit.summary), _) -> s.Audit.name <> "decoder-tree")
          audit.Audit.workloads;
    }
  in
  let report = Drift.check ~baseline:truncated audit in
  let decoder_stages =
    List.assoc "decoder-tree"
      (List.map
         (fun ((s : Audit.summary), rs) -> (s.Audit.name, List.length rs))
         audit.Audit.workloads)
  in
  Alcotest.(check int)
    "stages absent from the baseline are flagged unmatched" decoder_stages
    report.Drift.unmatched;
  Alcotest.(check bool)
    "unmatched stages alone do not regress" false
    (Drift.has_regressions report)

(* the drift gate: the full catalog at [qwm_sim --audit]'s defaults
   against the committed AUDIT_accuracy.json baseline. Nothing may
   regress, every audited stage must still have a baseline record, and
   the average accuracy over the whole catalog stays at 98 % or more.
   Every committed record, and the [--audit --json] document, keep the
   [tqwm-audit/1] shape. *)
let test_committed_baseline () =
  let path = "../AUDIT_accuracy.json" in
  List.iteri
    (fun i record -> Schema.audit (Printf.sprintf "%s[%d]" path i) record)
    (Schema.ledger path (Ledger.read path));
  let baseline =
    match Baseline.load path with
    | Some baseline -> baseline
    | None -> Alcotest.fail "AUDIT_accuracy.json holds no record"
  in
  let audit = Audit.run tech in
  let report = Drift.check ~baseline audit in
  if Drift.has_regressions report then
    Alcotest.failf "drift against AUDIT_accuracy.json:\n%s"
      (Format.asprintf "%a" Drift.pp report);
  Alcotest.(check int) "no unmatched stages" 0 report.Drift.unmatched;
  Alcotest.(check bool) "metrics were compared" true (report.Drift.deltas <> []);
  let overall = audit.Audit.overall.Audit.avg_accuracy_pct in
  if not (overall >= 98.0) then
    Alcotest.failf "average accuracy %.2f %% over the catalog is below 98 %%" overall;
  Schema.audit "Audit.to_json" (Audit.to_json audit);
  List.iter
    (fun name -> ignore (Schema.list "Drift.to_json" name (Drift.to_json report)))
    [ "regressed"; "improved" ]

let () =
  Alcotest.run "tqwm_audit"
    [
      ("catalog", [ Alcotest.test_case "families and keys" `Quick test_catalog ]);
      ( "accuracy",
        [
          Alcotest.test_case "decoder tree >= 98%" `Slow test_decoder_accuracy;
          Alcotest.test_case "feeds audit.* metrics" `Slow test_audit_feeds_metrics;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sequential == 4-domain" `Slow
            test_sequential_equals_parallel;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "worker domains count allocation" `Slow
            test_workers_count_allocation;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "JSON round-trip" `Slow test_json_roundtrip;
          Alcotest.test_case "ledger append/load with stamps" `Slow
            test_ledger_roundtrip;
        ] );
      ( "drift",
        [
          Alcotest.test_case "tolerance classification" `Quick
            test_classify_tolerances;
          Alcotest.test_case "self-comparison unchanged" `Slow
            test_self_comparison_unchanged;
          Alcotest.test_case "perturbed solver regresses" `Slow
            test_perturbed_config_regresses;
          Alcotest.test_case "classification counters" `Slow
            test_drift_feeds_counters;
          Alcotest.test_case "unmatched stages" `Slow
            test_unmatched_stages_counted;
          Alcotest.test_case "committed baseline" `Slow test_committed_baseline;
        ] );
    ]
