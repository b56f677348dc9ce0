#!/usr/bin/env python3
"""Validate the repo's JSON ledgers and CI telemetry artifacts.

Every machine-readable document this repo commits or produces in CI is
either a *ledger* (a JSON array of date+commit-stamped run records, each
carrying a ``schema`` version string — see Tqwm_obs.Ledger), a single
schema-versioned object (reports, budgets), a Chrome trace
(``traceEvents``) or a metrics snapshot (``counters``). This checker
dispatches on those shapes and validates required fields per schema
version; an unknown schema version is an error, never a skip — a
consumer that cannot identify a record must not pretend it checked it.

Usage: check_ledgers.py FILE [FILE...]
Exit status 0 when every file validates, 1 otherwise (missing files are
reported but tolerated with --allow-missing, for CI legs whose optional
artifacts did not run).
"""

import json
import sys


class Invalid(Exception):
    pass


def fail(msg):
    raise Invalid(msg)


def expect(obj, field, types, ctx):
    if not isinstance(obj, dict):
        fail(f"{ctx}: expected an object, got {type(obj).__name__}")
    if field not in obj:
        fail(f"{ctx}: missing required field {field!r}")
    value = obj[field]
    if not isinstance(value, types):
        names = (
            "/".join(t.__name__ for t in types)
            if isinstance(types, tuple)
            else types.__name__
        )
        fail(f"{ctx}: field {field!r} is {type(value).__name__}, wanted {names}")
    return value


NUM = (int, float)


def check_cache(obj, ctx):
    for field in ("hits", "misses"):
        expect(obj, field, int, ctx)
    expect(obj, "hit_rate", NUM, ctx)


def check_bench_parallel(record, ctx, version):
    expect(record, "smoke", bool, ctx)
    expect(record, "domains", int, ctx)
    if version >= 2 or "available_cores" in record:
        expect(record, "available_cores", int, ctx)
    # the oversubscription flag arrived mid-version-1; /2 requires it
    if version >= 2 or "degraded" in record:
        expect(record, "degraded", bool, ctx)
    # /2 recorded which of two schedulers ran and an A/B column for the
    # other; /3 has one scheduler and drops both
    if version == 2:
        scheduler = expect(record, "scheduler", str, ctx)
        if scheduler not in ("steal", "ready"):
            fail(f"{ctx}: unknown scheduler {scheduler!r}")
    if version >= 2:
        chunk_size = expect(record, "chunk_size", int, ctx)
        if chunk_size < 0:
            fail(f"{ctx}: chunk_size {chunk_size} < 0 (0 means auto)")
    workloads = expect(record, "workloads", list, ctx)
    if not workloads:
        fail(f"{ctx}: empty workloads list")
    for i, row in enumerate(workloads):
        rctx = f"{ctx}: workloads[{i}]"
        expect(row, "name", str, rctx)
        expect(row, "stages", int, rctx)
        for field in ("seq_ms", "par_ms", "speedup", "warm_ms"):
            expect(row, field, NUM, rctx)
        expect(row, "identical", bool, rctx)
        check_cache(expect(row, "cache", dict, rctx), rctx + ".cache")
        if version == 2:
            for field in ("ready_ms", "speedup_ready"):
                expect(row, field, NUM, rctx)
        if version >= 2:
            for field in ("steals", "chunks"):
                if expect(row, field, int, rctx) < 0:
                    fail(f"{rctx}: negative {field}")
            # the oversubscription flag is stamped per scenario row so a
            # record cut out of the ledger stays honest on its own
            expect(row, "degraded", bool, rctx)


def check_bench_incr(record, ctx):
    expect(record, "smoke", bool, ctx)
    workload = expect(record, "workload", dict, ctx)
    expect(workload, "name", str, ctx + ".workload")
    expect(workload, "stages", int, ctx + ".workload")
    expect(record, "edits", int, ctx)
    for field in ("full_ms_per_edit", "incr_ms_per_edit", "speedup", "reeval_fraction"):
        expect(record, field, NUM, ctx)
    expect(record, "identical", bool, ctx)
    cutoff = expect(record, "cutoff", dict, ctx)
    expect(cutoff, "neutral_edit_reeval", int, ctx + ".cutoff")
    expect(cutoff, "cutoff_hits", int, ctx + ".cutoff")


def check_bench_alloc(record, ctx, version=1):
    expect(record, "smoke", bool, ctx)
    expect(record, "solves_per_mode", int, ctx)
    if version >= 2:
        # /2 stamps the numeric-core backing store and an arena section
        # measuring one SoA-arena propagation of a decoder tree
        storage = expect(record, "storage", str, ctx)
        if storage != "bigarray-float64":
            fail(f"{ctx}: unknown storage {storage!r}")
        arena = expect(record, "arena", dict, ctx)
        actx = ctx + ".arena"
        expect(arena, "workload", str, actx)
        for field in ("stages", "levels", "packed_floats"):
            if expect(arena, field, int, actx) <= 0:
                fail(f"{actx}: {field} is not positive")
        if not expect(arena, "minor_words_per_stage", NUM, actx) >= 0:
            fail(f"{actx}: minor_words_per_stage is negative")
    scenarios = expect(record, "scenarios", list, ctx)
    if not scenarios:
        fail(f"{ctx}: empty scenarios list")
    for i, row in enumerate(scenarios):
        rctx = f"{ctx}: scenarios[{i}]"
        expect(row, "name", str, rctx)
        for mode in ("cold", "warm"):
            m = expect(row, mode, dict, rctx)
            expect(m, "solver_words_per_region", NUM, f"{rctx}.{mode}")
            expect(m, "ms_per_solve", NUM, f"{rctx}.{mode}")


def check_audit(record, ctx):
    workloads = expect(record, "workloads", list, ctx)
    if not workloads:
        fail(f"{ctx}: empty workloads list")
    for i, row in enumerate(workloads):
        expect(row, "name", str, f"{ctx}: workloads[{i}]")
        expect(row, "avg_accuracy_pct", NUM, f"{ctx}: workloads[{i}]")
    overall = expect(record, "overall", dict, ctx)
    for field in ("stages", "avg_accuracy_pct", "runtime_ratio"):
        expect(overall, field, NUM, ctx + ".overall")
    # drift appears on gated CI reports, not on baseline ledger records
    if "drift" in record:
        drift = expect(record, "drift", dict, ctx)
        for field in ("regressed", "improved"):
            expect(drift, field, list, ctx + ".drift")


def check_alloc_budget(record, ctx):
    budget = expect(record, "solver_words_per_region", dict, ctx)
    if not budget:
        fail(f"{ctx}: empty budget")
    for name, words in budget.items():
        if not isinstance(words, NUM):
            fail(f"{ctx}: budget for {name!r} is not a number")


def check_sta_report(record, ctx):
    stages = expect(record, "stages", list, ctx)
    if not stages:
        fail(f"{ctx}: empty stages list")
    for i, row in enumerate(stages):
        rctx = f"{ctx}: stages[{i}]"
        expect(row, "id", int, rctx)
        for field in ("arrival_in_ps", "delay_ps", "slew_ps", "arrival_out_ps"):
            expect(row, field, NUM, rctx)
    expect(record, "critical_path", list, ctx)
    expect(record, "worst_arrival_ps", NUM, ctx)


def check_incr_report(record, ctx):
    mode = expect(record, "mode", str, ctx)
    if mode not in ("incremental", "scratch"):
        fail(f"{ctx}: unknown mode {mode!r}")
    analysis = expect(record, "analysis", dict, ctx)
    check_sta_report(analysis, ctx + ".analysis")
    # scripts that set a clock also report the slack aggregates
    if "timing" in record:
        timing = expect(record, "timing", dict, ctx)
        for field in ("clock_period_ps", "wns_ps", "tns_ps", "worst_slack_ps"):
            expect(timing, field, NUM, ctx + ".timing")
    stats = expect(record, "stats", dict, ctx)
    for field in ("edits", "recomputes", "stages_reeval", "cutoff_hits"):
        expect(stats, field, int, ctx + ".stats")


def check_timing_report(record, ctx):
    """tqwm-report/1: the k-worst-path / slack document of
    ``qwm_sim --report-timing --json`` — a pure function of the analysis,
    so CI additionally diffs the bytes across domain counts; here we
    validate the shape."""
    for field in ("clock_period_ps", "wns_ps", "tns_ps", "worst_slack_ps",
                  "worst_arrival_ps"):
        expect(record, field, NUM, ctx)
    clock = record["clock_period_ps"]
    if not clock > 0:
        fail(f"{ctx}: clock_period_ps {clock} is not positive")
    endpoints = expect(record, "endpoints", list, ctx)
    if not endpoints:
        fail(f"{ctx}: empty endpoints list")
    for i, row in enumerate(endpoints):
        rctx = f"{ctx}: endpoints[{i}]"
        expect(row, "id", int, rctx)
        expect(row, "name", str, rctx)
        for field in ("arrival_ps", "required_ps", "slack_ps"):
            expect(row, field, NUM, rctx)
    # WNS must be the worst endpoint slack the document itself carries
    wns = record["wns_ps"]
    worst = min(e["slack_ps"] for e in endpoints)
    if abs(wns - worst) > 1e-6:
        fail(f"{ctx}: wns_ps {wns} disagrees with endpoint slacks (min {worst})")
    stages = expect(record, "stages", list, ctx)
    if not stages:
        fail(f"{ctx}: empty stages list")
    for i, row in enumerate(stages):
        rctx = f"{ctx}: stages[{i}]"
        expect(row, "id", int, rctx)
        for field in ("arrival_in_ps", "delay_ps", "slew_ps", "arrival_out_ps",
                      "required_ps", "slack_ps"):
            expect(row, field, NUM, rctx)
    paths = expect(record, "paths", list, ctx)
    prev_slack = None
    for i, path in enumerate(paths):
        pctx = f"{ctx}: paths[{i}]"
        if expect(path, "rank", int, pctx) != i + 1:
            fail(f"{pctx}: rank is not {i + 1}")
        slack = expect(path, "slack_ps", NUM, pctx)
        if prev_slack is not None and slack < prev_slack - 1e-9:
            fail(f"{pctx}: slack {slack} out of order (worst first)")
        prev_slack = slack
        expect(path, "arrival_ps", NUM, pctx)
        through = expect(path, "stages", list, pctx)
        if not through:
            fail(f"{pctx}: empty stage attribution")
        for j, row in enumerate(through):
            sctx = f"{pctx}: stages[{j}]"
            expect(row, "id", int, sctx)
            expect(row, "name", str, sctx)
            for field in ("arrival_in_ps", "delay_ps", "arrival_out_ps"):
                expect(row, field, NUM, sctx)
            for field in ("regions", "newton_iterations", "cache_uses"):
                if expect(row, field, int, sctx) < 0:
                    fail(f"{sctx}: negative {field}")


# the daemon's verb vocabulary (lib/server/server.ml); a bench record
# naming any other verb is malformed, not merely novel
SERVER_VERBS = frozenset(
    ("load", "edit", "script", "report", "query", "timing", "slack",
     "explain", "document", "metrics", "health", "stats", "trace", "close"))

VERB_LATENCY_FIELDS = frozenset(("count", "p50_ms", "p99_ms"))


def check_bench_server(record, ctx):
    expect(record, "smoke", bool, ctx)
    for field in ("workers", "clients", "sessions", "rounds", "requests"):
        if expect(record, field, int, ctx) < 0:
            fail(f"{ctx}: negative {field}")
    if record["sessions"] < record["clients"]:
        fail(f"{ctx}: sessions {record['sessions']} < clients {record['clients']}")
    for field in ("duration_s", "qps"):
        if not expect(record, field, NUM, ctx) >= 0:
            fail(f"{ctx}: {field} is not a non-negative number")
    expect(record, "available_cores", int, ctx)
    expect(record, "degraded", bool, ctx)
    graph = expect(record, "graph", dict, ctx)
    expect(graph, "name", str, ctx + ".graph")
    for field in ("fanout", "depth", "stages"):
        expect(graph, field, int, ctx + ".graph")
    verbs = expect(record, "verbs", dict, ctx)
    if not verbs:
        fail(f"{ctx}: empty verbs table")
    for verb, lat in verbs.items():
        vctx = f"{ctx}: verbs[{verb!r}]"
        if verb not in SERVER_VERBS:
            known = ", ".join(sorted(SERVER_VERBS))
            fail(f"{vctx}: unknown verb (known: {known})")
        if expect(lat, "count", int, vctx) <= 0:
            fail(f"{vctx}: count is not positive")
        for field in ("p50_ms", "p99_ms"):
            if not expect(lat, field, NUM, vctx) >= 0:
                fail(f"{vctx}: {field} is not a non-negative number")
        # latency entries are a closed shape: an unrecognized field means
        # the bench and the checker disagree about the schema
        unknown = set(lat) - VERB_LATENCY_FIELDS
        if unknown:
            fail(f"{vctx}: unknown latency fields {sorted(unknown)}")
    if expect(record, "identical", bool, ctx) is not True:
        fail(f"{ctx}: server replay and offline documents differ")


def check_bench_report(record, ctx):
    expect(record, "smoke", bool, ctx)
    workload = expect(record, "workload", dict, ctx)
    expect(workload, "name", str, ctx + ".workload")
    expect(workload, "stages", int, ctx + ".workload")
    expect(record, "k", int, ctx)
    expect(record, "domains", int, ctx)
    for field in ("seq_ms", "par_ms", "clock_period_ps", "wns_ps", "tns_ps"):
        expect(record, field, NUM, ctx)
    if expect(record, "identical", bool, ctx) is not True:
        fail(f"{ctx}: sequential and parallel reports differ")
    paths = expect(record, "paths", list, ctx)
    if not paths:
        fail(f"{ctx}: empty paths list")
    for i, path in enumerate(paths):
        pctx = f"{ctx}: paths[{i}]"
        expect(path, "stages", int, pctx)
        for field in ("arrival_ps", "slack_ps"):
            expect(path, field, NUM, pctx)


def check_bench_obs(record, ctx):
    """tqwm-bench-obs/1: telemetry-overhead comparison from
    ``bench --table obs`` — the same serving workload with tracing and
    the access log off, then on."""
    expect(record, "smoke", bool, ctx)
    for field in ("workers", "clients", "rounds"):
        if expect(record, field, int, ctx) < 1:
            fail(f"{ctx}: {field} is not positive")
    passes = {}
    for mode in ("off", "on"):
        m = expect(record, mode, dict, ctx)
        mctx = f"{ctx}.{mode}"
        if expect(m, "requests", int, mctx) <= 0:
            fail(f"{mctx}: requests is not positive")
        for field in ("duration_s", "qps"):
            if not expect(m, field, NUM, mctx) > 0:
                fail(f"{mctx}: {field} is not positive")
        passes[mode] = m
    on = passes["on"]
    if expect(on, "trace_events", int, ctx + ".on") <= 0:
        fail(f"{ctx}.on: no trace events captured")
    if expect(on, "log_lines", int, ctx + ".on") < on["requests"]:
        fail(f"{ctx}.on: {on['log_lines']} access-log lines for "
             f"{on['requests']} requests")
    expect(record, "overhead_pct", NUM, ctx)


# the daemon access log's closed record shape (lib/server/server.ml);
# a line with unknown or missing fields means the server and this
# checker disagree about the schema, which must fail loudly
ACCESS_LOG_FIELDS = frozenset(
    ("ts", "request", "session", "verb", "outcome", "bytes_in",
     "bytes_out", "latency_us"))

# Protocol.error codes plus "ok" (lib/server/protocol.ml)
ACCESS_LOG_OUTCOMES = frozenset(
    ("ok", "parse_error", "unknown_verb", "bad_request", "script_error",
     "oversized_line", "server_full", "internal"))


def check_access_record(record, ctx):
    if not isinstance(record, dict):
        fail(f"{ctx}: not an object")
    unknown = set(record) - ACCESS_LOG_FIELDS
    if unknown:
        fail(f"{ctx}: unknown fields {sorted(unknown)}")
    missing = ACCESS_LOG_FIELDS - set(record)
    if missing:
        fail(f"{ctx}: missing fields {sorted(missing)}")
    for field in ("ts", "latency_us"):
        if not expect(record, field, NUM, ctx) >= 0:
            fail(f"{ctx}: {field} is negative")
    for field in ("bytes_in", "bytes_out"):
        if expect(record, field, int, ctx) < 0:
            fail(f"{ctx}: {field} is negative")
    for field in ("request", "session", "outcome"):
        if not expect(record, field, str, ctx):
            fail(f"{ctx}: empty {field}")
    if record["outcome"] not in ACCESS_LOG_OUTCOMES:
        known = ", ".join(sorted(ACCESS_LOG_OUTCOMES))
        fail(f"{ctx}: unknown outcome {record['outcome']!r} (known: {known})")
    # unparsed frames (parse errors, oversized lines) log verb "-"
    if not expect(record, "verb", str, ctx):
        fail(f"{ctx}: empty verb")


def check_access_log(path):
    """One JSON object per line, every line whole and schema-complete —
    a torn concurrent write surfaces here as a parse failure."""
    records = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            ctx = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{ctx}: not valid JSON ({e})")
            check_access_record(record, ctx)
            records += 1
    if not records:
        fail(f"{path}: empty access log")
    return f"access log, {records} records"


SCHEMAS = {
    "tqwm-bench-parallel/1": lambda r, c: check_bench_parallel(r, c, 1),
    "tqwm-bench-parallel/2": lambda r, c: check_bench_parallel(r, c, 2),
    "tqwm-bench-parallel/3": lambda r, c: check_bench_parallel(r, c, 3),
    "tqwm-bench-incr/1": check_bench_incr,
    "tqwm-bench-alloc/1": check_bench_alloc,
    "tqwm-bench-alloc/2": lambda r, c: check_bench_alloc(r, c, 2),
    "tqwm-audit/1": check_audit,
    "tqwm-alloc-budget/1": check_alloc_budget,
    "tqwm-sta-report/1": check_sta_report,
    "tqwm-incr-report/1": check_incr_report,
    "tqwm-report/1": check_timing_report,
    "tqwm-bench-report/1": check_bench_report,
    "tqwm-bench-server/1": check_bench_server,
    "tqwm-bench-obs/1": check_bench_obs,
}


def check_versioned(record, ctx):
    schema = expect(record, "schema", str, ctx)
    checker = SCHEMAS.get(schema)
    if checker is None:
        known = ", ".join(sorted(SCHEMAS))
        fail(f"{ctx}: unknown schema version {schema!r} (known: {known})")
    checker(record, f"{ctx} [{schema}]")
    return schema


def check_ledger(records, ctx):
    if not records:
        fail(f"{ctx}: empty ledger")
    schemas = []
    for i, record in enumerate(records):
        rctx = f"{ctx}: record {i}"
        if not isinstance(record, dict):
            fail(f"{rctx}: not an object")
        # Tqwm_obs.Ledger stamps every appended record; the earliest
        # records of committed ledgers predate stamping, so the stamps
        # are type-checked when present rather than required
        for stamp in ("date", "commit"):
            if stamp in record and not isinstance(record[stamp], str):
                fail(f"{rctx}: stamp {stamp!r} is not a string")
        schemas.append(check_versioned(record, rctx))
    return f"ledger, {len(records)} records ({', '.join(sorted(set(schemas)))})"


def check_trace(doc, ctx):
    events = expect(doc, "traceEvents", list, ctx)
    for i, event in enumerate(events):
        ectx = f"{ctx}: traceEvents[{i}]"
        expect(event, "name", str, ectx)
        expect(event, "ph", str, ectx)
    return f"chrome trace, {len(events)} events"


def check_metrics(doc, ctx):
    counters = expect(doc, "counters", dict, ctx)
    for name, value in counters.items():
        if not isinstance(value, int):
            fail(f"{ctx}: counter {name!r} is not an integer")
    # gauges arrived with the timing-observability surface; older
    # snapshots lack the section, so it is validated when present
    gauges = doc.get("gauges", {})
    if not isinstance(gauges, dict):
        fail(f"{ctx}: gauges is not an object")
    for name, value in gauges.items():
        if not isinstance(value, NUM) and value is not None:
            fail(f"{ctx}: gauge {name!r} is not a number")
    extra = f", {len(gauges)} gauges" if gauges else ""
    return f"metrics snapshot, {len(counters)} counters{extra}"


def check_file(path):
    # the access log is JSON *lines*, not a single JSON document
    if path.endswith(".jsonl"):
        return check_access_log(path)
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, list):
        return check_ledger(doc, path)
    if isinstance(doc, dict):
        if "traceEvents" in doc:
            return check_trace(doc, path)
        if "counters" in doc:
            return check_metrics(doc, path)
        if "schema" in doc:
            schema = check_versioned(doc, path)
            return f"single record [{schema}]"
        fail(f"{path}: object with neither schema, traceEvents nor counters")
    fail(f"{path}: top level is {type(doc).__name__}, wanted object or array")


def _server_sample():
    return {
        "schema": "tqwm-bench-server/1",
        "date": "2026-08-08",
        "commit": "0000000",
        "smoke": True,
        "workers": 2,
        "clients": 4,
        "sessions": 5,
        "rounds": 5,
        "requests": 90,
        "duration_s": 0.07,
        "qps": 1285.7,
        "available_cores": 1,
        "degraded": True,
        "graph": {"name": "decoder-tree", "fanout": 3, "depth": 2, "stages": 13},
        "verbs": {
            "load": {"count": 4, "p50_ms": 1.2, "p99_ms": 3.4},
            "edit": {"count": 20, "p50_ms": 0.4, "p99_ms": 1.1},
            "timing": {"count": 4, "p50_ms": 2.0, "p99_ms": 2.8},
        },
        "identical": True,
    }


def _obs_sample():
    return {
        "schema": "tqwm-bench-obs/1",
        "date": "2026-08-08",
        "commit": "0000000",
        "smoke": True,
        "workers": 2,
        "clients": 2,
        "rounds": 5,
        "off": {"requests": 32, "duration_s": 0.05, "qps": 640.0},
        "on": {"requests": 32, "duration_s": 0.06, "qps": 533.3,
               "trace_events": 250, "log_lines": 34},
        "overhead_pct": 16.7,
    }


def _alloc2_sample():
    return {
        "schema": "tqwm-bench-alloc/2",
        "date": "2026-08-08",
        "commit": "0000000",
        "smoke": True,
        "solves_per_mode": 200,
        "storage": "bigarray-float64",
        "scenarios": [
            {
                "name": "stack6",
                "cold": {"solver_words_per_region": 2742.1, "ms_per_solve": 0.26},
                "warm": {"solver_words_per_region": 2742.1, "ms_per_solve": 0.28},
            }
        ],
        "arena": {
            "workload": "decoder-tree",
            "stages": 13,
            "levels": 3,
            "packed_floats": 990,
            "minor_words_per_stage": 94663.0,
        },
    }


def _parallel3_sample():
    return {
        "schema": "tqwm-bench-parallel/3",
        "date": "2026-10-17",
        "commit": "0000000",
        "smoke": True,
        "domains": 2,
        "chunk_size": 0,
        "available_cores": 2,
        "degraded": True,
        "workloads": [
            {
                "name": "decoder-tree",
                "stages": 13,
                "seq_ms": 4.1,
                "par_ms": 6.0,
                "speedup": 0.68,
                "steals": 1,
                "chunks": 6,
                "degraded": True,
                "identical": True,
                "cache": {"hits": 11, "misses": 2, "hit_rate": 0.85},
                "warm_ms": 0.9,
            }
        ],
    }


def _parallel2_sample():
    record = _parallel3_sample()
    record["schema"] = "tqwm-bench-parallel/2"
    record["scheduler"] = "steal"
    record["workloads"][0].update({"ready_ms": 6.5, "speedup_ready": 0.63})
    return record


def _access_sample():
    return {
        "ts": 1754600000.25,
        "request": "s1.r1",
        "session": "s1",
        "verb": "load",
        "outcome": "ok",
        "bytes_in": 34,
        "bytes_out": 86,
        "latency_us": 42.5,
    }


def self_test():
    """Unit-check the validators against known-good and known-bad records
    (run by CI so schema drift in this file itself fails loudly)."""
    cases = []

    def bad(label, mutate, sample=_server_sample):
        record = sample()
        mutate(record)
        cases.append((label, record, False, check_versioned))

    cases.append(("good server record", _server_sample(), True,
                  check_versioned))
    bad("unknown verb", lambda r: r["verbs"].update(
        {"frobnicate": {"count": 1, "p50_ms": 0.1, "p99_ms": 0.1}}))
    bad("unknown latency field", lambda r: r["verbs"]["load"].update(
        {"p95_ms": 2.0}))
    bad("missing percentile", lambda r: r["verbs"]["edit"].pop("p99_ms"))
    bad("non-identical replay", lambda r: r.update({"identical": False}))
    bad("negative qps", lambda r: r.update({"qps": -1.0}))
    bad("sessions below clients", lambda r: r.update({"sessions": 2}))
    bad("unknown schema", lambda r: r.update({"schema": "tqwm-bench-server/9"}))
    # observability verbs are part of the closed vocabulary
    cases.append(("stats verb accepted", dict(
        _server_sample(), verbs={
            "stats": {"count": 2, "p50_ms": 0.1, "p99_ms": 0.2}}), True,
        check_versioned))

    cases.append(("good alloc/2 record", _alloc2_sample(), True,
                  check_versioned))
    bad("alloc/2 missing storage", lambda r: r.pop("storage"), _alloc2_sample)
    bad("alloc/2 unknown storage",
        lambda r: r.update({"storage": "boxed-float-array"}), _alloc2_sample)
    bad("alloc/2 missing arena", lambda r: r.pop("arena"), _alloc2_sample)
    bad("alloc/2 zero packed floats",
        lambda r: r["arena"].update({"packed_floats": 0}), _alloc2_sample)
    # alloc/1 records never carried storage/arena — they must keep
    # validating without them
    alloc1 = _alloc2_sample()
    alloc1["schema"] = "tqwm-bench-alloc/1"
    del alloc1["storage"], alloc1["arena"]
    cases.append(("good alloc/1 record (no storage/arena)", alloc1, True,
                  check_versioned))

    # ledger stamps are type-checked when present, not required: the
    # earliest committed records predate Tqwm_obs.Ledger stamping, so a
    # date-less seed record must validate...
    dateless = _alloc2_sample()
    del dateless["date"], dateless["commit"]
    cases.append(("ledger with date-less seed record",
                  [dateless, _alloc2_sample()], True, check_ledger))
    # ...while a present-but-mistyped stamp must not
    mistyped = _alloc2_sample()
    mistyped["date"] = 20260808
    cases.append(("ledger with non-string date stamp", [mistyped], False,
                  check_ledger))

    cases.append(("good parallel/3 record", _parallel3_sample(), True,
                  check_versioned))
    bad("parallel/3 missing chunk_size", lambda r: r.pop("chunk_size"),
        _parallel3_sample)
    bad("parallel/3 negative steals",
        lambda r: r["workloads"][0].update({"steals": -1}), _parallel3_sample)
    bad("parallel/3 row missing degraded",
        lambda r: r["workloads"][0].pop("degraded"), _parallel3_sample)
    bad("parallel/3 empty workloads", lambda r: r.update({"workloads": []}),
        _parallel3_sample)
    # /2 keeps requiring its scheduler fields and A/B columns
    cases.append(("good parallel/2 record", _parallel2_sample(), True,
                  check_versioned))
    bad("parallel/2 missing scheduler", lambda r: r.pop("scheduler"),
        _parallel2_sample)
    bad("parallel/2 missing ready_ms",
        lambda r: r["workloads"][0].pop("ready_ms"), _parallel2_sample)

    cases.append(("good obs record", _obs_sample(), True, check_versioned))
    bad("obs zero trace events",
        lambda r: r["on"].update({"trace_events": 0}), _obs_sample)
    bad("obs lost log lines",
        lambda r: r["on"].update({"log_lines": 3}), _obs_sample)
    bad("obs zero duration",
        lambda r: r["off"].update({"duration_s": 0}), _obs_sample)
    bad("obs missing on pass", lambda r: r.pop("on"), _obs_sample)

    def bad_access(label, mutate):
        record = _access_sample()
        mutate(record)
        cases.append((label, record, False, check_access_record))

    cases.append(("good access record", _access_sample(), True,
                  check_access_record))
    cases.append(("access unparsed frame", dict(
        _access_sample(), verb="-", outcome="parse_error", bytes_in=12), True,
        check_access_record))
    bad_access("access unknown field", lambda r: r.update({"user": "root"}))
    bad_access("access missing latency", lambda r: r.pop("latency_us"))
    bad_access("access unknown outcome", lambda r: r.update(
        {"outcome": "mostly_ok"}))
    bad_access("access empty verb", lambda r: r.update({"verb": ""}))
    bad_access("access negative bytes", lambda r: r.update({"bytes_out": -1}))
    bad_access("access string ts", lambda r: r.update({"ts": "yesterday"}))

    failures = 0
    for label, record, expect_ok, checker in cases:
        try:
            checker(record, f"self-test: {label}")
            outcome = True
            detail = "validated"
        except Invalid as e:
            outcome = False
            detail = str(e)
        if outcome == expect_ok:
            print(f"self-test: {label}: OK ({detail})")
        else:
            verdict = "accepted" if outcome else "rejected"
            print(f"self-test: {label}: FAIL (wrongly {verdict}: {detail})",
                  file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    allow_missing = "--allow-missing" in argv
    paths = [a for a in argv[1:] if a != "--allow-missing"]
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        try:
            print(f"{path}: OK ({check_file(path)})")
        except FileNotFoundError:
            if allow_missing:
                print(f"{path}: missing (tolerated)")
            else:
                print(f"{path}: MISSING", file=sys.stderr)
                failures += 1
        except (Invalid, json.JSONDecodeError) as e:
            print(f"{path}: FAIL: {e}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
