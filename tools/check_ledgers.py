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
The records of the frozen BENCH_parallel.json history are identified by
name only (see FROZEN_SCHEMAS).

Usage: check_ledgers.py FILE [FILE...]
Exit status 0 when every file validates, 1 otherwise (missing files are
reported but tolerated with --allow-missing, for CI legs whose optional
artifacts did not run).
"""

import copy
import json
import os
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
    work = expect(record, "solver_work_per_region", dict, ctx)
    if not work:
        fail(f"{ctx}: empty work budget")
    for name, ceilings in work.items():
        for field in ("newton_iterations", "device_calls"):
            value = expect(ceilings, field, NUM, f"{ctx}.solver_work_per_region.{name}")
            if not value > 0:
                fail(f"{ctx}: {name} {field} ceiling {value} is not positive")


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
    "tqwm-audit/1": check_audit,
    "tqwm-alloc-budget/1": check_alloc_budget,
    "tqwm-sta-report/1": check_sta_report,
    "tqwm-incr-report/1": check_incr_report,
    "tqwm-report/1": check_timing_report,
}

# The bench tables that wrote these schema versions are gone, and
# BENCH_parallel.json, the one file holding their records, is frozen
# history. A record under one of these names needs only be an object
# with a string schema (check_ledger types its stamps); any other
# unknown schema still fails.
FROZEN_SCHEMAS = frozenset(
    ("tqwm-bench-parallel/1", "tqwm-bench-parallel/2", "tqwm-bench-incr/1",
     "tqwm-bench-alloc/1", "tqwm-bench-alloc/2", "tqwm-bench-server/1",
     "tqwm-bench-obs/1"))


def check_versioned(record, ctx):
    schema = expect(record, "schema", str, ctx)
    if schema in FROZEN_SCHEMAS:
        return schema
    checker = SCHEMAS.get(schema)
    if checker is None:
        known = ", ".join(sorted(SCHEMAS.keys() | FROZEN_SCHEMAS))
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


def _load(path):
    """A committed document, by its path from the repository root."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, path)) as f:
        return json.load(f)


def self_test():
    """Unit-check the validators against known-good and known-bad records
    (run by CI so schema drift in this file itself fails loudly). The
    good cases are the committed documents themselves."""
    cases = []

    def case(label, expect_ok, checker, sample, mutate=None):
        doc = copy.deepcopy(sample)
        if mutate:
            mutate(doc)
        cases.append((label, doc, expect_ok, checker))

    frozen = _load("BENCH_parallel.json")
    case("frozen history", True, check_ledger, frozen)
    # no tqwm-bench-parallel/3 record was ever committed
    case("never-committed bench schema", False, check_ledger, frozen,
         lambda r: r.append({"schema": "tqwm-bench-parallel/3"}))

    audit = _load("AUDIT_accuracy.json")[-1]
    case("good audit record", True, check_versioned, audit)
    case("audit empty workloads", False, check_versioned, audit,
         lambda r: r.update({"workloads": []}))
    case("audit missing runtime ratio", False, check_versioned, audit,
         lambda r: r["overall"].pop("runtime_ratio"))
    # ledger stamps are type-checked when present, not required: the
    # earliest committed records predate Tqwm_obs.Ledger stamping, so a
    # date-less seed record must validate...
    case("ledger with date-less seed record", True, check_ledger,
         [audit, audit], lambda r: (r[0].pop("date"), r[0].pop("commit")))
    # ...while a present-but-mistyped stamp must not
    case("ledger with non-string date stamp", False, check_ledger, [audit],
         lambda r: r[0].update({"date": 20260808}))

    budget = _load("ALLOC_budget.json")
    case("good alloc budget", True, check_versioned, budget)
    case("alloc budget empty", False, check_versioned, budget,
         lambda r: r.update({"solver_words_per_region": {}}))
    case("alloc budget not a number", False, check_versioned, budget,
         lambda r: r["solver_words_per_region"].update({"stack6": "3000"}))
    case("work budget without device calls", False, check_versioned, budget,
         lambda r: r["solver_work_per_region"]["stack6"].pop("device_calls"))

    incr = _load("test/golden/eco-offline-incr.json")
    case("good incr report", True, check_versioned, incr)
    case("incr unknown mode", False, check_versioned, incr,
         lambda r: r.update({"mode": "lazy"}))
    case("incr stats missing cutoff hits", False, check_versioned, incr,
         lambda r: r["stats"].pop("cutoff_hits"))
    case("good sta report", True, check_versioned, incr["analysis"])
    case("sta report empty stages", False, check_versioned, incr["analysis"],
         lambda r: r.update({"stages": []}))

    timing = _load("test/golden/eco-offline-timing.json")
    case("good timing report", True, check_versioned, timing)
    case("timing wns disagrees with endpoints", False, check_versioned,
         timing, lambda r: r.update({"wns_ps": r["wns_ps"] + 1.0}))
    case("timing path rank out of order", False, check_versioned, timing,
         lambda r: r["paths"][0].update({"rank": 2}))

    trace = {"traceEvents": [{"name": "sta.stage", "ph": "X"}]}
    case("good trace", True, check_trace, trace)
    case("trace event without phase", False, check_trace, trace,
         lambda r: r["traceEvents"][0].pop("ph"))
    metrics = {"counters": {"qwm.regions": 17}, "gauges": {"sta.wns": -1.5}}
    case("good metrics snapshot", True, check_metrics, metrics)
    case("metrics fractional counter", False, check_metrics, metrics,
         lambda r: r["counters"].update({"qwm.regions": 17.5}))

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
