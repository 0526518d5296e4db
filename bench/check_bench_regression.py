#!/usr/bin/env python3
"""Fail when a bench_scheduler_perf case regresses against the committed baseline.

Usage:
    check_bench_regression.py <baseline.json> <current.json> <case-name> [<case-name>...]
    check_bench_regression.py --selftest

Two gates per named engine case, both per job rather than per event:

  * throughput (`jobs / wall_seconds`) — fails when the current value falls
    more than the tolerance below the baseline's.
  * allocations per job (`allocs / jobs`) — fails when the current value
    rises more than the tolerance above the baseline's. Allocation counts
    come from the counting allocator in bench_alloc_hooks.cc and are
    deterministic modulo allocator-internal noise, so a >20% jump is a real
    leak of per-round or per-job work back onto the heap (the arena/SoA
    refactor is what the gate protects). Skipped with a note when either
    file predates the `allocs` field.

A case's job count is its `jobs` field, or `tenants x jobs_per_tenant` for
federation sweep rows. The gates are per job because the event count is not
a fixed amount of work: folding same-time duplicate completion checks cut
the 10k-job trace from 10.0M events to 73k while its wall time fell, which
events/sec and allocs/event would have read as regressions of more than an
order of magnitude. Where two builds process the same events for a case, the
per-job and per-event ratios are identical. `events_per_sec` is still
printed next to each gate.

Cases named `quality_*` are approximation-quality rows (the incremental
fast path replayed against the exact mode on the same trace) and are gated
against fixed envelopes instead of the baseline file:

  * `cost_delta` <= EVA_QUALITY_COST_TOL (default 0.10): the incremental
    run's provisioning cost may not exceed exact by more than 10%.
  * `jct_delta` <= EVA_QUALITY_JCT_TOL (default 0.05): average JCT may not
    degrade by more than 5%.
  * `jobs_completed_incremental` must equal `jobs_completed_exact`: the
    approximation must not lose jobs.

Quality rows are judged on the current run alone — divergence is a property
of this commit, not a trajectory — so they need no baseline entry.

Cases named `fault_*` are fault-injection rows (the same trace replayed with
the deterministic fault model on) and are likewise judged on the current run
alone:

  * `jobs_completed` must equal `jobs_completed_fault_free`: faults destroy
    in-flight work and delay jobs, they must never lose one.
  * `goodput_ratio` >= EVA_FAULT_GOODPUT_FLOOR (default 0.50): recovery
    overhead (re-executed work after kills) may not eat more than half the
    executed compute under the default fault regime.

Independent of the named gates, every row in the *current* file must carry
`schema_version` == EXPECTED_SCHEMA_VERSION (baseline files are exempt —
committed baselines may predate the field and are not regenerated), and any
row embedding a `telemetry` object must match the registry export schema:
known groups only (counters/gauges/histograms/series), dot-namespaced
metric names, sorted within each group, no empty groups. A producer that
drifts from the registry's serialization contract fails here rather than
corrupting downstream tooling silently.

The perf tolerance is EVA_BENCH_TOLERANCE (default 0.20 = 20%, the margin
CI grants for runner variance). A case missing from either file is an
error: a silently dropped case must not read as a pass.

Cases listed in WARN_ONLY are compared and reported but never fail the
check — the observation period for newly added sweep cases before they earn
a gate. (Currently the 100-tenant federation sweep point.)

`--selftest` runs the gates against built-in fixtures that must fail (and
one that must pass) — the negative test CI runs so a broken gate cannot
silently wave regressions through.
"""

import json
import os
import sys

# fed100_scale is the 100-tenant federation sweep point, in its observation
# period: its wall clock folds in thread-pool scheduling noise on shared CI
# runners, so it reports against BENCH_federation.json but cannot fail the
# job yet.
WARN_ONLY = {"fed100_scale"}

# Bench-row protocol version stamped by BenchJsonWriter::kSchemaVersion.
# Bump both together when the row layout changes.
EXPECTED_SCHEMA_VERSION = 2

# The registry export groups, in the order TelemetryRegistry::ToJson emits
# them. Empty groups are omitted from the export, never serialized as {}.
TELEMETRY_GROUPS = ("counters", "gauges", "histograms", "series")


def load_cases(path):
    with open(path) as handle:
        payload = json.load(handle)
    return {case["name"]: case for case in payload.get("cases", [])}


def case_jobs(case):
    """Jobs simulated by a perf row: `jobs`, or tenants x jobs_per_tenant."""
    if "jobs" in case:
        return case["jobs"]
    return case["tenants"] * case["jobs_per_tenant"]


def allocs_per_job(case):
    """allocs/job for a case, or None when the row predates the field."""
    allocs = case.get("allocs")
    if allocs is None:
        return None
    return allocs / case_jobs(case)


def telemetry_schema_errors(telemetry):
    """Schema violations in an embedded registry export, [] when clean."""
    if not isinstance(telemetry, dict):
        return ["telemetry is not an object"]
    errors = []
    for group in telemetry:
        if group not in TELEMETRY_GROUPS:
            errors.append(f"unknown telemetry group '{group}'")
    for group in TELEMETRY_GROUPS:
        if group not in telemetry:
            continue
        metrics = telemetry[group]
        if not isinstance(metrics, dict):
            errors.append(f"telemetry group '{group}' is not an object")
            continue
        if not metrics:
            errors.append(f"telemetry group '{group}' is empty (must be omitted)")
        names = list(metrics)
        if names != sorted(names):
            errors.append(f"telemetry group '{group}' keys are not sorted")
        for metric in names:
            if "." not in metric:
                errors.append(
                    f"telemetry metric '{metric}' in '{group}' lacks a "
                    "dot namespace"
                )
        if group == "counters":
            for metric, value in metrics.items():
                if not isinstance(value, int) or value < 0:
                    errors.append(
                        f"counter '{metric}' is not a non-negative integer"
                    )
    return errors


def check_current_schema(current):
    """schema_version + telemetry schema for every current row. Returns failed."""
    failed = False
    for name in sorted(current):
        case = current[name]
        version = case.get("schema_version")
        if version != EXPECTED_SCHEMA_VERSION:
            print(
                f"FAIL: {name}: schema_version {version!r} "
                f"(expected {EXPECTED_SCHEMA_VERSION})"
            )
            failed = True
        if "telemetry" in case:
            errors = telemetry_schema_errors(case["telemetry"])
            for error in errors:
                print(f"FAIL: {name}: {error}")
            failed = failed or bool(errors)
    if not failed:
        print(
            f"OK: {len(current)} current rows at schema_version "
            f"{EXPECTED_SCHEMA_VERSION}, embedded telemetry well-formed"
        )
    return failed


def check_perf_case(name, base, cur, tolerance, warn_only):
    """Jobs/sec + allocs/job gates for one engine case. Returns failed."""
    fail_verdict = "WARN" if warn_only else "FAIL"

    # Gate 1: throughput must not drop below (1 - tolerance) x baseline.
    base_jps = case_jobs(base) / base["wall_seconds"]
    cur_jps = case_jobs(cur) / cur["wall_seconds"]
    ratio = cur_jps / base_jps
    verdict = fail_verdict if ratio < 1.0 - tolerance else "OK"
    print(
        f"{verdict}: {name}: jobs/sec {cur_jps:,.1f} vs baseline {base_jps:,.1f} "
        f"(ratio {ratio:.3f}, floor {1.0 - tolerance:.2f}; events/sec "
        f"{cur.get('events_per_sec', 0.0):,.0f} vs "
        f"{base.get('events_per_sec', 0.0):,.0f}, not gated)"
    )
    failed = verdict == "FAIL"

    # Gate 2: allocs/job must not rise above (1 + tolerance) x baseline.
    base_apj = allocs_per_job(base)
    cur_apj = allocs_per_job(cur)
    if base_apj is None or cur_apj is None:
        print(f"NOTE: {name}: allocs/job not gated (field missing from a file)")
        return failed
    if base_apj > 0:
        apj_ratio = cur_apj / base_apj
    else:
        apj_ratio = float("inf") if cur_apj > 0 else 1.0
    verdict = fail_verdict if apj_ratio > 1.0 + tolerance else "OK"
    print(
        f"{verdict}: {name}: allocs/job {cur_apj:.2f} vs baseline {base_apj:.2f} "
        f"(ratio {apj_ratio:.3f}, ceiling {1.0 + tolerance:.2f})"
    )
    return failed or verdict == "FAIL"


def check_quality_case(name, cur, cost_tol, jct_tol, warn_only):
    """Approximation-quality envelope for one quality_* row. Returns failed."""
    fail_verdict = "WARN" if warn_only else "FAIL"
    failed = False

    cost_delta = cur["cost_delta"]
    verdict = fail_verdict if cost_delta > cost_tol else "OK"
    print(
        f"{verdict}: {name}: cost delta {cost_delta:+.4f} "
        f"(incremental {cur.get('cost_incremental', 0.0):,.2f} vs exact "
        f"{cur.get('cost_exact', 0.0):,.2f}, ceiling +{cost_tol:.2f})"
    )
    failed = failed or verdict == "FAIL"

    jct_delta = cur["jct_delta"]
    verdict = fail_verdict if jct_delta > jct_tol else "OK"
    print(
        f"{verdict}: {name}: JCT delta {jct_delta:+.4f} "
        f"(incremental {cur.get('jct_incremental_hours', 0.0):.4f}h vs exact "
        f"{cur.get('jct_exact_hours', 0.0):.4f}h, ceiling +{jct_tol:.2f})"
    )
    failed = failed or verdict == "FAIL"

    done_exact = cur.get("jobs_completed_exact")
    done_inc = cur.get("jobs_completed_incremental")
    if done_exact is not None or done_inc is not None:
        verdict = "OK" if done_exact == done_inc else fail_verdict
        print(
            f"{verdict}: {name}: jobs completed {done_inc} incremental vs "
            f"{done_exact} exact"
        )
        failed = failed or verdict == "FAIL"
    return failed


def check_fault_case(name, cur, goodput_floor, warn_only):
    """Lost-jobs + goodput gates for one fault_* row. Returns failed."""
    fail_verdict = "WARN" if warn_only else "FAIL"
    failed = False

    done = cur.get("jobs_completed")
    done_fault_free = cur.get("jobs_completed_fault_free")
    verdict = "OK" if done == done_fault_free else fail_verdict
    print(
        f"{verdict}: {name}: jobs completed {done} under faults vs "
        f"{done_fault_free} fault-free"
    )
    failed = failed or verdict == "FAIL"

    goodput = cur["goodput_ratio"]
    verdict = fail_verdict if goodput < goodput_floor else "OK"
    print(
        f"{verdict}: {name}: goodput {goodput:.4f} "
        f"(lost work {cur.get('lost_work_hours', 0.0):.2f}h over "
        f"{cur.get('tasks_lost', 0)} tasks, floor {goodput_floor:.2f})"
    )
    return failed or verdict == "FAIL"


def run_checks(baseline, current, names, tolerance, cost_tol, jct_tol,
               goodput_floor=0.50):
    failed = check_current_schema(current)
    for name in names:
        warn_only = name in WARN_ONLY
        missing_verdict = "WARN" if warn_only else "FAIL"
        if name not in current:
            print(f"{missing_verdict}: case '{name}' missing from current run")
            failed = failed or not warn_only
            continue
        if name.startswith("quality_"):
            failed |= check_quality_case(name, current[name], cost_tol, jct_tol, warn_only)
            continue
        if name.startswith("fault_"):
            failed |= check_fault_case(name, current[name], goodput_floor, warn_only)
            continue
        if name not in baseline:
            print(f"{missing_verdict}: case '{name}' missing from baseline")
            failed = failed or not warn_only
            continue
        failed |= check_perf_case(name, baseline[name], current[name], tolerance, warn_only)
    return failed


def selftest():
    """The gates must fire on known-bad fixtures and stay green on good ones."""
    good_perf = {
        "name": "c",
        "schema_version": EXPECTED_SCHEMA_VERSION,
        "jobs": 100,
        "wall_seconds": 1.0,
        "events": 1000,
        "events_per_sec": 1000.0,
        "allocs": 50,
    }
    slow_perf = dict(good_perf, wall_seconds=1.5, events_per_sec=666.7)
    leaky_perf = dict(good_perf, allocs=500)
    # The same jobs in the same wall time from 100x fewer events: a per-event
    # gate would read this as a 100x throughput drop and a 100x alloc jump.
    fewer_events = dict(good_perf, events=10, events_per_sec=10.0)
    good_quality = {
        "name": "quality_c",
        "schema_version": EXPECTED_SCHEMA_VERSION,
        "cost_delta": 0.05,
        "jct_delta": -0.01,
        "jobs_completed_exact": 10,
        "jobs_completed_incremental": 10,
    }
    good_fault = {
        "name": "fault_c",
        "schema_version": EXPECTED_SCHEMA_VERSION,
        "jobs_completed": 10,
        "jobs_completed_fault_free": 10,
        "goodput_ratio": 0.85,
        "lost_work_hours": 12.5,
        "tasks_lost": 4,
    }
    good_telemetry = {
        "counters": {"sim.events_processed": 1000, "sim.jobs_completed": 10},
        "gauges": {"sim.total_cost": 12.5},
    }

    def variant(base, **overrides):
        """Copy of `base` with overrides applied; a None value deletes the key."""
        case = dict(base)
        for key, value in overrides.items():
            if value is None:
                case.pop(key, None)
            else:
                case[key] = value
        return case

    # A federation sweep row counts jobs as tenants x jobs_per_tenant.
    good_fed = variant(good_perf, jobs=None, tenants=10, jobs_per_tenant=10)

    scenarios = [
        # (description, baseline case, current case, names, must_fail)
        ("all gates green", good_perf, good_perf, ["c", "quality_c"], False),
        ("slower wall", good_perf, slow_perf, ["c"], True),
        ("allocs/job jump", good_perf, leaky_perf, ["c"], True),
        ("fewer events, same wall", good_perf, fewer_events, ["c"], False),
        ("federation row green", good_fed, good_fed, ["c"], False),
        ("federation row, slower wall", good_fed,
         variant(good_fed, wall_seconds=1.5), ["c"], True),
        ("missing current case", good_perf, None, ["c"], True),
        ("cost delta over ceiling", None, variant(good_quality, cost_delta=0.25),
         ["quality_c"], True),
        ("jct delta over ceiling", None, variant(good_quality, jct_delta=0.10),
         ["quality_c"], True),
        ("lost jobs", None, variant(good_quality, jobs_completed_incremental=9),
         ["quality_c"], True),
        ("fault gates green", None, good_fault, ["fault_c"], False),
        ("fault lost jobs", None, variant(good_fault, jobs_completed=9),
         ["fault_c"], True),
        ("goodput below floor", None, variant(good_fault, goodput_ratio=0.30),
         ["fault_c"], True),
        ("missing schema_version", good_perf,
         variant(good_perf, schema_version=None), ["c"], True),
        ("stale schema_version", good_perf,
         variant(good_perf, schema_version=EXPECTED_SCHEMA_VERSION - 1),
         ["c"], True),
        ("well-formed telemetry", good_perf,
         variant(good_perf, telemetry=good_telemetry), ["c"], False),
        ("telemetry unknown group", good_perf,
         variant(good_perf, telemetry={"totals": {"sim.events": 1}}),
         ["c"], True),
        ("telemetry unsorted keys", good_perf,
         variant(good_perf, telemetry={
             "counters": {"sim.jobs_completed": 10, "sim.events_processed": 1000},
         }), ["c"], True),
        ("telemetry empty group", good_perf,
         variant(good_perf, telemetry={"counters": {}}), ["c"], True),
        ("telemetry non-namespaced metric", good_perf,
         variant(good_perf, telemetry={"gauges": {"cost": 1.0}}), ["c"], True),
    ]
    broken = False
    for description, base_case, cur_case, names, must_fail in scenarios:
        baseline = {"c": base_case} if base_case else {}
        current = {}
        if cur_case is not None:
            current[cur_case["name"]] = cur_case
        if "quality_c" in names and "quality_c" not in current:
            current["quality_c"] = good_quality
        if "c" in names and cur_case is None:
            pass  # "missing current case" scenario.
        elif "c" in names and "c" not in current:
            current["c"] = cur_case
        failed = run_checks(baseline, current, names, 0.20, 0.10, 0.05)
        ok = failed == must_fail
        print(f"{'PASS' if ok else 'BROKEN'}: selftest '{description}' "
              f"(expected {'failure' if must_fail else 'success'})")
        broken = broken or not ok
    return 1 if broken else 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--selftest":
        return selftest()
    if len(argv) < 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline_path, current_path = argv[1], argv[2]
    names = argv[3:]
    tolerance = float(os.environ.get("EVA_BENCH_TOLERANCE", "0.20"))
    cost_tol = float(os.environ.get("EVA_QUALITY_COST_TOL", "0.10"))
    jct_tol = float(os.environ.get("EVA_QUALITY_JCT_TOL", "0.05"))
    goodput_floor = float(os.environ.get("EVA_FAULT_GOODPUT_FLOOR", "0.50"))

    baseline = load_cases(baseline_path)
    current = load_cases(current_path)
    failed = run_checks(baseline, current, names, tolerance, cost_tol, jct_tol,
                        goodput_floor)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
