#!/usr/bin/env python3
"""Fail when a bench case regresses against the committed baseline.

Usage:
    check_bench_regression.py <baseline.json> <current.json> <case-name> [<case-name>...]
    check_bench_regression.py --selftest

A bench row (schema_version 3) is its name, its shape (`jobs`, or `tenants`
and `jobs_per_tenant` for federation rows), host measurements (walls,
`allocs`, `peak_rss_mb`, thread count) and the run's registry export under
`telemetry`. Every simulated value is read from `telemetry`'s counters and
gauges ("sim.events_processed", "faults.goodput_ratio", ...).

A named engine case is compared with the baseline row of the same name:

  * size — `jobs`, `tenants` and `jobs_per_tenant` must equal the
    baseline's; runs of different sizes do not compare.
  * pins — every telemetry counter and gauge of the baseline row must be
    in the current row with exactly the same value. They are simulated, so
    the host cannot move them; a failure names the first differing key. A
    change that moves one regenerates the baseline and says why. Keys the
    baseline lacks (a newly added counter) are counted, not pinned, until
    the baseline is regenerated.
  * throughput (`jobs / wall_seconds`) — fails when the current value falls
    more than the tolerance below the baseline's.
  * allocations per job (`allocs / jobs`) — fails when the current value
    rises more than the tolerance above the baseline's. Allocation counts
    come from the counting allocator in bench_alloc_hooks.cc, so a >20%
    jump is per-round or per-job work leaking back onto the heap. Rows
    whose baseline carries no `allocs` (federation rows) have no such gate.

The gates are per job because the event count is not a fixed amount of
work: folding same-time duplicate completion checks cut the 10k-job trace
from 10.0M events to 73k while its wall time fell. `events/sec` is printed
next to the throughput gate.

Cases named `quality_*` name two engine rows, `exact` and `incremental`
(the same trace replayed in both packing modes), and are gated on those
rows' telemetry against fixed envelopes:

  * cost delta (`sim.total_cost`) <= EVA_QUALITY_COST_TOL (default 0.10);
  * JCT delta (`sim.avg_jct_hours`) <= EVA_QUALITY_JCT_TOL (default 0.05);
  * `sim.jobs_completed` equal: the approximation must not lose jobs.

Cases named `fault_*` carry the faulted run's telemetry and name the
fault-free row (`fault_free`):

  * `sim.jobs_completed` must equal the fault-free row's: faults destroy
    in-flight work and delay jobs, they must never lose one;
  * `faults.goodput_ratio` >= EVA_FAULT_GOODPUT_FLOOR (default 0.50).

Quality and fault gates judge the current run alone. When the baseline
also has the quality or fault row, the rows it is judged on are pinned too
(size and telemetry, as above).

A gate whose input is missing fails, and so does a case missing from
either file: a dropped field or case must not read as a pass.

Independent of the named gates, every row in the *current* file must carry
`schema_version` == EXPECTED_SCHEMA_VERSION, and any embedded `telemetry`
object must match the registry export schema: known groups only
(counters/gauges/histograms/series), dot-namespaced metric names, sorted
within each group, no empty groups.

The perf tolerance is EVA_BENCH_TOLERANCE (default 0.20 = 20%, the margin
CI grants for runner variance). Cases listed in WARN_ONLY report their
throughput and allocation gates without failing — the observation period
for newly added sweep cases. Their size and pin checks still fail: those
are deterministic, not noise.

`--selftest` runs the gates against built-in fixtures that must fail (and
ones that must pass) — the negative test CI runs so a broken gate cannot
silently wave regressions through.
"""

import copy
import json
import os
import sys

# fed100_scale is the 100-tenant federation sweep point, in its observation
# period: its wall clock folds in thread-pool scheduling noise on shared CI
# runners, so its throughput cannot fail the job yet.
WARN_ONLY = {"fed100_scale"}

# Bench-row protocol version stamped by BenchJsonWriter::kSchemaVersion.
# Bump both together when the row layout changes.
EXPECTED_SCHEMA_VERSION = 3

# The registry export groups, in the order TelemetryRegistry::ToJson emits
# them. Empty groups are omitted from the export, never serialized as {}.
TELEMETRY_GROUPS = ("counters", "gauges", "histograms", "series")

# The telemetry groups that hold a run's simulated scalars, pinned exactly.
PINNED_GROUPS = ("counters", "gauges")

# Fields that say how large a run was; a compared pair must agree on them.
SIZE_FIELDS = ("jobs", "tenants", "jobs_per_tenant")


def load_cases(path):
    with open(path) as handle:
        payload = json.load(handle)
    return {case["name"]: case for case in payload.get("cases", [])}


def telemetry_group(case, group):
    """One group of a row's telemetry, {} when absent."""
    telemetry = case.get("telemetry") if case else None
    values = telemetry.get(group) if isinstance(telemetry, dict) else None
    return values if isinstance(values, dict) else {}


def simulated(case, key):
    """A simulated value from a row's telemetry counters or gauges, or None."""
    for group in PINNED_GROUPS:
        values = telemetry_group(case, group)
        if key in values:
            return values[key]
    return None


def case_jobs(case):
    """Jobs simulated by a row: `jobs`, or tenants x jobs_per_tenant."""
    if "jobs" in case:
        return case["jobs"]
    if "tenants" in case and "jobs_per_tenant" in case:
        return case["tenants"] * case["jobs_per_tenant"]
    return None


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


def check_pinned_pair(label, base, cur):
    """Size and zero-tolerance telemetry pins for one row. Returns failed."""
    for key in SIZE_FIELDS:
        if base.get(key) != cur.get(key):
            print(
                f"FAIL: {label}: {key} {cur.get(key)!r} vs baseline "
                f"{base.get(key)!r}: runs of different sizes do not compare"
            )
            return True
    if "telemetry" not in base or "telemetry" not in cur:
        print(f"FAIL: {label}: no telemetry to pin in one of the files")
        return True
    pinned = unpinned = 0
    for group in PINNED_GROUPS:
        base_values = telemetry_group(base, group)
        cur_values = telemetry_group(cur, group)
        for key in sorted(base_values):
            cur_value = cur_values.get(key, "missing")
            if cur_value != base_values[key]:
                print(
                    f"FAIL: {label}: pinned {group} key '{key}' is {cur_value} "
                    f"vs baseline {base_values[key]}"
                )
                return True
        pinned += len(base_values)
        unpinned += len(set(cur_values) - set(base_values))
    print(
        f"OK: {label}: {pinned} pinned telemetry values equal the baseline's"
        f" ({unpinned} new keys not in the baseline)"
    )
    return False


def check_perf_case(name, base, cur, tolerance, warn_only):
    """Size, pins, jobs/sec and allocs/job for one engine case. Returns failed."""
    fail_verdict = "WARN" if warn_only else "FAIL"
    failed = check_pinned_pair(name, base, cur)

    # Gate: throughput must not drop below (1 - tolerance) x baseline.
    base_jobs, cur_jobs = case_jobs(base), case_jobs(cur)
    base_wall, cur_wall = base.get("wall_seconds"), cur.get("wall_seconds")
    if not (base_jobs and cur_jobs and base_wall and cur_wall):
        print(f"FAIL: {name}: jobs/sec not computable (jobs or wall_seconds missing)")
        return True
    base_jps = base_jobs / base_wall
    cur_jps = cur_jobs / cur_wall
    ratio = cur_jps / base_jps
    verdict = fail_verdict if ratio < 1.0 - tolerance else "OK"
    base_events = simulated(base, "sim.events_processed") or 0
    cur_events = simulated(cur, "sim.events_processed") or 0
    print(
        f"{verdict}: {name}: jobs/sec {cur_jps:,.1f} vs baseline {base_jps:,.1f} "
        f"(ratio {ratio:.3f}, floor {1.0 - tolerance:.2f}; events/sec "
        f"{cur_events / cur_wall:,.0f} vs {base_events / base_wall:,.0f}, not gated)"
    )
    failed = failed or verdict == "FAIL"

    # Gate: allocs/job must not rise above (1 + tolerance) x baseline.
    if "allocs" not in base:
        return failed
    if "allocs" not in cur:
        print(f"FAIL: {name}: allocs missing from the current row")
        return True
    base_apj = base["allocs"] / base_jobs
    cur_apj = cur["allocs"] / cur_jobs
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


def check_quality_case(name, cur, current, baseline, cost_tol, jct_tol, warn_only):
    """Approximation-quality envelope for one quality_* row. Returns failed."""
    fail_verdict = "WARN" if warn_only else "FAIL"
    rows = {}
    for role in ("exact", "incremental"):
        row_name = cur.get(role)
        if row_name not in current:
            print(f"FAIL: {name}: {role} row {row_name!r} missing from current run")
            return True
        rows[role] = current[row_name]
    values = {}
    for role, row in rows.items():
        for key in ("sim.total_cost", "sim.avg_jct_hours", "sim.jobs_completed"):
            values[role, key] = simulated(row, key)
    missing = [f"{role} {key}" for (role, key), value in values.items() if value is None]
    if missing:
        print(f"FAIL: {name}: missing {', '.join(missing)}")
        return True
    failed = False

    def delta(key):
        exact = values["exact", key]
        return (values["incremental", key] - exact) / exact if exact > 0 else 0.0

    cost_delta = delta("sim.total_cost")
    verdict = fail_verdict if cost_delta > cost_tol else "OK"
    print(
        f"{verdict}: {name}: cost delta {cost_delta:+.4f} "
        f"(incremental {values['incremental', 'sim.total_cost']:,.2f} vs exact "
        f"{values['exact', 'sim.total_cost']:,.2f}, ceiling +{cost_tol:.2f})"
    )
    failed = failed or verdict == "FAIL"

    jct_delta = delta("sim.avg_jct_hours")
    verdict = fail_verdict if jct_delta > jct_tol else "OK"
    print(
        f"{verdict}: {name}: JCT delta {jct_delta:+.4f} "
        f"(incremental {values['incremental', 'sim.avg_jct_hours']:.4f}h vs exact "
        f"{values['exact', 'sim.avg_jct_hours']:.4f}h, ceiling +{jct_tol:.2f})"
    )
    failed = failed or verdict == "FAIL"

    done_exact = values["exact", "sim.jobs_completed"]
    done_inc = values["incremental", "sim.jobs_completed"]
    verdict = "OK" if done_exact == done_inc else fail_verdict
    print(
        f"{verdict}: {name}: jobs completed {done_inc} incremental vs "
        f"{done_exact} exact"
    )
    failed = failed or verdict == "FAIL"

    if name in baseline:
        for role in ("exact", "incremental"):
            row_name = cur[role]
            if row_name not in baseline:
                print(f"FAIL: {name}: {role} row '{row_name}' missing from baseline")
                failed = True
                continue
            failed |= check_pinned_pair(f"{name} ({role} {row_name})",
                                        baseline[row_name], current[row_name])
    return failed


def check_fault_case(name, cur, current, baseline, goodput_floor, warn_only):
    """Lost-jobs + goodput gates for one fault_* row. Returns failed."""
    fail_verdict = "WARN" if warn_only else "FAIL"
    failed = False

    fault_free_name = cur.get("fault_free")
    done = simulated(cur, "sim.jobs_completed")
    done_fault_free = simulated(current.get(fault_free_name), "sim.jobs_completed")
    if done is None or done_fault_free is None:
        print(
            f"FAIL: {name}: jobs completed missing ({done!r} under faults, "
            f"{done_fault_free!r} in fault-free row {fault_free_name!r})"
        )
        failed = True
    else:
        verdict = "OK" if done == done_fault_free else fail_verdict
        print(
            f"{verdict}: {name}: jobs completed {done} under faults vs "
            f"{done_fault_free} fault-free"
        )
        failed = failed or verdict == "FAIL"

    goodput = simulated(cur, "faults.goodput_ratio")
    if goodput is None:
        print(f"FAIL: {name}: faults.goodput_ratio missing")
        failed = True
    else:
        verdict = fail_verdict if goodput < goodput_floor else "OK"
        lost_hours = (simulated(cur, "faults.lost_work_seconds") or 0.0) / 3600.0
        print(
            f"{verdict}: {name}: goodput {goodput:.4f} "
            f"(lost work {lost_hours:.2f}h over "
            f"{simulated(cur, 'faults.tasks_lost') or 0} tasks, "
            f"floor {goodput_floor:.2f})"
        )
        failed = failed or verdict == "FAIL"

    if name in baseline:
        failed |= check_pinned_pair(name, baseline[name], cur)
    return failed


def run_checks(baseline, current, names, tolerance, cost_tol, jct_tol,
               goodput_floor=0.50):
    failed = check_current_schema(current)
    for name in names:
        warn_only = name in WARN_ONLY
        if name not in current:
            print(f"FAIL: case '{name}' missing from current run")
            failed = True
            continue
        if name.startswith("quality_"):
            failed |= check_quality_case(name, current[name], current, baseline,
                                         cost_tol, jct_tol, warn_only)
            continue
        if name.startswith("fault_"):
            failed |= check_fault_case(name, current[name], current, baseline,
                                       goodput_floor, warn_only)
            continue
        if name not in baseline:
            print(f"FAIL: case '{name}' missing from baseline")
            failed = True
            continue
        failed |= check_perf_case(name, baseline[name], current[name], tolerance,
                                  warn_only)
    return failed


def selftest():
    """The gates must fire on known-bad fixtures and stay green on good ones."""

    def row(name, telemetry=None, **fields):
        case = {"name": name, "schema_version": EXPECTED_SCHEMA_VERSION, **fields}
        if telemetry is not None:
            case["telemetry"] = telemetry
        return case

    def run_telemetry(events=1000, completed=100, cost=12.5, jct=2.0):
        return {
            "counters": {"sim.events_processed": events, "sim.jobs_completed": completed},
            "gauges": {"sim.avg_jct_hours": jct, "sim.total_cost": cost},
        }

    def variant(base, **overrides):
        """Copy of `base` with overrides applied; a None value deletes the key."""
        case = copy.deepcopy(base)
        for key, value in overrides.items():
            if value is None:
                case.pop(key, None)
            else:
                case[key] = value
        return case

    def with_value(base, key, value):
        """Copy of `base` with one telemetry value set (None deletes it)."""
        case = copy.deepcopy(base)
        for group in PINNED_GROUPS:
            values = case.get("telemetry", {}).get(group, {})
            if key in values:
                if value is None:
                    del values[key]
                else:
                    values[key] = value
                return case
        case["telemetry"]["counters"][key] = value
        case["telemetry"]["counters"] = dict(sorted(case["telemetry"]["counters"].items()))
        return case

    perf = row("c", run_telemetry(), jobs=100, wall_seconds=1.0, allocs=50)
    # A federation sweep row counts jobs as tenants x jobs_per_tenant.
    fed = row("c", run_telemetry(), tenants=10, jobs_per_tenant=10, wall_seconds=1.0)
    fed100 = variant(fed, name="fed100_scale", tenants=100, jobs_per_tenant=40,
                     wall_seconds=40.0)
    exact = row("c_exact", run_telemetry(cost=10.0, jct=2.0), jobs=100, wall_seconds=1.0)
    inc = row("c_inc", run_telemetry(cost=10.5, jct=1.98), jobs=100, wall_seconds=0.5)
    quality = row("quality_c", exact="c_exact", incremental="c_inc")
    fault = row("fault_c", {
        "counters": {"faults.tasks_lost": 4, "sim.jobs_completed": 100},
        "gauges": {"faults.goodput_ratio": 0.85, "faults.lost_work_seconds": 45000.0},
    }, jobs=100, wall_seconds=1.0, fault_free="c")

    def no_completed(case):
        return with_value(case, "sim.jobs_completed", None)


    everything = [perf, exact, inc, quality, fault]
    scenarios = [
        # (description, baseline rows, current rows, names, must_fail)
        ("all gates green, every row pinned", everything, everything,
         ["c", "quality_c", "fault_c"], False),
        ("slower wall", [perf], [variant(perf, wall_seconds=1.5)], ["c"], True),
        ("1.3x slower wall", [perf], [variant(perf, wall_seconds=1.3)], ["c"], True),
        ("allocs/job jump", [perf], [variant(perf, allocs=500)], ["c"], True),
        ("allocs missing from current", [perf], [variant(perf, allocs=None)],
         ["c"], True),
        ("changed sim.events_processed", [perf],
         [with_value(perf, "sim.events_processed", 999)], ["c"], True),
        ("changed sim.total_cost", [perf],
         [with_value(perf, "sim.total_cost", 12.500001)], ["c"], True),
        ("new telemetry key", [perf], [with_value(perf, "sim.new_counter", 1)],
         ["c"], False),
        ("telemetry key dropped", [perf],
         [with_value(perf, "sim.events_processed", None)], ["c"], True),
        ("telemetry missing", [perf], [variant(perf, telemetry=None)], ["c"], True),
        # Twice the jobs in twice the wall with twice the allocs: every
        # per-job gate reads equal, only the size check can catch it.
        ("pair sizes differ", [perf],
         [variant(perf, jobs=200, wall_seconds=2.0, allocs=100)], ["c"], True),
        ("federation row green", [fed], [fed], ["c"], False),
        ("federation row, slower wall", [fed], [variant(fed, wall_seconds=1.5)],
         ["c"], True),
        ("federation pair sizes differ", [fed100],
         [variant(fed100, jobs_per_tenant=2, wall_seconds=2.0)],
         ["fed100_scale"], True),
        ("warn-only row, slower wall", [fed100], [variant(fed100, wall_seconds=60.0)],
         ["fed100_scale"], False),
        ("warn-only row, changed pin", [fed100],
         [with_value(fed100, "sim.events_processed", 999)], ["fed100_scale"], True),
        ("missing current case", [perf], [], ["c"], True),
        ("missing baseline case", [], [perf], ["c"], True),
        ("quality gates green", [], [exact, inc, quality], ["quality_c"], False),
        ("cost delta over ceiling", [],
         [exact, with_value(inc, "sim.total_cost", 12.0), quality], ["quality_c"], True),
        ("jct delta over ceiling", [],
         [exact, with_value(inc, "sim.avg_jct_hours", 2.2), quality], ["quality_c"], True),
        ("lost jobs", [], [exact, with_value(inc, "sim.jobs_completed", 99), quality],
         ["quality_c"], True),
        ("quality rows missing jobs completed", [],
         [no_completed(exact), no_completed(inc), quality], ["quality_c"], True),
        ("quality row names a missing row", [], [exact, quality], ["quality_c"], True),
        ("quality pins a changed run", everything,
         [perf, exact, with_value(inc, "sim.events_processed", 999), quality, fault],
         ["quality_c"], True),
        ("fault gates green", [], [perf, fault], ["fault_c"], False),
        ("fault lost jobs", [], [perf, with_value(fault, "sim.jobs_completed", 99)],
         ["fault_c"], True),
        ("fault rows missing jobs completed", [],
         [no_completed(perf), no_completed(fault)], ["fault_c"], True),
        ("goodput below floor", [], [perf, with_value(fault, "faults.goodput_ratio", 0.3)],
         ["fault_c"], True),
        ("goodput missing", [], [perf, with_value(fault, "faults.goodput_ratio", None)],
         ["fault_c"], True),
        ("missing schema_version", [perf], [variant(perf, schema_version=None)],
         ["c"], True),
        ("stale schema_version", [perf],
         [variant(perf, schema_version=EXPECTED_SCHEMA_VERSION - 1)], ["c"], True),
        ("telemetry unknown group", [],
         [variant(perf, telemetry={"totals": {"sim.events": 1}})], [], True),
        ("telemetry unsorted keys", [],
         [variant(perf, telemetry={
             "counters": {"sim.jobs_completed": 10, "sim.events_processed": 1000},
         })], [], True),
        ("telemetry empty group", [], [variant(perf, telemetry={"counters": {}})],
         [], True),
        ("telemetry non-namespaced metric", [],
         [variant(perf, telemetry={"gauges": {"cost": 1.0}})], [], True),
    ]
    broken = False
    for description, base_rows, cur_rows, names, must_fail in scenarios:
        baseline = {case["name"]: case for case in base_rows}
        current = {case["name"]: case for case in cur_rows}
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
