#!/usr/bin/env python3
"""Repository benchmark runner: builds eva_bench and runs its workloads.

Run from the root of a checkout:

  python3 evabench/run.py --workload alibaba2k --seed 17 --seconds 25 --trace 0
      One workload in a fresh process. Prints `workload metric value unit`
      lines, then one JSON line {"correct", "attempted", "failed", "metrics"}
      holding the end-to-end metrics (--trace 0) or the per-layer metrics
      (--trace 1) that BENCHMARK.json lists.

  python3 evabench/run.py [--seed 17] [--seconds 25] [--out result.json]
      Every workload: three end-to-end runs (seeds S, S+1, S+2) and one
      traced run, each in a fresh process. Prints every metric and writes
      one result JSON (default .bench_build/result.json) whose end-to-end
      values are medians across the runs, with the runs' quartiles.

  python3 evabench/run.py --compare A.json B.json
      Compares two result JSONs against the bounds in BENCHMARK.json.

  python3 evabench/run.py --selftest
      Negative-tests the comparison logic on synthetic fixtures.

Exits non-zero when the build fails, a correctness check fails, or (with
--compare) any metric got worse than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "evabench")
BINARY = os.path.join(BUILD_DIR, "eva_bench")
RUN_TIMEOUT_S = 170
# End-to-end runs per workload in a whole-suite result file.
RUNS = 3


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds eva_bench from the checkout's sources."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "evabench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "eva_bench", "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.exit("run.py: build failed: " + " ".join(step))


def run_workload(workload, seed, seconds, traced):
    """Runs one eva_bench process; returns its JSON report."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run.py: eva_bench printed nothing (exit {proc.returncode})")
    report = json.loads(lines[-1])
    report["correct"] = report["correct"] and proc.returncode == 0
    return report


def metric_names(spec, traced):
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def print_metrics(workload, report, names):
    for name in names:
        m = report["metrics"][name]
        print(f"{workload} {name} {m['value']!r} {m['unit']}")
    for check in report["checks"]:
        if not check["ok"]:
            print(f"{workload} CHECK FAILED {check['name']} {check['detail']}")


def select(report, names):
    """The report restricted to `names`; exits when eva_bench missed one."""
    missing = [n for n in names if n not in report["metrics"]]
    if missing:
        sys.exit("run.py: eva_bench did not report " + ", ".join(missing))
    return {n: report["metrics"][n] for n in names}


def single(args, spec):
    names = metric_names(spec, args.trace == 1)
    report = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    metrics = select(report, names)
    print_metrics(args.workload, report, names)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }))
    return 0 if report["correct"] else 1


def across_runs(reports, names):
    """Per metric, the median of the runs' values with their quartiles.

    Host time on a shared machine drifts by more from one run to the next
    than between the reps of one run, so the spread that decides whether a
    comparison is resolved is taken across runs.
    """
    merged = {}
    for n in names:
        values = [select(r, names)[n]["value"] for r in reports]
        p25, _, p75 = statistics.quantiles(values, n=4)
        merged[n] = {"value": statistics.median(values), "p25": p25, "p75": p75,
                     "n": len(values), "unit": reports[0]["metrics"][n]["unit"]}
    return merged


def suite(args, spec):
    result = {"seed": args.seed, "seconds": args.seconds, "runs": RUNS, "workloads": {}}
    ok = True
    e2e_names = metric_names(spec, False)
    layer_names = metric_names(spec, True)
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run_workload(name, args.seed + i, args.seconds, False) for i in range(RUNS)]
        layers = run_workload(name, args.seed, args.seconds, True)
        e2e = {"metrics": across_runs(runs, e2e_names),
               "checks": [c for r in runs for c in r["checks"]]}
        print_metrics(name, e2e, e2e_names)
        print_metrics(name, layers, layer_names)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{name} attempted {attempted} jobs")
        print(f"{name} failed {failed} jobs")
        correct = all(r["correct"] for r in runs) and layers["correct"]
        ok = ok and correct
        result["workloads"][name] = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "threads": layers["threads"],
            "checks": e2e["checks"] + layers["checks"],
            "metrics": {**e2e["metrics"], **select(layers, layer_names)},
        }
    out = args.out or os.path.join(ROOT, ".bench_build", "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print(f"wrote {out}")
    return 0 if ok else 1


def spread(m):
    """Interquartile range as a share of the median."""
    return abs(m["p75"] - m["p25"]) / abs(m["value"]) if m["value"] else 0.0


def verdict(base, new, bound, better):
    """Classifies one (workload, metric) pair of two result files.

    `base` and `new` carry value/p25/p75. The change is `worse` when its
    median is worse than the base's by more than `bound` (a share of the
    base median), `better` when it improves by more than the base's own
    spread, and `unresolved` when either side's spread exceeds the bound.
    """
    width = max(spread(base), spread(new))
    if width > bound:
        return "unresolved"
    a, b = base["value"], new["value"]
    if a == b:
        return "within bound"
    change = (b - a) / abs(a) if a else float("inf") * (1 if b > a else -1)
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if -worsening > spread(base):
        return "better"
    return "within bound"


def fail_verdict(base, new):
    """Failed operations must not rise (as a share of those attempted)."""
    rate = lambda r: r["failed"] / max(r["attempted"], 1)
    return "worse" if rate(new) > rate(base) else "within bound"


def compare(spec, base, new):
    """Returns rows (workload, metric, base, new, verdict)."""
    rows = []
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            rows.append((name, "*", None, None, "missing"))
            continue
        a, b = base["workloads"][name], new["workloads"][name]
        for m in spec["end_to_end"]:
            ma, mb = a["metrics"][m["name"]], b["metrics"][m["name"]]
            rows.append((name, m["name"], ma["value"], mb["value"],
                         verdict(ma, mb, m["bound"], m["better"])))
        rows.append((name, "failed", a["failed"], b["failed"], fail_verdict(a, b)))
    return rows


def run_compare(spec, path_a, path_b):
    with open(path_a) as f:
        base = json.load(f)
    with open(path_b) as f:
        new = json.load(f)
    rows = compare(spec, base, new)
    print(f"{'workload':14s} {'metric':14s} {'base':>14s} {'new':>14s}  verdict")
    for workload, metric, a, b, v in rows:
        fmt = lambda x: "-" if x is None else f"{x:.6g}"
        print(f"{workload:14s} {metric:14s} {fmt(a):>14s} {fmt(b):>14s}  {v}")
    return 1 if any(r[4] in ("worse", "missing") for r in rows) else 0


def selftest():
    """Checks every verdict on synthetic fixtures; returns the failure count."""
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "t", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "r", "unit": "1/s", "better": "higher", "bound": 0.1},
        ],
    }

    def m(value, width=0.0):
        return {"value": value, "p25": value * (1 - width / 2), "p75": value * (1 + width / 2),
                "unit": "", "n": 5}

    def result(t, r, failed=0):
        return {"workloads": {"w": {"attempted": 100, "failed": failed,
                                    "metrics": {"t": t, "r": r}}}}

    cases = [
        # (base, new, expected verdicts for t, r, failed)
        (result(m(1.0), m(1.0)), result(m(1.0), m(1.0)),
         ["within bound", "within bound", "within bound"]),
        (result(m(1.0, 0.02), m(1.0, 0.02)), result(m(1.05), m(0.95)),
         ["within bound", "within bound", "within bound"]),
        (result(m(1.0), m(1.0)), result(m(1.2), m(0.8)), ["worse", "worse", "within bound"]),
        (result(m(1.0, 0.02), m(1.0, 0.02)), result(m(0.8), m(1.2)),
         ["better", "better", "within bound"]),
        (result(m(1.0, 0.3), m(1.0)), result(m(1.5), m(1.0, 0.5)),
         ["unresolved", "unresolved", "within bound"]),
        (result(m(1.0), m(1.0)), result(m(1.0), m(1.0), failed=1),
         ["within bound", "within bound", "worse"]),
    ]
    failures = 0
    for i, (base, new, expected) in enumerate(cases):
        got = [row[4] for row in compare(spec, base, new)]
        if got != expected:
            failures += 1
            print(f"selftest case {i}: expected {expected}, got {got}")
    missing = compare(spec, cases[0][0], {"workloads": {}})
    if [r[4] for r in missing] != ["missing"]:
        failures += 1
        print("selftest: a missing workload was not reported")
    print("selftest " + ("passed" if failures == 0 else f"FAILED ({failures})"))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        return 1 if selftest() else 0
    spec = load_spec()
    if args.compare:
        return run_compare(spec, *args.compare)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload and args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload}")
    build()
    return single(args, spec) if args.workload else suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
