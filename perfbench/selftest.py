#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size run of every workload, untraced
and traced, must

- print every metric BENCHMARK.json names, with its unit, as a finite number;
- check every verdict and find no failure (failed = 0, failed_frac = 0);
- account its traced spans consistently: no self-time is negative, and the
  self-times of the layer spans sum to no more than the traced wall time,
  which is clocked apart from the spans.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

import json
import math
import subprocess
import sys

TOP_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        return None, ["exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])]
    return json.loads(proc.stdout.strip().splitlines()[-1]), []


def check(spec, workload, trace):
    result, problems = run(workload, trace)
    if result is None:
        return problems
    if set(result) != TOP_KEYS:
        problems.append("result keys %s" % sorted(result))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("verdicts: correct=%s attempted=%s failed=%s"
                        % (result["correct"], result["attempted"], result["failed"]))
    metrics = result["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append("metric names differ from BENCHMARK.json: %s"
                        % sorted(set(metrics) ^ {m["name"] for m in wanted}))
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append("%s: unit %r, expected %r" % (m["name"], got.get("unit"), m["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r" % (m["name"], value))
    value = lambda name: metrics.get(name, {}).get("value", 0.0)
    if trace:
        if value("failed_frac") != 0:
            problems.append("failed_frac = %s" % value("failed_frac"))
        # trace.wall_s is clocked apart from the spans; the sum leaves out the
        # root span, so it is no identity and catches overlapping spans
        if value("trace.self_sum_s") > value("trace.wall_s"):
            problems.append("layer self-times sum to %.6f s > traced wall %.6f s"
                            % (value("trace.self_sum_s"), value("trace.wall_s")))
        for name in metrics:
            if name.startswith("self.") and value(name) < 0:
                problems.append("%s = %.6f s is negative" % (name, value(name)))
    elif value("verdict_ok_frac") != 1.0:
        problems.append("verdict_ok_frac = %s" % value("verdict_ok_frac"))
    return problems


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check(spec, workload, trace)
            print("%-12s trace=%d  %s" % (workload, trace, "ok" if not problems else "FAIL"))
            for p in problems:
                print("    " + p)
            failed = failed or bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
