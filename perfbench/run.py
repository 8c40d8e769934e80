#!/usr/bin/env python3
"""Benchmark of the checker: one command for every workload and metric.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-liveness --seed 1 --seconds 28 --trace 0

It builds perfbench/bench.exe with dune, then spawns it once per
repetition, so every repetition is a cold start, exactly like one CLI call.
The first repetition is a warm-up whose verdicts are checked but whose
timings are dropped.  Repetitions continue until --seconds have passed
(at least MIN_REPS timed ones).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over
the timed repetitions, each with its quartiles and sample count.  Every
timing is stated at a fixed reference speed of the host: after each timed
repetition `bench.exe ref` times a fixed search written in the benchmark
(not in the library), and the run's timings are multiplied by
REFERENCE_S / (median reference time of the run).  On a shared 2-core
Xeon guest the host's speed drifts by a third within minutes, process
start-up included; this keeps that drift out of the comparison of two
runs.  The timings as measured are printed beside the stated ones.  --trace 1
reports the per-layer metrics instead.  It alternates traced and untraced
repetitions; tracing wraps each call into a layer in a span.  It also runs
one `bench.exe layers` pass of micro-measurements.  A metric of a layer
that a workload never loads reads 0.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it gives the hardware and provenance of the result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("mc-liveness", "mc-safety", "static", "campaign")
MIN_REPS = 3
REP_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
# the reference search's time on a 2-core Xeon guest at its usual speed
REFERENCE_S = 0.2
TIMINGS = ("setup_s", "wall_s", "task_p50_s", "task_max_s")
# span name prefix -> self-time metric group
SELF_GROUPS = ("bench", "explore", "witness", "analysis", "campaign", "store", "report", "status")


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def build():
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH", 1)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", "_build", "--display", "quiet",
         "perfbench/bench.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("build failed", 1)


def spawn(args):
    """Run bench.exe with [args]; the parsed JSON of its last stdout line."""
    cmd = [EXE] + args
    if args[0] == "rep":
        cmd += ["--spawn-time", "%.6f" % time.time()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        die("%s exited with %d" % (" ".join(args[:2]), proc.returncode), 1)
    return json.loads(lines[-1])


def provenance(workload, seed, seconds, extra):
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "?")
    except OSError:
        cpu = "?"
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True).stdout.strip() or None
        except OSError:
            commit = None
    # a copy of the sources without git metadata has no commit: name the
    # sources by content as well
    digest = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    prov = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "commit": commit, "source_sha256": digest.hexdigest()[:16],
    }
    prov.update(extra)
    return prov


def run_reps(rep_args, seconds, tiny, trace, before=lambda: None):
    """Warm-up, then [before], then repetitions until [seconds] are up.
    With [trace], traced and untraced repetitions alternate; without it,
    the reference search is timed after each repetition.  Returns
    (warm-up, plain, traced, reference times)."""
    start = time.time()
    warm = spawn(rep_args + ["--rep", "0"])
    before()
    plain, traced, refs = [], [], []
    min_reps = 1 if tiny else (2 if trace else MIN_REPS)
    durations = []
    while True:
        enough = len(plain) >= min_reps and (not trace or len(traced) >= min_reps)
        est = statistics.median(durations) if durations else 0.0
        if enough and time.time() + est > start + seconds:
            break
        t0 = time.time()
        index = ["--rep", str(1 + len(plain) + len(traced))]
        if trace and len(traced) <= len(plain):
            traced.append(spawn(rep_args + index + ["--trace"]))
        else:
            plain.append(spawn(rep_args + index))
            if not trace:
                refs.append(spawn(["ref"])["ref_s"])
        durations.append(time.time() - t0)
    return warm, plain, traced, refs


def end_to_end(reps):
    tasks = [t["s"] for r in reps for t in r["tasks"]]
    series = {
        "setup_s": [r["setup_s"] for r in reps],
        "wall_s": [r["wall_s"] for r in reps],
        "task_p50_s": tasks,
        "task_max_s": [max(t["s"] for t in r["tasks"]) for r in reps],
        "heap_peak_mb": [r["heap_peak_mb"] for r in reps],
    }
    return series


def per_layer(traced, plain, layers, attempted, failed):
    med = lambda xs: statistics.median(xs) if xs else 0.0
    keys = {k for r in traced for k in r["metrics"]}
    m = {k: med([r["metrics"][k] for r in traced if k in r["metrics"]]) for k in keys}
    m.update(layers.get("metrics", {}))
    span_total = lambda name: med([r["span_total"].get(name, 0.0) for r in traced])
    if "explore.engine_s" in m and span_total("explore") > 0:
        m["explore.gate_s"] = span_total("explore") - m["explore.engine_s"]
    if "explore.configs" in m and "explore.dedup_hits" in m:
        base = m["explore.configs"] + m["explore.dedup_hits"]
        m["explore.dedup_ratio"] = m["explore.dedup_hits"] / base if base else 0.0
    traced_wall = med([r["wall_s"] for r in traced])
    plain_wall = med([r["wall_s"] for r in plain])
    m["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall if plain_wall else 0.0
    # the repetition's duration, clocked apart from the spans, against the
    # self-times of the layer spans inside the root span "rep": spans that
    # overlapped or were counted twice would make the sum exceed it
    m["trace.wall_s"] = med([r["rep_s"] for r in traced])
    m["trace.self_sum_s"] = med([sum(v for k, v in r["span_self"].items() if k != "rep")
                                 for r in traced])
    for group in SELF_GROUPS:
        prefix = "rep" if group == "bench" else group
        m["self.%s_s" % group] = med([
            sum(v for k, v in r["span_self"].items() if k.split(".")[0] == prefix)
            for r in traced])
    m["failed_frac"] = failed / attempted if attempted else 0.0
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small tasks, for the benchmark's self-test")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        die("run from the root of a checkout of the repository (dune-project, lib/ and "
            "perfbench/ not found here)")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    scratch = os.path.join(".perfbench", "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        rep_args = ["rep", args.workload, "--seed", str(args.seed), "--scratch", scratch]
        if args.tiny:
            rep_args.append("--tiny")
        layers = {}

        def run_layers():
            if args.trace:
                layers.update(spawn(["layers", args.workload, "--seed", str(args.seed)]
                                    + (["--tiny"] if args.tiny else [])))

        warm, plain, traced, refs = run_reps(rep_args, args.seconds, args.tiny, args.trace,
                                             before=run_layers)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(".perfbench")
        except OSError:
            pass

    every = [warm] + plain + traced
    attempted = sum(r["attempted"] for r in every) + layers.get("attempted", 0)
    failed = sum(r["failed"] for r in every) + layers.get("failed", 0)
    failures = [f for r in every for f in r["failures"]] + layers.get("failures", [])
    count_changes = sorted({c for r in every for c in r["count_changes"]})
    for f in failures[:20]:
        print("FAILED " + f)
    for c in count_changes:
        print("COUNTS CHANGED " + c)

    values = {}
    units = {m["name"]: m["unit"] for m in wanted}
    speed = {}
    if args.trace:
        values = per_layer(traced, plain, layers, attempted, failed)
        for m in wanted:
            print("%-40s %.6g %s" % (m["name"], values.get(m["name"], 0.0), m["unit"]))
    else:
        ref = statistics.median(refs)
        scale = REFERENCE_S / ref
        speed = {"reference_s": ref, "reference_samples": len(refs), "timing_scale": scale}
        print("reference search median %.6g s over %d samples: timings x %.4f"
              % (ref, len(refs), scale))
        for name, series in end_to_end(plain).items():
            measured = statistics.median(series)
            if name in TIMINGS:
                series = [v * scale for v in series]
            values[name] = statistics.median(series)
            q1, q3 = quartiles(series)
            print("%-14s median %.6g  q1 %.6g  q3 %.6g  samples %d  %s  (measured %.6g)"
                  % (name, values[name], q1, q3, len(series), units[name], measured))
        values["verdict_ok_frac"] = 1.0 - failed / attempted

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"provenance": provenance(
        args.workload, args.seed, args.seconds,
        {"ocaml": every[0]["ocaml"], "recommended_domains": every[0]["recommended_domains"],
         "timed_reps": len(plain), "traced_reps": len(traced),
         "count_changes": len(count_changes), **speed})}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
