#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload offline-tpcch --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and with it the advisor libraries from src/) in an
optimized build under .bench_build/perfbench, runs the lpa_perfbench binary,
checks its outputs, and prints as the last line of standard output one JSON
object with the keys correct, attempted, failed and metrics. Untraced runs
report the end-to-end metrics, traced runs (--trace 1) the per-layer ones.

Exact counts and digests of every run are kept per (binary, workload, seed)
under .bench_build/perfbench/guards; a later run of the same binary and seed
that disagrees on any of them, traced or not, is reported as incorrect.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline-tpcch", "online-tpcch", "serve-tpcch")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure and build lpa_perfbench; returns the binary path or None."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", out, "--target", "lpa_perfbench",
                "-j", jobs]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    binary = os.path.join(out, "lpa_perfbench")
    return binary if os.path.exists(binary) else None


def declared_metrics():
    """Metric names BENCHMARK.json declares, or None without the file."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def check_guards(out, binary, args, report, problems):
    """Compare this run's exact counts and digests with earlier runs of the
    same binary and seed, then remember the union."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    guard_dir = os.path.join(out, "guards")
    os.makedirs(guard_dir, exist_ok=True)
    path = os.path.join(guard_dir, "%s-%s-%d.json" %
                        (build_id, args.workload, args.seed))
    with open(path + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        known = {"exact": {}, "digests": {}}
        if os.path.exists(path):
            with open(path) as f:
                known = json.load(f)
        for kind in ("exact", "digests"):
            for name, value in report[kind].items():
                if name in known[kind] and known[kind][name] != value:
                    problems.append("%s %s changed from %s to %s between runs "
                                    "of one binary and seed" %
                                    (kind, name, known[kind][name], value))
                known[kind].setdefault(name, value)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
        os.replace(tmp, path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    binary = build(out)
    if binary is None:
        log("build failed")
        return 1
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", runs]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("the run did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("lpa_perfbench exited with %d" % done.returncode)
        return 1
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("lpa_perfbench printed no report")
        return 1

    problems = list(report["errors"])
    check_guards(out, binary, args, report, problems)
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    declared = declared_metrics()
    if declared is not None:
        names = declared[1] if args.trace else declared[0]
        missing = [n for n in names if n not in metrics]
        if missing:
            problems.append("metrics missing: " + ", ".join(missing))
        metrics = {n: metrics[n] for n in names if n in metrics}
    if not args.trace:
        for name, m in metrics.items():
            if not (isinstance(m["value"], (int, float))
                    and math.isfinite(m["value"]) and m["value"] > 0):
                problems.append("end-to-end metric %s is %r" %
                                (name, m["value"]))
    if report["manifest"].get("comparable") != "1":
        log("non-optimized build: figures are not comparable")

    detail = dict(report, errors=problems)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(runs, name), "w") as f:
        json.dump(detail, f, indent=1)
    for problem in problems:
        log("check failed: " + problem)
    print(json.dumps({"manifest": report["manifest"],
                      "exact": report["exact"],
                      "digests": report["digests"]}, sort_keys=True))
    print(json.dumps({
        "correct": bool(report["correct"]) and not problems,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
