#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run one workload (prints its metrics; the last stdout line is the JSON
result):
    python3 perfbench/run.py --workload sim_lyra --seed 1 --seconds 55 --trace 0
Append each run's record to a file, then compare two such files:
    python3 perfbench/run.py --workload sim_lyra --seed 1 --out new.jsonl ...
    python3 perfbench/run.py --compare old.jsonl new.jsonl
Build and run the benchmark's own tests:
    python3 perfbench/run.py --test

Everything is built from the checkout's sources into .bench_build/perfbench
under the checkout root; nothing is written outside the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_workload(args):
    if not build("lyra_perfbench"):
        log("build failed")
        return 1
    os.makedirs(WORK, exist_ok=True)
    # Runs inside WORK with relative paths: the service's Unix socket path
    # must stay short (sockaddr_un) however deep the checkout sits.
    command = [os.path.join(BUILD, "lyra_perfbench"), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}", f"--trace={args.trace}",
               "--work-dir=."]
    if args.out:
        command.append(f"--out={os.path.abspath(args.out)}")
    try:
        return subprocess.run(command, cwd=WORK, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(old_path, new_path):
    """Fails on any change to a deterministic value of a matching
    (workload, seed); prints every metric's median and quartiles."""
    old, new = load_records(old_path), load_records(new_path)
    failures = []
    for side, records in (("old", old), ("new", new)):
        for r in records:
            if not r["correct"]:
                failures.append(f"{side}: {r['workload']} seed {r['seed']} reported correct=false")
    exact_old = {}
    for r in old:
        exact_old.setdefault((r["workload"], r["seed"]), {}).update(r.get("exact", {}))
    for r in new:
        before = exact_old.get((r["workload"], r["seed"]), {})
        for name, value in r.get("exact", {}).items():
            if name in before and before[name] != value:
                failures.append(f"{r['workload']} seed {r['seed']}: {name} {before[name]} -> {value}")

    def series(records):
        out = {}
        for r in records:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], r["trace"], name), []).append((m["value"], m["unit"]))
        return out

    s_old, s_new = series(old), series(new)
    print(f"{'workload':<10} {'metric':<34} {'old median [q1, q3]':>34} {'new median [q1, q3]':>34} {'change':>8}")
    for key in sorted(set(s_old) & set(s_new)):
        workload, _, name = key
        a = [v for v, _ in s_old[key]]
        b = [v for v, _ in s_new[key]]
        unit = s_old[key][0][1]
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] / qa[1] - 1.0) * 100.0 if qa[1] else float("nan")
        cell = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {unit}"
        print(f"{workload:<10} {name:<34} {cell(qa):>34} {cell(qb):>34} {change:>7.1f}%")
    for failure in failures:
        print(f"FAIL {failure}")
    print("deterministic values: " + ("CHANGED" if failures else "identical"))
    return 1 if failures else 0


def self_test():
    if not build("lyra_perfbench") or not build("perfbench_test"):
        log("build failed (the tests need GoogleTest)")
        return 1
    # BENCHMARK.json must name exactly the metrics the binary prints.
    listed = subprocess.run([os.path.join(BUILD, "lyra_perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout.split("\n")
    printed = {(kind, name, unit) for kind, name, unit in
               (line.split() for line in listed if line.strip())}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {(kind, m["name"], m["unit"]) for kind in ("end_to_end", "per_layer")
                for m in spec[kind]}
    if printed != declared:
        log(f"BENCHMARK.json and the binary disagree: {sorted(printed ^ declared)}")
        return 1
    os.makedirs(WORK, exist_ok=True)
    return subprocess.run([os.path.join(BUILD, "perfbench_test")], cwd=WORK).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["sim_lyra", "sim_fifo", "svc_mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the run's record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
