#!/usr/bin/env python3
"""The repository's benchmark: builds the library in Release and runs one
workload per process (see perfbench/workloads.json and BENCHMARK.json).

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. The last line of stdout is the result object; --trace 0
      reports the end-to-end metrics, --trace 1 the per-layer ones (and
      writes a Chrome trace next to the build). Exits nonzero when an
      output check failed.

  python3 perfbench/run.py --all [--seed N] [--seconds S] [--record]
      Every workload untraced, then traced; prints every metric by name and
      unit and writes both sets to <build>/ledger.json. --record also
      writes each workload's layer shares and end-to-end metrics to
      perfbench/ledger.json, the recorded per-layer table.

  python3 perfbench/run.py --steadiness N [--workload NAME ...]
                           [--first-seed K] [--seconds S]
      Repeats each workload N times (seeds K, K+1, ...) and prints, per
      end-to-end metric, the median, the quartiles and the spread
      (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

The build goes to $CARGO_TARGET_DIR when set, else .bench_build.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures (once) and builds the perfbench target; exits on failure."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit("run.py: build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out",
                os.path.join(build_dir(), "trace-%s.json" % workload)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def print_metrics(workload, result):
    for name, m in result["metrics"].items():
        print("%-16s %-42s %16.6g %s" % (workload, name, m["value"], m["unit"]))


def record(ledger, seed, seconds):
    """Keeps the layer shares and end-to-end metrics of an --all run."""
    table = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name, runs in ledger.items():
        layers = runs.get("per_layer", {}).get("metrics", {})
        table["workloads"][name] = {
            "layer_shares": {k[:-len(".share")]: round(m["value"], 4)
                             for k, m in layers.items()
                             if k.endswith(".share") and m["value"] > 0},
            "unattributed_ratio": layers.get("bench.unattributed_ratio",
                                             {}).get("value"),
            "end_to_end": {k: m["value"] for k, m in
                           runs.get("end_to_end", {}).get("metrics",
                                                          {}).items()},
        }
    with open(os.path.join("perfbench", "ledger.json"), "w") as f:
        json.dump(table, f, indent=2)
        f.write("\n")


def run_all(binary, bench, seed, seconds, keep):
    ledger, ok = {}, True
    for w in bench["workloads"]:
        name = w["name"]
        ledger[name] = {}
        for trace in (False, True):
            code, result = run_one(binary, name, seed, seconds, trace)
            key = "per_layer" if trace else "end_to_end"
            if result is None or code != 0 or not result.get("correct"):
                ok = False
                print("%-16s FAILED (%s run, exit %d)" % (name, key, code))
            if result is not None:
                ledger[name][key] = result
                print_metrics(name, result)
    with open(os.path.join(build_dir(), "ledger.json"), "w") as f:
        json.dump(ledger, f, indent=1)
    if keep:
        record(ledger, seed, seconds)
    return 0 if ok else 1


def steadiness(binary, bench, workloads, repeats, first_seed, seconds):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report, ok = {}, True
    for name in workloads:
        values = {}
        for i in range(repeats):
            code, result = run_one(binary, name, first_seed + i, seconds,
                                   False)
            if result is None or code != 0 or not result.get("correct"):
                ok = False
                print("%-16s seed %d FAILED (exit %d)"
                      % (name, first_seed + i, code))
                continue
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        report[name] = {}
        for metric, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            verdict = ("steady" if bound is not None and spread <= bound / 3
                       else "within bound" if bound is not None
                       and spread <= bound else "UNRESOLVED")
            report[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": bound,
                                    "runs": len(v), "values": v}
            print("%-16s %-22s median %14.6g  q1 %14.6g  q3 %14.6g  "
                  "spread %6.3f  bound %s  %s"
                  % (name, metric, med, q1, q3, spread, bound, verdict))
    with open(os.path.join(build_dir(), "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    os.chdir(ROOT)
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    binary = build()
    if args.all:
        seed = args.seed if args.seed is not None else 1
        return run_all(binary, bench, seed, seconds, args.record)
    if args.steadiness:
        names = args.workload or [w["name"] for w in bench["workloads"]]
        return steadiness(binary, bench, names, args.steadiness,
                          args.first_seed, seconds)
    if not args.workload or len(args.workload) != 1 or args.seed is None:
        parser.error("one --workload and a --seed are required")
    code, result = run_one(binary, args.workload[0], args.seed, seconds,
                           args.trace == "1")
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
