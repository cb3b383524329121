#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per seed for each workload (one process at a
time) and prints, per metric, the median and the distance between the
first and third quartile as a share of the median -- the figure the
metric's bound in BENCHMARK.json is compared with:

    python3 perfbench/spread.py --workloads pim_kernels --seeds 1-5

Every run must report correct=true; a failed run is printed and makes
the exit status nonzero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    # For comparison with the metric: the whole phase's mean rate, the
    # typical round's unscaled rate, and the slow factor.
    notes = {"phase means: ": ("(phase mean req/s)", 2),
             "typical round as measured: ": ("(unscaled req/s)", 4),
             "reference: ": ("(slow factor)", -1)}
    for line in lines:
        for prefix, (name, field) in notes.items():
            if result and line.startswith(prefix):
                result.setdefault("notes", {})[name] = float(
                    line.split()[field].rstrip(","))
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            code, result = run_once(workload, seed, args.seconds, 0)
            if code != 0 or not result or not result["correct"]:
                print("%s seed %d FAILED (exit %d): %s"
                      % (workload, seed, code, result))
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, value in result.get("notes", {}).items():
                values.setdefault(name, []).append(value)
            print("%s seed %d: %s" % (workload, seed, ", ".join(
                "%s=%.6g" % (n, m["value"])
                for n, m in result["metrics"].items())), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = " OVER BOUND" if spread > bound else (
                    " ok (< bound/3)" if spread < bound / 3 else " ok")
            print("  %-16s median %-14.6g spread %.4f bound %s%s"
                  % (name, med, spread, bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
