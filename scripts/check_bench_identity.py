#!/usr/bin/env python3
"""Check that the committed benches still reproduce their JSON.

Runs bench_serving, bench_llm_serving, bench_cluster,
bench_chaos_serving, bench_sdc and bench_fig10_performance with default
flags, each writing its JSON to a temporary file, and compares every
body with the committed BENCH_serving.json, BENCH_llm.json,
BENCH_cluster.json, BENCH_chaos.json, BENCH_sdc.json and
BENCH_fig10.json. bench_chaos_serving and bench_sdc drive the
host-fallback path (tripped breakers, spent retry budgets, quarantined
shards); bench_fig10_performance drives the host FR-FCFS scheduler
hardest (its plain-HBM baselines). Only `self` (the wall-clock ledger)
and `generated_at` may differ: they describe the run, not the
simulation.

    python3 scripts/check_bench_identity.py [--build-dir build]

Exit status: 0 when every body matches, 1 when one differs (the first
differing paths are printed), 2 when a bench binary is missing or fails.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHES = [("bench_serving", "BENCH_serving.json"),
           ("bench_llm_serving", "BENCH_llm.json"),
           ("bench_cluster", "BENCH_cluster.json"),
           ("bench_chaos_serving", "BENCH_chaos.json"),
           ("bench_sdc", "BENCH_sdc.json"),
           ("bench_fig10_performance", "BENCH_fig10.json")]
RUN_KEYS = ("self", "generated_at")
MAX_REPORTED = 10


def differences(a, b, path="$"):
    """Paths at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append("%s.%s: only in %s" % (
                    path, key, "committed" if key in a else "re-run"))
            else:
                out += differences(a[key], b[key], "%s.%s" % (path, key))
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return ["%s: length %d != %d" % (path, len(a), len(b))]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += differences(x, y, "%s[%d]" % (path, i))
        return out
    return [] if a == b else ["%s: %r != %r" % (path, a, b)]


def body(doc):
    return {k: v for k, v in doc.items() if k not in RUN_KEYS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build"),
                        help="CMake build tree holding bench/ (default "
                             "build/)")
    args = parser.parse_args()

    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, committed in BENCHES:
            # Absolute: the bench runs with the temporary directory as cwd.
            binary = os.path.abspath(
                os.path.join(args.build_dir, "bench", name))
            out = os.path.join(tmp, committed)
            if not os.path.isfile(binary):
                print("%s: not built (%s)" % (name, binary), file=sys.stderr)
                return 2
            proc = subprocess.run([binary, "--json-out=" + out], cwd=tmp,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if proc.returncode or not os.path.isfile(out):
                sys.stderr.write(proc.stderr[-4000:])
                print("%s: exit %d" % (name, proc.returncode),
                      file=sys.stderr)
                return 2
            with open(os.path.join(ROOT, committed)) as f:
                want = body(json.load(f))
            with open(out) as f:
                got = body(json.load(f))
            diffs = differences(want, got)
            if diffs:
                failed = True
                print("%s: %d difference(s) from the committed %s"
                      % (name, len(diffs), committed))
                for line in diffs[:MAX_REPORTED]:
                    print("  " + line)
            else:
                print("%s: identical to the committed %s" % (name,
                                                               committed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
