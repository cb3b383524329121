#!/usr/bin/env python3
"""Alternating base/change pairs of the repository benchmark.

Exports the tree of a base revision with `git archive`, then runs
`perfbench/run.py` from that tree and from this checkout in alternating
order (the base runs first in even pairs, the change in odd ones), each
side with its own CARGO_TARGET_DIR so neither rebuilds the other's
objects. For every end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, the share of pairs the change wins (ties
count for neither side), and whether the change's median is better
than the base's by more than the base's own interquartile spread:

    python3 scripts/perf_pairs.py --base HEAD~1 --workload pim_kernels \\
        --pairs 10 --seconds 20 --seed 1

Trees and builds are kept under $CARGO_TARGET_DIR/pairs/ (default
.bench_build/pairs/) and reused by later runs. Exit status: 0 when every
run succeeded and printed the same simulated fingerprint as the first
base run, 1 when a fingerprint differs, 2 on bad arguments, 3 when a run
fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Same default as perfbench/run.py: $CARGO_TARGET_DIR, else .bench_build.
PAIRS_DIR = os.path.join(
    os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
    "pairs")


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def export_base(rev):
    """Tree of `rev` under <pairs dir>/base-<sha>/tree."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    home = os.path.join(PAIRS_DIR, "base-" + sha[:12])
    tree = os.path.join(home, "tree")
    if not os.path.isdir(tree):
        partial = tree + ".partial"
        subprocess.run(["rm", "-rf", partial], check=True)
        os.makedirs(partial)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", partial], stdin=archive.stdout,
                       check=True)
        if archive.wait():
            sys.exit("perf_pairs: git archive %s failed" % sha)
        os.rename(partial, tree)
    return sha, tree, os.path.join(home, "target")


def run_once(tree, target, args):
    """One benchmark run: (metric values, fingerprint lines)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr[-4000:] + proc.stdout[-4000:])
        print("perf_pairs: run failed in %s (exit %d)"
              % (tree, proc.returncode), file=sys.stderr)
        sys.exit(3)
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    fingerprint = [ln for ln in lines if ln.startswith("fingerprint ")]
    return values, fingerprint


def quantile(xs, q):
    """Linear-interpolation quantile of a non-empty list."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1 or not 0 < args.seconds <= 600 or args.seed < 0:
        parser.error("need --pairs >= 1, --seconds in (0, 600], --seed >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sha, base_tree, base_target = export_base(args.base)
    sides = {"base": (base_tree, base_target),
             "change": (ROOT, os.path.join(PAIRS_DIR, "change"))}
    runs = {"base": [], "change": []}
    reference = None
    mismatch = False
    print("base %s (%s) vs change %s; workload %s seed %d, %d pairs of "
          "%g s" % (args.base, sha[:12], ROOT, args.workload, args.seed,
                    args.pairs, args.seconds))
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            values, fingerprint = run_once(*sides[side], args)
            runs[side].append(values)
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                mismatch = True
                print("pair %d %s: fingerprint differs:\n  %s"
                      % (i, side, "\n  ".join(fingerprint)))
        print("pair %d (%s first): %s" % (i, order[0], "  ".join(
            "%s %.6g/%.6g" % (m["name"], runs["base"][-1][m["name"]],
                              runs["change"][-1][m["name"]])
            for m in metrics)))
        sys.stdout.flush()

    print("\n%-16s %-34s %-34s %8s %6s  %s" % (
        "metric", "base median [q1..q3]", "change median [q1..q3]",
        "ratio", "wins", "better by > base IQR"))
    for m in metrics:
        name = m["name"]
        higher = m["better"] == "higher"
        b = [r[name] for r in runs["base"]]
        c = [r[name] for r in runs["change"]]
        wins = sum(1 for x, y in zip(b, c) if (y > x if higher else y < x))
        b_med, c_med = quantile(b, 0.5), quantile(c, 0.5)
        iqr = quantile(b, 0.75) - quantile(b, 0.25)
        print("%-16s %-34s %-34s %8.3f %6s  %s" % (
            name,
            "%.6g [%.6g..%.6g]" % (b_med, quantile(b, 0.25),
                                   quantile(b, 0.75)),
            "%.6g [%.6g..%.6g]" % (c_med, quantile(c, 0.25),
                                   quantile(c, 0.75)),
            c_med / b_med if b_med else float("nan"),
            "%d/%d" % (wins, args.pairs),
            "yes" if (c_med - b_med if higher else b_med - c_med) > iqr
            else "no"))
    print("fingerprints: %s" % ("DIFFER" if mismatch else
                                "identical in all %d runs" % (2 * args.pairs)))
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
