#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the pimsim library and the benchmark binary from source (CMake,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench under
the repository root), then runs one workload in its own single-threaded
process:

    python3 perfbench/run.py --workload pim_kernels --seed 1 \
        --seconds 15 --trace 0

perfbench_main's output is passed through; its last line is one JSON object
with the keys correct, attempted, failed and metrics. --trace 1 reports
the per-layer metrics and writes the kept spans as a Chrome trace next
to the build. `--selftest` builds and runs the self-tests of the
benchmark's own arithmetic instead.

Exit status: perfbench_main's (0 = every operation correct), 2 on bad
arguments, 3 when the program cannot be built (e.g. the sources are
missing).
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pim_kernels", "hbm_baseline", "serve_open_loop", "llm_decode"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then (re)build; build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: pimsim sources not found under " + ROOT,
              file=sys.stderr)
        return None
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return bdir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    bdir = build()
    if bdir is None:
        return 3
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")]
                              ).returncode

    cmd = [os.path.join(bdir, "perfbench_main"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    # Whatever ends this process (timeout, SIGTERM, Ctrl-C) also ends
    # perfbench_main, and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 4
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
