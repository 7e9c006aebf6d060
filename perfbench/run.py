#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a repository checkout.  The first call configures and
builds perfbench/ (which builds tealeaf_core from ../src) in Release under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls rebuild only what changed.  Build output goes to
stderr.  The benchmark's stdout is passed through, so its last line is the
result object.  The exit code is the benchmark's.

OpenMP wait-policy variables are removed from the benchmark's environment
so every run measures the runtime's defaults; the thread count is set by
the benchmark itself.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("pipe_ppcg", "brick3d_csr_mixed", "server_stream")
STRIPPED_ENV = ("OMP_WAIT_POLICY", "GOMP_SPINCOUNT", "OMP_NUM_THREADS")
RUN_TIMEOUT_S = 170.0  # a run, after an up-to-date build, ends within 180 s


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build; returns False when either step fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr,
                           stderr=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
           "perfbench_selftest"]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ here; run from the repository root",
              file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    if args.self_test:
        cmd = [os.path.join(out, "perfbench_selftest"),
               os.path.join(HERE, "reference.json")]
    else:
        cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", ROOT,
               "--workdir", os.path.join(out, "work")]
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
