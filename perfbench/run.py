#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload {ingest,serve,overlay} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout. The library and the benchmark program
are built from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to standard error. The
program's standard output is passed through: its last line is the JSON
result. The exit code is the program's, or 1 when the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A first build in a fresh checkout compiles the library; later builds are
# no-ops, so a run stays within the program's own limit plus a few seconds.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout, env):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"timed out after {timeout:.0f} s: {' '.join(cmd)}",
              file=sys.stderr)
        return 1, None
    return proc.returncode, out


def build(build_dir, env):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"],
                      BUILD_TIMEOUT_S, sys.stderr, env)
        if code != 0:
            return False
    code, _ = run(["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", jobs], BUILD_TIMEOUT_S, sys.stderr, env)
    return code == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "serve", "overlay"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="cardinality multiplier (self-test only)")
    parser.add_argument("--plant-fault", action="store_true",
                        help="drop one result before the check (self-test)")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    # Compiler temporaries stay inside the checkout too.
    tmp_dir = os.path.join(target, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not build(build_dir, env):
        print("benchmark build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale)]
    if args.plant_fault:
        cmd.append("--plant-fault")
    if args.trace:
        out_dir = os.path.join(target, "perfbench-trace")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--out-dir", out_dir]
    code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE, env)
    if out is not None:
        sys.stdout.write(out)
        sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
