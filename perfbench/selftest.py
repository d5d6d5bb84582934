#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny scale.

    python3 perfbench/selftest.py

Run it from the root of a checkout. It checks that
  * every workload's untraced run passes its oracles and emits every
    end-to-end metric of BENCHMARK.json with its unit;
  * the traced run emits every per-layer metric with its unit;
  * a planted wrong result (one result dropped before the check) makes
    every workload fail: exit code non-zero, correct false;
  * two runs of one seed build identical ingest trees (same page hash);
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.2"
FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def bench(workload, trace, extra=(), seed="3", cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", seed, "--seconds", "1",
           "--trace", str(trace), "--scale", SCALE, *extra]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def metrics_match(result, specs, label):
    got = result["metrics"] if result else {}
    for spec in specs:
        m = got.get(spec["name"])
        check(m is not None and m.get("unit") == spec["unit"] and
              isinstance(m.get("value"), (int, float)),
              f"{label}: {spec['name']} emitted in {spec['unit']}")
    extra = set(got) - {s["name"] for s in specs}
    check(not extra, f"{label}: no metrics beyond BENCHMARK.json {sorted(extra)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    for w in workloads:
        code, _, result = bench(w, 0)
        check(code == 0 and result is not None and result["correct"] and
              result["failed"] == 0 and result["attempted"] >= 1,
              f"{w}: untraced run passes its oracles")
        metrics_match(result, spec["end_to_end"], w)

    code, _, result = bench(workloads[0], 1)
    check(code == 0 and result is not None and result["correct"],
          "traced run passes its oracles")
    metrics_match(result, spec["per_layer"], "traced")

    for w in workloads:
        code, lines, result = bench(w, 0, ["--plant-fault"])
        check(code != 0 and result is not None and not result["correct"] and
              result["failed"] >= 1 and
              any(l.startswith("MISMATCH") for l in lines),
              f"{w}: a planted wrong result fails the run")

    hashes = []
    for _ in range(2):
        _, lines, _ = bench("ingest", 0, seed="5")
        hashes.append([l for l in lines if l.startswith("ingest page_hash")])
    check(hashes[0] and hashes[0] == hashes[1],
          "ingest: one seed gives identical trees in two runs")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    code, lines, result = bench(workloads[0], 0, cwd=bare, env=env)
    check(code != 0 and result is None,
          "without the library sources the benchmark fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
