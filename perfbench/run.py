#!/usr/bin/env python3
"""Build and run the RedEye benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repo root. Builds perfbench/ (and the library sources
under src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, trains and caches the MiniGoogLeNet weights once, runs the
benchmark's arithmetic tests, then runs one workload. The workload's
report goes to stdout; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics, holding the
end-to-end metrics BENCHMARK.json declares (--trace 0) or its
per-layer metrics (--trace 1). Exits nonzero when the build fails, a
correctness check fails or a declared metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_logged(cmd, **kw):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          **kw).returncode == 0


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        if not run_logged(["cmake", "-S", HERE, "-B", build_dir, "-G",
                           "Ninja", "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_logged(["cmake", "--build", build_dir, "-j", "4"])


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    if not build(build_dir):
        log("build failed")
        return 1
    binary = os.path.join(build_dir, "perfbench_redeye")
    if not run_logged([os.path.join(build_dir, "perfbench_arith_test"),
                       "--gtest_brief=1"]):
        log("benchmark arithmetic tests failed")
        return 1
    weights = os.path.join(build_dir, "redeye_mini_weights.bin")
    if not os.path.exists(weights):
        log("training MiniGoogLeNet once (cached for later runs)")
        if not run_logged([binary, "--prepare", "--cache-dir", build_dir]):
            return 1
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--cache-dir", build_dir, "--out-dir", out_dir,
         "--commit", commit_id()],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log(f"benchmark exited {proc.returncode} without a result")
        return 1
    print("\n".join(lines[:-1]))

    found = result["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in found]
    if missing:
        log("metrics missing from the run: " + ", ".join(missing))
        return 1
    metrics = {}
    for m in wanted:
        got = found[m["name"]]
        if got["unit"] != m["unit"] or got["value"] is None:
            log(f"metric {m['name']}: got {got}, declared unit {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
