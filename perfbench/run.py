#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of the repository. The first run configures and
builds perfbench/ (the twoinone library plus the benchmark program) into
$CARGO_TARGET_DIR, default .bench_build; later runs only re-check the
build. A serving workload's model artifact is written by an untimed
`prepare` step in its own process, so the measured process's peak RSS
covers loading and serving only, and deleted after the run. Trace
files and full result records go to .bench_out/.

The last line of standard output is the measured process's result
JSON. Its metric names are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (log: {log_path})")
    return os.path.join(build_dir, "perfbench")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    artifact = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}.ckpt")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--artifact", artifact]
    try:
        prep = subprocess.run([binary, "prepare"] + common, timeout=RUN_TIMEOUT_S)
        if prep.returncode:
            fail("prepare failed")
        run = subprocess.run(
            [binary, "run"] + common + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace),
                                        "--out", out_dir, "--commit", commit()],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    finally:
        if os.path.exists(artifact):
            os.remove(artifact)
    if run.returncode:
        fail(f"run exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail(f"metric names differ from BENCHMARK.json: {sorted(missing)}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
