#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Builds `perfbench/` with the release profile into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the `perfbench` binary and relays its output.
The last line printed is the result object. If the binary dies or overruns
its time limit, every cell of the run counts as failed and the result says
so. If the build fails, nothing is printed and the exit code is non-zero.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("figures", "sweeps", "figures_warm", "sliced16")
# Every run must end within 180 s; leave room for the build check and exit.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 880


def revision():
    """The checkout's git revision, or 'unknown' outside a git repository
    (not that of a repository enclosing the checkout)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def failed_result(attempted):
    return {"correct": False, "attempted": max(attempted, 1), "failed": max(attempted, 1), "metrics": {}}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    os.chdir(ROOT)
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1

    started = time.monotonic()
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(target / "perfbench-work"), "--out", str(target / "perfbench-out"),
           "--reference", "perfbench/reference.json", "--revision", revision()]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print(f"perfbench: {args.workload} overran {RUN_LIMIT_S} s", file=sys.stderr)
    lines = out.splitlines()

    # Cells attempted so far, from the binary's progress lines.
    per_pass, attempted = 1, 0
    for line in lines:
        if line.startswith("# plan cells_per_pass="):
            per_pass = int(line.split("=", 1)[1])
        elif line.startswith("# done attempted="):
            attempted = int(line.split("=", 1)[1])
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if proc.returncode not in (0, 1) or not isinstance(result, dict) or "correct" not in result:
        # The run died: the pass in flight and every pass before it failed.
        for line in lines:
            print(line)
        print(json.dumps(failed_result(attempted + per_pass)))
        return 1
    for line in lines:
        print(line)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
