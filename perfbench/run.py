#!/usr/bin/env python3
"""IoTSec end-to-end benchmark: build the harness, run one workload, print
the result.

    python3 perfbench/run.py --workload fleet_telemetry --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The harness and the program's library are
built with optimisation into $CARGO_TARGET_DIR (default .bench_build). The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it starting
with "meta " records the git SHA, nproc, the compiler and the build type.
Exit code 0 only if the run's outputs were correct.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_telemetry", "dpi_inspect", "posture_churn")
# A measured run must end within 180 s. Only the first run in a checkout
# builds (and may take longer); later builds are a no-op check.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(out):
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_sha():
    """HEAD of the repository this checkout is, or "unknown" (a checkout
    without git metadata, or one nested inside another repository)."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the program's sources (src/) are not next to "
            "perfbench/; run from a full checkout")
        return 2

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    cmd = [os.path.join(out, "iotsec_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and (not lines or not lines[-1].startswith("{")):
        log("perfbench: harness printed no result")
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
