#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the repository root):
  python3 perfbench/run.py --workload discover_ab_opt --seed 1 \
      --seconds 15 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 15

Builds the harness (perfbench/CMakeLists.txt, which pulls in the
repository's sources) into $CARGO_TARGET_DIR or .bench_build, then runs it
once in a fresh process ("all": each workload in turn, printing every
metric by name). With --trace 1 the harness writes an obs trace,
which is checked with tools/validate_trace.py. The exit code is non-zero
when the build fails, the run fails, or any output differs from its
reference. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("discover_ab_opt", "discover_nab_fail", "serve_fresh")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures and builds the harness; returns the binary path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    binary = os.path.join(cmake_dir, "perfbench")
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", cmake_dir, "--target", "perfbench",
                "-j", str(min(4, os.cpu_count() or 1))]
    for command in (configure, compile_):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(command)}")
            return None
    return binary


def run_workload(binary, build_dir, root, workload, seed, seconds, trace):
    """Runs the harness once; returns its result dict, or None when it did
    not produce one. A result with "correct": false means some output
    differed from its reference."""
    workdir = os.path.join(build_dir, "runs", workload)
    os.makedirs(workdir, exist_ok=True)
    trace_path = os.path.join(workdir, "trace.json")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    command = [binary, f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--trace={trace}",
               f"--workdir={workdir}"]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    # Exit code 1 still carries a result: a failed correctness check.
    if done.returncode not in (0, 1) or not lines:
        log(f"{workload}: harness exited with {done.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last output line is not a result")
        return None
    if result["correct"] != (done.returncode == 0):
        log(f"{workload}: exit code {done.returncode} disagrees with result")
        return None

    if trace == 1:
        validator = os.path.join(root, "tools", "validate_trace.py")
        check = subprocess.run([sys.executable, validator, trace_path],
                               stdout=sys.stderr, stderr=sys.stderr,
                               check=False)
        if check.returncode != 0:
            log(f"{workload}: trace failed tools/validate_trace.py")
            return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(root, ".bench_build"))
    binary = build(root, build_dir)
    if binary is None:
        return 2

    if args.workload != "all":
        result = run_workload(binary, build_dir, root, args.workload,
                              args.seed, args.seconds, args.trace)
        if result is None:
            return 2
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    status = 0
    for workload in WORKLOADS:
        result = run_workload(binary, build_dir, root, workload, args.seed,
                              args.seconds, args.trace)
        if result is None or not result["correct"]:
            print(f"{workload:<18} FAILED")
            status = 1
        if result is None:
            continue
        for name, metric in result["metrics"].items():
            print(f"{workload:<18} {name:<26} {metric['value']:.6g} "
                  f"{metric['unit']}")
        share = result["failed"] / result["attempted"]
        print(f"{workload:<18} {'failed_share':<26} {share:.6g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
