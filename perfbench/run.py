#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <cold_grid|mc_sweep|warm_grid>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Every call configures and builds
perfbench/ (the library, hlp_worker, the hlp_perfbench binary and its
self-test) in Release mode under .bench_build/; only the first call
compiles everything, later ones rebuild what changed. The self-test runs
before every workload. The stdout of hlp_perfbench is passed through;
its last line is the JSON result. The exit status is nonzero on a build
failure, a failed self-test, a wrong output or a timeout.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(*cmd):
    """Run a build step with its output on stderr; stdout carries results."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    log("cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release")
    log("cmake", "--build", BUILD, "-j", "4",
        "--target", "hlp_perfbench", "perfbench_selftest")
    log(os.path.join(BUILD, "perfbench_selftest"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cold_grid", "mc_sweep", "warm_grid"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="rewrite perfbench/expected/ (default seed only)")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3

    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(work, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    cmd = [os.path.join(BUILD, "hlp_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--expected", os.path.join(HERE, "expected")]
    if args.write_expected:
        cmd.append("--write-expected")
    env = dict(os.environ, TMPDIR=tmp)
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
        status = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        status = 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
