#!/usr/bin/env python3
"""Build and run the dmcc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the root of a dmcc source tree. The first call configures and
builds perfbench/ (the harness plus the compiler and simulator libraries
from src/) under .bench_build/; later calls only check that the build is
current. The workload then runs in a child process whose last line of
standard output, one JSON object, is printed as this script's last line.

--quick runs every workload's checks at tiny sizes on two seeds and
exits non-zero if any operation fails or any check does.
"""

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["lu-functional", "lu-scale", "suite-compile", "lu-hostile"]
QUICK_SEEDS = [1, 2]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "3"],
                   check=True, stdout=sys.stderr, timeout=840)


def run_child(args, timeout):
    """Runs the harness; returns its exit code and its last stdout line."""
    proc = subprocess.run([str(BINARY), "--root", str(ROOT)] + args,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def quick():
    ok = True
    for workload in WORKLOADS:
        for seed in QUICK_SEEDS:
            code, last = run_child(
                ["--workload", workload, "--seed", str(seed), "--seconds",
                 "0", "--trace", "1", "--quick", "--fault-seed", str(seed),
                 "--crash-seed", str(seed)], timeout=170)
            result = json.loads(last) if code == 0 and last else {}
            good = result.get("correct") is True and result.get("failed") == 0
            ok = ok and good
            print(f"{workload:14} seed {seed}: "
                  f"{'ok' if good else 'FAILED'} "
                  f"({result.get('attempted', 0)} operations)")
    print("quick check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--fault-seed", type=int,
                        help="lu-hostile network (drop and corruption) seed")
    parser.add_argument("--crash-seed", type=int,
                        help="lu-hostile crash-stop schedule seed")
    parser.add_argument("--engine", choices=["rounds", "event"],
                        default="rounds")
    opts = parser.parse_args()
    if not opts.quick and not opts.workload:
        parser.error("--workload is required unless --quick is given")

    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "examples" / "lu.dm").is_file():
        return fail(f"no dmcc sources (src/, examples/) under {ROOT}")
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        return fail(f"build failed: {err}")

    if opts.quick:
        return quick()

    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--engine", opts.engine]
    if opts.trace:
        args += ["--trace-out",
                 str(BUILD / f"trace-{opts.workload}-{opts.seed}.json")]
    for flag, value in (("--fault-seed", opts.fault_seed),
                        ("--crash-seed", opts.crash_seed)):
        if value is not None:
            args += [flag, str(value)]
    try:
        code, last = run_child(args, timeout=170)
    except subprocess.TimeoutExpired:
        return fail("the workload did not finish in time")
    if code != 0 or not last.startswith("{"):
        return fail(f"the workload exited with code {code}")
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
