#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper-50 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the qrm libraries from
the checkout's src/) in Release mode under .bench_build/perfbench; later
calls rebuild incrementally. The benchmark's output is passed through: the
run header, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "qrm_perfbench"
WORKLOADS = ("paper-50", "large-256", "campaign-mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Short SHA-256 over the sources the benchmark builds."""
    digest = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", ROOT / "cmake", BENCH_DIR):
        paths += sorted(p for p in tree.rglob("*") if p.is_file())
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit_id():
    try:
        result = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10, check=False)
        head = result.stdout.strip() if result.returncode == 0 else ""
    except OSError:
        head = ""
    return f"{head or 'no-git'}+src-{source_digest()}"


def build():
    """Configure (once) and build; the log goes to .bench_build/perfbench/build.log."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "qrm_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed: {' '.join(step)} (log: {log_path})")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the exact-repeat self-test instead of a workload")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None or
                               args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no qrm sources next to {BENCH_DIR.name}/ (run from the root of a checkout)")

    build()
    if args.self_test:
        command = [str(BINARY), "--self-test"]
    else:
        command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--commit", commit_id()]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
