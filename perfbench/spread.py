#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds, in one or more sets.

    python3 perfbench/spread.py --workload campaign-mix --seeds 101-110 --seeds 201-210

Runs perfbench/run.py once per seed (tracing off). For each set of seeds it
prints, for every end-to-end metric in BENCHMARK.json, the median and the
interquartile range as a share of the median (statistics.quantiles, n=4).
Every metric is judged against a third of its bound, the steadiness
target the benchmark is tuned to, except setup_s: its run is too short to
span the host's slow and fast periods, so its spread is judged against the
whole bound. With two or more sets it
also judges, for every metric, whether a later set's median is worse than
the first set's by more than the metric's bound. Exits non-zero when any
judgement fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(workload, seeds, seconds, names):
    values = {name: [] for name in names}
    for seed in seeds:
        command = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name in names:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    return values


def worse_by(metric, first, later):
    """Share by which `later` is worse than `first` in the metric's direction."""
    if first == 0:
        return 0.0 if later == first else float("inf")
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", action="append",
                        help="one set of seeds, as 1-10 or 1,5,9; repeat for more sets")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    sets = [parse_seeds(text) for text in (args.seeds or ["1-10"])]

    steady = True
    medians = []
    for index, seeds in enumerate(sets):
        print(f"set {index + 1}: seeds {seeds[0]}..{seeds[-1]}", flush=True)
        values = run_set(args.workload, seeds, seconds, names)
        medians.append({})
        for metric in metrics:
            q1, median, q3 = statistics.quantiles(values[metric["name"]], n=4)
            medians[-1][metric["name"]] = median
            spread = (q3 - q1) / median if median else float("inf")
            target = metric["bound"] if metric["name"] == "setup_s" else metric["bound"] / 3
            ok = spread <= target
            steady &= ok
            print(f"set {index + 1} {metric['name']:16s} median {median:12.6g} "
                  f"{metric['unit']:6s} iqr/median {spread:7.4f} target {target:.4f} "
                  f"{'ok' if ok else 'TOO WIDE'}", flush=True)

    for index in range(1, len(medians)):
        for metric in metrics:
            name = metric["name"]
            worse = worse_by(metric, medians[0][name], medians[index][name])
            ok = worse <= metric["bound"]
            steady &= ok
            print(f"set {index + 1} vs set 1 {name:16s} median {medians[0][name]:12.6g} -> "
                  f"{medians[index][name]:12.6g} worse by {worse:+8.4f} "
                  f"bound {metric['bound']:.2f} {'ok' if ok else 'DRIFTED'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
