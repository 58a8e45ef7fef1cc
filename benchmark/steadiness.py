#!/usr/bin/env python3
"""Runs every workload with ten seeds and prints, per end-to-end metric, the
spread the driver computes: the distance between the first and third quartile
of the ten values as a share of their median.  A benchmark PR runs this
before it is sent; every spread except `setup_s` must stay within the
metric's bound in BENCHMARK.json (and should stay under a third of it).

usage (from the repository root, after a release build):
    python3 benchmark/steadiness.py [--first-seed N] <path to jqos-benchmark> [workload ...]
"""
import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("binary")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    binary, wanted = args.binary, args.workloads
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        if wanted and workload not in wanted:
            continue
        runs = []
        for seed in range(args.first_seed, args.first_seed + 10):
            done = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"FAILED: {workload} seed {seed} (exit {done.returncode})")
                print(done.stderr)
                return 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(workload)
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            flag = "" if name == "setup_s" or spread <= bound / 3 else (
                "  > bound/3" if spread <= bound else "  > BOUND")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<16} median {statistics.median(values):>14.4f}  "
                  f"spread {spread:6.3f}  bound {bound:.2f}{flag}")
    print(f"worst spread/bound: {worst:.2f}")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
