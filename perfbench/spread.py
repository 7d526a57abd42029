#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs each workload on several seeds
and reports, per end-to-end metric, the median and the spread (distance
between the first and third quartile as a share of the median) beside the
metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds N] [--trace 0|1]

A spread above the bound fails (exit 1); a spread above a third of the
bound is flagged as noisy.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        runs, elapsed = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.monotonic()
            r = run_once(workload, seed, args.seconds, args.trace)
            elapsed.append(time.monotonic() - t0)
            if not r["correct"] or r["failed"]:
                print(f"{workload} seed {seed}: {r['failed']} of "
                      f"{r['attempted']} ops failed")
                ok = False
            runs.append(r["metrics"])
        print(f"{workload:13s} run seconds median="
              f"{statistics.median(elapsed):.1f} max={max(elapsed):.1f}")
        for name in runs[0]:
            values = [m[name]["value"] for m in runs]
            med, share = spread(values)
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None:
                if share > bound:
                    flag, ok = "FAIL (spread > bound)", False
                elif share > bound / 3:
                    flag = "noisy (spread > bound/3)"
            print(f"{workload:13s} {name:28s} median={med:.6g} "
                  f"spread={share:.4f}"
                  + (f" bound={bound}" if bound is not None else "")
                  + (f"  {flag}" if flag else "")
                  + f"\n{'':14s}values={[float(f'{v:.4g}') for v in values]}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
