#!/usr/bin/env python3
"""Layer-sensitivity self-check: a delay injected into one layer, from the
benchmark's own code, must be flagged on the metrics predicted to carry it
and not flagged on the metrics of the same run predicted not to move.

    python3 perfbench/selfcheck.py [--runs 8] [--first-seed 100]

Delays (perfbench --inject, see src/bench.h; each busy-wait lasts 20% of
the call it follows):
  eval  after each call of the workload Objective's batch_fn (the problems
        layer as core calls it), on paper_scale;
  pump  after each serve::Scheduler::pump (between pump calls), on
        serve_mixed's backlog drains.

A run with --inject turns the delay on in its odd rounds only and prints,
per metric, the median over its plain rounds and over its delayed rounds
("selfcheck <name> plain=<v> delayed=<v> ..."). Adjacent rounds of one
process see the same host speed, while two processes differ by tens of
percent on a shared host even when run back to back or side by side, which
swamps a 20% delay in one layer. Each check makes `runs` runs on
consecutive seeds. A metric is flagged when its delayed rounds are worse in
at least 7/8 of the runs and the median of the per-run changes is worse by
more than 3%.
"""
import argparse
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_CHANGE = 0.03

# inject -> (workload, seconds per run,
#            [(metric, worse when higher, predicted flagged)]).
# paper_scale rounds take about 2.5 s; 30 s gives each side five or six.
CHECKS = {
    "eval": ("paper_scale", 30, [
        ("wall_s", True, True),
        ("core.phase_eval_s", True, True),
        # The delay runs inside the eval kernel body: the swarm phase,
        # which does not evaluate, must not move.
        ("core.phase_swarm_s", True, False),
    ]),
    "pump": ("serve_mixed", 15, [
        ("drain_jobs_per_s", False, True),
        # The delay runs between pump() calls: the time inside the pumps
        # must not move.
        ("serve.pump_s", True, False),
    ]),
}


def run(workload, seed, seconds, inject):
    """{metric: (plain, delayed)} from one injected run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0", "--inject", inject]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines or '"failed": 0' not in lines[-1]:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{' '.join(cmd)}: exit {out.returncode}, "
                         "or ops failed")
    sides = {}
    for line in lines:
        # "selfcheck <name> plain=<v> delayed=<v> rounds=<n>/<n>"
        f = line.split()
        if f and f[0] == "selfcheck":
            kv = dict(x.split("=") for x in f[2:])
            sides[f[1]] = (float(kv["plain"]), float(kv["delayed"]))
    return sides


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=8)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()

    ok = True
    need = math.ceil(args.runs * 7 / 8)
    for inject, (workload, seconds, metrics) in CHECKS.items():
        runs = [run(workload, args.first_seed + i, seconds, inject)
                for i in range(args.runs)]
        for metric, higher_worse, expect in metrics:
            sign = 1 if higher_worse else -1
            changes = [sign * (d - p) / p for p, d in (r[metric] for r in runs)]
            worse = sum(1 for c in changes if c > 0)
            change = statistics.median(changes)
            flagged = worse >= need and change > MIN_CHANGE
            verdict = "ok" if flagged == expect else "MISMATCH"
            ok = ok and flagged == expect
            print(f"inject={inject:4s} {workload:12s} {metric:20s} "
                  f"worse_by={change:+.3f} worse_in={worse}/{args.runs} "
                  f"flagged={flagged} predicted={expect} {verdict}\n"
                  f"{'':18s}per-run worse_by="
                  f"{[round(c, 3) for c in changes]}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
