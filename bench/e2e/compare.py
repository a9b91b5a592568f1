#!/usr/bin/env python3
"""Compares two builds of the end-to-end benchmark by alternating runs.

    bench/e2e/compare.py BASE_BUILD NEW_BUILD [--pairs N] [--seconds S]
                         [--seed S] [--workload W ...]

BASE_BUILD and NEW_BUILD are build directories holding e2e_bench (run.sh
builds into .bench_build/e2e). For every workload the script runs N pairs
(default 10), alternating which side runs first; both runs of pair i use seed
S+i. Alternating matters: on a shared host the speed drifts by tens of
percent over minutes, so back-to-back sets would compare two hosts.

For each end-to-end metric of BENCHMARK.json it prints both sides' medians
and quartiles, the share of pairs NEW won, and a verdict:

  improved    NEW wins at least 9/10 of all pairs (ties count for neither)
              and the medians differ by more than BASE's quartile spread;
  unresolved  BASE's quartile spread, as a share of its median, is wider
              than the bound, and not every NEW run beats every BASE run;
  worse       NEW's median is worse than BASE's by more than the bound;
  no worse    otherwise.

Exits 1 if any verdict is "worse", 2 if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def run(build, workload, seed, seconds):
    cmd = [str(Path(build) / "e2e_bench"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        sys.exit(f"compare.py: {' '.join(cmd)} exited {p.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"compare.py: {' '.join(cmd)} failed its output checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def better(a, b, higher):
    """1 if a beats b, -1 if b beats a, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (a > b) == higher else -1


def verdict(base, new, bound, higher):
    b_med, n_med = statistics.median(base), statistics.median(new)
    q1, _, q3 = statistics.quantiles(base, n=4)
    spread = q3 - q1
    wins = sum(better(n, b, higher) > 0 for b, n in zip(base, new))
    if (wins >= 0.9 * len(base) and better(n_med, b_med, higher) > 0
            and abs(n_med - b_med) > spread):
        return "improved"
    all_better = all(better(n, b, higher) > 0 for b in base for n in new)
    if b_med != 0 and spread / abs(b_med) > bound and not all_better:
        return "unresolved"
    loss = (b_med - n_med) if higher else (n_med - b_med)
    if b_med != 0 and loss / abs(b_med) > bound:
        return "worse"
    return "no worse"


def quartiles(v):
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return f"{q2:11.5g} [{q1:.5g}, {q3:.5g}]"


def main():
    spec = json.loads(BENCHMARK.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    print(f"nproc {os.cpu_count()}, load average {os.getloadavg()}")
    worse = False
    for w in workloads:
        runs = {"base": [], "new": []}
        for i in range(args.pairs):
            order = ("base", "new") if i % 2 == 0 else ("new", "base")
            for side in order:
                build = args.base if side == "base" else args.new
                runs[side].append(run(build, w, args.seed + i, args.seconds))
        print(f"\n{w} ({args.pairs} pairs; median [q1, q3])")
        print(f"  {'metric':14s} {'base':>30s} {'new':>30s}  won  verdict")
        for m in spec["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            base = [r[name] for r in runs["base"]]
            new = [r[name] for r in runs["new"]]
            won = sum(better(n, b, higher) > 0
                      for b, n in zip(base, new)) / len(base)
            v = verdict(base, new, m["bound"], higher)
            worse = worse or v == "worse"
            print(f"  {name:14s} {quartiles(base):>30s} {quartiles(new):>30s}"
                  f" {won:4.0%}  {v} (bound {m['bound']:.0%})")
    print(f"\nload average {os.getloadavg()}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
