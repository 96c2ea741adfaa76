"""Compare two checkouts on one workload, running them alternately.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR --workload exp-rsa --seeds 1-10

Each seed runs both checkouts back to back, alternating which goes first.
For every metric this prints each side's median and quartiles, the pairs
the change won, and a verdict by the rules in bench/GUIDE.md: a gain needs
at least nine tenths of the pairs and a median difference larger than the
parent's own quartile spread; a regression is a median worse than the
parent's by more than the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles


def run(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: benchmark failed for seed {seed}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {checkout} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = median(parent), median(change)
    q1, _, q3 = quantiles(parent, n=4)
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > q3 - q1:
        text = "gain"
    elif bound is not None and sign * (c_med - p_med) < -bound * abs(p_med):
        text = "REGRESSION"
    elif bound is not None and (q3 - q1) > bound * abs(p_med):
        text = "unresolved (spread wider than bound)"
    else:
        text = "no change"
    return wins, text


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    checkouts = (args.parent, args.change)
    results = ([], [])
    for j, seed in enumerate(args.seeds):
        for side in ((0, 1) if j % 2 == 0 else (1, 0)):
            result = run(checkouts[side], args.workload, seed, args.seconds, args.trace)
            results[side].append(result)

    print(f"{args.workload}, {len(args.seeds)} seeds: parent / change median [q1, q3]")
    for name, m in declared.items():
        parent = [r[name] for r in results[0]]
        change = [r[name] for r in results[1]]
        wins, text = verdict(parent, change, m["better"], m.get("bound"))
        cols = []
        for values in (parent, change):
            q1, _, q3 = quantiles(values, n=4)
            cols.append(f"{median(values):.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"  {name:40s} {cols[0]:>32s}  {cols[1]:>32s}  "
              f"wins {wins}/{len(parent)}  {text}")


if __name__ == "__main__":
    main()
