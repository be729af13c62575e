#!/usr/bin/env python3
"""Check that the serving benchmark repeats within its own bounds.

    python3 servebench/steadiness.py --runs 10 --sets 2 --gap 120

Runs every workload (or those named by --workloads) in --sets sets of
--runs runs, each run with its own seed and the sets started --gap
seconds apart; workloads are interleaved inside a set. For each
metric it prints every set's median and quartiles, the spread
(interquartile range over the median) and the gap between the first
and each later set's median, both as shares. A spread above a third of
the metric's bound in BENCHMARK.json, or a later median worse than the
first by more than the bound, is flagged with "!". Raw results go to
.bench_build/servebench/steadiness-<time>.json.
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
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:"
                         f"\n{done.stdout}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--gap", type=float, default=60.0,
                        help="seconds between the start of two sets")
    parser.add_argument("--seconds", type=int, default=0,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    names = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    results = {}  # (set, workload) -> [result]
    set_start = time.monotonic()
    for s in range(args.sets):
        if s > 0:
            time.sleep(max(0.0, set_start + args.gap - time.monotonic()))
            set_start = time.monotonic()
        for i in range(args.runs):
            for name in names:
                seed = args.first_seed + 1000 * s + i
                result = run_once(name, seed, seconds, args.trace)
                results.setdefault((s, name), []).append(result)
                print(f"set {s} {name} seed {seed}: "
                      f"{result['elapsed_s']:.1f} s, correct "
                      f"{result['correct']}, failed {result['failed']}"
                      f"/{result['attempted']}", file=sys.stderr)

    stamp = time.strftime("%Y%m%d-%H%M%S")
    log = os.path.join(ROOT, ".bench_build", "servebench",
                       f"steadiness-{stamp}.json")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    with open(log, "w") as f:
        json.dump({f"{s}/{n}": r for (s, n), r in results.items()}, f,
                  indent=1)

    flagged = 0
    for name in names:
        runs = [results[(s, name)] for s in range(args.sets)]
        print(f"\n{name}: {args.runs} runs x {args.sets} sets, longest run "
              f"{max(r['elapsed_s'] for rs in runs for r in rs):.1f} s")
        shares = {r["failed"] / r["attempted"] for rs in runs for r in rs}
        print(f"  failed share: {sorted(shares)}"
              + ("" if len(shares) == 1 else "  ! differs"))
        flagged += len(shares) != 1
        print(f"  {'metric':30} " + "  ".join(
            f"{'set' + str(s) + ' q1/median/q3':>34} {'spread':>7}"
            for s in range(args.sets)) + f" {'gap':>7}")
        for metric in metrics:
            bound = metric.get("bound")
            lower = metric["better"] == "lower"
            cells = []
            first = None
            worst_gap = 0.0
            for s, rs in enumerate(runs):
                values = [r["metrics"][metric["name"]]["value"] for r in rs]
                q1, q2, q3, spread = describe(values)
                mark = "!" if bound is not None and \
                    metric["name"] != "setup_s" and spread > bound / 3 \
                    else " "
                flagged += mark == "!"
                cells.append(f"{q1:11.5g}/{q2:11.5g}/{q3:11.5g}"
                             f" {spread:7.3f}{mark}")
                if first is None:
                    first = q2
                elif first:
                    gap = (q2 - first) / first
                    worse = gap if lower else -gap
                    worst_gap = gap if abs(gap) > abs(worst_gap) \
                        else worst_gap
                    if bound is not None and worse > bound:
                        flagged += 1
                        cells[-1] += " (worse than bound)"
            print(f"  {metric['name']:30} " + "  ".join(cells)
                  + (f" {worst_gap:+7.3f}" if args.sets > 1 else ""))
    print(f"\nraw results: {log}")
    print(f"flags: {flagged}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
