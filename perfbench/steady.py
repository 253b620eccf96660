#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload repeatedly and print
the median and quartiles of every end-to-end metric.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads w32_paper --seed 2002

Run ``i`` uses seed ``1 + i`` for every workload, so the spread holds
both the host's noise and the differences between seeded inputs, as
when two sets of runs with different seeds are compared.  With
``--seed`` every run uses that one seed, and the spread is the host's
noise alone.  The workload order alternates between rounds, so a slow
spell on the machine does not always land on the same workload.  Each run is a fresh
``run.py --workload NAME --trace 0`` process.  The spread printed for a
metric is the distance between its first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of its median; a
bound in BENCHMARK.json should sit well above it.  The failed share of
operations must be the same in every run, and is printed as the set of
shares seen.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import CHILD_TIMEOUT, WORKLOADS  # noqa: E402


def run_once(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", name, "--seed", str(seed), "--trace", "0",
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name} seed {seed}: exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(results: dict[str, list[dict]]) -> list[str]:
    out = [f"{'workload':12s} {'metric':12s} {'median':>12s} {'q1':>12s} "
           f"{'q3':>12s} {'spread':>8s}  n"]
    for name, runs in results.items():
        for metric in runs[0]["metrics"]:
            unit = runs[0]["metrics"][metric]["unit"]
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            out.append(
                f"{name:12s} {metric:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                f"{(q3 - q1) / med:8.2%}  {len(values)}  {unit}"
            )
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        correct = all(r["correct"] for r in runs)
        out.append(f"{name:12s} failed share {', '.join(shares)}; "
                   f"correct={str(correct).lower()}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None,
                        help="use this seed in every run")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset, in first-round order")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = set(names) - set(WORKLOADS)
    if unknown or args.runs < 1:
        parser.error(f"unknown workloads {sorted(unknown)} or --runs < 1")
    results: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for name in order:
            seed = 1 + i if args.seed is None else args.seed
            result = run_once(name, seed)
            results[name].append(result)
            print(f"run {i} {name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
            ), flush=True)
    print("\n".join(summarize(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
