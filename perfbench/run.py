#!/usr/bin/env python3
"""Run the repo's benchmark: one workload, or all three in turn.

    python3 perfbench/run.py --workload w32_paper --seed 2002 --trace 0
    python3 perfbench/run.py --workload all

One workload runs in this process: set-up (imports, configuration,
seeded inputs, warm-up), the timed operations, any untimed operation
that must come after ``peak_rss_mb`` is read, then the independent
checks of :mod:`workloads`.  ``setup_s`` is the median of five cold
set-ups, each from the first statement of a fresh process to the
point where its first timed operation could start: this process's own
and four more made by ``--setup-only`` processes before the timed
work.  The last line of standard output is one
JSON object::

    {"correct": true, "attempted": 8, "failed": 1, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``cand_per_s``,
``peak_rss_mb``, ``setup_s``); with ``--trace 1`` the per-layer ones,
read from spans around the repo's public functions.  ``cand_per_s`` of
``w32_paper`` and ``w16_table2`` is given at the reference host speed
of :mod:`hostspeed`; the line before the JSON gives it as measured,
with the reference burst.  ``--workload all``
runs each workload in a fresh process of its own, one after another.

The work list is fixed by the workload and the seed; ``--seconds`` is
accepted for a uniform command line and does not resize it (README.md
gives each workload's measured length).  Exit status 0 iff every check held.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("w32_paper", "w16_table2", "farm_w14")
#: Cold set-ups per run, each in a process of its own; ``setup_s``
#: reports the median.
SETUP_REPEATS = 5
#: Per-workload limit for ``--workload all``.
CHILD_TIMEOUT = 180


def make_workload(name: str, seed: int):
    """Set the workload up: imports, configuration, inputs, warm-up."""
    sys.path.insert(0, SRC)
    import workloads as wl

    workdir = os.path.join(ROOT, ".bench_build", "perfbench", f"farm-{os.getpid()}")
    return {
        "w32_paper": lambda: wl.W32Paper(seed),
        "w16_table2": lambda: wl.W16Table2(seed),
        "farm_w14": lambda: wl.FarmW14(seed, workdir),
    }[name]()


def cold_setup_s(name: str, seed: int) -> float:
    """One cold set-up, timed inside a fresh ``--setup-only`` process."""
    proc = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(seed), "--setup-only",
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_one(name: str, seed: int, trace: bool) -> tuple[dict, bool, str]:
    state = make_workload(name, seed)
    samples = [time.perf_counter() - T_START]
    if not trace:  # a traced run reports no set-up time
        samples += [cold_setup_s(name, seed) for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(samples)

    import workloads as wl
    from hostspeed import NOMINAL_S
    from spans import Recorder

    recorder = Recorder() if trace else None
    timed = None
    correct = True
    try:
        if recorder is not None:
            wl.instrument(recorder)
            state.recorder = recorder
        try:
            timed = state.run()
            if state.clock is not None:
                timed.slowdown = state.clock.slowdown
            timed.peak_rss_mb = wl.peak_rss_mb()
            state.after(timed)
        finally:
            if recorder is not None:
                recorder.restore()
        if recorder is not None:
            timed.layers = state.event_layers(recorder)
        state.check(timed)
    except wl.CheckFailed as exc:
        print(f"{name}: check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        state.close()
    if timed is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, False, ""

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if recorder is not None:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = wl.fold_layers(recorder, timed, state.config)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "cand_per_s": timed.cand_per_s,
            "peak_rss_mb": timed.peak_rss_mb,
            "setup_s": setup_s,
        }
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    result = {
        "correct": correct,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": metrics,
    }
    note = (
        f"  as measured: {timed.raw_cand_per_s:.6g} candidates/s over "
        f"{timed.seconds:.2f} s"
    )
    if state.clock is not None:
        note += (
            f"; reference burst {state.clock.burst_s * 1e3:.2f} ms over "
            f"{len(state.clock.samples)} bursts against {NOMINAL_S * 1e3:.0f} ms"
        )
    return result, correct, note


def describe(name: str, result: dict) -> str:
    lines = [
        f"{name}: {result['attempted']} operations attempted, "
        f"{result['failed']} failed, correct={str(result['correct']).lower()}"
    ]
    for key, m in result["metrics"].items():
        lines.append(f"  {key:26s} {m['value']:14.6f} {m['unit']}")
    return "\n".join(lines)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; the last line folds them."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set one workload up, print the seconds it took, and exit",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"no repro package under {SRC}: run from a checkout of the repo",
            file=sys.stderr,
        )
        return 2
    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only sets up one workload")
        state = make_workload(args.workload, args.seed)
        print(time.perf_counter() - T_START)
        state.close()
        return 0
    if args.workload == "all":
        return run_all(args)
    result, correct, note = run_one(args.workload, args.seed, bool(args.trace))
    print(describe(args.workload, result))
    print(note)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
