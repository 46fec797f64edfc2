"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/summary.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/summary.py --workloads certify_sweep --seeds 1 2 3

Runs ``run.py`` once per (workload, seed), one run at a time, for the
``run_seconds`` of BENCHMARK.json, and prints for each workload and metric
the median over runs, the quartiles (Python's ``statistics.quantiles(n=4)``),
the spread (q3 - q1) / median and the sample count, plus ``fail_ratio`` over
all runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_settings() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    settings = bench_settings()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(W.WORKLOADS),
                        choices=W.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in settings["end_to_end"]}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, settings["run_seconds"]))
            print(f"  {workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.5g}"
                              for k, v in list(runs[-1]["metrics"].items())[:6]),
                  file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}  ({len(runs)} runs, fail_ratio = "
              f"{failed / attempted:.4g} ({failed}/{attempted}))")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            flag = ""
            if name != "setup_s" and rel > bounds[name] / 3:
                flag = "  <- spread above a third of the bound"
            if name == "items_per_s":
                name = f"items_per_s ({W.ITEMS[workload]})"
            print(f"  {name:<44} {med:>12.6g} {first['unit']:<6} "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {rel:.3f}  n={len(values)}"
                  f"{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
