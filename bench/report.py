"""Run the benchmark and print every metric by name with its unit.

From the repository root:

    python3 bench/report.py                          # every workload, seed 1, end-to-end and traced
    python3 bench/report.py --seeds 1-10 --trace 0   # spread of the end-to-end metrics over ten seeds

Runs ``bench/run.py`` once per workload, seed and trace setting, seeds in the
outer loop so that slow drift of the host spreads over every workload. For
each metric it prints the median, the quartiles and the spread (interquartile
distance over the median) beside the bound from ``BENCHMARK.json``, and the
failed and attempted operation counts with their ratio.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results: dict[tuple[str, int], list[dict]] = {(w, t): [] for w in workloads for t in traces}
    for seed in _seeds(args.seeds):
        for workload in workloads:
            for trace in traces:
                results[workload, trace].append(run_once(workload, seed, spec["run_seconds"], trace))

    worst = {}
    for (workload, trace), runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload} (trace {trace}): {len(runs)} runs, correct={correct}, "
              f"failed {failed}/{attempted} = {failed / attempted:.3e}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  unit")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            if bound is not None:
                worst[workload, name] = spread / bound
            print(f"  {name:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}  {runs[0]['metrics'][name]['unit']}")
    if worst:
        (workload, name), ratio = max(worst.items(), key=lambda kv: kv[1])
        print(f"\nlargest spread/bound: {ratio:.3f} ({name} on {workload})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
