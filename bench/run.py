"""Benchmark of the triqubit command line, run in-process through ``triqubit.cli.main``.

From the repository root:

    python3 bench/run.py --workload sweep_commuting --seed 1 --seconds 30 --trace 0

Closed loop: one client in one process, one call at a time, no extra
threads. The workload's calls are generated from ``--seed`` (see
``generate.py``) and cycled in whole passes over the list for ``--seconds``.
Outside the timed region, the first output of each call in the list is checked
row by row by ``check.py``, and every repeat of the call must reproduce it.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` is the separate
traced run: it alternates an untraced and a traced pass over a fixed call
list until ``--seconds`` have passed and reports the per-layer metrics of
``tracer.py``, as medians over the traced passes. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; diagnostics and the run manifest go to standard error and to
``.bench_work/<workload>/``.
"""

from __future__ import annotations

import os

# One client and no extra threads: pin BLAS before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")

from generate import MEASURES, OUT, SPEC, WORKLOADS, generate  # noqa: E402

SETUP_PROBES = 8  # fresh-process set-up samples, plus the run's own
WARMUP_CALLS = {"sweep_commuting": 2, "sweep_noncommuting": 3, "suite_mix": 12}
MIN_CALLS = 110  # p90 needs at least ten calls above it

PROBE = """
import contextlib, io, json, sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import triqubit
from triqubit.cli import main
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    code = main({argv!r})
elapsed = time.perf_counter() - t0
print(json.dumps([elapsed, code, stdout.getvalue()]))
"""


@dataclass
class Record:
    """One executed call: position in the call list, output file, exit code and stdout."""

    position: int
    out: Path | None
    exit_code: object
    stdout: str


class Runner:
    """Runs calls of the workload's list through ``cli.main``, keeping a record of each."""

    def __init__(self, cli, calls: list[dict], out_dir: Path):
        self.cli = cli  # the module, so that a traced pass calls the wrapped ``main``
        self.calls = calls
        self.out_dir = out_dir
        self.records: list[Record] = []

    def run(self, position: int) -> int:
        """Run one call and return its wall time in ns."""
        position %= len(self.calls)
        call = self.calls[position]
        out = self.out_dir / f"{len(self.records)}.csv" if OUT in call["argv"] else None
        argv = [str(out) if a == OUT else a for a in call["argv"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = perf_counter_ns()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "exception: " + traceback.format_exc()
            elapsed = perf_counter_ns() - t0
        self.records.append(Record(position, out, code, stdout.getvalue()))
        return elapsed


def setup_probe(call: dict, out: Path) -> tuple[float, Record]:
    """Fresh interpreter: time from ``import triqubit`` to the return of the first call."""
    argv = [str(out) if a == OUT else a for a in call["argv"]]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(src=str(SRC), argv=argv)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    seconds, code, stdout = json.loads(proc.stdout)
    return seconds, Record(0, out if OUT in call["argv"] else None, code, stdout)


def _ops(calls: list[dict], records: list[Record]) -> int:
    return sum(calls[r.position]["ops"] for r in records)


def timed_run(runner: Runner, seconds: float) -> dict:
    """Cycle the call list for ``seconds``, and for at least one whole pass and MIN_CALLS calls.

    ``ops_per_s`` is the median over the whole passes of the pass's operations
    over its wall time: every pass does the same work, and the median is not
    moved by a stall of the host that falls into one pass.
    """
    n = len(runner.calls)
    pass_ops = sum(c["ops"] for c in runner.calls)
    latencies_ns, pass_rates = [], []
    start = pass_start = perf_counter_ns()
    while True:
        latencies_ns.append(runner.run(len(latencies_ns)))
        now = perf_counter_ns()
        if len(latencies_ns) % n == 0:
            pass_rates.append(pass_ops / ((now - pass_start) / 1e9))
            pass_start = now
        elapsed = (now - start) / 1e9
        if elapsed >= seconds and pass_rates and len(latencies_ns) >= MIN_CALLS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    deciles = statistics.quantiles([x / 1e6 for x in latencies_ns], n=10)
    return {
        "ops_per_s": statistics.median(pass_rates),
        "call_ms_p50": deciles[4],
        "call_ms_p90": deciles[8],
        "peak_rss_mb": peak_rss_mb,
        "calls": len(latencies_ns),
        "passes": len(pass_rates),
        "elapsed_s": elapsed,
    }


def traced_run(runner: Runner, seconds: float, tracer_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over the call list; return per-layer metrics."""
    from tracer import LAYERS, Tracer

    n = len(runner.calls)
    tracer = Tracer()
    passes = []
    start = perf_counter_ns()
    while not passes or (perf_counter_ns() - start) / 1e9 < seconds:
        untraced_ns = sum(runner.run(k) for k in range(n))
        first = len(runner.records)
        lo = len(passes) * n
        tracer.install()
        try:
            traced_ns = 0
            for k in range(n):
                tracer.call_id = lo + k
                traced_ns += runner.run(k)
        finally:
            tracer.uninstall()
        summary = tracer.summary(lo, lo + n, traced_ns)
        passes.append(_pass_metrics(summary, runner, runner.records[first:], untraced_ns, LAYERS))
    tracer.save(tracer_path)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    return metrics, {"passes": len(passes), "calls_per_pass": n, "spans": len(tracer.span_fn)}


def _pass_metrics(summary: dict, runner: Runner, records: list[Record], untraced_ns: int, layers) -> dict:
    wall = summary["wall_ns"]
    fn_calls, fn_errors, fn_self = summary["fn_calls"], summary["fn_errors"], summary["fn_self_ns"]
    metrics = {}
    for layer in layers:
        self_ns = summary["layer_self_ns"][layer]
        metrics[f"{layer}.self_s"] = self_ns / 1e9
        metrics[f"{layer}.share"] = self_ns / wall
        metrics[f"{layer}.calls"] = summary["layer_calls"][layer]
        metrics[f"{layer}.errors"] = summary["layer_errors"][layer]
    canonical = fn_calls.get("hamiltonians.canonical_commuting_form", 0)
    canonical_ok = canonical - fn_errors.get("hamiltonians.canonical_commuting_form", 0)
    plans = fn_calls.get("evolution.make_plan", 0)
    reports = fn_calls.get("measures.report", 0)
    requested = sum(runner.calls[r.position]["ops"] * runner.calls[r.position]["n_measures"] for r in records)
    metrics.update(
        {
            "measures.wootters_calls": fn_calls.get("measures.wootters_lambdas", 0),
            "evolution.fastpath_calls": fn_calls.get("evolution.evolve_fastpath", 0),
            "evolution.points_per_plan": _ops(runner.calls, records) / plans if plans else 0.0,
            "hamiltonians.canonical_form_yield": canonical_ok / canonical if canonical else 0.0,
            "measures.fields_used_ratio": requested / (reports * len(MEASURES)) if reports else 0.0,
            "scenarios.emit_csv.self_s": fn_self.get("scenarios.emit_csv", 0) / 1e9,
            "scenarios.csv_bytes": sum(r.out.stat().st_size for r in records if r.out is not None and r.out.exists()),
            "trace.wall_s": wall / 1e9,
            "trace.outside_s": summary["outside_ns"] / 1e9,
            "trace.overhead": wall / untraced_ns,
        }
    )
    return metrics


def _output(record: Record) -> tuple:
    """Exit code, stdout and CSV text of a call, with its own output path written as OUT."""
    if record.out is None:
        return record.exit_code, record.stdout, None
    text = record.out.read_text(encoding="utf-8") if record.out.exists() else None
    return record.exit_code, record.stdout.replace(str(record.out), OUT), text


def check_records(calls: list[dict], records: list[Record], seed: int):
    """Check every recorded call against the independent reference.

    The first record of each call in the list is checked row by row, so
    ``attempted`` and ``failed`` count the operations of one pass over the list
    and repeat exactly for a given seed. Every later record of the same call
    must reproduce that output byte for byte; one that does not is gross.
    """
    import check  # loads scipy, so only after peak_rss_mb has been read

    verdict = check.Verdict()
    first: dict[int, tuple] = {}
    differing = set()
    for record in records:
        call = calls[record.position]
        output = _output(record)
        if record.position in first:
            if output != first[record.position] and record.position not in differing:
                differing.add(record.position)
                verdict.gross += 1
                verdict.notes.append(f"{_what(call)}: a repeated call gave another output")
            continue
        first[record.position] = output
        code, stdout, text = output
        if call["config"] is None:
            part = check.check_suite(stdout, code, call["expect_exit"], call["ops"])
        else:
            ref = check.sweep_reference(check.load_config(call["config"]))
            part = check.check_sweep(text, code, call["expect_exit"], ref, seed)
        if part.failed:
            verdict.notes.append(f"{_what(call)}: {part.failed}/{part.attempted} failed; " + "; ".join(part.notes))
        verdict.add(part)
    missing = len(calls) - len(first)
    if missing:
        verdict.gross += missing
        verdict.notes.append(f"{missing} calls of the list never ran")
    return verdict


def _what(call: dict) -> str:
    return Path(call["config"]).name if call["config"] else " ".join(call["argv"])


def _git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args, calls: list[dict]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sweeps = [c for c in calls if c["config"] is not None]
    return {
        "workload": args.workload,
        "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "input": {
            "calls_in_list": len(calls),
            "configs": len(sweeps),
            "grid_points": sum(c["ops"] for c in sweeps),
            "ops_per_list_pass": sum(c["ops"] for c in calls),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "triqubit" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no triqubit sources under {SRC}; run from a triqubit checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    calls = generate(args.workload, args.seed, work / "inputs", Path("configs"))
    out_dir = work / "out"
    out_dir.mkdir(parents=True)

    # set-up is timed in the end-to-end run only, on the list's fixed first call
    setup_samples, probe_records = [], []
    for k in range(0 if args.trace else SETUP_PROBES):
        seconds, record = setup_probe(calls[0], out_dir / f"probe{k}.csv")
        setup_samples.append(seconds)
        probe_records.append(record)

    sys.path.insert(0, str(SRC))
    t0 = perf_counter_ns()
    import triqubit.cli

    runner = Runner(triqubit.cli, calls, out_dir)
    runner.run(0)
    setup_samples.append((perf_counter_ns() - t0) / 1e9)
    for position in range(1, WARMUP_CALLS[args.workload]):
        runner.run(position)
    runner.records = probe_records + runner.records

    info = manifest(args, calls)
    if args.trace:
        metrics, info["trace"] = traced_run(runner, args.seconds, work / "spans.npz")
    else:
        timed = timed_run(runner, args.seconds)
        info["timed"] = {key: timed.pop(key) for key in ("calls", "passes", "elapsed_s")}
        info["setup_samples_s"] = setup_samples
        metrics = {**timed, "setup_s": statistics.median(setup_samples)}

    verdict = check_records(calls, runner.records, args.seed)
    info["check"] = {
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "gross_calls": verdict.gross,
        "max_error": verdict.max_error if math.isfinite(verdict.max_error) else str(verdict.max_error),
        "failed_cells": dict(verdict.failed_cells),
        "notes": verdict.notes,
    }
    (work / "manifest.json").write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(info), file=sys.stderr)

    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    result = {
        "correct": verdict.gross == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
