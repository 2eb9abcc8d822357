"""Two-tree output check: do two source trees give byte-identical CLI outputs?

Runs one corpus of ``triqubit.cli.main`` calls against the ``src/`` of each
tree and compares, call by call, the exit code, standard output, standard error
and the bytes written to ``--out``. The corpus is the benchmark's call lists of
every workload at seeds 1, 2 and 3 (from ``bench/generate.py``), plus
``classify``, ``sweep`` and ``sweep --seed 7`` of each shipped config in
``configs/``. Inputs are generated once, from the checkout that holds this
script, and both trees read the same files.

Each tree runs in one worker process with its own ``src/`` first on
``sys.path``, calling ``main`` in process. A call's output path is written as
``OUT`` in its standard output and error before comparing.

    python tests/same_outputs.py --base ../parent --change .

Prints the counts, then each differing call with its first differing line, and
exits 0 only when every call matches. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
OUT = "OUT"  # bench/generate.py's placeholder for a call's output path
FIELDS = ("exit", "stdout", "stderr", "out")
TIMEOUT_S = 600.0

WORKER = r"""
import contextlib, io, json, sys
src, calls_path, results_path = sys.argv[1:]
sys.path.insert(0, src)
from triqubit.cli import main
results = []
for argv in json.loads(open(calls_path, encoding="utf-8").read()):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # record it and go on to the next call
            code = f"raised {type(exc).__name__}: {exc}"
    results.append([code, stdout.getvalue(), stderr.getvalue()])
with open(results_path, "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""


def corpus(inputs: Path) -> list[list[str]]:
    """Write the corpus's config files under ``inputs`` and return its argument lists."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from generate import WORKLOADS, generate
    finally:
        sys.path.remove(str(ROOT / "bench"))
    calls = [
        call["argv"]
        for workload in WORKLOADS
        for seed in SEEDS
        for call in generate(workload, seed, inputs / f"{workload}-{seed}", ROOT / "configs")
    ]
    for config in sorted((ROOT / "configs").glob("*.json")):
        sweep = ["sweep", "--config", str(config), "--out", OUT]
        calls += [["classify", "--config", str(config)], sweep, [*sweep, "--seed", "7"]]
    return calls


def outputs(srcs: list[Path], calls: list[list[str]], work: Path) -> list[list[tuple]]:
    """Run ``calls`` against each ``src`` directory, one worker process each, all at once.

    Gives, per tree, one (exit code, stdout, stderr, --out bytes or None) tuple per call, with the
    call's output path written as ``OUT`` in stdout and stderr."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    runs = []
    for k, src in enumerate(srcs):
        (work / f"out{k}").mkdir()
        outs = [str(work / f"out{k}" / f"{i}.csv") for i in range(len(calls))]
        calls_path, results_path = work / f"calls{k}.json", work / f"results{k}.json"
        calls_path.write_text(json.dumps([[o if a == OUT else a for a in argv] for argv, o in zip(calls, outs)]), encoding="utf-8")
        args = [sys.executable, "-c", WORKER, str(Path(src).resolve()), str(calls_path), str(results_path)]
        runs.append((subprocess.Popen(args, env=env, cwd=work), outs, results_path))
    trees = []
    try:
        for proc, outs, results_path in runs:
            if proc.wait(timeout=TIMEOUT_S) != 0:
                raise RuntimeError(f"worker for {srcs[len(trees)]} exited {proc.returncode}")
            results = json.loads(results_path.read_text(encoding="utf-8"))
            trees.append([
                (code, stdout.replace(out, OUT), stderr.replace(out, OUT), Path(out).read_bytes() if Path(out).exists() else None)
                for (code, stdout, stderr), out in zip(results, outs)
            ])
    finally:
        for proc, *_ in runs:  # the rest, when one failed
            proc.kill()
            proc.wait()
    return trees


def _first_difference(base, change) -> str:
    """The first differing line of two field values, as text."""
    if not isinstance(base, (str, bytes)) or not isinstance(change, (str, bytes)):
        return f"{base!r} | {change!r}"
    lines = [
        (value.decode("utf-8", "replace") if isinstance(value, bytes) else value).splitlines()
        for value in (base, change)
    ]
    for number, (old, new) in enumerate(zip(*lines), 1):
        if old != new:
            return f"line {number}: {old!r} | {new!r}"
    shorter = min(len(lines[0]), len(lines[1]))
    return f"line {shorter + 1}: {len(lines[0])} lines | {len(lines[1])} lines"


def differences(calls: list[list[str]], base: list[tuple], change: list[tuple]) -> list[str]:
    """One report line per differing call: its argv, then the first differing field and line."""
    found = []
    for argv, old, new in zip(calls, base, change):
        for name, a, b in zip(FIELDS, old, new):
            if a != b:
                found.append(f"{' '.join(argv)}\n  {name} {_first_difference(a, b)}")
                break
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, type=Path, help="checkout whose src/ is the reference")
    parser.add_argument("--change", required=True, type=Path, help="checkout whose src/ is compared")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        work = Path(tmp)
        calls = corpus(work / "inputs")
        base, change = outputs([args.base / "src", args.change / "src"], calls, work)
    found = differences(calls, base, change)
    print(f"{len(calls)} calls: {len(calls) - len(found)} identical, {len(found)} differ")
    for line in found:
        print(line)
    return 0 if not found else 1


if __name__ == "__main__":
    sys.exit(main())
