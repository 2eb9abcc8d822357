"""Mutation census of the package: how many small operator swaps the test suite catches.

A mutant changes one site of ``src/triqubit/*.py``: a comparison operator
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``,
``in`` and ``not in``, each into the other), ``+`` and ``-``, ``*`` and ``/``,
``and`` and ``or``, or a nonzero float constant scaled by 1.001. Each module is
written back with ``ast.unparse``, so comments and layout are lost; a control
run of the unmutated round trip must pass first, so that a mutant's result comes
from its mutation alone.

The census runs on a temporary copy of the repository and never writes
``src/``. Each sampled mutant runs pytest once, with ``-x``, in that copy; it is
killed when pytest fails or times out and survives when pytest passes. The
result, survivors included, goes to standard output as JSON.

    python tests/mutants.py --sample 30 --seed 11
    python tests/mutants.py --sample 10 --seed 1 -- tests/test_linalg.py -k directions

Arguments after ``--`` go to pytest (default: the whole suite). Uses the
standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "triqubit"
COPIED = ("src", "tests", "configs", "bench", "pyproject.toml", "BENCHMARK.json")  # what the tests read
SCALE = 1.001
TIMEOUT_S = 600.0  # a mutant that runs this long is counted as killed
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.And: "and", ast.Or: "or",
}


@dataclass(frozen=True)
class Site:
    """One mutant: the ``index``-th mutable site of ``file`` in ``ast.walk`` order."""

    file: str
    index: int
    line: int
    col: int
    mutation: str
    code: str


def _mutable(tree: ast.AST):
    """(node, operator slot) of every site in ``ast.walk`` order; the slot is the index into a
    Compare's ``ops``, ``"op"`` for BinOp and BoolOp, or ``"value"`` for a float constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            yield from ((node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            yield node, "op"
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value != 0.0:
            yield node, "value"


def _describe(node: ast.AST, slot) -> str:
    if slot == "value":
        return f"{node.value!r} -> {node.value * SCALE!r}"
    op = node.ops[slot] if isinstance(node, ast.Compare) else node.op
    return f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"


def _mutate(node: ast.AST, slot) -> None:
    if slot == "value":
        node.value *= SCALE
    elif isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    else:
        node.op = SWAPS[type(node.op)]()


def sites(root: Path = ROOT) -> list[Site]:
    """Every mutable site of the package under ``root``, by file and then in ``ast.walk`` order."""
    found = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for index, (node, slot) in enumerate(_mutable(ast.parse(source))):
            code = ast.get_source_segment(source, node) or ""
            found.append(Site(str(path.relative_to(root)), index, node.lineno, node.col_offset, _describe(node, slot), code))
    return found


def mutated_source(source: str, index: int | None) -> str:
    """``source`` through ``ast.unparse``, with its ``index``-th site mutated (None: no mutation)."""
    tree = ast.parse(source)
    if index is not None:
        _mutate(*list(_mutable(tree))[index])
    return ast.unparse(tree) + "\n"


class Workspace:
    """A temporary copy of the repository that mutants are written into, one at a time."""

    def __init__(self, root: Path = ROOT):
        self._tmp = tempfile.TemporaryDirectory(prefix="triqubit-mutants-")
        self.root = Path(self._tmp.name)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in COPIED:
            if (root / name).is_dir():
                shutil.copytree(root / name, self.root / name, ignore=ignore)
            else:
                shutil.copy2(root / name, self.root / name)
        self._originals = {p: p.read_text(encoding="utf-8") for p in (self.root / PACKAGE).glob("*.py")}
        self.output = ""  # pytest's output of the last run

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._tmp.cleanup()

    def run(self, pytest_args, site: Site | None = None) -> str:
        """``"killed"``, ``"survived"`` or ``"timeout"`` for ``site`` (None: the unmutated round trip of
        every module, the control)."""
        for path, source in self._originals.items():
            index = site.index if site is not None and path == self.root / site.file else None
            if site is None or index is not None:
                path.write_text(mutated_source(source, index), encoding="utf-8")
        try:
            env = {**os.environ, "PYTHONPATH": str(self.root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
            argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
            try:
                proc = subprocess.run(argv, cwd=self.root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return "timeout"
            self.output = proc.stdout + proc.stderr
            if proc.returncode in (4, 5):  # usage error or no test selected: the census itself is wrong
                raise SystemExit(f"pytest {' '.join(pytest_args)} exited {proc.returncode}:\n{self.output}")
            return "survived" if proc.returncode == 0 else "killed"
        finally:
            for path, source in self._originals.items():
                path.write_text(source, encoding="utf-8")


def census(sample: int, seed: int, pytest_args) -> dict:
    """Run the control, then ``sample`` mutants drawn with ``random.Random(seed)``."""
    every = sites()
    drawn = sorted(random.Random(seed).sample(every, min(sample, len(every))), key=lambda s: (s.file, s.index))
    with Workspace() as work:
        if work.run(pytest_args) != "survived":
            raise SystemExit(f"control failed: the unmutated ast.unparse round trip does not pass the tests\n{work.output}")
        outcomes = []
        for k, site in enumerate(drawn, 1):
            outcomes.append(work.run(pytest_args, site))
            print(f"[{k}/{len(drawn)}] {outcomes[-1]:<8} {site.file}:{site.line} {site.mutation}", file=sys.stderr)
    return {
        "seed": seed,
        "sites": len(every),
        "sampled": len(drawn),
        "killed": sum(outcome != "survived" for outcome in outcomes),
        "pytest_args": list(pytest_args),
        "survivors": [asdict(site) for site, outcome in zip(drawn, outcomes) if outcome == "survived"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sample", type=int, default=30, help="number of mutants to draw (default 30)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the draw (default 0)")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = parser.parse_args(argv)
    json.dump(census(args.sample, args.seed, args.pytest_args), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
