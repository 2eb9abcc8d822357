"""The benchmark's own self-tests, run against this checkout.

``bench/`` reads package names the tests here do not otherwise touch (for
example ``triqubit.evolution.kron`` and the layers its tracer wraps), so a
change that drops one of them fails here.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from triqubit.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look the module up there
    spec.loader.exec_module(module)
    return module


GENERATE, CHECK = _load_bench("generate"), _load_bench("check")


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Ran 14 tests" in proc.stderr and proc.stderr.rstrip().endswith("OK"), proc.stderr


@pytest.mark.parametrize(
    "command",
    [["suite", name] for name in GENERATE.SUITES]
    + [["periodicity", "--k", str(k), "--l", str(l)] for k, l in GENERATE.PERIODICITY_RATIOS],
    ids=lambda command: " ".join(command),
)
def test_suite_calls_exit_as_the_benchmark_expects(capsys, command):
    # the benchmark's suite calls run 25 trials at arbitrary seeds and check each exit code against SUITE_EXIT:
    # a change of the streams that flipped an outcome would fail the benchmark's correctness check
    expect = GENERATE.SUITE_EXIT.get(command[1], 0)
    codes = [main([*command, "--trials", str(GENERATE.SUITE_TRIALS), "--seed", str(seed)]) for seed in range(20)]
    capsys.readouterr()
    assert codes == [expect] * 20


@pytest.mark.parametrize(
    "command",
    [["suite", name] for name in GENERATE.SUITES]
    + [["periodicity", "--k", str(k), "--l", str(l)] for k, l in GENERATE.PERIODICITY_RATIOS],
    ids=lambda command: " ".join(command),
)
def test_suite_calls_pass_the_benchmark_check(capsys, command):
    # the benchmark's verdict on each of those calls: exit code and trial count, so a stream that
    # moved at rounding level cannot turn a benchmark run incorrect unseen
    expect = GENERATE.SUITE_EXIT.get(command[1], 0)
    for seed in range(20):
        code = main([*command, "--trials", str(GENERATE.SUITE_TRIALS), "--seed", str(seed)])
        verdict = CHECK.check_suite(capsys.readouterr().out, code, expect, GENERATE.SUITE_TRIALS)
        assert (verdict.failed, verdict.gross) == (0, 0), (seed, verdict.notes)
