"""Self-tests of the benchmark's generator, row checker and tracer.

From the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import triqubit.cli  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SCRATCH = ROOT / ".bench_work"  # temporary files stay inside the checkout


def _tempdir() -> tempfile.TemporaryDirectory:
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class GeneratorTest(unittest.TestCase):
    def test_byte_identical_for_a_fixed_seed(self):
        with _tempdir() as tmp:
            out = Path(tmp) / "inputs"
            for workload in generate.WORKLOADS:
                generate.generate(workload, 7, out, ROOT / "configs")
                first = _snapshot(out)
                generate.generate(workload, 7, out, ROOT / "configs")
                self.assertEqual(first, _snapshot(out), workload)
                generate.generate(workload, 8, out, ROOT / "configs")
                self.assertNotEqual(first, _snapshot(out), workload)

    def test_first_call_is_the_same_for_every_seed(self):
        with _tempdir() as tmp:
            for workload in generate.WORKLOADS:
                firsts = []
                for seed in (1, 2):
                    call = generate.generate(workload, seed, Path(tmp) / workload, ROOT / "configs")[0]
                    # a sweep's --seed only labels its CSV, so its config fixes the work
                    firsts.append(Path(call["config"]).read_bytes() if call["config"] else call["argv"])
                self.assertEqual(firsts[0], firsts[1], workload)

    def test_shipped_configs_ride_along_verbatim(self):
        with _tempdir() as tmp:
            for workload, names in generate.VERBATIM.items():
                calls = generate.generate(workload, 1, Path(tmp) / workload, ROOT / "configs")
                shipped = [(ROOT / "configs" / name).read_bytes() for name in names]
                self.assertEqual(shipped, [Path(c["config"]).read_bytes() for c in calls[: len(names)]])

    def test_every_state_class_is_drawn(self):
        with _tempdir() as tmp:
            for workload in generate.VERBATIM:
                calls = generate.generate(workload, 1, Path(tmp) / workload, ROOT / "configs")
                classes = {check.load_config(c["config"])["initial_state"]["class"] for c in calls}
                self.assertTrue(set(generate.STATE_CLASSES) <= classes, workload)


def _sweep(config: Path, out: Path) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        code = triqubit.cli.main(["sweep", "--config", str(config), "--out", str(out), "--seed", "5"])
    assert code == 0, code
    return out.read_text(encoding="utf-8")


def _set_cell(text: str, row: int, column: str, delta: float) -> str:
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[2 + row].split(",")  # header and seed comment come first
    k = header.index(column)
    cells[k] = repr(float(cells[k]) + delta)
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines)


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = _tempdir()
        tmp = Path(cls.tmp.name)
        calls = generate.generate("sweep_commuting", 3, tmp / "inputs", ROOT / "configs")
        cls.config = Path(calls[1]["config"])  # a generated config, with probe measurement
        cls.ref = check.sweep_reference(check.load_config(cls.config))
        cls.text = _sweep(cls.config, tmp / "out.csv")

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _check(self, text, exit_code=0):
        return check.check_sweep(text, exit_code, 0, self.ref, 5)

    def test_program_output_agrees_with_reference_away_from_t0(self):
        verdict = self._check(self.text)
        self.assertEqual(verdict.attempted, len(self.ref.times))
        self.assertLessEqual(verdict.failed, 1)  # only the t = 0 row can miss, by a structural-zero defect
        self.assertEqual(verdict.gross, 0)

    def test_cell_perturbed_by_1e6_fails_its_row(self):
        base = self._check(self.text).failed
        for column in ("purity_12", "residual_tangle", "outcome_prob_2", "conditional_tangle_1"):
            verdict = self._check(_set_cell(self.text, len(self.ref.times) // 2, column, 1e-6))
            self.assertEqual(verdict.failed, base + 1, column)
            self.assertEqual(verdict.failed_cells[column], 1, column)

    def test_unparsable_cell_fails_and_is_gross(self):
        lines = self.text.split("\n")
        lines[10] = lines[10].replace(lines[10].split(",")[2], "nan", 1)
        verdict = self._check("\n".join(lines))
        self.assertGreaterEqual(verdict.failed, 1)
        self.assertEqual(verdict.gross, 1)

    def test_short_row_fails_and_is_gross(self):
        lines = self.text.split("\n")
        lines[10] = lines[10].rsplit(",", 1)[0]
        verdict = self._check("\n".join(lines))
        self.assertEqual((verdict.failed_cells["<row length>"], verdict.gross), (1, 1))

    def test_wrong_exit_code_fails_every_row(self):
        verdict = self._check(self.text, exit_code=3)
        n = len(self.ref.times)
        self.assertEqual((verdict.failed, verdict.gross), (n, 1))
        self.assertEqual(self._check(None, exit_code=0).failed, n)

    def test_suite_exit_codes(self):
        out = "suite triple_convexity_bound: 25 trials, max violation 1.0e-01\n"
        self.assertEqual(check.check_suite(out, 4, 4, 25).failed, 0)
        self.assertEqual(check.check_suite(out, 0, 4, 25).failed, 25)
        self.assertEqual(check.check_suite(out, 4, 0, 25).failed, 25)
        self.assertEqual(check.check_suite(out, 0, 0, 24).failed, 24)

    def test_suite_near_miss_fails_without_being_gross(self):
        out = "suite bipartite12_nonincreasing: 25 trials, max violation 3.430e-08\n"
        self.assertEqual((check.check_suite(out, 4, 0, 25).failed, check.check_suite(out, 4, 0, 25).gross), (25, 0))
        out = "suite bipartite12_nonincreasing: 25 trials, max violation 3.430e-02\n"
        self.assertEqual(check.check_suite(out, 4, 0, 25).gross, 1)
        out = "ratio 2/3: 25 trials, max |tau(t*) - tau(0)| = 2.000e-08\n"
        self.assertEqual(check.check_suite(out, 4, 0, 25).gross, 0)

    def test_stated_convexity_suite_exits_4(self):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = triqubit.cli.main(["suite", "triple_convexity_bound", "--trials", "25", "--seed", "1"])
        self.assertEqual(check.check_suite(stdout.getvalue(), code, generate.SUITE_EXIT["triple_convexity_bound"], 25).failed, 0)


class CheckRecordsTest(unittest.TestCase):
    def test_repeats_count_once_and_must_reproduce_the_output(self):
        with _tempdir() as tmp:
            calls = generate.generate("suite_mix", 2, Path(tmp), ROOT / "configs")[:2]
        out = "suite x: 25 trials, max violation 0.000e+00\n"
        records = [run.Record(k % 2, None, calls[k % 2]["expect_exit"], out) for k in range(6)]
        verdict = run.check_records(calls, records, 2)
        self.assertEqual((verdict.attempted, verdict.failed, verdict.gross), (2 * generate.SUITE_TRIALS, 0, 0))
        changed = run.Record(1, None, calls[1]["expect_exit"], out.replace("0.000", "1.000"))
        self.assertEqual(run.check_records(calls, [*records, changed], 2).gross, 1)
        self.assertEqual(run.check_records(calls, records[:1], 2).gross, 1)  # the second call never ran


class TracerTest(unittest.TestCase):
    def test_self_times_and_outside_sum_to_wall(self):
        with _tempdir() as tmp:
            tmp = Path(tmp)
            calls = generate.generate("sweep_commuting", 2, tmp / "inputs", ROOT / "configs")[:3]
            calls += generate.generate("suite_mix", 2, tmp / "suites", ROOT / "configs")[:11]
            runner = run.Runner(triqubit.cli, calls, tmp)
            original = (triqubit.cli.main, triqubit.evolution.kron)
            tracer = Tracer()
            tracer.install()
            try:
                self.assertIsNot(triqubit.cli.main, original[0])
                wall = 0
                for k in range(len(calls)):
                    tracer.call_id = k
                    wall += runner.run(k)
            finally:
                tracer.uninstall()
            self.assertEqual((triqubit.cli.main, triqubit.evolution.kron), original)
            summary = tracer.summary(0, len(calls), wall)
            self.assertEqual(sum(summary["layer_self_ns"].values()) + summary["outside_ns"], wall)
            self.assertGreaterEqual(summary["outside_ns"], 0)
            for layer in LAYERS:
                self.assertGreater(summary["layer_calls"][layer], 0, layer)
            metrics = run._pass_metrics(summary, runner, runner.records, wall, LAYERS)
            self.assertEqual(set(metrics), {m["name"] for m in generate.SPEC["per_layer"]})
            self.assertEqual(metrics["cli.calls"], 2 * len(calls))  # main and one command handler per call


if __name__ == "__main__":
    unittest.main()
