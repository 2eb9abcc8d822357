import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from triqubit.cli import main
from triqubit.scenarios import ConfigError, parse_config

from test_scenarios import OVERFLOW_CASES

INV_SQRT2 = 1 / np.sqrt(2)


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def heisenberg_raw(**overrides):
    raw = {
        "hamiltonian": {"preset": "heisenberg_chain", "g": 1.0},
        "initial_state": {
            "class": "raw_amplitudes",
            "params": {"amplitudes": [INV_SQRT2, INV_SQRT2, 0, 0, 0, 0, 0, 0]},
        },
        "time_grid": {"t_start": 0.0, "t_end": float(np.pi), "steps": 16},
    }
    raw.update(overrides)
    return raw


class TestSweepCommand:
    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, heisenberg_raw())
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert out.exists()
        assert len(out.read_text().splitlines()) == 17
        assert "noncommuting" in capsys.readouterr().out

    def test_missing_config_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        code = main(["sweep", "--config", missing, "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"hamiltonian": {"preset": "heisenberg_chain", "g": float("nan")}}, "config.hamiltonian.g"),
            ({"time_grid": {"t_start": 0.0, "t_end": float("inf"), "steps": 4}}, "config.time_grid.t_end"),
        ],
    )
    def test_non_finite_number_exit_2_names_path(self, tmp_path, capsys, overrides, path):
        cfg = write_config(tmp_path, heisenberg_raw(**overrides))  # json writes NaN / Infinity
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert path in capsys.readouterr().err

    def test_config_fastpath_key_exit_2(self, tmp_path, capsys):
        # the spectrum source is picked by the plan; the old "fastpath" option is an unknown key
        raw = heisenberg_raw(fastpath="auto")
        with pytest.raises(ConfigError, match=r"config: unknown keys \['fastpath'\]"):
            parse_config(raw)
        cfg = write_config(tmp_path, raw)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "unknown keys ['fastpath']" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv"), "--fastpath", "on"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"initial_state": {"class": "fully_separable", "params": {"rotations": [{"qubit": True}, {"qubit": 2}, {"qubit": 3}]}}},
             "config.initial_state.params.rotations[0].qubit: expected 1, 2 or 3, got True"),
            ({"measures": ["tangle_12", "tangle_12"]}, "config.measures: measure 'tangle_12' is listed more than once"),
            ({"initial_state": {"class": "fully_separable", "params": {"rotations": [
                {"qubit": 2}, {"qubit": 1, "angle": 0.5, "axis": [0, 0, 0]}, {"qubit": 3}]}}},
             "config.initial_state.params.rotations[1].axis: zero axis has no direction"),
            ({"initial_state": {"class": "fully_separable", "params": {"axes": [[1, 0, 0], [0, 0, 1], [0, 0, 0]]}}},
             "config.initial_state.params.axes[2]: zero axis has no direction"),
            ({"measurement": {"basis": {"axis": [0, -0.0, 0]}}}, "config.measurement.basis.axis: zero axis has no direction"),
        ],
        ids=["bool qubit", "repeated measure", "zero rotation axis", "zero reference axis", "zero measurement axis"],
    )
    def test_sweep_of_malformed_config_exit_2(self, tmp_path, capsys, overrides, error):
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", write_config(tmp_path, heisenberg_raw(**overrides)), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"config error: {error}\n")
        assert not out.exists()

    @pytest.mark.parametrize("overrides, path", OVERFLOW_CASES)
    @pytest.mark.parametrize("command", ["sweep", "classify"])
    def test_overflowing_hamiltonian_exit_2_names_path(self, tmp_path, capsys, command, overrides, path):
        cfg = write_config(tmp_path, heisenberg_raw(**overrides))
        argv = [command, "--config", cfg] + (["--out", str(tmp_path / "o.csv")] if command == "sweep" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {path}:")
        assert captured.out == ""

    def test_unwritable_out_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, heisenberg_raw())
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "no_dir" / "o.csv")])
        assert code == 3

    def test_seed_replay_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, heisenberg_raw())
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out_a), "--seed", "11"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out_b), "--seed", "11"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestSuiteCommand:
    def test_separable_suite_passes(self, capsys):
        assert main(["suite", "separable_stays_separable", "--trials", "60", "--seed", "1"]) == 0
        assert "all trials passed" in capsys.readouterr().out

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["suite", "nonexistent_suite", "--trials", "5", "--seed", "1"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_violated_suite_exit_4_with_replay_seed(self, capsys):
        code = main(["suite", "triple_convexity_bound", "--trials", "200", "--seed", "2024"])
        captured = capsys.readouterr()
        assert code == 4
        assert "--seed 2024" in captured.err
        assert "counterexample" in captured.err

    def test_negative_seed_exit_2_names_seed(self, capsys):
        assert main(["suite", "ghz_can_increase", "--trials", "5", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == ""


class TestClassifyCommand:
    def test_qnd_preset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"hamiltonian": {"preset": "qnd_zz", "g": 1.0}})
        assert main(["classify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "commuting" in out and "noncommuting" not in out
        assert "[0.0, 0.0, 1.0]" in out  # shared probe axis z

    def test_heisenberg_preset_eigenvalues(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"hamiltonian": {"preset": "heisenberg_chain", "g": 1.0}})
        assert main(["classify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "noncommuting" in out
        assert "-4 (x2)" in out and "2 (x4)" in out and "0 (x2)" in out

    @pytest.mark.parametrize(
        "g, norm, eigenvalues",
        [
            (1e100, "1.385641e+201", "-4e+100 (x2), 0 (x2), 2e+100 (x4)"),
            (1e-6, "1.385641e-11", "-4e-06 (x2), 0 (x2), 2e-06 (x4)"),
            (1e-12, "1.385641e-23", "-4e-12 (x2), 0 (x2), 2e-12 (x4)"),
            (1e-15, "1.385641e-29", "-4e-15 (x2), 0 (x2), 2e-15 (x4)"),
            (1e-170, "0.000000e+00", "-4e-170 (x2), 0 (x2), 2e-170 (x4)"),
        ],
    )
    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_norm_and_eigenvalues_scale_with_the_coupling(self, tmp_path, capsys, command, g, norm, eigenvalues):
        # at g = 1e100 a plain sum of squares overflows, and absolute rounding splits each
        # degenerate eigenvalue by its ~1e84 noise; at g = 1e-12 it rounds every eigenvalue to 0;
        # an absolute commutation floor calls g = 1e-15 commuting and blames the coupling tensor at 1e-6;
        # at g = 1e-170 the commutator's ~1e-339 entries underflow to 0, but the commutator of
        # the normalised matrices does not
        # the grid keeps g t <= pi, so ||H_total||_F * t stays within MAX_PHASE at g = 1e100
        time_grid = {"t_start": 0.0, "t_end": float(np.pi / max(g, 1.0)), "steps": 16}
        cfg = write_config(tmp_path, heisenberg_raw(hamiltonian={"preset": "heisenberg_chain", "g": g}, time_grid=time_grid))
        argv = [command, "--config", cfg] + (["--out", str(tmp_path / "o.csv")] if command == "sweep" else [])
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == "sweep":
            assert captured.out.endswith(f"(noncommuting, commutator norm {norm})\n")
        else:
            assert captured.out.startswith(f"noncommuting (commutator norm {norm})\n")
            assert f"reason: pair Hamiltonians do not commute (commutator norm {float(norm):.3e})\n" in captured.out
            assert f"total Hamiltonian eigenvalues: {eigenvalues}\n" in captured.out

    def test_zero_hamiltonians_trivially_commuting(self, tmp_path, capsys):
        raw = {
            "hamiltonian": {
                "pairwise": {
                    "h13": {"coupling": [[0, 0, 0]] * 3},
                    "h23": {"coupling": [[0, 0, 0]] * 3},
                }
            }
        }
        cfg = write_config(tmp_path, raw)
        assert main(["classify", "--config", cfg]) == 0
        assert "commuting (trivially)" in capsys.readouterr().out

    def test_large_nonzero_coupling_is_not_called_zero(self, tmp_path, capsys):
        # the zero test is exact: a Frobenius norm of 1e155 * I would overflow
        raw = {"hamiltonian": {"pairwise": {
            "h13": {"coupling": [[1e155, 0, 0], [0, 1e155, 0], [0, 0, 1e155]]},
            "h23": {"coupling": [[0, 0, 0]] * 3},
        }}}
        assert main(["classify", "--config", write_config(tmp_path, raw)]) == 0
        captured = capsys.readouterr()
        assert "trivially" not in captured.out
        assert "total Hamiltonian eigenvalues: -3e+155 (x2), 1e+155 (x6)" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("g", [1.0, 1e-300, 1e-320])
    def test_eigenvalue_multiplicities_at_any_scale(self, tmp_path, capsys, g):
        # the grouping gap 10**-decimals is 0 in floats once max|eigenvalue| < ~1e-314, so it is tested
        # scale-relative; the commutator norm is absolute and underflows below coefficients of ~1e-154
        cfg = write_config(tmp_path, {"hamiltonian": {"preset": "heisenberg_chain", "g": g}})
        assert main(["classify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"total Hamiltonian eigenvalues: -\S+ \(x2\), 0 \(x2\), \S+ \(x4\)", out.splitlines()[-1]), out
        if g == 1e-300:
            assert out.startswith("noncommuting (commutator norm 0.000000e+00)\n")

    def test_commuting_verdict_takes_no_eigh_and_qnd_demo_no_verdict(self, monkeypatch, capsys):
        # classify prints no eigenvalues for a commuting config, so it takes no eigendecomposition;
        # qnd-demo prints no verdict, so no module it reaches calls the classifier
        def refuse(*args, **kwargs):
            raise AssertionError("called")

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", refuse)
            assert main(["classify", "--config", str(CONFIGS / "qnd_x.json")]) == 0
        for module in [module for name, module in sys.modules.items() if name.startswith("triqubit")]:
            if hasattr(module, "canonical_forms"):
                monkeypatch.setattr(module, "canonical_forms", refuse)
        assert main(["qnd-demo"]) == 0
        assert capsys.readouterr().out.startswith("commuting (commutator norm 0.000000e+00)\n")

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"hamiltonian": {"preset": "qnd_zz"}, "typo_key": 1})
        assert main(["classify", "--config", cfg]) == 2


class TestQndDemoCommand:
    def test_half_period_prepares_bell_pair(self, capsys):
        assert main(["qnd-demo", "--gt", str(np.pi)]) == 0
        out = capsys.readouterr().out
        assert "pre-measurement tangle_12 = 0.0000000000" in out
        assert "+x" in out
        line = next(l for l in out.splitlines() if l.startswith("+x"))
        fields = line.split()
        assert float(fields[1]) == pytest.approx(0.5, abs=1e-9)
        assert float(fields[2]) == pytest.approx(1.0, abs=1e-9)

    def test_m_index(self, capsys):
        assert main(["qnd-demo", "--m", "1"]) == 0  # gt = 3 pi
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("+x"))
        assert float(line.split()[2]) == pytest.approx(1.0, abs=1e-9)

    def test_time_zero_no_entanglement(self, capsys):
        assert main(["qnd-demo", "--gt", "0"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("+x"))
        assert float(line.split()[2]) == pytest.approx(0.0, abs=1e-9)

    def test_intermediate_time_consistent_with_sweep(self, tmp_path, capsys):
        gt = np.pi / 2
        assert main(["qnd-demo", "--gt", str(gt)]) == 0
        demo_out = capsys.readouterr().out
        demo_line = next(l for l in demo_out.splitlines() if l.startswith("+x"))
        demo_tangle = float(demo_line.split()[2])

        raw = {
            "hamiltonian": {"preset": "qnd_zz", "g": 1.0},
            "initial_state": {"class": "fully_separable", "params": {"axes": [[1, 0, 0]] * 3}},
            "time_grid": {"t_start": float(gt), "t_end": float(gt), "steps": 1},
            "measurement": {"basis": "x"},
        }
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["conditional_tangle_1"]) == pytest.approx(demo_tangle, abs=1e-9)

    def test_negative_gt_rejected(self, capsys):
        assert main(["qnd-demo", "--gt", "-1"]) == 2

    @pytest.mark.parametrize("gt", ["nan", "inf"])
    def test_non_finite_gt_exit_2(self, capsys, gt):
        assert main(["qnd-demo", "--gt", gt]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: gt must be finite\n"
        assert captured.out == ""

    @pytest.mark.parametrize("m", [str(10**400), str(-(10**400)), str(6 * 10**307)], ids=["1e400", "-1e400", "6e307"])
    def test_overflowing_m_exit_2(self, capsys, m):
        # 2m + 1 past float range cannot be converted; pi * (2m + 1) past it is infinite
        assert main(["qnd-demo", "--m", m]) == 2
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("argv", [["--gt", "1e17"], ["--gt", "4.6e6"], ["--m", "10000000"]])
    def test_phase_past_max_phase_exit_2(self, capsys, argv):
        # at qnd_zz(1) ||H_total||_F = 1, so gt itself is the phase bound; past it the
        # rounding of t moves exp(-i w t) by more than PHYSICS_TOL
        assert main(["qnd-demo", *argv]) == 2
        captured = capsys.readouterr()
        assert "exceeds MAX_PHASE" in captured.err
        assert captured.out == ""

    def test_phase_below_max_phase_runs(self, capsys):
        assert main(["qnd-demo", "--gt", "4e6"]) == 0
        assert capsys.readouterr().out.startswith("gt = 4000000\n")


class TestPeriodicityCommand:
    def test_pass(self, capsys):
        assert main(["periodicity", "--k", "1", "--l", "1", "--trials", "40", "--seed", "2"]) == 0
        assert "all trials passed" in capsys.readouterr().out

    def test_invalid_ratio_exit_2(self, capsys):
        assert main(["periodicity", "--k", "2", "--l", "4", "--trials", "5", "--seed", "2"]) == 2

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_bad_trial_count_exit_2(self, capsys, trials):
        assert main(["periodicity", "--k", "1", "--l", "2", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "trials must be >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "k, l", [(1, 10**400), (10**308, 1), (1, 2**53 + 1), (1, 2_000_000), (1, 260_000)],
        ids=["l=1e400", "k=1e308", "l=2**53+1", "l=2e6", "l=2.6e5"],
    )
    def test_ratio_past_float_precision_exit_2_names_k_and_l(self, capsys, k, l):
        # l = 1e400 raised OverflowError converting to float; k = 1e308 made t* = k pi / (2|a|) infinite;
        # at l = 2e6 the phase rounding alone failed 8 of 200 trials at seed 0
        assert main(["periodicity", "--k", str(k), "--l", str(l), "--trials", "200"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: k and l must satisfy sqrt(k^2 + l^2) <= 2.534e+05, past which the rounding "
            "of the phases at t* exceeds the budget of the check\n"
        )
        assert captured.out == ""

    def test_ratio_inside_the_phase_budget_passes(self, capsys):
        # sqrt(k^2 + l^2) = 2e5 is inside the cut of ~2.53e5
        assert main(["periodicity", "--k", "1", "--l", "200000", "--trials", "2000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ratio 1/200000: 2000 trials") and out.endswith("all trials passed\n")

    def test_negative_seed_exit_2_names_seed(self, capsys):
        assert main(["periodicity", "--k", "1", "--l", "2", "--trials", "5", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == ""


class TestParserReuse:
    def test_consecutive_calls_match_fresh_parsers(self, tmp_path, capsys):
        # the parser is built once per process; a call must not leave state that a later call sees
        from triqubit import cli

        cfg = write_config(tmp_path, heisenberg_raw())
        calls = [
            ["suite", "ghz_can_increase", "--trials", "5", "--seed", "3"],
            ["suite", "ghz_can_increase", "--trials", "5"],
            ["periodicity", "--k", "1", "--l", "2", "--trials", "4", "--seed", "1"],
            ["periodicity", "--k", "1", "--l", "2"],
            ["qnd-demo", "--m", "1"],
            ["qnd-demo"],
            ["classify", "--config", cfg],
            ["sweep", "--config", cfg, "--out", str(tmp_path / "a.csv"), "--seed", "2"],
            ["sweep", "--config", cfg, "--out", str(tmp_path / "a.csv")],
            ["suite", "no_such_suite"],
        ]

        def outputs(fresh):
            seen = []
            for argv in calls:
                if fresh:
                    cli._build_parser.cache_clear()
                code = main(argv)
                captured = capsys.readouterr()
                seen.append((code, captured.out, captured.err, (tmp_path / "a.csv").read_text() if argv[0] == "sweep" else None))
            return seen

        fresh = outputs(fresh=True)
        parser = cli._build_parser()
        assert outputs(fresh=False) == fresh
        assert cli._build_parser() is parser


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HEISENBERG_CLASSIFY = (
    "noncommuting (commutator norm 1.385641e+01)\n"
    "reason: pair Hamiltonians do not commute (commutator norm 1.386e+01)\n"
    "total Hamiltonian eigenvalues: -4 (x2), 0 (x2), 2 (x4)\n"
)
# body axes and strengths chosen so every printed digit is exact: (0.6, 0, 0.8) is a unit axis
PAIRWISE_LOCALS = {"hamiltonian": {"pairwise": {
    "h13": {"coupling": [[0, 0, 0.6], [0, 0, 0], [0, 0, 0.8]], "local_self": [0.3, 0, 0.4], "local_probe": [0, 0, 0.25]},
    "h23": {"coupling": [[0, 0, 0], [0, 0, 1.5], [0, 0, 0]], "local_self": [0, 0, -2], "local_probe": [0, 0, -0.75]},
}}}

# a rank-two coupling against a zero partner: the pair commutes, but its probe terms share no axis
RANK_TWO = {"hamiltonian": {"pairwise": {
    "h13": {"coupling": [[1, 0, 0], [0, 2, 0], [0, 0, 0]]},
    "h23": {"coupling": [[0, 0, 0]] * 3},
}}}

# a negative coupling against a zero one: signed zeros print as 0.0, and the zero coupling shows the z axis
ZERO_COUPLING = {"hamiltonian": {"pairwise": {
    "h13": {"coupling": [[0, 0, 0], [0, 0, 0], [0, 0, -0.5]], "local_probe": [0, 0, 0.125]},
    "h23": {"coupling": [[0, 0, 0]] * 3, "local_self": [0, -1, 0]},
}}}


class TestGoldenStdout:
    """The exact stdout of ``classify`` and ``qnd-demo``, and the exact stdout and stderr of a failing
    suite, a passing suite and a passing periodicity check, byte for byte."""

    @pytest.mark.parametrize(
        "config, expected",
        [
            ("ghz_heisenberg.json", HEISENBERG_CLASSIFY),
            ("heisenberg_00plus.json", HEISENBERG_CLASSIFY),
            (
                "qnd_x.json",
                "commuting (commutator norm 0.000000e+00)\n"
                "shared probe axis: [0.0, 0.0, 1.0]\n"
                "pair (1,3): coupling strength 0.25, body axis [0.0, 0.0, 1.0], local self strength 0, local probe coefficient 0\n"
                "pair (2,3): coupling strength 0.25, body axis [0.0, 0.0, 1.0], local self strength 0, local probe coefficient 0\n",
            ),
            (
                PAIRWISE_LOCALS,
                "commuting (commutator norm 0.000000e+00)\n"
                "shared probe axis: [0.0, 0.0, 1.0]\n"
                "pair (1,3): coupling strength 1, body axis [0.6, 0.0, 0.8], local self strength 0.5, local probe coefficient 0.25\n"
                "pair (2,3): coupling strength 1.5, body axis [0.0, 1.0, 0.0], local self strength 2, local probe coefficient -0.75\n",
            ),
            (
                ZERO_COUPLING,
                "commuting (commutator norm 0.000000e+00)\n"
                "shared probe axis: [0.0, 0.0, 1.0]\n"
                "pair (1,3): coupling strength 0.5, body axis [0.0, 0.0, -1.0], local self strength 0, local probe coefficient 0.125\n"
                "pair (2,3): coupling strength 0, body axis [0.0, 0.0, 1.0], local self strength 1, local probe coefficient 0\n",
            ),
            (
                RANK_TWO,
                "commuting without a shared probe axis (commutator norm 0.000000e+00)\n"
                "reason: probe terms do not share one probe axis (deviation 2.828e+00)\n"
                "total Hamiltonian eigenvalues: -3 (x2), -1 (x2), 1 (x2), 3 (x2)\n",
            ),
        ],
        ids=["ghz_heisenberg", "heisenberg_00plus", "qnd_x", "pairwise_locals", "zero_coupling", "rank_two"],
    )
    def test_classify(self, tmp_path, capsys, config, expected):
        path = str(CONFIGS / config) if isinstance(config, str) else write_config(tmp_path, config)
        assert main(["classify", "--config", path]) == 0
        assert capsys.readouterr() == (expected, "")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["--gt", "1"],
                "gt = 1\n"
                "pre-measurement tangle_12 = 0.0000000000\n"
                "outcome  probability    conditional_tangle_12\n"
                "+x       0.8850755765   0.0168602479\n"
                "-x       0.1149244235   1.0000000000\n",
            ),
            (
                ["--m", "1"],
                "gt = 9.42477796077\n"
                "pre-measurement tangle_12 = 0.0000000000\n"
                "outcome  probability    conditional_tangle_12\n"
                "+x       0.5000000000   1.0000000000\n"
                "-x       0.5000000000   1.0000000000\n",
            ),
            (
                ["--gt", "0"],
                "gt = 0\n"
                "pre-measurement tangle_12 = 0.0000000000\n"
                "outcome  probability    conditional_tangle_12\n"
                "+x       1.0000000000   0.0000000000\n"
                "-x       0.0000000000   (degenerate outcome)\n",
            ),
        ],
        ids=["gt=1", "m=1", "gt=0"],
    )
    def test_qnd_demo(self, capsys, argv, expected):
        assert main(["qnd-demo", *argv]) == 0
        assert capsys.readouterr() == (expected, "")

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (
                ["suite", "triple_convexity_bound", "--trials", "25", "--seed", "1"],
                4,
                "suite triple_convexity_bound: 25 trials, max violation 1.067e-01\n",
                "FAILED 4 trials; replay with --seed 1\n"
                "first counterexample: {'trial': 9, 'violation': 0.0014171824816147094, 't': 0.6692654128160458, "
                "'tau0': 0.6597014954400295, 'factor': 0.9937523082338822, 'tau_t': 0.6569970663204879}\n",
            ),
            (
                # the parity states are built on the unit rows of body and probe axes, both normalized
                ["suite", "parity_residual_conserved", "--trials", "25", "--seed", "7"],
                0,
                "suite parity_residual_conserved: 25 trials, max violation 1.776e-15\nall trials passed\n",
                "",
            ),
            (
                ["periodicity", "--k", "2", "--l", "3", "--trials", "25", "--seed", "1"],
                0,
                "ratio 2/3: 25 trials, max |tau(t*) - tau(0)| = 1.638e-15\nall trials passed\n",
                "",
            ),
        ],
        ids=["suite_failing", "parity_passing", "periodicity_passing"],
    )
    def test_trial_verdicts(self, capsys, argv, code, out, err):
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_reader_gone_exits_3_without_traceback(self, unbuffered):
        # like `triqubit suite ... | head -1`: the reader closes the pipe before the output is written
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        argv = [sys.executable, "-m", "triqubit.cli", "suite", "triple_nonincreasing", "--trials", "200", "--seed", "0"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 3
        assert err == b""
