import json

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
            (1e-12, "1.385641e-23", "-4e-12 (x2), 0 (x2), 2e-12 (x4)"),
        ],
    )
    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_norm_and_eigenvalues_scale_with_the_coupling(self, tmp_path, capsys, command, g, norm, eigenvalues):
        # at g = 1e100 a plain sum of squares overflows, and absolute rounding splits each
        # degenerate eigenvalue by its ~1e84 noise; at g = 1e-12 it rounds every eigenvalue to 0
        cfg = write_config(tmp_path, heisenberg_raw(hamiltonian={"preset": "heisenberg_chain", "g": g}))
        argv = [command, "--config", cfg] + (["--out", str(tmp_path / "o.csv")] if command == "sweep" else [])
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert f"commutator norm {norm}" in captured.out
        assert captured.err == ""
        if command == "classify":
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
