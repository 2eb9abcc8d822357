import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triqubit import scenarios
from triqubit.measures import REPORT_FIELDS
from triqubit.scenarios import (
    MAX_STEPS,
    ConfigError,
    SweepResult,
    emit_csv,
    load_config,
    parse_config,
    property_suite,
    random_commuting_pair,
    read_sweep_csv,
    residual_periodicity_check,
    run_sweep,
    suite_names,
)
from triqubit.hamiltonians import commutes
from triqubit.evolution import evolve, make_plan, measure_probe
from triqubit.measures import report, residual_tangle_poly

from oracles import oracle_concurrence_pure3, oracle_evolve, oracle_tangle_pure2

INV_SQRT2 = 1 / np.sqrt(2)


def heisenberg_config(**overrides):
    raw = {
        "name": "heisenberg-00plus",
        "hamiltonian": {"preset": "heisenberg_chain", "g": 1.0},
        "initial_state": {
            "class": "raw_amplitudes",
            "params": {"amplitudes": [INV_SQRT2, INV_SQRT2, 0, 0, 0, 0, 0, 0]},
        },
        "time_grid": {"t_start": 0.0, "t_end": float(np.pi), "steps": 64},
    }
    raw.update(overrides)
    return raw


class TestConfigParsing:
    def test_valid_preset_config(self):
        cfg = parse_config(heisenberg_config())
        assert cfg.name == "heisenberg-00plus"
        assert cfg.times is not None and len(cfg.times) == 64
        assert cfg.measures == REPORT_FIELDS

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys.*plot"):
            parse_config(heisenberg_config(plot=True))

    def test_unknown_nested_key(self):
        raw = heisenberg_config()
        raw["time_grid"]["dt"] = 0.1
        with pytest.raises(ConfigError, match="time_grid"):
            parse_config(raw)

    def test_preset_and_pairwise_conflict(self):
        raw = heisenberg_config()
        raw["hamiltonian"]["pairwise"] = {}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(raw)

    def test_unknown_preset_and_state_class(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config(heisenberg_config(hamiltonian={"preset": "ising", "g": 1.0}))
        with pytest.raises(ConfigError, match="unknown state class"):
            parse_config(heisenberg_config(initial_state={"class": "cluster"}))

    def test_bad_time_grid(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config(heisenberg_config(time_grid={"t_start": 0, "t_end": 1, "steps": 0}))
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(heisenberg_config(time_grid={"t_start": 1, "t_end": 0, "steps": 4}))

    def test_unknown_measure_and_fastpath(self):
        with pytest.raises(ConfigError, match="unknown measure"):
            parse_config(heisenberg_config(measures=["negativity"]))
        with pytest.raises(ConfigError, match=r"config: unknown keys \['fastpath'\]"):
            parse_config(heisenberg_config(fastpath="always"))

    def test_pairwise_hamiltonian_and_complex_entries(self):
        raw = {
            "hamiltonian": {
                "pairwise": {
                    "h13": {"coupling": [[0, 0, 1.2], [0, 0, 0], [0, 0, 0]], "local_probe": [0, 0, 0.3]},
                    "h23": {"coupling": [[0, 0, 0.7], [0, 0, 0], [0, 0, 0]]},
                }
            },
            "initial_state": {"class": "bipartite_12", "params": {"a": 0.6, "b": 0.8, "probe": [[0, 1], 0]}},
            "time_grid": {"t_start": 0.0, "t_end": 1.0, "steps": 3},
        }
        cfg = parse_config(raw)
        assert commutes(cfg.h13, cfg.h23)
        assert cfg.psi0 is not None
        # probe [0+1j, 0]
        assert cfg.psi0[1] == pytest.approx(0.0)
        assert cfg.psi0[0] == pytest.approx(0.6j)

    def test_state_constructor_errors_carry_config_path(self):
        raw = heisenberg_config(initial_state={"class": "ghz_general", "params": {"a": 1.0, "b": 1.0}})
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config(raw)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="missing.json"):
            load_config(tmp_path / "missing.json")


_ZERO_COUPLING = [[0, 0, 0]] * 3
# Hamiltonians whose coefficients are finite but whose evolution overflows
OVERFLOW_CASES = [
    ({"hamiltonian": {"preset": "heisenberg_chain", "g": 1e308}}, "config.hamiltonian"),
    ({"hamiltonian": {"preset": "qnd_zz", "g": 1e155}}, "config.hamiltonian"),
    ({"hamiltonian": {"preset": "qnd_zz", "g": 1e300},
      "time_grid": {"t_start": 0.0, "t_end": 1e300, "steps": 4}}, "config.hamiltonian"),
    ({"hamiltonian": {"preset": "qnd_zz", "g": 1e100},
      "time_grid": {"t_start": 0.0, "t_end": 1e300, "steps": 4}}, "config.time_grid"),
    ({"hamiltonian": {"pairwise": {"h13": {"coupling": _ZERO_COUPLING, "local_probe": [0, 0, 1e308]},
                                   "h23": {"coupling": _ZERO_COUPLING, "local_probe": [0, 0, 1e308]}}}},
     "config.hamiltonian"),
]


class TestNonFiniteAndMalformedValues:
    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"hamiltonian": {"preset": "qnd_zz", "g": math.nan}}, "config.hamiltonian.g"),
            ({"time_grid": {"t_start": 0.0, "t_end": math.inf, "steps": 4}}, "config.time_grid.t_end"),
            ({"time_grid": {"t_start": -math.inf, "t_end": 1.0, "steps": 4}}, "config.time_grid.t_start"),
            ({"measurement": {"basis": "x", "at_time": math.nan}}, "config.measurement.at_time"),
            ({"initial_state": {"class": "zrt", "params": {"a": math.nan, "b": 0, "c": 0, "d": 1}}},
             "config.initial_state.params.a"),
            ({"hamiltonian": {"preset": "qnd_zz", "g": 10**400}}, "config.hamiltonian.g"),
            *OVERFLOW_CASES,
        ],
    )
    def test_rejected_with_path(self, overrides, path):
        with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
            parse_config(heisenberg_config(**overrides))

    def test_large_but_representable_coupling_is_accepted(self):
        cfg = parse_config(heisenberg_config(hamiltonian={"preset": "qnd_zz", "g": 1e150}))
        plan = make_plan(cfg.h13, cfg.h23)
        assert plan.commuting and plan.commutator_norm == 0.0
        assert np.isfinite(run_sweep(cfg).rows[-1].report.tangle_12)

    def test_pairwise_non_finite_coupling(self):
        raw = heisenberg_config(hamiltonian={"pairwise": {
            "h13": {"coupling": [[0, 0, math.inf], [0, 0, 0], [0, 0, 0]]},
            "h23": {"coupling": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]},
        }})
        with pytest.raises(ConfigError, match=r"config\.hamiltonian\.pairwise\.h13\.coupling"):
            parse_config(raw)

    def test_zero_measurement_axis(self):
        with pytest.raises(ConfigError, match=r"config\.measurement\.basis"):
            parse_config(heisenberg_config(measurement={"basis": {"axis": [0, 0, 0]}}))

    def test_non_string_preset_and_name(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config(heisenberg_config(hamiltonian={"preset": ["qnd_zz"]}))
        with pytest.raises(ConfigError, match=r"config\.name"):
            parse_config(heisenberg_config(name=7))

    def test_integer_past_the_digit_limit_in_file(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"hamiltonian": {"preset": "qnd_zz", "g": ' + "9" * 5000 + "}}")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_steps_bounded(self):
        grid = {"t_start": 0.0, "t_end": 1.0, "steps": MAX_STEPS}
        assert len(parse_config(heisenberg_config(time_grid=grid)).times) == MAX_STEPS
        with pytest.raises(ConfigError, match="steps"):
            parse_config(heisenberg_config(time_grid={**grid, "steps": MAX_STEPS + 1}))


def _config_paths(value, prefix=()):
    """Every key/index path into a nested config, containers included."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _config_paths(child, (*prefix, key))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _config_paths(child, (*prefix, index))


def _fuzz_bases():
    pairwise = {"pairwise": {
        "h13": {"coupling": [[0, 0, 1.2], [0, 0, 0], [0, 0, 0]], "local_self": [0.1, 0, 0], "local_probe": [0, 0, 0.3]},
        "h23": {"coupling": [[0, 0, 0.7], [0, 0, 0], [0, 0, 0]]},
    }}
    states = [
        {"class": "fully_separable", "params": {"rotations": [{"qubit": q, "angle": 0.3, "axis": [0, 1, 0]} for q in (1, 2, 3)],
                                                "axes": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
        {"class": "bipartite_12", "params": {"a": 0.6, "b": 0.8, "probe": [[0, 1], 0]}},
        {"class": "bipartite_13", "params": {"a": 0.6, "b": 0.8, "spectator": [1, 0]}},
        {"class": "ghz_general", "params": {"a": 0.6, "b": 0.8}},
        {"class": "zrt", "params": {"a": 0.5, "b": 0.5, "c": 0.5, "d": [0, 0.5]}},
        {"class": "triple", "params": {"f": 0.6, "g": 0.8, "h": 0}},
        {"class": "raw_amplitudes", "params": {"amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]}},
    ]
    bases = []
    for index, state in enumerate(states):
        bases.append({
            "name": "fuzz",
            "hamiltonian": pairwise if index % 2 else {"preset": "qnd_zz", "g": 1.0},
            "initial_state": state,
            "time_grid": {"t_start": 0.0, "t_end": 1.0, "steps": 3},
            "measures": ["tangle_12", "purity_12"],
            "measurement": {"basis": {"axis": [1, 1, 0]} if index % 2 else "x", "at_time": 0.5},
        })
    return [(base, path) for base in bases for path in _config_paths(base)]


_FUZZ_TARGETS = _fuzz_bases()
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def _replaced(base, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(base))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


class TestConfigFuzz:
    @given(target=st.sampled_from(_FUZZ_TARGETS), value=_JSON_VALUES)
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_any_json_value_parses_or_raises_config_error(self, target, value):
        base, path = target
        try:
            parse_config(_replaced(base, path, value))
        except ConfigError:
            pass

    @given(value=_JSON_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_any_top_level_value(self, value):
        try:
            parse_config(value)
        except ConfigError:
            pass

    def test_every_base_config_parses(self):
        for base, path in _FUZZ_TARGETS:
            if not path:
                assert parse_config(base).psi0 is not None


class TestRunSweep:
    def test_heisenberg_tangle_matches_independent_oracle(self):
        cfg = parse_config(heisenberg_config())
        result = run_sweep(cfg)
        assert len(result.rows) == 64
        assert result.commuting is False
        psi0 = np.zeros(8, dtype=complex)
        psi0[0] = psi0[1] = INV_SQRT2
        h = make_plan(cfg.h13, cfg.h23).h_total
        for row in result.rows:
            psi_t = oracle_evolve(h, psi0, row.t)
            assert abs(row.report.tangle_12 - oracle_concurrence_pure3(psi_t, 3) ** 2) <= 1e-9

    def test_fastpath_on_off_agree_everywhere(self):
        rng = np.random.default_rng(13)
        h13, h23 = random_commuting_pair(rng, locals_mode="full")
        base = {
            "hamiltonian": {
                "pairwise": {
                    "h13": {
                        "coupling": h13.coupling.tolist(),
                        "local_self": h13.local_self.tolist(),
                        "local_probe": h13.local_probe.tolist(),
                    },
                    "h23": {
                        "coupling": h23.coupling.tolist(),
                        "local_self": h23.local_self.tolist(),
                        "local_probe": h23.local_probe.tolist(),
                    },
                }
            },
            "initial_state": {"class": "zrt", "params": {"a": 0.5, "b": 0.5, "c": 0.5, "d": [0, 0.5]}},
            "time_grid": {"t_start": 0.0, "t_end": 5.0, "steps": 21},
        }
        cfg = parse_config(base)
        result = run_sweep(cfg)
        assert result.commuting
        for row in result.rows:
            exact = report(oracle_evolve(make_plan(cfg.h13, cfg.h23).h_total, cfg.psi0, row.t))
            for field in REPORT_FIELDS:
                assert abs(getattr(row.report, field) - getattr(exact, field)) <= 1e-9

    def test_separable_commuting_sweep_stays_untangled(self):
        raw = {
            "hamiltonian": {"preset": "qnd_zz", "g": 1.0},
            "initial_state": {"class": "fully_separable", "params": {"axes": [[1, 0, 0]] * 3}},
            "time_grid": {"t_start": 0.0, "t_end": 7.0, "steps": 40},
        }
        result = run_sweep(parse_config(raw))
        assert all(row.report.tangle_12 <= 1e-9 for row in result.rows)

    def test_measurement_columns(self):
        raw = {
            "hamiltonian": {"preset": "qnd_zz", "g": 1.0},
            "initial_state": {"class": "fully_separable", "params": {"axes": [[1, 0, 0]] * 3}},
            "time_grid": {"t_start": 0.0, "t_end": float(np.pi), "steps": 5},
            "measurement": {"basis": "x"},
        }
        result = run_sweep(parse_config(raw))
        assert result.columns[-6:] == [
            "outcome_label_1",
            "outcome_prob_1",
            "conditional_tangle_1",
            "outcome_label_2",
            "outcome_prob_2",
            "conditional_tangle_2",
        ]
        final = result.rows[-1]  # g t = pi
        assert final.outcomes[0].label == "+x"
        assert final.outcomes[0].probability == pytest.approx(0.5, abs=1e-9)
        # pre-measurement pair is separable at the Bell time; post-selection
        # on either probe outcome leaves a maximally entangled conditional
        assert final.report.tangle_12 <= 1e-9
        for outcome in final.outcomes:
            assert oracle_tangle_pure2(outcome.state) == pytest.approx(1.0, abs=1e-9)

    def test_measurement_at_time_only_nearest_row(self):
        raw = {
            "hamiltonian": {"preset": "qnd_zz", "g": 1.0},
            "initial_state": {"class": "fully_separable", "params": {"axes": [[1, 0, 0]] * 3}},
            "time_grid": {"t_start": 0.0, "t_end": 2.0, "steps": 5},
            "measurement": {"basis": "x", "at_time": 1.0},
        }
        result = run_sweep(parse_config(raw))
        populated = [i for i, row in enumerate(result.rows) if row.outcomes is not None]
        assert populated == [2]  # grid 0, 0.5, 1.0, 1.5, 2.0

    # reference "auto": the package's pointwise evolve; "off": an eigh of h_total built here
    @pytest.mark.parametrize("locals_mode, reference", [("full", "auto"), ("full", "off"), (None, "auto")])
    def test_grid_equals_pointwise_evolve_report_and_measure(self, locals_mode, reference):
        rng = np.random.default_rng(14)
        raw = heisenberg_config(measurement={"basis": {"axis": [0.3, -0.2, 0.9]}})
        raw["time_grid"]["steps"] = 33
        if locals_mode is not None:
            h13, h23 = random_commuting_pair(rng, locals_mode=locals_mode)
            raw["hamiltonian"] = {"pairwise": {
                name: {"coupling": h.coupling.tolist(), "local_self": h.local_self.tolist(),
                       "local_probe": h.local_probe.tolist()}
                for name, h in (("h13", h13), ("h23", h23))
            }}
        cfg = parse_config(raw)
        result = run_sweep(cfg)
        plan = make_plan(cfg.h13, cfg.h23)
        w, v = np.linalg.eigh(plan.h_total)
        for row in result.rows:
            if reference == "off":
                psi_t = (v * np.exp(-1j * w * row.t)) @ (v.conj().T @ cfg.psi0)
            else:
                psi_t = evolve(plan, cfg.psi0, row.t)
            single = report(psi_t)
            for name in REPORT_FIELDS:
                assert abs(getattr(row.report, name) - getattr(single, name)) <= 1e-12
            for got, want in zip(row.outcomes, measure_probe(psi_t, cfg.measurement.basis, cfg.measurement.labels)):
                assert got.label == want.label
                assert abs(got.probability - want.probability) <= 1e-12
                assert abs(got.tangle - want.tangle) <= 1e-12
                assert abs(got.tangle - oracle_tangle_pure2(got.state)) <= 1e-9

    def test_missing_state_or_grid_rejected(self):
        raw = heisenberg_config()
        del raw["initial_state"]
        with pytest.raises(ConfigError, match="initial_state"):
            run_sweep(parse_config(raw))


class TestCsv:
    def test_empty_rows_header_only(self, tmp_path):
        result = SweepResult(name="empty", columns=["t", "tangle_12"], rows=[])
        out = tmp_path / "empty.csv"
        emit_csv(result, out)
        assert out.read_text() == "t,tangle_12\n"

    def test_line_counts(self, tmp_path):
        cfg = parse_config(heisenberg_config())
        out = tmp_path / "sweep.csv"
        emit_csv(run_sweep(cfg), out)
        assert len(out.read_text().splitlines()) == 65  # header + 64 rows
        emit_csv(run_sweep(cfg, seed=7), out)
        lines = out.read_text().splitlines()
        assert len(lines) == 66  # header + seed comment + 64 rows
        assert lines[1].startswith("# seed=7 config=sha256:")

    def test_roundtrip_bit_for_bit(self, tmp_path):
        cfg = parse_config(heisenberg_config())
        result = run_sweep(cfg)
        out = tmp_path / "sweep.csv"
        emit_csv(result, out)
        columns, _, rows = read_sweep_csv(out)
        assert columns == result.columns
        for parsed, row in zip(rows, result.rows):
            assert float(parsed[0]) == row.t
            for name, cell in zip(columns[1:], parsed[1:]):
                assert float(cell) == getattr(row.report, name)

    def test_determinism_byte_identical(self, tmp_path):
        cfg_a = parse_config(heisenberg_config())
        cfg_b = parse_config(heisenberg_config())
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg_a, seed=123), out_a)
        emit_csv(run_sweep(cfg_b, seed=123), out_b)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_columns_follow_the_explicit_measure_list(self, tmp_path):
        raw = heisenberg_config(measures=["purity_12", "tangle_12"], measurement={"basis": "z", "at_time": 1.0})
        raw["time_grid"]["steps"] = 5
        result = run_sweep(parse_config(raw))
        assert result.measures == ("purity_12", "tangle_12") and result.with_outcomes
        out = tmp_path / "sweep.csv"
        emit_csv(result, out)
        columns, _, rows = read_sweep_csv(out)
        assert columns == result.columns
        for parsed, row in zip(rows, result.rows):
            assert len(parsed) == len(columns)
            assert [float(c) for c in parsed[1:3]] == [row.report.purity_12, row.report.tangle_12]
            if row.outcomes is None:
                assert parsed[3:] == [""] * 6
            else:
                assert parsed[3] == "+z" and float(parsed[4]) == row.outcomes[0].probability
        without = SweepResult(name="x", columns=["t", "eof_12"], rows=result.rows, measures=("eof_12",))
        emit_csv(without, out)
        assert [len(line.split(",")) for line in out.read_text().splitlines()] == [2] * 6

    def test_io_error(self, tmp_path):
        result = SweepResult(name="x", columns=["t"], rows=[])
        with pytest.raises(IOError):
            emit_csv(result, tmp_path / "no_such_dir" / "out.csv")


class TestSuites:
    def test_registry_contains_all_documented_suites(self):
        assert set(suite_names()) >= {
            "separable_stays_separable",
            "bipartite12_nonincreasing",
            "bipartite23_stays_zero",
            "bipartite13_stays_zero",
            "ghz_can_increase",
            "triple_convexity_bound",
            "triple_nonincreasing",
            "parity_residual_conserved",
            "heisenberg_entangled13_start",
        }

    @pytest.mark.parametrize("name", sorted(set(suite_names()) - {"triple_convexity_bound"}))
    def test_suite_passes_smoke(self, name):
        result = property_suite(name, trials=120, seed=2024)
        assert result.passed, result.failures[:1]
        assert result.max_violation <= 1e-9

    def test_branch_weight_free_triple_factor_is_violated(self):
        # the weight-free convexity factor |c|^4 + (1-|c|^2)^2 drops the
        # branch weights of the convex decomposition; a sound checker finds
        # counterexamples, while the branch-weighted form never fails
        stated = property_suite("triple_convexity_bound", trials=300, seed=2024)
        assert not stated.passed
        assert stated.max_violation > 1e-3
        weighted = property_suite("triple_nonincreasing", trials=300, seed=2024)
        assert weighted.passed

    def test_ghz_suite_reports_entanglement_creation(self):
        result = property_suite("ghz_can_increase", trials=200, seed=5)
        assert result.stats["max_tangle"] > 0.01

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            property_suite("perpetual_motion", trials=10, seed=0)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            property_suite("separable_stays_separable", trials=0, seed=0)

    def test_deterministic_for_fixed_seed(self):
        a = property_suite("separable_stays_separable", trials=50, seed=9)
        b = property_suite("separable_stays_separable", trials=50, seed=9)
        assert a.max_violation == b.max_violation


class TestNonFiniteViolations:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_trial_fails_the_suite(self, monkeypatch, bad):
        values = iter([0.0, bad, 0.0])
        monkeypatch.setitem(scenarios._SUITES, "non_finite_trial", lambda rng: (next(values), {"tag": 1}))
        result = property_suite("non_finite_trial", trials=3, seed=0)
        assert not result.passed
        assert [f["trial"] for f in result.failures] == [1]
        if math.isnan(bad):
            assert math.isnan(result.max_violation)

    def test_nan_residual_tangle_fails_periodicity(self, monkeypatch):
        monkeypatch.setattr(scenarios, "residual_tangle_poly", lambda psi: math.nan)
        result = residual_periodicity_check(1, 1, trials=4, seed=0)
        assert len(result.failures) == 4
        assert math.isnan(result.max_violation)

    def test_nan_suite_exits_4(self, monkeypatch, capsys):
        from triqubit.cli import main

        monkeypatch.setitem(scenarios._SUITES, "nan_trial", lambda rng: (math.nan, {}))
        assert main(["suite", "nan_trial", "--trials", "2"]) == 4
        assert "max violation nan" in capsys.readouterr().out


class TestPeriodicity:
    def test_equal_strengths(self):
        result = residual_periodicity_check(1, 1, trials=60, seed=3)
        assert result.passed
        assert result.max_violation <= 1e-9

    def test_two_three_ratio(self):
        result = residual_periodicity_check(2, 3, trials=60, seed=4)
        assert result.passed

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="lowest terms"):
            residual_periodicity_check(2, 4, trials=10, seed=0)
        with pytest.raises(ValueError):
            residual_periodicity_check(0, 1, trials=10, seed=0)

    def test_half_return_time_witness_exists(self):
        # at half the return time the phase pattern is not a local unitary and
        # the residual tangle generically moves; search for a strong witness
        rng = np.random.default_rng(12)
        from triqubit.hamiltonians import PauliPairHamiltonian
        from triqubit.scenarios import random_axis, random_state

        best = 0.0
        for _ in range(50):
            u, w, j = random_axis(rng), random_axis(rng), random_axis(rng)
            s = rng.uniform(0.3, 2.0)
            h13 = PauliPairHamiltonian(coupling=s * np.outer(u, j), pair=(1, 3))
            h23 = PauliPairHamiltonian(coupling=s * np.outer(w, j), pair=(2, 3))
            plan = make_plan(h13, h23)
            psi0 = random_state(rng)
            t_half = np.pi / (4 * s)
            tau0 = residual_tangle_poly(psi0)
            tau_half = residual_tangle_poly(evolve(plan, psi0, t_half))
            best = max(best, abs(tau_half - tau0))
        assert best > 1e-3
