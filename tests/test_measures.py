from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triqubit import measures, scenarios
from triqubit.evolution import measure_probe_grid
from triqubit.measures import REPORT_FIELDS, concurrence_12, report_batch, residual_tangle_rows
from triqubit.scenarios import load_config, run_sweep
from triqubit.states import bipartite_13, bipartite_23, fully_separable, ghz_general, rotate, rotation_matrices, triple, zrt

from oracles import (
    haar_state,
    oracle_binary_entropy,
    oracle_concurrence_mixed,
    oracle_concurrence_pure3,
    oracle_residual_tangle_ckw,
    oracle_residual_tangle_lambda,
    oracle_rho12,
    oracle_tangle_pure2,
    reference_rotation,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
INV_SQRT2 = 1 / np.sqrt(2)
BELL_PSI_PLUS = np.array([0, INV_SQRT2, INV_SQRT2, 0], dtype=complex)
E0 = np.array([1, 0], dtype=complex)


def pair_tangles(chi, phi):
    """Tangle of the pure pair chi held next to a probe in state phi, by both package routes.

    ``report_batch`` takes it from the 1,2 cross matrix of chi (x) phi; a probe measurement
    leaves chi as the conditional pair state, whose tangle is 4|a00 a11 - a01 a10|^2.
    """
    psi = np.kron(chi, phi)
    a, b = phi
    bloch = (2.0 * (a.conjugate() * b).real, 2.0 * (a.conjugate() * b).imag, abs(a) ** 2 - abs(b) ** 2)
    tangles = measure_probe_grid(psi, bloch)[1]  # along phi's Bloch axis: outcome plus is phi
    return report_batch(psi)["tangle_12"][0], tangles[0, 0]


class TestTangle:
    def test_bell(self):
        for value in pair_tangles(BELL_PSI_PLUS, E0):
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_schmidt_pair(self):
        for a2 in (0.5, 0.9, 0.25):
            a, b = np.sqrt(a2), np.sqrt(1 - a2)
            chi = np.array([a, 0, 0, b], dtype=complex)
            for value in pair_tangles(chi, E0):
                assert value == pytest.approx(4 * (a * b) ** 2, abs=1e-9)

    def test_maximally_mixed_is_zero(self):
        # the most mixed rho_12 a pure three-qubit state allows (rank 2, purity 1/2):
        # GHZ gives diag(1/2, 0, 0, 1/2), |0> (x) Bell_23 gives |0><0| (x) 1/2
        table = report_batch([ghz_general(INV_SQRT2, INV_SQRT2), np.kron(E0, BELL_PSI_PLUS)])
        assert table["purity_12"] == pytest.approx([0.5, 0.5], abs=1e-15)
        assert table["tangle_12"].tolist() == [0.0, 0.0]

    def test_matches_pure_shortcut(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            chi = haar_state(rng, 4)
            for value in pair_tangles(chi, haar_state(rng, 2)):
                assert abs(value - oracle_tangle_pure2(chi)) <= 1e-10


def eof(tau: float) -> float:
    """The package's entanglement of formation of one tangle."""
    return float(measures._eof(np.array([tau]))[0])


class TestEof:
    def test_endpoints(self):
        assert eof(1.0) == pytest.approx(1.0, abs=1e-12)
        assert eof(0.0) == 0.0

    def test_frozen_value(self):
        # h(0.9) evaluated directly: -0.9 log2 0.9 - 0.1 log2 0.1
        assert eof(0.36) == pytest.approx(0.46899559358928117, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            eof(1.1)
        with pytest.raises(ValueError):
            eof(-0.1)

    def test_nan_stays_nan(self):
        # a NaN tangle is a broken value, never a passing 0
        values = measures._eof(np.array([np.nan, 0.0, 1.0]))
        assert np.isnan(values[0]) and values[1] == 0.0 and values[2] == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_monotone_and_bounded(self, tau):
        value = eof(tau)
        assert 0.0 <= value <= 1.0
        if tau >= 1e-6:
            assert eof(tau - 1e-6) <= value + 1e-12

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_binary_entropy_symmetry(self, x):
        # tau = 4 x (1 - x) puts max(x, 1 - x) into h(1/2 + 1/2 sqrt(1 - tau)), so both sides are h(x)
        value = eof(4.0 * x * (1.0 - x))
        assert value == pytest.approx(oracle_binary_entropy(x), abs=1e-12)
        assert value == pytest.approx(oracle_binary_entropy(1 - x), abs=1e-12)


class TestResidualTangle:
    def test_ghz_and_w_anchors(self):
        ghz = ghz_general(INV_SQRT2, INV_SQRT2)
        w = triple(*(np.ones(3) / np.sqrt(3)))
        product = np.zeros(8, dtype=complex)
        product[0] = 1
        assert residual_tangle_rows([ghz, w, product]) == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)
        for route in (oracle_residual_tangle_lambda, oracle_residual_tangle_ckw):
            assert route(ghz) == pytest.approx(1.0, abs=1e-9)
            assert abs(route(w)) <= 1e-9
            assert abs(route(product)) <= 1e-9

    def test_ghz_polynomial_pieces(self):
        # a|000> + b|111>: only the first invariant survives, d1 = a^2 b^2
        a, b = np.sqrt(0.8), np.sqrt(0.2)
        assert residual_tangle_rows(ghz_general(a, b))[0] == pytest.approx(4 * a * a * b * b, abs=1e-12)

    def test_three_routes_agree_on_random_states(self):
        rng = np.random.default_rng(42)
        states = [haar_state(rng) for _ in range(500)]
        for psi, p in zip(states, residual_tangle_rows(states)):
            assert abs(oracle_residual_tangle_lambda(psi) - p) <= 1e-9
            assert abs(oracle_residual_tangle_ckw(psi) - p) <= 1e-9

    def test_complex_amplitudes_enter_squared(self):
        # the polynomial route uses complex squares verbatim; a global i on one
        # amplitude flips a sign inside the modulus rather than dropping out
        psi = np.zeros(8, dtype=complex)
        psi[0] = psi[7] = INV_SQRT2 * np.exp(0.3j)
        assert residual_tangle_rows(psi)[0] == pytest.approx(1.0, abs=1e-12)
        assert oracle_residual_tangle_lambda(psi) == pytest.approx(1.0, abs=1e-9)

    def test_even_parity_closed_form(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            amps = haar_state(rng, 4)
            psi = np.zeros(8, dtype=complex)
            psi[[0b000, 0b011, 0b101, 0b110]] = amps
            expected = 16 * abs(np.prod(amps))
            assert residual_tangle_rows(psi)[0] == pytest.approx(expected, abs=1e-9)
            assert oracle_residual_tangle_lambda(psi) == pytest.approx(expected, abs=1e-9)

    def test_odd_parity_closed_form(self):
        rng = np.random.default_rng(56)
        amps = haar_state(rng, 4)
        psi = np.zeros(8, dtype=complex)
        psi[[0b111, 0b001, 0b010, 0b100]] = amps
        assert residual_tangle_rows(psi)[0] == pytest.approx(16 * abs(np.prod(amps)), abs=1e-9)


class TestReport:
    def test_product_state(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1
        table = report_batch(psi)
        assert tuple(table) == REPORT_FIELDS
        assert [values.tolist() for values in table.values()] == [[0.0], [0.0], [0.0], [0.0], [1.0]]

    def test_ghz(self):
        table = report_batch(ghz_general(INV_SQRT2, INV_SQRT2))
        assert table["residual_tangle"][0] == pytest.approx(1.0, abs=1e-9)
        assert table["tangle_12"][0] <= 1e-12
        assert table["purity_12"][0] == pytest.approx(0.5, abs=1e-12)

    def test_internal_consistency_and_ranges(self):
        rng = np.random.default_rng(31)
        table = report_batch([haar_state(rng) for _ in range(200)])
        for tangle, concurrence, eof, residual, purity in zip(*table.values()):
            assert tangle == pytest.approx(concurrence**2, abs=1e-10)
            assert eof == pytest.approx(oracle_binary_entropy(0.5 + 0.5 * np.sqrt(1 - tangle)), abs=1e-10)
            for value in (tangle, concurrence, eof, residual):
                assert -1e-9 <= value <= 1 + 1e-9
            assert 0.25 - 1e-9 <= purity <= 1 + 1e-9

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            report_batch(np.ones(8))

    @pytest.mark.parametrize("offset", [5e-11, -5e-11, 5e-10, -5e-10])
    def test_norm_check_threshold(self, offset):
        # |norm^2 - 1| up to MEASURE_NORM_TOL = 1e-10 is measured, beyond it refused
        psi = np.sqrt(1.0 + offset) * haar_state(np.random.default_rng(32))
        if abs(offset) < 1e-10:
            assert tuple(report_batch(psi)) == REPORT_FIELDS
        else:
            with pytest.raises(ValueError, match=r"state must be normalized: \|norm\^2 - 1\| = 5\.000e-10"):
                report_batch(psi)


class TestPureStateConcurrence:
    def test_product_states_are_exact_zeros(self):
        x = (1.0, 0.0, 0.0)
        plus3 = fully_separable([0.0] * 3, [(0.0, 0.0, 1.0)] * 3, axes=(x, x, x))
        assert concurrence_12(plus3)[0] <= 1e-15
        rng = np.random.default_rng(90)
        products = np.array([
            np.kron(np.kron(haar_state(rng, 2), haar_state(rng, 2)), haar_state(rng, 2)) for _ in range(500)
        ])
        assert np.max(concurrence_12(products)) <= 1e-15
        assert np.max(report_batch(products[:50])["concurrence_12"]) <= 1e-15

    def test_pair_product_with_probe_entanglement_is_zero(self):
        # |a>_1 (x) (entangled 2,3): rho_12 is a product mixed state
        rng = np.random.default_rng(91)
        for _ in range(50):
            psi = np.kron(haar_state(rng, 2), haar_state(rng, 4))
            assert concurrence_12(psi)[0] <= 1e-15

    def test_matches_cross_matrix_oracle_and_wootters_route(self):
        rng = np.random.default_rng(92)
        states = np.array([haar_state(rng) for _ in range(200)])
        c = concurrence_12(states)
        for psi, value in zip(states, c):
            assert abs(value - oracle_concurrence_pure3(psi, 3)) <= 1e-14
            assert abs(value - oracle_concurrence_mixed(oracle_rho12(psi))) <= 1e-7

    def test_matches_cross_matrix_oracle_on_rotated_ghz_and_w(self):
        # local rotations keep the 1,2 concurrence (0 for GHZ, 2/3 for W) but fill every amplitude
        rng = np.random.default_rng(94)
        n = 200
        a = np.sqrt(rng.uniform(size=n))
        states = np.concatenate([ghz_general(a, np.sqrt(1 - a * a)), np.tile(triple(*(np.ones(3) / np.sqrt(3))), (n, 1))])
        for qubit in (1, 2, 3):
            states = rotate(states, qubit, rotation_matrices([reference_rotation(rng.normal(size=4)) for _ in range(2 * n)]))
        c = concurrence_12(states)
        for psi, value in zip(states, c):
            assert abs(value - oracle_concurrence_pure3(psi, 3)) <= 1e-14
        assert np.max(c[:n]) <= 1e-14
        assert np.max(np.abs(c[n:] - 2 / 3)) <= 1e-14

    def test_structural_zeros_are_exact(self):
        # rho_12 of these states is a product or classically correlated, and the closed form
        # gives exactly 0, where the 2x2 SVD leaves ~1e-17 of noise
        rng = np.random.default_rng(95)
        spectators = np.array([haar_state(rng, 2) for _ in range(200)])
        a = np.sqrt(rng.uniform(size=200))
        for build in (bipartite_13, bipartite_23):
            states = build(a, np.sqrt(1 - a * a), spectators)
            assert (concurrence_12(states) == 0.0).all()
            assert (report_batch(states)["tangle_12"] == 0.0).all()
        assert (concurrence_12(ghz_general(a, np.sqrt(1 - a * a))) == 0.0).all()
        qnd_x = run_sweep(load_config(CONFIGS / "qnd_x.json"))
        assert qnd_x.times[0] == 0.0
        assert qnd_x.table["concurrence_12"][0] == 0.0

    def test_non_finite_rows_give_nan(self):
        rows = np.full((4, 8), 0.35 + 0j)
        rows[0, :] = np.nan
        rows[1, 3] = np.nan
        rows[2, 0] = np.inf
        rows[3, 6] = complex(0, -np.inf)
        with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf raise the invalid flag on the way to NaN
            assert np.isnan(concurrence_12(rows)).all()
            assert np.isnan(scenarios._tangle12(rows)).all()

    def test_batch_rows_equal_single_reports(self):
        rng = np.random.default_rng(93)
        states = np.array([haar_state(rng) for _ in range(40)])
        table = report_batch(states)
        for i, psi in enumerate(states):
            for name, values in report_batch(psi).items():
                assert abs(table[name][i] - values[0]) <= 1e-15
            rho = oracle_rho12(psi)
            assert abs(table["purity_12"][i] - np.trace(rho @ rho).real) <= 1e-14

    def test_batch_rejects_one_unnormalized_row(self):
        states = np.array([ghz_general(INV_SQRT2, INV_SQRT2), 2 * ghz_general(INV_SQRT2, INV_SQRT2)])
        with pytest.raises(ValueError, match="normalized"):
            report_batch(states)
        nan_row = np.full(8, np.nan, dtype=complex)
        with pytest.raises(ValueError, match="normalized"):
            report_batch(nan_row)


def test_purity_range():
    # rho_12 of a pure three-qubit state has rank <= 2, so its purity lies in [1/2, 1]
    purities = report_batch([np.kron(BELL_PSI_PLUS, E0), ghz_general(INV_SQRT2, INV_SQRT2)])["purity_12"]
    assert purities == pytest.approx([1.0, 0.5], abs=1e-15)
    rng = np.random.default_rng(72)
    purities = report_batch(np.array([haar_state(rng) for _ in range(500)]))["purity_12"]
    assert np.all((purities >= 0.5 - 1e-15) & (purities <= 1.0 + 1e-15))


def test_zrt_sweep_zero_residual():
    rng = np.random.default_rng(71)
    assert np.max(residual_tangle_rows([zrt(*haar_state(rng, 4)) for _ in range(100)])) <= 1e-9
