import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triqubit.evolution import measure_probe
from triqubit.measures import (
    EntanglementReport,
    binary_entropy,
    concurrence_12,
    eof_from_tangle,
    report,
    report_batch,
    residual_tangle_poly,
)
from triqubit.states import LocalRotation, fully_separable, ghz_general, triple, zrt

from oracles import (
    haar_state,
    oracle_concurrence_mixed,
    oracle_concurrence_pure3,
    oracle_residual_tangle_ckw,
    oracle_residual_tangle_lambda,
    oracle_rho12,
    oracle_tangle_pure2,
)

INV_SQRT2 = 1 / np.sqrt(2)
BELL_PSI_PLUS = np.array([0, INV_SQRT2, INV_SQRT2, 0], dtype=complex)
E0 = np.array([1, 0], dtype=complex)


def pair_tangles(chi, phi):
    """Tangle of the pure pair chi held next to a probe in state phi, by both package routes.

    ``report`` takes it from the 1,2 cross matrix of chi (x) phi; a probe measurement
    leaves chi as the conditional pair state, whose tangle is 4|a00 a11 - a01 a10|^2.
    """
    psi = np.kron(chi, phi)
    outcome = measure_probe(psi, (phi, np.array([-phi[1].conj(), phi[0].conj()])))[0]
    return report(psi).tangle_12, outcome.tangle


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
        for psi in (ghz_general(INV_SQRT2, INV_SQRT2), np.kron(E0, BELL_PSI_PLUS)):
            rep = report(psi)
            assert rep.purity_12 == pytest.approx(0.5, abs=1e-15)
            assert rep.tangle_12 == 0.0

    def test_matches_pure_shortcut(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            chi = haar_state(rng, 4)
            for value in pair_tangles(chi, haar_state(rng, 2)):
                assert abs(value - oracle_tangle_pure2(chi)) <= 1e-10


class TestEof:
    def test_endpoints(self):
        assert eof_from_tangle(1.0) == pytest.approx(1.0, abs=1e-12)
        assert eof_from_tangle(0.0) == 0.0

    def test_frozen_value(self):
        # h(0.9) evaluated directly: -0.9 log2 0.9 - 0.1 log2 0.1
        assert eof_from_tangle(0.36) == pytest.approx(0.46899559358928117, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            eof_from_tangle(1.1)
        with pytest.raises(ValueError):
            eof_from_tangle(-0.1)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_bounded(self, tau):
        value = eof_from_tangle(tau)
        assert 0.0 <= value <= 1.0
        if tau >= 1e-6:
            assert eof_from_tangle(tau - 1e-6) <= value + 1e-12

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_binary_entropy_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-12)


class TestResidualTangle:
    def test_ghz_and_w_anchors(self):
        ghz = ghz_general(INV_SQRT2, INV_SQRT2)
        w = triple(*(np.ones(3) / np.sqrt(3)))
        product = np.zeros(8, dtype=complex)
        product[0] = 1
        for route in (oracle_residual_tangle_lambda, residual_tangle_poly, oracle_residual_tangle_ckw):
            assert route(ghz) == pytest.approx(1.0, abs=1e-9)
            assert abs(route(w)) <= 1e-9
            assert abs(route(product)) <= 1e-9

    def test_ghz_polynomial_pieces(self):
        # a|000> + b|111>: only the first invariant survives, d1 = a^2 b^2
        a, b = np.sqrt(0.8), np.sqrt(0.2)
        assert residual_tangle_poly(ghz_general(a, b)) == pytest.approx(4 * a * a * b * b, abs=1e-12)

    def test_three_routes_agree_on_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            psi = haar_state(rng)
            p = residual_tangle_poly(psi)
            assert abs(oracle_residual_tangle_lambda(psi) - p) <= 1e-9
            assert abs(oracle_residual_tangle_ckw(psi) - p) <= 1e-9

    def test_complex_amplitudes_enter_squared(self):
        # the polynomial route uses complex squares verbatim; a global i on one
        # amplitude flips a sign inside the modulus rather than dropping out
        psi = np.zeros(8, dtype=complex)
        psi[0] = psi[7] = INV_SQRT2 * np.exp(0.3j)
        assert residual_tangle_poly(psi) == pytest.approx(1.0, abs=1e-12)
        assert oracle_residual_tangle_lambda(psi) == pytest.approx(1.0, abs=1e-9)

    def test_even_parity_closed_form(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            amps = haar_state(rng, 4)
            psi = np.zeros(8, dtype=complex)
            psi[[0b000, 0b011, 0b101, 0b110]] = amps
            expected = 16 * abs(np.prod(amps))
            assert residual_tangle_poly(psi) == pytest.approx(expected, abs=1e-9)
            assert oracle_residual_tangle_lambda(psi) == pytest.approx(expected, abs=1e-9)

    def test_odd_parity_closed_form(self):
        rng = np.random.default_rng(56)
        amps = haar_state(rng, 4)
        psi = np.zeros(8, dtype=complex)
        psi[[0b111, 0b001, 0b010, 0b100]] = amps
        assert residual_tangle_poly(psi) == pytest.approx(16 * abs(np.prod(amps)), abs=1e-9)


class TestReport:
    def test_product_state(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1
        rep = report(psi)
        assert rep == EntanglementReport(0.0, 0.0, 0.0, 0.0, 1.0)

    def test_ghz(self):
        rep = report(ghz_general(INV_SQRT2, INV_SQRT2))
        assert rep.residual_tangle == pytest.approx(1.0, abs=1e-9)
        assert rep.tangle_12 <= 1e-12
        assert rep.purity_12 == pytest.approx(0.5, abs=1e-12)

    def test_internal_consistency_and_ranges(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            rep = report(haar_state(rng))
            assert rep.tangle_12 == pytest.approx(rep.concurrence_12**2, abs=1e-10)
            assert rep.eof_12 == pytest.approx(
                binary_entropy(0.5 + 0.5 * np.sqrt(1 - rep.tangle_12)), abs=1e-10
            )
            for value in (rep.tangle_12, rep.concurrence_12, rep.eof_12, rep.residual_tangle):
                assert -1e-9 <= value <= 1 + 1e-9
            assert 0.25 - 1e-9 <= rep.purity_12 <= 1 + 1e-9

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            report(np.ones(8))


class TestPureStateConcurrence:
    def test_product_states_are_exact_zeros(self):
        x = (1.0, 0.0, 0.0)
        plus3 = fully_separable(*(LocalRotation(qubit=q) for q in (1, 2, 3)), axes=(x, x, x))
        assert report(plus3).concurrence_12 <= 1e-15
        rng = np.random.default_rng(90)
        products = np.array([
            np.kron(np.kron(haar_state(rng, 2), haar_state(rng, 2)), haar_state(rng, 2)) for _ in range(500)
        ])
        assert np.max(concurrence_12(products)) <= 1e-15
        for psi in products[:50]:
            assert report(psi).concurrence_12 <= 1e-15

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

    def test_batch_rows_equal_single_reports(self):
        rng = np.random.default_rng(93)
        states = np.array([haar_state(rng) for _ in range(40)])
        table = report_batch(states)
        for i, psi in enumerate(states):
            rep = report(psi)
            for name, values in table.items():
                assert abs(values[i] - getattr(rep, name)) <= 1e-15
            rho = oracle_rho12(psi)
            assert abs(rep.purity_12 - np.trace(rho @ rho).real) <= 1e-14

    def test_batch_rejects_one_unnormalized_row(self):
        states = np.array([ghz_general(INV_SQRT2, INV_SQRT2), 2 * ghz_general(INV_SQRT2, INV_SQRT2)])
        with pytest.raises(ValueError, match="normalized"):
            report_batch(states)
        nan_row = np.full(8, np.nan, dtype=complex)
        with pytest.raises(ValueError, match="normalized"):
            report(nan_row)


def test_purity_range():
    # rho_12 of a pure three-qubit state has rank <= 2, so its purity lies in [1/2, 1]
    assert report(np.kron(BELL_PSI_PLUS, E0)).purity_12 == pytest.approx(1.0, abs=1e-15)
    assert report(ghz_general(INV_SQRT2, INV_SQRT2)).purity_12 == pytest.approx(0.5, abs=1e-15)
    rng = np.random.default_rng(72)
    purities = report_batch(np.array([haar_state(rng) for _ in range(500)]))["purity_12"]
    assert np.all((purities >= 0.5 - 1e-15) & (purities <= 1.0 + 1e-15))


def test_zrt_sweep_zero_residual():
    rng = np.random.default_rng(71)
    for _ in range(100):
        psi = zrt(*haar_state(rng, 4))
        assert residual_tangle_poly(psi) <= 1e-9
