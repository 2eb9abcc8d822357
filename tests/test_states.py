import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triqubit import measures
from triqubit.linalg import axis_sigma
from triqubit.states import (
    LocalRotation,
    apply_local,
    axis_eigenbasis,
    basis_matrix,
    bipartite_12,
    bipartite_13,
    bipartite_23,
    from_axis_basis,
    fully_separable,
    ghz_general,
    probe_components,
    raw_amplitudes,
    to_axis_basis,
    triple,
    zrt,
)
from triqubit.scenarios import random_rotation

from oracles import (
    haar_state,
    oracle_concurrence_pure3,
    oracle_ptrace,
    oracle_residual_tangle_ckw,
    oracle_residual_tangle_lambda,
    oracle_tangle_pure2,
    oracle_unitary,
)

X = (1.0, 0.0, 0.0)
Z = (0.0, 0.0, 1.0)
INV_SQRT2 = 1 / np.sqrt(2)


def identity_rotations():
    return tuple(LocalRotation(qubit=q) for q in (1, 2, 3))


class TestAxisEigenbasis:
    def test_z_axis(self):
        plus, minus = axis_eigenbasis(Z)
        assert np.allclose(plus, [1, 0])
        assert np.allclose(minus, [0, 1])

    def test_x_axis(self):
        plus, minus = axis_eigenbasis(X)
        assert np.allclose(plus, [INV_SQRT2, INV_SQRT2])
        assert np.allclose(minus, [INV_SQRT2, -INV_SQRT2])

    @given(st.floats(0, np.pi), st.floats(-np.pi, np.pi))
    @settings(max_examples=200, deadline=None)
    def test_defining_property(self, theta, phi):
        axis = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
        plus, minus = axis_eigenbasis(axis)
        sigma = axis_sigma(axis)
        assert np.max(np.abs(sigma @ plus - plus)) <= 1e-12
        assert np.max(np.abs(sigma @ minus + minus)) <= 1e-12
        assert abs(np.vdot(plus, minus)) <= 1e-12
        assert minus[0].imag == pytest.approx(0.0, abs=1e-15)
        assert minus[0].real >= -1e-15

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            axis_eigenbasis((0, 0, 0))

    @pytest.mark.parametrize("scale", [1.3407807929942597e154, 1e300, 1e-300])
    def test_extreme_finite_axis_scale(self, scale):
        # the sum of squares leaves float range, although the direction does not
        axis = (scale, scale, 0.0)
        plus, minus = axis_eigenbasis(axis)
        want_plus, want_minus = axis_eigenbasis((1.0, 1.0, 0.0))
        assert np.max(np.abs(plus - want_plus)) <= 1e-15
        assert np.max(np.abs(minus - want_minus)) <= 1e-15
        assert np.max(np.abs(axis_sigma(axis) - axis_sigma((1.0, 1.0, 0.0)))) <= 1e-15


class TestRotations:
    def test_expansion_identity(self):
        # exp(-i gamma sigma_n) = cos(gamma) 1 - i sin(gamma) sigma_n
        rng = np.random.default_rng(12)
        for _ in range(30):
            axis = rng.normal(size=3)
            gamma = rng.uniform(-4, 4)
            r = LocalRotation(qubit=1, angle=gamma, axis=tuple(axis))
            assert np.max(np.abs(r.matrix() - oracle_unitary(gamma * axis_sigma(axis), 1.0))) <= 1e-12

    def test_identity_rotation_leaves_state(self):
        psi = haar_state(np.random.default_rng(0))
        assert np.allclose(apply_local(LocalRotation(qubit=2), psi), psi)

    def test_rotation_preserves_all_measures(self):
        rng = np.random.default_rng(77)
        constructors = [
            lambda: fully_separable(*identity_rotations(), axes=(X, X, X)),
            lambda: bipartite_12(0.8, 0.6, np.array([0.6, 0.8j])),
            lambda: bipartite_23(INV_SQRT2, INV_SQRT2, np.array([1.0, 0])),
            lambda: bipartite_13(0.9, np.sqrt(1 - 0.81), np.array([0, 1.0])),
            lambda: ghz_general(np.sqrt(0.7), np.sqrt(0.3)),
            lambda: zrt(0.5, 0.5, 0.5, 0.5),
            lambda: triple(*np.array([1, 1j, -1]) / np.sqrt(3)),
            lambda: raw_amplitudes(haar_state(rng)),
        ]
        trials_per = 63  # ~500 rotations in total across the constructors
        for build in constructors:
            psi = build()
            before = measures.report(psi)
            for _ in range(trials_per):
                rotated = apply_local(random_rotation(rng, int(rng.integers(1, 4))), psi)
                after = measures.report(rotated)
                assert abs(after.tangle_12 - before.tangle_12) <= 1e-9
                assert abs(after.eof_12 - before.eof_12) <= 1e-9
                assert abs(after.residual_tangle - before.residual_tangle) <= 1e-9
        # tangle of rho_12 is also invariant under rotations of qubit 3 only
        psi = ghz_general(INV_SQRT2, INV_SQRT2)
        rotated = apply_local(random_rotation(rng, 3), psi)
        assert measures.residual_tangle_poly(rotated) == pytest.approx(1.0, abs=1e-9)


class TestConstructors:
    def test_all_outputs_normalized(self):
        rng = np.random.default_rng(5)
        outputs = [
            fully_separable(*identity_rotations()),
            bipartite_12(np.sqrt(0.9), np.sqrt(0.1), np.array([1, 0])),
            bipartite_23(0.8, 0.6, np.array([INV_SQRT2, INV_SQRT2])),
            bipartite_13(0.8, 0.6, np.array([1, 0])),
            ghz_general(np.sqrt(0.8), np.sqrt(0.2)),
            zrt(*(np.ones(4) / 2)),
            triple(*(np.ones(3) / np.sqrt(3))),
            raw_amplitudes(haar_state(rng)),
        ]
        for psi in outputs:
            assert abs(np.vdot(psi, psi).real - 1) <= 1e-12

    def test_fully_separable_purities(self):
        rng = np.random.default_rng(21)
        rots = tuple(random_rotation(rng, q) for q in (1, 2, 3))
        psi = fully_separable(*rots, axes=(X, Z, (0, 1, 0)))
        rho = np.outer(psi, psi.conj())
        assert oracle_concurrence_pure3(psi, 3) ** 2 <= 1e-12
        for which in (1, 2, 3):
            rho4 = oracle_ptrace(rho, which)
            assert abs(np.trace(rho4 @ rho4).real - 1) <= 1e-12

    def test_fully_separable_x_reference_matches_hand_built_product(self):
        psi = fully_separable(*identity_rotations(), axes=(X, X, X))
        xp = np.array([1, 1]) * INV_SQRT2
        assert np.allclose(psi, np.kron(np.kron(xp, xp), xp), atol=1e-12)

    def test_fully_separable_rejects_duplicate_qubits(self):
        r = LocalRotation(qubit=1)
        with pytest.raises(ValueError):
            fully_separable(r, r, LocalRotation(qubit=3))

    @pytest.mark.parametrize(
        "a,b,expected",
        [(INV_SQRT2, INV_SQRT2, 1.0), (np.sqrt(0.9), np.sqrt(0.1), 0.36), (1.0, 0.0, 0.0)],
    )
    def test_bipartite_12_tangle(self, a, b, expected):
        psi = bipartite_12(a, b, np.array([0.28, 0.96j]))
        assert measures.report(psi).tangle_12 == pytest.approx(expected, abs=1e-9)

    def test_bipartite_23_tangles(self):
        psi = bipartite_23(INV_SQRT2, INV_SQRT2, np.array([1.0, 0]))
        rep = measures.report(psi)
        assert rep.tangle_12 <= 1e-12
        assert oracle_concurrence_pure3(psi, 1) ** 2 == pytest.approx(1.0, abs=1e-9)
        # derived from the pure-state shortcut: 4*(0.8*0.6)^2 = 0.9216
        psi = bipartite_23(0.8, 0.6, np.array([1.0, 0]))
        assert oracle_concurrence_pure3(psi, 1) ** 2 == pytest.approx(0.9216, abs=1e-9)

    def test_bipartite_23_of_zero_b_is_fully_separable(self):
        psi = bipartite_23(1.0, 0.0, np.array([0.6, 0.8]))
        rep = measures.report(psi)
        assert rep.tangle_12 <= 1e-12
        assert rep.residual_tangle <= 1e-12
        assert rep.purity_12 == pytest.approx(1.0, abs=1e-12)

    def test_ghz_marginals_unentangled(self):
        for a2 in (0.5, 0.8, 1.0):
            psi = ghz_general(np.sqrt(a2), np.sqrt(1 - a2))
            for which in (1, 2, 3):
                assert oracle_concurrence_pure3(psi, which) ** 2 <= 1e-12

    @pytest.mark.parametrize("a2,expected", [(0.5, 1.0), (1.0, 0.0), (0.8, 0.64)])
    def test_ghz_residual_tangle(self, a2, expected):
        # 4 a^2 b^2, checked against all three residual-tangle routes
        psi = ghz_general(np.sqrt(a2), np.sqrt(1 - a2))
        assert measures.residual_tangle_poly(psi) == pytest.approx(expected, abs=1e-9)
        assert oracle_residual_tangle_lambda(psi) == pytest.approx(expected, abs=1e-9)
        assert oracle_residual_tangle_ckw(psi) == pytest.approx(expected, abs=1e-9)

    def test_zrt_class_has_zero_residual_tangle(self):
        rng = np.random.default_rng(99)
        assert measures.residual_tangle_poly(zrt(1, 0, 0, 0)) == 0.0
        w = zrt(0, *(np.ones(3) / np.sqrt(3)))
        assert measures.residual_tangle_poly(w) <= 1e-12
        for _ in range(100):
            amps = haar_state(rng, 4)
            assert oracle_residual_tangle_lambda(zrt(*amps)) <= 1e-9

    @pytest.mark.parametrize(
        "amps,expected",
        [((1, 0, 0), 0.0), ((0, INV_SQRT2, INV_SQRT2), 1.0), (tuple(np.ones(3) / np.sqrt(3)), 4 / 9)],
    )
    def test_triple_initial_tangle(self, amps, expected):
        assert measures.report(triple(*amps)).tangle_12 == pytest.approx(expected, abs=1e-9)

    def test_unnormalized_inputs_rejected(self):
        with pytest.raises(ValueError):
            bipartite_12(0.9, 0.5, np.array([1, 0]))
        with pytest.raises(ValueError):
            bipartite_12(INV_SQRT2, INV_SQRT2, np.array([1, 1]))
        with pytest.raises(ValueError):
            bipartite_12(-INV_SQRT2, INV_SQRT2, np.array([1, 0]))
        with pytest.raises(ValueError):
            ghz_general(1.0, 0.1)
        with pytest.raises(ValueError):
            zrt(1, 1, 0, 0)
        with pytest.raises(ValueError):
            triple(1, 1, 1)
        with pytest.raises(ValueError):
            raw_amplitudes(np.ones(8))


class TestBasisChange:
    def test_roundtrip_and_unitarity(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            axes = [rng.normal(size=3) for _ in range(3)]
            b = basis_matrix(axes)
            assert np.max(np.abs(b.conj().T @ b - np.eye(8))) <= 1e-12
            psi = haar_state(rng)
            back = from_axis_basis(to_axis_basis(psi, axes), axes)
            assert np.max(np.abs(back - psi)) <= 1e-12

    def test_probe_components(self):
        c, d = probe_components(np.array([1.0, 0.0]), X)
        assert c == pytest.approx(INV_SQRT2)
        assert d == pytest.approx(INV_SQRT2)
        c, d = probe_components(axis_eigenbasis(X)[0], X)
        assert c == pytest.approx(1.0)
        assert abs(d) <= 1e-15


def test_pure_marginal_tangle_shortcut():
    # for product-with-probe states the 1,2 marginal is pure and the tangle
    # reduces to 4|a00 a11 - a01 a10|^2
    rng = np.random.default_rng(27)
    for _ in range(50):
        chi = haar_state(rng, 4)
        psi = np.kron(chi, haar_state(rng, 2))
        rep = measures.report(psi)
        assert abs(rep.tangle_12 - oracle_tangle_pure2(chi)) <= 1e-10
