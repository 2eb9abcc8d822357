import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triqubit.measures import report_batch, residual_tangle_rows
from triqubit.states import (
    axis_eigenbases,
    bipartite_12,
    bipartite_13,
    bipartite_23,
    from_axis_basis,
    fully_separable,
    ghz_general,
    raw_amplitudes,
    rotate,
    rotation_matrices,
    triple,
    zrt,
)

from oracles import (
    axis_eigenbasis,
    axis_pauli,
    embed,
    haar_state,
    oracle_concurrence_pure3,
    oracle_ptrace,
    oracle_residual_tangle_ckw,
    oracle_residual_tangle_lambda,
    oracle_tangle_pure2,
    oracle_unitary,
    quaternion,
    reference_axis,
    reference_rotation,
)

X = (1.0, 0.0, 0.0)
Z = (0.0, 0.0, 1.0)
INV_SQRT2 = 1 / np.sqrt(2)


def unrotated(axes=(Z, Z, Z)):
    """``fully_separable`` with identity rotations: the product of the reference axes' plus states."""
    return fully_separable([0.0] * 3, [Z] * 3, axes=axes)


class TestAxisEigenbasis:
    def test_z_axis(self):
        plus, minus = axis_eigenbasis(Z)
        assert np.allclose(plus, [1, 0])
        assert np.allclose(minus, [0, 1])

    def test_minus_z_axis(self):
        # e^{i phi} = 1 on the z axis, also on -z: plus = |1> and minus = |0>, exactly
        basis = axis_eigenbases((0.0, 0.0, -1.0))
        assert basis[:, 0].tolist() == [0, 1] and basis[:, 1].tolist() == [1, 0]

    def test_x_axis(self):
        plus, minus = axis_eigenbasis(X)
        assert np.allclose(plus, [INV_SQRT2, INV_SQRT2])
        assert np.allclose(minus, [INV_SQRT2, -INV_SQRT2])

    @given(st.floats(0, np.pi), st.floats(-np.pi, np.pi))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_defining_property(self, theta, phi):
        axis = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
        plus, minus = axis_eigenbasis(axis)
        sigma = axis_pauli(axis)
        assert np.max(np.abs(sigma @ plus - plus)) <= 1e-12
        assert np.max(np.abs(sigma @ minus + minus)) <= 1e-12
        assert abs(np.vdot(plus, minus)) <= 1e-12
        assert minus[0].imag == pytest.approx(0.0, abs=1e-15)
        assert minus[0].real >= -1e-15


class TestRotations:
    def test_expansion_identity(self):
        # exp(-i gamma sigma_n) = cos(gamma) 1 - i sin(gamma) sigma_n
        rng = np.random.default_rng(12)
        for _ in range(30):
            axis = reference_axis(rng)
            gamma = rng.uniform(-4, 4)
            r = rotation_matrices(quaternion(gamma, axis))
            assert np.max(np.abs(r - oracle_unitary(gamma * axis_pauli(axis), 1.0))) <= 1e-12

    def test_identity_rotation_leaves_state(self):
        # the quaternions (+-1, 0, 0, 0) give exactly +-I
        m = rotation_matrices([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(m, [np.eye(2), -np.eye(2)])
        psi = haar_state(np.random.default_rng(0))
        assert np.allclose(rotate(psi, 2, m[:1]), psi)

    def test_rotation_preserves_all_measures(self):
        rng = np.random.default_rng(77)
        constructors = [
            lambda: unrotated(axes=(X, X, X)),
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
            rotated = []
            for _ in range(trials_per):
                qubit = int(rng.integers(1, 4))
                rotated.append(rotate(psi, qubit, rotation_matrices([reference_rotation(rng.normal(size=4))])))
            before, after = report_batch(psi), report_batch(np.concatenate(rotated))
            for name in ("tangle_12", "eof_12", "residual_tangle"):
                assert np.max(np.abs(after[name] - before[name])) <= 1e-9
        # tangle of rho_12 is also invariant under rotations of qubit 3 only
        psi = ghz_general(INV_SQRT2, INV_SQRT2)
        rotated = rotate(psi, 3, rotation_matrices([reference_rotation(rng.normal(size=4))]))
        assert residual_tangle_rows(rotated)[0] == pytest.approx(1.0, abs=1e-9)


class TestConstructors:
    def test_all_outputs_normalized(self):
        rng = np.random.default_rng(5)
        outputs = [
            unrotated(),
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
        angles, axes = rng.uniform(-4.0, 4.0, 3), [reference_axis(rng) for _ in range(3)]
        psi = fully_separable(angles, axes, axes=(X, Z, (0, 1, 0)))
        rho = np.outer(psi, psi.conj())
        assert oracle_concurrence_pure3(psi, 3) ** 2 <= 1e-12
        for which in (1, 2, 3):
            rho4 = oracle_ptrace(rho, which)
            assert abs(np.trace(rho4 @ rho4).real - 1) <= 1e-12

    def test_fully_separable_x_reference_matches_hand_built_product(self):
        psi = unrotated(axes=(X, X, X))
        xp = np.array([1, 1]) * INV_SQRT2
        assert np.allclose(psi, np.kron(np.kron(xp, xp), xp), atol=1e-12)

    @pytest.mark.parametrize(
        "a,b,expected",
        [(INV_SQRT2, INV_SQRT2, 1.0), (np.sqrt(0.9), np.sqrt(0.1), 0.36), (1.0, 0.0, 0.0)],
    )
    def test_bipartite_12_tangle(self, a, b, expected):
        psi = bipartite_12(a, b, np.array([0.28, 0.96j]))
        assert report_batch(psi)["tangle_12"][0] == pytest.approx(expected, abs=1e-9)

    def test_bipartite_23_tangles(self):
        psi = bipartite_23(INV_SQRT2, INV_SQRT2, np.array([1.0, 0]))
        assert report_batch(psi)["tangle_12"][0] <= 1e-12
        assert oracle_concurrence_pure3(psi, 1) ** 2 == pytest.approx(1.0, abs=1e-9)
        # derived from the pure-state shortcut: 4*(0.8*0.6)^2 = 0.9216
        psi = bipartite_23(0.8, 0.6, np.array([1.0, 0]))
        assert oracle_concurrence_pure3(psi, 1) ** 2 == pytest.approx(0.9216, abs=1e-9)

    def test_bipartite_23_of_zero_b_is_fully_separable(self):
        table = report_batch(bipartite_23(1.0, 0.0, np.array([0.6, 0.8])))
        assert table["tangle_12"][0] <= 1e-12
        assert table["residual_tangle"][0] <= 1e-12
        assert table["purity_12"][0] == pytest.approx(1.0, abs=1e-12)

    def test_ghz_marginals_unentangled(self):
        for a2 in (0.5, 0.8, 1.0):
            psi = ghz_general(np.sqrt(a2), np.sqrt(1 - a2))
            for which in (1, 2, 3):
                assert oracle_concurrence_pure3(psi, which) ** 2 <= 1e-12

    @pytest.mark.parametrize("a2,expected", [(0.5, 1.0), (1.0, 0.0), (0.8, 0.64)])
    def test_ghz_residual_tangle(self, a2, expected):
        # 4 a^2 b^2, checked against all three residual-tangle routes
        psi = ghz_general(np.sqrt(a2), np.sqrt(1 - a2))
        assert residual_tangle_rows(psi)[0] == pytest.approx(expected, abs=1e-9)
        assert oracle_residual_tangle_lambda(psi) == pytest.approx(expected, abs=1e-9)
        assert oracle_residual_tangle_ckw(psi) == pytest.approx(expected, abs=1e-9)

    def test_zrt_class_has_zero_residual_tangle(self):
        rng = np.random.default_rng(99)
        assert residual_tangle_rows(zrt(1, 0, 0, 0))[0] == 0.0
        w = zrt(0, *(np.ones(3) / np.sqrt(3)))
        assert residual_tangle_rows(w)[0] <= 1e-12
        for _ in range(100):
            amps = haar_state(rng, 4)
            assert oracle_residual_tangle_lambda(zrt(*amps)) <= 1e-9

    @pytest.mark.parametrize(
        "amps,expected",
        [((1, 0, 0), 0.0), ((0, INV_SQRT2, INV_SQRT2), 1.0), (tuple(np.ones(3) / np.sqrt(3)), 4 / 9)],
    )
    def test_triple_initial_tangle(self, amps, expected):
        assert report_batch(triple(*amps))["tangle_12"][0] == pytest.approx(expected, abs=1e-9)

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
        # the images of the 8 amplitude basis vectors are the columns of a unitary, each an
        # eigenvector of every qubit's axis Pauli, with sign - where that qubit's bit is 1
        rng = np.random.default_rng(14)
        for _ in range(25):
            axes = np.array([reference_axis(rng) for _ in range(3)])
            b = from_axis_basis(np.eye(8), np.broadcast_to(axes, (8, 3, 3))).T
            assert np.max(np.abs(b.conj().T @ b - np.eye(8))) <= 1e-12
            for q in range(3):
                signs = 1 - 2 * ((np.arange(8) >> (2 - q)) & 1)
                assert np.max(np.abs(embed(axis_pauli(axes[q]), q + 1) @ b - b * signs)) <= 1e-12
            psi = haar_state(rng)
            back = from_axis_basis(b.conj().T @ psi, axes)
            assert np.max(np.abs(back - psi)) <= 1e-12

    def test_probe_components(self):
        # a qubit state's components (c, d) in an axis eigenbasis, as the triple suites take them
        basis = axis_eigenbases(np.array([X]))[0]
        c, d = basis.conj().T @ np.array([1.0, 0.0])
        assert c == pytest.approx(INV_SQRT2)
        assert d == pytest.approx(INV_SQRT2)
        c, d = basis.conj().T @ axis_eigenbasis(X)[0]
        assert c == pytest.approx(1.0)
        assert abs(d) <= 1e-15


def test_pure_marginal_tangle_shortcut():
    # for product-with-probe states the 1,2 marginal is pure and the tangle
    # reduces to 4|a00 a11 - a01 a10|^2
    rng = np.random.default_rng(27)
    for _ in range(50):
        chi = haar_state(rng, 4)
        psi = np.kron(chi, haar_state(rng, 2))
        assert abs(report_batch(psi)["tangle_12"][0] - oracle_tangle_pure2(chi)) <= 1e-10
