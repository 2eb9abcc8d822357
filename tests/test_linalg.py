import numpy as np
import pytest

from triqubit.linalg import (
    I2,
    SX,
    SY,
    SZ,
    axis_sigma,
    commutator,
    kron,
    partial_trace_qubit,
)

from oracles import oracle_ptrace


def test_kron_identities():
    assert np.allclose(kron(I2, I2), np.eye(4))
    assert np.allclose(kron(SZ, SZ), np.diag([1, -1, -1, 1]))


def test_kron_sx_sy_entry():
    # hand expansion of the 2x2 blocks: top-right block is 1 * sigma_y
    m = kron(SX, SY)
    assert m[0, 3] == -1j
    assert m[1, 2] == 1j
    assert np.allclose(m[:2, :2], 0)


def test_kron_associativity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) <= 1e-12


def test_partial_trace_product_state():
    e000 = np.zeros(8, dtype=complex)
    e000[0] = 1
    rho = np.outer(e000, e000.conj())
    out = partial_trace_qubit(rho, 3)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1
    assert np.allclose(out, expected, atol=1e-14)


def test_partial_trace_ghz():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    out = partial_trace_qubit(np.outer(ghz, ghz.conj()), 3)
    assert np.allclose(out, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)


@pytest.mark.parametrize("which", [1, 2, 3])
def test_partial_trace_preserves_trace_and_matches_oracle(which):
    rng = np.random.default_rng(23 + which)
    for _ in range(20):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        out = partial_trace_qubit(rho, which)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.max(np.abs(out - oracle_ptrace(rho, which))) <= 1e-12


def test_partial_trace_of_kron_is_weighted_factor():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    out = partial_trace_qubit(kron(a, b), 3)
    assert np.max(np.abs(out - a * np.trace(b))) <= 1e-12


def test_partial_trace_rejects_bad_inputs():
    with pytest.raises(ValueError):
        partial_trace_qubit(np.eye(4), 3)
    with pytest.raises(ValueError):
        partial_trace_qubit(np.eye(8), 0)


def test_axis_sigma_rejects_zero_axis():
    with pytest.raises(ValueError):
        axis_sigma((0, 0, 0))


def test_pauli_commutators():
    assert np.allclose(commutator(SX, SY), 2j * SZ)
    assert np.allclose(commutator(SY, SZ), 2j * SX)
    assert np.allclose(commutator(SZ, SX), 2j * SY)
