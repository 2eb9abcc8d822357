import numpy as np
import pytest

from triqubit.linalg import (
    I2,
    SX,
    SY,
    SZ,
    axis_sigma,
    commutator,
    frob,
    kron,
)


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


def test_frob_scales_past_the_range_of_squares():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        for scale in (1.0, 1e200, 1e-200):
            assert frob(m * scale) == pytest.approx(np.linalg.norm(m) * scale, rel=1e-14)
    assert frob(np.zeros((2, 2))) == 0.0


def test_axis_sigma_rejects_zero_axis():
    with pytest.raises(ValueError):
        axis_sigma((0, 0, 0))


def test_pauli_commutators():
    assert np.allclose(commutator(SX, SY), 2j * SZ)
    assert np.allclose(commutator(SY, SZ), 2j * SX)
    assert np.allclose(commutator(SZ, SX), 2j * SY)
