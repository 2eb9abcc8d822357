import numpy as np
import pytest

from triqubit.linalg import (
    I2,
    SX,
    SY,
    SZ,
    directions,
    kron,
)

from oracles import commutator


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


def test_directions_scale_past_the_range_of_squares():
    # complex rows, whose plain sum of squares overflows at 1e200 and vanishes at 1e-200
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        for scale in (1.0, 1e200, 1e-200):
            length, unit = directions(np.ravel(m * scale))
            assert float(length) == pytest.approx(np.linalg.norm(m) * scale, rel=1e-14)
            assert np.max(np.abs(unit - np.ravel(m) / np.linalg.norm(m))) <= 1e-14


def test_directions_of_zero_rows_point_along_the_last_axis():
    lengths, units = directions(np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, 5.0, 0.0]]))
    assert lengths.tolist() == [0.0, 0.0, 5.0]
    assert units.tobytes() == np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]).tobytes()
    length, unit = directions(np.zeros(15))
    assert length == 0.0 and unit.tobytes() == np.eye(15)[-1].tobytes()


def test_directions_of_signed_zeros_and_extreme_rows():
    # a signed-zero component comes out +0.0; at 1e+-200 the length is the scaled 3-4-5 one
    rows = np.array([[-0.0, 3.0, -4.0], [3e200, -0.0, 4e200], [-3e-200, 4e-200, 0.0]])
    lengths, units = directions(rows)
    assert lengths == pytest.approx([5.0, 5e200, 5e-200], rel=1e-15)
    assert np.max(np.abs(units - [[0.0, 0.6, -0.8], [0.6, 0.0, 0.8], [-0.6, 0.8, 0.0]])) <= 1e-15
    assert units[0].tolist() == [0.0, 0.6, -0.8]
    assert not np.signbit(units[[0, 1, 2], [0, 1, 2]]).any()


def test_directions_equal_the_top_scaled_arithmetic_bitwise():
    # lengths top * |x / top| and units (x / top) / |x / top|, term for term
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-150.0, 150.0, (2000, 1))
    top = np.abs(x).max(axis=-1)
    scaled = x / top[:, None]
    size = np.sqrt(np.vecdot(scaled, scaled))
    lengths, units = directions(x)
    assert lengths.tobytes() == (top * size).tobytes()
    assert units.tobytes() == (scaled / size[:, None]).tobytes()


def test_pauli_commutators():
    assert np.allclose(commutator(SX, SY), 2j * SZ)
    assert np.allclose(commutator(SY, SZ), 2j * SX)
    assert np.allclose(commutator(SZ, SX), 2j * SY)
