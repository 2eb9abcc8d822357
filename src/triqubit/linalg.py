"""Dense complex linear algebra for 2-, 4- and 8-dimensional Hilbert spaces.

Index convention used throughout the package: a three-qubit basis index is
b = 4*b1 + 2*b2 + b3, i.e. qubit 1 is the most significant bit. Tensor
products are therefore built left to right, ``kron(op1, op2, op3)``.
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)


def kron(*ops) -> np.ndarray:
    """Kronecker product of two or more operators (or vectors), left factor most significant."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def frob(m: np.ndarray) -> float:
    """Frobenius norm, summed at the scale of the largest entry.

    The plain sum of squares overflows once entries pass ~1e154, although the
    norm itself is representable.
    """
    m = np.asarray(m).ravel()
    top = float(np.abs(m).max())
    if not 0.0 < top < math.inf:
        return top
    x = m / top
    return top * math.sqrt(np.vdot(x, x).real)


def unit_axis(axis) -> np.ndarray:
    """``axis / |axis|``, scaled by the largest component first.

    Like ``frob``, this keeps the sum of squares in range for finite
    components past ~1e154.
    """
    axis = np.asarray(axis, dtype=float)
    top = float(np.abs(axis).max())
    if top == 0.0:
        raise ValueError("zero axis has no direction")
    axis = axis / top
    return axis / np.linalg.norm(axis)


def axis_sigma(axis) -> np.ndarray:
    """Pauli operator along a Bloch axis: n . (sx, sy, sz), with n normalized."""
    x, y, z = unit_axis(axis)
    return x * SX + y * SY + z * SZ


def embed_single(op2: np.ndarray, qubit: int) -> np.ndarray:
    """Embed a one-qubit operator on qubit 1, 2 or 3 of the 8-dimensional space."""
    if qubit not in (1, 2, 3):
        raise ValueError(f"qubit index must be 1, 2 or 3, got {qubit}")
    ops = [I2, I2, I2]
    ops[qubit - 1] = np.asarray(op2, dtype=complex)
    return kron(*ops)

