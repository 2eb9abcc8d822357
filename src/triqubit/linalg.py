"""Dense complex linear algebra for 2-, 4- and 8-dimensional Hilbert spaces.

Index convention used throughout the package: a three-qubit basis index is
b = 4*b1 + 2*b2 + b3, i.e. qubit 1 is the most significant bit. Tensor
products are therefore built left to right, ``kron(op1, op2, op3)``.
"""

from __future__ import annotations

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
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def axis_sigma(axis) -> np.ndarray:
    """Pauli operator along a Bloch axis: n . (sx, sy, sz), with n normalized."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0:
        raise ValueError("zero axis has no Pauli operator")
    x, y, z = axis / n
    return x * SX + y * SY + z * SZ


def embed_single(op2: np.ndarray, qubit: int) -> np.ndarray:
    """Embed a one-qubit operator on qubit 1, 2 or 3 of the 8-dimensional space."""
    if qubit not in (1, 2, 3):
        raise ValueError(f"qubit index must be 1, 2 or 3, got {qubit}")
    ops = [I2, I2, I2]
    ops[qubit - 1] = np.asarray(op2, dtype=complex)
    return kron(*ops)


def partial_trace_qubit(m: np.ndarray, which: int) -> np.ndarray:
    """Trace a three-qubit operator over one qubit; preserves the total trace."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {m.shape}")
    if which not in (1, 2, 3):
        raise ValueError(f"qubit index must be 1, 2 or 3, got {which}")
    k = which - 1
    t = m.reshape(2, 2, 2, 2, 2, 2)
    return np.trace(t, axis1=k, axis2=k + 3).reshape(4, 4)
