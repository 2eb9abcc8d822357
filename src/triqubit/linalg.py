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


def norms(x) -> np.ndarray:
    """Euclidean norm along the last axis, summed at the scale of each row's largest entry.

    The plain sum of squares overflows once entries pass ~1e154 and vanishes
    below ~1e-162, although the norm itself is representable. Each row is
    divided by the power of two at or below its largest |entry|, which is
    exact, so in that range the result is the plain sqrt of the sum of
    squares bit for bit. A row whose largest entry is 0, infinite or NaN gives
    that entry.
    """
    x = np.asarray(x)
    top = np.abs(x).max(axis=-1)
    finite = (top > 0.0) & (top < math.inf)
    scale = np.ldexp(0.5, np.frexp(np.where(finite, top, 1.0))[1])
    y = np.where(finite[..., None], x / scale[..., None], 0.0)
    return np.where(finite, scale * np.sqrt(np.vecdot(y, y).real), top)


def frob(m) -> float:
    """Frobenius norm, summed at the scale of the largest entry (see ``norms``)."""
    return float(norms(np.ravel(m)))


def unit_axis(axis) -> np.ndarray:
    """``axis / |axis|`` along the last axis, each row scaled by its largest component first.

    Like ``norms``, this keeps the sum of squares in range for finite
    components past ~1e154 and below ~1e-162.
    """
    axis = np.asarray(axis, dtype=float)
    top = np.abs(axis).max(axis=-1, keepdims=True)
    if not top.all():
        raise ValueError("zero axis has no direction")
    axis = axis / top
    return axis / np.sqrt(np.vecdot(axis, axis))[..., None]


def embed_single(op2: np.ndarray, qubit: int) -> np.ndarray:
    """Embed a one-qubit operator on qubit 1, 2 or 3 of the 8-dimensional space."""
    if qubit not in (1, 2, 3):
        raise ValueError(f"qubit index must be 1, 2 or 3, got {qubit}")
    ops = [I2, I2, I2]
    ops[qubit - 1] = np.asarray(op2, dtype=complex)
    return kron(*ops)

