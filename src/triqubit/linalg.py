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


def directions(x) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean lengths and unit rows along the last axis: ``(lengths, units)``.

    Each row is divided by its largest |component| before the sum of squares,
    which then neither overflows for components past ~1e154 nor vanishes below
    ~1e-162. A zero row has length 0 and points along the last axis (+z for
    3-vectors). Complex rows sum |component|^2.
    """
    x = np.asarray(x)
    top = np.abs(x).max(axis=-1)
    zero = top == 0.0
    last = np.arange(x.shape[-1]) == x.shape[-1] - 1
    scaled = x / (top + zero)[..., None] + (zero[..., None] & last)
    size = np.sqrt(np.vecdot(scaled, scaled).real)
    return top * size, scaled / size[..., None]


def embed_single(op2: np.ndarray, qubit: int) -> np.ndarray:
    """Embed a one-qubit operator on qubit 1, 2 or 3 of the 8-dimensional space."""
    if qubit not in (1, 2, 3):
        raise ValueError(f"qubit index must be 1, 2 or 3, got {qubit}")
    ops = [I2, I2, I2]
    ops[qubit - 1] = np.asarray(op2, dtype=complex)
    return kron(*ops)

