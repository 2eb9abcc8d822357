"""Entanglement measures of pure three-qubit states: the 1,2 concurrence and
tangle, entanglement of formation, purity of rho_12 and the residual
three-way tangle.

``report_batch`` measures a whole (T, 8) array of states at once. The 1,2
concurrence comes from the 2x2 cross matrix phi_j^T (sigma_y x sigma_y) phi_k
of the branches psi = sum_j phi_j x |j>_3 (Wootters, PRL 80, 2245, 1998),
exact at structural zeros. The residual tangle comes from the degree-4
amplitude polynomials (Coffman, Kundu and Wootters, PRA 61, 052306, 2000). Independent routes for both live in the
test oracles, not here.
"""

from __future__ import annotations

import numpy as np

from .linalg import SY, kron
from .tolerances import PHYSICS_TOL

_YY = kron(SY, SY).real  # real symmetric


def _eof(tau: np.ndarray) -> np.ndarray:
    """Entanglement of formation h(1/2 + 1/2 sqrt(1 - tau)) in ebits, h the binary entropy (0 at x = 1)."""
    out_of_range = tau[(tau < -PHYSICS_TOL) | (tau > 1.0 + PHYSICS_TOL)]
    if out_of_range.size:
        raise ValueError(f"tangle out of range [0, 1]: {float(out_of_range[0])!r}")
    x = 0.5 + 0.5 * np.sqrt(1.0 - np.minimum(np.maximum(tau, 0.0), 1.0))
    inside = x < 1.0
    xi = np.where(inside, x, 0.5)
    return np.where(inside, -xi * np.log2(xi) - (1.0 - xi) * np.log2(1.0 - xi), 0.0)


def residual_tangle_rows(psis) -> np.ndarray:
    """Residual tangle of each pure three-qubit state in ``psis``, shape (T,)."""
    a = np.asarray(psis, dtype=complex).reshape(-1, 2, 2, 2)
    d1 = (
        a[:, 0, 0, 0] ** 2 * a[:, 1, 1, 1] ** 2
        + a[:, 0, 0, 1] ** 2 * a[:, 1, 1, 0] ** 2
        + a[:, 0, 1, 0] ** 2 * a[:, 1, 0, 1] ** 2
        + a[:, 1, 0, 0] ** 2 * a[:, 0, 1, 1] ** 2
    )
    d2 = (
        a[:, 0, 0, 0] * a[:, 1, 1, 1] * a[:, 0, 1, 1] * a[:, 1, 0, 0]
        + a[:, 0, 0, 0] * a[:, 1, 1, 1] * a[:, 1, 0, 1] * a[:, 0, 1, 0]
        + a[:, 0, 0, 0] * a[:, 1, 1, 1] * a[:, 1, 1, 0] * a[:, 0, 0, 1]
        + a[:, 0, 1, 1] * a[:, 1, 0, 0] * a[:, 1, 0, 1] * a[:, 0, 1, 0]
        + a[:, 0, 1, 1] * a[:, 1, 0, 0] * a[:, 1, 1, 0] * a[:, 0, 0, 1]
        + a[:, 1, 0, 1] * a[:, 0, 1, 0] * a[:, 1, 1, 0] * a[:, 0, 0, 1]
    )
    d3 = (
        a[:, 0, 0, 0] * a[:, 1, 1, 0] * a[:, 1, 0, 1] * a[:, 0, 1, 1]
        + a[:, 1, 1, 1] * a[:, 0, 0, 1] * a[:, 0, 1, 0] * a[:, 1, 0, 0]
    )
    return 4.0 * np.abs(d1 - 2.0 * d2 + 4.0 * d3)


REPORT_FIELDS = ("tangle_12", "concurrence_12", "eof_12", "residual_tangle", "purity_12")


def _branches(psis) -> np.ndarray:
    """Rows of ``psis`` as (T, 4, 2) branch matrices: column j is phi_j, the 1,2 part at qubit 3 = j."""
    return np.asarray(psis, dtype=complex).reshape(-1, 4, 2)


def concurrence_12(psis) -> np.ndarray:
    """1,2 concurrence of each pure three-qubit state in ``psis``, shape (T,).

    For psi = sum_j phi_j x |j>_3, rho_12 = sum_j phi_j phi_j†, and the
    concurrence is s1 - s2 of the 2x2 cross matrix phi_j^T (sigma_y x sigma_y)
    phi_k. A product pair gives an exactly zero cross matrix.
    """
    m = _branches(psis)
    cross = m.transpose(0, 2, 1) @ (_YY @ m)
    s = np.linalg.svd(cross, compute_uv=False)
    return s[:, 0] - s[:, 1]


def report_batch(psis) -> dict[str, np.ndarray]:
    """Every ``REPORT_FIELDS`` measure of each normalized pure state in ``psis``, as (T,) arrays."""
    m = _branches(psis)
    dev = np.abs(np.einsum("tak,tak->t", m, m.conj()).real - 1.0)
    if not np.all(dev <= 1e-10):
        worst = float(np.max(np.where(np.isnan(dev), np.inf, dev)))
        raise ValueError(f"state must be normalized: |norm^2 - 1| = {worst:.3e}")
    c = concurrence_12(m)
    tau = c * c
    gram = m.conj().transpose(0, 2, 1) @ m  # tr(rho_12^2) = |gram|_F^2
    return {
        "tangle_12": tau,
        "concurrence_12": c,
        "eof_12": _eof(tau),
        "residual_tangle": residual_tangle_rows(m),
        "purity_12": np.einsum("tij,tij->t", gram, gram.conj()).real,
    }

