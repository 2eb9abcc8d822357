"""Entanglement measures of pure three-qubit states: the 1,2 concurrence and
tangle, entanglement of formation, purity of rho_12 and the residual
three-way tangle.

``report_batch`` measures a whole (T, 8) array of states at once, with
elementwise operations on the amplitudes only. Write psi = sum_j phi_j x |j>_3
with branches p = phi_0 and q = phi_1. The 1,2 concurrence is s1 - s2 of the
symmetric cross matrix phi_j^T (sigma_y x sigma_y) phi_k = [[a, b], [b, d]]
(Wootters, PRL 80, 2245, 1998), taken in closed form as
(s1^2 - s2^2) / (s1 + s2): the eigenvalue gap of its Gram matrix is a sum of
squares, so nothing cancels as the concurrence goes to 0 and structural zeros
come out exact. Purity and norm come from the 2x2 Gram matrix of p and q. The
residual tangle comes from the degree-4 amplitude polynomials (Coffman, Kundu
and Wootters, PRA 61, 052306, 2000). Independent routes for both live in the
test oracles, not here.
"""

from __future__ import annotations

import numpy as np

from .tolerances import PHYSICS_TOL


def _eof(tau: np.ndarray) -> np.ndarray:
    """Entanglement of formation h(1/2 + 1/2 sqrt(1 - tau)) in ebits, h the binary entropy (0 at x = 1)."""
    out_of_range = tau[(tau < -PHYSICS_TOL) | (tau > 1.0 + PHYSICS_TOL)]
    if out_of_range.size:
        raise ValueError(f"tangle out of range [0, 1]: {float(out_of_range[0])!r}")
    x = 0.5 + 0.5 * np.sqrt(1.0 - np.minimum(np.maximum(tau, 0.0), 1.0))
    at_one = x == 1.0  # x <= 1, and a NaN tangle gives x = NaN, which stays NaN
    xi = np.where(at_one, 0.5, x)
    return np.where(at_one, 0.0, -xi * np.log2(xi) - (1.0 - xi) * np.log2(1.0 - xi))


def _amplitudes(psis) -> np.ndarray:
    """Rows of ``psis`` as an (8, T) view: row b = 4 b1 + 2 b2 + b3 holds that amplitude of every state."""
    return np.asarray(psis, dtype=complex).reshape(-1, 8).T


def _abs2(z) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def residual_tangle_rows(psis) -> np.ndarray:
    """Residual tangle of each pure three-qubit state in ``psis``, shape (T,)."""
    a000, a001, a010, a011, a100, a101, a110, a111 = _amplitudes(psis)
    d1 = a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a100**2 * a011**2
    d2 = (
        a000 * a111 * a011 * a100
        + a000 * a111 * a101 * a010
        + a000 * a111 * a110 * a001
        + a011 * a100 * a101 * a010
        + a011 * a100 * a110 * a001
        + a101 * a010 * a110 * a001
    )
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return 4.0 * np.abs(d1 - 2.0 * d2 + 4.0 * d3)


def concurrence_12(psis) -> np.ndarray:
    """1,2 concurrence of each pure three-qubit state in ``psis``, shape (T,).

    For psi = sum_j phi_j x |j>_3, rho_12 = sum_j phi_j phi_j†, and the
    concurrence is s1 - s2 of the symmetric 2x2 cross matrix
    phi_j^T (sigma_y x sigma_y) phi_k = [[a, b], [b, d]] of the branches
    p = phi_0 and q = phi_1. It is 0 where that matrix is 0 (a product pair
    gives an exactly zero one) and NaN for a row with a non-finite amplitude.
    """
    p0, q0, p1, q1, p2, q2, p3, q3 = _amplitudes(psis)
    a = 2.0 * (p1 * p2 - p0 * p3)
    d = 2.0 * (q1 * q2 - q0 * q3)
    b = p1 * q2 + p2 * q1 - p0 * q3 - p3 * q0
    aa, bb, dd = _abs2(a), _abs2(b), _abs2(d)
    gap = np.sqrt((aa - dd) ** 2 + 4.0 * _abs2(a.conj() * b + b.conj() * d))  # s1^2 - s2^2
    total = np.sqrt(aa + 2.0 * bb + dd + 2.0 * np.abs(a * d - b * b))  # s1 + s2
    return gap / np.where(total == 0.0, 1.0, total)  # a NaN total stays NaN


REPORT_FIELDS = ("tangle_12", "concurrence_12", "eof_12", "residual_tangle", "purity_12")


def report_batch(psis) -> dict[str, np.ndarray]:
    """Every ``REPORT_FIELDS`` measure of each normalized pure state in ``psis``, as (T,) arrays."""
    psis = np.asarray(psis, dtype=complex).reshape(-1, 8)
    p, q = psis[:, 0::2].T, psis[:, 1::2].T  # the branches at qubit 3 = 0 and 1, each (4, T)
    g00, g11 = _abs2(p).sum(axis=0), _abs2(q).sum(axis=0)  # Gram matrix of the branches
    dev = np.abs(g00 + g11 - 1.0)
    if not np.all(dev <= 1e-10):
        worst = float(np.max(np.where(np.isnan(dev), np.inf, dev)))
        raise ValueError(f"state must be normalized: |norm^2 - 1| = {worst:.3e}")
    c = concurrence_12(psis)
    tau = c * c
    return {
        "tangle_12": tau,
        "concurrence_12": c,
        "eof_12": _eof(tau),
        "residual_tangle": residual_tangle_rows(psis),
        "purity_12": g00 * g00 + g11 * g11 + 2.0 * _abs2((p.conj() * q).sum(axis=0)),  # tr(rho_12^2)
    }
