"""Independent reference implementations used as test oracles.

Deliberately different code paths from the package, which measures only pure
three-qubit states through one route per measure: Pade-approximant matrix
exponentials (scipy) instead of spectral ones, einsum reductions, a
branch-cross-matrix concurrence for marginals of pure states, the plain
nonsymmetric-eigenvalue Wootters route for mixed two-qubit states, and two
residual-tangle routes (Wootters lambdas, CKW subtraction) built from the
cross matrix instead of the package's amplitude polynomials.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
YY = np.kron(SY, SY).real


def oracle_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) by scipy's Pade approximant."""
    return expm(-1j * np.asarray(h, dtype=complex) * t)


def oracle_evolve(h: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    return oracle_unitary(h, t) @ psi0


def oracle_rho12(psi: np.ndarray) -> np.ndarray:
    m = np.asarray(psi, dtype=complex).reshape(4, 2)
    return np.einsum("ak,bk->ab", m, m.conj())


def oracle_ptrace(m: np.ndarray, which: int) -> np.ndarray:
    t = np.asarray(m, dtype=complex).reshape(2, 2, 2, 2, 2, 2)
    if which == 1:
        return np.einsum("iabicd->abcd", t).reshape(4, 4)
    if which == 2:
        return np.einsum("aibcid->abcd", t).reshape(4, 4)
    return np.einsum("abicdi->abcd", t).reshape(4, 4)


def oracle_concurrence_mixed(rho: np.ndarray) -> float:
    """Plain Wootters route: eigenvalues of rho * rho_tilde, no stabilization.

    Accurate to ~1e-8 near structural zeros (square-root amplification); use
    oracle_concurrence_pure3 when 1e-9 precision is needed.
    """
    r = rho @ YY @ rho.conj() @ YY
    ev = np.sort(np.real(np.linalg.eigvals(r)))[::-1]
    lam = np.sqrt(np.clip(ev, 0.0, None))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def _oracle_cross(psi: np.ndarray, traced_qubit: int) -> np.ndarray:
    """Cross matrix tau_jk = phi_j^T (sigma_y x sigma_y) phi_k of psi = sum_j phi_j (x) |j>_traced."""
    t = np.asarray(psi, dtype=complex).reshape(2, 2, 2)
    t = np.moveaxis(t, traced_qubit - 1, -1)
    phis = [t[..., j].reshape(4) for j in range(2)]
    return np.array([[phis[j] @ YY @ phis[k] for k in range(2)] for j in range(2)])


def oracle_concurrence_pure3(psi: np.ndarray, traced_qubit: int) -> float:
    """Wootters concurrence of a two-qubit marginal of a pure three-qubit state.

    The singular values of the 2x2 cross matrix are the Wootters lambdas of
    the rank-2 marginal. Exact structural zeros, no square-root noise.
    """
    sv = np.linalg.svd(_oracle_cross(psi, traced_qubit), compute_uv=False)
    return max(0.0, float(sv[0] - sv[1]))


def oracle_residual_tangle_lambda(psi: np.ndarray) -> float:
    """2 (lambda1 lambda2 of rho_12 + lambda1 lambda2 of rho_13) = 2 (|det tau_12| + |det tau_13|)."""
    return float(2.0 * sum(abs(np.linalg.det(_oracle_cross(psi, k))) for k in (3, 2)))


def oracle_residual_tangle_ckw(psi: np.ndarray) -> float:
    """4 det(rho_1) - C_12^2 - C_13^2 (Coffman, Kundu and Wootters)."""
    m = np.asarray(psi, dtype=complex).reshape(2, 4)
    rho1 = m @ m.conj().T
    return float(4.0 * np.linalg.det(rho1).real - sum(oracle_concurrence_pure3(psi, k) ** 2 for k in (3, 2)))


def oracle_tangle12_pure3(psi: np.ndarray) -> float:
    return oracle_concurrence_pure3(psi, 3) ** 2


def oracle_tangle_pure2(v: np.ndarray) -> float:
    """4 |a00 a11 - a01 a10|^2 for a pure two-qubit state."""
    v = np.asarray(v, dtype=complex).reshape(4)
    return float(4.0 * abs(v[0] * v[3] - v[1] * v[2]) ** 2)


def oracle_binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def haar_state(rng, dim: int = 8) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
