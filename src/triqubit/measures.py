"""Entanglement quantifiers: concurrence, tangle, entanglement of formation,
residual three-way tangle (three independent routes) and purity.

Pure three-qubit states go through ``report_batch``, which measures a whole
(T, 8) array of states at once. Their 1,2 concurrence comes from the 2x2
cross matrix phi_j^T (sigma_y x sigma_y) phi_k of the branches psi = sum_j
phi_j x |j>_3 (Wootters, PRL 80, 2245, 1998), exact at structural zeros. The
stabilized Wootters eigen-route (``wootters_lambdas``) is for mixed two-qubit
states.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .linalg import SY, kron, partial_trace_qubit
from .tolerances import PHYSICS_TOL, SPECTRAL_TOL, WOOTTERS_EIGENVALUE_FLOOR

_YY = kron(SY, SY).real  # real symmetric


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """(sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    return _YY @ np.asarray(rho, dtype=complex).conj() @ _YY


def density(psi) -> np.ndarray:
    """Projector onto a pure state vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def _validate_density(rho: np.ndarray, tol: float) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    dev = float(np.max(np.abs(rho - rho.conj().T)))
    if dev > tol:
        raise ValueError(f"density matrix is not Hermitian within {tol:g} (deviation {dev:.3e})")
    return (rho + rho.conj().T) / 2


def wootters_lambdas(rho: np.ndarray, tol: float = SPECTRAL_TOL) -> np.ndarray:
    """Square roots of the eigenvalues of rho * spin_flip(rho), descending.

    Computed through the Hermitian similar form sqrt(rho) * rho_tilde *
    sqrt(rho). Eigenvalues below ``max * WOOTTERS_EIGENVALUE_FLOOR`` are
    zeroed before the square root: structural zeros land at ~1e-17 and the
    square root would otherwise inflate them to ~1e-8.
    """
    rho = _validate_density(rho, tol)
    w, v = np.linalg.eigh(rho)
    if w[0] < -tol:
        raise ValueError(f"density matrix is not positive semidefinite (eigenvalue {w[0]:.3e})")
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    m = sqrt_rho @ spin_flip(rho) @ sqrt_rho
    ev = np.linalg.eigvalsh((m + m.conj().T) / 2)
    if ev.min() < -tol:
        raise ValueError(f"spin-flip product has a significantly negative eigenvalue ({ev.min():.3e})")
    ev = np.clip(ev, 0.0, None)
    if ev.max() > 0.0:
        ev[ev < ev.max() * WOOTTERS_EIGENVALUE_FLOOR] = 0.0
    return np.sqrt(ev)[::-1]


def concurrence(rho: np.ndarray) -> float:
    lam = wootters_lambdas(rho)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def tangle(rho: np.ndarray) -> float:
    """max(0, lambda1 - lambda2 - lambda3 - lambda4)^2."""
    return concurrence(rho) ** 2


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    inside = (x > 0.0) & (x < 1.0)
    xi = np.where(inside, x, 0.5)
    return np.where(inside, -xi * np.log2(xi) - (1.0 - xi) * np.log2(1.0 - xi), 0.0)


def binary_entropy(x: float) -> float:
    """-x log2 x - (1-x) log2(1-x), continuous at the endpoints."""
    return float(_binary_entropy(np.float64(x)))


def _eof(tau: np.ndarray) -> np.ndarray:
    out_of_range = tau[(tau < -PHYSICS_TOL) | (tau > 1.0 + PHYSICS_TOL)]
    if out_of_range.size:
        raise ValueError(f"tangle out of range [0, 1]: {float(out_of_range[0])!r}")
    return _binary_entropy(0.5 + 0.5 * np.sqrt(1.0 - np.clip(tau, 0.0, 1.0)))


def eof_from_tangle(tau: float) -> float:
    """Entanglement of formation h(1/2 + 1/2 sqrt(1 - tau)) in ebits."""
    return float(_eof(np.float64(tau)))


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


def _marginals_of_qubit1(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rho = density(psi)
    return partial_trace_qubit(rho, 3), partial_trace_qubit(rho, 2)


def residual_tangle_lambda(psi) -> float:
    """Residual tangle as 2*(l1*l2 of rho_12 + l1*l2 of rho_13)."""
    psi = np.asarray(psi, dtype=complex).reshape(8)
    rho12, rho13 = _marginals_of_qubit1(psi)
    l12 = wootters_lambdas(rho12)
    l13 = wootters_lambdas(rho13)
    return float(2.0 * (l12[0] * l12[1] + l13[0] * l13[1]))


def _residual_tangle_rows(psis: np.ndarray) -> np.ndarray:
    a = psis.reshape(-1, 2, 2, 2)
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


def residual_tangle_poly(psi) -> float:
    """Residual tangle from the degree-4 amplitude polynomials.

    The three invariants are built from squares of the complex amplitudes
    verbatim; the only modulus is the final one.
    """
    return float(_residual_tangle_rows(np.asarray(psi, dtype=complex).reshape(1, 8))[0])


def residual_tangle_ckw_oracle(psi) -> float:
    """Residual tangle as 4 det(rho_1) - tangle(rho_12) - tangle(rho_13).

    Independent decomposition route, used to cross-validate the other two.
    """
    psi = np.asarray(psi, dtype=complex).reshape(8)
    rho12, rho13 = _marginals_of_qubit1(psi)
    m = psi.reshape(2, 4)
    rho1 = m @ m.conj().T
    return float(4.0 * np.linalg.det(rho1).real - tangle(rho12) - tangle(rho13))


@dataclass(frozen=True)
class EntanglementReport:
    """All measures of one state at one time point."""

    tangle_12: float
    concurrence_12: float
    eof_12: float
    residual_tangle: float
    purity_12: float

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


REPORT_FIELDS = tuple(f.name for f in fields(EntanglementReport))


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
        "residual_tangle": _residual_tangle_rows(m),
        "purity_12": np.einsum("tij,tij->t", gram, gram.conj()).real,
    }


def report(psi) -> EntanglementReport:
    """Full entanglement report for one normalized three-qubit pure state."""
    table = report_batch(np.asarray(psi, dtype=complex).reshape(1, 8))
    return EntanglementReport(**{name: float(values[0]) for name, values in table.items()})
