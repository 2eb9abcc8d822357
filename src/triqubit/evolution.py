"""Spectral unitary evolution, Kraus pairs and probe measurement with
post-selection.

Every evolution goes through one spectral core: a plan's ``(w, V)`` with
``h_total = V diag(w) V†`` and psi(t) = V exp(-i w t) V† psi0, evaluated for a
whole time grid at once. The plan picks the source of its spectrum. When the
two pair Hamiltonians commute, the canonical form gives it in closed form: the
total Hamiltonian is block diagonal over the probe-axis eigenprojectors, and
within each block the body qubits see plain axis rotations, so no eigensolver
is needed. Otherwise it comes from ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import (
    CommutingForm,
    NotCommutingError,
    NotRankOneError,
    PauliPairHamiltonian,
    canonical_commuting_form,
    commutator_norm,
)
from .linalg import I2, axis_sigma, frob, kron  # noqa: F401 (bench/selftest.py reads kron here)
from .states import axis_eigenbasis
from .tolerances import DEGENERATE_OUTCOME_PROB, STRUCTURAL_TOL

_SIGNS = np.array([1.0, -1.0])


class NonFactorizedInitialStateError(ValueError):
    """The state does not factorize as (qubits 1,2) x (qubit 3)."""


@dataclass(frozen=True)
class CommutingFastpath:
    """Closed-form evolution data for a commuting pair: both canonical forms."""

    form13: CommutingForm
    form23: CommutingForm

    @property
    def probe_axis(self):
        return self.form13.probe_axis

    @property
    def strengths(self) -> tuple[float, float]:
        return self.form13.coupling_strength, self.form23.coupling_strength

    @property
    def body_axes(self):
        return self.form13.coupling_axis_self, self.form23.coupling_axis_self

    def sector_vectors(self) -> np.ndarray:
        """Rotation vectors, shape (2, 2, 3): [probe sector m = +1, -1][body qubit 1, 2].

        In the sector with probe eigenvalue m, body qubit k rotates about
        m * (coupling strength) * (coupling axis) + (local strength) * (local axis).
        """
        forms = (self.form13, self.form23)
        coupling = np.array([f.coupling_strength * np.asarray(f.coupling_axis_self) for f in forms])
        local = np.array([f.local_self_strength * np.asarray(f.local_self_axis) for f in forms])
        return _SIGNS[:, None, None] * coupling + local

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form ``(w, V)`` of the full commuting Hamiltonian.

        In probe sector m, qubit k's eigenbasis is the axis eigenbasis of its
        rotation vector, with energies +-|vector| (any basis when the vector
        is zero); the probe-local term adds m * (probe-local strength).
        Column (m, a, b) of V is e1_a(m) x e2_b(m) x p_m.
        """
        vecs = self.sector_vectors()
        norms = np.linalg.norm(vecs, axis=-1)
        body = np.empty((2, 2, 2, 2), dtype=complex)  # [sector, body qubit, component, +-]
        for m in range(2):
            for k in range(2):
                if norms[m, k] == 0.0:
                    body[m, k] = I2
                else:
                    body[m, k, :, 0], body[m, k, :, 1] = axis_eigenbasis(vecs[m, k])
        probe = np.array(axis_eigenbasis(self.probe_axis))  # [sector, component]
        v = np.einsum("mia,mjb,mk->ijkmab", body[:, 0], body[:, 1], probe).reshape(8, 8)
        probe_local = self.form13.local_probe_strength + self.form23.local_probe_strength
        w = (
            _SIGNS[None, :, None] * norms[:, 0, None, None]
            + _SIGNS[None, None, :] * norms[:, 1, None, None]
            + _SIGNS[:, None, None] * probe_local
        )
        return w.reshape(8), v


@dataclass
class EvolutionPlan:
    """Total Hamiltonian with its spectral data and optional commuting fast path."""

    h13: PauliPairHamiltonian
    h23: PauliPairHamiltonian
    h_total: np.ndarray
    fastpath: CommutingFastpath | None
    commutator_norm: float
    fastpath_error: str | None = None
    _spectrum: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def commuting(self) -> bool:
        return self.fastpath is not None

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``(w, V)`` with ``h_total = V diag(w) V†``, computed once per plan.

        The closed form of the commuting fast path when there is one, ``eigh``
        otherwise.
        """
        if self._spectrum is None:
            self._spectrum = self.fastpath.spectrum() if self.commuting else np.linalg.eigh(self.h_total)
        return self._spectrum

    def unitary(self, t: float) -> np.ndarray:
        w, v = self.spectrum()
        return (v * np.exp(-1j * w * t)) @ v.conj().T


def make_plan(h13: PauliPairHamiltonian, h23: PauliPairHamiltonian) -> EvolutionPlan:
    """Build an evolution plan, attaching the fast path when the pair commutes."""
    h_total = h13.to_matrix() + h23.to_matrix()
    fastpath, fastpath_error = None, None
    try:
        form13, form23 = canonical_commuting_form(h13, h23)
        fastpath = CommutingFastpath(form13, form23)
    except (NotCommutingError, NotRankOneError) as exc:
        fastpath_error = str(exc)
    return EvolutionPlan(
        h13=h13,
        h23=h23,
        h_total=h_total,
        fastpath=fastpath,
        commutator_norm=commutator_norm(h13, h23),
        fastpath_error=fastpath_error,
    )


def evolve_grid(plan: EvolutionPlan, psi0, times) -> np.ndarray:
    """Evolve one state to every time of a grid at once: (exp(-i t (x) w) * (V† psi0)) @ V^T, shape (T, 8)."""
    w, v = plan.spectrum()
    psi0 = np.asarray(psi0, dtype=complex).reshape(8)
    times = np.asarray(times, dtype=float).reshape(-1)
    return (np.exp(-1j * np.multiply.outer(times, w)) * (v.conj().T @ psi0)) @ v.T


def evolve(plan: EvolutionPlan, psi0, t: float) -> np.ndarray:
    """Evolve to one time: the one-point grid."""
    return evolve_grid(plan, psi0, (t,))[0]


def _axis_rotation(vec: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t vec.sigma) in closed form."""
    n = frob(vec)
    if n == 0.0 or t == 0.0:
        return I2.copy()
    return np.cos(n * t) * I2 - 1j * np.sin(n * t) * axis_sigma(vec)


def factor_probe(psi) -> tuple[np.ndarray, np.ndarray]:
    """Split a state as |chi>_12 x |phi>_3, or raise NonFactorizedInitialStateError."""
    psi = np.asarray(psi, dtype=complex).reshape(8)
    m = psi.reshape(4, 2)
    u, s, vh = np.linalg.svd(m)
    if s[1] > 1e-10 * max(s[0], 1e-300):
        raise NonFactorizedInitialStateError(
            f"qubits 1,2 are entangled with qubit 3 (second Schmidt coefficient {s[1]:.3e})"
        )
    return u[:, 0] * s[0], vh[0, :].copy()


@dataclass(frozen=True)
class KrausPair:
    """Conditional evolution operators of qubits 1,2 for the two probe outcomes."""

    a_plus: np.ndarray
    a_minus: np.ndarray

    def apply(self, rho12: np.ndarray) -> np.ndarray:
        return sum(a @ rho12 @ a.conj().T for a in (self.a_plus, self.a_minus))

    def completeness_defect(self) -> float:
        s = sum(a.conj().T @ a for a in (self.a_plus, self.a_minus))
        return float(np.max(np.abs(s - np.eye(4))))


def kraus_pair(plan: EvolutionPlan, probe_state, t: float, basis=None) -> KrausPair:
    """Kraus operators A_k = <b_k| U(t) |phi>_3 for an initial probe state |phi>.

    Valid whenever the initial state factorizes as |chi>_12 x |phi>_3; then
    rho_12(t) = sum_k A_k |chi><chi| A_k† for every |chi>. ``basis`` defaults
    to the probe-axis eigenbasis of the commuting fast path and must be given
    explicitly for noncommuting plans.
    """
    probe_state = np.asarray(probe_state, dtype=complex).reshape(2)
    if abs(float(np.vdot(probe_state, probe_state).real) - 1.0) > STRUCTURAL_TOL:
        raise ValueError("probe state must be normalized")
    if basis is None:
        if plan.fastpath is None:
            raise ValueError("a measurement basis is required for noncommuting plans")
        basis = axis_eigenbasis(plan.fastpath.probe_axis)
    b_plus, b_minus = (np.asarray(b, dtype=complex).reshape(2) for b in basis)
    u = plan.unitary(t).reshape(4, 2, 4, 2)
    a_plus = np.einsum("i,aibj,j->ab", b_plus.conj(), u, probe_state)
    a_minus = np.einsum("i,aibj,j->ab", b_minus.conj(), u, probe_state)
    return KrausPair(a_plus=a_plus, a_minus=a_minus)


@dataclass(frozen=True)
class MeasurementOutcome:
    """One projective outcome on qubit 3: label, Born probability, conditional state.

    ``state`` is the normalized conditional pure state of qubits 1,2 and
    ``tangle`` its tangle 4|a00 a11 - a01 a10|^2; both are None when the
    probability is below the degenerate-outcome threshold.
    """

    label: str
    probability: float
    state: np.ndarray | None
    tangle: float | None

    @property
    def degenerate(self) -> bool:
        return self.state is None


def measure_probe_grid(psis, basis, labels=("plus", "minus")) -> list[list[MeasurementOutcome]]:
    """Projective measurement of qubit 3 in an orthonormal basis pair, for every row of ``psis``."""
    b = np.array([np.asarray(vec, dtype=complex).reshape(2) for vec in basis])
    if np.max(np.abs(b.conj() @ b.T - np.eye(2))) > STRUCTURAL_TOL:
        raise ValueError("measurement basis must be orthonormal")
    branches = np.asarray(psis, dtype=complex).reshape(-1, 4, 2) @ b.conj().T  # [row, pair amplitude, outcome]
    probs = np.einsum("tak,tak->tk", branches, branches.conj()).real
    present = probs >= DEGENERATE_OUTCOME_PROB
    states = branches / np.sqrt(np.where(present, probs, 1.0))[:, None, :]
    det = states[:, 0] * states[:, 3] - states[:, 1] * states[:, 2]
    tangles = 4.0 * (det.real**2 + det.imag**2)
    rows = []
    for row_states, row_probs, row_present, row_tangles in zip(
        states.transpose(0, 2, 1), probs.tolist(), present.tolist(), tangles.tolist()
    ):
        rows.append(
            [
                MeasurementOutcome(label, p, state if ok else None, tau if ok else None)
                for label, state, p, ok, tau in zip(labels, row_states, row_probs, row_present, row_tangles)
            ]
        )
    return rows


def measure_probe(psi, basis, labels=("plus", "minus")) -> list[MeasurementOutcome]:
    """Projective measurement of qubit 3 in an orthonormal basis pair: the one-row grid."""
    return measure_probe_grid(np.asarray(psi, dtype=complex).reshape(1, 8), basis, labels)[0]


def v_operators(cf: CommutingForm, rotation, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Branch unitaries V_± = exp(∓i strength t sigma_axis) R for one canonical form."""
    r = rotation.matrix()
    vec = cf.coupling_strength * np.asarray(cf.coupling_axis_self)
    return _axis_rotation(vec, t) @ r, _axis_rotation(-vec, t) @ r
