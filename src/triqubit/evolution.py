"""Spectral unitary evolution, Kraus pairs and probe measurement with
post-selection.

Every evolution goes through one spectral core: a plan's ``(w, V)`` with
``h_total = V diag(w) V†`` and psi(t) = V exp(-i w t) V† psi0. The plan picks
the source of its spectrum. When the two pair Hamiltonians commute, the
canonical form gives it in closed form: the total Hamiltonian is block
diagonal over the probe-axis eigenprojectors, and within each block the body
qubits see plain axis rotations, so no eigensolver is needed. Otherwise it
comes from ``eigh``.

``make_plan`` builds one plan and ``evolve_grid`` evolves it over a whole time
grid. ``plan_spectra`` builds the stacked spectra of N pairs from one
``canonical_forms`` call (the closed form over (N, 2, 2, 3) sector vectors,
one stacked ``eigh`` for the rest), and ``evolve_rows`` evolves N states, one
time each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import CommutingForm, PauliPairHamiltonian, canonical_forms
from .linalg import I2, axis_sigma, frob, kron  # noqa: F401 (bench/selftest.py reads kron here)
from .states import axis_eigenbasis, axis_eigenbases
from .tolerances import DEGENERATE_OUTCOME_PROB, STRUCTURAL_TOL

_SIGNS = np.array([1.0, -1.0])
_Z_AXIS = np.array([0.0, 0.0, 1.0])


class NonFactorizedInitialStateError(ValueError):
    """The state does not factorize as (qubits 1,2) x (qubit 3)."""


def sector_vectors(strength, body_axis, self_strength, self_axis) -> np.ndarray:
    """Rotation vectors of N commuting pairs, shape (N, 2, 2, 3): [row, probe sector m = +1, -1, body qubit 1, 2].

    The arguments are (N, 2) strengths and (N, 2, 3) axes, [row, pair]. In the
    sector with probe eigenvalue m, body qubit k rotates about
    m * (coupling strength) * (coupling axis) + (local strength) * (local axis).
    """
    coupling = strength[..., None] * body_axis
    local = self_strength[..., None] * self_axis
    return _SIGNS[None, :, None, None] * coupling[:, None] + local[:, None]


def closed_form_spectra(vecs, probe_axis, probe_local) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``(w, V)`` of N commuting Hamiltonians, shapes (N, 8) and (N, 8, 8).

    ``vecs`` are the (N, 2, 2, 3) sector vectors, ``probe_axis`` (N, 3) and
    ``probe_local`` (N,) the summed probe-local strengths. In probe sector m,
    qubit k's eigenbasis is the axis eigenbasis of its rotation vector, with
    energies +-|vector| (the identity when the vector is zero); the
    probe-local term adds m * (probe-local strength). Column (m, a, b) of V is
    e1_a(m) x e2_b(m) x p_m.
    """
    n = len(vecs)
    top = np.abs(vecs).max(axis=-1)
    # squares overflow past ~1.3e154 and vanish below ~1e-154: sum those sectors at their largest component's scale
    far = (top > 1e150) | ((top < 1e-150) & (top > 0.0))
    if far.any():
        top = np.where(far, top, 1.0)
        norms = top * np.linalg.norm(vecs / top[..., None], axis=-1)
    else:
        norms = np.linalg.norm(vecs, axis=-1)
    zero = norms == 0.0
    if zero.any():
        vecs = np.where(zero[..., None], _Z_AXIS, vecs)  # the z eigenbasis is the identity
    bases = axis_eigenbases(np.concatenate([vecs.reshape(n, 4, 3), probe_axis[:, None, :]], axis=1))
    body = bases[:, :4].reshape(n, 2, 2, 2, 2)  # [row, sector, body qubit, component, +-]
    probe = bases[:, 4].transpose(0, 2, 1)  # [row, sector, component]
    v = np.einsum("nmia,nmjb,nmk->nijkmab", body[:, :, 0], body[:, :, 1], probe).reshape(n, 8, 8)
    w = (
        _SIGNS[None, None, :, None] * norms[:, :, 0, None, None]
        + _SIGNS[None, None, None, :] * norms[:, :, 1, None, None]
        + _SIGNS[None, :, None, None] * probe_local[:, None, None, None]
    )
    return w.reshape(n, 8), v


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
        """Rotation vectors, shape (2, 2, 3): the one-row ``sector_vectors``."""
        forms = (self.form13, self.form23)
        return sector_vectors(
            np.array([[f.coupling_strength for f in forms]]),
            np.array([[f.coupling_axis_self for f in forms]]),
            np.array([[f.local_self_strength for f in forms]]),
            np.array([[f.local_self_axis for f in forms]]),
        )[0]

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form ``(w, V)`` of the full commuting Hamiltonian: the one-row ``closed_form_spectra``."""
        probe_local = self.form13.local_probe_strength + self.form23.local_probe_strength
        w, v = closed_form_spectra(self.sector_vectors()[None], np.array([self.probe_axis]), np.array([probe_local]))
        return w[0], v[0]


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
    """Build an evolution plan from the one-row ``canonical_forms``, with the fast path when the pair has a canonical form."""
    forms = canonical_forms((h13,), (h23,))
    error = forms.error(0)
    return EvolutionPlan(
        h13=h13,
        h23=h23,
        h_total=h13.to_matrix() + h23.to_matrix(),
        fastpath=CommutingFastpath(*forms.forms(0)) if error is None else None,
        commutator_norm=float(forms.commutator_norm[0]),
        fastpath_error=None if error is None else str(error),
    )


def plan_spectra(h13s, h23s):
    """Canonical forms and stacked spectra of N pairs: ``(forms, w, V)`` with w (N, 8) and V (N, 8, 8).

    Rows with a canonical form take the closed form, the others one stacked
    ``eigh`` of their total Hamiltonians; each row equals its one-row plan's
    ``spectrum()``.
    """
    forms = canonical_forms(h13s, h23s)
    n = len(forms.status)
    w, v = np.empty((n, 8)), np.empty((n, 8, 8), dtype=complex)
    ok = forms.ok
    if ok.any():
        vecs = sector_vectors(forms.strength[ok], forms.body_axis[ok], forms.self_strength[ok], forms.self_axis[ok])
        w[ok], v[ok] = closed_form_spectra(vecs, forms.probe_axis[ok], forms.probe_strength[ok, 0] + forms.probe_strength[ok, 1])
    rest = np.flatnonzero(~ok)
    if rest.size:
        w[rest], v[rest] = np.linalg.eigh(np.array([h13s[i].to_matrix() + h23s[i].to_matrix() for i in rest]))
    return forms, w, v


def evolve_rows(w, v, psi0s, times) -> np.ndarray:
    """Evolve N states, each under its own spectrum to its own time: rows V exp(-i w t) V† psi0, shape (N, 8)."""
    coeffs = (v.conj().transpose(0, 2, 1) @ np.asarray(psi0s, dtype=complex)[..., None])[..., 0]
    phases = np.exp(-1j * np.asarray(times, dtype=float)[:, None] * w)
    return (v @ (phases * coeffs)[..., None])[..., 0]


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


def measure_probe_grid(psis, basis):
    """Projective measurement of qubit 3 in an orthonormal basis pair, for every row of ``psis``:
    (probabilities, tangles, present, states), indexed [row, outcome] with states (T, 2, 4). Where
    ``present`` is False the probability is below the degenerate-outcome threshold and ``states``
    holds the unnormalized branch."""
    b = np.array([np.asarray(vec, dtype=complex).reshape(2) for vec in basis])
    if np.max(np.abs(b.conj() @ b.T - np.eye(2))) > STRUCTURAL_TOL:
        raise ValueError("measurement basis must be orthonormal")
    branches = np.asarray(psis, dtype=complex).reshape(-1, 4, 2) @ b.conj().T  # [row, pair amplitude, outcome]
    probs = np.einsum("tak,tak->tk", branches, branches.conj()).real
    present = probs >= DEGENERATE_OUTCOME_PROB
    states = (branches / np.sqrt(np.where(present, probs, 1.0))[:, None, :]).transpose(0, 2, 1)
    det = states[..., 0] * states[..., 3] - states[..., 1] * states[..., 2]
    return probs, 4.0 * (det.real**2 + det.imag**2), present, states


def measure_probe(psi, basis, labels=("plus", "minus")) -> list[MeasurementOutcome]:
    """Projective measurement of qubit 3 in an orthonormal basis pair: the one-row grid."""
    probs, tangles, present, states = measure_probe_grid(np.asarray(psi, dtype=complex).reshape(1, 8), basis)
    return [
        MeasurementOutcome(label, p, state if ok else None, tau if ok else None)
        for label, p, tau, ok, state in zip(labels, probs[0].tolist(), tangles[0].tolist(), present[0].tolist(), states[0])
    ]


def v_operators(cf: CommutingForm, rotation, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Branch unitaries V_± = exp(∓i strength t sigma_axis) R for one canonical form."""
    r = rotation.matrix()
    vec = cf.coupling_strength * np.asarray(cf.coupling_axis_self)
    return _axis_rotation(vec, t) @ r, _axis_rotation(-vec, t) @ r
