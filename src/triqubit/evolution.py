"""Spectral unitary evolution and probe measurement with post-selection.

Every evolution goes through one spectral core: a spectrum ``(w, V)`` with
H13 + H23 = V diag(w) V† and psi(t) = V exp(-i w t) V† psi0. A spectrum has
one of two sources, by input kind. Pairs given as Pauli coefficients (configs,
presets) take ``eigh`` of their own H. Pairs drawn in the canonical commuting
form, where both pair Hamiltonians act on the probe through one axis j, take
the closed form: the total Hamiltonian is block diagonal over the
eigenprojectors of j.sigma on qubit 3, and in probe sector m = +-1, body qubit
k sees a plain rotation about m body_k + local_self_k, with no eigensolver.

``closed_form_spectra`` takes N pairs in canonical form (body and body-local
vectors, probe axis and probe-local strengths) and builds their sector vectors
itself; the property suites draw their pairs in that form and call it
directly. ``plan_spectra`` classifies N pairs given as (N, 2, 15) Pauli
coefficients with one ``canonical_forms`` call and builds their stacked
spectra with one stacked ``eigh``. ``evolve`` is the core itself, by
broadcasting: N spectra and states go one per row to their own times, and one
spectrum and state go over a whole time grid. ``measure_probe_grid`` measures
qubit 3 of every row along one unit axis.
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import canonical_forms, pair_matrices
from .linalg import directions, kron  # noqa: F401 (bench/selftest.py reads kron here)
from .states import axis_eigenbases
from .tolerances import DEGENERATE_OUTCOME_PROB

_SIGNS = np.array([1.0, -1.0])
# energy of column (m, a, b) of V from [|v(+,1)|, |v(+,2)|, |v(-,1)|, |v(-,2)|, probe-local]:
# a |v(m,1)| + b |v(m,2)| + m * probe-local, with m, a, b = +-1
_ENERGY_SIGNS = np.array(
    [
        [1, 1, -1, -1, 0, 0, 0, 0],
        [1, -1, 1, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, -1, -1],
        [0, 0, 0, 0, 1, -1, 1, -1],
        [1, 1, 1, 1, -1, -1, -1, -1],
    ],
    dtype=float,
)


def closed_form_spectra(body, local_self, probe_axis, probe_strength) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``(w, V)`` of N pairs in canonical form, shapes (N, 8) and (N, 8, 8).

    Pair k of a row is body_k.sigma x j.sigma + local_self_k.sigma + probe_strength_k j.sigma,
    with ``body`` and ``local_self`` (N, 2, 3), ``probe_axis`` j (N, 3) a unit axis and
    ``probe_strength`` (N, 2). In probe sector m = +-1, qubit k rotates about the sector vector
    m body_k + local_self_k: its eigenbasis is the axis eigenbasis of that vector, with energies
    +-|vector| (the identity when the vector is zero), and the probe-local terms add
    m * (their summed strength). Column (m, a, b) of V is e1_a(m) x e2_b(m) x p_m. Lengths and
    unit rows come from ``directions``; a zero vector points along z, which gives the identity basis.
    """
    n = len(body)
    vecs = _SIGNS[:, None, None] * body[:, None] + local_self[:, None]  # [row, sector, body qubit, component]
    lengths, units = directions(vecs.reshape(n, 4, 3))
    bases = axis_eigenbases(np.concatenate([units, probe_axis[:, None, :]], axis=1))
    sectors = bases[:, :4].reshape(n, 2, 2, 2, 2)  # [row, sector, body qubit, component, +-]
    # V[row, i, j, k, m, a, b] = e1_a(m)[i] e2_b(m)[j] p_m[k], by broadcasting
    e1 = sectors[:, :, 0].transpose(0, 2, 1, 3)[:, :, None, None, :, :, None]
    e2 = sectors[:, :, 1].transpose(0, 2, 1, 3)[:, None, :, None, :, None, :]
    v = (e1 * e2 * bases[:, 4, None, None, :, :, None, None]).reshape(n, 8, 8)
    return np.concatenate([lengths, probe_strength.sum(axis=1, keepdims=True)], axis=1) @ _ENERGY_SIGNS, v


def plan_spectra(coeffs: np.ndarray):
    """Canonical forms and stacked spectra of N pairs given as an (N, 2, 15) coefficient array:
    ``(forms, w, V)`` with w (N, 8) and V (N, 8, 8).

    ``forms`` classifies the pairs; the spectra come from one stacked ``eigh`` of the total
    Hamiltonians, so a pair that passes the form check only within ``SPECTRAL_TOL`` is still
    evolved by its own H, not by its canonical form.
    """
    matrices = pair_matrices(coeffs)
    return (canonical_forms(coeffs), *np.linalg.eigh(matrices[:, 0] + matrices[:, 1]))


def evolve(w, v, psi0s, times) -> np.ndarray:
    """V exp(-i w t) V† psi0 for spectra ``(w, V)``, states and times that broadcast by row: N spectra
    (N, 8) and (N, 8, 8) with N states and N times give one state per row, shape (N, 8); one spectrum
    (8,) and (8, 8), or a stack of one, with one state and T times give the grid, shape (T, 8)."""
    coeffs = (v.conj().mT @ np.asarray(psi0s, dtype=complex)[..., None])[..., 0]
    phases = np.exp(-1j * np.asarray(times, dtype=float).reshape(-1, 1) * w)
    return (v @ (phases * coeffs)[..., None])[..., 0]


def measure_probe_grid(psis, axis):
    """Projective measurement of qubit 3 along a unit axis, outcomes plus and minus of
    ``axis_eigenbases``, for every row of ``psis``: (probabilities, tangles, present, states),
    indexed [row, outcome] with states (T, 2, 4). Where ``present`` is False the probability is
    below the degenerate-outcome threshold and ``states`` holds the unnormalized branch."""
    basis = axis_eigenbases(axis)
    branches = np.asarray(psis, dtype=complex).reshape(-1, 4, 2) @ basis.conj()  # [row, pair amplitude, outcome]
    probs = np.einsum("tak,tak->tk", branches, branches.conj()).real
    present = probs >= DEGENERATE_OUTCOME_PROB
    states = (branches / np.sqrt(np.where(present, probs, 1.0))[:, None, :]).transpose(0, 2, 1)
    det = states[..., 0] * states[..., 3] - states[..., 1] * states[..., 2]
    return probs, 4.0 * (det.real**2 + det.imag**2), present, states

