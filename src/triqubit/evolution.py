"""Spectral unitary evolution and probe measurement with post-selection.

Every evolution goes through one spectral core: a spectrum ``(w, V)`` with
H13 + H23 = V diag(w) V† and psi(t) = V exp(-i w t) V† psi0. The spectrum's
source follows from the pair. When both pair Hamiltonians act on the probe
through one axis j (the canonical commuting form of ``canonical_forms``), the
total Hamiltonian is block diagonal over the eigenprojectors of j.sigma on
qubit 3: in probe sector m = +-1, body qubit k sees a plain rotation about
m body_k + local_self_k, so the spectrum comes in closed form, with no
eigensolver. Otherwise it comes from ``eigh``.

``plan_spectra`` builds the stacked spectra of N pairs, given as (N, 2, 15)
Pauli coefficients, from one ``canonical_forms`` call (the closed form over
(N, 2, 2, 3) sector vectors, one stacked ``eigh`` for the rest).
``evolve_rows`` evolves N states, one time each, and ``evolve_grid`` evolves
one state under one row's spectrum over a whole time grid.
``measure_probe_grid`` measures qubit 3 of every row in one basis.
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import canonical_forms, pair_matrices
from .linalg import kron  # noqa: F401 (bench/selftest.py reads kron here)
from .states import unit_axis_eigenbases
from .tolerances import DEGENERATE_OUTCOME_PROB, STRUCTURAL_TOL

_SIGNS = np.array([1.0, -1.0])
_Z_AXIS = np.array([0.0, 0.0, 1.0])
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


def closed_form_spectra(vecs, probe_axis, probe_local) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``(w, V)`` of N commuting Hamiltonians, shapes (N, 8) and (N, 8, 8).

    ``vecs`` are the (N, 2, 2, 3) sector vectors, ``probe_axis`` (N, 3) the
    unit probe axes and ``probe_local`` (N,) the summed probe-local strengths.
    In probe sector m, qubit k's eigenbasis is the axis eigenbasis of its
    rotation vector, with energies +-|vector| (the identity when the vector is
    zero); the probe-local term adds m * (probe-local strength). Column
    (m, a, b) of V is e1_a(m) x e2_b(m) x p_m. Lengths and unit rows come from
    one pass that scales each vector by its largest |component|, so neither
    overflows past ~1e154 nor vanishes below ~1e-162.
    """
    n = len(vecs)
    vecs = vecs.reshape(n, 4, 3)
    top = np.abs(vecs).max(axis=-1)
    zero = top == 0.0
    scaled = vecs / (top + zero)[..., None] + zero[..., None] * _Z_AXIS  # a zero vector points along z: the identity basis
    size = np.sqrt(np.vecdot(scaled, scaled))
    bases = unit_axis_eigenbases(np.concatenate([scaled / size[..., None], probe_axis[:, None, :]], axis=1))
    body = bases[:, :4].reshape(n, 2, 2, 2, 2)  # [row, sector, body qubit, component, +-]
    # V[row, i, j, k, m, a, b] = e1_a(m)[i] e2_b(m)[j] p_m[k], by broadcasting
    e1 = body[:, :, 0].transpose(0, 2, 1, 3)[:, :, None, None, :, :, None]
    e2 = body[:, :, 1].transpose(0, 2, 1, 3)[:, None, :, None, :, None, :]
    v = (e1 * e2 * bases[:, 4, None, None, :, :, None, None]).reshape(n, 8, 8)
    return np.concatenate([top * size, probe_local[:, None]], axis=1) @ _ENERGY_SIGNS, v


def plan_spectra(coeffs: np.ndarray):
    """Canonical forms and stacked spectra of N pairs given as an (N, 2, 15) coefficient array:
    ``(forms, w, V)`` with w (N, 8) and V (N, 8, 8).

    Rows with a canonical form take the closed form, the others one stacked
    ``eigh`` of their total Hamiltonians.
    """
    forms = canonical_forms(coeffs)
    ok = forms.ok
    if ok.all():  # one route takes every row: no gathers or scatters
        return (forms, *_closed_form_rows(forms, coeffs))
    if not ok.any():
        return (forms, *_eigh_rows(coeffs))
    w, v = np.empty((len(ok), 8)), np.empty((len(ok), 8, 8), dtype=complex)
    w[ok], v[ok] = _closed_form_rows(forms, coeffs, ok)
    w[~ok], v[~ok] = _eigh_rows(coeffs[~ok])
    return forms, w, v


def _closed_form_rows(forms, coeffs, rows=slice(None)):
    """Closed-form spectra of the ``rows`` of ``forms``: in probe sector m = +-1, body qubit k
    rotates about m * body_k + local_self_k."""
    body, strengths = forms.body[rows], forms.probe_strength[rows]
    vecs = _SIGNS[:, None, None] * body[:, None] + coeffs[rows][:, None, :, 9:12]
    return closed_form_spectra(vecs, forms.probe_axis[rows], strengths[:, 0] + strengths[:, 1])


def _eigh_rows(coeffs):
    matrices = pair_matrices(coeffs)
    return np.linalg.eigh(matrices[:, 0] + matrices[:, 1])


def evolve_rows(w, v, psi0s, times) -> np.ndarray:
    """Evolve N states, each under its own spectrum to its own time: rows V exp(-i w t) V† psi0, shape (N, 8)."""
    coeffs = (v.conj().transpose(0, 2, 1) @ np.asarray(psi0s, dtype=complex)[..., None])[..., 0]
    phases = np.exp(-1j * np.asarray(times, dtype=float)[:, None] * w)
    return (v @ (phases * coeffs)[..., None])[..., 0]


def evolve_grid(w, v, psi0, times) -> np.ndarray:
    """Evolve one state under one spectrum ``(w, V)`` to every time of a grid at once:
    (exp(-i t (x) w) * (V† psi0)) @ V^T, shape (T, 8)."""
    psi0 = np.asarray(psi0, dtype=complex).reshape(8)
    times = np.asarray(times, dtype=float).reshape(-1)
    return (np.exp(-1j * np.multiply.outer(times, w)) * (v.conj().T @ psi0)) @ v.T


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

