"""Pairwise Pauli Hamiltonians on qubit pairs (1,3) and (2,3), and the commuting classifier.

N pairs are an (N, 2, 15) array of real Pauli coefficients (hbar = 1),
indexed [row, pair] with pair 0 being (1,3) and 1 being (2,3). The 15
coefficients of one pair Hamiltonian are its 3x3 coupling tensor row by row,
``coupling[i, j]`` multiplying (pauli_i on the body qubit) x (pauli_j on
qubit 3), then the body-local and the probe-local coefficient vectors.

The canonical commuting form is the case where both pair Hamiltonians act on
the probe through one observable j.sigma: all eight probe vectors below lie on
one axis j. Each pair is then (body vector).sigma x j.sigma plus body-local
and probe-local terms, the latter on j. ``canonical_forms`` tests that for N
pairs at once, returns the forms as arrays, and ``CanonicalForms.reason``
says why a row has none.

The classifier works in coefficient space and builds no 8x8 matrix. Write each
pair as body-Pauli-indexed probe vectors, C = [local_probe; coupling rows]
(4x3) for (1,3) and D likewise for (2,3), with sigma_0 the identity. Only
qubit 3 is shared, so by [a.sigma, b.sigma] = 2i (a x b).sigma

    [H13, H23] = 2i sum_{i,k} sigma_i^1 sigma_k^2 (C_i x D_k).sigma^3,
    ||[H13, H23]||_F^2 = 32 sum_{i,k} |C_i x D_k|^2,

and ||H||_F^2 = 8 (sum of squared coefficients), Pauli strings being
orthogonal with squared norm 8. The cross products are written out component
by component, and the shared probe axis comes from the 3x3 Gram matrix of the
eight probe vectors (the rows of C and D) by one power step, so a batch of
pairs costs a few elementwise array operations and no eigensolver or SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, directions, embed_single
from .tolerances import AXIS_SIGN_TOL, SPECTRAL_TOL


# embedding tables, [qubit or pair, Pauli indices, 64 matrix entries]: the matrices are then three products
_SINGLE = np.array([[embed_single(p, qubit).ravel() for p in PAULIS] for qubit in (1, 2, 3)])
_COUPLINGS = np.array([[(embed_single(a, body) @ embed_single(b, 3)).ravel() for a in PAULIS for b in PAULIS] for body in (1, 2)])


def pair_matrices(coeffs: np.ndarray) -> np.ndarray:
    """8x8 Hermitian embeddings of a stacked coefficient array (..., 2, 15), [..., pair], shape (..., 2, 8, 8).

    Pair 0 is (1,3) and 1 is (2,3); H13 + H23 is the sum over axis -3.
    """
    entries = (
        (coeffs[..., None, :9] @ _COUPLINGS)[..., 0, :]
        + (coeffs[..., None, 9:12] @ _SINGLE[:2])[..., 0, :]
        + coeffs[..., 12:] @ _SINGLE[2]
    )
    return entries.reshape(*coeffs.shape[:-1], 8, 8)


@dataclass
class CanonicalForms:
    """Commutation test and canonical forms of N pairs, as arrays.

    Arrays are indexed [row] or [row, pair], pair 0 being (1,3) and 1 being
    (2,3). ``status`` is 0 where the row has a canonical form, 1 where the pair
    Hamiltonians do not commute and 2 where they commute but their probe terms
    do not lie on one axis; the form arrays of a failed row carry no meaning.
    The form of a row is its shared probe axis j (``probe_axis``, (N, 3)), each
    pair's body vector ``coupling @ j`` (``body``, (N, 2, 3)) and probe-local
    strength ``local_probe . j`` (``probe_strength``, (N, 2)); with the
    body-local vectors of the coefficients they rebuild each pair as
    body.sigma x j.sigma + local_self.sigma + probe_strength j.sigma.
    ``commutator_norm`` is ||[H13, H23]||_F and ``deviation`` each pair's
    ||H - form||_F.
    """

    status: np.ndarray
    commutator_norm: np.ndarray
    probe_axis: np.ndarray
    body: np.ndarray
    probe_strength: np.ndarray
    deviation: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.status == 0

    def reason(self, row: int) -> str | None:
        """Why a row has no canonical form, None for a row with one."""
        if self.status[row] == 1:
            return f"pair Hamiltonians do not commute (commutator norm {self.commutator_norm[row]:.3e})"
        if self.status[row] == 2:
            return f"probe terms do not share one probe axis (deviation {self.deviation[row].max():.3e})"
        return None


# weights that make the sign of a sum over the components that of the first nonzero one
_FIRST_NONZERO = np.array([4.0, 2.0, 1.0])
# the four probe vectors of a pair, local_probe then the coupling rows, each as components
# (x, y, z, x, y): [..., :3] is the vector, [..., 1:4] and [..., 2:5] its cyclic shifts
_PROBE_COMPONENTS = (np.r_[12, 0, 3, 6][:, None] + np.array([0, 1, 2, 0, 1])).ravel()


def _probe_vectors(unit) -> tuple[np.ndarray, np.ndarray]:
    """The rows of C and D of N pairs' (N, 2, 15) coefficients, [row, pair, i, component], and
    the cross products C_i x D_k, [row, i, k, component], written out component by component."""
    components = unit[..., _PROBE_COMPONENTS].reshape(len(unit), 2, 4, 5)
    c, d = components[:, 0, :, None], components[:, 1, None]
    return components[..., :3], c[..., 1:4] * d[..., 2:5] - c[..., 2:5] * d[..., 1:4]


def canonical_forms(coeffs) -> CanonicalForms:
    """Classify N pairs, given as (N, 2, 15) coefficients, and extract their
    shared-probe-axis canonical forms.

    Each pair's coefficients are first scaled by its largest one, so no
    decision depends on the scale of H. A row fails with status 1 when the
    commutator of the unit-Frobenius-norm matrices has norm
    sqrt(32 sum |C_i x D_k|^2 / (64 q13 q23)) above ``SPECTRAL_TOL``, q the
    sums of squared scaled coefficients (compared squared, as
    sum |C_i x D_k|^2 > 2 ``SPECTRAL_TOL``^2 q13 q23). Otherwise the shared probe axis j
    comes from the 3x3 Gram matrix G = R^T R of the eight scaled probe vectors
    R (the rows of C and D): one power step, G times G's column of largest
    diagonal entry, normalized, first component above ``AXIS_SIGN_TOL``
    positive, and z when all of them are 0. On a row that passes the check
    below, G's other eigenvalues are at most ~``SPECTRAL_TOL``^2 q, so unless the probe vectors
    are themselves that small, j is the top right singular vector of R to
    rounding; the check, not the power step, bounds the form's error. The row
    fails with status 2 unless each pair's probe vectors P lie on j:
    ||P - (P j) j^T||^2 <= ``SPECTRAL_TOL``^2 q, which bounds the Frobenius
    norm of the 8x8 difference between the pair and its form by
    ``SPECTRAL_TOL`` ||H||_F (so every entry too). A rank-2 coupling against
    a partner with no probe part commutes and fails this way. The form itself
    is computed from the coefficients as given.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = len(coeffs)
    top = np.abs(coeffs).max(axis=-1)
    unit = coeffs / np.where(top > 0.0, top, 1.0)[..., None]
    rows, cross = _probe_vectors(unit)
    sq = np.einsum("nikc,nikc->n", cross, cross)
    q = np.vecdot(unit, unit) + (top == 0.0)  # >= 1 for a nonzero pair
    commutes = (top == 0.0).any(axis=-1) | (sq <= 2.0 * SPECTRAL_TOL * SPECTRAL_TOL * q[:, 0] * q[:, 1])
    with np.errstate(over="ignore"):  # inf only where the norm itself passes float range
        commutator_norm = np.sqrt(32.0 * sq) * top[:, 0] * top[:, 1]
    if not commutes.any():  # no form to extract
        zeros = np.zeros((n, 2, 3))
        return CanonicalForms(np.ones(n, dtype=int), commutator_norm, zeros[:, 0], zeros, zeros[..., 0], zeros[..., 0])

    flat = rows.reshape(n, 8, 3)
    gram = flat.transpose(0, 2, 1) @ flat
    diagonal = gram.diagonal(axis1=1, axis2=2)
    j = (gram @ gram[np.arange(n), diagonal.argmax(axis=1), :, None])[..., 0]
    # z where G^2 underflows to 0, that is where the probe vectors are below ~1e-77 of the
    # pair's largest coefficient
    _, j = directions(j)
    flip = (np.sign(j) * (np.abs(j) > AXIS_SIGN_TOL)) @ _FIRST_NONZERO < 0.0  # first component above AXIS_SIGN_TOL negative
    j = np.where(flip, -1.0, 1.0)[:, None] * j
    along = rows @ j[:, None, :, None]  # (P j), [row, pair, probe vector, 1]
    off_axis = rows - along * j[:, None, None, :]
    deviation2 = np.einsum("nkic,nkic->nk", off_axis, off_axis)
    return CanonicalForms(
        status=np.where(commutes, np.where((deviation2 > SPECTRAL_TOL * SPECTRAL_TOL * q).any(axis=-1), 2, 0), 1),
        commutator_norm=commutator_norm,
        probe_axis=j,
        body=np.vecdot(coeffs[..., :9].reshape(n, 2, 3, 3), j[:, None, None, :]),
        probe_strength=np.vecdot(coeffs[..., 12:], j[:, None, :]),
        deviation=np.sqrt(8.0 * deviation2) * top,
    )


# Named presets ----------------------------------------------------------

def heisenberg_chain(g: float | np.ndarray) -> np.ndarray:
    """Isotropic chain 1-3-2: g * sigma1.sigma3 + g * sigma2.sigma3 (noncommuting), one row per
    strength: shape (N, 2, 15) for N strengths, (1, 2, 15) for a scalar."""
    g = np.asarray(g, dtype=float).reshape(-1)
    coeffs = np.zeros((len(g), 2, 15))
    coeffs[..., [0, 4, 8]] = g[:, None, None]
    return coeffs


def qnd_zz(g: float | np.ndarray) -> np.ndarray:
    """Probe-mediated zz coupling, (g/4) sigma_z x sigma_z per pair, one row per strength like
    ``heisenberg_chain``.

    The g/4 prefactor comes from writing both the probe's and each body
    qubit's angular momentum in spin-1/2 units (sigma_z / 2), so the total is
    g * (sz1/2 + sz2/2) * (sz3/2).
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    coeffs = np.zeros((len(g), 2, 15))
    coeffs[..., 8] = g[:, None] / 4.0
    return coeffs


PRESETS = {"heisenberg_chain": heisenberg_chain, "qnd_zz": qnd_zz}
