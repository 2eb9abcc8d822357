"""Pairwise Pauli Hamiltonians on qubit pairs (1,3) and (2,3), and the commuting classifier.

N pairs are an (N, 2, 15) array of real Pauli coefficients (hbar = 1),
indexed [row, pair] with pair 0 being (1,3) and 1 being (2,3). The 15
coefficients of one pair Hamiltonian are its 3x3 coupling tensor row by row,
``coupling[i, j]`` multiplying (pauli_i on the body qubit) x (pauli_j on
qubit 3), then the body-local and the probe-local coefficient vectors. When
the two pair Hamiltonians commute, each coupling tensor is rank one and both
share a single probe axis; ``canonical_forms`` extracts that structure for N
pairs at once, as arrays, and ``CanonicalForms.error`` names the reason a row
has none.

The classifier works in coefficient space and builds no 8x8 matrix. Write each
pair as body-Pauli-indexed probe vectors, C = [local_probe; coupling rows]
(4x3) for (1,3) and D likewise for (2,3), with sigma_0 the identity. Only
qubit 3 is shared, so by [a.sigma, b.sigma] = 2i (a x b).sigma

    [H13, H23] = 2i sum_{i,k} sigma_i^1 sigma_k^2 (C_i x D_k).sigma^3,
    ||[H13, H23]||_F^2 = 32 sum_{i,k} |C_i x D_k|^2,

and ||H||_F^2 = 8 (sum of squared coefficients), Pauli strings being
orthogonal with squared norm 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, embed_single, norms, unit_axis
from .tolerances import SPECTRAL_TOL


class NotCommutingError(ValueError):
    """The two pair Hamiltonians do not commute."""


class NotRankOneError(ValueError):
    """A coupling tensor is not an outer product of a body axis and a probe axis."""


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


# (error, message) of each check of ``canonical_forms``, in the order they are made: status
# k > 0 is the first failed check k, and ``CanonicalForms.error`` picks the numbers to quote
_FAILURES = (
    None,
    (NotCommutingError, "pair Hamiltonians do not commute (commutator norm {:.3e})"),
    *[(NotRankOneError, "coupling tensor is not (body axis) x (probe axis): second singular value {:.3e} vs first {:.3e}")] * 2,
    (NotCommutingError, "coupling tensors do not share a probe axis"),
    *[(NotCommutingError, "probe-local term is not aligned with the shared probe axis (residual {:.3e})")] * 2,
    *[(NotCommutingError, "canonical form fails to reconstruct the input (deviation {:.3e})")] * 2,
)


@dataclass
class CanonicalForms:
    """Commutation test and canonical forms of N pairs, as arrays.

    Arrays are indexed [row] or [row, pair], pair 0 being (1,3) and 1 being
    (2,3). ``status`` is 0 where the row has a canonical form and otherwise the
    first failed check (see ``error``); the form arrays of a failed row carry no
    meaning. ``commutator_norm`` is ||[H13, H23]||_F.
    """

    status: np.ndarray
    commutator_norm: np.ndarray
    strength: np.ndarray
    body_axis: np.ndarray
    probe_axis: np.ndarray
    self_strength: np.ndarray
    self_axis: np.ndarray
    probe_strength: np.ndarray
    singular_values: np.ndarray
    residual: np.ndarray
    deviation: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.status == 0

    def error(self, row: int) -> ValueError | None:
        """The NotCommutingError or NotRankOneError of a failed row, None for a row with a form."""
        status = int(self.status[row])
        if status == 0:
            return None
        numbers = {
            1: (self.commutator_norm[row],),
            2: self.singular_values[row, 0, 1::-1],
            3: self.singular_values[row, 1, 1::-1],
            4: (),
            5: (self.residual[row, 0],),
            6: (self.residual[row, 1],),
            7: (self.deviation[row, 0],),
            8: (self.deviation[row, 1],),
        }[status]
        error, message = _FAILURES[status]
        return error(message.format(*numbers))


# weights that make the sign of a sum over the components that of the first nonzero one
_FIRST_NONZERO = np.array([4.0, 2.0, 1.0])
# Levi-Civita symbol: (a x b)_i = eps_ijk a_j b_k
_EPS = np.zeros((3, 3, 3))
_EPS[0, 1, 2] = _EPS[1, 2, 0] = _EPS[2, 0, 1] = 1.0
_EPS[0, 2, 1] = _EPS[2, 1, 0] = _EPS[1, 0, 2] = -1.0
# C = [local_probe; coupling rows] as an index into the 15 coefficients
_PROBE_ROWS = np.r_[12:15, 0:9]
_Z = np.array([0.0, 0.0, 1.0])


def _sign_fix(axes: np.ndarray) -> np.ndarray:
    """+-1.0 making the first component with |c| > 1e-14 of each row positive (1.0 if none is)."""
    return np.where((np.sign(axes) * (np.abs(axes) > 1e-14)) @ _FIRST_NONZERO < 0.0, -1.0, 1.0)


def canonical_forms(coeffs) -> CanonicalForms:
    """Classify N pairs, given as (N, 2, 15) coefficients, and extract their
    shared-probe-axis canonical forms.

    The checks, in order (the status of a row is its first failure):
    1. commutation: with each pair's coefficients scaled by its largest one,
       the commutator of the unit-Frobenius-norm matrices has norm
       sqrt(32 sum |C_i x D_k|^2 / (64 q13 q23)), q the sums of squared scaled
       coefficients, against ``SPECTRAL_TOL``;
    2, 3. each nonzero coupling tensor is rank one (one stacked SVD);
    4. two nonzero couplings share their probe axis;
    5, 6. each probe-local term lies on the shared probe axis;
    7, 8. each form reconstructs its coefficients: the Frobenius norm of the
       8x8 difference is at most ``SPECTRAL_TOL`` ||H||_F (so every entry is too).
    A pair that commutes without a canonical form, such as a rank-2 coupling
    against a partner with no probe part, fails check 2 or 3. The decisions
    are taken on the scaled coefficients, so they do not depend on the scale
    of H; the form itself is computed from the coefficients as given.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = len(coeffs)
    top = np.abs(coeffs).max(axis=-1)
    scale = np.where(top > 0.0, top, 1.0)[..., None]
    unit = coeffs / scale
    rows = unit[..., _PROBE_ROWS].reshape(n, 2, 4, 3)
    cross = np.einsum("abc,nib,nkc->nika", _EPS, rows[:, 0], rows[:, 1])
    sq = np.einsum("nikc,nikc->n", cross, cross)
    q = np.vecdot(unit, unit) + (top == 0.0)  # >= 1 for a nonzero pair
    commutes = (top == 0.0).any(axis=-1) | (np.sqrt(sq / (2.0 * q[:, 0] * q[:, 1])) <= SPECTRAL_TOL)
    with np.errstate(over="ignore"):  # inf only where the norm itself passes float range
        commutator_norm = np.sqrt(32.0 * sq) * top[:, 0] * top[:, 1]
    if not commutes.any():  # no form to extract
        zeros = np.zeros((n, 2, 3))
        return CanonicalForms(
            np.ones(n, dtype=int), commutator_norm, strength=zeros[..., 0], body_axis=zeros,
            probe_axis=zeros[:, 0], self_strength=zeros[..., 0], self_axis=zeros, probe_strength=zeros[..., 0],
            singular_values=zeros, residual=zeros[..., 0], deviation=zeros[..., 0],
        )

    coupling, local_self, local_probe = coeffs[..., :9].reshape(n, 2, 3, 3), coeffs[..., 9:12], coeffs[..., 12:]
    # rank-one factors: probe axis first-nonzero-positive, the body axis takes the sign
    u, s, vt = np.linalg.svd(coupling)
    strength = s[..., 0]
    nonzero = strength != 0.0
    flip = _sign_fix(vt[..., 0, :])[..., None]
    probe = flip * vt[..., 0, :]
    body_axis = np.where(nonzero[..., None], flip * u[..., :, 0], _Z)

    # shared probe axis: the couplings' (mean) axis, else the first probe-local term's, else z
    p13, p23 = probe[:, 0], probe[:, 1]
    gap = p13 - p23
    mismatch = nonzero.all(axis=-1) & (np.sqrt(np.vecdot(gap, gap)) > 1e-8)
    mean = (p13 + p23) / 2
    shared = np.where(nonzero[:, 1:], p23, _Z)
    if not nonzero.all():
        has_local = local_probe.any(axis=-1)
        if has_local.any():
            local_axis = unit_axis(np.where(has_local[:, :1], local_probe[:, 0], np.where(has_local[:, 1:], local_probe[:, 1], _Z)))
            shared = np.where(nonzero.any(axis=-1)[:, None], shared, local_axis * _sign_fix(local_axis)[:, None])
    shared = np.where(nonzero[:, :1], np.where(nonzero[:, 1:], mean / np.sqrt(np.vecdot(mean, mean))[:, None], p13), shared)

    self_strength = norms(local_self)
    self_axis = local_self / np.where(self_strength == 0.0, 1.0, self_strength)[..., None]
    self_axis = np.where((self_strength == 0.0)[..., None], _Z, self_axis)
    probe_strength = np.vecdot(local_probe, shared[:, None, :])

    # residual and reconstruction on the scaled coefficients; ||H||_F = sqrt(8) * |coefficients|
    form = np.concatenate(
        [
            (strength[..., None, None] * body_axis[..., :, None] * shared[:, None, None, :]).reshape(n, 2, 9),
            self_strength[..., None] * self_axis,
            probe_strength[..., None] * shared[:, None, :],
        ],
        axis=-1,
    ) / scale
    off_axis = unit[..., 12:] - np.vecdot(unit[..., 12:], shared[:, None, :])[..., None] * shared[:, None, :]
    residual2 = np.vecdot(off_axis, off_axis)
    diff = unit - form
    deviation2 = np.vecdot(diff, diff)
    failed = np.concatenate(
        [
            ~commutes[:, None],
            nonzero & (s[..., 1] > SPECTRAL_TOL * strength),
            mismatch[:, None],
            residual2 > 1e-16 * np.vecdot(unit[..., 12:], unit[..., 12:]),
            deviation2 > SPECTRAL_TOL * SPECTRAL_TOL * q,
        ],
        axis=1,
    )
    return CanonicalForms(
        status=np.where(failed.any(axis=-1), failed.argmax(axis=-1) + 1, 0),
        commutator_norm=commutator_norm,
        strength=strength,
        body_axis=body_axis,
        probe_axis=shared,
        self_strength=self_strength,
        self_axis=self_axis,
        probe_strength=probe_strength,
        singular_values=s,
        residual=np.sqrt(residual2) * top,
        deviation=np.sqrt(8.0 * deviation2) * top,
    )


# Named presets ----------------------------------------------------------

def heisenberg_chain(g: float) -> np.ndarray:
    """Isotropic chain 1-3-2: g * sigma1.sigma3 + g * sigma2.sigma3 (noncommuting), shape (1, 2, 15)."""
    coeffs = np.zeros((1, 2, 15))
    coeffs[..., [0, 4, 8]] = g
    return coeffs


def qnd_zz(g: float) -> np.ndarray:
    """Probe-mediated zz coupling, (g/4) sigma_z x sigma_z per pair, shape (1, 2, 15).

    The g/4 prefactor comes from writing both the probe's and each body
    qubit's angular momentum in spin-1/2 units (sigma_z / 2), so the total is
    g * (sz1/2 + sz2/2) * (sz3/2).
    """
    coeffs = np.zeros((1, 2, 15))
    coeffs[..., 8] = g / 4.0
    return coeffs


PRESETS = {"heisenberg_chain": heisenberg_chain, "qnd_zz": qnd_zz}
