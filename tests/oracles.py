"""Independent reference implementations used as test oracles.

Deliberately different code paths from the package, which measures only pure
three-qubit states through one route per measure and classifies pairs in
Pauli-coefficient space: 8x8 matrices summed here from kron embeddings of the
coefficient rows, the 8x8 commutator for the commutation test,
Pade-approximant matrix exponentials (scipy) instead of spectral ones, einsum
reductions, a branch-cross-matrix concurrence for marginals of pure states,
the plain nonsymmetric-eigenvalue Wootters route for mixed two-qubit states,
the Kraus route to rho_12 of a state chi x phi through the probe's
conditional operators, the projector route to a probe measurement along an
axis, and two residual-tangle routes (Wootters lambdas, CKW
subtraction) built from the cross matrix instead of the package's amplitude
polynomials.
The closed form on coefficient input (``closed_form_plan``), which the
package keeps for the suites' drawn forms only.
The parent route of the canonical form's classification: Levi-Civita einsum
cross products and the shared probe axis as the top right singular vector of
one stacked SVD.
Random draws are numpy's per-trial calls, the reference for the package's
stacked draw assembly, and suites fold their trials one at a time, the
reference for the package's whole-chunk fold.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from triqubit.evolution import closed_form_spectra
from triqubit.hamiltonians import canonical_forms
from triqubit.linalg import directions
from triqubit.states import axis_eigenbases
from triqubit.tolerances import AXIS_SIGN_TOL

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PAULIS = (SX, SY, SZ)
YY = np.kron(SY, SY).real


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _scaled(m: np.ndarray) -> tuple[np.ndarray, float]:
    """``m`` divided by its largest |entry|, and that entry (1 for a zero matrix)."""
    top = float(np.abs(m).max()) or 1.0
    return m / top, top


def embed(op: np.ndarray, qubit: int) -> np.ndarray:
    """A one-qubit operator on qubit 1, 2 or 3, identity on the others."""
    ops = [I2, I2, I2]
    ops[qubit - 1] = op
    return np.kron(np.kron(ops[0], ops[1]), ops[2])


def row(coupling=((0.0,) * 3,) * 3, local_self=(0.0,) * 3, local_probe=(0.0,) * 3) -> np.ndarray:
    """The 15 coefficients of one pair Hamiltonian: the coupling tensor row by row, then local_self and local_probe."""
    return np.concatenate([np.ravel(coupling), local_self, local_probe]).astype(float)


def one_pair(r13, r23) -> np.ndarray:
    """The (1, 2, 15) coefficient array of one pair: H13 from row ``r13``, H23 from ``r23``."""
    return np.array([[r13, r23]], dtype=float)


# [body qubit - 1, coefficient]: the 15 Pauli strings of a pair Hamiltonian on (body, 3), in coefficient order
_PAIR_TERMS = np.array([
    [embed(a, body) @ embed(b, 3) for a in PAULIS for b in PAULIS] + [embed(a, body) for a in PAULIS] + [embed(a, 3) for a in PAULIS]
    for body in (1, 2)
])


def pair_matrix(coefficients, body: int) -> np.ndarray:
    """8x8 matrix of one pair Hamiltonian on (body, 3) from its 15 coefficients, summed term by term."""
    return sum(c * term for c, term in zip(np.asarray(coefficients, dtype=float), _PAIR_TERMS[body - 1]))


def matrices(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """(H13, H23) of one pair's (2, 15) or (1, 2, 15) coefficients."""
    c = np.reshape(coeffs, (2, 15))
    return pair_matrix(c[0], 1), pair_matrix(c[1], 2)


def total_hamiltonian(coeffs) -> np.ndarray:
    """H13 + H23 of one pair's coefficients."""
    return sum(matrices(coeffs))


def oracle_commutator_norm(coeffs) -> float:
    """||[H13, H23]||_F from the two 8x8 matrices, each scaled by its largest entry first."""
    (m13, t13), (m23, t23) = map(_scaled, matrices(coeffs))
    return float(np.linalg.norm(commutator(m13, m23))) * (t13 * t23)


def commutes(coeffs, tol: float = 1e-10) -> bool:
    """Whether the 8x8 embeddings commute: the commutator of the unit-Frobenius-norm matrices against ``tol``."""
    m13, m23 = (_scaled(m)[0] for m in matrices(coeffs))
    if not (m13.any() and m23.any()):
        return True
    return float(np.linalg.norm(commutator(m13 / np.linalg.norm(m13), m23 / np.linalg.norm(m23)))) <= tol


def _sigma(axis) -> np.ndarray:
    x, y, z = axis
    return x * SX + y * SY + z * SZ


def axis_pauli(axis) -> np.ndarray:
    """n . (sx, sy, sz) for the unit vector n along ``axis``, divided by its largest |component| before the norm."""
    a = np.asarray(axis, dtype=float)
    a = a / np.abs(a).max()
    return _sigma(a / np.linalg.norm(a))


def form_matrices(forms, coeffs, index: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(entangling, local) 8x8 matrices of pair k (0 for (1,3), 1 for (2,3)) of row ``index`` of a
    ``CanonicalForms`` of ``coeffs`` ((N, 2, 15), or (2, 15) for one row), built from kron embeddings:
    body.sigma x j.sigma, and local_self.sigma + (probe-local strength) j.sigma."""
    body, probe = k + 1, embed(_sigma(forms.probe_axis[index]), 3)
    entangling = embed(_sigma(forms.body[index, k]), body) @ probe
    local = embed(_sigma(np.reshape(coeffs, (-1, 2, 15))[index, k, 9:12]), body)
    return entangling, local + forms.probe_strength[index, k] * probe


def form_coefficients(body, local_self, probe_axis, probe_strength) -> np.ndarray:
    """(N, 2, 15) coefficients of N pairs in the canonical form ``closed_form_spectra`` takes: pair k's
    coupling is the outer product body_k x j, its body-local vector local_self_k and its probe-local
    vector probe_strength_k j."""
    n = len(body)
    coeffs = np.zeros((n, 2, 15))
    coeffs[..., :9] = (body[..., :, None] * probe_axis[:, None, None, :]).reshape(n, 2, 9)
    coeffs[..., 9:12] = local_self
    coeffs[..., 12:] = probe_strength[..., None] * probe_axis[:, None, :]
    return coeffs


def closed_form_plan(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) of N pairs given as (N, 2, 15) coefficients, as ``eigh_spectra`` returns them, but in
    closed form: ``closed_form_spectra`` of their ``canonical_forms`` and the coefficients' body-local
    vectors. Meaningful only for rows with a form (``canonical_forms(coeffs).ok``), which the caller checks."""
    forms = canonical_forms(coeffs)
    return closed_form_spectra(forms.body, coeffs[..., 9:12], forms.probe_axis, forms.probe_strength)


# Levi-Civita symbol: (a x b)_i = eps_ijk a_j b_k
LEVI_CIVITA = np.zeros((3, 3, 3))
LEVI_CIVITA[0, 1, 2] = LEVI_CIVITA[1, 2, 0] = LEVI_CIVITA[2, 0, 1] = 1.0
LEVI_CIVITA[0, 2, 1] = LEVI_CIVITA[2, 1, 0] = LEVI_CIVITA[1, 0, 2] = -1.0
# C = [local_probe; coupling rows] as an index into the 15 coefficients
PROBE_ROWS = np.r_[12:15, 0:9]


def probe_rows(coeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(unit, C, D) of N pairs: the (N, 2, 15) coefficients each scaled by its pair's largest
    |coefficient| (a zero pair as is), and the (N, 4, 3) probe vectors of each pair."""
    coeffs = np.reshape(np.asarray(coeffs, dtype=float), (-1, 2, 15))
    top = np.abs(coeffs).max(axis=-1, keepdims=True)
    unit = coeffs / np.where(top > 0.0, top, 1.0)
    rows = unit[..., PROBE_ROWS].reshape(-1, 2, 4, 3)
    return unit, rows[:, 0], rows[:, 1]


def levi_civita_cross(c, d) -> np.ndarray:
    """C_i x D_k of (N, 4, 3) stacks as one Levi-Civita einsum, [row, i, k, component]."""
    return np.einsum("abc,nib,nkc->nika", LEVI_CIVITA, c, d)


def svd_probe_axis(coeffs) -> np.ndarray:
    """The shared probe axis of N pairs, (N, 3): the top right singular vector of one stacked
    (N, 8, 3) SVD of the eight scaled probe vectors, the first component above ``AXIS_SIGN_TOL``
    in magnitude positive, and z where all the vectors are 0."""
    _, c, d = probe_rows(coeffs)
    _, s, vt = np.linalg.svd(np.concatenate([c, d], axis=1), full_matrices=False)
    j = vt[:, 0]
    for row, axis in enumerate(j):
        first = np.flatnonzero(np.abs(axis) > AXIS_SIGN_TOL)
        if first.size and axis[first[0]] < 0.0:
            j[row] = -axis
    return np.where(s[:, :1] > 0.0, j, [0.0, 0.0, 1.0])


def svd_status(coeffs, tol: float = 1e-10) -> np.ndarray:
    """Status of N pairs by the parent route: 1 where sqrt(32 sum |C_i x D_k|^2 / (64 q13 q23))
    of the einsum cross products is above ``tol`` (q the sums of squared scaled coefficients),
    otherwise 2 where some pair's probe vectors P leave the SVD axis j,
    ||P - (P j) j^T||^2 > tol^2 q, and 0 where none does."""
    unit, c, d = probe_rows(coeffs)
    cross = levi_civita_cross(c, d)
    zero = ~unit.any(axis=-1)
    q = np.vecdot(unit, unit) + zero
    commutes = zero.any(axis=-1) | (np.sqrt(np.einsum("nikc,nikc->n", cross, cross) / (2.0 * q[:, 0] * q[:, 1])) <= tol)
    j = svd_probe_axis(coeffs)
    rows = np.stack([c, d], axis=1)
    off_axis = rows - (rows @ j[:, None, :, None]) * j[:, None, None, :]
    deviation2 = np.einsum("nkic,nkic->nk", off_axis, off_axis)
    return np.where(commutes, np.where((deviation2 > tol * tol * q).any(axis=-1), 2, 0), 1)


def reference_fold(chunks, tol: float = 1e-9) -> tuple[list[dict], float, dict]:
    """(failures, max violation, stats) of a suite whose compute handed out ``chunks``, a list of
    (violations, context) pairs in trial order, folded one trial at a time: a violation above
    ``tol`` or not finite is a failure, and a NaN, once seen, stays the maximum (of the
    violations, and of each ``max_`` context column)."""

    def sticky_max(current, value):
        return value if math.isnan(value) else max(current, value)  # max(nan, x) is nan

    failures, max_violation, stats, index = [], -math.inf, {}, 0
    for violations, context in chunks:
        columns = {key: np.asarray(column).tolist() for key, column in context.items()}
        for n, violation in enumerate(np.asarray(violations).tolist()):
            max_violation = sticky_max(max_violation, violation)
            if not (math.isfinite(violation) and violation <= tol):
                failures.append({"trial": index, "violation": violation, **{key: column[n] for key, column in columns.items()}})
            for key, column in columns.items():
                if key.startswith("max_"):
                    stats[key] = sticky_max(stats.get(key, -math.inf), column[n])
            index += 1
    return failures, max_violation, stats


def oracle_unitary(h: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) by scipy's Pade approximant; an array of times gives one stacked expm call,
    shape (*t.shape, 8, 8)."""
    return expm(-1j * np.asarray(h, dtype=complex) * np.asarray(t, dtype=float)[..., None, None])


def oracle_evolve(h: np.ndarray, psi0: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) psi0, one row per time for an array of times."""
    return oracle_unitary(h, t) @ psi0


def oracle_rho12(psi: np.ndarray) -> np.ndarray:
    m = np.asarray(psi, dtype=complex).reshape(4, 2)
    return np.einsum("ak,bk->ab", m, m.conj())


def oracle_kraus(h: np.ndarray, phi: np.ndarray, basis, t: float) -> list[np.ndarray]:
    """Kraus operators A_k = (1 x <b_k|) U(t) (1 x |phi>) of qubits 1,2 for a probe starting in |phi>.

    U(t) = expm(-i h t); the probe bra and ket act through kron embeddings.
    """
    u = oracle_unitary(h, t)
    ket = np.kron(np.eye(4), np.asarray(phi, dtype=complex).reshape(2, 1))
    return [np.kron(np.eye(4), np.asarray(b, dtype=complex).reshape(1, 2).conj()) @ u @ ket for b in basis]


def oracle_rho12_kraus(h: np.ndarray, chi: np.ndarray, phi: np.ndarray, basis, t: float) -> np.ndarray:
    """rho_12(t) of the initial state chi x phi as the mixed state sum_k A_k |chi><chi| A_k†.

    Valid for any orthonormal probe basis: the Kraus route to ``oracle_rho12``
    of the evolved state, a mixed state for ``oracle_concurrence_mixed``
    (Wootters, PRL 80, 2245 (1998)).
    """
    rho = np.outer(chi, np.conj(chi))
    return sum(a @ rho @ a.conj().T for a in oracle_kraus(h, phi, basis, t))


def oracle_probe_measurement(psi: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities and conditional 1,2 tangles of measuring qubit 3 of ``psi`` along a
    unit axis n: the projectors (1 +- n.sigma)/2 on qubit 3, embedded with kron, outcomes (+, -)."""
    probs, tangles = [], []
    for sign in (1.0, -1.0):
        branch = np.kron(np.eye(4), (I2 + sign * _sigma(axis)) / 2.0) @ np.asarray(psi, dtype=complex)
        p = float(np.vdot(branch, branch).real)
        probs.append(p)
        tangles.append(oracle_tangle12_pure3(branch / math.sqrt(p)))
    return np.array(probs), np.array(tangles)


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


def axis_eigenbasis(axis) -> tuple[np.ndarray, np.ndarray]:
    """(plus, minus) eigenvectors of sigma_axis for a nonzero axis of any length: the package's
    ``axis_eigenbases`` of its unit row."""
    basis = axis_eigenbases(directions(np.asarray(axis, dtype=float))[1])
    return basis[..., :, 0], basis[..., :, 1]


def reference_axis(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def reference_rotation(q) -> np.ndarray:
    """Unit quaternion (cos a, sin a n) of exp(-i a sigma_n) from a Gaussian quadruple q: Haar-distributed on SU(2)."""
    return q / np.linalg.norm(q)


def quaternion(angle, axis) -> np.ndarray:
    """(cos angle, sin angle axis) for a unit axis: exp(-i angle sigma_axis) as ``rotation_matrices`` takes it."""
    return np.concatenate([[np.cos(angle)], np.sin(angle) * np.asarray(axis, dtype=float)])


def reference_pair(rng, locals_mode: str = "none") -> np.ndarray:
    """(2, 15) coefficients of a random commuting pair: rank-one couplings (strength * body axis) x j
    through one probe axis j, strengths in (0, 2]; 'probe' adds probe-local terms on j, 'full' also
    body-local terms."""
    u, w, j = reference_axis(rng), reference_axis(rng), reference_axis(rng)
    coeffs = np.zeros((2, 15))
    coeffs[0, :9] = np.outer((2.0 - rng.uniform(0.0, 2.0)) * u, j).ravel()
    coeffs[1, :9] = np.outer((2.0 - rng.uniform(0.0, 2.0)) * w, j).ravel()
    if locals_mode != "none":
        coeffs[0, 12:] = rng.uniform(-1.0, 1.0) * j
        coeffs[1, 12:] = rng.uniform(-1.0, 1.0) * j
    if locals_mode == "full":
        coeffs[0, 9:12] = rng.uniform(0.0, 1.0) * reference_axis(rng)
        coeffs[1, 9:12] = rng.uniform(0.0, 1.0) * reference_axis(rng)
    return coeffs
