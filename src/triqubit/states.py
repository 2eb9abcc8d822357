"""Three-qubit pure states: the analyzed initial-state classes and local rotations.

States are plain complex 8-vectors in the logical basis, index b = 4*b1 +
2*b2 + b3. Constructors validate normalization to the structural tolerance;
the bipartite and GHZ constructors also build stacks of states, one per row.
A rotation exp(-i angle sigma_axis) is an (angle, axis) row for
``rotation_matrices``. Axis eigenbases, rotation matrices, ``rotate`` and
``from_axis_basis`` take stacked inputs, one row per state; a rotation is
contracted on the (N, 2, 2, 2) amplitude tensor instead of an 8x8 embedding.
"""

from __future__ import annotations

import numpy as np

from .linalg import kron, unit_axis
from .tolerances import STRUCTURAL_TOL

Z_AXIS = (0.0, 0.0, 1.0)


def _as_vector(v, dim: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (dim,):
        raise ValueError(f"{what} must have dimension {dim}, got {v.shape}")
    return v


def _check_normalized(v: np.ndarray, what: str) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # entries past ~1e154 give an infinite deviation
        deviation = np.abs(np.vecdot(v, v).real - 1.0)
    if (deviation > STRUCTURAL_TOL).any():
        raise ValueError(f"{what} must be normalized: |norm^2 - 1| = {np.max(deviation):.3e}")
    return v


def _check_schmidt(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if (a < 0).any() or (b < 0).any():
        raise ValueError("Schmidt coefficients must be real and nonnegative")
    with np.errstate(over="ignore"):  # past ~1e154 the sum is infinite, and rejected
        norm2 = np.ravel(a * a + b * b)
    off = norm2[np.abs(norm2 - 1.0) > STRUCTURAL_TOL]
    if off.size:
        raise ValueError(f"Schmidt coefficients must satisfy a^2 + b^2 = 1, got {float(off[0])!r}")


def _schmidt_states(a, b, vec, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Checked a|00> + b|11>, shape (..., 4), and single-qubit states ``vec`` (..., 2): one or stacked rows."""
    _check_schmidt(a, b)
    vec = np.asarray(vec, dtype=complex)
    if vec.shape[-1:] != (2,):
        raise ValueError(f"{what} must have dimension 2, got {vec.shape}")
    chi = np.zeros((*np.shape(a), 4), dtype=complex)
    chi[..., 0], chi[..., 3] = a, b
    return chi, _check_normalized(vec, what)


def axis_eigenbases(axes) -> np.ndarray:
    """Eigenbases of sigma_axis for axes of shape (..., 3), shape (..., 2, 2): columns plus, minus.

    Phase convention: plus = (cos(theta/2), e^{i phi} sin(theta/2)) from the
    Bloch angles of the axis, with e^{i phi} = 1 on the z axis; minus has a
    real nonnegative first component (fixed to |1> for the +z axis where that
    component vanishes).
    """
    return unit_axis_eigenbases(unit_axis(axes))


def unit_axis_eigenbases(unit) -> np.ndarray:
    """``axis_eigenbases`` of axes that are already unit rows, with no trigonometry: e^{i phi} is
    (x + i y) / |(x, y)|."""
    x, y, z = unit[..., 0], unit[..., 1], unit[..., 2]
    # half-angle components from (transverse radius, 1 + |z|); arccos would lose
    # ~sqrt(eps) accuracy near the poles
    r = np.hypot(x, y)
    pole = 1.0 + np.abs(z)
    d = np.hypot(pole, r)
    north = z >= 0.0
    c = np.where(north, pole, r) / d
    s = np.where(north, r, pole) / d
    # e^{i phi} = (x + i y) / r, divided as two reals (a complex division by a subnormal r
    # overflows); 1 where r = 0
    axial = r == 0.0
    radius = r + axial
    phase = np.empty(r.shape, dtype=complex)
    phase.real, phase.imag = x / radius + axial, y / radius
    basis = np.empty((*x.shape, 2, 2), dtype=complex)
    basis[..., 0, 0], basis[..., 1, 0] = c, phase * s
    basis[..., 0, 1], basis[..., 1, 1] = s, np.where(s == 0.0, 1.0, -phase * c)
    return basis


def axis_eigenbasis(axis) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (plus, minus) eigenvectors of sigma_axis: the one-axis ``axis_eigenbases``."""
    basis = axis_eigenbases(axis)
    return basis[:, 0], basis[:, 1]


def rotation_matrices(angles, axes) -> np.ndarray:
    """exp(-i angle sigma_axis) for N angles and (N, 3) axes, shape (N, 2, 2)."""
    return unit_rotation_matrices(angles, unit_axis(axes))


def unit_rotation_matrices(angles, unit) -> np.ndarray:
    """exp(-i angle sigma_axis) = cos(angle) - i sin(angle) axis.sigma for angles of any shape and
    unit axes of that shape plus (3,), taken as given; shape (..., 2, 2)."""
    angles = np.asarray(angles, dtype=float)
    c, sn = np.cos(angles), np.sin(angles)[..., None] * unit  # sin(angle) (x, y, z)
    m = np.empty((*angles.shape, 2, 2), dtype=complex)
    re, im = m.real, m.imag
    re[..., 0, 0] = re[..., 1, 1] = c
    im[..., 0, 0], im[..., 1, 1] = -sn[..., 2], sn[..., 2]
    re[..., 0, 1], re[..., 1, 0] = -sn[..., 1], sn[..., 1]
    im[..., 0, 1] = im[..., 1, 0] = -sn[..., 0]
    return m


_ROTATE = {1: "nab,nbjk->najk", 2: "nab,nibk->niak", 3: "nab,nijb->nija"}


def rotate(psis, qubit: int, matrices) -> np.ndarray:
    """Apply one (N, 2, 2) single-qubit matrix per row to qubit 1, 2 or 3 of N states, shape (N, 8)."""
    psis = np.asarray(psis, dtype=complex).reshape(-1, 2, 2, 2)
    return np.einsum(_ROTATE[qubit], matrices, psis).reshape(-1, 8)


def from_axis_basis(amps, axes) -> np.ndarray:
    """Logical-basis states from amplitudes in the product eigenbasis of three axes.

    ``amps`` has shape (..., 8) and ``axes`` (..., 3, 3), one axis per qubit;
    the result has the shape of ``amps``.
    """
    b = axis_eigenbases(axes)
    a = np.asarray(amps, dtype=complex).reshape(*b.shape[:-3], 2, 2, 2)
    psi = np.einsum("...ia,...jb,...kc,...abc->...ijk", b[..., 0, :, :], b[..., 1, :, :], b[..., 2, :, :], a)
    return psi.reshape(*b.shape[:-3], 8)


# State-class constructors -------------------------------------------------

def fully_separable(angles, rotation_axes, axes=(Z_AXIS, Z_AXIS, Z_AXIS)) -> np.ndarray:
    """Product state (R1 x R2 x R3) |+++> on the plus eigenvectors of the reference ``axes``, with
    R_k = exp(-i angles[k] sigma_(rotation_axes[k])) on qubit k + 1."""
    plus = axis_eigenbases(axes)[..., :, 0]
    return kron(*(rotation @ p for rotation, p in zip(rotation_matrices(angles, rotation_axes), plus)))


def bipartite_12(a, b, probe) -> np.ndarray:
    """(a|00> + b|11>) on qubits 1,2 with an arbitrary probe state on qubit 3; stacked (N,) a, b
    and (N, 2) probes give (N, 8) states."""
    chi, probe = _schmidt_states(a, b, probe, "probe state")
    return (chi[..., :, None] * probe[..., None, :]).reshape(*chi.shape[:-1], 8)


def bipartite_23(a, b, spectator) -> np.ndarray:
    """Qubit 1 spectator, (a|00> + b|11>) on qubits 2,3; stacks like ``bipartite_12``."""
    chi, spectator = _schmidt_states(a, b, spectator, "spectator state")
    return (spectator[..., :, None] * chi[..., None, :]).reshape(*chi.shape[:-1], 8)


def bipartite_13(a, b, spectator) -> np.ndarray:
    """(a|00> + b|11>) across qubits 1 and 3, with qubit 2 a spectator; stacks like ``bipartite_12``."""
    chi, spectator = _schmidt_states(a, b, spectator, "spectator state")
    psi = np.zeros((*chi.shape[:-1], 8), dtype=complex)
    psi[..., [0, 2]] += chi[..., :1] * spectator
    psi[..., [5, 7]] += chi[..., 3:] * spectator
    return psi


def ghz_general(a, b) -> np.ndarray:
    """a|000> + b|111>; every two-qubit marginal is unentangled. Stacked (N,) a, b give (N, 8) states."""
    _check_schmidt(a, b)
    psi = np.zeros((*np.shape(a), 8), dtype=complex)
    psi[..., 0], psi[..., 7] = a, b
    return psi


def zrt(a, b, c, d) -> np.ndarray:
    """a|000> + b|001> + c|010> + d|100>: the zero-residual-tangle class."""
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[1], psi[2], psi[4] = a, b, c, d
    return _check_normalized(psi, "amplitudes")


def triple(f, g, h) -> np.ndarray:
    """f|001> + g|010> + h|100>: the single-excitation boundary of the ZRT class."""
    psi = np.zeros(8, dtype=complex)
    psi[1], psi[2], psi[4] = f, g, h
    return _check_normalized(psi, "amplitudes")


def raw_amplitudes(amps) -> np.ndarray:
    """Arbitrary normalized 8-vector of logical-basis amplitudes."""
    return _check_normalized(_as_vector(amps, 8, "amplitudes").copy(), "amplitudes")
