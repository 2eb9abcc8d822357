"""Three-qubit pure states: the analyzed initial-state classes and local rotations.

States are plain complex 8-vectors in the logical basis, index b = 4*b1 +
2*b2 + b3. Constructors validate normalization to the structural tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import I2, axis_sigma, dagger, embed_single, kron, unit_axis
from .tolerances import STRUCTURAL_TOL

Z_AXIS = (0.0, 0.0, 1.0)


def _as_vector(v, dim: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (dim,):
        raise ValueError(f"{what} must have dimension {dim}, got {v.shape}")
    return v


def _check_normalized(v: np.ndarray, what: str) -> np.ndarray:
    n2 = float(np.vdot(v, v).real)
    if abs(n2 - 1.0) > STRUCTURAL_TOL:
        raise ValueError(f"{what} must be normalized: |norm^2 - 1| = {abs(n2 - 1.0):.3e}")
    return v


def _check_schmidt(a: float, b: float):
    if a < 0 or b < 0:
        raise ValueError("Schmidt coefficients must be real and nonnegative")
    if abs(a * a + b * b - 1.0) > STRUCTURAL_TOL:
        raise ValueError(f"Schmidt coefficients must satisfy a^2 + b^2 = 1, got {a * a + b * b!r}")


def axis_eigenbasis(axis) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (plus, minus) eigenvectors of sigma_axis.

    Phase convention: plus = (cos(theta/2), e^{i phi} sin(theta/2)) from the
    Bloch angles of the axis; minus has a real nonnegative first component
    (fixed to |1> for the +z axis where that component vanishes).
    """
    x, y, z = unit_axis(axis)
    # half-angle components from (transverse radius, z); arccos would lose
    # ~sqrt(eps) accuracy near the poles
    r = np.hypot(x, y)
    if z >= 0.0:
        d = np.hypot(1.0 + z, r)
        c, s = (1.0 + z) / d, r / d
    else:
        d = np.hypot(1.0 - z, r)
        c, s = r / d, (1.0 - z) / d
    phase = np.exp(1j * np.arctan2(y, x))
    plus = np.array([c, phase * s], dtype=complex)
    if s == 0.0:
        minus = np.array([0.0, 1.0], dtype=complex)
    else:
        minus = np.array([s, -phase * c], dtype=complex)
    return plus, minus


@dataclass(frozen=True)
class LocalRotation:
    """Single-qubit rotation exp(-i angle sigma_axis) on one qubit."""

    qubit: int
    angle: float = 0.0
    axis: tuple[float, float, float] = Z_AXIS

    def __post_init__(self):
        if self.qubit not in (1, 2, 3):
            raise ValueError(f"qubit index must be 1, 2 or 3, got {self.qubit}")

    def matrix(self) -> np.ndarray:
        return np.cos(self.angle) * I2 - 1j * np.sin(self.angle) * axis_sigma(self.axis)


def apply_local(rotation: LocalRotation, psi) -> np.ndarray:
    """Apply a single-qubit rotation; norm and every entanglement measure are preserved."""
    psi = _as_vector(psi, 8, "state")
    return embed_single(rotation.matrix(), rotation.qubit) @ psi


def probe_components(vec, axis) -> tuple[complex, complex]:
    """Components (c, d) of a qubit state in the (plus, minus) eigenbasis of an axis."""
    vec = _as_vector(vec, 2, "qubit state")
    plus, minus = axis_eigenbasis(axis)
    return complex(np.vdot(plus, vec)), complex(np.vdot(minus, vec))


def basis_matrix(axes) -> np.ndarray:
    """Unitary whose columns are the product (plus/minus) eigenvectors of three axes."""
    factors = []
    for axis in axes:
        plus, minus = axis_eigenbasis(axis)
        factors.append(np.column_stack([plus, minus]))
    return kron(*factors)


def to_axis_basis(psi, axes) -> np.ndarray:
    """Amplitudes of a logical-basis state in the product eigenbasis of the given axes."""
    return dagger(basis_matrix(axes)) @ _as_vector(psi, 8, "state")


def from_axis_basis(amps, axes) -> np.ndarray:
    """Logical-basis state from amplitudes in the product eigenbasis of the given axes."""
    return basis_matrix(axes) @ _as_vector(amps, 8, "amplitudes")


# State-class constructors -------------------------------------------------

def fully_separable(
    r1: LocalRotation,
    r2: LocalRotation,
    r3: LocalRotation,
    axes=(Z_AXIS, Z_AXIS, Z_AXIS),
) -> np.ndarray:
    """Product state (R1 x R2 x R3) |+++> on the plus eigenvectors of the reference axes."""
    rotations = (r1, r2, r3)
    if sorted(r.qubit for r in rotations) != [1, 2, 3]:
        raise ValueError("rotations must target distinct qubits 1, 2 and 3")
    singles = []
    for rotation, axis in zip(sorted(rotations, key=lambda r: r.qubit), axes):
        plus, _ = axis_eigenbasis(axis)
        singles.append(rotation.matrix() @ plus)
    return kron(*singles)


def bipartite_12(a: float, b: float, probe) -> np.ndarray:
    """(a|00> + b|11>) on qubits 1,2 with an arbitrary probe state on qubit 3."""
    _check_schmidt(a, b)
    probe = _check_normalized(_as_vector(probe, 2, "probe state"), "probe state")
    chi = np.zeros(4, dtype=complex)
    chi[0], chi[3] = a, b
    return kron(chi, probe)


def bipartite_23(a: float, b: float, spectator) -> np.ndarray:
    """Qubit 1 spectator, (a|00> + b|11>) on qubits 2,3."""
    _check_schmidt(a, b)
    spectator = _check_normalized(_as_vector(spectator, 2, "spectator state"), "spectator state")
    chi = np.zeros(4, dtype=complex)
    chi[0], chi[3] = a, b
    return kron(spectator, chi)


def bipartite_13(a: float, b: float, spectator) -> np.ndarray:
    """(a|00> + b|11>) across qubits 1 and 3, with qubit 2 a spectator."""
    _check_schmidt(a, b)
    spectator = _check_normalized(_as_vector(spectator, 2, "spectator state"), "spectator state")
    psi = np.zeros(8, dtype=complex)
    for b2 in (0, 1):
        psi[4 * 0 + 2 * b2 + 0] += a * spectator[b2]
        psi[4 * 1 + 2 * b2 + 1] += b * spectator[b2]
    return psi


def ghz_general(a: float, b: float) -> np.ndarray:
    """a|000> + b|111>; every two-qubit marginal is unentangled."""
    _check_schmidt(a, b)
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[7] = a, b
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
