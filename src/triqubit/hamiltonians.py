"""Pairwise Pauli Hamiltonians on qubit pairs (1,3) and (2,3).

A pair Hamiltonian is stored in coefficient form: a 3x3 real coupling tensor
contracting Pauli operators of the non-probe qubit against those of qubit 3,
plus single-body coefficient vectors on each qubit. When the two pair
Hamiltonians commute, each coupling tensor is rank one and both share a single
probe axis; ``canonical_commuting_form`` extracts that structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import PAULIS, commutator, embed_single, frob, unit_axis
from .tolerances import SPECTRAL_TOL

PAIRS = ((1, 3), (2, 3))
Z_AXIS = (0.0, 0.0, 1.0)


class NotCommutingError(ValueError):
    """The two pair Hamiltonians do not commute."""


class NotRankOneError(ValueError):
    """A coupling tensor is not an outer product of a body axis and a probe axis."""


def _single_table(qubit: int) -> np.ndarray:
    return np.stack([embed_single(p, qubit) for p in PAULIS])


def _coupling_table(body: int) -> np.ndarray:
    return np.stack(
        [
            np.stack([embed_single(PAULIS[i], body) @ embed_single(PAULIS[j], 3) for j in range(3)])
            for i in range(3)
        ]
    )


# embedding tables, indexed by Pauli indices; to_matrix is then one contraction
_SINGLE = {q: _single_table(q) for q in (1, 2, 3)}
_COUPLING = {body: _coupling_table(body) for body in (1, 2)}


@dataclass(frozen=True)
class PauliPairHamiltonian:
    """Two-body Hamiltonian on one qubit pair, in Pauli coefficient form.

    ``coupling[i, j]`` multiplies (pauli_i on the body qubit) x (pauli_j on
    qubit 3); ``local_self`` and ``local_probe`` are the single-body
    coefficient vectors. All coefficients are real (hbar = 1).
    """

    coupling: np.ndarray
    local_self: np.ndarray = field(default_factory=lambda: np.zeros(3))
    local_probe: np.ndarray = field(default_factory=lambda: np.zeros(3))
    pair: tuple[int, int] = (1, 3)

    def __post_init__(self):
        coupling = np.asarray(self.coupling, dtype=float)
        if coupling.shape != (3, 3):
            raise ValueError(f"coupling tensor must be 3x3, got {coupling.shape}")
        object.__setattr__(self, "coupling", coupling)
        for name in ("local_self", "local_probe"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector, got {vec.shape}")
            object.__setattr__(self, name, vec)
        if not all(np.isfinite(coupling.ravel())) or not all(
            np.isfinite(np.concatenate([self.local_self, self.local_probe]))
        ):
            raise ValueError("coefficients must be finite")
        if tuple(self.pair) not in PAIRS:
            raise ValueError(f"pair must be (1,3) or (2,3), got {self.pair}")

    @property
    def body_qubit(self) -> int:
        return self.pair[0]

    def to_matrix(self) -> np.ndarray:
        """8x8 Hermitian embedding, identity on the absent qubit."""
        cached = getattr(self, "_matrix", None)
        if cached is None:
            body = self.body_qubit
            cached = (
                np.einsum("ij,ijab->ab", self.coupling, _COUPLING[body])
                + np.einsum("k,kab->ab", self.local_self, _SINGLE[body])
                + np.einsum("k,kab->ab", self.local_probe, _SINGLE[3])
            )
            object.__setattr__(self, "_matrix", cached)
        return cached


@dataclass(frozen=True)
class CommutingForm:
    """Canonical decomposition of one pair Hamiltonian from a commuting pair.

    The coupling is ``coupling_strength * sigma_(coupling_axis_self) (x)
    sigma_(probe_axis)``; the body-local term is ``local_self_strength *
    sigma_(local_self_axis)``; the probe-local term is constrained to the
    shared probe axis with signed coefficient ``local_probe_strength``.
    """

    pair: tuple[int, int]
    coupling_axis_self: tuple[float, float, float]
    coupling_strength: float
    probe_axis: tuple[float, float, float]
    local_self_axis: tuple[float, float, float] = Z_AXIS
    local_self_strength: float = 0.0
    local_probe_strength: float = 0.0

    def entangling_matrix(self) -> np.ndarray:
        body = self.pair[0]
        if self.coupling_strength == 0.0:
            return np.zeros((8, 8), dtype=complex)
        tensor = self.coupling_strength * np.outer(self.coupling_axis_self, self.probe_axis)
        return np.einsum("ij,ijab->ab", tensor, _COUPLING[body])

    def local_matrix(self) -> np.ndarray:
        body = self.pair[0]
        return np.einsum(
            "k,kab->ab", self.local_self_strength * np.asarray(self.local_self_axis), _SINGLE[body]
        ) + np.einsum(
            "k,kab->ab", self.local_probe_strength * np.asarray(self.probe_axis), _SINGLE[3]
        )

    def to_matrix(self) -> np.ndarray:
        return self.entangling_matrix() + self.local_matrix()


def commutes(h13: PauliPairHamiltonian, h23: PauliPairHamiltonian, tol: float = SPECTRAL_TOL) -> bool:
    """Whether the 8x8 embeddings commute.

    The threshold is relative, so H -> H/s gives the same answer: the
    commutator of the unit-Frobenius-norm matrices is compared against ``tol``.
    Normalising first keeps its entries out of overflow and underflow.
    """
    m13, m23 = h13.to_matrix(), h23.to_matrix()
    n13, n23 = frob(m13), frob(m23)
    return n13 == 0.0 or n23 == 0.0 or frob(commutator(m13 / n13, m23 / n23)) <= tol


def commutator_norm(h13: PauliPairHamiltonian, h23: PauliPairHamiltonian) -> float:
    return frob(commutator(h13.to_matrix(), h23.to_matrix()))


def _sign_fix(axis: np.ndarray) -> int:
    """Sign making the first nonzero component of ``axis`` positive."""
    for component in axis:
        if abs(component) > 1e-14:
            return 1 if component > 0 else -1
    return 1


def _rank_one_factors(coupling: np.ndarray, tol: float):
    """(strength, body_axis, probe_axis) of a rank-1 coupling tensor, or None if zero.

    The probe axis is normalized to have its first nonzero component positive;
    the body axis absorbs the sign so the strength stays nonnegative.
    """
    u, s, vt = np.linalg.svd(coupling)
    if s[0] == 0.0:
        return None
    if s[1] > tol * s[0]:
        raise NotRankOneError(
            "coupling tensor is not (body axis) x (probe axis): "
            f"second singular value {s[1]:.3e} vs first {s[0]:.3e}"
        )
    body_axis, probe_axis = u[:, 0], vt[0, :]
    flip = _sign_fix(probe_axis)
    return float(s[0]), flip * body_axis, flip * probe_axis


def _local_self_form(vec: np.ndarray):
    n = frob(vec)
    if n == 0.0:
        return Z_AXIS, 0.0
    return tuple(vec / n), n


def canonical_commuting_form(
    h13: PauliPairHamiltonian, h23: PauliPairHamiltonian, tol: float = SPECTRAL_TOL
) -> tuple[CommutingForm, CommutingForm]:
    """Extract the shared-probe-axis canonical forms of a commuting pair.

    Raises NotCommutingError if the embeddings do not commute (also when the
    probe axes fail to line up), NotRankOneError if a nonzero coupling tensor
    does not factor into a body axis and a probe axis.
    """
    if {tuple(h13.pair), tuple(h23.pair)} != {(1, 3), (2, 3)}:
        raise ValueError("expected one Hamiltonian per pair (1,3) and (2,3)")
    if tuple(h13.pair) != (1, 3):
        h13, h23 = h23, h13
    if not commutes(h13, h23, tol=tol):
        raise NotCommutingError(
            f"pair Hamiltonians do not commute (commutator norm {commutator_norm(h13, h23):.3e})"
        )

    fac13 = _rank_one_factors(h13.coupling, tol)
    fac23 = _rank_one_factors(h23.coupling, tol)

    if fac13 is not None and fac23 is not None:
        if np.linalg.norm(fac13[2] - fac23[2]) > 1e-8:
            raise NotCommutingError("coupling tensors do not share a probe axis")
        shared = (fac13[2] + fac23[2]) / 2
        shared = shared / np.linalg.norm(shared)
    elif fac13 is not None or fac23 is not None:
        shared = (fac13 or fac23)[2]
    else:
        # No coupling anywhere: any probe-local terms must be mutually
        # parallel for the pair to commute; reuse their direction.
        for vec in (h13.local_probe, h23.local_probe):
            if vec.any():
                shared = unit_axis(vec)
                shared = shared * _sign_fix(shared)
                break
        else:
            shared = np.array(Z_AXIS)

    def build(h: PauliPairHamiltonian, fac) -> CommutingForm:
        strength, body_axis = (fac[0], fac[1]) if fac is not None else (0.0, np.array(Z_AXIS))
        self_axis, self_strength = _local_self_form(h.local_self)
        probe_coeff = float(h.local_probe @ shared)
        residual = frob(h.local_probe - probe_coeff * shared)
        if residual > 1e-8 * frob(h.local_probe):
            raise NotCommutingError(
                f"probe-local term is not aligned with the shared probe axis (residual {residual:.3e})"
            )
        return CommutingForm(
            pair=tuple(h.pair),
            coupling_axis_self=tuple(body_axis),
            coupling_strength=strength,
            probe_axis=tuple(shared),
            local_self_axis=self_axis,
            local_self_strength=self_strength,
            local_probe_strength=probe_coeff,
        )

    forms = build(h13, fac13), build(h23, fac23)
    for h, form in zip((h13, h23), forms):
        dev = np.max(np.abs(form.to_matrix() - h.to_matrix()))
        if dev > SPECTRAL_TOL * frob(h.to_matrix()):
            raise NotCommutingError(f"canonical form fails to reconstruct the input (deviation {dev:.3e})")
    return forms


# Named presets ----------------------------------------------------------

def heisenberg_chain(g: float) -> tuple[PauliPairHamiltonian, PauliPairHamiltonian]:
    """Isotropic chain 1-3-2: g * sigma1.sigma3 + g * sigma2.sigma3 (noncommuting)."""
    return (
        PauliPairHamiltonian(coupling=g * np.eye(3), pair=(1, 3)),
        PauliPairHamiltonian(coupling=g * np.eye(3), pair=(2, 3)),
    )


def qnd_zz(g: float) -> tuple[PauliPairHamiltonian, PauliPairHamiltonian]:
    """Probe-mediated zz coupling, (g/4) sigma_z x sigma_z per pair.

    The g/4 prefactor comes from writing both the probe's and each body
    qubit's angular momentum in spin-1/2 units (sigma_z / 2), so the total is
    g * (sz1/2 + sz2/2) * (sz3/2).
    """
    coupling = np.zeros((3, 3))
    coupling[2, 2] = g / 4.0
    return (
        PauliPairHamiltonian(coupling=coupling.copy(), pair=(1, 3)),
        PauliPairHamiltonian(coupling=coupling.copy(), pair=(2, 3)),
    )


PRESETS = {"heisenberg_chain": heisenberg_chain, "qnd_zz": qnd_zz}
