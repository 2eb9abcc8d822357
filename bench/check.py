"""Independent row checker for the triqubit benchmark.

Imports nothing from ``triqubit``. The reference builds the Hamiltonian and
the initial state from the config's coefficients and evolves with scipy's
Pade ``expm(-iHt)``. Concurrence comes from the singular values of the 2x2
cross matrix phi_j^T (sigma_y x sigma_y) phi_k of the pure three-qubit state
(Wootters, PRL 80, 2245, 1998), the residual tangle from the
Coffman-Kundu-Wootters identity 4 det(rho_1) - C_12^2 - C_13^2 (PRA 61,
052306, 2000), purity from the reduced state and the entanglement of
formation from the binary entropy. A probe outcome's probability and
conditional tangle come from projecting qubit 3 and 4|a00 a11 - a01 a10|^2/p^2.

A row fails when a cell is off by more than ``TOL`` or cannot be parsed; a
call with the wrong exit code fails all of its rows. A call is ``gross`` when
its output is wrong beyond any rounding explanation: a cell off by more than
``GROSS_TOL``, a cell that does not parse, a wrong header or row count, or a
wrong exit code.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

TOL = 1e-9  # the README's physics tolerance
GROSS_TOL = 1e-6
# Below this reference probability the conditional state is undefined to
# within TOL, so the conditional tangle cell is not compared.
CONDITIONAL_MIN_PROB = TOL

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PAULIS = (SX, SY, SZ)
YY = np.kron(SY, SY)
NAMED_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def _on(qubit: int, op: np.ndarray) -> np.ndarray:
    ops = [I2, I2, I2]
    ops[qubit - 1] = op
    return np.kron(np.kron(ops[0], ops[1]), ops[2])


def _sigma(axis) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    return sum(c * p for c, p in zip(n, PAULIS))


def _complex(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def hamiltonian(section: dict) -> np.ndarray:
    """8x8 total Hamiltonian from a config's ``hamiltonian`` section."""
    if "preset" in section:
        g = float(section.get("g", 1.0))
        if section["preset"] == "heisenberg_chain":
            coupling = g * np.eye(3)
        elif section["preset"] == "qnd_zz":
            coupling = np.zeros((3, 3))
            coupling[2, 2] = g / 4.0
        else:
            raise ValueError(f"unknown preset {section['preset']!r}")
        pairs = {"h13": {"coupling": coupling}, "h23": {"coupling": coupling}}
    else:
        pairs = section["pairwise"]
    h = np.zeros((8, 8), dtype=complex)
    for key, body in (("h13", 1), ("h23", 2)):
        pair = pairs[key]
        coupling = np.asarray(pair["coupling"], dtype=float)
        for i in range(3):
            for j in range(3):
                h += coupling[i, j] * _on(body, PAULIS[i]) @ _on(3, PAULIS[j])
        for k in range(3):
            h += float(pair.get("local_self", (0, 0, 0))[k]) * _on(body, PAULIS[k])
            h += float(pair.get("local_probe", (0, 0, 0))[k]) * _on(3, PAULIS[k])
    return h


def _plus(axis) -> np.ndarray:
    w, v = np.linalg.eigh(_sigma(axis))
    return v[:, int(np.argmax(w))]


def _eigenbasis(axis) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(_sigma(axis))
    order = np.argsort(w)[::-1]
    return v[:, order[0]], v[:, order[1]]


def _ket(bits: str) -> np.ndarray:
    psi = np.zeros(8, dtype=complex)
    psi[int(bits, 2)] = 1.0
    return psi


def initial_state(section: dict) -> np.ndarray:
    """Normalized 8-vector (qubit 1 most significant) from an ``initial_state`` section."""
    cls, p = section["class"], section.get("params", {})
    if cls == "fully_separable":
        rotations = {r["qubit"]: r for r in p.get("rotations", [])}
        axes = p.get("axes", [(0.0, 0.0, 1.0)] * 3)
        singles = []
        for q in (1, 2, 3):
            r = rotations.get(q, {})
            rot = expm(-1j * float(r.get("angle", 0.0)) * _sigma(r.get("axis", (0.0, 0.0, 1.0))))
            singles.append(rot @ _plus(axes[q - 1]))
        return np.kron(np.kron(singles[0], singles[1]), singles[2])
    if cls in ("bipartite_12", "bipartite_23", "bipartite_13"):
        a, b = float(p["a"]), float(p["b"])
        other = np.array([_complex(v) for v in p.get("probe" if cls == "bipartite_12" else "spectator", [1, 0])])
        pair = np.array([a, 0, 0, b], dtype=complex)
        if cls == "bipartite_12":
            return np.kron(pair, other)
        if cls == "bipartite_23":
            return np.kron(other, pair)
        return sum(other[s] * (a * _ket(f"0{s}0") + b * _ket(f"1{s}1")) for s in (0, 1))
    if cls == "ghz_general":
        return float(p["a"]) * _ket("000") + float(p["b"]) * _ket("111")
    if cls == "zrt":
        kets = ("000", "001", "010", "100")
        return sum(_complex(p[k]) * _ket(bits) for k, bits in zip("abcd", kets))
    if cls == "triple":
        return sum(_complex(p[k]) * _ket(bits) for k, bits in zip("fgh", ("001", "010", "100")))
    if cls == "raw_amplitudes":
        return np.array([_complex(v) for v in p["amplitudes"]])
    raise ValueError(f"unknown state class {cls!r}")


def _cross_concurrence(phi: np.ndarray) -> np.ndarray:
    """Concurrence of sum_k |phi_k><phi_k| for phi of shape (T, 4, 2): s1 - s2 of phi^T YY phi."""
    cross = np.einsum("tak,ab,tbl->tkl", phi, YY, phi)
    s = np.linalg.svd(cross, compute_uv=False)
    return s[:, 0] - s[:, 1]


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = -xi * np.log2(xi) - (1.0 - xi) * np.log2(1.0 - xi)
    return out


@dataclass
class SweepReference:
    """Expected CSV of one sweep config: header, times, measure columns and probe outcomes."""

    columns: list[str]
    times: np.ndarray
    values: dict[str, np.ndarray]
    outcomes: list | None = None  # per outcome: (label, prob[T], cond_tangle[T]); None without measurement
    measured_rows: np.ndarray | None = None


def sweep_reference(cfg: dict) -> SweepReference:
    grid = cfg["time_grid"]
    times = np.linspace(float(grid["t_start"]), float(grid["t_end"]), int(grid["steps"]))
    h = hamiltonian(cfg["hamiltonian"])
    psi0 = initial_state(cfg["initial_state"])
    psi = expm(-1j * times[:, None, None] * h[None, :, :]) @ psi0
    amps = psi.reshape(-1, 2, 2, 2)
    phi12 = amps.reshape(-1, 4, 2)
    phi13 = amps.transpose(0, 1, 3, 2).reshape(-1, 4, 2)
    c12, c13 = _cross_concurrence(phi12), _cross_concurrence(phi13)
    rho1 = np.einsum("tax,tbx->tab", amps.reshape(-1, 2, 4), amps.reshape(-1, 2, 4).conj())
    rho12 = np.einsum("tak,tbk->tab", phi12, phi12.conj())
    tangle = c12**2
    values = {
        "tangle_12": tangle,
        "concurrence_12": c12,
        "eof_12": _binary_entropy(0.5 + 0.5 * np.sqrt(np.clip(1.0 - tangle, 0.0, None))),
        "residual_tangle": 4.0 * np.linalg.det(rho1).real - c12**2 - c13**2,
        "purity_12": np.einsum("tab,tba->t", rho12, rho12).real,
    }
    measures = list(cfg.get("measures", values))
    ref = SweepReference(columns=["t", *measures], times=times, values={m: values[m] for m in measures})
    measurement = cfg.get("measurement")
    if measurement is not None:
        basis = measurement["basis"]
        if isinstance(basis, str):
            axis, labels = NAMED_AXES[basis], (f"+{basis}", f"-{basis}")
        else:
            axis, labels = basis["axis"], ("+n", "-n")
        ref.outcomes = []
        for label, vec in zip(labels, _eigenbasis(axis)):
            a = phi12 @ vec.conj()
            prob = np.einsum("ta,ta->t", a, a.conj()).real
            det = a[:, 0] * a[:, 3] - a[:, 1] * a[:, 2]
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = 4.0 * np.abs(det) ** 2 / prob**2
            ref.outcomes.append((label, prob, cond))
        ref.measured_rows = np.ones(len(times), dtype=bool)
        if measurement.get("at_time") is not None:
            ref.measured_rows[:] = False
            ref.measured_rows[int(np.argmin(np.abs(times - float(measurement["at_time"]))))] = True
        for k in (1, 2):
            ref.columns += [f"outcome_label_{k}", f"outcome_prob_{k}", f"conditional_tangle_{k}"]
    return ref


@dataclass
class Verdict:
    """Checked operations of one or more calls."""

    attempted: int = 0
    failed: int = 0
    gross: int = 0  # calls with a gross error
    failed_cells: Counter = field(default_factory=Counter)
    max_error: float = 0.0
    notes: list[str] = field(default_factory=list)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.gross += other.gross
        self.failed_cells.update(other.failed_cells)
        self.max_error = max(self.max_error, other.max_error)


def _parse(cell: str) -> float | None:
    """The cell's value, or None when it does not parse or is not finite."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _cell_error(cell: str, expected: float) -> float:
    value = _parse(cell)
    return math.inf if value is None else abs(value - expected)


def check_sweep(text: str | None, exit_code, expect_exit: int, ref: SweepReference, seed: int) -> Verdict:
    """Check one sweep call's CSV text (None when no file was written) against its reference."""
    n = len(ref.times)
    verdict = Verdict(attempted=n)
    lines = text.splitlines() if text is not None else []
    header = lines[0].split(",") if lines else []
    seed_line = lines[1] if len(lines) > 1 else ""
    body = lines[2:]
    if exit_code != expect_exit or text is None:
        problem = f"exit code {exit_code!r}, expected {expect_exit}"
    elif not f"{seed_line} ".startswith(f"# seed={seed} "):
        problem = f"seed comment line {seed_line!r}, expected seed {seed}"
    elif header != ref.columns or len(body) != n:
        problem = f"header {header} / {len(body)} rows, expected {ref.columns} / {n} rows"
    else:
        problem = None
    if problem is not None:
        verdict.failed, verdict.gross = n, 1
        verdict.notes.append(problem)
        return verdict
    measures = list(ref.values)
    for r, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != len(ref.columns):
            verdict.failed, verdict.gross, verdict.max_error = verdict.failed + 1, 1, math.inf
            verdict.failed_cells["<row length>"] += 1
            continue
        errors = {"t": _cell_error(cells[0], ref.times[r])}
        for k, m in enumerate(measures, start=1):
            errors[m] = _cell_error(cells[k], ref.values[m][r])
        if ref.outcomes is not None:
            base = 1 + len(measures)
            for k, (label, prob, cond) in enumerate(ref.outcomes):
                label_cell, prob_cell, cond_cell = cells[base + 3 * k : base + 3 * k + 3]
                if not ref.measured_rows[r]:
                    bad = label_cell or prob_cell or cond_cell
                    errors[f"outcome_label_{k + 1}"] = math.inf if bad else 0.0
                    continue
                errors[f"outcome_label_{k + 1}"] = 0.0 if label_cell == label else math.inf
                errors[f"outcome_prob_{k + 1}"] = _cell_error(prob_cell, prob[r])
                if prob[r] >= CONDITIONAL_MIN_PROB:
                    errors[f"conditional_tangle_{k + 1}"] = _cell_error(cond_cell, cond[r])
                elif cond_cell:
                    # undefined conditional state: any tangle in [0, 1] is acceptable
                    value = _parse(cond_cell)
                    in_range = value is not None and -TOL <= value <= 1.0 + TOL
                    errors[f"conditional_tangle_{k + 1}"] = 0.0 if in_range else math.inf
        bad = [name for name, err in errors.items() if not err <= TOL]
        worst = max(errors.values())
        verdict.max_error = max(verdict.max_error, worst)
        if bad:
            verdict.failed += 1
            verdict.failed_cells.update(bad)
            if not verdict.notes:
                verdict.notes.append(f"row {r} t={ref.times[r]:.6g}: " + ", ".join(f"{b} off by {errors[b]:.3g}" for b in bad))
        if not worst <= GROSS_TOL:
            verdict.gross = 1
    return verdict


_TRIALS = re.compile(r"(\d+) trials")
_MAX_VIOLATION = re.compile(r"max (?:violation|\|tau\(t\*\) - tau\(0\)\| =) (\S+)")


def check_suite(stdout: str, exit_code, expect_exit: int, trials: int) -> Verdict:
    """A suite call passes when it exits as expected and reports the requested trial count.

    A call that exits 4 (property violated) where 0 is expected, with a largest
    violation no bigger than GROSS_TOL, fails all its trials but is not gross:
    the property was missed by rounding, not broken.
    """
    verdict = Verdict(attempted=trials)
    match = _TRIALS.search(stdout)
    if exit_code == expect_exit and match is not None and int(match.group(1)) == trials:
        return verdict
    verdict.failed = trials
    verdict.failed_cells["<exit code>"] += trials
    verdict.notes.append(f"exit code {exit_code!r} (expected {expect_exit}), output {stdout.strip()[:160]!r}")
    violation = _MAX_VIOLATION.search(stdout)
    near_miss = exit_code == 4 and expect_exit == 0 and violation is not None and match is not None
    if not (near_miss and int(match.group(1)) == trials and _cell_error(violation.group(1), 0.0) <= GROSS_TOL):
        verdict.gross = 1
    return verdict


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
