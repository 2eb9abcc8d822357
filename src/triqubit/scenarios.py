"""Declarative scenarios, sweep execution, randomized property suites and CSV output.

Config files are JSON. Schema (unknown keys are rejected, with the offending
path in the error message)::

    {
      "name": "heisenberg-00plus",                  # optional
      "hamiltonian": {
        "preset": "heisenberg_chain" | "qnd_zz",    # with "g": <float>
        # or instead of a preset:
        "pairwise": {
          "h13": {"coupling": [[..3x3..]], "local_self": [..3..], "local_probe": [..3..]},
          "h23": {...}
        }
      },
      "initial_state": {"class": "<name>", "params": {...}},
      "time_grid": {"t_start": 0.0, "t_end": 3.14159, "steps": 64},
      "measures": ["tangle_12", ...],                # optional, default all
      "measurement": {"basis": "x"|"y"|"z"|{"axis": [..3..]},
                      "at_time": <float> | null}     # optional
    }

Every matrix entry of the two pair Hamiltonians and of their sum must be
finite, and so must ``||H13||_F * ||H23||_F`` and, with a time grid,
``||H_total||_F * max(|t_start|, |t_end|)``.

State classes and parameters (complex entries are numbers or [re, im] pairs):
fully_separable {rotations?, axes?}, bipartite_12 {a, b, probe?},
bipartite_23 / bipartite_13 {a, b, spectator?}, ghz_general {a, b},
zrt {a, b, c, d}, triple {f, g, h}, raw_amplitudes {amplitudes}.

CSV schema: header line 1 with ``t`` plus the selected measure columns (and,
when a measurement is configured, ``outcome_label_k, outcome_prob_k,
conditional_tangle_k`` for k = 1, 2); optional comment line 2 with the seed
and a hash of the config; floats at 17 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# The config hash is one small sha256. The interpreter's built-in one avoids
# loading OpenSSL through hashlib, which costs ~3.6 MB resident and ~4 ms of
# start-up per CLI process.
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from . import states
from .evolution import evolve, evolve_grid, make_plan, measure_probe_grid
from .hamiltonians import PRESETS, PauliPairHamiltonian
from .linalg import frob
from .measures import REPORT_FIELDS, EntanglementReport, concurrence_12, report, report_batch, residual_tangle_poly
from .states import LocalRotation, axis_eigenbasis, from_axis_basis, probe_components
from .tolerances import PHYSICS_TOL

MAX_STEPS = 1_000_000  # one sweep row holds about a kilobyte of objects
NAMED_BASES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


class ConfigError(ValueError):
    """Malformed scenario configuration."""


# Config parsing -----------------------------------------------------------

def _check_keys(section: dict, allowed: set[str], required: set[str], path: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _as_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_float(value, path))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_float(value[0], path), _as_float(value[1], path))
    raise ConfigError(f"{path}: expected a number or [re, im], got {value!r}")


def _as_vec3(value, path: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{path}: expected a 3-vector")
    return tuple(_as_float(v, path) for v in value)


def _parse_pair(section: dict, pair: tuple[int, int], path: str) -> PauliPairHamiltonian:
    _check_keys(section, {"coupling", "local_self", "local_probe"}, {"coupling"}, path)
    coupling = section["coupling"]
    if not (isinstance(coupling, list) and len(coupling) == 3):
        raise ConfigError(f"{path}.coupling: expected a 3x3 array")
    rows = [_as_vec3(row, f"{path}.coupling") for row in coupling]
    kwargs = {}
    for key in ("local_self", "local_probe"):
        if key in section:
            kwargs[key] = np.array(_as_vec3(section[key], f"{path}.{key}"))
    try:
        return PauliPairHamiltonian(coupling=np.array(rows), pair=pair, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_hamiltonian(section: dict, path: str) -> tuple[PauliPairHamiltonian, PauliPairHamiltonian]:
    _check_keys(section, {"preset", "g", "pairwise"}, set(), path)
    if ("preset" in section) == ("pairwise" in section):
        raise ConfigError(f"{path}: give exactly one of 'preset' or 'pairwise'")
    if "preset" in section:
        name = section["preset"]
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigError(f"{path}.preset: unknown preset {name!r}, known: {sorted(PRESETS)}")
        g = _as_float(section.get("g", 1.0), f"{path}.g")
        return PRESETS[name](g)
    if "g" in section:
        raise ConfigError(f"{path}.g: only valid together with a preset")
    pairwise = section["pairwise"]
    _check_keys(pairwise, {"h13", "h23"}, {"h13", "h23"}, f"{path}.pairwise")
    return (
        _parse_pair(pairwise["h13"], (1, 3), f"{path}.pairwise.h13"),
        _parse_pair(pairwise["h23"], (2, 3), f"{path}.pairwise.h23"),
    )


def _hamiltonian_scale(h13: PauliPairHamiltonian, h23: PauliPairHamiltonian, path: str) -> float:
    """``||H_total||_F``, after rejecting Hamiltonians whose evolution would overflow.

    Finite coefficients can still sum to an infinite matrix entry, and the
    commutation test multiplies ``||H13||_F * ||H23||_F``; past float range
    either turns the classification or the eigensolver into NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m13, m23 = h13.to_matrix(), h23.to_matrix()
        h_total = m13 + m23
        norms = frob(m13), frob(m23), frob(h_total)
    if not all(np.isfinite(m).all() for m in (m13, m23, h_total)):
        raise ConfigError(f"{path}: matrix entries overflow; coefficients are too large")
    scale = norms[0] * norms[1]
    if not math.isfinite(scale):
        raise ConfigError(f"{path}: ||H13||_F * ||H23||_F = {scale} overflows; coefficients are too large")
    return norms[2]


def _parse_rotation(entry: dict, path: str) -> LocalRotation:
    _check_keys(entry, {"qubit", "angle", "axis"}, {"qubit"}, path)
    qubit = entry["qubit"]
    if qubit not in (1, 2, 3):
        raise ConfigError(f"{path}.qubit: expected 1, 2 or 3, got {qubit!r}")
    return LocalRotation(
        qubit=qubit,
        angle=_as_float(entry.get("angle", 0.0), f"{path}.angle"),
        axis=_as_vec3(entry.get("axis", (0.0, 0.0, 1.0)), f"{path}.axis"),
    )


def _parse_state(section: dict, path: str) -> tuple[str, np.ndarray]:
    _check_keys(section, {"class", "params"}, {"class"}, path)
    cls = section["class"]
    params = section.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.params: expected an object")
    ppath = f"{path}.params"

    def complex_vec(key, dim, default):
        if key not in params:
            return default
        value = params[key]
        if not isinstance(value, list) or len(value) != dim:
            raise ConfigError(f"{ppath}.{key}: expected {dim} entries")
        return np.array([_as_complex(v, f"{ppath}.{key}") for v in value])

    try:
        if cls == "fully_separable":
            _check_keys(params, {"rotations", "axes"}, set(), ppath)
            rotations = [LocalRotation(qubit=q) for q in (1, 2, 3)]
            if "rotations" in params:
                entries = params["rotations"]
                if not isinstance(entries, list) or len(entries) != 3:
                    raise ConfigError(f"{ppath}.rotations: expected three entries")
                rotations = [_parse_rotation(e, f"{ppath}.rotations[{i}]") for i, e in enumerate(entries)]
            axes = (states.Z_AXIS,) * 3
            if "axes" in params:
                entries = params["axes"]
                if not isinstance(entries, list) or len(entries) != 3:
                    raise ConfigError(f"{ppath}.axes: expected three axes")
                axes = tuple(_as_vec3(a, f"{ppath}.axes") for a in entries)
            psi = states.fully_separable(*rotations, axes=axes)
        elif cls in ("bipartite_12", "bipartite_23", "bipartite_13"):
            other = "probe" if cls == "bipartite_12" else "spectator"
            _check_keys(params, {"a", "b", other}, {"a", "b"}, ppath)
            a = _as_float(params["a"], f"{ppath}.a")
            b = _as_float(params["b"], f"{ppath}.b")
            vec = complex_vec(other, 2, np.array([1.0, 0.0], dtype=complex))
            psi = getattr(states, cls)(a, b, vec)
        elif cls == "ghz_general":
            _check_keys(params, {"a", "b"}, {"a", "b"}, ppath)
            psi = states.ghz_general(_as_float(params["a"], f"{ppath}.a"), _as_float(params["b"], f"{ppath}.b"))
        elif cls == "zrt":
            _check_keys(params, {"a", "b", "c", "d"}, {"a", "b", "c", "d"}, ppath)
            psi = states.zrt(*(_as_complex(params[k], f"{ppath}.{k}") for k in "abcd"))
        elif cls == "triple":
            _check_keys(params, {"f", "g", "h"}, {"f", "g", "h"}, ppath)
            psi = states.triple(*(_as_complex(params[k], f"{ppath}.{k}") for k in "fgh"))
        elif cls == "raw_amplitudes":
            _check_keys(params, {"amplitudes"}, {"amplitudes"}, ppath)
            psi = states.raw_amplitudes(complex_vec("amplitudes", 8, None))
        else:
            raise ConfigError(f"{path}.class: unknown state class {cls!r}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cls, psi


@dataclass(frozen=True)
class MeasurementSpec:
    basis: tuple[np.ndarray, np.ndarray]
    labels: tuple[str, str]
    at_time: float | None


def _parse_measurement(section: dict, path: str) -> MeasurementSpec:
    _check_keys(section, {"basis", "at_time"}, {"basis"}, path)
    basis = section["basis"]
    if isinstance(basis, str):
        if basis not in NAMED_BASES:
            raise ConfigError(f"{path}.basis: unknown basis {basis!r}, known: {sorted(NAMED_BASES)}")
        axis, labels = NAMED_BASES[basis], (f"+{basis}", f"-{basis}")
    elif isinstance(basis, dict):
        _check_keys(basis, {"axis"}, {"axis"}, f"{path}.basis")
        axis, labels = _as_vec3(basis["axis"], f"{path}.basis.axis"), ("+n", "-n")
    else:
        raise ConfigError(f"{path}.basis: expected a basis name or an axis object")
    at_time = section.get("at_time")
    if at_time is not None:
        at_time = _as_float(at_time, f"{path}.at_time")
    try:
        basis = axis_eigenbasis(axis)
    except ValueError as exc:
        raise ConfigError(f"{path}.basis: {exc}") from exc
    return MeasurementSpec(basis=basis, labels=labels, at_time=at_time)


@dataclass
class ScenarioConfig:
    """Parsed scenario: Hamiltonians, initial state, time grid and output selection."""

    name: str
    h13: PauliPairHamiltonian
    h23: PauliPairHamiltonian
    state_class: str | None
    psi0: np.ndarray | None
    times: np.ndarray | None
    measures: tuple[str, ...]
    measurement: MeasurementSpec | None
    config_hash: str


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate and resolve a raw config dict.

    ``initial_state`` and ``time_grid`` may be omitted for commutation
    analysis; running a sweep then fails with a ConfigError.
    """
    _check_keys(
        raw,
        {"name", "hamiltonian", "initial_state", "time_grid", "measures", "measurement"},
        {"hamiltonian"},
        "config",
    )
    name = raw.get("name", "scenario")
    if not isinstance(name, str):
        raise ConfigError(f"config.name: expected a string, got {name!r}")
    h13, h23 = _parse_hamiltonian(raw["hamiltonian"], "config.hamiltonian")
    h_norm = _hamiltonian_scale(h13, h23, "config.hamiltonian")

    state_class, psi0 = (None, None)
    if "initial_state" in raw:
        state_class, psi0 = _parse_state(raw["initial_state"], "config.initial_state")

    times = None
    if "time_grid" in raw:
        grid = raw["time_grid"]
        _check_keys(grid, {"t_start", "t_end", "steps"}, {"t_start", "t_end", "steps"}, "config.time_grid")
        t_start = _as_float(grid["t_start"], "config.time_grid.t_start")
        t_end = _as_float(grid["t_end"], "config.time_grid.t_end")
        steps = grid["steps"]
        if not isinstance(steps, int) or isinstance(steps, bool) or not 1 <= steps <= MAX_STEPS:
            raise ConfigError(f"config.time_grid.steps: expected an integer in [1, {MAX_STEPS}], got {steps!r}")
        if t_end < t_start:
            raise ConfigError("config.time_grid: t_end must be >= t_start")
        phase = h_norm * max(abs(t_start), abs(t_end))
        if not math.isfinite(phase):
            raise ConfigError(f"config.time_grid: ||H_total||_F * max(|t_start|, |t_end|) = {phase} is not finite")
        times = np.linspace(t_start, t_end, steps)

    measures = tuple(REPORT_FIELDS)
    if "measures" in raw:
        entries = raw["measures"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("config.measures: expected a non-empty list")
        for entry in entries:
            if entry not in REPORT_FIELDS:
                raise ConfigError(f"config.measures: unknown measure {entry!r}, known: {list(REPORT_FIELDS)}")
        measures = tuple(entries)

    measurement = None
    if "measurement" in raw:
        measurement = _parse_measurement(raw["measurement"], "config.measurement")

    digest = sha256(json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return ScenarioConfig(
        name=name,
        h13=h13,
        h23=h23,
        state_class=state_class,
        psi0=psi0,
        times=times,
        measures=measures,
        measurement=measurement,
        config_hash=digest,
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past the int-to-str digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return parse_config(raw)


# Sweep execution ----------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    t: float
    report: EntanglementReport
    outcomes: list | None = None


@dataclass
class SweepResult:
    """Rows of a sweep with their CSV layout: ``t``, then ``measures``, then the
    six outcome columns when ``with_outcomes``."""

    name: str
    columns: list[str]
    rows: list[SweepRow]
    commuting: bool | None = None
    commutator_norm: float | None = None
    seed: int | None = None
    config_hash: str | None = None
    measures: tuple[str, ...] = ()
    with_outcomes: bool = False


def _sweep_columns(cfg: ScenarioConfig) -> list[str]:
    columns = ["t", *cfg.measures]
    if cfg.measurement is not None:
        for k in (1, 2):
            columns += [f"outcome_label_{k}", f"outcome_prob_{k}", f"conditional_tangle_{k}"]
    return columns


def run_sweep(cfg: ScenarioConfig, seed: int | None = None) -> SweepResult:
    """Evolve, reduce and measure the whole grid at once. Deterministic for a fixed config."""
    if cfg.psi0 is None:
        raise ConfigError("config.initial_state: required to run a sweep")
    if cfg.times is None:
        raise ConfigError("config.time_grid: required to run a sweep")
    plan = make_plan(cfg.h13, cfg.h23)
    psis = evolve_grid(plan, cfg.psi0, cfg.times)
    table = report_batch(psis)
    reports = [EntanglementReport(*values) for values in zip(*(table[name].tolist() for name in REPORT_FIELDS))]
    outcomes = [None] * len(reports)
    if cfg.measurement is not None:
        measured = range(len(reports))
        if cfg.measurement.at_time is not None:
            measured = [int(np.argmin(np.abs(cfg.times - cfg.measurement.at_time)))]
        for i, row in zip(measured, measure_probe_grid(psis[measured], cfg.measurement.basis, cfg.measurement.labels)):
            outcomes[i] = row
    return SweepResult(
        name=cfg.name,
        columns=_sweep_columns(cfg),
        rows=[SweepRow(t=t, report=rep, outcomes=out) for t, rep, out in zip(cfg.times.tolist(), reports, outcomes)],
        commuting=plan.commuting,
        commutator_norm=plan.commutator_norm,
        seed=seed,
        config_hash=cfg.config_hash,
        measures=cfg.measures,
        with_outcomes=cfg.measurement is not None,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def emit_csv(result: SweepResult, destination) -> None:
    """Write a sweep as CSV to the file at path ``destination``."""
    try:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            _write_csv(result, fh)
    except OSError as exc:
        raise IOError(f"cannot write CSV to {destination}: {exc}") from exc


def _write_csv(result: SweepResult, fh) -> None:
    fh.write(",".join(result.columns) + "\n")
    if result.seed is not None:
        parts = [f"# seed={result.seed}"]
        if result.config_hash is not None:
            parts.append(f"config=sha256:{result.config_hash}")
        if result.commuting is not None:
            parts.append(f"commuting={str(result.commuting).lower()}")
        fh.write(" ".join(parts) + "\n")
    for row in result.rows:
        cells = [_fmt(row.t), *(_fmt(getattr(row.report, name)) for name in result.measures)]
        if result.with_outcomes:
            if row.outcomes is None:
                cells += [""] * 6
            else:
                for outcome in row.outcomes:
                    cond = "" if outcome.tangle is None else _fmt(outcome.tangle)
                    cells += [outcome.label, _fmt(outcome.probability), cond]
        fh.write(",".join(cells) + "\n")


def read_sweep_csv(path):
    """Parse an emitted CSV back into (columns, comment, rows of string cells)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    columns = lines[0].split(",")
    comment = None
    body = lines[1:]
    if body and body[0].startswith("#"):
        comment, body = body[0], body[1:]
    return columns, comment, [line.split(",") for line in body if line]


# Random sampling ----------------------------------------------------------

def random_axis(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_qubit_state(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def random_state(rng, dim: int = 8) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_rotation(rng, qubit: int) -> LocalRotation:
    """Haar-distributed SU(2) rotation from a normalized Gaussian quadruple."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    s = float(np.linalg.norm(q[1:]))
    axis = tuple(q[1:] / s) if s > 1e-12 else (0.0, 0.0, 1.0)
    return LocalRotation(qubit=qubit, angle=float(np.arccos(np.clip(q[0], -1.0, 1.0))), axis=axis)


def random_schmidt(rng) -> tuple[float, float]:
    """(a, b) with (a^2, b^2) uniform on the 1-simplex."""
    a2 = rng.uniform(0.0, 1.0)
    return float(np.sqrt(a2)), float(np.sqrt(1.0 - a2))


def random_commuting_pair(rng, locals_mode: str = "none"):
    """Random commuting pair Hamiltonians: random axes, strengths uniform in (0, 2].

    ``locals_mode``: 'none' for coupling only, 'probe' to add probe-axis local
    terms, 'full' to also add body-local terms with arbitrary axes.
    """
    if locals_mode not in ("none", "probe", "full"):
        raise ValueError(f"unknown locals_mode {locals_mode!r}")
    u, w, j = random_axis(rng), random_axis(rng), random_axis(rng)
    s13 = 2.0 - rng.uniform(0.0, 2.0)
    s23 = 2.0 - rng.uniform(0.0, 2.0)
    kwargs13, kwargs23 = {}, {}
    if locals_mode in ("probe", "full"):
        kwargs13["local_probe"] = rng.uniform(-1.0, 1.0) * j
        kwargs23["local_probe"] = rng.uniform(-1.0, 1.0) * j
    if locals_mode == "full":
        kwargs13["local_self"] = rng.uniform(0.0, 1.0) * random_axis(rng)
        kwargs23["local_self"] = rng.uniform(0.0, 1.0) * random_axis(rng)
    return (
        PauliPairHamiltonian(coupling=s13 * np.outer(u, j), pair=(1, 3), **kwargs13),
        PauliPairHamiltonian(coupling=s23 * np.outer(w, j), pair=(2, 3), **kwargs23),
    )


# Property suites ----------------------------------------------------------

@dataclass
class SuiteResult:
    """Outcome of a randomized suite: violations above the slack are failures."""

    name: str
    trials: int
    seed: int
    failures: list[dict] = field(default_factory=list)
    max_violation: float = -np.inf
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, index: int, violation: float, slack: float, context: dict) -> None:
        """Fold one trial in. A violation above ``slack`` or not finite is a
        failure; a NaN violation makes ``max_violation`` NaN for good."""
        if math.isnan(violation):
            self.max_violation = violation
        else:
            self.max_violation = max(self.max_violation, violation)
        if not (math.isfinite(violation) and violation <= slack):
            self.failures.append({"trial": index, "violation": violation, **context})


_SUITES: dict[str, callable] = {}


def _suite(name: str):
    def register(fn):
        _SUITES[name] = fn
        return fn

    return register


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))


def _apply_rotations(psi, rotations):
    for rotation in rotations:
        psi = states.apply_local(rotation, psi)
    return psi


def _tangle12(psi) -> float:
    return float(concurrence_12(psi)[0] ** 2)


@_suite("separable_stays_separable")
def _trial_separable(rng):
    """Product inputs under commuting evolution keep the 1,2 pair unentangled."""
    h13, h23 = random_commuting_pair(rng, locals_mode="full")
    psi0 = np.kron(np.kron(random_qubit_state(rng), random_qubit_state(rng)), random_qubit_state(rng))
    plan = make_plan(h13, h23)
    t = rng.uniform(0.0, 2.0 * np.pi)
    psi_t = evolve(plan, psi0, t)
    return _tangle12(psi_t), {"t": t}


@_suite("bipartite12_nonincreasing")
def _trial_bipartite12(rng):
    """Entanglement of formation of the 1,2 pair never grows under commuting evolution."""
    h13, h23 = random_commuting_pair(rng, locals_mode="full")
    a, b = random_schmidt(rng)
    psi0 = states.bipartite_12(a, b, random_qubit_state(rng))
    psi0 = _apply_rotations(psi0, [random_rotation(rng, 1), random_rotation(rng, 2)])
    plan = make_plan(h13, h23)
    t = rng.uniform(0.0, 2.0 * np.pi)
    eof0 = report(psi0).eof_12
    eof_t = report(evolve(plan, psi0, t)).eof_12
    return eof_t - eof0, {"t": t, "a": a, "b": b, "eof0": eof0, "eof_t": eof_t}


def _trial_bipartite_spectator(rng, cls: str, rot_qubits):
    h13, h23 = random_commuting_pair(rng, locals_mode="full")
    a, b = random_schmidt(rng)
    psi0 = getattr(states, cls)(a, b, random_qubit_state(rng))
    psi0 = _apply_rotations(psi0, [random_rotation(rng, q) for q in rot_qubits])
    plan = make_plan(h13, h23)
    t = rng.uniform(0.0, 2.0 * np.pi)
    return _tangle12(evolve(plan, psi0, t)), {"t": t, "a": a, "b": b}


@_suite("bipartite23_stays_zero")
def _trial_bipartite23(rng):
    """Initial 2,3 entanglement never reaches the 1,2 pair under commuting evolution."""
    return _trial_bipartite_spectator(rng, "bipartite_23", (2, 3))


@_suite("bipartite13_stays_zero")
def _trial_bipartite13(rng):
    """Initial 1,3 entanglement never reaches the 1,2 pair under commuting evolution."""
    return _trial_bipartite_spectator(rng, "bipartite_13", (1, 3))


@_suite("ghz_can_increase")
def _trial_ghz(rng):
    """GHZ-class inputs start with tangle 0; evolution may only raise it."""
    h13, h23 = random_commuting_pair(rng, locals_mode="full")
    a, b = random_schmidt(rng)
    psi0 = states.ghz_general(a, b)
    psi0 = _apply_rotations(psi0, [random_rotation(rng, q) for q in (1, 2, 3)])
    plan = make_plan(h13, h23)
    t = rng.uniform(0.0, 2.0 * np.pi)
    tau0 = _tangle12(psi0)
    tau_t = _tangle12(evolve(plan, psi0, t))
    return max(tau0, -tau_t), {"t": t, "a": a, "b": b, "max_tangle": tau_t}


def _triple_trial_sample(rng):
    """Shared sampling for the single-excitation (triple-state) suites.

    Returns the plan, the initial state, the time t and the two convexity
    factors of one trial. Measuring qubit 3 on the conserved probe axis gives
    outcome +- with probability m+-^2 at every t; (c, d) are the components of
    qubit 3's rotated |0> on that axis. Outcome +- leaves the pair in a pure
    state with tangle tau+-, and
        sum m+-^2 tau+- = tangle(0) * (|c|^4/m+^2 + |d|^4/m-^2),
        sum m+-^4 tau+- = tangle(0) * (|c|^4 + |d|^4).
    The first factor is the branch-weighted one that the convex decomposition
    of the evolved state yields; the second, |c|^4 + (1-|c|^2)^2, is the
    branch-weight-free one.
    """
    h13, h23 = random_commuting_pair(rng, locals_mode="full")
    amps = random_state(rng, 3)
    psi0 = states.triple(*amps)
    q3 = random_rotation(rng, 3)
    psi0 = _apply_rotations(psi0, [random_rotation(rng, 1), random_rotation(rng, 2), q3])
    plan = make_plan(h13, h23)
    c, _ = probe_components(q3.matrix() @ np.array([1.0, 0.0]), plan.fastpath.probe_axis)
    c2 = abs(c) ** 2
    a2 = abs(amps[0]) ** 2
    factor_free = c2**2 + (1.0 - c2) ** 2
    m_plus2 = a2 + c2 - 2.0 * a2 * c2
    m_minus2 = a2 + (1.0 - c2) - 2.0 * a2 * (1.0 - c2)
    factor_weighted = 0.0
    for numerator, denominator in ((c2**2, m_plus2), ((1.0 - c2) ** 2, m_minus2)):
        if numerator > 1e-30:
            factor_weighted += numerator / denominator
    t = rng.uniform(0.0, 2.0 * np.pi)
    return plan, psi0, t, factor_free, factor_weighted


def _triple_trial_quantities(rng):
    """Evolved and initial 1,2 tangles of one triple-state trial, its two
    convexity factors (see _triple_trial_sample) and its time t.

    The branch-weighted factor is >= 1: by Cauchy-Schwarz with
    m+^2 + m-^2 = 1 = |c|^2 + |d|^2,
        1 = (|c|^2 + |d|^2)^2 <= (|c|^4/m+^2 + |d|^4/m-^2)(m+^2 + m-^2).
    """
    plan, psi0, t, factor_free, factor_weighted = _triple_trial_sample(rng)
    tau0 = _tangle12(psi0)
    tau_t = _tangle12(evolve(plan, psi0, t))
    return tau_t, tau0, factor_free, factor_weighted, t


@_suite("triple_convexity_bound")
def _trial_triple_stated_bound(rng):
    """Single-excitation inputs against the branch-weight-free convexity factor
    tangle(t) <= tangle(0) * (|c|^4 + (1-|c|^2)^2).

    This stated factor drops the branch weights from the convex decomposition
    and is violated by generic states; the suite reports the counterexamples.
    At t = 0 it reads tangle(0) <= tangle(0) * (1 - 2|c|^2(1-|c|^2)), false
    whenever tangle(0) > 0 and 0 < |c| < 1. See triple_nonincreasing for the
    bounds that do hold.
    """
    tau_t, tau0, factor_free, _, t = _triple_trial_quantities(rng)
    return tau_t - tau0 * factor_free, {"t": t, "tau0": tau0, "factor": factor_free, "tau_t": tau_t}


@_suite("triple_nonincreasing")
def _trial_triple_true_bounds(rng):
    """Single-excitation inputs: the 1,2 tangle never increases under commuting
    evolution.

    This implies the branch-weighted convexity bound
    tangle(t) <= tangle(0) * (|c|^4/m+^2 + |d|^4/m-^2), with m+-^2 the
    outcome probabilities of the probe-axis measurement: the factor is >= 1
    (see _triple_trial_quantities), so the bound never binds tighter than
    monotonicity and is not checked separately. The factor is reported with
    each trial."""
    tau_t, tau0, _, factor_weighted, t = _triple_trial_quantities(rng)
    return tau_t - tau0, {"t": t, "tau0": tau0, "factor": factor_weighted, "tau_t": tau_t}


@_suite("parity_residual_conserved")
def _trial_parity(rng):
    """Definite-parity states keep their residual tangle under commuting evolution,
    with the closed-form value 16|a b c d| of the four sector amplitudes."""
    h13, h23 = random_commuting_pair(rng, locals_mode="probe")
    plan = make_plan(h13, h23)
    fastpath = plan.fastpath
    even = bool(rng.integers(0, 2))
    sector = (0b000, 0b011, 0b101, 0b110) if even else (0b111, 0b100, 0b010, 0b001)
    amps4 = random_state(rng, 4)
    amps8 = np.zeros(8, dtype=complex)
    amps8[list(sector)] = amps4
    axes = (*fastpath.body_axes, fastpath.probe_axis)
    psi0 = from_axis_basis(amps8, axes)
    tau0 = residual_tangle_poly(psi0)
    expected = 16.0 * abs(np.prod(amps4))
    t = rng.uniform(0.0, 2.0 * np.pi)
    tau_t = residual_tangle_poly(evolve(plan, psi0, t))
    violation = max(abs(tau_t - tau0), abs(tau0 - expected))
    return violation, {"t": t, "even": even, "tau0": tau0, "closed_form": expected}


@_suite("heisenberg_entangled13_start")
def _trial_heisenberg13(rng):
    """Under the isotropic chain, initial 1,3 entanglement can only raise the 1,2 tangle."""
    from .hamiltonians import heisenberg_chain

    g = 2.0 - rng.uniform(0.0, 2.0)
    plan = make_plan(*heisenberg_chain(g))
    a, b = random_schmidt(rng)
    psi0 = states.bipartite_13(a, b, random_qubit_state(rng))
    psi0 = _apply_rotations(psi0, [random_rotation(rng, 1), random_rotation(rng, 3)])
    tau0 = _tangle12(psi0)
    t = rng.uniform(0.0, 2.0 * np.pi)
    tau_t = _tangle12(evolve(plan, psi0, t))
    return max(tau0, -tau_t), {"t": t, "g": g, "max_tangle": tau_t}


def _run_trials(name: str, trial, trials: int, seed: int, slack: float) -> SuiteResult:
    """Fold ``trials`` calls of ``trial(rng)`` into a SuiteResult; each trial
    draws from its own child stream spawned from ``seed``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    result = SuiteResult(name=name, trials=trials, seed=seed)
    for index, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        violation, context = trial(np.random.default_rng(child))
        result.record(index, violation, slack, context)
        for key, value in context.items():
            if key.startswith("max_"):
                result.stats[key] = max(result.stats.get(key, -np.inf), value)
    return result


def property_suite(name: str, trials: int, seed: int, slack: float = PHYSICS_TOL) -> SuiteResult:
    """Run a registered randomized suite."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known suites: {', '.join(suite_names())}")
    return _run_trials(name, _SUITES[name], trials, seed, slack)


def residual_periodicity_check(k: int, l: int, trials: int, seed: int, slack: float = PHYSICS_TOL) -> SuiteResult:
    """Residual tangle returns to its initial value at t = k*pi/(2|a|) when |a|/|b| = k/l."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    if math.gcd(k, l) != 1:
        raise ValueError(f"k/l must be in lowest terms, got {k}/{l}")

    def trial(rng):
        u, w, j = random_axis(rng), random_axis(rng), random_axis(rng)
        s13 = 2.0 - rng.uniform(0.0, 2.0)
        s23 = s13 * l / k
        h13 = PauliPairHamiltonian(coupling=s13 * np.outer(u, j), pair=(1, 3), local_probe=rng.uniform(-1, 1) * j)
        h23 = PauliPairHamiltonian(coupling=s23 * np.outer(w, j), pair=(2, 3), local_probe=rng.uniform(-1, 1) * j)
        plan = make_plan(h13, h23)
        psi0 = random_state(rng)
        t_star = k * np.pi / (2.0 * s13)
        tau0 = residual_tangle_poly(psi0)
        tau_star = residual_tangle_poly(evolve(plan, psi0, t_star))
        return abs(tau_star - tau0), {"t_star": t_star, "tau0": tau0}

    return _run_trials(f"residual_periodicity_{k}_{l}", trial, trials, seed, slack)
