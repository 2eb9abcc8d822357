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
      "measures": ["tangle_12", ...],                # optional, default all, each once
      "measurement": {"basis": "x"|"y"|"z"|{"axis": [..3..]},
                      "at_time": <float> | null}     # optional
    }

Either form of ``hamiltonian`` parses straight into the (1, 2, 15) Pauli
coefficients of ``hamiltonians``, the one Hamiltonian type from parsing to
output. The sum of |coefficients| of either pair Hamiltonian and of their sum,
which bounds every matrix entry, must be finite, and so must
``||H13||_F * ||H23||_F``. With a time grid,
``||H_total||_F * max(|t_start|, |t_end|)`` must be at most ``MAX_PHASE``.

State classes and parameters (complex entries are numbers or [re, im] pairs):
fully_separable {rotations?, axes?} (rotations: one {qubit, angle?, axis?} per
qubit 1, 2 and 3, in any order), bipartite_12 {a, b, probe?},
bipartite_23 / bipartite_13 {a, b, spectator?}, ghz_general {a, b},
zrt {a, b, c, d}, triple {f, g, h}, raw_amplitudes {amplitudes}.

Each property suite draws its trials in blocks of 64 from one seeded stream per
block, then assembles and checks them in batches (see "Random sampling" and
"Property suites" below).

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
from .evolution import closed_form_spectra, eigh_spectra, evolve, measure_probe_grid
from .hamiltonians import PRESETS, canonical_forms, heisenberg_chain
from .linalg import directions
from .measures import REPORT_FIELDS, _eof, concurrence_12, report_batch, residual_tangle_rows
from .states import from_axis_basis
from .tolerances import MAX_PERIODICITY_NORM, MAX_PHASE, PHYSICS_TOL

MAX_STEPS = 1_000_000  # a measured sweep peaks near 0.55 KB per row (tracemalloc, 1e5 rows): ~550 MB at the limit
NAMED_BASES = {"x": states.X_AXIS, "y": states.Y_AXIS, "z": states.Z_AXIS}


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


def _as_axis(value, path: str) -> np.ndarray:
    """The unit row of a 3-vector that names a direction: not all zero."""
    length, axis = directions(_as_vec3(value, path))
    if not length:
        raise ConfigError(f"{path}: zero axis has no direction")
    return axis


def _parse_pair(section: dict, path: str) -> list[float]:
    """The 15 coefficients of one pair Hamiltonian: coupling rows, then local_self and local_probe."""
    _check_keys(section, {"coupling", "local_self", "local_probe"}, {"coupling"}, path)
    coupling = section["coupling"]
    if not (isinstance(coupling, list) and len(coupling) == 3):
        raise ConfigError(f"{path}.coupling: expected a 3x3 array")
    row = [c for entry in coupling for c in _as_vec3(entry, f"{path}.coupling")]
    for key in ("local_self", "local_probe"):
        row += _as_vec3(section.get(key, (0.0, 0.0, 0.0)), f"{path}.{key}")
    return row


def _parse_hamiltonian(section: dict, path: str) -> np.ndarray:
    """The (1, 2, 15) coefficients of the pair, from a preset or from both pair Hamiltonians."""
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
    return np.array([[_parse_pair(pairwise[key], f"{path}.pairwise.{key}") for key in ("h13", "h23")]])


def _hamiltonian_scale(coeffs: np.ndarray, path: str) -> float:
    """``||H_total||_F``, after rejecting Hamiltonians whose evolution would overflow.

    Pauli strings are orthogonal with squared Frobenius norm 8, so
    ||H||_F = sqrt(8) |c| over a Hamiltonian's coefficients c, and H_total's are
    both pairs' couplings and body-local terms and the sum of their probe-local
    terms. Every matrix entry is at most the sum of |c|: past float range that
    sum could make an entry infinite, and the commutation test multiplies
    ``||H13||_F * ||H23||_F``; either would turn the classification or the
    eigensolver into NaN.
    """
    pairs = coeffs[0]
    with np.errstate(over="ignore"):
        total = np.concatenate([pairs[:, :12].ravel(), pairs[0, 12:] + pairs[1, 12:]])
        bound = max(np.abs(pairs).sum(axis=1).max(), np.abs(total).sum())
    if not math.isfinite(bound):
        raise ConfigError(f"{path}: the sum of |coefficients|, which bounds every matrix entry, overflows; coefficients are too large")
    h13, h23 = (math.sqrt(8.0) * x for x in directions(pairs)[0].tolist())
    scale = h13 * h23
    if not math.isfinite(scale):
        raise ConfigError(f"{path}: ||H13||_F * ||H23||_F = {scale} overflows; coefficients are too large")
    return math.sqrt(8.0) * float(directions(total)[0])


def _parse_rotations(entries, path: str) -> tuple[list[float], list]:
    """(angles, unit axes) of the three rotations, each placed at its qubit's row."""
    if not isinstance(entries, list) or len(entries) != 3:
        raise ConfigError(f"{path}: expected three entries")
    angles, axes = [0.0] * 3, [states.Z_AXIS] * 3
    seen = {}
    for i, entry in enumerate(entries):
        _check_keys(entry, {"qubit", "angle", "axis"}, {"qubit"}, f"{path}[{i}]")
        qubit = entry["qubit"]
        if isinstance(qubit, bool) or not isinstance(qubit, int) or qubit not in (1, 2, 3):
            raise ConfigError(f"{path}[{i}].qubit: expected 1, 2 or 3, got {qubit!r}")
        if qubit in seen:
            raise ConfigError(f"{path}[{i}].qubit: qubit {qubit} is already rotated by {path}[{seen[qubit]}]")
        seen[qubit] = i
        angles[qubit - 1] = _as_float(entry.get("angle", 0.0), f"{path}[{i}].angle")
        axes[qubit - 1] = _as_axis(entry.get("axis", states.Z_AXIS), f"{path}[{i}].axis")
    return angles, axes


def _parse_state(section: dict, path: str) -> np.ndarray:
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
            angles, rotation_axes = [0.0] * 3, [states.Z_AXIS] * 3
            if "rotations" in params:
                angles, rotation_axes = _parse_rotations(params["rotations"], f"{ppath}.rotations")
            axes = (states.Z_AXIS,) * 3
            if "axes" in params:
                entries = params["axes"]
                if not isinstance(entries, list) or len(entries) != 3:
                    raise ConfigError(f"{ppath}.axes: expected three axes")
                axes = tuple(_as_axis(a, f"{ppath}.axes[{i}]") for i, a in enumerate(entries))
            psi = states.fully_separable(angles, rotation_axes, axes=axes)
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
    return psi


@dataclass(frozen=True)
class MeasurementSpec:
    axis: np.ndarray | tuple[float, float, float]  # unit
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
        axis, labels = _as_axis(basis["axis"], f"{path}.basis.axis"), ("+n", "-n")
    else:
        raise ConfigError(f"{path}.basis: expected a basis name or an axis object")
    at_time = section.get("at_time")
    if at_time is not None:
        at_time = _as_float(at_time, f"{path}.at_time")
    return MeasurementSpec(axis=axis, labels=labels, at_time=at_time)


@dataclass
class ScenarioConfig:
    """Parsed scenario: the (1, 2, 15) pair coefficients, initial state, time grid and output selection."""

    name: str
    coeffs: np.ndarray
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
    coeffs = _parse_hamiltonian(raw["hamiltonian"], "config.hamiltonian")
    h_norm = _hamiltonian_scale(coeffs, "config.hamiltonian")

    psi0 = None
    if "initial_state" in raw:
        psi0 = _parse_state(raw["initial_state"], "config.initial_state")

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
        if not phase <= MAX_PHASE:  # also inf
            raise ConfigError(f"config.time_grid: ||H_total||_F * max(|t_start|, |t_end|) = {phase:.6g} exceeds MAX_PHASE = {MAX_PHASE:.6g}")
        times = np.linspace(t_start, t_end, steps)

    measures = tuple(REPORT_FIELDS)
    if "measures" in raw:
        entries = raw["measures"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("config.measures: expected a non-empty list")
        for i, entry in enumerate(entries):
            if entry not in REPORT_FIELDS:
                raise ConfigError(f"config.measures: unknown measure {entry!r}, known: {list(REPORT_FIELDS)}")
            if entry in entries[:i]:
                raise ConfigError(f"config.measures: measure {entry!r} is listed more than once")
        measures = tuple(entries)

    measurement = None
    if "measurement" in raw:
        measurement = _parse_measurement(raw["measurement"], "config.measurement")

    digest = sha256(json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return ScenarioConfig(
        name=name,
        coeffs=coeffs,
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

# CSV cells of one outcome: not measured, degenerate, present; "%.0s" consumes a value and prints nothing
_OUTCOME_CELLS = (",%.0s,%.0s,%.0s", ",%s,%.17g,%.0s", ",%s,%.17g,%.17g")


@dataclass
class SweepResult:
    """A sweep as columns, in the arrays it was computed in.

    ``times`` has shape (T,) and ``table`` maps every ``REPORT_FIELDS`` name to
    a (T,) array; the CSV holds ``t`` and the ``measures`` columns in order.
    With a probe measurement, ``labels`` names the two outcomes and
    ``probabilities`` and ``conditional_tangles`` are (T, 2) arrays indexed
    [row, outcome]. A probability is NaN where its row was not measured and a
    conditional tangle is NaN where its outcome was not measured or is
    degenerate. That NaN pattern is each outcome's state.
    """

    name: str
    times: np.ndarray
    table: dict[str, np.ndarray]
    measures: tuple[str, ...]
    commuting: bool
    commutator_norm: float
    config_hash: str
    seed: int | None = None
    labels: tuple[str, str] | None = None
    probabilities: np.ndarray | None = None
    conditional_tangles: np.ndarray | None = None

    @property
    def columns(self) -> list[str]:
        columns = ["t", *self.measures]
        if self.labels is not None:
            for k in (1, 2):
                columns += [f"outcome_label_{k}", f"outcome_prob_{k}", f"conditional_tangle_{k}"]
        return columns


def run_sweep(cfg: ScenarioConfig, seed: int | None = None) -> SweepResult:
    """Evolve, reduce and measure the whole grid at once. Deterministic for a fixed config."""
    if cfg.psi0 is None:
        raise ConfigError("config.initial_state: required to run a sweep")
    if cfg.times is None:
        raise ConfigError("config.time_grid: required to run a sweep")
    forms = canonical_forms(cfg.coeffs)
    psis = evolve(*eigh_spectra(cfg.coeffs), cfg.psi0, cfg.times)
    result = SweepResult(
        name=cfg.name,
        times=cfg.times,
        table=report_batch(psis),
        measures=cfg.measures,
        commuting=bool(forms.ok[0]),
        commutator_norm=float(forms.commutator_norm[0]),
        config_hash=cfg.config_hash,
        seed=seed,
    )
    if cfg.measurement is not None:
        probs, tangles, present, _ = measure_probe_grid(psis, cfg.measurement.axis)
        if cfg.measurement.at_time is not None:
            measured = (np.arange(len(cfg.times)) == np.argmin(np.abs(cfg.times - cfg.measurement.at_time)))[:, None]
            probs, present = np.where(measured, probs, np.nan), present & measured
        result.labels, result.probabilities = cfg.measurement.labels, probs
        result.conditional_tangles = np.where(present, tangles, np.nan)
    return result


def emit_csv(result: SweepResult, destination) -> None:
    """Write a sweep as CSV to the file at path ``destination``."""
    try:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            _write_csv(result, fh)
    except OSError as exc:
        raise IOError(f"cannot write CSV to {destination}: {exc}") from exc


def _write_csv(result: SweepResult, fh) -> None:
    """Header, optional seed comment, then each row from the template of its kind, the
    pair of its outcome states. Every template takes the same row tuple: ``t``, the
    measures and, with a measurement, (label, probability, tangle) per outcome."""
    fh.write(",".join(result.columns) + "\n")
    if result.seed is not None:
        fh.write(f"# seed={result.seed} config=sha256:{result.config_hash} commuting={str(result.commuting).lower()}\n")
    cells = "%.17g" + ",%.17g" * len(result.measures)
    columns = [result.times.tolist(), *(result.table[name].tolist() for name in result.measures)]
    templates, kinds = [cells + "\n"], [0] * len(result.times)
    if result.labels is not None:
        templates = [cells + first + second + "\n" for first in _OUTCOME_CELLS for second in _OUTCOME_CELLS]
        for k, label in enumerate(result.labels):
            columns += [[label] * len(result.times), result.probabilities[:, k].tolist(), result.conditional_tangles[:, k].tolist()]
        state = (~np.isnan(result.probabilities)).astype(int) + ~np.isnan(result.conditional_tangles)
        kinds = (len(_OUTCOME_CELLS) * state[:, 0] + state[:, 1]).tolist()
    fh.writelines(templates[kind] % row for kind, row in zip(kinds, zip(*columns)))


# Random sampling ----------------------------------------------------------
#
# Trials draw in blocks of _BLOCK: block b draws from default_rng of child b of
# the seed's SeedSequence, each draw a compute takes (standard normals, uniforms
# on [0, 1) or fair bits) is _BLOCK rows of width values per block, and row r of
# block b belongs to trial _BLOCK b + r. k consecutive draws of one kind and
# width come from one generator call of shape (k, _BLOCK, width) per block,
# which fills them in order with the values of k separate calls. Every block is
# drawn whole, so a trial's draws depend only on the seed and its index. The
# assembly turns the (n, width) draws into arrays with the arithmetic numpy
# applies to one row (low + (high - low) u for a uniform, v / np.linalg.norm(v)).

_BLOCK = 64


class _Draws:
    """Draws of the next n trials of ``root``, from ceil(n / _BLOCK) newly spawned block
    streams. ``normal(w)``, ``uniform(w)`` and ``bit()`` each hand out one (n, w) or (n,)
    draw; ``normal(w, k)`` and ``uniform(w, k)`` hand out k consecutive ones, (k, n, w)."""

    def __init__(self, root: np.random.SeedSequence, n: int):
        self.rngs = [np.random.default_rng(child) for child in root.spawn(-(-n // _BLOCK))]
        self.n = n

    def _rows(self, draw, count: int) -> np.ndarray:
        """``count`` consecutive draws, (count, n, ...), from one ``draw(rng, (count, _BLOCK))`` per block."""
        if len(self.rngs) == 1:
            return draw(self.rngs[0], (count, _BLOCK))[:, : self.n]
        return np.concatenate([draw(rng, (count, _BLOCK)) for rng in self.rngs], axis=1)[:, : self.n]

    def normal(self, width: int, count: int | None = None) -> np.ndarray:
        rows = self._rows(lambda rng, shape: rng.standard_normal((*shape, width)), count or 1)
        return rows if count else rows[0]

    def uniform(self, width: int, count: int | None = None) -> np.ndarray:
        rows = self._rows(lambda rng, shape: rng.random((*shape, width)), count or 1)
        return rows if count else rows[0]

    def bit(self) -> np.ndarray:
        return self._rows(lambda rng, shape: rng.integers(0, 2, shape, dtype=bool), 1)[0]


def _uniform(u, low: float, high: float) -> np.ndarray:
    return low + (high - low) * u


def _unit_rows(v) -> np.ndarray:
    """Vectors along the last axis over their norms, as ``v / np.linalg.norm(v)`` divides one. For a
    complex ``v`` the norm sums re.re + im.im, each dot over the strided real or imaginary parts as
    BLAS sums them, so ``v`` must be formed first."""
    if np.iscomplexobj(v):
        return v / np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[..., None]
    return v / np.sqrt(np.vecdot(v, v))[..., None]


def _states(take, dim: int, count: int | None = None) -> np.ndarray:
    """Haar-random states, (n, dim), or ``count`` of them per trial, (count, n, dim): each from a
    normal draw of its real parts and then one of its imaginary parts, all in one stacked draw."""
    parts = take.normal(dim, 2 * (count or 1))
    psis = _unit_rows(parts[0::2] + 1j * parts[1::2])
    return psis if count else psis[0]


def _three_axes(take) -> np.ndarray:
    """Random unit axes u, w and j, (3, n, 3), from three normal draws in that order."""
    return _unit_rows(take.normal(3, 3))


def _commuting_pairs(take, locals_mode: str) -> tuple[np.ndarray, ...]:
    """Random commuting pairs in the canonical form ``closed_form_spectra`` takes, (body, local_self,
    probe_axis, probe_strength): random unit axes u, w and j (the shared probe axis), body vectors
    strengths * (u, w) with coupling strengths uniform in (0, 2] and probe-local strengths uniform in
    [-1, 1). ``locals_mode`` 'full' also adds body-local vectors with arbitrary axes, 'probe' leaves them 0."""
    axes = _three_axes(take)
    u = take.uniform(2, 2)  # the strengths, then the probe-local strengths
    local_self = np.zeros((len(axes[2]), 2, 3))
    if locals_mode == "full":
        for k in range(2):
            local_self[:, k] = _uniform(take.uniform(1), 0.0, 1.0) * _unit_rows(take.normal(3))
    body = (2.0 - _uniform(u[0], 0.0, 2.0))[..., None] * axes[:2].transpose(1, 0, 2)  # [row, pair, component]
    return body, local_self, axes[2], _uniform(u[1], -1.0, 1.0)


# Property suites ----------------------------------------------------------
#
# A suite is one batched compute. It takes a chunk's draws (see "Random
# sampling"), so its takes are the only statement of its draw order, assembles
# them into state arrays and pairs, and returns the (n,) violations with each
# trial's context columns. The commuting suites and periodicity draw their
# pairs in canonical form and evolve those forms through ``closed_form_spectra``,
# with no coefficients or classifier between; only the Heisenberg suite builds
# coefficients, for ``eigh_spectra``. A --seed replay reproduces every trial,
# whatever --trials and the chunking: a chunk is a whole number of blocks.

_CHUNK = 16 * _BLOCK


@dataclass
class SuiteResult:
    """Outcome of a randomized suite: violations above ``PHYSICS_TOL`` are failures."""

    name: str
    trials: int
    seed: int
    failures: list[dict] = field(default_factory=list)
    max_violation: float = -np.inf
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def _sticky_max(current: float, values) -> float:
    """The max of ``current`` and an array of ``values`` that keeps a NaN once it has seen one:
    ``np.max`` gives NaN for an array holding one, and max(nan, x) is nan."""
    value = float(np.max(values))
    return value if math.isnan(value) else max(current, value)


# name -> compute: compute(_Draws of n trials) gives ((n,) violations, {context key: (n,) column})
_SUITES: dict[str, object] = {}


def _suite(name: str):
    def register(compute):
        _SUITES[name] = compute
        return compute

    return register


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))


def _rotated(psis, take, qubits) -> tuple[np.ndarray, np.ndarray]:
    """Draw one Haar rotation per trial for each of ``qubits``, in that order, and apply them to the
    rows of ``psis`` in qubit order: the rotated rows and the (len(qubits), n, 2, 2) matrices. Each
    rotation is a normalized Gaussian quadruple, a Haar-distributed unit quaternion, from one
    stacked draw."""
    matrices = states.rotation_matrices(_unit_rows(take.normal(4, len(qubits))))
    for k in sorted(range(len(qubits)), key=qubits.__getitem__):
        psis = states.rotate(psis, qubits[k], matrices[k])
    return psis, matrices


def _schmidt(take) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with (a^2, b^2) uniform on the 1-simplex."""
    a2 = _uniform(take.uniform(1)[:, 0], 0.0, 1.0)
    return np.sqrt(a2), np.sqrt(1.0 - a2)


def _times(take) -> np.ndarray:
    return _uniform(take.uniform(1)[:, 0], 0.0, 2.0 * np.pi)


def _tangle12(psis) -> np.ndarray:
    c = concurrence_12(psis)
    return c * c


def _evolved(forms, psi0s, ts) -> np.ndarray:
    """Evolve ``psi0s`` to ``ts`` under pairs in the canonical form of ``_commuting_pairs``."""
    return evolve(*closed_form_spectra(*forms), psi0s, ts)


def _initial_and_evolved(measure, psi0s, psi_ts) -> tuple[np.ndarray, np.ndarray]:
    """``measure`` of the initial and of the evolved states, from one call on the stacked rows,
    initial ones first."""
    values = measure(np.concatenate([psi0s, psi_ts]))
    return values[: len(psi0s)], values[len(psi0s) :]


@_suite("separable_stays_separable")
def _separable(take):
    """Product inputs under commuting evolution keep the 1,2 pair unentangled."""
    forms = _commuting_pairs(take, "full")
    q1, q2, q3 = _states(take, 2, 3)
    ts = _times(take)
    psi0s = np.einsum("ni,nj,nk->nijk", q1, q2, q3).reshape(-1, 8)
    return _tangle12(_evolved(forms, psi0s, ts)), {"t": ts}


@_suite("bipartite12_nonincreasing")
def _bipartite12(take):
    """Entanglement of formation of the 1,2 pair never grows under commuting evolution."""
    forms = _commuting_pairs(take, "full")
    a, b = _schmidt(take)
    psi0s, _ = _rotated(states.bipartite_12(a, b, _states(take, 2)), take, (1, 2))
    ts = _times(take)
    eof0, eof_t = _initial_and_evolved(lambda psis: _eof(_tangle12(psis)), psi0s, _evolved(forms, psi0s, ts))
    return eof_t - eof0, {"t": ts, "a": a, "b": b, "eof0": eof0, "eof_t": eof_t}


def _spectator(cls: str, qubits):
    def compute(take):
        """Initial entanglement of qubit 3 with one body qubit never reaches the 1,2 pair under commuting evolution."""
        forms = _commuting_pairs(take, "full")
        a, b = _schmidt(take)
        psi0s, _ = _rotated(getattr(states, cls)(a, b, _states(take, 2)), take, qubits)
        ts = _times(take)
        return _tangle12(_evolved(forms, psi0s, ts)), {"t": ts, "a": a, "b": b}

    return compute


_suite("bipartite23_stays_zero")(_spectator("bipartite_23", (2, 3)))
_suite("bipartite13_stays_zero")(_spectator("bipartite_13", (1, 3)))


@_suite("ghz_can_increase")
def _ghz(take):
    """GHZ-class inputs start with tangle 0; evolution may only raise it."""
    forms = _commuting_pairs(take, "full")
    a, b = _schmidt(take)
    psi0s, _ = _rotated(states.ghz_general(a, b), take, (1, 2, 3))
    ts = _times(take)
    tau0, tau_t = _initial_and_evolved(_tangle12, psi0s, _evolved(forms, psi0s, ts))
    return np.maximum(tau0, -tau_t), {"t": ts, "a": a, "b": b, "max_tangle": tau_t}


def _triple_quantities(take) -> dict[str, np.ndarray]:
    """Columns of the triple-state trials: the pairs' canonical forms as
    ``_commuting_pairs`` draws them (the shared probe axis j third), the initial
    and evolved states and 1,2 tangles, the time t and the two convexity
    factors. A trial draws the pair, the amplitudes, the rotations of qubits 3,
    1 and 2 (in that order) and the time.

    Measuring qubit 3 on the conserved probe axis gives outcome +- with
    probability m+-^2 at every t; (c, d) are the components of qubit 3's
    rotated |0> on that axis. Outcome +- leaves the pair in a pure state with
    tangle tau+-, and
        sum m+-^2 tau+- = tangle(0) * (|c|^4/m+^2 + |d|^4/m-^2),
        sum m+-^4 tau+- = tangle(0) * (|c|^4 + |d|^4).
    The first factor is the branch-weighted one that the convex decomposition
    of the evolved state yields; the second, |c|^4 + (1-|c|^2)^2, is the
    branch-weight-free one. The branch-weighted factor is >= 1: by
    Cauchy-Schwarz with m+^2 + m-^2 = 1 = |c|^2 + |d|^2,
        1 = (|c|^2 + |d|^2)^2 <= (|c|^4/m+^2 + |d|^4/m-^2)(m+^2 + m-^2).
    """
    forms = _commuting_pairs(take, "full")
    amps = _states(take, 3)
    psi0s = np.zeros((len(amps), 8), dtype=complex)
    psi0s[:, [1, 2, 4]] = amps
    psi0s, matrices = _rotated(psi0s, take, (3, 1, 2))  # matrices[0] rotates qubit 3
    ts = _times(take)
    plus = states.axis_eigenbases(forms[2])[..., :, 0]
    c2 = np.abs(np.vecdot(plus, matrices[0][..., :, 0])) ** 2
    a2 = np.abs(amps[:, 0]) ** 2
    m_plus2 = a2 + c2 - 2.0 * a2 * c2
    m_minus2 = a2 + (1.0 - c2) - 2.0 * a2 * (1.0 - c2)
    # m+-^2 vanish only where a2 and c2 are exactly 0 or 1, which the continuous draws never give
    factor_weighted = c2**2 / m_plus2 + (1.0 - c2) ** 2 / m_minus2
    psi_t = _evolved(forms, psi0s, ts)
    tau0, tau_t = _initial_and_evolved(_tangle12, psi0s, psi_t)
    return {
        "forms": forms,
        "psi0": psi0s,
        "psi_t": psi_t,
        "t": ts,
        "tau0": tau0,
        "tau_t": tau_t,
        "factor_free": c2**2 + (1.0 - c2) ** 2,
        "factor_weighted": factor_weighted,
    }


@_suite("triple_convexity_bound")
def _triple_stated_bound(take):
    """Single-excitation inputs against the branch-weight-free convexity factor
    tangle(t) <= tangle(0) * (|c|^4 + (1-|c|^2)^2).

    This stated factor drops the branch weights from the convex decomposition
    and is violated by generic states; the suite reports the counterexamples.
    At t = 0 it reads tangle(0) <= tangle(0) * (1 - 2|c|^2(1-|c|^2)), false
    whenever tangle(0) > 0 and 0 < |c| < 1. See triple_nonincreasing for the
    bounds that do hold.
    """
    q = _triple_quantities(take)
    violation = q["tau_t"] - q["tau0"] * q["factor_free"]
    return violation, {"t": q["t"], "tau0": q["tau0"], "factor": q["factor_free"], "tau_t": q["tau_t"]}


@_suite("triple_nonincreasing")
def _triple_true_bounds(take):
    """Single-excitation inputs: the 1,2 tangle never increases under commuting
    evolution.

    This implies the branch-weighted convexity bound
    tangle(t) <= tangle(0) * (|c|^4/m+^2 + |d|^4/m-^2), with m+-^2 the
    outcome probabilities of the probe-axis measurement: the factor is >= 1
    (see _triple_quantities), so the bound never binds tighter than
    monotonicity and is not checked separately. The factor is reported with
    each trial."""
    q = _triple_quantities(take)
    return q["tau_t"] - q["tau0"], {"t": q["t"], "tau0": q["tau0"], "factor": q["factor_weighted"], "tau_t": q["tau_t"]}


_PARITY_SECTORS = np.array([(0b111, 0b100, 0b010, 0b001), (0b000, 0b011, 0b101, 0b110)])  # [odd, even]


@_suite("parity_residual_conserved")
def _parity(take):
    """Definite-parity states keep their residual tangle under commuting evolution,
    with the closed-form value 16|a b c d| of the four sector amplitudes."""
    forms = body, _, probe_axis, _ = _commuting_pairs(take, "probe")
    even = take.bit()
    amps4 = _states(take, 4)
    ts = _times(take)
    amps8 = np.zeros((len(amps4), 8), dtype=complex)
    np.put_along_axis(amps8, _PARITY_SECTORS[even.astype(int)], amps4, axis=1)
    psi0s = from_axis_basis(amps8, directions(np.concatenate([body, probe_axis[:, None, :]], axis=1))[1])
    tau0, tau_t = _initial_and_evolved(residual_tangle_rows, psi0s, _evolved(forms, psi0s, ts))
    expected = 16.0 * np.abs(np.prod(amps4, axis=-1))
    violation = np.maximum(np.abs(tau_t - tau0), np.abs(tau0 - expected))
    return violation, {"t": ts, "even": even, "tau0": tau0, "closed_form": expected}


@_suite("heisenberg_entangled13_start")
def _heisenberg13(take):
    """Under the isotropic chain, initial 1,3 entanglement can only raise the 1,2 tangle."""
    gs = 2.0 - _uniform(take.uniform(1)[:, 0], 0.0, 2.0)
    a, b = _schmidt(take)
    psi0s, _ = _rotated(states.bipartite_13(a, b, _states(take, 2)), take, (1, 3))
    ts = _times(take)
    tau0, tau_t = _initial_and_evolved(_tangle12, psi0s, evolve(*eigh_spectra(heisenberg_chain(gs)), psi0s, ts))
    return np.maximum(tau0, -tau_t), {"t": ts, "g": gs, "max_tangle": tau_t}


def _run_trials(name: str, compute, trials: int, seed: int) -> SuiteResult:
    """Fold ``trials`` trials of ``compute`` into a SuiteResult, computed in chunks of
    ``_CHUNK`` that draw from the block streams of ``seed`` in order. A violation
    above ``PHYSICS_TOL`` or not finite is a failure, listed in trial order with
    the trial's context; a NaN violation makes ``max_violation`` NaN for good, and
    a NaN in a ``max_`` context column its stat."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    result = SuiteResult(name=name, trials=trials, seed=seed)
    root = np.random.SeedSequence(seed)
    for start in range(0, trials, _CHUNK):
        violations, context = compute(_Draws(root, min(_CHUNK, trials - start)))
        violations = np.asarray(violations)
        result.max_violation = _sticky_max(result.max_violation, violations)
        failed = np.flatnonzero(~(np.isfinite(violations) & (violations <= PHYSICS_TOL)))
        if failed.size:  # the failing trials' rows only, as Python numbers
            columns = {"trial": (start + failed).tolist(), "violation": violations[failed].tolist()}
            columns.update((key, np.asarray(column)[failed].tolist()) for key, column in context.items())
            result.failures += [dict(zip(columns, row)) for row in zip(*columns.values())]
        for key, column in context.items():
            if key.startswith("max_"):
                result.stats[key] = _sticky_max(result.stats.get(key, -np.inf), column)
    return result


def property_suite(name: str, trials: int, seed: int) -> SuiteResult:
    """Run a registered randomized suite."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known suites: {', '.join(suite_names())}")
    return _run_trials(name, _SUITES[name], trials, seed)


def _periodicity(k: int, l: int):
    def compute(take):
        axes = _three_axes(take)
        s13 = 2.0 - _uniform(take.uniform(1)[:, 0], 0.0, 2.0)
        body = np.stack([s13, s13 * float(l) / float(k)], axis=1)[..., None] * axes[:2].transpose(1, 0, 2)
        forms = body, np.zeros_like(body), axes[2], _uniform(take.uniform(2), -1, 1)
        psi0s = _states(take, 8)
        t_star = k * np.pi / (2.0 * s13)
        tau0, tau_star = _initial_and_evolved(residual_tangle_rows, psi0s, _evolved(forms, psi0s, t_star))
        return np.abs(tau_star - tau0), {"t_star": t_star, "tau0": tau0}

    return compute


def residual_periodicity_check(k: int, l: int, trials: int, seed: int) -> SuiteResult:
    """Residual tangle returns to its initial value at t = k*pi/(2|a|) when |a|/|b| = k/l."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    if k * k + l * l > MAX_PERIODICITY_NORM**2:  # int against float compares exactly, at any size
        raise ValueError(
            f"k and l must satisfy sqrt(k^2 + l^2) <= {MAX_PERIODICITY_NORM:.4g}, past which the rounding "
            "of the phases at t* exceeds the budget of the check"
        )
    if math.gcd(k, l) != 1:
        raise ValueError(f"k/l must be in lowest terms, got {k}/{l}")
    return _run_trials(f"residual_periodicity_{k}_{l}", _periodicity(k, l), trials, seed)
