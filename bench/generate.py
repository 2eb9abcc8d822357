"""Seeded inputs for the triqubit benchmark.

A workload is a list of calls to ``triqubit.cli.main``. Each call is a dict
with the argument list (``--out`` holds the placeholder ``OUT``, replaced per
call at run time), the config file it reads, the exit code the call must
return and the number of operations it performs: CSV rows for a sweep,
trials for a suite. The same seed gives byte-identical config files and
argument lists. Only Python's ``random`` is used, so the inputs do not depend
on the numpy version. The first call of every list is the same for every
seed, so that set-up is timed on the same work each run. The workload names
and their reasons live in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

STATE_CLASSES = (
    "fully_separable",
    "bipartite_12",
    "bipartite_23",
    "bipartite_13",
    "ghz_general",
    "zrt",
    "triple",
    "raw_amplitudes",
)
MEASURES = ("tangle_12", "concurrence_12", "eof_12", "residual_tangle", "purity_12")
SUITES = (
    "bipartite12_nonincreasing",
    "bipartite13_stays_zero",
    "bipartite23_stays_zero",
    "ghz_can_increase",
    "heisenberg_entangled13_start",
    "parity_residual_conserved",
    "separable_stays_separable",
    "triple_convexity_bound",
    "triple_nonincreasing",
)
# The stated convexity factor is not a bound: the suite reports violations.
SUITE_EXIT = {name: 4 if name == "triple_convexity_bound" else 0 for name in SUITES}
PERIODICITY_RATIOS = ((2, 3), (1, 2))

OUT = "OUT"
VERBATIM = {
    "sweep_commuting": ("qnd_x.json",),
    "sweep_noncommuting": ("heisenberg_00plus.json", "ghz_heisenberg.json"),
}
GENERATED_CONFIGS = {"sweep_commuting": 31, "sweep_noncommuting": 30}
# Grid lengths from 0.5x to 1.5x of 96 and 384 points, each equally often: with
# one fixed length, the host's fast and slow speed phases make the call-latency
# median jump between two values instead of moving smoothly.
GRID_STEPS = {
    "sweep_commuting": (48, 72, 96, 120, 144),
    "sweep_noncommuting": (192, 288, 384, 480, 576),
}
SUITE_TRIALS = 25
SUITE_ROUNDS = 8
# The fixed first call of suite_mix, on which set-up is timed.
SUITE_SETUP = (["suite", "separable_stays_separable"], 0)


def _axis(rng: random.Random) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-3:
            return [x / n for x in v]


def _complex_unit(rng: random.Random, dim: int) -> list[list[float]]:
    v = [(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]
    n = math.sqrt(sum(re * re + im * im for re, im in v))
    return [[re / n, im / n] for re, im in v]


def _schmidt(rng: random.Random) -> dict:
    a2 = rng.random()
    return {"a": math.sqrt(a2), "b": math.sqrt(1.0 - a2)}


def _initial_state(rng: random.Random, cls: str) -> dict:
    if cls == "fully_separable":
        params = {
            "rotations": [{"qubit": q, "angle": rng.uniform(0.0, math.pi), "axis": _axis(rng)} for q in (1, 2, 3)],
            "axes": [_axis(rng) for _ in range(3)],
        }
    elif cls == "bipartite_12":
        params = {**_schmidt(rng), "probe": _complex_unit(rng, 2)}
    elif cls in ("bipartite_23", "bipartite_13"):
        params = {**_schmidt(rng), "spectator": _complex_unit(rng, 2)}
    elif cls == "ghz_general":
        params = _schmidt(rng)
    elif cls == "zrt":
        params = dict(zip("abcd", _complex_unit(rng, 4)))
    elif cls == "triple":
        params = dict(zip("fgh", _complex_unit(rng, 3)))
    else:
        params = {"amplitudes": _complex_unit(rng, 8)}
    return {"class": cls, "params": params}


def _outer(scale: float, u: list[float], v: list[float]) -> list[list[float]]:
    return [[scale * a * b for b in v] for a in u]


def _scaled(scale: float, v: list[float]) -> list[float]:
    return [scale * x for x in v]


def _time_grid(rng: random.Random, steps: int) -> dict:
    return {"t_start": 0.0, "t_end": rng.uniform(1.0, 2.0 * math.pi), "steps": steps}


def _commuting_config(rng: random.Random, name: str, state_class: str, steps: int) -> dict:
    """Rank-1 couplings sharing probe axis j, body-local terms and probe-local terms along j."""
    u, w, j = _axis(rng), _axis(rng), _axis(rng)
    pairs = {}
    for key, body_axis in (("h13", u), ("h23", w)):
        pairs[key] = {
            "coupling": _outer(rng.uniform(0.2, 2.0), body_axis, j),
            "local_self": _scaled(rng.uniform(0.0, 1.0), _axis(rng)),
            "local_probe": _scaled(rng.uniform(-1.0, 1.0), j),
        }
    return {
        "name": name,
        "hamiltonian": {"pairwise": pairs},
        "initial_state": _initial_state(rng, state_class),
        "time_grid": _time_grid(rng, steps),
        "measurement": {"basis": {"axis": _axis(rng)}, "at_time": None},
    }


def _noncommuting_config(rng: random.Random, name: str, state_class: str, steps: int, heisenberg: bool) -> dict:
    """Heisenberg chain with random g, or random full-rank couplings with probe-local terms."""
    if heisenberg:
        hamiltonian = {"preset": "heisenberg_chain", "g": rng.uniform(0.2, 2.0)}
    else:
        hamiltonian = {
            "pairwise": {
                key: {
                    "coupling": [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(3)],
                    "local_probe": [rng.uniform(-1.0, 1.0) for _ in range(3)],
                }
                for key in ("h13", "h23")
            }
        }
    subsets = [[m for k, m in enumerate(MEASURES) if mask >> k & 1] for mask in range(1, 2 ** len(MEASURES))]
    return {
        "name": name,
        "hamiltonian": hamiltonian,
        "initial_state": _initial_state(rng, state_class),
        "time_grid": _time_grid(rng, steps),
        "measures": rng.choice(subsets),
    }


def _sweep_call(config: Path, cfg: dict, seed: int) -> dict:
    argv = ["sweep", "--config", str(config), "--out", OUT, "--seed", str(seed)]
    return {
        "argv": argv,
        "config": str(config),
        "expect_exit": 0,
        "ops": cfg["time_grid"]["steps"],
        "n_measures": len(cfg.get("measures", MEASURES)),
    }


def _suite_call(command: list[str], seed: int) -> dict:
    argv = [*command, "--trials", str(SUITE_TRIALS), "--seed", str(seed)]
    expect = SUITE_EXIT.get(command[1], 0)
    return {"argv": argv, "config": None, "expect_exit": expect, "ops": SUITE_TRIALS, "n_measures": 0}


def _suite_calls(rng: random.Random) -> list[dict]:
    commands = [["suite", name] for name in SUITES]
    commands += [["periodicity", "--k", str(k), "--l", str(l)] for k, l in PERIODICITY_RATIOS]
    calls = [_suite_call(*SUITE_SETUP)]
    for _ in range(SUITE_ROUNDS):
        rng.shuffle(commands)
        calls += [_suite_call(command, rng.randrange(2**31)) for command in commands]
    return calls


def generate(workload: str, seed: int, out_dir: Path, shipped_configs: Path) -> list[dict]:
    """Write the workload's config files under ``out_dir`` and return its call list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    out_dir = Path(out_dir)
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "suite_mix":
        calls = _suite_calls(rng)
    else:
        calls = []
        for name in VERBATIM[workload]:
            source = Path(shipped_configs) / name
            target = out_dir / f"{len(calls):03d}_{name}"
            target.write_bytes(source.read_bytes())
            calls.append(_sweep_call(target, json.loads(source.read_text(encoding="utf-8")), seed))
        # every class and grid length equally often, in a seeded order, so each seed has the same mix
        classes, grids = list(STATE_CLASSES), list(GRID_STEPS[workload])
        rng.shuffle(classes)
        rng.shuffle(grids)
        for k in range(GENERATED_CONFIGS[workload]):
            name = f"{workload}-{seed}-{k}"
            state_class, steps = classes[k % len(classes)], grids[k % len(grids)]
            if workload == "sweep_commuting":
                cfg = _commuting_config(rng, name, state_class, steps)
            else:
                cfg = _noncommuting_config(rng, name, state_class, steps, heisenberg=k % 2 == 0)
            target = out_dir / f"{len(calls):03d}_{name}.json"
            target.write_text(json.dumps(cfg) + "\n", encoding="utf-8")
            calls.append(_sweep_call(target, cfg, seed))
    (out_dir / "calls.json").write_text(json.dumps(calls, indent=1) + "\n", encoding="utf-8")
    return calls
