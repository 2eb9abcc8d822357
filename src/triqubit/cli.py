"""Command-line frontend: sweeps, property suites, commutation analysis and
the probe-measurement Bell-pair demonstration.

Exit codes: 0 success, 2 config error or unknown suite, 3 I/O error,
4 property violation (with the replay seed printed).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .evolution import evolve, make_plan, measure_probe
from .hamiltonians import qnd_zz
from .measures import report
from .scenarios import (
    ConfigError,
    emit_csv,
    load_config,
    property_suite,
    residual_periodicity_check,
    run_sweep,
    suite_names,
)
from .states import LocalRotation, axis_eigenbasis, fully_separable

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VIOLATION = 4

X_AXIS = (1.0, 0.0, 0.0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="triqubit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a time sweep from a config file and write CSV")
    sweep.add_argument("--config", required=True, help="path to a JSON scenario config")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--seed", type=int, default=None, help="seed recorded in the CSV header")

    suite = sub.add_parser("suite", help="run a randomized property suite")
    suite.add_argument("name", help=f"one of: {', '.join(suite_names())}")
    suite.add_argument("--trials", type=int, default=1000)
    suite.add_argument("--seed", type=int, default=0)

    classify = sub.add_parser("classify", help="commutation analysis of a config's Hamiltonians")
    classify.add_argument("--config", required=True)

    qnd = sub.add_parser("qnd-demo", help="probe-mediated Bell-pair preparation demo")
    qnd.add_argument("--gt", type=float, default=np.pi, help="dimensionless interaction time g*t")
    qnd.add_argument("--m", type=int, default=None, help="use gt = pi*(2m+1) instead of --gt")

    period = sub.add_parser("periodicity", help="residual-tangle return-time check for strength ratio k/l")
    period.add_argument("--k", type=int, required=True)
    period.add_argument("--l", type=int, required=True)
    period.add_argument("--trials", type=int, default=200)
    period.add_argument("--seed", type=int, default=0)

    return parser


def cmd_sweep(args) -> int:
    try:
        result = run_sweep(load_config(args.config), seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        emit_csv(result, args.out)
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    kind = "commuting" if result.commuting else "noncommuting"
    print(f"{result.name}: {len(result.rows)} rows -> {args.out} ({kind}, commutator norm {result.commutator_norm:.6e})")
    return EXIT_OK


def cmd_suite(args) -> int:
    try:
        result = property_suite(args.name, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    extras = "".join(f", {key}={value:.6f}" for key, value in sorted(result.stats.items()))
    print(
        f"suite {result.name}: {result.trials} trials, max violation "
        f"{result.max_violation:.3e}{extras}"
    )
    if not result.passed:
        first = result.failures[0]
        print(f"FAILED {len(result.failures)} trials; replay with --seed {args.seed}", file=sys.stderr)
        print(f"first counterexample: {first}", file=sys.stderr)
        return EXIT_VIOLATION
    print("all trials passed")
    return EXIT_OK


def _eigenvalue_report(eigenvalues: np.ndarray) -> str:
    """Sorted eigenvalues as distinct values with multiplicities.

    Rounds to 9 decimals in units of the largest |eigenvalue|'s decade, so the
    zero cut and the grouping gap scale with the Hamiltonian.
    """
    decimals = 9 - math.floor(math.log10(float(np.max(np.abs(eigenvalues)))))
    distinct: list[tuple[float, int]] = []
    for value in eigenvalues:
        value = round(float(value), decimals) + 0.0  # drop display noise, avoid -0
        if distinct and abs(value - distinct[-1][0]) < 10.0**-decimals:
            distinct[-1] = (distinct[-1][0], distinct[-1][1] + 1)
        else:
            distinct.append((value, 1))
    return ", ".join(f"{v:.9g} (x{m})" for v, m in distinct)


def cmd_classify(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    plan = make_plan(cfg.h13, cfg.h23)
    norms = np.linalg.norm(plan.h13.to_matrix()), np.linalg.norm(plan.h23.to_matrix())
    if max(norms) < 1e-14:
        print("commuting (trivially): both Hamiltonians are zero")
        return EXIT_OK
    if plan.commuting:
        fp = plan.fastpath
        print(f"commuting (commutator norm {plan.commutator_norm:.6e})")
        print(f"shared probe axis: {np.round(fp.probe_axis, 12).tolist()}")
        for label, form in (("pair (1,3)", fp.form13), ("pair (2,3)", fp.form23)):
            print(
                f"{label}: coupling strength {form.coupling_strength:.12g}, "
                f"body axis {np.round(form.coupling_axis_self, 12).tolist()}, "
                f"local self strength {form.local_self_strength:.12g}, "
                f"local probe coefficient {form.local_probe_strength:.12g}"
            )
    else:
        print(f"noncommuting (commutator norm {plan.commutator_norm:.6e})")
        print(f"reason: {plan.fastpath_error}")
        print(f"total Hamiltonian eigenvalues: {_eigenvalue_report(plan.spectrum()[0])}")
    return EXIT_OK


def cmd_qnd_demo(args) -> int:
    gt = float(np.pi * (2 * args.m + 1)) if args.m is not None else args.gt
    if gt < 0:
        print("error: gt must be nonnegative", file=sys.stderr)
        return EXIT_CONFIG
    plan = make_plan(*qnd_zz(1.0))
    rotations = [LocalRotation(qubit=q) for q in (1, 2, 3)]
    psi0 = fully_separable(*rotations, axes=(X_AXIS, X_AXIS, X_AXIS))
    psi_t = evolve(plan, psi0, gt)
    pre = report(psi_t)
    print(f"gt = {gt:.12g}")
    print(f"pre-measurement tangle_12 = {pre.tangle_12:.10f}")
    print("outcome  probability    conditional_tangle_12")
    for outcome in measure_probe(psi_t, axis_eigenbasis(X_AXIS), labels=("+x", "-x")):
        if outcome.state is None:
            print(f"{outcome.label:<8} {outcome.probability:<14.10f} (degenerate outcome)")
        else:
            print(f"{outcome.label:<8} {outcome.probability:<14.10f} {outcome.tangle:.10f}")
    return EXIT_OK


def cmd_periodicity(args) -> int:
    try:
        result = residual_periodicity_check(args.k, args.l, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(
        f"ratio {args.k}/{args.l}: {result.trials} trials, "
        f"max |tau(t*) - tau(0)| = {result.max_violation:.3e}"
    )
    if not result.passed:
        print(f"FAILED {len(result.failures)} trials; replay with --seed {args.seed}", file=sys.stderr)
        print(f"first counterexample: {result.failures[0]}", file=sys.stderr)
        return EXIT_VIOLATION
    print("all trials passed")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "sweep": cmd_sweep,
        "suite": cmd_suite,
        "classify": cmd_classify,
        "qnd-demo": cmd_qnd_demo,
        "periodicity": cmd_periodicity,
    }
    return handlers[args.command](args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
