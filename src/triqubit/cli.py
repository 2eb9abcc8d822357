"""Command-line frontend: sweeps, property suites, commutation analysis and
the probe-measurement Bell-pair demonstration.

Exit codes: 0 success, 2 config error or unknown suite, 3 I/O error
(including a standard output closed by its reader), 4 property violation
(with the replay seed printed).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .evolution import evolve, measure_probe_grid, plan_spectra
from .hamiltonians import qnd_zz
from .linalg import directions
from .measures import report_batch
from .scenarios import (
    ConfigError,
    emit_csv,
    load_config,
    property_suite,
    residual_periodicity_check,
    run_sweep,
    suite_names,
)
from .states import X_AXIS, Z_AXIS, fully_separable
from .tolerances import MAX_PHASE

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VIOLATION = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing leaves it unchanged."""
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
    print(f"{result.name}: {len(result.times)} rows -> {args.out} ({kind}, commutator norm {result.commutator_norm:.6e})")
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
    return _verdict(result, args.seed)


def _verdict(result, seed: int) -> int:
    """Report a suite's failures (count, replay seed and first counterexample, to stderr) or its pass."""
    if not result.passed:
        print(f"FAILED {len(result.failures)} trials; replay with --seed {seed}", file=sys.stderr)
        print(f"first counterexample: {result.failures[0]}", file=sys.stderr)
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
    if not cfg.coeffs.any():
        print("commuting (trivially): both Hamiltonians are zero")
        return EXIT_OK
    forms, w, _ = plan_spectra(cfg.coeffs)
    if forms.ok[0]:
        print(f"commuting (commutator norm {forms.commutator_norm[0]:.6e})")
        print(f"shared probe axis: {(np.round(forms.probe_axis[0], 12) + 0.0).tolist()}")  # + 0.0: no -0 from the sign rule
        body = forms.body[0]
        strengths, axes = directions(body)  # a zero coupling shows the z axis
        self_strengths, _ = directions(cfg.coeffs[0, :, 9:12])
        for k, label in enumerate(("pair (1,3)", "pair (2,3)")):
            print(
                f"{label}: coupling strength {strengths[k]:.12g}, "
                f"body axis {(np.round(axes[k], 12) + 0.0).tolist()}, "
                f"local self strength {self_strengths[k]:.12g}, "
                f"local probe coefficient {forms.probe_strength[0, k] + 0.0:.12g}"
            )
    else:
        kind = "noncommuting" if forms.status[0] == 1 else "commuting without a shared probe axis"
        print(f"{kind} (commutator norm {forms.commutator_norm[0]:.6e})")
        print(f"reason: {forms.reason(0)}")
        print(f"total Hamiltonian eigenvalues: {_eigenvalue_report(w[0])}")
    return EXIT_OK


def cmd_qnd_demo(args) -> int:
    try:
        gt = float(np.pi * (2 * args.m + 1)) if args.m is not None else args.gt
    except OverflowError:
        print("error: |m| is too large: gt = pi*(2m+1) must be finite", file=sys.stderr)
        return EXIT_CONFIG
    if not math.isfinite(gt):
        print("error: gt must be finite", file=sys.stderr)
        return EXIT_CONFIG
    if gt < 0:
        print("error: gt must be nonnegative", file=sys.stderr)
        return EXIT_CONFIG
    if gt > MAX_PHASE:  # ||H_total||_F = 1 at qnd_zz(1)
        print(f"error: gt = {gt:.6g} exceeds MAX_PHASE = {MAX_PHASE:.6g}, past which the phases are rounding noise", file=sys.stderr)
        return EXIT_CONFIG
    _, w, v = plan_spectra(qnd_zz(1.0))
    psi0 = fully_separable([0.0] * 3, [Z_AXIS] * 3, axes=(X_AXIS, X_AXIS, X_AXIS))
    psi_t = evolve(w, v, psi0, (gt,))
    print(f"gt = {gt:.12g}")
    print(f"pre-measurement tangle_12 = {report_batch(psi_t)['tangle_12'][0]:.10f}")
    print("outcome  probability    conditional_tangle_12")
    probs, tangles, present, _ = measure_probe_grid(psi_t, X_AXIS)
    for label, p, tangle, ok in zip(("+x", "-x"), probs[0].tolist(), tangles[0].tolist(), present[0].tolist()):
        print(f"{label:<8} {p:<14.10f} {tangle:.10f}" if ok else f"{label:<8} {p:<14.10f} (degenerate outcome)")
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
    return _verdict(result, args.seed)


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
    try:
        code = main()
        sys.stdout.flush()  # a reader that closed the pipe early raises here, not at exit
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's own flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    entry()
