"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Every test prints a single PASS line on success; a failure carries the full
numerical context in its assertion message. Runtime target for the whole
module is under 60 seconds single-threaded.
"""

import json

import numpy as np

from triqubit.cli import main as cli_main
from triqubit.evolution import eigh_spectra, evolve, measure_probe_grid
from triqubit.hamiltonians import canonical_forms, heisenberg_chain, qnd_zz
from triqubit.measures import report_batch, residual_tangle_rows
from triqubit.scenarios import (
    _Draws,
    _triple_quantities,
    property_suite,
    residual_periodicity_check,
)
from triqubit.states import fully_separable, ghz_general, triple, zrt

from oracles import (
    closed_form_plan,
    form_coefficients,
    haar_state,
    oracle_concurrence_pure3,
    oracle_evolve,
    oracle_residual_tangle_ckw,
    oracle_residual_tangle_lambda,
    oracle_rho12,
    oracle_tangle12_pure3,
    oracle_tangle_pure2,
    reference_pair,
    total_hamiltonian,
)

X = (1.0, 0.0, 0.0)
INV_SQRT2 = 1 / np.sqrt(2)
TOL = 1e-9


def heisenberg_00plus_grid(g=1.0):
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = psi0[1] = INV_SQRT2  # |00> x |+>
    grid = np.linspace(0.0, np.pi, 64) / g
    (w,), (v,) = eigh_spectra(heisenberg_chain(g))
    return psi0, grid, evolve(w, v, psi0, grid)


def test_criterion_01_probe_measurement_prepares_bell_pairs():
    psi0 = fully_separable([0.0] * 3, [(0.0, 0.0, 1.0)] * 3, axes=(X, X, X))
    for g in (1.0, 1e-15):  # the claim is on g t alone
        gts = np.pi * np.array([1.0, 3.0])  # g t = pi (2m + 1), m = 0 and 1
        (w,), (v,) = eigh_spectra(qnd_zz(g))
        probs, _, _, states = measure_probe_grid(evolve(w, v, psi0, gts / g), X)
        for gt, p_plus, plus in zip(gts, probs[:, 0], states[:, 0]):
            assert abs(p_plus - 0.5) <= TOL, f"g={g}, gt={gt}: p(+x)={p_plus!r}"
            conditional = oracle_tangle_pure2(plus)
            assert abs(conditional - 1.0) <= TOL, f"g={g}, gt={gt}: conditional tangle {conditional!r}"
    print("ACCEPTANCE PASS [1] probe measurement at gt=pi(2m+1): p(+x)=1/2, conditional tangle 1")


def test_criterion_02_closed_form_evolution_matches_exact():
    root = np.random.SeedSequence(20240809)
    worst = 0.0
    for index, child in enumerate(root.spawn(200)):
        rng = np.random.default_rng(child)
        locals_mode = "full" if index % 2 else "none"
        coeffs = reference_pair(rng, locals_mode=locals_mode)
        w, v = closed_form_plan(coeffs[None])
        psi0 = haar_state(rng)
        assert canonical_forms(coeffs[None]).ok[0]
        times = rng.uniform(0.0, 4.0 * np.pi, 100)
        exact = oracle_evolve(total_hamiltonian(coeffs), psi0, times)  # one stacked (100, 8, 8) expm
        fast = evolve(w[0], v[0], psi0, times)
        worst = max(worst, float(np.max(1.0 - np.abs(np.vecdot(exact, fast)) ** 2)))
    assert worst <= 1e-10, f"worst infidelity {worst:.3e}"
    print(f"ACCEPTANCE PASS [2] closed-form vs scipy expm: worst infidelity {worst:.3e} over 200x100 draws")


def test_criterion_03_heisenberg_reduced_state_closed_form():
    _, grid, psis = heisenberg_00plus_grid()
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1
    psi_plus = np.zeros(4, dtype=complex)
    psi_plus[1] = psi_plus[2] = INV_SQRT2
    worst = 0.0
    for t, psi in zip(grid, psis):
        rho = oracle_rho12(psi)
        weight_00 = (2 / 9) * (1 + np.cos(6 * t)) + 5 / 9
        weight_bell = (2 / 9) * (1 - np.cos(6 * t))
        coherence = (np.sqrt(2) / 3) * 1j * np.sin(3 * t) * np.exp(-3j * t)
        expected = (
            weight_00 * np.outer(e00, e00.conj())
            + weight_bell * np.outer(psi_plus, psi_plus.conj())
            + coherence * np.outer(e00, psi_plus.conj())
            + np.conj(coherence) * np.outer(psi_plus, e00.conj())
        )
        worst = max(worst, float(np.max(np.abs(rho - expected))))
    assert worst <= TOL, f"worst entry deviation {worst:.3e}"
    print(f"ACCEPTANCE PASS [3] |00+> reduced state matches its closed form entrywise ({worst:.3e})")


def test_criterion_04_heisenberg_tangle_matches_brute_force_oracle():
    worst_oracle = 0.0
    worst_quartic = 0.0
    worst_cubic_sine = 0.0
    for g in (1.0, 1e-15):  # the claim is on g t alone
        psi0, grid, psis = heisenberg_00plus_grid(g)
        for t, computed in zip(grid, report_batch(psis)["tangle_12"]):
            oracle = oracle_concurrence_pure3(oracle_evolve(total_hamiltonian(heisenberg_chain(g)), psi0, t), 3) ** 2
            worst_oracle = max(worst_oracle, abs(computed - oracle))
            worst_quartic = max(worst_quartic, abs(oracle - (16 / 81) * np.sin(3 * g * t) ** 4))
            worst_cubic_sine = max(worst_cubic_sine, abs(oracle - (4 / 9) * np.sin(3 * g * t) ** 3))
    print(
        "ACCEPTANCE [4] closed-form comparison for the |00+> tangle: "
        f"max |oracle - 16/81 sin^4(3gt)| = {worst_quartic:.3e}; "
        f"max |oracle - 4/9 sin^3(3gt)| = {worst_cubic_sine:.3e} "
        "(the cubic-sine form is rejected by the oracle; the quartic form is confirmed)"
    )
    assert worst_oracle <= TOL, f"pipeline vs oracle deviation {worst_oracle:.3e}"
    assert worst_quartic <= TOL  # the oracle-confirmed closed form
    assert worst_cubic_sine > 0.1  # the discrepancy is real, not numerical noise
    print(f"ACCEPTANCE PASS [4] tangle matches the brute-force oracle at 64 points each for g = 1 and 1e-15 ({worst_oracle:.3e})")


def test_criterion_05_heisenberg_eigenstructure_and_swap_parity():
    swap_12 = np.zeros((8, 8))
    swap_13 = np.zeros((8, 8))
    for b in range(8):
        b1, b2, b3 = (b >> 2) & 1, (b >> 1) & 1, b & 1
        swap_12[(b2 << 2) | (b1 << 1) | b3, b] = 1
        swap_13[(b3 << 2) | (b2 << 1) | b1, b] = 1
    for g in (1.0, 0.6):
        w, v = np.linalg.eigh(total_hamiltonian(heisenberg_chain(g)))
        expected = np.sort([-4 * g] * 2 + [0.0] * 2 + [2 * g] * 4)
        assert np.allclose(np.sort(w), expected, atol=1e-10), f"g={g}: spectrum {np.sort(w)}"
        # swap parity per eigenspace: E=0 pair-antisymmetric, E=-4g pair-symmetric,
        # E=2g symmetric under every permutation
        for energy, parity, fully_symmetric in ((0.0, -1.0, False), (-4 * g, 1.0, False), (2 * g, 1.0, True)):
            sub = v[:, np.abs(w - energy) < 1e-9]
            block = sub.conj().T @ swap_12 @ sub
            assert np.max(np.abs(block - parity * np.eye(sub.shape[1]))) <= 1e-10, (
                f"g={g}, E={energy}: swap(1,2) block deviates from parity {parity}"
            )
            if fully_symmetric:
                block_13 = sub.conj().T @ swap_13 @ sub
                assert np.max(np.abs(block_13 - np.eye(sub.shape[1]))) <= 1e-10
    print(
        "ACCEPTANCE PASS [5] eigenvalues {0 x2, -4g x2, 2g x4}; E=0 antisymmetric and "
        "E=-4g symmetric under the 1<->2 swap, E=2g symmetric under all permutations"
    )


def _run_suite_criterion(label, name, trials=1000, seed=20240809):
    result = property_suite(name, trials=trials, seed=seed)
    assert result.passed, (
        f"{name}: {len(result.failures)} of {trials} trials violated the bound; "
        f"max violation {result.max_violation:.3e}; first counterexample {result.failures[:1]}"
    )
    print(f"ACCEPTANCE PASS [{label}] suite {name}: {trials} trials, max violation {result.max_violation:.3e}")
    return result


def test_criterion_06a_fully_separable_stays_separable():
    _run_suite_criterion("6a", "separable_stays_separable")


def test_criterion_06b_bipartite12_eof_nonincreasing():
    _run_suite_criterion("6b", "bipartite12_nonincreasing")


def test_criterion_06c_spectator_entanglement_never_reaches_the_pair():
    _run_suite_criterion("6c", "bipartite23_stays_zero")
    _run_suite_criterion("6c", "bipartite13_stays_zero")


def test_criterion_06d_ghz_class_can_gain_entanglement():
    result = _run_suite_criterion("6d", "ghz_can_increase")
    assert result.stats["max_tangle"] > 0.01, f"max observed tangle {result.stats['max_tangle']:.4f}"
    print(f"ACCEPTANCE PASS [6d+] entanglement creation observed: max tangle {result.stats['max_tangle']:.4f}")


def test_criterion_06e_triple_states_stated_convexity_factor():
    # Project qubit 3 onto the conserved probe axis at time t: outcome +- has
    # probability m+-^2 and leaves the pair in a pure state with tangle tau+-.
    # For triple states two identities hold exactly:
    #   sum m+-^2 tau+- = tau0 (|c|^4/m+^2 + |d|^4/m-^2)   (branch-weighted factor)
    #   sum m+-^4 tau+- = tau0 (|c|^4 + |d|^4)             (stated factor)
    # The tangle of rho_12 is a convex roof, so tau_12(t) is bounded by the
    # first sum, not by the second. At t = 0 the stated bound reads
    # tau0 <= tau0 (1 - 2|c|^2 (1-|c|^2)), false whenever tau0 > 0 and
    # 0 < |c| < 1, so the stated factor is no upper bound. The identities use
    # the oracle concurrence: the package's Wootters route carries ~1e-9 noise.
    trials, seed = 1000, 20240809
    weighted = property_suite("triple_nonincreasing", trials=trials, seed=seed)
    assert weighted.passed, "the branch-weighted bound itself must hold"
    stated = property_suite("triple_convexity_bound", trials=trials, seed=seed)
    oracle_excess = np.empty(trials)
    worst_identity, least_gap, least_t0_excess = 0.0, np.inf, np.inf
    q = _triple_quantities(_Draws(np.random.SeedSequence(seed), trials))  # the suites' draws: 1000 trials are one chunk
    for index, (coeffs, psi0, psi_t, t, probe_axis, factor_free, factor_weighted) in enumerate(
        zip(form_coefficients(*q["forms"]), q["psi0"], q["psi_t"], q["t"], q["forms"][2], q["factor_free"], q["factor_weighted"])
    ):
        tau0 = oracle_tangle12_pure3(psi0)
        tau_t = oracle_tangle12_pure3(psi_t)
        branch_probs, _, _, branch_states = measure_probe_grid(psi_t, probe_axis)
        probs = branch_probs[0].tolist()
        taus = [oracle_tangle_pure2(state) for state in branch_states[0]]
        weighted_sum = sum(p * tau for p, tau in zip(probs, taus))
        stated_sum = sum(p**2 * tau for p, tau in zip(probs, taus))
        identity = max(abs(weighted_sum - tau0 * factor_weighted), abs(stated_sum - tau0 * factor_free))
        assert identity <= 1e-12, (
            f"FAIL [6e] trial {index}: branch sums {weighted_sum:.15f}, {stated_sum:.15f} against "
            f"tau0 * factors {tau0 * factor_weighted:.15f}, {tau0 * factor_free:.15f}"
        )
        assert tau_t <= weighted_sum + 1e-12, (
            f"FAIL [6e] trial {index}: tau_12(t) = {tau_t:.15f} exceeds the branch-weighted sum {weighted_sum:.15f}"
        )
        worst_identity = max(worst_identity, identity)
        least_gap = min(least_gap, weighted_sum - tau_t)
        if tau0 > 1e-6:
            t0_excess = tau0 - tau0 * factor_free
            assert t0_excess > TOL, f"FAIL [6e] trial {index}: stated factor holds at t = 0 ({t0_excess:.3e})"
            least_t0_excess = min(least_t0_excess, t0_excess)
        oracle_excess[index] = oracle_tangle12_pure3(oracle_evolve(total_hamiltonian(coeffs), psi0, t)) - tau0 * factor_free
    reported = [failure["trial"] for failure in stated.failures]
    assert reported, "the stated factor is violated at t = 0, yet the suite found no counterexample"
    unconfirmed = [i for i in reported if oracle_excess[i] <= TOL]
    assert not unconfirmed, f"FAIL [6e] counterexamples the oracle route does not reproduce: trials {unconfirmed}"
    missed = sorted(set(np.flatnonzero(oracle_excess > 1e-6)) - set(reported))
    assert not missed, f"FAIL [6e] oracle counterexamples the suite did not report: trials {missed}"
    print(
        f"ACCEPTANCE PASS [6e] {trials} triple states: both convexity identities within {worst_identity:.1e}, "
        f"tau_12(t) below the branch-weighted sum by >= {least_gap:.1e}; the stated factor fails at t = 0 "
        f"by >= {least_t0_excess:.1e}, and the oracle reproduces all {len(reported)} counterexamples "
        f"at the sampled times (max {stated.max_violation:.3f})"
    )


def test_criterion_07_residual_tangle_routes_cross_validate():
    rng = np.random.default_rng(7)
    worst = 0.0
    states = [haar_state(rng) for _ in range(500)]
    for psi, base in zip(states, residual_tangle_rows(states)):
        worst = max(worst, abs(oracle_residual_tangle_lambda(psi) - base))
        worst = max(worst, abs(oracle_residual_tangle_ckw(psi) - base))
    assert worst <= TOL, f"route disagreement {worst:.3e}"
    ghz = ghz_general(INV_SQRT2, INV_SQRT2)
    w_state = triple(*(np.ones(3) / np.sqrt(3)))
    zrt_state = zrt(*haar_state(rng, 4))
    assert np.max(np.abs(residual_tangle_rows([ghz, w_state, zrt_state]) - (1.0, 0.0, 0.0))) <= TOL
    for route in (oracle_residual_tangle_lambda, oracle_residual_tangle_ckw):
        assert abs(route(ghz) - 1.0) <= TOL
        assert route(w_state) <= TOL
        assert route(zrt_state) <= TOL
    print(f"ACCEPTANCE PASS [7] three residual-tangle routes agree on 500 states ({worst:.3e})")


def test_criterion_08_parity_sector_conservation():
    # each trial asserts both conservation and the 16|a b c d| closed form
    _run_suite_criterion("8", "parity_residual_conserved")


def test_criterion_09_residual_tangle_periodicity():
    for k, l in ((1, 1), (2, 3), (3, 5)):
        result = residual_periodicity_check(k, l, trials=200, seed=20240809)
        assert result.passed, (
            f"ratio {k}/{l}: max |tau(t*) - tau(0)| = {result.max_violation:.3e}, "
            f"first counterexample {result.failures[:1]}"
        )
        print(f"ACCEPTANCE PASS [9] ratio {k}/{l}: residual tangle returns at t*=k*pi/2 ({result.max_violation:.3e})")


def test_criterion_10_heisenberg_ghz_and_triple_invariance():
    rng = np.random.default_rng(10)
    (w,), (v,) = eigh_spectra(heisenberg_chain(1.0))
    grid = np.linspace(0.0, np.pi, 32)

    ghz_states = [ghz_general(INV_SQRT2, INV_SQRT2)]
    for _ in range(5):
        a2 = rng.uniform(0.05, 0.95)
        ghz_states.append(ghz_general(np.sqrt(a2), np.sqrt(1 - a2)))
    for psi0 in ghz_states:
        tau0 = residual_tangle_rows(psi0)[0]
        table = report_batch(evolve(w, v, psi0, grid))
        for t, tangle, residual in zip(grid, table["tangle_12"], table["residual_tangle"]):
            assert tangle <= TOL, f"GHZ-class tangle {tangle:.3e} at t={t}"
            assert abs(residual - tau0) <= TOL

    standard = ghz_states[0]
    assert np.max(np.abs(residual_tangle_rows(evolve(w, v, standard, grid)) - 1.0)) <= TOL

    for _ in range(5):
        psi0 = triple(*haar_state(rng, 3))
        assert np.max(residual_tangle_rows(evolve(w, v, psi0, grid))) <= TOL
    print("ACCEPTANCE PASS [10] isotropic chain: GHZ class keeps tangle 0 and residual 4a^2b^2 (1 for standard); triple class keeps residual 0")


def test_criterion_11_determinism_byte_identical_csv(tmp_path):
    raw = {
        "hamiltonian": {"preset": "heisenberg_chain", "g": 1.0},
        "initial_state": {
            "class": "raw_amplitudes",
            "params": {"amplitudes": [INV_SQRT2, INV_SQRT2, 0, 0, 0, 0, 0, 0]},
        },
        "time_grid": {"t_start": 0.0, "t_end": float(np.pi), "steps": 64},
        "measurement": {"basis": "x"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_a), "--seed", "99"]) == 0
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_b), "--seed", "99"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    print("ACCEPTANCE PASS [11] identical config and seed give byte-identical CSV")
