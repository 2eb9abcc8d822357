import dataclasses

import numpy as np
import pytest

from triqubit.evolution import (
    closed_form_spectra,
    evolve,
    evolve_grid,
    evolve_rows,
    make_plan,
    measure_probe,
    measure_probe_grid,
    plan_spectra,
    sector_vectors,
)
from triqubit.hamiltonians import PauliPairHamiltonian, heisenberg_chain, pair_coefficients, qnd_zz
from triqubit.measures import report
from triqubit.scenarios import (
    random_axis,
    random_commuting_pair,
    random_qubit_state,
    random_state,
)
from triqubit.states import LocalRotation, axis_eigenbasis, from_axis_basis, fully_separable, ghz_general

from oracles import (
    haar_state,
    oracle_concurrence_mixed,
    oracle_evolve,
    oracle_kraus,
    oracle_rho12,
    oracle_rho12_kraus,
    oracle_tangle12_pure3,
    oracle_tangle_pure2,
    oracle_unitary,
    total_hamiltonian,
)

X = (1.0, 0.0, 0.0)
INV_SQRT2 = 1 / np.sqrt(2)


def x_product_state():
    return fully_separable(*(LocalRotation(qubit=q) for q in (1, 2, 3)), axes=(X, X, X))


def unitary(plan, t: float) -> np.ndarray:
    """U(t) column by column: ``evolve_grid`` of each of the 8 basis states to the one time t."""
    return np.stack([evolve_grid(plan, e, (t,))[0] for e in np.eye(8)], axis=1)


class TestPlan:
    def test_commuting_detection(self):
        assert make_plan(*qnd_zz(1.0)).commuting
        plan = make_plan(*heisenberg_chain(1.0))
        assert not plan.commuting
        assert plan.commutator_norm > 1
        assert "commut" in plan.fastpath_error

    def test_unitary_is_unitary(self):
        plan = make_plan(*heisenberg_chain(0.7))
        u = unitary(plan, 1.3)
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-12

    def test_unitary_group_property_and_pade_oracle(self):
        # U(0) = 1, U(t) U(s) = U(t + s), and U(t) = expm(-i H t) from either spectrum source
        rng = np.random.default_rng(11)
        for plan in (make_plan(*heisenberg_chain(0.7)), make_plan(*random_commuting_pair(rng, locals_mode="full"))):
            t, s = 0.7, 1.9
            assert np.max(np.abs(unitary(plan, 0.0) - np.eye(8))) <= 1e-12
            assert np.max(np.abs(unitary(plan, t) @ unitary(plan, s) - unitary(plan, t + s))) <= 1e-10
            assert np.max(np.abs(unitary(plan, t) - oracle_unitary(total_hamiltonian(plan), t))) <= 1e-10


class TestEvolveExact:
    def test_time_zero_identity(self):
        plan = make_plan(*heisenberg_chain(1.0))
        psi = haar_state(np.random.default_rng(0))
        assert np.max(np.abs(evolve(plan, psi, 0.0) - psi)) <= 1e-12

    def test_norm_preserved_and_matches_pade_oracle(self):
        rng = np.random.default_rng(10)
        plan = make_plan(*heisenberg_chain(1.0))
        psi = haar_state(rng)
        for t in np.linspace(0, 6, 13):
            out = evolve(plan, psi, t)
            assert abs(np.vdot(out, out).real - 1) <= 1e-12
            assert np.max(np.abs(out - oracle_evolve(total_hamiltonian(plan), psi, t))) <= 1e-10

    def test_probe_coupled_product_state_at_bell_time(self):
        # frozen amplitudes of the evolved x-polarized product state at g t = pi,
        # derived by phase bookkeeping on the zz eigenbasis
        plan = make_plan(*qnd_zz(1.0))
        out = evolve(plan, x_product_state(), np.pi)
        s = 1 / (2 * np.sqrt(2))
        expected = s * np.array([-1j, 1j, 1, 1, 1, 1, 1j, -1j])
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_permutation_symmetric_state_is_stationary(self):
        plan = make_plan(*heisenberg_chain(1.0))
        psi0 = np.zeros(8, dtype=complex)
        psi0[0] = 1  # product of three identical states
        rho0 = oracle_rho12(psi0)
        for t in (0.3, 1.1, 2.9):
            rho_t = oracle_rho12(evolve(plan, psi0, t))
            assert np.max(np.abs(rho_t - rho0)) <= 1e-10


class TestFastpath:
    def test_fastpath_matches_exact_with_full_locals(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            h13, h23 = random_commuting_pair(rng, locals_mode="full")
            plan = make_plan(h13, h23)
            assert plan.commuting
            psi = random_state(rng)
            for t in rng.uniform(0, 7, 4):
                a = oracle_evolve(total_hamiltonian(plan), psi, t)
                b = evolve(plan, psi, t)
                assert 1 - abs(np.vdot(a, b)) ** 2 <= 1e-10

    def test_fastpath_unitary_is_unitary(self):
        # U(t) from the closed-form spectrum of the commuting fast path
        rng = np.random.default_rng(21)
        h13, h23 = random_commuting_pair(rng, locals_mode="full")
        w, v = make_plan(h13, h23).spectrum()
        u = (v * np.exp(-1.7j * w)) @ v.conj().T
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-12

    def test_evolve_mode_dispatch(self):
        # the plan picks the spectrum: closed form when the pair commutes, eigh otherwise
        rng = np.random.default_rng(22)
        commuting = make_plan(*random_commuting_pair(rng))
        noncommuting = make_plan(*heisenberg_chain(1.0))
        forms = commuting.forms
        vecs = sector_vectors(forms.strength, forms.body_axis, forms.self_strength, forms.self_axis)
        closed_form = closed_form_spectra(vecs, forms.probe_axis, forms.probe_strength[:, 0] + forms.probe_strength[:, 1])
        closed_form, eigh = [a[0] for a in closed_form], np.linalg.eigh(total_hamiltonian(noncommuting))
        for plan, expected in ((commuting, closed_form), (noncommuting, eigh)):
            for got, want in zip(plan.spectrum(), expected):
                assert np.array_equal(got, want)
        psi = random_state(rng)
        for plan in (commuting, noncommuting):
            assert np.max(np.abs(evolve(plan, psi, 0.9) - oracle_evolve(total_hamiltonian(plan), psi, 0.9))) <= 1e-10


class TestSpectrum:
    def test_closed_form_matches_eigh_with_a_zero_sector_vector(self):
        # local_self cancels the coupling of qubit 1 in the m = -1 probe sector
        z = np.array([0.0, 0.0, 1.0])
        h13 = PauliPairHamiltonian(coupling=0.8 * np.outer(z, z), local_self=0.8 * z,
                                   local_probe=0.3 * z, pair=(1, 3))
        h23 = PauliPairHamiltonian(coupling=0.5 * np.outer((1.0, 0.0, 0.0), z),
                                   local_self=(0.2, 0.4, 0.1), pair=(2, 3))
        plan = make_plan(h13, h23)
        forms = plan.forms
        vecs = sector_vectors(forms.strength, forms.body_axis, forms.self_strength, forms.self_axis)[0]
        assert np.all(vecs[1, 0] == 0.0)
        assert np.linalg.norm(vecs[0, 0]) == pytest.approx(1.6)
        w, v = plan.spectrum()
        w_eigh, v_eigh = np.linalg.eigh(total_hamiltonian(plan))
        assert np.max(np.abs(np.sort(w) - w_eigh)) <= 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-12
        assert np.max(np.abs((v * w) @ v.conj().T - total_hamiltonian(plan))) <= 1e-12
        psi = random_state(np.random.default_rng(23))
        times = np.linspace(0.0, 6.0, 25)
        exact = (np.exp(-1j * np.outer(times, w_eigh)) * (v_eigh.conj().T @ psi)) @ v_eigh.T
        assert np.max(np.abs(evolve_grid(plan, psi, times) - exact)) <= 1e-12

    def test_closed_form_reconstructs_random_commuting_hamiltonians(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            plan = make_plan(*random_commuting_pair(rng, locals_mode="full"))
            w, v = plan.spectrum()
            assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-12
            assert np.max(np.abs((v * w) @ v.conj().T - total_hamiltonian(plan))) <= 1e-12

    def test_grid_rows_equal_single_points(self):
        rng = np.random.default_rng(25)
        plans = [make_plan(*random_commuting_pair(rng, locals_mode="full")), make_plan(*heisenberg_chain(0.9))]
        psi = random_state(rng)
        times = rng.uniform(0.0, 7.0, 17)
        for plan in plans:
            grid = evolve_grid(plan, psi, times)
            assert grid.shape == (17, 8)
            for row, t in zip(grid, times):
                assert np.max(np.abs(row - evolve(plan, psi, t))) <= 1e-12

    def test_stacked_plans_equal_one_row_plans(self):
        # closed-form and eigh rows in one batch, each bit for bit its own plan's; then one state per row and time
        rng = np.random.default_rng(27)
        pairs = [random_commuting_pair(rng, locals_mode="full") for _ in range(4)] + [heisenberg_chain(0.7)]
        pairs += [(PauliPairHamiltonian(coupling=np.diag([1.0, 2.0, 0.0]), pair=(1, 3)), PauliPairHamiltonian(coupling=np.zeros((3, 3)), pair=(2, 3)))]
        forms, w, v = plan_spectra(pair_coefficients(*zip(*pairs)))
        psi0s, times = np.array([random_state(rng) for _ in pairs]), rng.uniform(0.0, 5.0, len(pairs))
        rows = evolve_rows(w, v, psi0s, times)
        for i, (h13, h23) in enumerate(pairs):
            plan = make_plan(h13, h23)
            assert forms.ok[i] == plan.commuting and str(forms.error(i)) == str(plan.fastpath_error)
            w1, v1 = plan.spectrum()
            assert np.array_equal(w[i], w1) and np.array_equal(v[i], v1)
            assert np.max(np.abs(rows[i] - evolve(plan, psi0s[i], times[i]))) <= 1e-14

    def test_spectrum_cached_per_source(self, monkeypatch):
        # each plan computes its one source once, at build time, and cannot be changed after;
        # a commuting plan never calls eigh
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or eigh(m))
        commuting = make_plan(*qnd_zz(1.0))
        assert not calls
        noncommuting = make_plan(*heisenberg_chain(1.0))
        psi = random_state(np.random.default_rng(26))
        for plan in (commuting, noncommuting):
            first = plan.spectrum()
            evolve_grid(plan, psi, (0.1, 0.2))
            unitary(plan, 0.3)
            assert all(now is then for now, then in zip(plan.spectrum(), first))
            with pytest.raises(dataclasses.FrozenInstanceError):
                plan.w = first[0]
        assert len(calls) == 1


class TestClosedForm:
    # entangling-only plans: random commuting pairs without local terms

    def test_matches_exact_entangling_evolution(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            h13, h23 = random_commuting_pair(rng)  # no local terms
            plan = make_plan(h13, h23)
            psi = random_state(rng)
            t = rng.uniform(0, 7)
            a = oracle_evolve(total_hamiltonian(plan), psi, t)
            b = evolve(plan, psi, t)
            assert 1 - abs(np.vdot(a, b)) ** 2 <= 1e-10

    def test_plus_plus_plus_only_picks_global_phase(self):
        rng = np.random.default_rng(31)
        h13, h23 = random_commuting_pair(rng)
        plan = make_plan(h13, h23)
        forms = plan.forms
        axes = np.array([*forms.body_axis[0], forms.probe_axis[0]])
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        psi0 = from_axis_basis(amps, axes)
        t = 1.234
        out = evolve(plan, psi0, t)
        expected = np.exp(-1j * (forms.strength[0, 0] + forms.strength[0, 1]) * t) * psi0
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_periodic_return_for_equal_strengths(self):
        rng = np.random.default_rng(32)
        u, w, j = random_axis(rng), random_axis(rng), random_axis(rng)
        s = 1.1
        h13 = PauliPairHamiltonian(coupling=s * np.outer(u, j), pair=(1, 3))
        h23 = PauliPairHamiltonian(coupling=s * np.outer(w, j), pair=(2, 3))
        plan = make_plan(h13, h23)
        psi = random_state(rng)
        period = np.pi / s
        revived = evolve(plan, psi, period)
        assert np.max(np.abs(revived - psi)) <= 1e-10
        rho_a = oracle_rho12(evolve(plan, psi, 0.4))
        rho_b = oracle_rho12(evolve(plan, psi, 0.4 + period))
        assert np.max(np.abs(rho_a - rho_b)) <= 1e-10


class TestKraus:
    # the Kraus route to rho_12 is an oracle: A_k = <b_k| U(t) |phi>_3 from scipy's U(t), so
    # rho_12(t) = sum_k A_k |chi><chi| A_k† checks the package's evolution of chi x phi

    def test_time_zero_scales_identity(self):
        # A_k(0) = <b_k|phi> 1, so the package's measured branches of chi x phi at t = 0 are <b_k|phi> chi
        rng = np.random.default_rng(40)
        h13, h23 = random_commuting_pair(rng)
        plan = make_plan(h13, h23)
        phi, chi = random_qubit_state(rng), haar_state(rng, 4)
        basis = axis_eigenbasis(plan.forms.probe_axis[0])
        for a, b in zip(oracle_kraus(total_hamiltonian(plan), phi, basis, 0.0), basis):
            assert np.max(np.abs(a - np.vdot(b, phi) * np.eye(4))) <= 1e-12
        probs, _, present, states = measure_probe_grid(evolve_grid(plan, np.kron(chi, phi), (0.0,)), basis)
        assert present.all()
        for k, b in enumerate(basis):
            assert np.max(np.abs(np.sqrt(probs[0, k]) * states[0, k] - np.vdot(b, phi) * chi)) <= 1e-12

    def test_completeness_and_reconstruction(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            h13, h23 = random_commuting_pair(rng, locals_mode="full")
            plan = make_plan(h13, h23)
            chi = haar_state(rng, 4)
            phi = random_qubit_state(rng)
            t = rng.uniform(0, 5)
            basis = axis_eigenbasis(plan.forms.probe_axis[0])
            kraus = oracle_kraus(total_hamiltonian(plan), phi, basis, t)
            assert np.max(np.abs(sum(a.conj().T @ a for a in kraus) - np.eye(4))) <= 1e-10
            via_kraus = oracle_rho12_kraus(total_hamiltonian(plan), chi, phi, basis, t)
            via_trace = oracle_rho12(evolve(plan, np.kron(chi, phi), t))
            assert np.max(np.abs(via_kraus - via_trace)) <= 1e-10

    def test_separable_input_stays_separable_through_kraus(self):
        rng = np.random.default_rng(43)
        h13, h23 = random_commuting_pair(rng, locals_mode="full")
        plan = make_plan(h13, h23)
        chi = np.kron(random_qubit_state(rng), random_qubit_state(rng))
        phi = random_qubit_state(rng)
        basis = axis_eigenbasis(plan.forms.probe_axis[0])
        for t in np.linspace(0, 4, 9):
            rho = oracle_rho12_kraus(total_hamiltonian(plan), chi, phi, basis, t)
            assert oracle_concurrence_mixed(rho) ** 2 <= 1e-9
            assert report(evolve(plan, np.kron(chi, phi), t)).tangle_12 <= 1e-9

    def test_explicit_basis_for_noncommuting_plan(self):
        # any orthonormal probe basis gives the same rho_12, also without a shared probe axis
        plan = make_plan(*heisenberg_chain(1.0))
        phi = np.array([INV_SQRT2, INV_SQRT2], dtype=complex)
        e0, e1 = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
        kraus = oracle_kraus(total_hamiltonian(plan), phi, (e0, e1), 1.0)
        assert np.max(np.abs(sum(a.conj().T @ a for a in kraus) - np.eye(4))) <= 1e-10
        chi = np.zeros(4, dtype=complex)
        chi[0] = 1
        via_kraus = oracle_rho12_kraus(total_hamiltonian(plan), chi, phi, (e0, e1), 1.0)
        via_trace = oracle_rho12(evolve(plan, np.kron(chi, phi), 1.0))
        assert np.max(np.abs(via_kraus - via_trace)) <= 1e-10


class TestMeasureProbe:
    def test_product_state_conditionals_identical(self):
        rng = np.random.default_rng(60)
        chi = haar_state(rng, 4)
        phi = np.array([0.6, 0.8j], dtype=complex)
        outcomes = measure_probe(np.kron(chi, phi), axis_eigenbasis(X))
        assert abs(sum(o.probability for o in outcomes) - 1) <= 1e-12
        overlap = abs(np.vdot(outcomes[0].state, outcomes[1].state))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_bell_pair_preparation(self):
        # the same g t = pi far below unit scale, where squared rotation vectors underflow at 1e-170
        for g in (1.0, 1e-15, 1e-170):
            plan = make_plan(*qnd_zz(g))
            psi = evolve(plan, x_product_state(), np.pi / g)
            outcomes = measure_probe(psi, axis_eigenbasis(X), labels=("+x", "-x"))
            assert outcomes[0].label == "+x"
            assert outcomes[0].probability == pytest.approx(0.5, abs=1e-12)
            assert oracle_tangle_pure2(outcomes[0].state) == pytest.approx(1.0, abs=1e-9)
            # the +x conditional is (|01> + |10>)/sqrt(2) up to a global phase
            bell = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
            assert abs(np.vdot(bell, outcomes[0].state)) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_z_basis(self):
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        outcomes = measure_probe(ghz_general(INV_SQRT2, INV_SQRT2), (e0, e1), labels=("0", "1"))
        for outcome, index in zip(outcomes, (0, 3)):
            assert outcome.probability == pytest.approx(0.5, abs=1e-12)
            expected = np.zeros(4)
            expected[index] = 1
            assert np.max(np.abs(np.abs(outcome.state) - expected)) <= 1e-12

    def test_degenerate_outcome_reported_absent(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1  # |000>, the |1> outcome on qubit 3 never occurs
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        outcomes = measure_probe(psi, (e0, e1))
        assert outcomes[1].probability <= 1e-14
        assert outcomes[1].state is None
        assert outcomes[1].degenerate

    def test_rejects_non_orthonormal_basis(self):
        psi = ghz_general(INV_SQRT2, INV_SQRT2)
        with pytest.raises(ValueError):
            measure_probe(psi, (np.array([1, 0]), np.array([1, 1]) * INV_SQRT2))


def test_local_terms_do_not_change_tangle_when_aligned():
    # evolution with the full Hamiltonians vs with the entangling parts only:
    # identical 1,2 tangle when body-local axes ride the coupling axes
    rng = np.random.default_rng(70)
    for _ in range(20):
        u, w, j = random_axis(rng), random_axis(rng), random_axis(rng)
        s13, s23 = rng.uniform(0.2, 2, size=2)
        full = (
            PauliPairHamiltonian(coupling=s13 * np.outer(u, j), local_self=rng.uniform(0, 1) * u,
                                 local_probe=rng.uniform(-1, 1) * j, pair=(1, 3)),
            PauliPairHamiltonian(coupling=s23 * np.outer(w, j), local_self=rng.uniform(0, 1) * w,
                                 local_probe=rng.uniform(-1, 1) * j, pair=(2, 3)),
        )
        entangling_only = (
            PauliPairHamiltonian(coupling=s13 * np.outer(u, j), pair=(1, 3)),
            PauliPairHamiltonian(coupling=s23 * np.outer(w, j), pair=(2, 3)),
        )
        psi0 = random_state(rng)
        t = rng.uniform(0, 2 * np.pi)
        tau_full = oracle_tangle12_pure3(evolve(make_plan(*full), psi0, t))
        tau_ent = oracle_tangle12_pure3(evolve(make_plan(*entangling_only), psi0, t))
        assert abs(tau_full - tau_ent) <= 1e-9
