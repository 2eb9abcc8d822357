import numpy as np
import pytest

from triqubit.evolution import (
    NonFactorizedInitialStateError,
    evolve,
    evolve_grid,
    evolve_rows,
    factor_probe,
    kraus_pair,
    make_plan,
    measure_probe,
    plan_spectra,
    v_operators,
)
from triqubit.hamiltonians import PauliPairHamiltonian, heisenberg_chain, qnd_zz
from triqubit.linalg import I2, kron
from triqubit.scenarios import (
    random_axis,
    random_commuting_pair,
    random_qubit_state,
    random_rotation,
    random_state,
)
from triqubit.states import LocalRotation, axis_eigenbasis, basis_matrix, fully_separable, ghz_general

from oracles import (
    form_matrices,
    haar_state,
    oracle_concurrence_mixed,
    oracle_evolve,
    oracle_rho12,
    oracle_tangle12_pure3,
    oracle_tangle_pure2,
    oracle_unitary,
)

X = (1.0, 0.0, 0.0)
INV_SQRT2 = 1 / np.sqrt(2)


def x_product_state():
    return fully_separable(*(LocalRotation(qubit=q) for q in (1, 2, 3)), axes=(X, X, X))


class TestPlan:
    def test_commuting_detection(self):
        assert make_plan(*qnd_zz(1.0)).commuting
        plan = make_plan(*heisenberg_chain(1.0))
        assert not plan.commuting
        assert plan.commutator_norm > 1
        assert "commut" in plan.fastpath_error

    def test_unitary_is_unitary(self):
        plan = make_plan(*heisenberg_chain(0.7))
        u = plan.unitary(1.3)
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-12

    def test_unitary_group_property_and_pade_oracle(self):
        # U(0) = 1, U(t) U(s) = U(t + s), and U(t) = expm(-i H t) from either spectrum source
        rng = np.random.default_rng(11)
        for plan in (make_plan(*heisenberg_chain(0.7)), make_plan(*random_commuting_pair(rng, locals_mode="full"))):
            t, s = 0.7, 1.9
            assert np.max(np.abs(plan.unitary(0.0) - np.eye(8))) <= 1e-12
            assert np.max(np.abs(plan.unitary(t) @ plan.unitary(s) - plan.unitary(t + s))) <= 1e-10
            assert np.max(np.abs(plan.unitary(t) - oracle_unitary(plan.h_total, t))) <= 1e-10


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
            assert np.max(np.abs(out - oracle_evolve(plan.h_total, psi, t))) <= 1e-10

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
                a = oracle_evolve(plan.h_total, psi, t)
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
        closed_form, eigh = commuting.fastpath.spectrum(), np.linalg.eigh(noncommuting.h_total)
        for plan, expected in ((commuting, closed_form), (noncommuting, eigh)):
            for got, want in zip(plan.spectrum(), expected):
                assert np.array_equal(got, want)
        psi = random_state(rng)
        for plan in (commuting, noncommuting):
            assert np.max(np.abs(evolve(plan, psi, 0.9) - oracle_evolve(plan.h_total, psi, 0.9))) <= 1e-10


class TestSpectrum:
    def test_closed_form_matches_eigh_with_a_zero_sector_vector(self):
        # local_self cancels the coupling of qubit 1 in the m = -1 probe sector
        z = np.array([0.0, 0.0, 1.0])
        h13 = PauliPairHamiltonian(coupling=0.8 * np.outer(z, z), local_self=0.8 * z,
                                   local_probe=0.3 * z, pair=(1, 3))
        h23 = PauliPairHamiltonian(coupling=0.5 * np.outer((1.0, 0.0, 0.0), z),
                                   local_self=(0.2, 0.4, 0.1), pair=(2, 3))
        plan = make_plan(h13, h23)
        vecs = plan.fastpath.sector_vectors()
        assert np.all(vecs[1, 0] == 0.0)
        assert np.linalg.norm(vecs[0, 0]) == pytest.approx(1.6)
        w, v = plan.spectrum()
        w_eigh, v_eigh = np.linalg.eigh(plan.h_total)
        assert np.max(np.abs(np.sort(w) - w_eigh)) <= 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-12
        assert np.max(np.abs((v * w) @ v.conj().T - plan.h_total)) <= 1e-12
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
            assert np.max(np.abs((v * w) @ v.conj().T - plan.h_total)) <= 1e-12

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
        forms, w, v = plan_spectra(*zip(*pairs))
        psi0s, times = np.array([random_state(rng) for _ in pairs]), rng.uniform(0.0, 5.0, len(pairs))
        rows = evolve_rows(w, v, psi0s, times)
        for i, (h13, h23) in enumerate(pairs):
            plan = make_plan(h13, h23)
            assert forms.ok[i] == plan.commuting and str(forms.error(i)) == str(plan.fastpath_error)
            w1, v1 = plan.spectrum()
            assert np.array_equal(w[i], w1) and np.array_equal(v[i], v1)
            assert np.max(np.abs(rows[i] - evolve(plan, psi0s[i], times[i]))) <= 1e-14

    def test_spectrum_cached_per_source(self, monkeypatch):
        # each plan computes its one source once; a commuting plan never calls eigh
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or eigh(m))
        commuting, noncommuting = make_plan(*qnd_zz(1.0)), make_plan(*heisenberg_chain(1.0))
        psi = random_state(np.random.default_rng(26))
        for plan in (commuting, noncommuting):
            first = plan.spectrum()
            evolve_grid(plan, psi, (0.1, 0.2))
            plan.unitary(0.3)
            assert plan.spectrum() is first
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
            a = oracle_evolve(plan.h_total, psi, t)
            b = evolve(plan, psi, t)
            assert 1 - abs(np.vdot(a, b)) ** 2 <= 1e-10

    def test_plus_plus_plus_only_picks_global_phase(self):
        rng = np.random.default_rng(31)
        h13, h23 = random_commuting_pair(rng)
        plan = make_plan(h13, h23)
        fp = plan.fastpath
        axes = (*fp.body_axes, fp.probe_axis)
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        psi0 = basis_matrix(axes) @ amps
        t = 1.234
        out = evolve(plan, psi0, t)
        expected = np.exp(-1j * sum(fp.strengths) * t) * psi0
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
    def test_time_zero_scales_identity(self):
        rng = np.random.default_rng(40)
        h13, h23 = random_commuting_pair(rng)
        plan = make_plan(h13, h23)
        phi = random_qubit_state(rng)
        pair = kraus_pair(plan, phi, 0.0)
        plus, minus = axis_eigenbasis(plan.fastpath.probe_axis)
        assert np.max(np.abs(pair.a_plus - np.vdot(plus, phi) * np.eye(4))) <= 1e-12
        assert np.max(np.abs(pair.a_minus - np.vdot(minus, phi) * np.eye(4))) <= 1e-12

    def test_completeness_and_reconstruction(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            h13, h23 = random_commuting_pair(rng, locals_mode="full")
            plan = make_plan(h13, h23)
            chi = haar_state(rng, 4)
            phi = random_qubit_state(rng)
            t = rng.uniform(0, 5)
            pair = kraus_pair(plan, phi, t)
            assert pair.completeness_defect() <= 1e-10
            via_kraus = pair.apply(np.outer(chi, chi.conj()))
            via_trace = oracle_rho12(oracle_evolve(plan.h_total, np.kron(chi, phi), t))
            assert np.max(np.abs(via_kraus - via_trace)) <= 1e-10

    def test_branch_unitary_structure(self):
        # for a commuting plan without local terms the two Kraus operators are
        # <±|phi> times a product of single-qubit axis rotations
        from triqubit.evolution import _axis_rotation

        rng = np.random.default_rng(42)
        h13, h23 = random_commuting_pair(rng)
        plan = make_plan(h13, h23)
        fp = plan.fastpath
        phi = random_qubit_state(rng)
        t = 0.83
        pair = kraus_pair(plan, phi, t)
        plus, minus = axis_eigenbasis(fp.probe_axis)
        s13, s23 = fp.strengths
        a1, a2 = (np.asarray(a) for a in fp.body_axes)
        expected_plus = np.vdot(plus, phi) * kron(_axis_rotation(s13 * a1, t), _axis_rotation(s23 * a2, t))
        expected_minus = np.vdot(minus, phi) * kron(_axis_rotation(-s13 * a1, t), _axis_rotation(-s23 * a2, t))
        assert np.max(np.abs(pair.a_plus - expected_plus)) <= 1e-10
        assert np.max(np.abs(pair.a_minus - expected_minus)) <= 1e-10

    def test_separable_input_stays_separable_through_kraus(self):
        rng = np.random.default_rng(43)
        h13, h23 = random_commuting_pair(rng, locals_mode="full")
        plan = make_plan(h13, h23)
        chi = np.kron(random_qubit_state(rng), random_qubit_state(rng))
        phi = random_qubit_state(rng)
        for t in np.linspace(0, 4, 9):
            rho = kraus_pair(plan, phi, t).apply(np.outer(chi, chi.conj()))
            assert oracle_concurrence_mixed(rho) ** 2 <= 1e-9

    def test_explicit_basis_for_noncommuting_plan(self):
        plan = make_plan(*heisenberg_chain(1.0))
        phi = np.array([INV_SQRT2, INV_SQRT2], dtype=complex)
        with pytest.raises(ValueError):
            kraus_pair(plan, phi, 1.0)
        e0, e1 = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
        pair = kraus_pair(plan, phi, 1.0, basis=(e0, e1))
        assert pair.completeness_defect() <= 1e-10
        chi = np.zeros(4, dtype=complex)
        chi[0] = 1
        via_kraus = pair.apply(np.outer(chi, chi.conj()))
        via_trace = oracle_rho12(evolve(plan, np.kron(chi, phi), 1.0))
        assert np.max(np.abs(via_kraus - via_trace)) <= 1e-10

    def test_factor_probe(self):
        chi = haar_state(np.random.default_rng(3), 4)
        phi = random_qubit_state(np.random.default_rng(4))
        a, b = factor_probe(np.kron(chi, phi))
        assert np.max(np.abs(np.kron(a, b) - np.kron(chi, phi))) <= 1e-10
        with pytest.raises(NonFactorizedInitialStateError):
            factor_probe(ghz_general(INV_SQRT2, INV_SQRT2))


class TestVOperators:
    def test_time_zero_is_rotation(self):
        rng = np.random.default_rng(50)
        h13, h23 = random_commuting_pair(rng)
        form13 = make_plan(h13, h23).fastpath.form13
        r = random_rotation(rng, 1)
        v_plus, v_minus = v_operators(form13, r, 0.0)
        assert np.allclose(v_plus, r.matrix(), atol=1e-12)
        assert np.allclose(v_minus, r.matrix(), atol=1e-12)

    def test_half_period_is_minus_rotation(self):
        rng = np.random.default_rng(51)
        h13, h23 = random_commuting_pair(rng)
        form13 = make_plan(h13, h23).fastpath.form13
        r = random_rotation(rng, 1)
        t = np.pi / form13.coupling_strength
        v_plus, v_minus = v_operators(form13, r, t)
        assert np.allclose(v_plus, -r.matrix(), atol=1e-10)
        assert np.allclose(v_minus, -r.matrix(), atol=1e-10)

    def test_conjugation_identity(self):
        # U13(t) (R1 x 1 x 1)|++m> = (V1_m x 1 x 1)|++m> on the interaction eigenbasis
        rng = np.random.default_rng(52)
        for _ in range(10):
            h13, h23 = random_commuting_pair(rng)
            fp = make_plan(h13, h23).fastpath
            f13 = fp.form13
            axes = (*fp.body_axes, fp.probe_axis)
            b = basis_matrix(axes)
            r = random_rotation(rng, 1)
            t = rng.uniform(0, 5)
            u13 = oracle_unitary(form_matrices(f13)[0], t)
            r_embedded = kron(r.matrix(), I2, I2)
            v_plus, v_minus = v_operators(f13, r, t)
            for column, v in ((0, v_plus), (1, v_minus)):  # |++(+)> and |++(-)>
                ket = b[:, column]
                lhs = u13 @ r_embedded @ ket
                rhs = kron(v, I2, I2) @ ket
                assert np.max(np.abs(lhs - rhs)) <= 1e-12


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
