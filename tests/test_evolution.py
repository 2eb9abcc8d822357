import numpy as np
import pytest

from triqubit.evolution import (
    closed_form_spectra,
    evolve,
    measure_probe_grid,
    plan_spectra,
)
from triqubit.hamiltonians import canonical_forms, heisenberg_chain, qnd_zz
from triqubit.linalg import directions
from triqubit.measures import concurrence_12
from triqubit.states import from_axis_basis, fully_separable, ghz_general
from triqubit.tolerances import SPECTRAL_TOL

from oracles import (
    I2,
    PAULIS,
    axis_eigenbasis,
    closed_form_plan,
    haar_state,
    matrices,
    one_pair,
    oracle_concurrence_mixed,
    oracle_evolve,
    oracle_kraus,
    oracle_probe_measurement,
    oracle_rho12,
    oracle_rho12_kraus,
    oracle_tangle12_pure3,
    oracle_tangle_pure2,
    oracle_unitary,
    reference_axis,
    reference_pair,
    row,
    total_hamiltonian,
)

X = (1.0, 0.0, 0.0)
Z = (0.0, 0.0, 1.0)
INV_SQRT2 = 1 / np.sqrt(2)


def x_product_state():
    return fully_separable([0.0] * 3, [Z] * 3, axes=(X, X, X))


def sector_vectors(body, local_self) -> np.ndarray:
    """(N, 2, 2, 3) rotation vectors [row, probe sector m = +1, -1, body qubit]: m * body + local_self."""
    return np.array([1.0, -1.0])[:, None, None] * body[:, None] + local_self[:, None]


def unitary(w, v, t: float) -> np.ndarray:
    """U(t) column by column: ``evolve`` of each of the 8 basis states to the one time t."""
    return np.stack([evolve(w, v, e, (t,))[0] for e in np.eye(8)], axis=1)


class TestPlan:
    def test_commuting_detection(self):
        forms, _, _ = plan_spectra(np.concatenate([qnd_zz(1.0), heisenberg_chain(1.0)]))
        assert forms.ok.tolist() == [True, False]
        assert forms.commutator_norm[1] > 1
        assert "commut" in forms.reason(1)

    def test_unitary_is_unitary(self):
        _, (w,), (v,) = plan_spectra(heisenberg_chain(0.7))
        u = unitary(w, v, 1.3)
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-12

    def test_unitary_group_property_and_pade_oracle(self):
        # U(0) = 1, U(t) U(s) = U(t + s), and U(t) = expm(-i H t) from either spectrum source
        rng = np.random.default_rng(11)
        full = reference_pair(rng, locals_mode="full")[None]
        for plan, coeffs in ((plan_spectra, heisenberg_chain(0.7)), (plan_spectra, full), (closed_form_plan, full)):
            _, (w,), (v,) = plan(coeffs)
            t, s = 0.7, 1.9
            assert np.max(np.abs(unitary(w, v, 0.0) - np.eye(8))) <= 1e-12
            assert np.max(np.abs(unitary(w, v, t) @ unitary(w, v, s) - unitary(w, v, t + s))) <= 1e-10
            assert np.max(np.abs(unitary(w, v, t) - oracle_unitary(total_hamiltonian(coeffs), t))) <= 1e-10


class TestEvolveExact:
    def test_time_zero_identity(self):
        _, (w,), (v,) = plan_spectra(heisenberg_chain(1.0))
        psi = haar_state(np.random.default_rng(0))
        assert np.max(np.abs(evolve(w, v, psi, (0.0,))[0] - psi)) <= 1e-12

    def test_norm_preserved_and_matches_pade_oracle(self):
        rng = np.random.default_rng(10)
        psi = haar_state(rng)
        times = np.linspace(0, 6, 13)
        _, (w,), (v,) = plan_spectra(heisenberg_chain(1.0))
        for t, out in zip(times, evolve(w, v, psi, times)):
            assert abs(np.vdot(out, out).real - 1) <= 1e-12
            assert np.max(np.abs(out - oracle_evolve(total_hamiltonian(heisenberg_chain(1.0)), psi, t))) <= 1e-10

    def test_probe_coupled_product_state_at_bell_time(self):
        # frozen amplitudes of the evolved x-polarized product state at g t = pi,
        # derived by phase bookkeeping on the zz eigenbasis
        _, (w,), (v,) = plan_spectra(qnd_zz(1.0))
        out = evolve(w, v, x_product_state(), (np.pi,))[0]
        s = 1 / (2 * np.sqrt(2))
        expected = s * np.array([-1j, 1j, 1, 1, 1, 1, 1j, -1j])
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_permutation_symmetric_state_is_stationary(self):
        psi0 = np.zeros(8, dtype=complex)
        psi0[0] = 1  # product of three identical states
        rho0 = oracle_rho12(psi0)
        _, (w,), (v,) = plan_spectra(heisenberg_chain(1.0))
        for psi in evolve(w, v, psi0, (0.3, 1.1, 2.9)):
            assert np.max(np.abs(oracle_rho12(psi) - rho0)) <= 1e-10


class TestFastpath:
    def test_fastpath_matches_exact_with_full_locals(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            coeffs = reference_pair(rng, locals_mode="full")
            forms, w, v = closed_form_plan(coeffs[None])
            assert forms.ok[0]
            psi = haar_state(rng)
            times = rng.uniform(0, 7, 4)
            for t, b in zip(times, evolve(w[0], v[0], psi, times)):
                a = oracle_evolve(total_hamiltonian(coeffs), psi, t)
                assert 1 - abs(np.vdot(a, b)) ** 2 <= 1e-10

    def test_fastpath_unitary_is_unitary(self):
        # U(t) from the closed-form spectrum of the commuting fast path
        _, (w,), (v,) = closed_form_plan(reference_pair(np.random.default_rng(21), locals_mode="full")[None])
        u = (v * np.exp(-1.7j * w)) @ v.conj().T
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-12

    def test_commuting_and_noncommuting_rows_match_oracle(self):
        # a commuting and a noncommuting pair planned in one batch, each evolved against expm of its own H
        rng = np.random.default_rng(22)
        coeffs = np.concatenate([reference_pair(rng)[None], heisenberg_chain(1.0)])
        forms, w, v = plan_spectra(coeffs)
        assert forms.ok.tolist() == [True, False]
        psi = haar_state(rng)
        for c, psi_t in zip(coeffs, evolve(w, v, [psi, psi], [0.9, 0.9])):
            assert np.max(np.abs(psi_t - oracle_evolve(total_hamiltonian(c), psi, 0.9))) <= 1e-10


class TestSpectrum:
    def test_closed_form_matches_eigh_with_a_zero_sector_vector(self):
        # local_self cancels the coupling of qubit 1 in the m = -1 probe sector
        z = np.array([0.0, 0.0, 1.0])
        coeffs = one_pair(row(coupling=0.8 * np.outer(z, z), local_self=0.8 * z, local_probe=0.3 * z),
                          row(coupling=0.5 * np.outer((1.0, 0.0, 0.0), z), local_self=(0.2, 0.4, 0.1)))
        forms, w, v = closed_form_plan(coeffs)
        vecs = sector_vectors(forms.body, coeffs[..., 9:12])[0]
        assert np.all(vecs[1, 0] == 0.0)
        assert np.linalg.norm(vecs[0, 0]) == pytest.approx(1.6)
        w, v = w[0], v[0]
        h = total_hamiltonian(coeffs)
        w_eigh, v_eigh = np.linalg.eigh(h)
        assert np.max(np.abs(np.sort(w) - w_eigh)) <= 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-12
        assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-12
        psi = haar_state(np.random.default_rng(23))
        times = np.linspace(0.0, 6.0, 25)
        exact = (np.exp(-1j * np.outer(times, w_eigh)) * (v_eigh.conj().T @ psi)) @ v_eigh.T
        assert np.max(np.abs(evolve(w, v, psi, times) - exact)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e150])
    @pytest.mark.parametrize(
        "probe_axis", [(-0.0, 0.0, 1.0), (0.0, -0.0, -1.0), (-0.0, -0.0, -1.0), (0.6, 0.0, -0.8)], ids=["-0+0+z", "+0-0-z", "-0-0-z", "xz"]
    )
    def test_closed_form_rebuilds_at_extreme_scales_and_signed_zero_axes(self, scale, probe_axis):
        # sector vectors m body + local_self whose squares vanish or overflow, one exactly zero
        # (body and local_self equal, m = -1) and one on -z with a signed zero (m = +1), about probe
        # axes on +-z with signed zeros: V is unitary and V diag(w) V† rebuilds
        # H13 + H23 = sum_m (v(m,1).sigma x 1 + 1 x v(m,2).sigma) x P_m + s 1 x 1 x j.sigma,
        # P_m = (1 + m j.sigma) / 2, both within 1e-12 relative
        rng = np.random.default_rng(29)
        body, local_self = scale * rng.normal(size=(2, 2, 3))
        local_self[0] = body[0]
        body[1], local_self[1] = scale * np.array([0.0, -0.0, -1.0]), scale * np.array([0.0, -0.0, -0.5])
        j = np.array(probe_axis)
        w, v = closed_form_spectra(body[None], local_self[None], j[None], np.array([[0.7 * scale, 0.0]]))
        w, v = w[0], v[0]
        vecs = sector_vectors(body[None], local_self[None])[0]
        assert np.all(vecs[1, 0] == 0.0) and vecs[0, 1].tolist() == [0.0, -0.0, -1.5 * scale]
        assert np.signbit(vecs[0, 1]).tolist() == [False, True, True]

        def sigma(axis):
            return np.einsum("c,cij->ij", axis, np.array(PAULIS))

        h = 0.7 * np.kron(np.eye(4), sigma(j))
        for sign, (v1, v2) in zip((1.0, -1.0), vecs / scale):
            h = h + np.kron(np.kron(sigma(v1), I2) + np.kron(I2, sigma(v2)), (I2 + sign * sigma(j)) / 2.0)
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-12
        assert np.max(np.abs((v * (w / scale)) @ v.conj().T - h)) <= 1e-12 * np.max(np.abs(h))

    def test_closed_form_reconstructs_random_commuting_hamiltonians(self):
        rng = np.random.default_rng(24)
        coeffs = np.array([reference_pair(rng, locals_mode="full") for _ in range(100)])
        forms, ws, vs = closed_form_plan(coeffs)
        assert forms.ok.all()
        for c, w, v in zip(coeffs, ws, vs):
            assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-12
            assert np.max(np.abs((v * w) @ v.conj().T - total_hamiltonian(c))) <= 1e-12

    @pytest.mark.parametrize("locals_mode", ["none", "probe", "full"])
    def test_perturbed_pairs_rebuild_within_the_form_check(self, locals_mode):
        # every exact pair has a form; a pair perturbed by 1e-13 to 1e-9 may or may not, and where it
        # does the closed form of its form rebuilds H13 + H23 within the bound that the per-pair check
        # of ||H - form||_F <= SPECTRAL_TOL ||H||_F gives
        rng = np.random.default_rng({"none": 50, "probe": 51, "full": 52}[locals_mode])
        exact = np.array([reference_pair(rng, locals_mode) for _ in range(300)])
        assert canonical_forms(exact).ok.all()
        sizes = 10.0 ** rng.uniform(-13.0, -9.0, len(exact))
        perturbed = exact + sizes[:, None, None] * rng.normal(size=exact.shape)
        forms, ws, vs = closed_form_plan(perturbed)
        assert forms.ok.any() and not forms.ok.all()
        for c, w, v in zip(perturbed[forms.ok], ws[forms.ok], vs[forms.ok]):
            bound = SPECTRAL_TOL * sum(np.linalg.norm(m) for m in matrices(c))
            assert np.linalg.norm((v * w) @ v.conj().T - total_hamiltonian(c)) <= bound

    def test_grid_rows_equal_single_points(self):
        rng = np.random.default_rng(25)
        coeffs = np.concatenate([reference_pair(rng, locals_mode="full")[None], heisenberg_chain(0.9)])
        _, ws, vs = plan_spectra(coeffs)
        psi = haar_state(rng)
        times = rng.uniform(0.0, 7.0, 17)
        for w, v in zip(ws, vs):
            grid = evolve(w, v, psi, times)
            assert grid.shape == (17, 8)
            for row_t, t in zip(grid, times):
                assert np.max(np.abs(row_t - evolve(w, v, psi, (t,))[0])) <= 1e-12

    def test_stacked_plans_equal_one_row_plans(self):
        # commuting and noncommuting rows in one batch, each bit for bit its own one-row plan's; then one state per row and
        # time, and one row's spectrum and state stacked once per time against the same row over the time grid
        rng = np.random.default_rng(27)
        coeffs = np.array([reference_pair(rng, locals_mode="full") for _ in range(4)])
        coeffs = np.concatenate([coeffs, heisenberg_chain(0.7), one_pair(row(coupling=np.diag([1.0, 2.0, 0.0])), row())])
        forms, w, v = plan_spectra(coeffs)
        psi0s, times = np.array([haar_state(rng) for _ in coeffs]), rng.uniform(0.0, 5.0, len(coeffs))
        rows = evolve(w, v, psi0s, times)
        for i in range(len(coeffs)):
            forms1, w1, v1 = plan_spectra(coeffs[i : i + 1])
            assert forms.ok[i] == forms1.ok[0] and forms.reason(i) == forms1.reason(0)
            assert np.array_equal(w[i], w1[0]) and np.array_equal(v[i], v1[0])
            assert np.max(np.abs(rows[i] - evolve(w1[0], v1[0], psi0s[i], (times[i],))[0])) <= 1e-14
            stacked = evolve(*(np.repeat(a[i : i + 1], len(times), axis=0) for a in (w, v, psi0s)), times)
            assert np.max(np.abs(stacked - evolve(w1, v1, psi0s[i], times))) <= 1e-14


class TestClosedForm:
    # entangling-only pairs: random commuting pairs without local terms

    def test_matches_exact_entangling_evolution(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            coeffs = reference_pair(rng)  # no local terms
            psi = haar_state(rng)
            t = rng.uniform(0, 7)
            a = oracle_evolve(total_hamiltonian(coeffs), psi, t)
            _, (w,), (v,) = closed_form_plan(coeffs[None])
            b = evolve(w, v, psi, (t,))[0]
            assert 1 - abs(np.vdot(a, b)) ** 2 <= 1e-10

    def test_plus_plus_plus_only_picks_global_phase(self):
        forms, w, v = closed_form_plan(reference_pair(np.random.default_rng(31))[None])
        axes = np.array([*directions(forms.body[0])[1], forms.probe_axis[0]])
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        psi0 = from_axis_basis(amps, axes)
        t = 1.234
        out = evolve(w[0], v[0], psi0, (t,))[0]
        expected = np.exp(-1j * directions(forms.body[0])[0].sum() * t) * psi0
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_periodic_return_for_equal_strengths(self):
        rng = np.random.default_rng(32)
        u, w, j = reference_axis(rng), reference_axis(rng), reference_axis(rng)
        s = 1.1
        _, ws, vs = closed_form_plan(one_pair(row(coupling=s * np.outer(u, j)), row(coupling=s * np.outer(w, j))))
        psi = haar_state(rng)
        period = np.pi / s
        revived, rho_a, rho_b = evolve(ws[0], vs[0], psi, (period, 0.4, 0.4 + period))
        assert np.max(np.abs(revived - psi)) <= 1e-10
        assert np.max(np.abs(oracle_rho12(rho_a) - oracle_rho12(rho_b))) <= 1e-10


class TestKraus:
    # the Kraus route to rho_12 is an oracle: A_k = <b_k| U(t) |phi>_3 from scipy's U(t), so
    # rho_12(t) = sum_k A_k |chi><chi| A_k† checks the package's evolution of chi x phi

    def test_time_zero_scales_identity(self):
        # A_k(0) = <b_k|phi> 1, so the package's measured branches of chi x phi at t = 0 are <b_k|phi> chi
        rng = np.random.default_rng(40)
        coeffs = reference_pair(rng)
        forms, w, v = plan_spectra(coeffs[None])
        phi, chi = haar_state(rng, 2), haar_state(rng, 4)
        basis = axis_eigenbasis(forms.probe_axis[0])
        for a, b in zip(oracle_kraus(total_hamiltonian(coeffs), phi, basis, 0.0), basis):
            assert np.max(np.abs(a - np.vdot(b, phi) * np.eye(4))) <= 1e-12
        probs, _, present, states = measure_probe_grid(evolve(w[0], v[0], np.kron(chi, phi), (0.0,)), forms.probe_axis[0])
        assert present.all()
        for k, b in enumerate(basis):
            assert np.max(np.abs(np.sqrt(probs[0, k]) * states[0, k] - np.vdot(b, phi) * chi)) <= 1e-12

    def test_completeness_and_reconstruction(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            coeffs = reference_pair(rng, locals_mode="full")
            forms, w, v = plan_spectra(coeffs[None])
            chi = haar_state(rng, 4)
            phi = haar_state(rng, 2)
            t = rng.uniform(0, 5)
            basis = axis_eigenbasis(forms.probe_axis[0])
            kraus = oracle_kraus(total_hamiltonian(coeffs), phi, basis, t)
            assert np.max(np.abs(sum(a.conj().T @ a for a in kraus) - np.eye(4))) <= 1e-10
            via_kraus = oracle_rho12_kraus(total_hamiltonian(coeffs), chi, phi, basis, t)
            via_trace = oracle_rho12(evolve(w[0], v[0], np.kron(chi, phi), (t,))[0])
            assert np.max(np.abs(via_kraus - via_trace)) <= 1e-10

    def test_separable_input_stays_separable_through_kraus(self):
        rng = np.random.default_rng(43)
        coeffs = reference_pair(rng, locals_mode="full")
        forms, w, v = plan_spectra(coeffs[None])
        chi = np.kron(haar_state(rng, 2), haar_state(rng, 2))
        phi = haar_state(rng, 2)
        basis = axis_eigenbasis(forms.probe_axis[0])
        times = np.linspace(0, 4, 9)
        for t, tangle in zip(times, concurrence_12(evolve(w[0], v[0], np.kron(chi, phi), times)) ** 2):
            rho = oracle_rho12_kraus(total_hamiltonian(coeffs), chi, phi, basis, t)
            assert oracle_concurrence_mixed(rho) ** 2 <= 1e-9
            assert tangle <= 1e-9

    def test_explicit_basis_for_noncommuting_plan(self):
        # any orthonormal probe basis gives the same rho_12, also without a shared probe axis
        h = total_hamiltonian(heisenberg_chain(1.0))
        phi = np.array([INV_SQRT2, INV_SQRT2], dtype=complex)
        e0, e1 = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
        kraus = oracle_kraus(h, phi, (e0, e1), 1.0)
        assert np.max(np.abs(sum(a.conj().T @ a for a in kraus) - np.eye(4))) <= 1e-10
        chi = np.zeros(4, dtype=complex)
        chi[0] = 1
        via_kraus = oracle_rho12_kraus(h, chi, phi, (e0, e1), 1.0)
        _, (w,), (v,) = plan_spectra(heisenberg_chain(1.0))
        via_trace = oracle_rho12(evolve(w, v, np.kron(chi, phi), (1.0,))[0])
        assert np.max(np.abs(via_kraus - via_trace)) <= 1e-10


class TestMeasureProbe:
    def test_product_state_conditionals_identical(self):
        rng = np.random.default_rng(60)
        chi = haar_state(rng, 4)
        phi = np.array([0.6, 0.8j], dtype=complex)
        probs, _, _, states = measure_probe_grid(np.kron(chi, phi), X)
        assert abs(probs[0].sum() - 1) <= 1e-12
        assert abs(np.vdot(states[0, 0], states[0, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_bell_pair_preparation(self):
        # the same g t = pi far below unit scale, where squared rotation vectors underflow at 1e-170
        for g in (1.0, 1e-15, 1e-170):
            _, (w,), (v,) = plan_spectra(qnd_zz(g))
            psi = evolve(w, v, x_product_state(), (np.pi / g,))
            probs, tangles, present, states = measure_probe_grid(psi, X)
            assert present[0, 0] and probs[0, 0] == pytest.approx(0.5, abs=1e-12)
            assert oracle_tangle_pure2(states[0, 0]) == pytest.approx(1.0, abs=1e-9)
            assert tangles[0, 0] == pytest.approx(1.0, abs=1e-9)
            # the +x conditional is (|01> + |10>)/sqrt(2) up to a global phase
            bell = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
            assert abs(np.vdot(bell, states[0, 0])) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_z_basis(self):
        probs, _, _, states = measure_probe_grid(ghz_general(INV_SQRT2, INV_SQRT2), Z)
        for k, index in enumerate((0, 3)):
            assert probs[0, k] == pytest.approx(0.5, abs=1e-12)
            expected = np.zeros(4)
            expected[index] = 1
            assert np.max(np.abs(np.abs(states[0, k]) - expected)) <= 1e-12

    def test_degenerate_outcome_reported_absent(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1  # |000>, the |1> outcome on qubit 3 never occurs
        probs, _, present, _ = measure_probe_grid(psi, Z)
        assert probs[0, 1] <= 1e-14
        assert present.tolist() == [[True, False]]

    def test_random_axes_match_projector_oracle(self):
        # probabilities and conditional tangles from (1 +- n.sigma)/2 on qubit 3, built with kron
        rng = np.random.default_rng(61)
        for _ in range(200):
            axis, psi = reference_axis(rng), haar_state(rng)
            probs, tangles, present, _ = measure_probe_grid(psi, axis)
            want_probs, want_tangles = oracle_probe_measurement(psi, axis)
            assert present.all()
            assert np.max(np.abs(probs[0] - want_probs)) <= 1e-12
            assert np.max(np.abs(tangles[0] - want_tangles)) <= 1e-12

    @pytest.mark.parametrize("factor, present", [(1 - 5e-4, False), (1 + 5e-4, True)])
    def test_degenerate_outcome_edge(self, factor, present):
        # outcome -z with probability just below and just above DEGENERATE_OUTCOME_PROB, pinned at 1e-14
        rng = np.random.default_rng(62)
        p = 1e-14 * factor
        psi = np.sqrt(1.0 - p) * np.kron(haar_state(rng, 4), [1.0, 0.0]) + np.sqrt(p) * np.kron(haar_state(rng, 4), [0.0, 1.0])
        probs, _, found, _ = measure_probe_grid(psi, Z)
        assert probs[0, 1] == pytest.approx(p, rel=1e-12)
        assert found.tolist() == [[True, present]]

    @pytest.mark.parametrize("p", [1e-9, 1e-12])
    def test_rare_outcome_keeps_its_tangle(self, p):
        # sqrt(1-p)|chi+>|+n> + sqrt(p)|chi->|-n>: the -n branch is projected out of the state and
        # normalized, so its tangle errs by ~eps/sqrt(p) (at most 2.5e-10 at p = 1e-12 here), where
        # a quadratic form in the whole state would err by ~eps/p
        rng = np.random.default_rng(63)
        for _ in range(500):
            axis, chi_plus, chi_minus = reference_axis(rng), haar_state(rng, 4), haar_state(rng, 4)
            plus, minus = axis_eigenbasis(axis)
            psi = np.sqrt(1.0 - p) * np.kron(chi_plus, plus) + np.sqrt(p) * np.kron(chi_minus, minus)
            probs, tangles, present, _ = measure_probe_grid(psi, axis)
            assert present[0, 1] and probs[0, 1] == pytest.approx(p, rel=1e-6)
            assert abs(tangles[0, 1] - oracle_tangle_pure2(chi_minus)) <= 1e-9


def test_local_terms_do_not_change_tangle_when_aligned():
    # evolution with the full Hamiltonians vs with the entangling parts only:
    # identical 1,2 tangle when body-local axes ride the coupling axes
    rng = np.random.default_rng(70)
    for _ in range(20):
        u, w, j = reference_axis(rng), reference_axis(rng), reference_axis(rng)
        s13, s23 = rng.uniform(0.2, 2, size=2)
        full = one_pair(row(coupling=s13 * np.outer(u, j), local_self=rng.uniform(0, 1) * u, local_probe=rng.uniform(-1, 1) * j),
                        row(coupling=s23 * np.outer(w, j), local_self=rng.uniform(0, 1) * w, local_probe=rng.uniform(-1, 1) * j))
        entangling_only = full.copy()
        entangling_only[..., 9:] = 0.0
        psi0 = haar_state(rng)
        t = rng.uniform(0, 2 * np.pi)
        _, ws, vs = plan_spectra(np.concatenate([full, entangling_only]))
        tau_full, tau_ent = (oracle_tangle12_pure3(evolve(w, v, psi0, (t,))[0]) for w, v in zip(ws, vs))
        assert abs(tau_full - tau_ent) <= 1e-9
