import numpy as np
import pytest

from triqubit.evolution import evolve_grid, evolve_rows, plan_spectra
from triqubit.hamiltonians import (
    NotCommutingError,
    NotRankOneError,
    canonical_forms,
    heisenberg_chain,
    pair_matrices,
    qnd_zz,
)
from triqubit.linalg import I2, SZ, kron

from oracles import (
    commutes,
    form_matrices,
    haar_state,
    matrices,
    one_pair,
    oracle_commutator_norm,
    oracle_evolve,
    oracle_tangle12_pure3,
    reference_axis,
    reference_pair,
    row,
    total_hamiltonian,
)


def forms_of(coeffs):
    """The one-row ``canonical_forms`` of a pair that has a canonical form."""
    forms = canonical_forms(np.reshape(coeffs, (1, 2, 15)))
    assert forms.error(0) is None, forms.error(0)
    return forms


def zz_row(g):
    c = np.zeros((3, 3))
    c[2, 2] = g
    return row(coupling=c)


def random_row(rng):
    return row(coupling=rng.normal(size=(3, 3)), local_self=rng.normal(size=3), local_probe=rng.normal(size=3))


class TestToMatrix:
    """``pair_matrices`` against the 8x8 matrices summed from kron embeddings."""

    def test_zero_coefficients(self):
        assert np.allclose(pair_matrices(one_pair(row(), row())), 0)

    def test_single_zz_term(self):
        m13, m23 = pair_matrices(one_pair(zz_row(1.7), zz_row(-0.5)))[0]
        assert np.allclose(m13, 1.7 * kron(SZ, I2, SZ), atol=1e-14)
        assert np.allclose(m23, -0.5 * kron(I2, SZ, SZ), atol=1e-14)

    def test_hermitian(self):
        rng = np.random.default_rng(8)
        coeffs = one_pair(random_row(rng), random_row(rng))
        for m, oracle in zip(pair_matrices(coeffs)[0], matrices(coeffs)):
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
            assert np.max(np.abs(m - oracle)) <= 1e-14

    def test_isotropic_pair_spectrum(self):
        # g * sigma.sigma embedded with an identity factor: {g x6, -3g x2}
        g = 1.3
        w = np.sort(np.linalg.eigvalsh(pair_matrices(heisenberg_chain(g))[0, 0]))
        expected = np.sort([g] * 6 + [-3 * g] * 2)
        assert np.allclose(w, expected, atol=1e-10)


class TestCommutes:
    def test_simultaneously_diagonal(self):
        assert commutes(one_pair(zz_row(1.0), zz_row(1.0)))

    def test_heisenberg_noncommuting(self):
        assert not commutes(heisenberg_chain(1.0))
        assert canonical_forms(heisenberg_chain(1.0)).commutator_norm[0] > 1.0

    def test_shared_probe_axis_different_body_axes(self):
        # x-coupling on one pair, y-coupling on the other, both through z on the probe
        c13, c23 = np.zeros((3, 3)), np.zeros((3, 3))
        c13[0, 2] = 0.9
        c23[1, 2] = 1.4
        assert commutes(one_pair(row(coupling=c13), row(coupling=c23)))

    def test_randomized_soundness_against_direct_thresholding(self):
        # the coefficient-space classifier against the decision rule re-derived from raw embeddings
        rng = np.random.default_rng(31)
        tol = 1e-10  # SPECTRAL_TOL
        for _ in range(1000):
            if rng.uniform() < 0.5:
                coeffs = reference_pair(rng, locals_mode="full")
            else:
                coeffs = one_pair(random_row(rng), random_row(rng))
            m13, m23 = matrices(coeffs)
            direct = np.linalg.norm(m13 @ m23 - m23 @ m13) <= tol * np.linalg.norm(m13) * np.linalg.norm(m23)
            assert (canonical_forms(np.reshape(coeffs, (1, 2, 15))).status[0] != 1) == direct  # status 1: not commuting
            assert commutes(coeffs, tol=tol) == direct


class TestCoefficientSpaceCommutator:
    """||[H13, H23]||_F = sqrt(32 sum |C_i x D_k|^2), against the 8x8 commutator."""

    def test_random_full_pairs(self):
        rng = np.random.default_rng(41)
        coeffs = np.array([[random_row(rng), random_row(rng)] for _ in range(300)])
        norms = canonical_forms(coeffs).commutator_norm
        oracle = np.array([oracle_commutator_norm(c) for c in coeffs])
        assert np.max(np.abs(norms - oracle) / oracle) <= 1e-13

    def test_commuting_pairs_give_rounding_noise(self):
        rng = np.random.default_rng(42)
        coeffs = np.array([reference_pair(rng, locals_mode="full") for _ in range(300)])
        forms = canonical_forms(coeffs)
        oracle = np.array([oracle_commutator_norm(c) for c in coeffs])
        assert forms.ok.all()
        assert np.max(forms.commutator_norm) <= 1e-14 and np.max(oracle) <= 1e-14

    @pytest.mark.parametrize("g, norm", [(1e-170, 0.0), (1.0, np.sqrt(192.0)), (1e155, np.inf)])
    def test_scale(self, g, norm):
        # sqrt(192) g^2 underflows at 1e-170 and overflows at 1e155; the classification does neither
        forms = canonical_forms(np.concatenate([heisenberg_chain(g), qnd_zz(g)]))  # row 0 the chain, row 1 the zz coupling
        assert forms.commutator_norm[0] == pytest.approx(norm, rel=1e-13)
        assert forms.commutator_norm[1] == 0.0
        assert list(forms.status) == [1, 0]
        assert forms.strength[1] == pytest.approx((g / 4, g / 4), rel=1e-13)


class TestCanonicalForm:
    def test_single_term_already_canonical(self):
        c13 = np.zeros((3, 3))
        c13[0, 2] = 2.0  # strength 2, body axis x, probe axis z
        forms = forms_of(one_pair(row(coupling=c13), row()))
        assert forms.strength[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(forms.body_axis[0, 0], (1, 0, 0), atol=1e-12)
        assert np.allclose(forms.probe_axis[0], (0, 0, 1), atol=1e-12)
        assert forms.strength[0, 1] == 0.0

    def test_qnd_preset_shares_z_axis(self):
        forms = forms_of(qnd_zz(1.0))
        assert np.allclose(forms.probe_axis[0], (0, 0, 1), atol=1e-12)
        assert forms.strength[0] == pytest.approx((0.25, 0.25), abs=1e-12)

    def test_heisenberg_raises_not_commuting(self):
        assert isinstance(canonical_forms(heisenberg_chain(1.0)).error(0), NotCommutingError)

    def test_rank_two_coupling_raises(self):
        coeffs = one_pair(row(coupling=np.diag([1.0, 2.0, 0.0])), row())  # rank 2, but commutes with a zero partner
        assert commutes(coeffs)
        assert isinstance(canonical_forms(coeffs).error(0), NotRankOneError)

    def test_zero_coupling_gets_fixed_axes(self):
        forms = forms_of(one_pair(row(), row()))
        assert forms.strength[0, 0] == 0.0
        assert np.allclose(forms.probe_axis[0], (0, 0, 1))
        assert np.allclose(forms.self_axis[0, 0], (0, 0, 1))

    def test_sign_normalization_is_canonical(self):
        # the same physical coupling written with flipped factor signs
        u = np.array([0.6, 0.0, 0.8])
        j = np.array([-1.0, 0.0, 0.0])
        h23 = row(coupling=0.7 * np.outer(u, j))
        fa = forms_of(one_pair(row(coupling=1.5 * np.outer(u, j)), h23))
        fb = forms_of(one_pair(row(coupling=1.5 * np.outer(-u, -j)), h23))
        assert np.allclose(fa.body_axis[0, 0], fb.body_axis[0, 0], atol=1e-12)
        assert np.allclose(fa.probe_axis[0], fb.probe_axis[0], atol=1e-12)
        assert fa.probe_axis[0, 0] > 0  # first nonzero component positive
        assert fa.strength[0, 0] == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e-15])
    def test_form_is_scale_free(self, scale):
        # H -> s H gives the same axes and s times the strengths: no coefficient
        # is dropped as zero and no deviation is forgiven by an absolute floor
        z = np.array([0.0, 0.0, 1.0])
        h13 = row(coupling=scale * 0.9 * np.outer([1, 0, 0], z), local_self=scale * np.array([0.3, 0.1, 0.2]),
                  local_probe=scale * 0.5 * z)
        forms = forms_of(one_pair(h13, row(coupling=scale * 1.4 * np.outer([0, 1, 0], z))))
        assert forms.probe_axis[0].tolist() == [0.0, 0.0, 1.0]
        assert forms.strength[0] == pytest.approx((0.9 * scale, 1.4 * scale), rel=1e-12, abs=0)
        assert forms.self_strength[0, 0] == pytest.approx(scale * np.sqrt(0.14), rel=1e-12, abs=0)
        assert forms.probe_strength[0, 0] == pytest.approx(0.5 * scale, rel=1e-12, abs=0)
        # a probe-local term off the coupling's probe axis has no canonical form; eigh evolves it
        misaligned = one_pair(row(coupling=scale * np.outer(z, z), local_probe=scale * np.array([1.0, 0.0, 0.0])), row())
        forms, w, v = plan_spectra(misaligned)
        error = forms.error(0)
        assert isinstance(error, NotCommutingError) and "probe-local term is not aligned" in str(error)
        psi0 = haar_state(np.random.default_rng(5))
        t = 1.3 / scale
        assert np.max(np.abs(evolve_grid(w[0], v[0], psi0, (t,))[0] - oracle_evolve(total_hamiltonian(misaligned), psi0, t))) <= 1e-10

    @pytest.mark.parametrize("scale", [1.0, 1e-15, 1e-170, 1e155])
    def test_probe_local_axis_is_scale_free(self, scale):
        # probe-local terms only: their common axis is the probe axis, found at the scale of
        # the largest component (squares vanish below ~1e-162 and overflow past ~1e154)
        axis = np.array([0.6, 0.0, -0.8])
        forms = forms_of(one_pair(row(local_probe=-scale * axis), row(local_probe=scale * 0.5 * axis)))
        assert tuple(forms.probe_axis[0]) == pytest.approx(tuple(axis), abs=1e-15)
        assert forms.probe_strength[0] == pytest.approx((-scale, 0.5 * scale), rel=1e-12, abs=0)
        forms = forms_of(one_pair(row(local_probe=np.array([scale, 0.0, 0.0])), row()))
        assert (forms.probe_axis[0].tolist(), *forms.probe_strength[0].tolist()) == ([1.0, 0.0, 0.0], scale, 0.0)

    def test_reconstruction_roundtrip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            coeffs = reference_pair(rng, locals_mode="full")
            forms = forms_of(coeffs)
            for k, h in enumerate(matrices(coeffs)):
                assert np.max(np.abs(sum(form_matrices(forms, 0, k)) - h)) <= 1e-10
            assert abs(np.linalg.norm(forms.body_axis[0, 0]) - 1) <= 1e-12
            assert abs(np.linalg.norm(forms.probe_axis[0]) - 1) <= 1e-12

    def test_antiparallel_probe_locals_without_coupling(self):
        forms = forms_of(one_pair(row(local_probe=[0.5, 0, 0]), row(local_probe=[-0.5, 0, 0])))
        assert forms.probe_strength[0] == pytest.approx((0.5, -0.5))


class TestSplitLocalAndEntangling:
    def test_zero_locals(self):
        entangling, local = form_matrices(forms_of(one_pair(zz_row(1.0), zz_row(1.0))), 0, 0)
        assert np.allclose(local, 0)
        assert np.allclose(entangling, kron(SZ, I2, SZ), atol=1e-12)

    def test_sum_reconstructs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            coeffs = reference_pair(rng, locals_mode="full")
            forms = forms_of(coeffs)
            for k, h in enumerate(matrices(coeffs)):
                entangling, local = form_matrices(forms, 0, k)
                assert np.max(np.abs(entangling + local - h)) <= 1e-10

    @staticmethod
    def _aligned_pair(rng):
        """(2, 2, 15): a commuting pair whose body-local axes are parallel to the coupling axes, and its
        entangling part alone."""
        u, w, j = reference_axis(rng), reference_axis(rng), reference_axis(rng)
        full = np.array([
            row(coupling=rng.uniform(0.2, 2.0) * np.outer(body, j), local_self=rng.uniform(0, 1) * body,
                local_probe=rng.uniform(-1, 1) * j)
            for body in (u, w)
        ])
        entangling = full.copy()
        entangling[:, 9:] = 0.0
        return np.array([full, entangling])

    def test_pieces_commute_for_aligned_locals(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            forms = forms_of(self._aligned_pair(rng)[0])
            (ent13, loc13), (ent23, loc23) = form_matrices(forms, 0, 0), form_matrices(forms, 0, 1)
            ent, loc = ent13 + ent23, loc13 + loc23
            assert np.linalg.norm(ent @ loc - loc @ ent) <= 1e-10

    def test_local_part_does_not_change_tangle_for_aligned_locals(self):
        # with the body-local axes on the coupling axes, dropping the local
        # terms changes the evolution only by single-qubit unitaries
        rng = np.random.default_rng(45)
        for _ in range(25):
            coeffs = self._aligned_pair(rng)
            psi0 = haar_state(rng)
            t = rng.uniform(0, 2 * np.pi)
            _, w, v = plan_spectra(coeffs)
            tau_full, tau_ent = (oracle_tangle12_pure3(psi) for psi in evolve_rows(w, v, [psi0, psi0], [t, t]))
            assert abs(tau_full - tau_ent) <= 1e-9

    def test_misaligned_body_local_breaks_the_split(self):
        # a body-local axis off the coupling axis still commutes pair-to-pair,
        # but the entangling and local pieces no longer commute
        c13 = np.zeros((3, 3))
        c13[0, 2] = 1.0
        coeffs = one_pair(row(coupling=c13, local_self=[0, 0, 0.8]), zz_row(1.0))
        assert commutes(coeffs)
        entangling, local = form_matrices(forms_of(coeffs), 0, 0)
        assert np.linalg.norm(entangling @ local - local @ entangling) > 0.1
