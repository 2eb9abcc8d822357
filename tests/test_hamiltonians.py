import zlib

import numpy as np
import pytest

from triqubit import hamiltonians
from triqubit.evolution import evolve, plan_spectra
from triqubit.hamiltonians import (
    canonical_forms,
    heisenberg_chain,
    pair_matrices,
    qnd_zz,
)
from triqubit.linalg import I2, SZ, directions, kron

from oracles import (
    commutes,
    form_matrices,
    haar_state,
    levi_civita_cross,
    matrices,
    one_pair,
    oracle_commutator_norm,
    oracle_evolve,
    oracle_tangle12_pure3,
    probe_rows,
    reference_axis,
    reference_pair,
    row,
    svd_probe_axis,
    svd_status,
    total_hamiltonian,
)


def forms_of(coeffs):
    """The one-row ``canonical_forms`` of a pair that has a canonical form."""
    forms = canonical_forms(np.reshape(coeffs, (1, 2, 15)))
    assert forms.reason(0) is None, forms.reason(0)
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

    @pytest.mark.parametrize("factor, status", [(1 - 5e-4, 0), (1 + 5e-4, 1)])
    def test_spectral_tol_edge(self, factor, status):
        # zz couplings on both pairs plus zx = eps on (1,3): ||[H13, H23]||_F / (||H13||_F ||H23||_F)
        # = sqrt(2) eps / sqrt(1 + eps^2), so the form check's edge is eps* = sqrt(2) SPECTRAL_TOL,
        # pinned here at SPECTRAL_TOL = 1e-10
        zx = np.sqrt(2.0) * 1e-10 * factor
        coeffs = one_pair(row(coupling=[[0, 0, 0], [0, 0, 0], [zx, 0, 1.0]]), zz_row(1.0))
        assert canonical_forms(coeffs).status.tolist() == [status]

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
        assert forms.body[1] == pytest.approx(np.array([[0.0, 0.0, g / 4]] * 2), rel=1e-13, abs=0)


class TestCanonicalForm:
    def test_single_term_already_canonical(self):
        c13 = np.zeros((3, 3))
        c13[0, 2] = 2.0  # strength 2, body axis x, probe axis z
        forms = forms_of(one_pair(row(coupling=c13), row()))
        assert np.allclose(forms.body[0, 0], (2, 0, 0), atol=1e-12)
        assert np.allclose(forms.probe_axis[0], (0, 0, 1), atol=1e-12)
        assert not forms.body[0, 1].any()

    def test_qnd_preset_shares_z_axis(self):
        forms = forms_of(qnd_zz(1.0))
        assert np.allclose(forms.probe_axis[0], (0, 0, 1), atol=1e-12)
        assert np.allclose(forms.body[0], [(0, 0, 0.25)] * 2, atol=1e-12)

    def test_heisenberg_raises_not_commuting(self):
        forms = canonical_forms(heisenberg_chain(1.0))
        assert forms.status[0] == 1
        assert forms.reason(0) == "pair Hamiltonians do not commute (commutator norm 1.386e+01)"

    def test_rank_two_coupling_raises(self):
        coeffs = one_pair(row(coupling=np.diag([1.0, 2.0, 0.0])), row())  # rank 2, but commutes with a zero partner
        assert commutes(coeffs)
        forms = canonical_forms(coeffs)
        assert forms.status[0] == 2
        assert forms.reason(0).startswith("probe terms do not share one probe axis (deviation ")

    def test_zero_coupling_gets_fixed_axes(self):
        forms = forms_of(one_pair(row(), row()))
        assert not forms.body[0].any() and not forms.probe_strength[0].any()
        assert np.allclose(forms.probe_axis[0], (0, 0, 1))

    def test_sign_normalization_is_canonical(self):
        # the same physical coupling written with flipped factor signs
        u = np.array([0.6, 0.0, 0.8])
        j = np.array([-1.0, 0.0, 0.0])
        h23 = row(coupling=0.7 * np.outer(u, j))
        fa = forms_of(one_pair(row(coupling=1.5 * np.outer(u, j)), h23))
        fb = forms_of(one_pair(row(coupling=1.5 * np.outer(-u, -j)), h23))
        assert np.allclose(fa.body[0, 0], fb.body[0, 0], atol=1e-12)
        assert np.allclose(fa.probe_axis[0], fb.probe_axis[0], atol=1e-12)
        assert fa.probe_axis[0, 0] > 0  # first nonzero component positive
        assert directions(fa.body[0, 0])[0] == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("lead, sign", [(-5e-15, 1.0), (-5e-14, -1.0)], ids=["at-rounding", "above"])
    def test_sign_rule_threshold(self, lead, sign):
        # a first component at or below AXIS_SIGN_TOL = 1e-14 does not fix the sign of j; one above it does
        u, j = np.array([0.6, 0.0, 0.8]), np.array([lead, 0.6, 0.8])
        forms = forms_of(one_pair(row(coupling=np.outer(u, j)), row()))
        assert np.max(np.abs(forms.probe_axis[0] / (sign * j) - 1.0)) <= 1e-12
        assert np.max(np.abs(forms.body[0, 0] - sign * u)) <= 1e-15

    @pytest.mark.parametrize("scale", [1.0, 1e-15])
    def test_form_is_scale_free(self, scale):
        # H -> s H gives the same axes and s times the strengths: no coefficient
        # is dropped as zero and no deviation is forgiven by an absolute floor
        z = np.array([0.0, 0.0, 1.0])
        h13 = row(coupling=scale * 0.9 * np.outer([1, 0, 0], z), local_self=scale * np.array([0.3, 0.1, 0.2]),
                  local_probe=scale * 0.5 * z)
        forms = forms_of(one_pair(h13, row(coupling=scale * 1.4 * np.outer([0, 1, 0], z))))
        assert forms.probe_axis[0].tolist() == [0.0, 0.0, 1.0]
        assert forms.body[0] == pytest.approx(np.array([(0.9 * scale, 0, 0), (0, 1.4 * scale, 0)]), rel=1e-12, abs=0)
        assert forms.probe_strength[0, 0] == pytest.approx(0.5 * scale, rel=1e-12, abs=0)
        # a probe-local term off the coupling's probe axis has no canonical form; eigh evolves it
        misaligned = one_pair(row(coupling=scale * np.outer(z, z), local_probe=scale * np.array([1.0, 0.0, 0.0])), row())
        forms, w, v = plan_spectra(misaligned)
        assert forms.status[0] == 2 and forms.reason(0).startswith("probe terms do not share one probe axis")
        psi0 = haar_state(np.random.default_rng(5))
        t = 1.3 / scale
        assert np.max(np.abs(evolve(w[0], v[0], psi0, (t,))[0] - oracle_evolve(total_hamiltonian(misaligned), psi0, t))) <= 1e-10

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
                assert np.max(np.abs(sum(form_matrices(forms, coeffs, 0, k)) - h)) <= 1e-10
            assert abs(np.linalg.norm(forms.probe_axis[0]) - 1) <= 1e-12

    def test_antiparallel_probe_locals_without_coupling(self):
        forms = forms_of(one_pair(row(local_probe=[0.5, 0, 0]), row(local_probe=[-0.5, 0, 0])))
        assert forms.probe_strength[0] == pytest.approx((0.5, -0.5))


class TestSplitLocalAndEntangling:
    def test_zero_locals(self):
        coeffs = one_pair(zz_row(1.0), zz_row(1.0))
        entangling, local = form_matrices(forms_of(coeffs), coeffs, 0, 0)
        assert np.allclose(local, 0)
        assert np.allclose(entangling, kron(SZ, I2, SZ), atol=1e-12)

    def test_sum_reconstructs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            coeffs = reference_pair(rng, locals_mode="full")
            forms = forms_of(coeffs)
            for k, h in enumerate(matrices(coeffs)):
                entangling, local = form_matrices(forms, coeffs, 0, k)
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
            coeffs = self._aligned_pair(rng)[0]
            forms = forms_of(coeffs)
            (ent13, loc13), (ent23, loc23) = form_matrices(forms, coeffs, 0, 0), form_matrices(forms, coeffs, 0, 1)
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
            tau_full, tau_ent = (oracle_tangle12_pure3(psi) for psi in evolve(w, v, [psi0, psi0], [t, t]))
            assert abs(tau_full - tau_ent) <= 1e-9

    def test_misaligned_body_local_breaks_the_split(self):
        # a body-local axis off the coupling axis still commutes pair-to-pair,
        # but the entangling and local pieces no longer commute
        c13 = np.zeros((3, 3))
        c13[0, 2] = 1.0
        coeffs = one_pair(row(coupling=c13, local_self=[0, 0, 0.8]), zz_row(1.0))
        assert commutes(coeffs)
        entangling, local = form_matrices(forms_of(coeffs), coeffs, 0, 0)
        assert np.linalg.norm(entangling @ local - local @ entangling) > 0.1


PROBE = np.r_[0:9, 12:15]  # the coupling and probe-local coefficients


def classification_set(name: str) -> np.ndarray:
    """(N, 2, 15) pairs of one classification set: commuting reference pairs in one locals mode,
    normal coefficients, full-locals reference pairs plus eps times normal coefficients,
    full-locals reference pairs scaled as a whole, or full-locals reference pairs with body-local
    terms of norm 1e6 and probe vectors perturbed by 5e-6: after scaling, probe vectors of ~4e-6
    off one axis by ~1e-11, which passes the form check with the other singular values of the
    probe vectors at ~1e-6 of the top one."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    kind, _, value = name.partition("=")
    if kind == "normal":
        return rng.normal(size=(1000, 2, 15))
    pairs = np.array([reference_pair(rng, value if kind == "locals" else "full") for _ in range(1000)])
    if kind == "eps":
        return pairs + float(value) * rng.normal(size=pairs.shape)
    if kind == "scale":
        return float(value) * pairs
    if kind == "small_probe":
        pairs[..., 9:12] *= 1e6 / np.linalg.norm(pairs[..., 9:12], axis=-1, keepdims=True)
        pairs[..., PROBE] += 5e-6 * rng.normal(size=(len(pairs), 2, 12))
    return pairs


class TestGramProbeAxis:
    """The Gram power step against the stacked-SVD route it replaced (``oracles.svd_probe_axis``)."""

    @pytest.mark.parametrize(
        "name",
        ["locals=none", "locals=probe", "locals=full", "normal", "eps=1e-13", "eps=1e-12", "eps=1e-11", "eps=1e-10",
         "eps=1e-9", "scale=1e-170", "scale=1e-15", "scale=1e155", "small_probe"],
    )
    def test_statuses_and_axes_match_the_svd_route(self, name):
        coeffs = classification_set(name)
        forms = canonical_forms(coeffs)
        assert (forms.status == svd_status(coeffs)).all()
        ok = forms.ok
        if name.startswith(("locals", "scale", "small_probe")) or name in ("eps=1e-13", "eps=1e-12"):
            assert ok.all()
        # a few ulps of 1 on every component of the unit axis
        assert np.max(np.abs(forms.probe_axis[ok] - svd_probe_axis(coeffs[ok])), initial=0.0) <= 4 * 2.0**-52

    def test_cross_products_equal_the_levi_civita_einsum(self):
        rng = np.random.default_rng(52)
        coeffs = np.concatenate([rng.normal(size=(200, 2, 15)), classification_set("locals=none")[:200]])
        coeffs[:50, :, rng.integers(0, 15, 5)] = 0.0  # exact zeros in some components
        unit, c, d = probe_rows(coeffs)
        rows, cross = hamiltonians._probe_vectors(unit)
        assert np.array_equal(rows, np.stack([c, d], axis=1))
        assert np.array_equal(cross, levi_civita_cross(c, d))  # every value, bit for bit (-0 equals 0)

    def test_underflowing_gram_falls_back_to_a_unit_axis(self):
        # probe vectors far below a body-local term: G (and G^2) lose range, j must stay a unit axis
        for tiny in (1e-60, 1e-80, 1e-100, 1e-160, 1e-300):
            coeffs = one_pair(row(local_self=[1.0, 0.0, 0.0], local_probe=[tiny, 0.0, 0.0]), row())
            forms = forms_of(coeffs)
            assert np.linalg.norm(forms.probe_axis[0]) == pytest.approx(1.0, abs=1e-15)
            assert np.isfinite(forms.body).all() and np.isfinite(forms.probe_strength).all()

    def test_mixed_batch_plans_each_row_as_alone(self):
        # rows of status 0, 1 and 2 in one batch: closed form and eigh rows, bit for bit as planned alone
        rng = np.random.default_rng(53)
        rank_two = one_pair(row(coupling=np.diag([1.0, 2.0, 0.0])), row())
        coeffs = np.concatenate([
            reference_pair(rng, "full")[None], heisenberg_chain(0.7), rank_two, qnd_zz(1.3),
            one_pair(random_row(rng), random_row(rng)), reference_pair(rng, "probe")[None], 2.0 * rank_two,
        ])
        forms, w, v = plan_spectra(coeffs)
        assert forms.status.tolist() == [0, 1, 2, 0, 1, 0, 2]
        for i in range(len(coeffs)):
            alone, w1, v1 = plan_spectra(coeffs[i : i + 1])
            assert w1[0].tobytes() == w[i].tobytes() and v1[0].tobytes() == v[i].tobytes(), i
            assert (alone.status[0], alone.commutator_norm[0]) == (forms.status[i], forms.commutator_norm[i])
            if forms.status[i] != 1:  # the form arrays of a noncommuting row carry no meaning
                for field in ("probe_axis", "body", "probe_strength", "deviation"):
                    assert getattr(alone, field)[0].tobytes() == getattr(forms, field)[i].tobytes(), (i, field)
