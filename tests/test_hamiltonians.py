import numpy as np
import pytest

from triqubit.hamiltonians import (
    NotCommutingError,
    NotRankOneError,
    PauliPairHamiltonian,
    canonical_commuting_form,
    commutes,
    commutator_norm,
    heisenberg_chain,
    qnd_zz,
)
from triqubit.linalg import I2, SZ, kron
from triqubit.evolution import evolve, make_plan
from triqubit.scenarios import random_commuting_pair, random_state

from oracles import oracle_tangle12_pure3


def pair(coupling=None, local_self=None, local_probe=None, which=(1, 3)):
    return PauliPairHamiltonian(
        coupling=np.zeros((3, 3)) if coupling is None else coupling,
        local_self=np.zeros(3) if local_self is None else local_self,
        local_probe=np.zeros(3) if local_probe is None else local_probe,
        pair=which,
    )


def zz_pair(g, which):
    c = np.zeros((3, 3))
    c[2, 2] = g
    return pair(coupling=c, which=which)


class TestToMatrix:
    def test_zero_coefficients(self):
        assert np.allclose(pair().to_matrix(), 0)

    def test_single_zz_term(self):
        h = zz_pair(1.7, (1, 3))
        assert np.allclose(h.to_matrix(), 1.7 * kron(SZ, I2, SZ), atol=1e-14)

    def test_hermitian(self):
        rng = np.random.default_rng(8)
        for which in ((1, 3), (2, 3)):
            h = pair(
                coupling=rng.normal(size=(3, 3)),
                local_self=rng.normal(size=3),
                local_probe=rng.normal(size=3),
                which=which,
            )
            m = h.to_matrix()
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12

    def test_isotropic_pair_spectrum(self):
        # g * sigma.sigma embedded with an identity factor: {g x6, -3g x2}
        g = 1.3
        h13, _ = heisenberg_chain(g)
        w = np.sort(np.linalg.eigvalsh(h13.to_matrix()))
        expected = np.sort([g] * 6 + [-3 * g] * 2)
        assert np.allclose(w, expected, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            pair(coupling=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            pair(which=(1, 2))
        with pytest.raises(ValueError):
            pair(coupling=np.full((3, 3), np.inf))


class TestCommutes:
    def test_simultaneously_diagonal(self):
        assert commutes(zz_pair(1.0, (1, 3)), zz_pair(1.0, (2, 3)))

    def test_heisenberg_noncommuting(self):
        h13, h23 = heisenberg_chain(1.0)
        assert not commutes(h13, h23)
        assert commutator_norm(h13, h23) > 1.0

    def test_shared_probe_axis_different_body_axes(self):
        # x-coupling on one pair, y-coupling on the other, both through z on the probe
        c13, c23 = np.zeros((3, 3)), np.zeros((3, 3))
        c13[0, 2] = 0.9
        c23[1, 2] = 1.4
        assert commutes(pair(coupling=c13), pair(coupling=c23, which=(2, 3)))

    def test_randomized_soundness_against_direct_thresholding(self):
        # independent re-derivation of the decision rule from raw embeddings
        rng = np.random.default_rng(31)
        tol = 1e-10
        for _ in range(1000):
            if rng.uniform() < 0.5:
                h13, h23 = random_commuting_pair(rng, locals_mode="full")
            else:
                h13 = pair(coupling=rng.normal(size=(3, 3)), local_self=rng.normal(size=3),
                           local_probe=rng.normal(size=3))
                h23 = pair(coupling=rng.normal(size=(3, 3)), local_self=rng.normal(size=3),
                           local_probe=rng.normal(size=3), which=(2, 3))
            m13, m23 = h13.to_matrix(), h23.to_matrix()
            direct = np.linalg.norm(m13 @ m23 - m23 @ m13) <= tol * max(
                1.0, np.linalg.norm(m13) * np.linalg.norm(m23)
            )
            assert commutes(h13, h23, tol=tol) == direct


class TestCanonicalForm:
    def test_single_term_already_canonical(self):
        c13 = np.zeros((3, 3))
        c13[0, 2] = 2.0  # strength 2, body axis x, probe axis z
        f13, f23 = canonical_commuting_form(pair(coupling=c13), pair(which=(2, 3)))
        assert f13.coupling_strength == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(f13.coupling_axis_self, (1, 0, 0), atol=1e-12)
        assert np.allclose(f13.probe_axis, (0, 0, 1), atol=1e-12)
        assert f23.coupling_strength == 0.0

    def test_qnd_preset_shares_z_axis(self):
        f13, f23 = canonical_commuting_form(*qnd_zz(1.0))
        assert np.allclose(f13.probe_axis, (0, 0, 1), atol=1e-12)
        assert np.allclose(f23.probe_axis, (0, 0, 1), atol=1e-12)
        assert f13.coupling_strength == pytest.approx(0.25, abs=1e-12)

    def test_heisenberg_raises_not_commuting(self):
        with pytest.raises(NotCommutingError):
            canonical_commuting_form(*heisenberg_chain(1.0))

    def test_rank_two_coupling_raises(self):
        c13 = np.diag([1.0, 2.0, 0.0])  # rank 2, but commutes with a zero partner
        h13, h23 = pair(coupling=c13), pair(which=(2, 3))
        assert commutes(h13, h23)
        with pytest.raises(NotRankOneError):
            canonical_commuting_form(h13, h23)

    def test_zero_coupling_gets_fixed_axes(self):
        f13, f23 = canonical_commuting_form(pair(), pair(which=(2, 3)))
        assert f13.coupling_strength == 0.0
        assert np.allclose(f13.probe_axis, (0, 0, 1))
        assert np.allclose(f13.local_self_axis, (0, 0, 1))

    def test_sign_normalization_is_canonical(self):
        # the same physical coupling written with flipped factor signs
        u = np.array([0.6, 0.0, 0.8])
        j = np.array([-1.0, 0.0, 0.0])
        h13a = pair(coupling=1.5 * np.outer(u, j))
        h13b = pair(coupling=1.5 * np.outer(-u, -j))
        h23 = pair(coupling=0.7 * np.outer(u, j), which=(2, 3))
        fa = canonical_commuting_form(h13a, h23)[0]
        fb = canonical_commuting_form(h13b, h23)[0]
        assert np.allclose(fa.coupling_axis_self, fb.coupling_axis_self, atol=1e-12)
        assert np.allclose(fa.probe_axis, fb.probe_axis, atol=1e-12)
        assert fa.probe_axis[0] > 0  # first nonzero component positive
        assert fa.coupling_strength == pytest.approx(1.5, abs=1e-12)

    def test_reconstruction_roundtrip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            h13, h23 = random_commuting_pair(rng, locals_mode="full")
            f13, f23 = canonical_commuting_form(h13, h23)
            assert np.max(np.abs(f13.to_matrix() - h13.to_matrix())) <= 1e-10
            assert np.max(np.abs(f23.to_matrix() - h23.to_matrix())) <= 1e-10
            assert abs(np.linalg.norm(f13.coupling_axis_self) - 1) <= 1e-12
            assert abs(np.linalg.norm(f13.probe_axis) - 1) <= 1e-12

    def test_antiparallel_probe_locals_without_coupling(self):
        h13 = pair(local_probe=np.array([0.5, 0, 0]))
        h23 = pair(local_probe=np.array([-0.5, 0, 0]), which=(2, 3))
        f13, f23 = canonical_commuting_form(h13, h23)
        assert f13.local_probe_strength == pytest.approx(0.5)
        assert f23.local_probe_strength == pytest.approx(-0.5)


class TestSplitLocalAndEntangling:
    def test_zero_locals(self):
        f13, _ = canonical_commuting_form(zz_pair(1.0, (1, 3)), zz_pair(1.0, (2, 3)))
        entangling, local = f13.entangling_matrix(), f13.local_matrix()
        assert np.allclose(local, 0)
        assert np.allclose(entangling, kron(SZ, I2, SZ), atol=1e-12)

    def test_sum_reconstructs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            h13, h23 = random_commuting_pair(rng, locals_mode="full")
            for form, h in zip(canonical_commuting_form(h13, h23), (h13, h23)):
                entangling, local = form.entangling_matrix(), form.local_matrix()
                assert np.max(np.abs(entangling + local - h.to_matrix())) <= 1e-10

    @staticmethod
    def _aligned_pair(rng):
        """Commuting pair whose body-local axes are parallel to the coupling axes."""
        from triqubit.scenarios import random_axis

        u, w, j = random_axis(rng), random_axis(rng), random_axis(rng)
        h13 = PauliPairHamiltonian(
            coupling=rng.uniform(0.2, 2.0) * np.outer(u, j),
            local_self=rng.uniform(0, 1) * u,
            local_probe=rng.uniform(-1, 1) * j,
            pair=(1, 3),
        )
        h23 = PauliPairHamiltonian(
            coupling=rng.uniform(0.2, 2.0) * np.outer(w, j),
            local_self=rng.uniform(0, 1) * w,
            local_probe=rng.uniform(-1, 1) * j,
            pair=(2, 3),
        )
        return h13, h23

    def test_pieces_commute_for_aligned_locals(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            h13, h23 = self._aligned_pair(rng)
            f13, f23 = canonical_commuting_form(h13, h23)
            ent = f13.entangling_matrix() + f23.entangling_matrix()
            loc = f13.local_matrix() + f23.local_matrix()
            assert np.linalg.norm(ent @ loc - loc @ ent) <= 1e-10

    def test_local_part_does_not_change_tangle_for_aligned_locals(self):
        # with the body-local axes on the coupling axes, dropping the local
        # terms changes the evolution only by single-qubit unitaries
        rng = np.random.default_rng(45)
        for _ in range(25):
            h13, h23 = self._aligned_pair(rng)
            f13, f23 = canonical_commuting_form(h13, h23)
            ent_only = (
                PauliPairHamiltonian(coupling=h13.coupling, pair=(1, 3)),
                PauliPairHamiltonian(coupling=h23.coupling, pair=(2, 3)),
            )
            psi0 = random_state(rng)
            t = rng.uniform(0, 2 * np.pi)
            tau_full = oracle_tangle12_pure3(evolve(make_plan(h13, h23), psi0, t))
            tau_ent = oracle_tangle12_pure3(evolve(make_plan(*ent_only), psi0, t))
            assert abs(tau_full - tau_ent) <= 1e-9

    def test_misaligned_body_local_breaks_the_split(self):
        # a body-local axis off the coupling axis still commutes pair-to-pair,
        # but the entangling and local pieces no longer commute
        c13 = np.zeros((3, 3))
        c13[0, 2] = 1.0
        h13 = pair(coupling=c13, local_self=np.array([0, 0, 0.8]))
        h23 = zz_pair(1.0, (2, 3))
        assert commutes(h13, h23)
        f13, _ = canonical_commuting_form(h13, h23)
        entangling, local = f13.entangling_matrix(), f13.local_matrix()
        assert np.linalg.norm(entangling @ local - local @ entangling) > 0.1
