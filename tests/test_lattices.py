import math

import numpy as np
import pytest

from cayleyheat.errors import DomainError, GroupMismatchError
from cayleyheat.groups import FiniteAbelianGroup, convolve
from cayleyheat.lattices import (
    Lattice,
    LatticeHom,
    direct_sum,
    fiber_product,
    pushforward,
    random_hom,
    _integer_kernel,
)

# direct summation over |k| <= 10; the tail is below e^{-100 pi}
MASS_Z = 1.0864348112133082


def gaussian_mass(lattice, epsilon=1e-12):
    """Total Gaussian weight of the lattice, with its tail bound: the
    pushforward into the trivial group."""
    Z1 = FiniteAbelianGroup((1,))
    res = pushforward(LatticeHom(lattice, Z1, (Z1.identity,) * lattice.dim), epsilon)
    return res.chi.values[0], res.tail_bound


class TestLattice:
    def test_rank_deficient_rejected(self):
        with pytest.raises(DomainError):
            Lattice(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_gram_spd(self):
        B = np.array([[2.0, 0.5], [0.0, 1.0]])
        gram = Lattice(B).gram
        assert np.allclose(gram, gram.T)
        assert np.all(np.linalg.eigvalsh(gram) > 0)


class TestGaussianMass:
    def test_integers(self):
        mass, tail = gaussian_mass(Lattice.integers(1.0))
        assert abs(mass - MASS_Z) < 1e-10
        assert tail <= 1e-12

    def test_sparse_lattice_tends_to_one(self):
        mass, _ = gaussian_mass(Lattice.integers(50.0))
        assert abs(mass - 1.0) < 1e-12

    def test_product_lattice_factorizes(self):
        mass2, tail = gaussian_mass(Lattice(np.eye(2)), epsilon=1e-12)
        assert abs(mass2 - MASS_Z**2) < 2e-12

    def test_epsilon_positive(self):
        with pytest.raises(DomainError):
            gaussian_mass(Lattice.integers(1.0), epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [4.0, math.nan])
    def test_epsilon_below_one(self, epsilon):
        # past 2 the radius equation took the root of a negative number
        G = FiniteAbelianGroup((3,))
        h = LatticeHom(Lattice.integers(1.0), G, (G.from_index(1),))
        with pytest.raises(DomainError):
            gaussian_mass(h.lattice, epsilon=epsilon)
        with pytest.raises(DomainError):
            pushforward(h, epsilon=epsilon)


class TestPushforward:
    def test_trivial_target_collects_mass(self):
        G1 = FiniteAbelianGroup((1,))
        h = LatticeHom(Lattice.integers(1.0), G1, (G1.identity,))
        res = pushforward(h)
        assert abs(res.chi.values[0] - MASS_Z) < 1e-10

    def test_z2_parity_split(self):
        G = FiniteAbelianGroup((2,))
        h = LatticeHom(Lattice.integers(1.0), G, (G.element((1,)),))
        res = pushforward(h)
        # frozen: split of the direct summation by parity of k
        assert abs(res.chi.values[0] - 1.0000069746847124) < 1e-10
        assert abs(res.chi.values[1] - 0.08642783652859562) < 1e-10
        assert abs(res.chi.values.sum() - MASS_Z) < 1e-10

    def test_lemma35_lattice_values(self):
        # r_n chosen so rho(r_n) = alpha/n; second shell is (alpha/n)^4 per point
        G = FiniteAbelianGroup((12,))
        n, alpha = 100, 1.0
        r_n = math.sqrt(math.log(n / alpha) / math.pi)
        h = LatticeHom(Lattice.integers(r_n), G, (G.element((1,)),))
        res = pushforward(h)
        assert abs(res.chi.values[1] - 0.01) < 1e-15
        assert abs(res.chi.values[2] - 1e-8) < 1e-16

    def test_chi_even_and_nonnegative(self):
        rng = np.random.default_rng(11)
        G = FiniteAbelianGroup((2, 4))
        for _ in range(5):
            res = pushforward(random_hom(G, rng, 2))
            assert np.all(res.chi.values >= 0)
            neg = G.neg_index_table()
            assert np.max(np.abs(res.chi.values - res.chi.values[neg])) <= max(
                2 * res.tail_bound, 1e-12
            )

    def test_mass_conservation(self):
        rng = np.random.default_rng(5)
        G = FiniteAbelianGroup((6,))
        h = random_hom(G, rng, 2)
        res = pushforward(h)
        mass, tail = gaussian_mass(h.lattice)
        assert abs(res.chi.values.sum() - mass) < 2 * (res.tail_bound + tail) * G.order + 1e-12

    def test_tail_bound_within_epsilon(self):
        rng = np.random.default_rng(2)
        res = pushforward(random_hom(FiniteAbelianGroup((8,)), rng, 2), epsilon=1e-10)
        assert res.tail_bound <= 1e-10


class TestDirectSum:
    def test_pushforward_is_convolution(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            sizes = [(6,), (12,), (2, 4), (24,), (3, 3)][int(rng.integers(5))]
            G = FiniteAbelianGroup(sizes)
            h1, h2 = random_hom(G, rng, 2), random_hom(G, rng, 2)
            lhs = pushforward(direct_sum(h1, h2)).chi
            rhs = convolve(pushforward(h1).chi, pushforward(h2).chi)
            assert np.max(np.abs(lhs.values - rhs.values)) < 1e-8

    def test_trivial_summand_is_identity(self):
        G = FiniteAbelianGroup((5,))
        h = LatticeHom(Lattice.integers(1.1), G, (G.element((2,)),))
        triv = LatticeHom(Lattice(np.zeros((0, 0))), G, ())
        out = direct_sum(h, triv)
        assert np.allclose(out.lattice.basis, h.lattice.basis)
        assert out.images == h.images

    def test_block_diagonal_gram(self):
        G = FiniteAbelianGroup((4,))
        rng = np.random.default_rng(0)
        h1, h2 = random_hom(G, rng, 2), random_hom(G, rng, 2)
        gram = direct_sum(h1, h2).lattice.gram
        d1 = h1.lattice.dim
        assert np.allclose(gram[:d1, d1:], 0.0)

    def test_target_mismatch(self):
        h1 = LatticeHom(Lattice.integers(1.0), FiniteAbelianGroup((2,)),
                        (FiniteAbelianGroup((2,)).element((1,)),))
        h2 = LatticeHom(Lattice.integers(1.0), FiniteAbelianGroup((3,)),
                        (FiniteAbelianGroup((3,)).element((1,)),))
        with pytest.raises(GroupMismatchError):
            direct_sum(h1, h2)


class TestIntegerKernel:
    def test_simple_congruence(self):
        # x - y = 0 mod 4: kernel of [1, -1, 4]
        basis = _integer_kernel([[1, -1, 4]])
        assert len(basis) == 2
        for col in basis:
            assert col[0] - col[1] + 4 * col[2] == 0

    def test_full_lattice_when_unconstrained(self):
        basis = _integer_kernel([[0, 0]])
        assert len(basis) == 2


class TestFiberProduct:
    def test_pushforward_is_pointwise_product(self):
        rng = np.random.default_rng(202)
        for _ in range(50):
            sizes = [(6,), (12,), (2, 4), (8,), (3, 3)][int(rng.integers(5))]
            G = FiniteAbelianGroup(sizes)
            h1, h2 = random_hom(G, rng, 2), random_hom(G, rng, 2)
            lhs = pushforward(fiber_product(h1, h2)).chi
            rhs = pushforward(h1).chi.values * pushforward(h2).chi.values
            assert np.max(np.abs(lhs.values - rhs)) < 1e-8

    def test_z2_explicit(self):
        G = FiniteAbelianGroup((2,))
        h = LatticeHom(Lattice.integers(1.0), G, (G.element((1,)),))
        chi = pushforward(h).chi.values
        fp = pushforward(fiber_product(h, h)).chi.values
        assert np.allclose(fp, chi**2, atol=1e-10)

    def test_kernel_basis_satisfies_congruence(self):
        rng = np.random.default_rng(17)
        G = FiniteAbelianGroup((2, 4))
        h1, h2 = random_hom(G, rng, 2), random_hom(G, rng, 2)
        fp = fiber_product(h1, h2)
        # invert block basis to recover integer coordinates in L1 (+) L2
        d1 = h1.lattice.dim
        big = np.zeros((fp.lattice.dim, fp.lattice.dim))
        big[:d1, :d1] = h1.lattice.basis
        big[d1:, d1:] = h2.lattice.basis
        K = np.linalg.solve(big, fp.lattice.basis)
        K_int = np.rint(K).astype(int)
        assert np.max(np.abs(K - K_int)) < 1e-8
        for j in range(K_int.shape[1]):
            g1 = h1.apply_coeffs(K_int[:d1, j])
            g2 = h2.apply_coeffs(K_int[d1:, j])
            assert g1.residues == g2.residues

    def test_target_mismatch(self):
        Ga, Gb = FiniteAbelianGroup((2,)), FiniteAbelianGroup((3,))
        h1 = LatticeHom(Lattice.integers(1.0), Ga, (Ga.element((1,)),))
        h2 = LatticeHom(Lattice.integers(1.0), Gb, (Gb.element((1,)),))
        with pytest.raises(GroupMismatchError):
            fiber_product(h1, h2)
