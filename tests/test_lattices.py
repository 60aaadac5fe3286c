import math

import numpy as np
import pytest

from cayleyheat.errors import (
    DomainError,
    EnumerationBudgetError,
    GroupMismatchError,
    NumericalConsistencyError,
)
from cayleyheat.groups import FiniteAbelianGroup, GroupElement, convolve, parse_group
from cayleyheat.lattices import (
    Lattice,
    LatticeHom,
    direct_sum,
    fiber_product,
    pushforward,
    random_hom,
    _ball_candidates,
    _enumeration_box,
    _integer_kernel,
)

# direct summation over |k| <= 10; the tail is below e^{-100 pi}
MASS_Z = 1.0864348112133082


def gaussian_mass(lattice, epsilon=1e-12):
    """Total Gaussian weight of the lattice, with its tail bound: the
    pushforward into the trivial group."""
    Z1 = FiniteAbelianGroup((1,))
    res = pushforward(LatticeHom(lattice, Z1, (Z1.from_index(0),) * lattice.dim), epsilon)
    return res.chi.values[0], res.tail_bound


class TestLattice:
    def test_rank_deficient_rejected(self):
        with pytest.raises(DomainError):
            Lattice(np.array([[1.0, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("basis", [
        [[np.nan]],
        [[np.inf]],
        [[-np.inf]],
        [[1.0, np.inf], [0.0, 1.0]],
        [[1.0, np.nan], [0.0, 1.0]],
        # column norms whose squares overflow
        [[3.0, 0.0], [0.0, 1e200]],
        [[1e300]],  # the basis Lattice.integers(1e300) builds
    ], ids=["nan", "inf", "-inf", "inf-entry", "nan-entry", "diag-3-1e200", "integers-1e300"])
    def test_non_finite_or_huge_basis_is_refused_by_name(self, basis):
        with pytest.raises(DomainError, match=r"^basis \["):
            Lattice(np.array(basis))

    @pytest.mark.parametrize("basis", [[[1e150]], [[1e150, 0.0], [0.0, 1e150]], [[1e100]]])
    def test_largest_accepted_bases_answer(self, basis):
        # every nonzero point is far outside the ball: chi is the delta, with
        # no overflow on the way (the suite turns RuntimeWarnings into errors)
        G = FiniteAbelianGroup((4,))
        res = pushforward(LatticeHom(Lattice(np.array(basis)), G, (G.from_index(1),) * len(basis)))
        assert res.chi.values.tolist() == [1.0, 0.0, 0.0, 0.0] and res.tail_bound == 0.0

    def test_overflowing_box_count_is_refused(self):
        # accepted (largest singular value 1.4e149), but R is the long shortest
        # column and smin is 7e-6, so (2R/smin + 1)^2 overflows
        G = FiniteAbelianGroup((4,))
        h = LatticeHom(Lattice(np.array([[1e149, 1e149], [0.0, 1e-5]])), G, (G.from_index(1),) * 2)
        with pytest.raises(NumericalConsistencyError, match="overflows"):
            pushforward(h)

    def test_radius_that_overflows_names_the_basis(self):
        # at d = 30 the count bound over epsilon overflows, so the radius
        # does; the refusal blamed epsilon alone
        G = FiniteAbelianGroup((2,))
        h = LatticeHom(Lattice(2e-9 * np.eye(30)), G, (G.from_index(1),) * 30)
        with pytest.raises(DomainError, match=r"^epsilon 1e-12 .*d = 30, smin = 2\.00e-09"):
            pushforward(h)

    def test_count_bound_that_overflows_in_the_solve_is_refused(self):
        # at d = 40 the solve's own (2R/smin + 1)^d raised a bare OverflowError
        G = FiniteAbelianGroup((2,))
        h = LatticeHom(Lattice(2e-9 * np.eye(40)), G, (G.from_index(1),) * 40)
        with pytest.raises(
            NumericalConsistencyError, match=r"overflows \(R = .*, smin = 2\.00e-09, d = 40\)"
        ):
            pushforward(h)

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

    @pytest.mark.parametrize("epsilon", [5e-324, 1e-310, 1e-302])
    def test_tiny_epsilon_is_refused_by_name(self, epsilon):
        # epsilon/2 underflows to 0, where 1/target raised ZeroDivisionError;
        # or 1/target or nb/target overflows, and ceil of the infinite R
        # raised OverflowError ("cannot convert float infinity to integer")
        with pytest.raises(DomainError, match=f"^epsilon {epsilon} is too small"):
            gaussian_mass(Lattice(np.eye(4)), epsilon=epsilon)


class TestPushforward:
    def test_trivial_target_collects_mass(self):
        G1 = FiniteAbelianGroup((1,))
        h = LatticeHom(Lattice.integers(1.0), G1, (G1.from_index(0),))
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
            # built without GroupFunction's checks, so pushforward owns the flags
            assert res.chi.values.dtype == np.float64 and not res.chi.values.flags.writeable
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


class TestImages:
    """A homomorphism holds its images as the reduced residue matrix."""

    G = FiniteAbelianGroup((4, 6))
    lattice = Lattice(np.array([[1.0, 0.3], [-0.2, 0.8]]))

    def by_elements(self):
        G = self.G
        return LatticeHom(self.lattice, G, (G.element((1, 5)), G.element((3, 0))))

    def test_elements_and_matrix_agree(self):
        h = self.by_elements()
        assert h.images.dtype == np.int64
        assert h.images.tolist() == [[1, 3], [5, 0]]  # column i is image i
        # the same residues, out of range and negative
        m = LatticeHom(self.lattice, self.G, np.array([[-7, 11], [5, -12]]))
        assert np.array_equal(m.images, h.images)
        assert pushforward(m).chi.values.tobytes() == pushforward(h).chi.values.tobytes()

    def test_images_are_read_only_and_owned(self):
        given = np.array([[1, 3], [5, 0]])
        for h in (self.by_elements(), LatticeHom(self.lattice, self.G, given)):
            with pytest.raises(ValueError):
                h.images[0, 0] = 2
        given[0, 0] = 2
        assert LatticeHom(self.lattice, self.G, given).images[0, 0] == 2

    @pytest.mark.parametrize(
        "images",
        [
            np.zeros((2, 3), dtype=np.int64),  # one image too many
            np.zeros((1, 2), dtype=np.int64),  # one factor short
            np.zeros(2, dtype=np.int64),
            np.zeros((2, 2)),  # not integers
            np.zeros((2, 2), dtype=np.uint8),  # not signed
        ],
    )
    def test_wrong_matrix_is_refused(self, images):
        with pytest.raises(DomainError):
            LatticeHom(self.lattice, self.G, images)

    def test_wrong_element_count_is_refused(self):
        with pytest.raises(DomainError):
            LatticeHom(self.lattice, self.G, (self.G.element((1, 1)),))

    def test_foreign_element_is_refused(self):
        H = FiniteAbelianGroup((24,))
        with pytest.raises(GroupMismatchError):
            LatticeHom(self.lattice, self.G, (self.G.element((1, 1)), H.element((5,))))

    def test_lattice_operations_build_no_element(self, monkeypatch):
        built = []
        post_init = GroupElement.__post_init__

        def spy(g):
            built.append(g)
            post_init(g)

        monkeypatch.setattr(GroupElement, "__post_init__", spy)
        G = FiniteAbelianGroup((2, 4))
        rng = np.random.default_rng(5)
        h1, h2 = random_hom(G, rng, 2), random_hom(G, rng, 3)
        for h in (direct_sum(h1, h2), fiber_product(h1, h2)):
            pushforward(h)
        assert built == []
        G.from_index(3)  # the spy sees an element when one is built
        assert len(built) == 1

    @pytest.mark.parametrize("sizes", [(12,), (2, 3, 4), (4, 4), (101,)])
    def test_random_hom_draws_as_before(self, sizes):
        # one rng.integers call per image, in order, as when the images were
        # drawn as elements
        def by_elements(G, rng, max_dim):
            d = int(rng.integers(1, max_dim + 1))
            while True:
                B = rng.uniform(-1.5, 1.5, size=(d, d))
                if np.linalg.svd(B, compute_uv=False)[-1] > 0.3:
                    break
            images = tuple(G.from_index(int(rng.integers(G.order))) for _ in range(d))
            return LatticeHom(Lattice(B), G, images)

        G = FiniteAbelianGroup(sizes)
        rng, ref = np.random.default_rng(2024), np.random.default_rng(2024)
        for _ in range(6):
            h, r = random_hom(G, rng, 3), by_elements(G, ref, 3)
            assert h.lattice.basis.tobytes() == r.lattice.basis.tobytes()
            assert np.array_equal(h.images, r.images)
        assert rng.integers(1 << 30) == ref.integers(1 << 30)

    def test_random_hom_images_at_a_fixed_seed(self):
        G = FiniteAbelianGroup((2, 3, 4))
        rng = np.random.default_rng(2024)
        cols = [random_hom(G, rng, 3).images.T.tolist() for _ in range(4)]
        assert cols == [
            [[1, 1, 0]],
            [[0, 1, 3]],
            [[1, 2, 3], [1, 1, 0], [0, 0, 0]],
            [[0, 2, 3]],
        ]


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

    def test_images_stack_h1_then_h2(self):
        G = FiniteAbelianGroup((3, 5))
        h1 = LatticeHom(Lattice.integers(1.0), G, (G.element((1, 2)),))
        h2 = LatticeHom(Lattice(np.eye(2)), G, (G.element((2, 0)), G.element((0, 4))))
        assert direct_sum(h1, h2).images.tolist() == [[1, 2, 0], [2, 0, 4]]

    def test_trivial_summand_is_identity(self):
        G = FiniteAbelianGroup((5,))
        h = LatticeHom(Lattice.integers(1.1), G, (G.element((2,)),))
        triv = LatticeHom(Lattice(np.zeros((0, 0))), G, ())
        out = direct_sum(h, triv)
        assert np.allclose(out.lattice.basis, h.lattice.basis)
        assert np.array_equal(out.images, h.images)

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


def integer_kernel_by_rows(mat):
    """Reference for ``_integer_kernel``: the same column-echelon reduction
    on a row-major matrix and a separate identity, one entry at a time."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [row[:] for row in mat]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    col = 0
    for row in range(m):
        while True:
            nz = sorted((c for c in range(col, n) if A[row][c] != 0), key=lambda c: abs(A[row][c]))
            if len(nz) <= 1:
                break
            p = nz[0]
            for c in nz[1:]:
                q = A[row][c] // A[row][p]
                for M in (A, V):
                    for r in M:
                        r[c] -= q * r[p]
        if nz:
            for M in (A, V):
                for r in M:
                    r[nz[0]], r[col] = r[col], r[nz[0]]
            col += 1
    return [[V[r][c] for r in range(n)] for c in range(n) if all(A[r][c] == 0 for r in range(m))]


class TestIntegerKernel:
    def test_matches_the_row_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(400):
            m = int(rng.integers(0, 4))
            mat = rng.integers(-40, 41, size=(m, int(rng.integers(m, 9)))).tolist()
            assert _integer_kernel(mat) == integer_kernel_by_rows(mat)

    def test_simple_congruence(self):
        # x - y = 0 mod 4: kernel of [1, -1, 4]
        basis = _integer_kernel([[1, -1, 4]])
        assert len(basis) == 2
        for col in basis:
            assert col[0] - col[1] + 4 * col[2] == 0

    def test_full_lattice_when_unconstrained(self):
        basis = _integer_kernel([[0, 0]])
        assert len(basis) == 2


def image_of(hom, coeffs):
    """Residues of the image of the lattice point with integer coordinates
    ``coeffs``, in Python ints: sum_i c_i * images[:, i], reduced per factor."""
    sizes = hom.target.factor_sizes
    images = hom.images.tolist()
    return tuple(
        sum(int(c) * r for c, r in zip(coeffs, images[j])) % n for j, n in enumerate(sizes)
    )


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
            g1 = image_of(h1, K_int[:d1, j])
            g2 = image_of(h2, K_int[d1:, j])
            assert g1 == g2
        # the fiber product's images are h1's images of its basis
        assert [tuple(col) for col in fp.images.T.tolist()] == [
            image_of(h1, K_int[:d1, j]) for j in range(K_int.shape[1])
        ]

    def test_target_mismatch(self):
        Ga, Gb = FiniteAbelianGroup((2,)), FiniteAbelianGroup((3,))
        h1 = LatticeHom(Lattice.integers(1.0), Ga, (Ga.element((1,)),))
        h2 = LatticeHom(Lattice.integers(1.0), Gb, (Gb.element((1,)),))
        with pytest.raises(GroupMismatchError):
            fiber_product(h1, h2)


def box_pushforward(hom, epsilon=1e-12):
    """Reference pushforward by the box route: every coefficient vector with
    |c_i| <= m, in meshgrid order, then the float test ||Bc||^2 <= R^2.
    Returns (chi values, tail bound, in-ball coefficients)."""
    G, d = hom.target, hom.lattice.dim
    R, m, tail = _enumeration_box(hom.lattice, epsilon)
    axes = [np.arange(-m, m + 1, dtype=np.int64)] * d
    coeffs = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    pts = coeffs.astype(float) @ hom.lattice.basis.T
    sq = np.einsum("ij,ij->i", pts, pts)
    mask = sq <= R * R
    coeffs = coeffs[mask]
    weights = np.exp(-np.pi * sq[mask])
    residues = (coeffs @ hom.images.T) % np.array(G.factor_sizes, dtype=np.int64)
    flat = np.ravel_multi_index(tuple(residues.T), G.factor_sizes)
    return np.bincount(flat, weights=weights, minlength=G.order), tail, coeffs


def ball_coefficients(hom, epsilon=1e-12):
    """The in-ball coefficient vectors of the ball route, in its order."""
    R, m, _ = _enumeration_box(hom.lattice, epsilon)
    coeffs = _ball_candidates(hom.lattice, R, m, 10**7)
    pts = coeffs.astype(float) @ hom.lattice.basis.T
    return coeffs[np.einsum("ij,ij->i", pts, pts) <= R * R]


def _box_size(hom):
    _, m, _ = _enumeration_box(hom.lattice, 1e-12)
    return (2 * m + 1) ** hom.lattice.dim


def _rotation(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


def _onto_z5(basis):
    G = FiniteAbelianGroup((5,))
    d = len(basis)
    return LatticeHom(Lattice(basis), G, tuple(G.from_index(1 + i % 4) for i in range(d)))


def oracle_corpus(family):
    """Homomorphisms of one family of the box-oracle corpus."""
    if family in ("Z12", "Z64", "Z2xZ2xZ16"):
        # CLI draws at dims 1-3, with their direct sums and fiber products
        G = parse_group(family)
        for dim in (1, 2, 3):
            rng = np.random.default_rng(dim)
            for _ in range(3):
                h1, h2 = random_hom(G, rng, dim), random_hom(G, rng, dim)
                yield from (h1, h2, direct_sum(h1, h2), fiber_product(h1, h2))
    elif family == "integers":
        # past r = R the radius is the basis norm, so +-1 lies on the sphere
        for r in (0.05, 0.3, 1.0, 2.5, 4.0, 50.0):
            yield _onto_z5(Lattice.integers(r).basis)
    elif family == "skewed":
        # a rotated triangular basis with column lengths from s to s*kappa,
        # whose first column stays short, so the box stays small;
        # condition numbers up to about 1e6
        rng = np.random.default_rng(6)
        for d in (2, 3):
            for kappa in (1e2, 1e4, 1e6):
                for s in (0.5, 1.0):
                    lengths = np.geomspace(s, s * kappa, d)
                    tri = np.eye(d) + np.triu(rng.uniform(-0.5, 0.5, (d, d)), 1)
                    yield _onto_z5(_rotation(rng, d) @ (tri * lengths))
    elif family == "long":
        # every basis vector longer than R: R is the shortest one's norm and
        # that vector lies on the sphere, where rounding decides the test
        rng = np.random.default_rng(8)
        for d in (2, 3):
            for _ in range(8):
                b = rng.uniform(-1.5, 1.5, size=(d, d))
                yield _onto_z5(b * (6.0 / np.min(np.linalg.norm(b, axis=0))))


class TestBallMatchesBox:
    """The ball enumeration sums the box route's points in the box route's
    order, so chi and the tail bound are bitwise equal."""

    BOX_LIMIT = 400_000  # largest box the reference enumerates
    FAMILIES = ["Z12", "Z64", "Z2xZ2xZ16", "integers", "skewed", "long"]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bitwise_equal(self, family):
        compared = 0
        for hom in oracle_corpus(family):
            if _box_size(hom) > self.BOX_LIMIT:
                continue
            chi, tail, coeffs = box_pushforward(hom)
            res = pushforward(hom)
            assert np.array_equal(res.chi.values, chi)
            assert res.tail_bound == tail
            assert np.array_equal(ball_coefficients(hom), coeffs)
            compared += 1
        assert compared >= 6

    def test_corpus_holds_each_branch_of_the_route(self):
        # _ball_candidates returns the first level at d = 1, and pushforward
        # copies the candidates only where its float test rejects one: the
        # bitwise comparison above covers both
        dims, rejects = set(), set()
        for family in self.FAMILIES:
            for hom in oracle_corpus(family):
                if _box_size(hom) > self.BOX_LIMIT:
                    continue
                R, m, _ = _enumeration_box(hom.lattice, 1e-12)
                held = len(_ball_candidates(hom.lattice, R, m, 10**7))
                dims.add(hom.lattice.dim)
                rejects.add(held > len(ball_coefficients(hom)))
        assert 1 in dims and rejects == {True, False}

    def test_answers_where_the_box_is_over_the_cap(self):
        # the fifth pair that `pushforward --group Z12 --seed 17` draws: its
        # fiber product's box holds 17.9 M points, over the 10 M cap
        G = parse_group("Z12")
        rng = np.random.default_rng(17)
        for _ in range(5):
            h1, h2 = random_hom(G, rng, 2), random_hom(G, rng, 2)
        hf = fiber_product(h1, h2)
        assert _box_size(hf) > 10**7
        lhs = pushforward(hf).chi.values
        assert np.max(np.abs(lhs - pushforward(h1).chi.values * pushforward(h2).chi.values)) < 1e-8


class TestPointCap:
    def _unit_square(self):
        G = FiniteAbelianGroup((3,))
        return LatticeHom(Lattice(np.eye(2)), G, (G.from_index(1), G.from_index(2)))

    def test_cap_counts_candidates(self):
        h = self._unit_square()
        R, m, _ = _enumeration_box(h.lattice, 1e-12)
        count = len(_ball_candidates(h.lattice, R, m, 10**7))
        assert count < 2 * R * R * math.pi < (2 * m + 1) ** 2
        pushforward(h, point_cap=count)
        with pytest.raises(EnumerationBudgetError):
            pushforward(h, point_cap=count - 1)

    def test_first_level_is_capped(self):
        # about 2e9 candidates for c_1 alone: refused before any allocation
        G = FiniteAbelianGroup((2,))
        h = LatticeHom(Lattice.integers(4e-9), G, (G.from_index(1),))
        with pytest.raises(EnumerationBudgetError):
            pushforward(h)

