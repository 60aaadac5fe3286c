"""Lattices, homomorphisms into finite Abelian groups and Gaussian
pushforwards.

The pushforward of a lattice L through a homomorphism h into a group G is
chi(g) = sum of exp(-pi*||x||^2) over lattice points x with h(x) = g.  It is
computed by enumerating every lattice point inside a radius chosen so the
certified truncation error sits below a requested epsilon.  The enumeration
walks the ball one coordinate at a time (Fincke and Pohst, "Improved methods
for calculating vectors of short length in a lattice"), so its cost follows
the points near the ball, not a bounding box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    EnumerationBudgetError,
    GroupMismatchError,
    NumericalConsistencyError,
)
from .groups import FiniteAbelianGroup, GroupFunction, convolve

MIN_SINGULAR_VALUE = 1e-9
# largest singular value accepted.  It bounds every column norm, so also the
# enumeration radius R (the larger of the shortest column and the radius
# solve's few units) and the norm of every enumerated point: the squared
# norms, the Gram entries and pi R^2 stay far below the float maximum, 1.8e308
MAX_SINGULAR_VALUE = 1e150
DEFAULT_EPSILON = 1e-12
DEFAULT_POINT_CAP = 10_000_000
# largest closure error (sup norm) accepted by ``pushforward_closure``; each
# pushforward's certified tail is at most epsilon, 1e-12 by default
CLOSURE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Lattice:
    """Full-rank lattice in R^d, d >= 1, given by basis columns.

    A basis that is not square or is empty, has an entry that is not finite,
    has a singular value above MAX_SINGULAR_VALUE or is rank-deficient is
    refused (DomainError), by one SVD.
    """

    basis: np.ndarray  # (d, d), columns are basis vectors
    # smallest singular value of the basis, from the rank check's SVD
    min_singular_value: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.size == 0:
            raise DomainError(f"basis must be square and nonempty, got shape {b.shape}")
        try:
            s = np.linalg.svd(b, compute_uv=False)
        except np.linalg.LinAlgError:  # LAPACK's answer to a NaN entry
            raise DomainError(f"basis {b.tolist()} is not finite") from None
        # an infinite entry gives NaN singular values, which fail too
        if not s[0] <= MAX_SINGULAR_VALUE:
            raise DomainError(
                f"basis {b.tolist()} is not finite or too large (largest "
                f"singular value {s[0]:.2e}, limit {MAX_SINGULAR_VALUE:.0e})"
            )
        smin = float(s[-1])
        if smin <= MIN_SINGULAR_VALUE:
            raise DomainError(f"basis is rank-deficient (smallest singular value {smin:.2e})")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "min_singular_value", smin)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def gram(self) -> np.ndarray:
        return self.basis.T @ self.basis

    @property
    def shortest_basis_norm(self) -> float:
        # the column norms as np.linalg.norm(basis, axis=0) takes them
        return math.sqrt(min(np.add.reduce(self.basis * self.basis, axis=0).tolist()))

    @staticmethod
    def integers(scale: float = 1.0) -> "Lattice":
        return Lattice(np.array([[scale]]))


@dataclass(frozen=True, eq=False)
class LatticeHom:
    """Homomorphism L -> G determined by the images of the basis vectors.

    ``images`` is the read-only (rank, d) int64 residue matrix: column i
    holds the residues of basis vector i's image, each reduced mod its
    factor.  It may be given as a signed integer matrix of that shape, or
    as a sequence of d residue vectors of length rank, one per basis vector
    (as ``residues_of`` returns them), with entries of any size and sign in
    either form; it is converted once, here.  A bool is not an integer
    residue in either form.
    """

    lattice: Lattice
    target: FiniteAbelianGroup
    images: np.ndarray

    def __post_init__(self):
        G, d = self.target, self.lattice.dim
        images = self.images
        if not isinstance(images, np.ndarray):
            try:
                rows = np.array(images)
            except ValueError:  # numpy's answer to a ragged sequence
                rows = None
            # np.array casts a bool next to integers to 1 or 0, so bools
            # are looked for in the entries themselves
            if (
                rows is None
                or rows.shape != (d, G.rank)
                or rows.dtype.kind != "i"
                or any(isinstance(r, (bool, np.bool_)) for v in images for r in v)
            ):
                raise DomainError(f"images must be {d} integer residue vectors of length {G.rank}")
            images = rows.T
        if images.shape != (G.rank, d) or images.dtype.kind != "i":
            raise DomainError(
                f"images must be a ({G.rank}, {d}) integer matrix, got "
                f"{images.dtype} of shape {images.shape}"
            )
        images = images % np.array(G.factor_sizes, dtype=np.int64)[:, None]
        images.setflags(write=False)
        object.__setattr__(self, "images", images)


@dataclass(frozen=True, eq=False)
class PushforwardResult:
    chi: GroupFunction
    tail_bound: float


def _enumeration_box(lattice: Lattice, epsilon: float, point_cap: int | None = None):
    """Radius R, per-coordinate bound m = ceil(R/smin), and certified tail
    bound.

    R solves R = sqrt(ln(Nb/eps)/pi) with Nb = (2R/smin + 1)^d a crude count
    bound; every skipped point has rho < exp(-pi R^2) and Nb absorbs the
    multiplicity.  R is clamped below by the shortest basis vector so the
    region never silently excludes every nonzero point.  Every point of the
    ball has |c_i| <= ||c|| <= R/smin <= m.  An epsilon too small for this
    solve in floats, where epsilon/2 underflows to 0 or R overflows, is
    refused (DomainError), and so is a basis whose count bound Nb overflows
    (NumericalConsistencyError).  ``point_cap`` is not read: the cap counts
    candidates (``_ball_candidates``); perfbench's box-rule test still
    passes it.
    """
    d = lattice.dim
    smin = lattice.min_singular_value
    # solve against epsilon/2 so fixed-point rounding cannot push the
    # reported tail above the requested epsilon
    target = epsilon / 2.0
    if target == 0.0:
        raise DomainError(f"epsilon {epsilon} is too small: epsilon/2 underflows to 0")
    R = math.sqrt(math.log(1.0 / target) / math.pi)
    # a count bound that overflows, in the solve or at the clamped R (a long
    # shortest column against a small smin), refuses the basis
    try:
        for _ in range(64):
            nb = (2.0 * R / smin + 1.0) ** d
            new_r = math.sqrt(math.log(nb / target) / math.pi)
            if abs(new_r - R) < 1e-12:
                R = new_r
                break
            R = new_r
        if not R < math.inf:  # 1/target or nb/target overflowed
            raise DomainError(
                f"epsilon {epsilon} is too small for this basis (d = {d}, "
                f"smin = {smin:.2e}): the enumeration radius overflows"
            )
        R = max(R, lattice.shortest_basis_norm)
        nb = (2.0 * R / smin + 1.0) ** d
    except OverflowError:
        raise NumericalConsistencyError(
            f"basis too ill-conditioned to enumerate: (2R/smin + 1)^d overflows "
            f"(R = {R:.2e}, smin = {smin:.2e}, d = {d})"
        ) from None
    m = math.ceil(R / smin)
    tail = nb * math.exp(-math.pi * R * R)
    return R, m, tail


def _reversed_cholesky(g: list[list[float]]) -> list[list[float]]:
    """Lower-triangular M with M^T M = g, filled from the last row up, so
    that (Mc)_k depends on c_1..c_k only."""
    d = len(g)
    M = [[0.0] * d for _ in range(d)]
    for j in range(d - 1, -1, -1):
        below = range(j + 1, d)
        pivot = g[j][j] - sum(M[k][j] * M[k][j] for k in below)
        if not pivot > 0.0:
            raise NumericalConsistencyError("Gram matrix is not numerically positive definite")
        M[j][j] = math.sqrt(pivot)
        for i in range(j):
            M[j][i] = (g[i][j] - sum(M[k][i] * M[k][j] for k in below)) / M[j][j]
    return M


def _check_budget(candidates: float, point_cap: int) -> None:
    """Refuse a level of the enumeration before it is allocated."""
    if candidates > point_cap:
        raise EnumerationBudgetError(
            f"enumeration would need {candidates:.0f} candidates (cap {point_cap})"
        )


def _ball_candidates(lattice: Lattice, R: float, m: int, point_cap: int) -> np.ndarray:
    """(N, d) coefficient vectors c in lexicographic order: a superset of
    the c in the box [-m, m]^d whose point Bc passes the float test of
    ``pushforward``, ||Bc||^2 <= R^2 (Fincke-Pohst enumeration).

    With the Gram matrix factored as M^T M, M lower triangular, the partial
    sums s_k = sum_{i<k} (Mc)_i^2 never exceed ||Mc||^2, so c_k ranges over
    the integers x with (a_k + M_kk x)^2 <= T^2 - s_k, a_k = sum_{j<k} M_kj c_j.
    Levels grow one coordinate at a time; each row's children are contiguous
    and ascending, which is the order of meshgrid(indexing="ij").  Each
    interval is clipped to [-m, m], so the candidates lie in the box and
    hold exactly the box points that the test accepts.  At d = 1 the first
    level's interval is the answer, returned as one column; no level state
    is built.

    Slack (u = 2^-53, gamma_n = nu/(1-nu), F = ||B||_F, kappa = F/smin, and
    the standard error model of Higham, "Accuracy and Stability of Numerical
    Algorithms", chs. 3 and 10, which holds for any order of summation):
    - The test is fl(||fl(Bc)||^2) <= fl(R*R).  Each entry of fl(Bc) is off
      by at most gamma_d (|B||c|)_i, a vector of norm <= gamma_d F ||c|| <=
      gamma_d kappa ||Bc||, and the squared norm carries a relative error
      gamma_d.  So an accepted c has ||Bc|| <= R (1 + 1.05 (d+1) u kappa).
    - fl(B^T B) = B^T B + E1 with |E1| <= gamma_d |B^T||B|, and the float
      factor has M^T M = fl(B^T B) + E2 with |E2| <= gamma_{d+1} |M^T||M|
      (Higham, Thm 10.3) and ||M||_F^2 = tr(M^T M) <= 1.01 F^2.  So
      |c^T (E1 + E2) c| <= 2.05 (d+1) u F^2 ||c||^2 <= rho ||Bc||^2 with
      rho = 3 (d+1) u kappa^2, and ||Mc|| <= T0 = R (1 + tau/8) sqrt(1 + rho).
    - For such c, every a_k and (Mc)_k is computed to within 1.1 (d+2) u
      kappa T0 (the dot-product bound again, with ||c|| <= T0/smin), so
      T^2 - s_k to within 5 (d+2)^1.5 u kappa T^2 <= 0.2 tau T0^2.
      Enumerating radius T = R (1 + tau) sqrt(1 + rho), tau = 16 (d+2)^2 u
      kappa <= 1e-3, leaves T^2 - T0^2 >= 1.7 tau T0^2.  That widens the
      half-width sqrt(T^2 - s_k) by at least 0.69 tau T0, while the centre
      -a_k/M_kk and the roundings of sqrt, sum and quotient are off by less
      than 0.1 tau T0, in units of 1/M_kk.  So each computed interval holds
      the exact one.
    A basis with tau > 1e-3, or whose Gram matrix is not numerically positive
    definite, is refused (NumericalConsistencyError).
    """
    g = lattice.gram.tolist()
    d = len(g)
    u = 2.0**-53
    kappa = math.sqrt(sum(g[i][i] for i in range(d))) / lattice.min_singular_value
    tau = 16 * (d + 2) ** 2 * u * kappa
    if tau > 1e-3:
        raise NumericalConsistencyError(
            f"basis too ill-conditioned to enumerate (||B||_F/smin = {kappa:.2e})"
        )
    T = R * (1.0 + tau) * math.sqrt(1.0 + 3 * (d + 1) * u * kappa * kappa)
    M = _reversed_cholesky(g)
    # level 1 has one parent row, with a_1 = s_1 = 0
    top = min(math.floor(T / M[0][0]), m)
    _check_budget(2 * top + 1, point_cap)
    x = np.arange(-top, top + 1)
    if d == 1:
        return x[:, None]
    # each level repeats the rows of two 2-d arrays, one call each: the
    # coefficients, with the columns of the levels below still 0, and the
    # state, T^2 - s_k and then a_j for the levels j below, deepest first,
    # so the next level's a_k is the last column and is dropped after it
    coeffs = np.zeros((len(x), d), dtype=np.int64)
    coeffs[:, 0] = x
    state = x[:, None] * [M[j][0] for j in [0, *range(d - 1, 0, -1)]]
    state[:, 0] = T * T - np.square(state[:, 0])
    for k in range(1, d):
        counts, x = _children(state[:, -1], state[:, 0], M[k][k], m, point_cap)
        coeffs = np.repeat(coeffs, counts, axis=0)
        coeffs[:, k] = x
        if k + 1 < d:
            state = np.repeat(state, counts, axis=0)
            state[:, 0] -= np.square(state[:, -1] + M[k][k] * x)
            state[:, 1:-1] += x[:, None] * [M[j][k] for j in range(d - 1, k, -1)]
            state = state[:, :-1]
    return coeffs


def _children(a: np.ndarray, rest: np.ndarray, mkk: float, m: int, point_cap: int):
    """One level of ``_ball_candidates``: from each parent row's a_k and
    T^2 - s_k, how many children it has and their c_k, all rows' children
    in order.  The parent-sized temporaries are freed on return, before the
    level's rows are repeated."""
    inv = 1.0 / mkk
    centre = a * -inv
    half = np.sqrt(np.maximum(rest, 0.0)) * inv
    lo = np.maximum(np.ceil(centre - half), -m)
    counts = np.minimum(np.floor(centre + half), m) - lo + 1.0
    del centre, half  # the children's arrays are made without them
    np.maximum(counts, 0.0, out=counts)
    total = counts.sum()
    _check_budget(total, point_cap)
    counts = counts.astype(np.int64)
    start = np.add.accumulate(counts) - counts  # the ufunc skips np.cumsum's dispatch
    return counts, np.arange(int(total)) - np.repeat(start - lo.astype(np.int64), counts)


def pushforward(
    hom: LatticeHom,
    epsilon: float = DEFAULT_EPSILON,
    point_cap: int = DEFAULT_POINT_CAP,
) -> PushforwardResult:
    """Gaussian pushforward chi(g) = rho(h^{-1}(g)), certified to ``epsilon``.

    ``point_cap`` bounds the candidate coefficient vectors the enumeration
    may hold; past it the call raises EnumerationBudgetError.
    """
    if not 0 < epsilon < 1:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    G = hom.target
    R, m, tail = _enumeration_box(hom.lattice, epsilon)
    coeffs = _ball_candidates(hom.lattice, R, m, point_cap)
    pts = coeffs.astype(float) @ hom.lattice.basis.T
    sq = np.einsum("ij,ij->i", pts, pts)
    mask = sq <= R * R
    if np.count_nonzero(mask) < len(mask):  # most often every candidate passes: no copies
        coeffs, sq = coeffs[mask], sq[mask]
    weights = np.exp(-np.pi * sq)

    flat = G.flat(hom.images @ coeffs.T)
    vals = np.bincount(flat, weights=weights, minlength=G.order)
    # finite: each value sums at most len(weights) terms, each in [0, 1]
    return PushforwardResult(GroupFunction._trusted(G, vals), tail)


def direct_sum(h1: LatticeHom, h2: LatticeHom) -> LatticeHom:
    """Orthogonal direct sum; its pushforward is the convolution of the two."""
    if h1.target != h2.target:
        raise GroupMismatchError("direct sum requires a common target group")
    images = np.concatenate([h1.images, h2.images], axis=1)
    return LatticeHom(Lattice(_block_basis(h1, h2)), h1.target, images)


def _block_basis(h1: LatticeHom, h2: LatticeHom) -> np.ndarray:
    """Basis of L1 (+) L2: the two bases on the block diagonal."""
    d1, d2 = h1.lattice.dim, h2.lattice.dim
    basis = np.zeros((d1 + d2, d1 + d2))
    basis[:d1, :d1] = h1.lattice.basis
    basis[d1:, d1:] = h2.lattice.basis
    return basis


def _integer_kernel(mat: list[list[int]]) -> list[list[int]]:
    """Basis of the integer kernel {z : M z = 0}, as a list of columns.

    Column-echelon reduction with exact integer arithmetic.  Each working
    column holds M's column above the identity's, so every unimodular column
    operation acts on both, and the identity part of each column whose M
    part is zeroed out is a kernel basis vector.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    cols = [[row[c] for row in mat] + [int(r == c) for r in range(n)] for c in range(n)]
    col = 0
    for row in range(m):
        while True:
            nz = [c for c in range(col, n) if cols[c][row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(cols[c][row]))
            p = cols[nz[0]]
            for c in nz[1:]:
                q = cols[c][row] // p[row]
                cols[c] = [a - q * b for a, b in zip(cols[c], p)]
        if nz:
            cols[col], cols[nz[0]] = cols[nz[0]], cols[col]
            col += 1
    return [c[m:] for c in cols if not any(c[:m])]


def fiber_product(h1: LatticeHom, h2: LatticeHom) -> LatticeHom:
    """Sublattice of L1 (+) L2 where both homomorphisms agree.

    Its pushforward is the pointwise product of the two pushforwards.  The
    congruence h1(x1) = h2(x2) is solved exactly over the integers by
    adjoining modulus columns and extracting the kernel lattice.
    """
    if h1.target != h2.target:
        raise GroupMismatchError("fiber product requires a common target group")
    G = h1.target
    d1, d2 = h1.lattice.dim, h2.lattice.dim
    # rows: one congruence per cyclic factor; cols: c1, c2, auxiliary multiples
    M = np.concatenate([h1.images, -h2.images, np.diag(G.factor_sizes)], axis=1)
    kernel = _integer_kernel(M.tolist())
    # drop the auxiliary coordinates; the projection is injective on solutions
    proj = [col[: d1 + d2] for col in kernel if any(col[: d1 + d2])]
    K = np.array(proj, dtype=np.int64).reshape(len(proj), d1 + d2).T
    if K.shape[1] != d1 + d2:
        raise DomainError(
            f"congruence lattice has rank {K.shape[1]}, expected {d1 + d2}"
        )
    basis = _block_basis(h1, h2) @ K.astype(float)
    # the kernel's entries are not bounded by the group: reduced mod
    # lcm(sizes), they keep every residue and the int64 product stays exact
    return LatticeHom(Lattice(basis), G, h1.images @ (K[:d1] % math.lcm(*G.factor_sizes)))


class Closure(NamedTuple):
    """The two closure errors of a pair of homomorphisms, as sup norms, and
    the first one's pushforward."""

    chi1: GroupFunction
    direct_sum_err: float
    fiber_err: float

    @property
    def passed(self) -> bool:
        return self.direct_sum_err < CLOSURE_TOL and self.fiber_err < CLOSURE_TOL


def pushforward_closure(
    h1: LatticeHom, h2: LatticeHom, epsilon: float = DEFAULT_EPSILON
) -> Closure:
    """How far the pushforwards of the direct sum and of the fiber product
    are from the convolution and from the pointwise product of chi1 and chi2."""
    chi1 = pushforward(h1, epsilon).chi
    chi2 = pushforward(h2, epsilon).chi
    chi_ds = pushforward(direct_sum(h1, h2), epsilon).chi
    err_ds = float(np.max(np.abs(convolve(chi1, chi2).values - chi_ds.values)))
    chi_fp = pushforward(fiber_product(h1, h2), epsilon).chi
    err_fp = float(np.max(np.abs(chi1.values * chi2.values - chi_fp.values)))
    return Closure(chi1, err_ds, err_fp)


def random_hom(group: FiniteAbelianGroup, rng: np.random.Generator, max_dim: int) -> LatticeHom:
    """A random homomorphism from a lattice of dimension 1..max_dim into group.

    The basis has entries uniform in [-1.5, 1.5], redrawn until its smallest
    singular value exceeds 0.3; each basis vector maps to a uniform element.
    """
    d = int(rng.integers(1, max_dim + 1))
    while True:
        B = rng.uniform(-1.5, 1.5, size=(d, d))
        if np.linalg.svd(B, compute_uv=False)[-1] > 0.3:
            break
    picks = [int(rng.integers(group.order)) for _ in range(d)]
    return LatticeHom(Lattice(B), group, group.residues[:, picks])
