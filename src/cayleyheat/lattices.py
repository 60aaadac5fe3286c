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
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    EnumerationBudgetError,
    GroupMismatchError,
    NumericalConsistencyError,
)
from .groups import FiniteAbelianGroup, GroupElement, GroupFunction

MIN_SINGULAR_VALUE = 1e-9
DEFAULT_EPSILON = 1e-12
DEFAULT_POINT_CAP = 10_000_000


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice in R^d given by basis columns."""

    basis: np.ndarray  # (d, d), columns are basis vectors
    # smallest singular value of the basis, from the rank check's SVD
    min_singular_value: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise DomainError(f"basis must be square, got shape {b.shape}")
        smin = math.inf
        if b.shape[0] > 0:
            smin = float(np.linalg.svd(b, compute_uv=False)[-1])
            if smin <= MIN_SINGULAR_VALUE:
                raise DomainError(
                    f"basis is rank-deficient (smallest singular value {smin:.2e})"
                )
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
        if self.dim == 0:
            return 0.0
        # the column norms as np.linalg.norm(basis, axis=0) takes them
        return math.sqrt(min(np.add.reduce(self.basis * self.basis, axis=0).tolist()))

    @staticmethod
    def integers(scale: float = 1.0) -> "Lattice":
        return Lattice(np.array([[scale]]))


@dataclass(frozen=True)
class LatticeHom:
    """Homomorphism L -> G determined by the images of the basis vectors."""

    lattice: Lattice
    target: FiniteAbelianGroup
    images: tuple[GroupElement, ...]

    def __post_init__(self):
        if len(self.images) != self.lattice.dim:
            raise DomainError("one image per basis vector required")
        for g in self.images:
            if g.group != self.target:
                raise GroupMismatchError("image outside the target group")

    def image_matrix(self) -> np.ndarray:
        """(k, d) residue matrix; column i is the residue vector of images[i]."""
        k = self.target.rank
        if self.lattice.dim == 0:
            return np.zeros((k, 0), dtype=np.int64)
        return np.array(
            [list(g.residues) for g in self.images], dtype=np.int64
        ).T

    def apply_coeffs(self, coeffs: Sequence[int]) -> GroupElement:
        """Image of the lattice point with integer coordinates ``coeffs``."""
        k = self.target.rank
        acc = [0] * k
        for c, g in zip(coeffs, self.images):
            for j in range(k):
                acc[j] += int(c) * g.residues[j]
        return self.target.element(acc)


@dataclass(frozen=True)
class PushforwardResult:
    chi: GroupFunction
    tail_bound: float
    epsilon: float


def _enumeration_box(lattice: Lattice, epsilon: float, point_cap: int | None = None):
    """Radius R, per-coordinate bound m = ceil(R/smin), and certified tail
    bound.

    R solves R = sqrt(ln(Nb/eps)/pi) with Nb = (2R/smin + 1)^d a crude count
    bound; every skipped point has rho < exp(-pi R^2) and Nb absorbs the
    multiplicity.  R is clamped below by the shortest basis vector so the
    region never silently excludes every nonzero point.  Every point of the
    ball has |c_i| <= ||c|| <= R/smin <= m.  ``point_cap`` is not read: the
    cap counts candidates (``_ball_candidates``); perfbench's box-rule test
    still passes it.
    """
    d = lattice.dim
    smin = lattice.min_singular_value
    # solve against epsilon/2 so fixed-point rounding cannot push the
    # reported tail above the requested epsilon
    target = epsilon / 2.0
    R = math.sqrt(math.log(1.0 / target) / math.pi)
    for _ in range(64):
        nb = (2.0 * R / smin + 1.0) ** d
        new_r = math.sqrt(math.log(nb / target) / math.pi)
        if abs(new_r - R) < 1e-12:
            R = new_r
            break
        R = new_r
    R = max(R, lattice.shortest_basis_norm)
    m = math.ceil(R / smin) if d > 0 else 0
    nb = (2.0 * R / smin + 1.0) ** d if d > 0 else 1.0
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
    hold exactly the box points that the test accepts.

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
    cols = [x]
    pending = [x * M[k][0] for k in range(1, d)]  # a_k for the levels below
    rest = T * T - np.square(x * M[0][0])  # T^2 - s_k
    for k in range(1, d):
        a = pending.pop(0)
        inv = 1.0 / M[k][k]
        centre = a * -inv
        half = np.sqrt(np.maximum(rest, 0.0)) * inv
        lo = np.maximum(np.ceil(centre - half), -m)
        counts = np.minimum(np.floor(centre + half), m) - lo + 1.0
        np.maximum(counts, 0.0, out=counts)
        total = counts.sum()
        _check_budget(total, point_cap)
        counts = counts.astype(np.int64)
        start = np.cumsum(counts) - counts
        x = np.arange(int(total)) - np.repeat(start - lo.astype(np.int64), counts)
        cols = [np.repeat(c, counts) for c in cols] + [x]
        if k + 1 < d:
            pending = [np.repeat(p, counts) + M[j][k] * x for j, p in enumerate(pending, k + 1)]
            y = np.repeat(a, counts) + M[k][k] * x
            rest = np.repeat(rest, counts) - y * y
    return np.stack(cols, axis=1)


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
    d = hom.lattice.dim
    if d == 0:
        vals = np.zeros(G.order)
        vals[0] = 1.0
        return PushforwardResult(GroupFunction(G, vals), 0.0, epsilon)
    R, m, tail = _enumeration_box(hom.lattice, epsilon)
    coeffs = _ball_candidates(hom.lattice, R, m, point_cap)
    pts = coeffs.astype(float) @ hom.lattice.basis.T
    sq = np.einsum("ij,ij->i", pts, pts)
    mask = sq <= R * R
    coeffs = coeffs[mask]
    weights = np.exp(-np.pi * sq[mask])

    A = hom.image_matrix()  # (k, d)
    sizes = np.array(G.factor_sizes, dtype=np.int64)
    residues = (coeffs @ A.T) % sizes  # (N, k)
    flat = np.ravel_multi_index(tuple(residues.T), G.factor_sizes)
    vals = np.bincount(flat, weights=weights, minlength=G.order)
    return PushforwardResult(GroupFunction(G, vals), tail, epsilon)


def direct_sum(h1: LatticeHom, h2: LatticeHom) -> LatticeHom:
    """Orthogonal direct sum; its pushforward is the convolution of the two."""
    if h1.target != h2.target:
        raise GroupMismatchError("direct sum requires a common target group")
    d1, d2 = h1.lattice.dim, h2.lattice.dim
    basis = np.zeros((d1 + d2, d1 + d2))
    basis[:d1, :d1] = h1.lattice.basis
    basis[d1:, d1:] = h2.lattice.basis
    return LatticeHom(Lattice(basis), h1.target, h1.images + h2.images)


def _integer_kernel(mat: list[list[int]]) -> list[list[int]]:
    """Basis of the integer kernel {z : M z = 0}, as a list of columns.

    Column-echelon reduction with exact integer arithmetic; unimodular
    column operations are mirrored on an identity matrix whose columns
    matching zeroed-out columns of M form the kernel basis.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [row[:] for row in mat]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_axpy(dst: int, src: int, q: int):
        for r in range(m):
            A[r][dst] += q * A[r][src]
        for r in range(n):
            V[r][dst] += q * V[r][src]

    def col_swap(a: int, b: int):
        for r in range(m):
            A[r][a], A[r][b] = A[r][b], A[r][a]
        for r in range(n):
            V[r][a], V[r][b] = V[r][b], V[r][a]

    col = 0
    for row in range(m):
        while True:
            nz = [c for c in range(col, n) if A[row][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(A[row][c]))
            p = nz[0]
            for c in nz[1:]:
                q = A[row][c] // A[row][p]
                col_axpy(c, p, -q)
        nz = [c for c in range(col, n) if A[row][c] != 0]
        if nz:
            if nz[0] != col:
                col_swap(nz[0], col)
            col += 1
    kernel_cols = [c for c in range(n) if all(A[r][c] == 0 for r in range(m))]
    return [[V[r][c] for r in range(n)] for c in kernel_cols]


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
    k = G.rank
    A1 = h1.image_matrix()
    A2 = h2.image_matrix()
    # rows: one congruence per cyclic factor; cols: c1, c2, auxiliary multiples
    M = [
        [int(A1[j, i]) for i in range(d1)]
        + [-int(A2[j, i]) for i in range(d2)]
        + [G.factor_sizes[j] if jj == j else 0 for jj in range(k)]
        for j in range(k)
    ]
    kernel = _integer_kernel(M)
    # drop the auxiliary coordinates; the projection is injective on solutions
    proj = [col[: d1 + d2] for col in kernel]
    K = np.array([c for c in proj if any(c)], dtype=np.int64).T
    if K.size == 0:
        K = np.zeros((d1 + d2, 0), dtype=np.int64)
    if K.shape[1] != d1 + d2:
        raise DomainError(
            f"congruence lattice has rank {K.shape[1]}, expected {d1 + d2}"
        )
    big = np.zeros((d1 + d2, d1 + d2))
    big[:d1, :d1] = h1.lattice.basis
    big[d1:, d1:] = h2.lattice.basis
    basis = big @ K.astype(float)
    images = tuple(
        h1.apply_coeffs([int(K[i, j]) for i in range(d1)])
        for j in range(K.shape[1])
    )
    return LatticeHom(Lattice(basis), G, images)


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
    images = tuple(group.from_index(int(rng.integers(group.order))) for _ in range(d))
    return LatticeHom(Lattice(B), group, images)
