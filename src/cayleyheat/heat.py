"""Heat kernels on weighted Abelian Cayley graphs and on arbitrary weighted
graphs, monotonicity checks and violation search.

On a Cayley graph the kernel is translation-invariant, so a single row
(based at the identity) determines the whole matrix; it is computed as
exp(-t*deg) times the convolutional exponential of the t-scaled weights.
Arbitrary graphs go through a dense symmetric eigendecomposition.  A
t-grid is computed in one batch: one DFT and one stacked inverse FFT per
Cayley graph, one eigendecomposition per general graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import CheckReport
from .errors import DomainError, NumericalConsistencyError
from .groups import FiniteAbelianGroup, GroupFunction, dft, idft_stack, parse_group


def default_t_grid(t_min: float = 0.05, t_max: float = 50.0, count: int = 20) -> np.ndarray:
    if not (t_min > 0 and t_max > t_min and count >= 2):
        raise DomainError("need 0 < t_min < t_max and count >= 2")
    return np.geomspace(t_min, t_max, count)


@dataclass(frozen=True)
class CayleyWeights:
    """Even nonnegative weight function on G \\ {0}."""

    group: FiniteAbelianGroup
    w: GroupFunction

    def __post_init__(self):
        if self.w.group != self.group:
            raise DomainError("weight function lives on the wrong group")
        v = self.w.values
        if v[0] != 0:
            raise DomainError("weight at the identity must be 0")
        if np.any(v < 0):
            raise DomainError("weights must be nonnegative")
        if not self.w.is_even():
            raise DomainError("weights must be even: w(g) = w(-g)")

    @property
    def degree(self) -> float:
        return float(np.sum(self.w.values))

    @staticmethod
    def from_dict(spec: dict) -> "CayleyWeights":
        """Parse {"group": "Z12", "weights": {"1": 2.5, ...}}.

        Keys are element indices of one representative per orbit; evenness
        is enforced by mirroring onto the negation.
        """
        group = parse_group(str(spec["group"]))
        vals = np.zeros(group.order)
        neg = group.neg_index_table()
        for key, weight in dict(spec["weights"]).items():
            idx = int(key)
            if idx == 0:
                raise DomainError("weight at index 0 (the identity) is not allowed")
            if not 0 < idx < group.order:
                raise DomainError(f"element index {idx} out of range")
            weight = float(weight)
            if weight < 0:
                raise DomainError("weights must be nonnegative")
            vals[idx] = weight
            vals[neg[idx]] = weight
        return CayleyWeights(group, GroupFunction(group, vals))


@dataclass(frozen=True)
class GeneralGraph:
    """Arbitrary finite weighted undirected graph as a symmetric matrix."""

    W: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise DomainError("weight matrix must be square")
        if not np.allclose(W, W.T, rtol=0, atol=1e-12):
            raise DomainError("weight matrix must be symmetric")
        if np.any(W < 0):
            raise DomainError("weights must be nonnegative")
        if np.any(np.abs(np.diag(W)) > 0):
            raise DomainError("diagonal must be zero")
        W.setflags(write=False)
        object.__setattr__(self, "W", W)

    @property
    def n(self) -> int:
        return self.W.shape[0]

    def laplacian(self) -> np.ndarray:
        return np.diag(self.W.sum(axis=1)) - self.W


def _times(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if not np.all((t > 0) & (t < np.inf)):
        raise DomainError("t must be positive and finite")
    return t


def _heat_rows(cw: CayleyWeights, t) -> np.ndarray:
    """(T, |G|) rows of exp(-tL) based at the identity, one per t > 0:
    exp(-t*deg) * cexp(t*w), through one DFT and one stacked inverse FFT.

    The spectrum exponentiated is Re dft(w), the transform of w's even part
    (w(g) + w(-g))/2.  CayleyWeights holds w even to REL_TOL, so that is w
    itself to that tolerance, and the exponential is a real one.  The
    degree shift is applied inside it; the exponents t*(Re w_hat(k) - deg)
    are never positive, so no overflow at large t.
    """
    t = t[:, None]
    return idft_stack(cw.group, np.exp(t * dft(cw.w).real - t * cw.degree))


def _heat_matrices(evals: np.ndarray, Q: np.ndarray, t) -> np.ndarray:
    """(T, n, n) stack of exp(-tL), one per t > 0, from L = Q diag(evals) Q^T."""
    return (Q * np.exp(-t[:, None] * evals)[:, None, :]) @ Q.T


def heat_row_cayley(cw: CayleyWeights, t: float) -> GroupFunction:
    """Row of exp(-tL) based at the identity: exp(-t*deg) * cexp(t*w)."""
    return GroupFunction(cw.group, _heat_rows(cw, _times([t]))[0])


def heat_matrix_general(g: GeneralGraph, t: float) -> np.ndarray:
    """exp(-tL) via symmetric eigendecomposition."""
    return _heat_matrices(*np.linalg.eigh(g.laplacian()), _times([t]))[0]


def _t_grid(t_grid) -> np.ndarray:
    t = _times(t_grid)
    if len(t) < 2 or np.any(np.diff(t) <= 0):
        raise DomainError("t_grid must be strictly increasing with length >= 2")
    return t


# heat values per block of the t-grid: a 20-point grid is one block up to the
# order cap, and a long grid runs in bounded memory
_BLOCK_VALUES = 1 << 20


def _monotone_report(ratios, t: np.ndarray, size: int, tol: float, name: str, where):
    """Ratio steps ratio(t[i+1]) - ratio(t[i]), where ``ratios(t_block)``
    returns the (len(t_block), ...) stack of ratios of ``size`` values each.

    The grid goes in blocks of t overlapping by one.  The witness is the first
    worst entry in row-major order, named by ``where(*index)``, as a loop over
    the t-pairs would report it.
    """
    per = max(2, _BLOCK_VALUES // size)
    worst = np.inf
    for i0 in range(0, len(t) - 1, per - 1):
        ratio = ratios(t[i0 : i0 + per])
        margins = ratio[1:] - ratio[:-1]
        if not np.isfinite(margins).all():
            raise NumericalConsistencyError(f"{name}: a ratio step is not finite")
        k = int(np.argmin(margins))
        if margins.flat[k] < worst:
            worst = float(margins.flat[k])
            i, *entry = np.unravel_index(k, margins.shape)
            i += i0
    return CheckReport(
        passed=worst >= -tol,
        worst_margin=worst,
        witness=f"{where(*entry)}, t={t[i]:.6g}, t'={t[i + 1]:.6g}",
        count=(len(t) - 1) * size,
        name=name,
    )


def monotone_check_cayley(
    cw: CayleyWeights, t_grid, tol: float = 1e-10
) -> CheckReport:
    """Ratio H_t(0,v)/H_t(0,0) must be nondecreasing in t for every v."""

    def ratios(t):
        rows = _heat_rows(cw, t)
        return rows / rows[:, :1]

    G = cw.group
    return _monotone_report(
        ratios, _t_grid(t_grid), G.order, tol, "monotone_cayley",
        lambda v: f"v={G.from_index(v)}",
    )


def monotone_violation_search(
    g: GeneralGraph, t_grid, tol: float = 1e-10
) -> CheckReport:
    """Same monotonicity check on an arbitrary graph, for all basepoints.

    A failed report here is a successful reproduction of the known
    non-Cayley violation phenomenon, so callers treat passed=False as a
    find, not an error.
    """
    t = _t_grid(t_grid)
    evals, Q = np.linalg.eigh(g.laplacian())

    def ratios(t):
        H = _heat_matrices(evals, Q, t)
        return H / np.diagonal(H, axis1=1, axis2=2)[:, :, None]

    return _monotone_report(
        ratios, t, g.n * g.n, tol, "monotone_general", lambda u, v: f"u={u}, v={v}"
    )


def random_heavy_tailed_graph(n: int, rng: np.random.Generator) -> GeneralGraph:
    """Random symmetric weight matrix: each edge present with probability
    0.6, with a Pareto-distributed weight."""
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                W[i, j] = W[j, i] = rng.pareto(0.8) + 0.01
    return GeneralGraph(W)


def search_monotonicity_violations(
    n_max: int,
    trials: int,
    seed: int,
    tol: float = 1e-10,
):
    """Random search for a graph violating ratio monotonicity.

    Returns [(graph, report)] for the first violating instance found, or []
    when the trials find none.
    """
    t_grid = default_t_grid()
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(3, n_max + 1))
        g = random_heavy_tailed_graph(n, rng)
        report = monotone_violation_search(g, t_grid, tol)
        if not report.passed:
            return [(g, report)]
    return []
