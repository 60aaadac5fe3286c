"""Heat kernels on weighted Abelian Cayley graphs and on arbitrary weighted
graphs, monotonicity checks and violation search.

On a Cayley graph the kernel is translation-invariant, so a single row
(based at the identity) determines the whole matrix; it is computed as
exp(-t*deg) times the convolutional exponential of the t-scaled weights.
Arbitrary graphs go through a dense symmetric eigendecomposition.  A
t-grid is computed in blocks of t of at most _BLOCK_VALUES heat values (one
block for a 20-point grid below |G| = 2048): one DFT per Cayley graph and one
stacked inverse transform per block, one eigendecomposition per general graph
and one stacked product per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .checks import CheckReport, worst_report
from .errors import DomainError
from .groups import FiniteAbelianGroup, GroupFunction, dft, idft_stack, parse_group


def default_t_grid(t_min: float = 0.05, t_max: float = 50.0, count: int = 20) -> np.ndarray:
    if not (t_min > 0 and t_max > t_min and count >= 2):
        raise DomainError("need 0 < t_min < t_max and count >= 2")
    return np.geomspace(t_min, t_max, count)


@dataclass(frozen=True, eq=False)
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

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Re dft(w), read-only: computed once however many t-blocks use it.
        Weights whose transform overflows give a spectrum that is not finite,
        which idft_stack refuses in the heat rows."""
        with np.errstate(over="ignore", invalid="ignore"):
            s = dft(self.w).real
        s.setflags(write=False)
        return s

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


@dataclass(frozen=True, eq=False)
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
    if not ((t > 0) & (t < np.inf)).all():
        raise DomainError("t must be positive and finite")
    return t


def _heat_rows(cw: CayleyWeights, t) -> np.ndarray:
    """(T, |G|) rows of exp(-tL) based at the identity, one per t > 0:
    exp(-t*deg) * cexp(t*w), through one stacked inverse transform of
    ``cw.spectrum``.  The array returned is the caller's to overwrite.

    The spectrum exponentiated is Re dft(w), the transform of w's even part
    (w(g) + w(-g))/2.  CayleyWeights holds w even to REL_TOL, so that is w
    itself to that tolerance, and the exponential is a real one.  The
    degree shift is applied inside it, as the transform's own Re w_hat(0):
    np.sum(w) can differ from that by an ulp, which would make the k = 0
    exponent, exactly 0, come out positive and grow with t.  The exponents
    t*(Re w_hat(k) - Re w_hat(0)) are at most 0, since |w_hat(k)| <= w_hat(0)
    for w >= 0, and are clamped there, so no overflow at large t;
    np.minimum keeps a NaN.  They are formed and exponentiated in one
    (T, |G|) array.  The stack is real, so idft_stack inverts it at half
    width, and the rows come out exactly even.  Where the weights or the
    t-scaled spectrum overflow, a spectrum is not finite, and idft_stack
    refuses it with NumericalConsistencyError.
    """
    t = t[:, None]
    spectrum = cw.spectrum
    with np.errstate(over="ignore", invalid="ignore"):  # refused by idft_stack
        spectra = np.multiply(t, spectrum)
        spectra -= t * spectrum[0]
        np.minimum(spectra, 0.0, out=spectra)
        np.exp(spectra, out=spectra)
    return idft_stack(cw.group, spectra)


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
    if len(t) < 2 or not (t[1:] > t[:-1]).all():
        raise DomainError("t_grid must be strictly increasing with length >= 2")
    return t


# heat values per block of the t-grid, 256 KB of float64; a 20-point grid
# splits from |G| = 2048 on.  Measured on perfbench's heat_tgrid rounds: the
# whole grid in one block made 2.3 MB of temporaries per Z4096 check, which
# malloc handed back to the kernel once freed, so every check faulted them in
# again (about 7 600 minor faults a round); in blocks they stay in malloc's
# heap (under 30 a round).  Blocks of 2^14 and 2^16 ran as fast; at 2^13 the
# cost per block shows.
_BLOCK_VALUES = 1 << 15


def _monotone_report(ratios, t: np.ndarray, size: int, tol: float, name: str, where):
    """Ratio steps ratio(t[i+1]) - ratio(t[i]), where ``ratios(t_block)``
    returns the (len(t_block), ...) stack of ratios of ``size`` values each,
    reduced by ``worst_report``; ``where(j)`` names a t's ratio j, in flat
    order.

    The grid goes in blocks of t that do not overlap, so each t's ratios
    are formed once: a block's first step is taken from the last ratio row
    of the block before it.
    """
    per = max(1, _BLOCK_VALUES // size)

    def blocks():
        last = None
        for i0 in range(0, len(t), per):
            ratio = ratios(t[i0 : i0 + per])
            if last is not None:
                yield i0 - 1, ratio[:1] - last
            last = ratio[-1:].copy()
            if len(ratio) > 1:
                yield i0, ratio[1:] - ratio[:-1]
            del ratio  # the next block is made without this one

    def at(i, j):
        return f"{where(j)}, t={t[i]:.6g}, t'={t[i + 1]:.6g}"

    return worst_report(blocks(), at, tol, (len(t) - 1) * size, name)


def monotone_check_cayley(
    cw: CayleyWeights, t_grid, tol: float = 1e-10
) -> CheckReport:
    """Ratio H_t(0,v)/H_t(0,0) must be nondecreasing in t for every v."""

    def ratios(t):
        rows = _heat_rows(cw, t)
        rows /= rows[:, :1].copy()
        return rows

    G = cw.group
    return _monotone_report(
        ratios, _t_grid(t_grid), G.order, tol, "monotone_cayley",
        lambda v: f"v={G.name_of(v)}",
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
        # weights that overflow give steps that are not finite, which
        # worst_report refuses
        with np.errstate(over="ignore", invalid="ignore"):
            H = _heat_matrices(evals, Q, t)
            H /= np.diagonal(H, axis1=1, axis2=2)[:, :, None].copy()
            return H

    return _monotone_report(
        ratios, t, g.n * g.n, tol, "monotone_general", lambda j: f"u={j // g.n}, v={j % g.n}"
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
