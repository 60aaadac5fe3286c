"""Inequality checkers for Gaussian pushforwards and their convolutions.

Each check returns a CheckReport; ``passed`` means the worst margin (RHS
minus LHS under the check's sign convention) stayed above minus the
tolerance.  Each pair inequality is written once, as its two sides, in
x = chi(g1), y = chi(g2), s = chi(g1+g2), d = chi(g1-g2) and c = chi(0), on
Python floats and NumPy arrays alike: the single-pair checks, the sweeps and
the continuum triple checks all call it and take RHS - LHS as the margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalConsistencyError
from .groups import PAIR_TABLE_MAX, GroupElement, GroupFunction, convolve


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    worst_margin: float
    witness: str
    count: int
    name: str = "check"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst_margin": float(self.worst_margin),
            "witness": self.witness,
            "count": self.count,
        }


def _center(chi: GroupFunction) -> float:
    """chi(0), which every check here scales by: refused unless positive."""
    v0 = chi.at_index(0)
    if v0 <= 0:
        raise DomainError("check requires chi(0) > 0")
    return v0


def rsd_sides(x, y, s, d, c):
    """(LHS, RHS) of the product inequality x^2 y^2 <= s d c^2.  Squares are
    products, so the margin is exactly 0 where both sides are one product."""
    return x * x * (y * y), s * d * (c * c)


def rsd_gradient_l1(x, y, s, d, c):
    """The l1 norm of the product margin's gradient in (x, y, s, d, c)."""
    cc = c * c
    return (
        2 * abs(x) * (y * y) + 2 * abs(y) * (x * x) + abs(d * cc) + abs(s * cc) + 2 * abs(s * d * c)
    )


def mean_sides(x, y, s, d, c):
    """(LHS, RHS) of the mean inequality x y / c <= (s + d)/2."""
    return x * y / c, 0.5 * (s + d)


def mean_gradient_l1(x, y, s, d, c):
    """The l1 norm of the mean margin's gradient in (x, y, s, d, c), for c > 0."""
    return abs(x) / c + abs(y) / c + 1.0 + abs(x * y / c) / c


def scalar_report(margin: float, tol: float, witness: str, name: str) -> CheckReport:
    """The report of a check with one margin: refused with
    NumericalConsistencyError unless the margin is finite, passed when it
    is at least -tol."""
    if not math.isfinite(margin):
        raise NumericalConsistencyError(f"{name}: the margin is not finite")
    return CheckReport(bool(margin >= -tol), float(margin), witness, 1, name)


def _pair_check(chi: GroupFunction, g1, g2, tol: float, sides, name: str) -> CheckReport:
    """RHS - LHS of the sides formula (rsd_sides or mean_sides) at one pair."""
    c = _center(chi)
    lhs, rhs = sides(chi(g1), chi(g2), chi(g1 + g2), chi(g1 - g2), c)
    return scalar_report(rhs - lhs, tol, f"g1={g1}, g2={g2}", name)


def check_rsd(chi: GroupFunction, g1: GroupElement, g2: GroupElement, tol: float) -> CheckReport:
    """chi(g1)^2 chi(g2)^2 <= chi(g1+g2) chi(g1-g2) chi(0)^2."""
    return _pair_check(chi, g1, g2, tol, rsd_sides, "rsd")


def check_mean_ineq(
    chi: GroupFunction, g1: GroupElement, g2: GroupElement, tol: float
) -> CheckReport:
    """chi(g1)chi(g2)/chi(0) <= (chi(g1+g2) + chi(g1-g2))/2."""
    return _pair_check(chi, g1, g2, tol, mean_sides, "mean_ineq")


def worst_report(blocks, where, tol: float, count: int, name: str) -> CheckReport:
    """The report of a check whose margins come in ``blocks``: pairs
    (offset, margins), each margins array holding the rows from ``offset``
    on of one margin array that the blocks cover in order.  A margin that is
    not finite (overflow, or inf - inf) is refused with
    NumericalConsistencyError.  The worst margin is the first minimum in
    row-major order, as a loop keeping each strictly smaller margin finds
    it, and the witness is ``where(row, j)``: its row in the whole array and
    its flat index within the row (0 for a 1-d array).
    """
    worst, at = np.inf, (0, 0)
    for offset, margins in blocks:
        if not np.isfinite(margins).all():
            raise NumericalConsistencyError(f"{name}: a margin is not finite")
        k = int(margins.argmin())
        if margins.flat[k] < worst:
            worst = float(margins.flat[k])
            i, j = divmod(k, margins.size // len(margins))
            at = (offset + i, j)
        del margins  # the next block is made without this one
    return CheckReport(worst >= -tol, worst, where(*at), count, name)


# pairs per row block: one block, the add table kept on the group, up to
# |G| = 1024; bounded memory at 4096
_BLOCK_PAIRS = PAIR_TABLE_MAX


def _pair_sweep(chi: GroupFunction, tol: float, sides, name: str) -> CheckReport:
    """RHS - LHS of the sides formula (rsd_sides or mean_sides) over every
    pair, in row blocks, so each margin is bitwise the single-pair check's,
    reduced by ``worst_report``.  chi(g1 - g2) is the gathered chi(g1 + g2)
    block's columns taken at -g2, so no index block is built for it."""
    c = _center(chi)
    G, v = chi.group, chi.values
    n = G.order
    rows = max(1, _BLOCK_PAIRS // n)  # read here, so a test can shrink it
    neg = G.neg_index_table()

    def blocks():
        for i0 in range(0, n, rows):
            i1 = min(i0 + rows, n)
            add = G.add_index_table() if rows >= n else G.add_index_rows(i0, i1)
            s = v[add]
            with np.errstate(all="ignore"):  # worst_report refuses what overflows
                lhs, rhs = sides(v[i0:i1, None], v, s, s.take(neg, axis=1), c)
                margins = rhs - lhs
            yield i0, margins

    def where(i, j):
        return f"g1={G.name_of(i)}, g2={G.name_of(j)}"

    return worst_report(blocks(), where, tol, n * n, name)


def sweep_rsd(chi: GroupFunction, tol: float) -> CheckReport:
    """check_rsd over every (g1, g2) pair."""
    return _pair_sweep(chi, tol, rsd_sides, "rsd_sweep")


def sweep_mean_ineq(chi: GroupFunction, tol: float) -> CheckReport:
    """check_mean_ineq over every (g1, g2) pair."""
    return _pair_sweep(chi, tol, mean_sides, "mean_ineq_sweep")


def check_convolve_even(
    chi: GroupFunction, upsilon: GroupFunction, tol: float
) -> CheckReport:
    """With omega = chi * upsilon: chi(g)/chi(0) <= omega(g)/omega(0) for all g.

    chi(0) <= 0 is refused (DomainError), as in the sweeps, and so is a
    convolution or a margin that is not finite (NumericalConsistencyError)."""
    v0 = _center(chi)
    if (upsilon.values < 0).any() or not upsilon.is_even():
        raise DomainError("upsilon must be even and nonnegative")
    G = chi.group
    # idft_stack's norm guard refuses a transform that overflows, and
    # worst_report a margin that does
    with np.errstate(all="ignore"):
        omega = convolve(chi, upsilon)
        if omega.at_index(0) == 0:
            raise DomainError("omega(0) = 0; ratio undefined")
        margins = omega.values / omega.at_index(0) - chi.values / v0
    return worst_report(
        [(0, margins)], lambda g, _: f"g={G.name_of(g)}", tol, G.order, "convolve_even"
    )
