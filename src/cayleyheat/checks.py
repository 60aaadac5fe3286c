"""Inequality checkers for Gaussian pushforwards and their convolutions.

Each check returns a CheckReport; ``passed`` means the worst margin (RHS
minus LHS under the check's sign convention) stayed above minus the
tolerance.
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


def check_rsd(
    chi: GroupFunction, g1: GroupElement, g2: GroupElement, tol: float
) -> CheckReport:
    """chi(g1)^2 chi(g2)^2 <= chi(g1+g2) chi(g1-g2) chi(0)^2.

    An overflow (a square, or a margin that is not finite) is refused with
    NumericalConsistencyError, as in the sweeps."""
    v0 = _center(chi)
    try:
        lhs = chi(g1) ** 2 * chi(g2) ** 2
        rhs = chi(g1 + g2) * chi(g1 - g2) * v0**2
    except OverflowError:
        raise NumericalConsistencyError("rsd: a square overflows") from None
    margin = rhs - lhs
    if not math.isfinite(margin):
        raise NumericalConsistencyError("rsd: the margin is not finite")
    return CheckReport(
        passed=margin >= -tol,
        worst_margin=margin,
        witness=f"g1={g1}, g2={g2}",
        count=1,
        name="rsd",
    )


def check_mean_ineq(
    chi: GroupFunction, g1: GroupElement, g2: GroupElement, tol: float
) -> CheckReport:
    """chi(g1)chi(g2)/chi(0) <= (chi(g1+g2) + chi(g1-g2))/2.

    A margin that is not finite is refused with NumericalConsistencyError."""
    v0 = _center(chi)
    lhs = chi(g1) * chi(g2) / v0
    rhs = 0.5 * (chi(g1 + g2) + chi(g1 - g2))
    margin = rhs - lhs
    if not math.isfinite(margin):
        raise NumericalConsistencyError("mean_ineq: the margin is not finite")
    return CheckReport(
        passed=margin >= -tol,
        worst_margin=margin,
        witness=f"g1={g1}, g2={g2}",
        count=1,
        name="mean_ineq",
    )


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
    return CheckReport(worst >= -tol, worst, where(*at), count, name)


# pairs per row block: one block, the add table kept on the group, up to
# |G| = 1024; bounded memory at 4096
_BLOCK_PAIRS = PAIR_TABLE_MAX


def _pair_sweep(chi: GroupFunction, tol: float, kind: str) -> CheckReport:
    """check_rsd or check_mean_ineq (kind "rsd" or "mean_ineq") over every
    pair, in row blocks, with the same float operations in the same order,
    reduced by ``worst_report``.  The sub block is the add block's columns
    taken at -g."""
    v0 = _center(chi)
    G, v = chi.group, chi.values
    n = G.order
    if kind == "rsd":
        # squared with Python's float pow, as check_rsd does: it can differ
        # from x*x, and it raises where a square overflows
        try:
            sq = np.array([x**2 for x in v.tolist()])
        except OverflowError:
            raise NumericalConsistencyError("rsd sweep: a square overflows") from None
    rows = max(1, _BLOCK_PAIRS // n)  # read here, so a test can shrink it
    neg = G.neg_index_table()

    def blocks():
        for i0 in range(0, n, rows):
            i1 = min(i0 + rows, n)
            add = G.add_index_table() if rows >= n else G.add_index_rows(i0, i1)
            sub = np.take(add, neg, axis=1)
            with np.errstate(all="ignore"):  # worst_report refuses what overflows
                if kind == "rsd":
                    margins = v[add] * v[sub] * v0**2 - sq[i0:i1, None] * sq
                else:
                    margins = 0.5 * (v[add] + v[sub]) - v[i0:i1, None] * v / v0
            yield i0, margins

    def where(i, j):
        return f"g1={G.name_of(i)}, g2={G.name_of(j)}"

    return worst_report(blocks(), where, tol, n * n, f"{kind}_sweep")


def sweep_rsd(chi: GroupFunction, tol: float) -> CheckReport:
    """check_rsd over every (g1, g2) pair."""
    return _pair_sweep(chi, tol, "rsd")


def sweep_mean_ineq(chi: GroupFunction, tol: float) -> CheckReport:
    """check_mean_ineq over every (g1, g2) pair."""
    return _pair_sweep(chi, tol, "mean_ineq")


def check_convolve_even(
    chi: GroupFunction, upsilon: GroupFunction, tol: float
) -> CheckReport:
    """With omega = chi * upsilon: chi(g)/chi(0) <= omega(g)/omega(0) for all g.

    chi(0) <= 0 is refused (DomainError), as in the sweeps, and so is a
    convolution or a margin that is not finite (NumericalConsistencyError)."""
    v0 = _center(chi)
    if np.any(upsilon.values < 0) or not upsilon.is_even():
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
