"""Closed-form continuum heat kernel checks.

Hyperbolic 3-space in the hyperboloid model, where every value of the
closed-form kernel comes from one log ratio, h3_log_ratio; the 2-sphere
and real projective plane via truncated Legendre series.  The
geodesic-reflection inequality and its averaged consequence are evaluated
numerically, including the explicit hyperbolic configuration where the
reflection inequality fails.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .checks import CheckReport, mean_gradient_l1, mean_sides, rsd_gradient_l1, rsd_sides
from .checks import scalar_report
from .errors import DomainError, NumericalConsistencyError
from .heat import _monotone_report, _t_grid

DEFAULT_L_MAX = 200
# Triples whose five kernel values are kept.  Callers run the two checks on
# a triple back to back, so one entry would do; a few more serve a caller
# that interleaves a handful of triples.
KERNEL_MEMO_SIZE = 16


# --- hyperbolic 3-space, hyperboloid model ---


@dataclass(frozen=True, eq=False)
class HyperboloidPoint:
    x: np.ndarray  # (x0, x1, x2, x3)

    def __post_init__(self):
        x = np.array(self.x, dtype=float)  # owned, so no caller can change it
        if x.shape != (4,):
            raise DomainError("hyperboloid points are 4-vectors")
        x0, x1, x2, x3 = x.tolist()
        # not finite when a coordinate is not, or when a square overflows
        q = x0 * x0 - x1 * x1 - x2 * x2 - x3 * x3
        if not math.isfinite(q) or abs(q - 1.0) > 1e-8 * max(1.0, x0 * x0) or x0 < 1.0 - 1e-10:
            raise DomainError(f"point not on the hyperboloid (form value {q})")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)


def minkowski(x: HyperboloidPoint, y: HyperboloidPoint) -> float:
    a, b = x.x, y.x
    return float(a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3])


def h3_distance(x: HyperboloidPoint, y: HyperboloidPoint) -> float:
    """arccosh of the Minkowski pairing."""
    p = minkowski(x, y)
    if p < 1.0 - 1e-9:
        raise DomainError(f"Minkowski pairing {p} below 1; invalid points")
    return math.acosh(max(p, 1.0))


def h3_log_ratio(d: float, t):
    """log H_t(d)/H_t(0) = log(d/sinh d) - d^2/(4t), the one evaluation of
    the closed-form kernel H_t(d) = (4 pi t)^{-3/2} (d/sinh d) e^{-t-d^2/4t}.

    t may be an array.  Below d = 0.1, log(d/sinh d) is five terms of its
    Taylor series, -d^2/6 + d^4/180 - d^6/2835 + d^8/37800 - d^10/467775,
    whose first dropped term is below 2e-19 there; above, log sinh d is
    d + log1p(-e^{-2d}) - log 2, which never overflows.
    """
    if d < 0:
        raise DomainError("distance must be nonnegative")
    if d < 0.1:
        s = d * d
        log_d_over_sinh = s * (
            -1 / 6 + s * (1 / 180 + s * (-1 / 2835 + s * (1 / 37800 - s / 467775)))
        )
    else:
        log_d_over_sinh = math.log(d) - (d + math.log1p(-math.exp(-2.0 * d)) - math.log(2.0))
    return log_d_over_sinh - d * d / (4.0 * t)


def _cosh_squared(d1: float) -> float:
    """cosh(d1)^2, refused where it or cosh(d1) overflows (d1 above ~355.4)."""
    try:
        return math.cosh(d1) ** 2
    except OverflowError:
        raise NumericalConsistencyError(
            f"cosh(d1)^2 overflows at d1={d1}; the isosceles triple needs d1 <= 355"
        ) from None


def h3_abc(d1: float) -> tuple[HyperboloidPoint, HyperboloidPoint, HyperboloidPoint]:
    """The explicit isoceles configuration with leg length d1."""
    if not 0 < d1 < math.inf:
        raise DomainError("d1 must be positive and finite")
    _cosh_squared(d1)  # the hyperboloid form of a and c is cosh^2 d1 - sinh^2 d1
    c, s = math.cosh(d1), math.sinh(d1)
    return (
        HyperboloidPoint(np.array([c, s, 0.0, 0.0])),
        HyperboloidPoint(np.array([1.0, 0.0, 0.0, 0.0])),
        HyperboloidPoint(np.array([c, 0.0, s, 0.0])),
    )


def h3_point_symmetry(b: HyperboloidPoint, c: HyperboloidPoint) -> HyperboloidPoint:
    """Geodesic reflection through b: 2<b,c>_M b - c."""
    p = minkowski(b, c)
    return HyperboloidPoint(2.0 * p * b.x - c.x)


def h3_reduced_log(d1: float, t: float) -> tuple[float, float]:
    """(log LS, log RS) of the reduced reflection inequality.

    The base length d2 is 2 asinh(sinh(d1)/sqrt 2), which is exactly
    cosh d2 = cosh^2 d1 and keeps its digits at small d1, where
    acosh(cosh^2 d1) cancels.  A side that is not finite (d^2/4t overflows
    at a subnormal t) is refused with NumericalConsistencyError.
    """
    if not 0 < d1 < math.inf:
        raise DomainError("d1 must be positive and finite")
    if not 0 < t < math.inf:
        raise DomainError("t must be positive and finite")
    _cosh_squared(d1)  # refuses where h3_abc cannot build the triple
    d2 = 2.0 * math.asinh(math.sinh(d1) / math.sqrt(2.0))
    log_ls, log_rs = 2.0 * h3_log_ratio(d1, t), h3_log_ratio(d2, t)
    if not (math.isfinite(log_ls) and math.isfinite(log_rs)):
        raise NumericalConsistencyError(f"the log sides are not finite at d1={d1}, t={t}")
    return log_ls, log_rs


def h3_reduced_check(d1: float, t: float) -> tuple[float, float, bool]:
    """Both sides of the reduced reflection inequality for the isoceles triple.

    LS = (d1^2/sinh^2 d1) exp(-d1^2/2t), RS = (d2/sinh d2) exp(-d2^2/4t)
    with d2 the base length; returns (LS, RS, violated), all read from
    h3_reduced_log, so violated is log LS > log RS and holds where both
    sides underflow.  On the points of h3_abc the reduced gap
    log LS - log RS is the unreduced one in the log ratios r of
    h3_log_ratio, (2 r(a,b) + 2 r(b,c) - r(a,c) - r(a,s_b(c)))/2 with the
    factors H_t(0) cancelled; the tests check that, and selftest that both
    triple checks fail where this check reports the violation.
    """
    log_ls, log_rs = h3_reduced_log(d1, t)
    return math.exp(log_ls), math.exp(log_rs), log_ls > log_rs


def h3_monotone_check(d: float, t_grid, tol: float = 1e-12) -> CheckReport:
    """log H_t(d)/H_t(0) = h3_log_ratio(d, t) nondecreasing in t.

    The steps, and so the margins and tol, are in log units: a ratio that
    underflows to 0 still has a finite log step.  A log ratio that is not
    finite, where d^2/4t overflows, is refused with
    NumericalConsistencyError.
    """

    def ratios(t):
        r = h3_log_ratio(d, t)
        if not np.isfinite(r).all():  # else two -inf would step by NaN, with a warning
            raise NumericalConsistencyError(f"h3_monotone: the log ratio is not finite at d={d}")
        return r[:, None]

    return _monotone_report(ratios, _t_grid(t_grid), 1, tol, "h3_monotone", lambda _: f"d={d}")


# --- sphere and projective plane via Legendre series ---


@dataclass(frozen=True, eq=False)
class SpherePoint:
    u: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=float)  # owned, so no caller can change it
        if u.shape != (3,):
            raise DomainError("sphere points are unit 3-vectors")
        # written so that a NaN or infinite coordinate fails too
        if not abs(np.linalg.norm(u) - 1.0) <= 1e-12:
            raise DomainError("sphere point must have finite unit norm")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)


def _legendre_series(cos_theta, t: float, l_max: int, even_only: bool):
    """sum over l of (2l+1)/(4 pi) exp(-l(l+1)t) P_l(cos theta).

    Three-term recurrence, one loop per cosine on Python floats, which are
    IEEE doubles like NumPy's float64, with the coefficients computed once
    and shared.  Each cosine's loop ends at l_max, or earlier at the first l
    from which no term can change a bit of its sum, so each value is
    bitwise the full loop's and does not depend on the other cosines.
    Returns (value, truncation bound per evaluation); the value has the
    input's shape, a 0-d array for a scalar.
    """
    if l_max < 1:
        raise DomainError("l_max must be >= 1")
    if not 0 < t < math.inf:
        raise DomainError("t must be positive and finite")
    x = np.asarray(cos_theta, dtype=float)
    # written so that NaN fails too: a NaN cosine would never stop
    if not np.all((x >= -1 - 1e-12) & (x <= 1 + 1e-12)):
        raise DomainError("cos_theta must lie in [-1, 1]")
    x = np.clip(x, -1.0, 1.0)
    # Each cosine stops once no term from l on can change a bit of its total.
    # (a) c_{l+1}/c_l = (2l+3)/(2l+1) exp(-2(l+1)t) falls with l, since
    #     (2l+1)(2l+5) < (2l+3)^2; once it is below 1 (`decreasing`), c_l
    #     bounds every later coefficient.
    # (b) |P_l| <= 1; the factor 2 covers a computed |P_l| slightly above 1
    #     and the roundoff in c.  Under round-to-nearest an addend below a
    #     quarter of ulp(|total|) leaves total as it is, even where total is
    #     a power of two and the gap below it is half the gap above.
    # Then total never changes again, so the value, the tail and every
    # report built on them are bitwise the full loop's; even_only adds a
    # subset of the terms, so the stop holds for it too.
    # coef[l] is (c_l, 2 c_l once `decreasing` holds and inf before), made
    # when the first cosine reaches l and shared by the others.
    coef = []
    decreasing = False
    ulp = math.ulp
    values = []
    for xi in x.ravel().tolist():
        p_prev, p_l = 0.0, 1.0  # P_{-1}, P_0
        total = 0.0
        for l in range(0, l_max + 1):
            if l == len(coef):
                c = (2 * l + 1) / (4.0 * math.pi) * math.exp(-l * (l + 1) * t)
                decreasing = decreasing or (2 * l + 3) * math.exp(-2 * (l + 1) * t) < 2 * l + 1
                coef.append((c, 2.0 * c if decreasing else math.inf))
            c, bound = coef[l]
            if bound < ulp(abs(total)) / 4.0:
                break
            if not even_only or l % 2 == 0:
                total += c * p_l
            # P_{l+1}; at l = 0 it is x exactly
            p_prev, p_l = p_l, ((2 * l + 1) * xi * p_l - l * p_prev) / (l + 1)
        values.append(total)
    # |P_l| <= 1, so the dropped tail is bounded termwise
    tail = 0.0
    for l in range(l_max + 1, l_max + 400):
        term = (2 * l + 1) / (4.0 * math.pi) * math.exp(-l * (l + 1) * t)
        tail += term
        if term < 1e-300:
            break
    return np.array(values, dtype=float).reshape(x.shape), tail


def _refuse_large_tail(val, tail):
    """(val, tail), refused when the truncation bound is not small against
    the value."""
    ref = float(np.min(np.abs(val), initial=math.inf))
    if tail > 1e-3 * max(ref, 1e-300):
        raise NumericalConsistencyError(
            f"truncation bound {tail:.3e} too large; raise l_max or t"
        )
    return val, tail


def sphere_heat(cos_theta, t: float, l_max: int = DEFAULT_L_MAX):
    """Heat kernel on the unit 2-sphere as a function of the angle.

    Returns (value, truncation_bound); refuses when the bound is not
    small against the value.
    """
    return _refuse_large_tail(*_legendre_series(cos_theta, t, l_max, even_only=False))


def rp2_heat(cos_theta, t: float, l_max: int = DEFAULT_L_MAX):
    """Heat kernel on the projective plane: even-degree terms, doubled.

    The factor 2 is a quotient normalization; it cancels in the
    degree-balanced inequality checks.
    """
    val, tail = _legendre_series(cos_theta, t, l_max, even_only=True)
    return _refuse_large_tail(2.0 * val, 2.0 * tail)


def sphere_point_symmetry(b: SpherePoint, c: SpherePoint) -> SpherePoint:
    """Geodesic reflection through b: 2(b.c)b - c."""
    v = 2.0 * float(np.dot(b.u, c.u)) * b.u - c.u
    return SpherePoint(v / np.linalg.norm(v))


def random_sphere_point(rng: np.random.Generator) -> SpherePoint:
    v = rng.normal(size=3)
    return SpherePoint(v / np.linalg.norm(v))


# the kernel of each series space, and the set the sphere checks accept
_SERIES_KERNELS = {"S2": sphere_heat, "RP2": rp2_heat}


@functools.lru_cache(maxsize=KERNEL_MEMO_SIZE)
def _triple_kernels(space: str, a, b, c, t: float, l_max: int):
    """(H(a,b), H(b,c), H(a,c), H(a,s_b(c)), H(a,a), err) on S2, RP2 or H3.

    On S2 and RP2 the values come from one series evaluation at the five
    cosines, and err bounds each value's error: ten times the truncation
    tail plus the series roundoff, since |P_l| <= 1 bounds the termwise
    absolute sum by the value at distance zero.  On H3 each value is H(a,a)
    exp(r), with H(a,a) = (4 pi t)^{-3/2} e^{-t} and r its log ratio; the
    closed form is taken as exact, so err is 0, and l_max is not read.

    Memoized on (space, a, b, c, t, l_max), so the second check on a triple
    gets the very floats the first one computed.  The callers pass t as a
    float and l_max as an int, so a NumPy scalar or a 0-d array t finds the
    same entry and nothing unhashable reaches the key.  The entry cannot go
    stale: the points are frozen, compare by identity and hold read-only
    copies of their coordinates, and the cache keeps them alive, so no
    other point can take over an id while the entry is kept.  tol is
    applied later and is not part of the key; a refusal raises and is not
    kept, so it is raised again on every call.
    """
    if space == "H3":
        if not 0 < t < math.inf:
            raise DomainError("t must be positive and finite")
        try:
            haa = (4.0 * math.pi * t) ** -1.5 * math.exp(-t)
        except OverflowError:
            raise NumericalConsistencyError(f"H(a,a) overflows at t={t}") from None
        if haa == 0.0:  # every value would be 0, and the mean form 0/0
            raise NumericalConsistencyError(f"H(a,a) underflows to 0 at t={t}")
        pairs = ((a, b), (b, c), (a, c), (a, h3_point_symmetry(b, c)))
        return (*[haa * math.exp(h3_log_ratio(h3_distance(x, y), t)) for x, y in pairs], haa, 0.0)
    pairs = ((a, b), (b, c), (a, c), (a, sphere_point_symmetry(b, c)))
    cos_vals = np.array([float(np.dot(x.u, y.u)) for x, y in pairs] + [1.0])
    vals, tail = _SERIES_KERNELS[space](cos_vals, t, l_max)
    hab, hbc, hac, hasbc, haa = vals.tolist()
    return hab, hbc, hac, hasbc, haa, 10.0 * tail + 100.0 * math.ulp(1.0) * haa


# (sides formula, l1 norm of its margin's gradient) of each triple check
_TRIPLE_FORMS = {
    "symmetric_ineq": (rsd_sides, rsd_gradient_l1),
    "heat_lemma": (mean_sides, mean_gradient_l1),
}


def _triple_check(kind: str, space: str, a, b, c, t, tol: float, l_max: int) -> CheckReport:
    """The reflection inequality (kind "symmetric_ineq") or its mean form
    (kind "heat_lemma") on the triple's five kernel values and their error
    err, read from _triple_kernels.

    With chi(g) = H(a, a+g), g1 = b - a and g2 = c - b, the reflection
    s_b(c) = 2b - c makes the five values chi(g1), chi(g2), chi(g1+g2),
    chi(g1-g2) and chi(0), so the kinds are the pair checks' rsd_sides and
    mean_sides, and the margin RHS - LHS is reported by scalar_report.

    On H3 every kernel value is positive, so a side below the smallest
    normal double has underflowed; where both sides have, comparing them
    says nothing, and the check is refused with NumericalConsistencyError.
    The rule is H3's only: a pushforward chi has exact zeros, and a
    truncated series value need not be positive.  A nonzero err widens the
    tolerance by err times the l1 norm of the margin's gradient in the five
    values, so an error of err in each cannot manufacture a violation to
    first order.
    """
    x, y, s, d, h0, err = _triple_kernels(space, a, b, c, float(t), operator.index(l_max))
    sides, gradient_l1 = _TRIPLE_FORMS[kind]
    lhs, rhs = sides(x, y, s, d, h0)
    if space == "H3" and max(lhs, rhs) < sys.float_info.min:
        raise NumericalConsistencyError(f"{kind}: both sides underflow at t={t}")
    if err:
        tol = tol + err * gradient_l1(x, y, s, d, h0)
    return scalar_report(rhs - lhs, tol, f"space={space}, t={t}", kind)


def _series_space(space: str) -> str:
    """space, refused with DomainError unless it has a series kernel."""
    if space not in _SERIES_KERNELS:
        raise DomainError(f"unknown series space {space!r}")
    return space


def symmetric_ineq_check_sphere(
    space: str,
    a: SpherePoint,
    b: SpherePoint,
    c: SpherePoint,
    t: float,
    tol: float = 0.0,
    l_max: int = DEFAULT_L_MAX,
) -> CheckReport:
    """H(a,b)^2 H(b,c)^2 <= H(a,c) H(a,s_b(c)) H(a,a)^2 on S2 or RP2, with
    the tolerance widened by the series error."""
    return _triple_check("symmetric_ineq", _series_space(space), a, b, c, t, tol, l_max)


def heat_lemma_check_sphere(
    space: str,
    a: SpherePoint,
    b: SpherePoint,
    c: SpherePoint,
    t: float,
    tol: float = 0.0,
    l_max: int = DEFAULT_L_MAX,
) -> CheckReport:
    """H(a,b)H(b,c)/H(a,a) <= (H(a,c) + H(a,s_b(c)))/2 on S2 or RP2, with
    the tolerance widened by the series error."""
    return _triple_check("heat_lemma", _series_space(space), a, b, c, t, tol, l_max)


def symmetric_ineq_check_h3(
    a: HyperboloidPoint,
    b: HyperboloidPoint,
    c: HyperboloidPoint,
    t: float,
    tol: float = 0.0,
) -> CheckReport:
    """The reflection inequality on hyperbolic 3-space (closed form)."""
    return _triple_check("symmetric_ineq", "H3", a, b, c, t, tol, DEFAULT_L_MAX)


def heat_lemma_check_h3(
    a: HyperboloidPoint,
    b: HyperboloidPoint,
    c: HyperboloidPoint,
    t: float,
    tol: float = 0.0,
) -> CheckReport:
    """The mean form on hyperbolic 3-space (closed form)."""
    return _triple_check("heat_lemma", "H3", a, b, c, t, tol, DEFAULT_L_MAX)

