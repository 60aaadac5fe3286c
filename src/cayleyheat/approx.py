"""Approximation of convolutional exponentials by Gaussian pushforwards.

A single even basis bump alpha*phi is approximated by the pushforward chi_n
of the 1-d lattice r_n*Z with r_n = sqrt(ln(n/alpha)/pi), whose generator
maps to the bump's offset; chi_n matches delta + alpha*phi/n up to a
fourth-order tail, and its n-fold convolution power converges to
cexp(alpha*phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalConsistencyError
from .groups import (
    _EXP_ARG_MAX,
    FiniteAbelianGroup,
    GroupFunction,
    delta,
    dft,
    idft,
    phi,
    phi_basis_decompose,
)
from .lattices import (
    DEFAULT_EPSILON,
    Lattice,
    LatticeHom,
    PushforwardResult,
    pushforward,
)

DEFAULT_NS = (16, 32, 64, 128, 256)


@dataclass(frozen=True)
class RateReport:
    ns: tuple[int, ...]
    errors: tuple[float, ...]
    fitted_order: float
    passed: bool


def build_chi_n(
    alpha: float, G: FiniteAbelianGroup, g0: int, n: int, epsilon: float = DEFAULT_EPSILON
) -> PushforwardResult:
    """Pushforward of r_n*Z onto G, the generator mapped to the element of
    flat index g0, with r_n chosen so rho(r_n) = alpha/n; needs alpha > 0,
    n >= 2, n > alpha and n/alpha finite.  At alpha = 0, chi_n would be
    delta exactly, with no rate to fit."""
    if not alpha > 0:  # NaN too
        raise DomainError(f"need alpha > 0 (alpha = 0 makes chi_n = delta exactly), got {alpha}")
    if n < 2 or n <= alpha:
        raise DomainError(f"need n > alpha and n >= 2, got n={n}")
    if not n / alpha < math.inf:
        raise DomainError(f"alpha = {alpha} is too small for n = {n}: n/alpha overflows")
    r_n = math.sqrt(math.log(n / alpha) / math.pi)
    hom = LatticeHom(Lattice.integers(r_n), G, (G.residues_of(g0),))
    return pushforward(hom, epsilon)


_U = 2.0**-53  # unit roundoff of IEEE double precision


def _floor(alpha: float, n: int, res: PushforwardResult, transform_error: float = 0.0) -> float:
    """The largest error in chi_n that truncation and rounding alone can make.

    Entry k of chi_n's shell sum is exp(-pi r_n^2 k^2) = (alpha/n)^{k^2}.  Its
    exponent x = k^2 ln(n/alpha) passes through about eight roundings (log,
    /pi, sqrt, k*r_n, square, *pi; pi cancels); exp turns their relative 8u
    into 8u*x and adds its own u: (1 + 8 ln(n/alpha)) u on the shell k = 1
    that carries the rate.  As x e^{-x} averages below 1 over the shells, a
    factor ||chi_n||_1 covers the later shells and the sums on one element
    (Higham, "Accuracy and Stability of Numerical Algorithms", ch. 3).  So,
    to first order in u = 2^-53, the computed chi_n is within
    F = tail + 8 (1 + ln(n/alpha) + transform_error) u ||chi_n||_1 of the
    exact one.  Lemma 35 takes transform_error = 0.  Lemma 37 takes the
    group's ``transform_error``, the forward-error constant of its transform
    plan: the sum of its dense block sizes (gamma_b ~ b u for an inner
    product of length b) plus the sum of log2 of its FFT lengths.  It scales
    F by n s^{n-1}, s = ||chi_n||_1:
    f^{*n} - g^{*n} sums f^{*i} * (f - g) * g^{*(n-1-i)} over i < n, so its
    sup is at most n s^{n-1} sup|f - g| when ||f||_1, ||g||_1 <= s.
    tests/test_approx.py checks both floors on 50-digit values.
    """
    mass = float(np.sum(res.chi.values))
    return res.tail_bound + 8 * (1 + math.log(n / alpha) + transform_error) * _U * mass


def _sizes(ns) -> tuple[int, ...]:
    """The sizes n of a rate check, in increasing order; fewer than two, or
    one given twice, are refused."""
    ns = tuple(sorted(int(n) for n in ns))
    if len(ns) < 2 or len(set(ns)) < len(ns):
        raise DomainError(f"ns must hold at least two distinct sizes, got {ns}")
    return ns


def _fit_slope(ns, errors, floors) -> float:
    """Least-squares slope of log error against log n.  An error that does
    not exceed its floor (an error of 0 included) is refused: the fit would
    measure truncation and rounding, not the lemma."""
    for n, err, floor in zip(ns, errors, floors):
        if not err > floor:
            raise NumericalConsistencyError(
                f"the error {err:.3e} at n={n} does not exceed {floor:.3e}, "
                "what truncation and rounding alone can produce"
            )
    logs_n = np.log(np.asarray(ns, dtype=float))
    logs_e = np.log(np.asarray(errors, dtype=float))
    slope, _ = np.polyfit(logs_n, logs_e, 1)
    return float(slope)


def rate_check_lemma35(
    alpha: float,
    G: FiniteAbelianGroup,
    g0: int,
    ns=DEFAULT_NS,
    epsilon: float = DEFAULT_EPSILON,
) -> RateReport:
    """Sup-norm error of delta + alpha*phi/n - chi_n; expects fourth-order
    decay.  Refuses fewer than two ns or a repeated one (``_sizes``), alpha = 0
    (build_chi_n), and an error at or below its ``_floor``."""
    ns = _sizes(ns)
    bump = phi(G, g0)
    errors, floors = [], []
    for n in ns:
        res = build_chi_n(alpha, G, g0, n, epsilon)
        target = delta(G) + (alpha / n) * bump
        errors.append((target - res.chi).sup_norm())
        floors.append(_floor(alpha, n, res))
    slope = _fit_slope(ns, errors, floors)
    return RateReport(ns, tuple(errors), slope, passed=slope <= -3.5)


def _cexp_bump(alpha: float, G: FiniteAbelianGroup, g0: int) -> tuple[GroupFunction, float]:
    """cexp(alpha phi(g0)) by its series on the values, with no transform,
    and a bound on the sup-norm error of what it returns.

    Convolving with phi(g0) is two shifts: (f * phi(g0))(x) = f(x - g0) +
    f(x + g0).  So term k = (alpha/k) (term k-1) * phi(g0) has l1 norm
    exactly a^k/k!, a = 2|alpha|, as ||phi(g0)||_1 = 2 and the shifts of a
    one-signed term cannot cancel.  The terms after k then have l1 norm at
    most a^(k+1)/(k+1)! / (1 - a/(k+2)) once k + 2 > a (a geometric series
    of ratio a/(k+2) bounds the later terms' ratios), and the series stops
    at the first k where that is at most u e^a, u = 2^-53; the l1 norm
    bounds the sup norm.  Each entry of term k is a sum of two entries of
    one sign, then scaled: 3 roundings a term, so relative error 3k u; the
    k + 1 terms then sum with error at most k u times the sum of their
    absolute values (Higham, "Accuracy and Stability of Numerical
    Algorithms", ch. 4), which is at most sum_k a^k/k! = e^a everywhere.
    So, to first order in u, the sup-norm error is at most (4k + 1) u e^a,
    the bound returned.  A 2|alpha| above _EXP_ARG_MAX, where e^a
    overflows, is refused.
    """
    a = 2 * abs(alpha)
    if not a <= _EXP_ARG_MAX:  # a NaN fails too
        raise NumericalConsistencyError(f"cexp(alpha phi) overflows: 2|alpha| = {a:.6g}")
    r0 = np.array(G.residues_of(g0))[:, None]  # refuses g0 out of range
    minus, plus = G.flat(G.residues - r0), G.flat(G.residues + r0)
    bound = _U * math.exp(a)
    term = acc = delta(G).values
    b, k = 1.0, 0  # b = a^k/k!, the l1 norm of term k
    while k + 2 <= a or b * (a / (k + 1)) / (1 - a / (k + 2)) > bound:
        k += 1
        term = alpha / k * (term[minus] + term[plus])
        acc, b = acc + term, b * (a / k)
    return GroupFunction(G, acc), (4 * k + 1) * bound


def convergence_check_lemma37(
    alpha: float,
    G: FiniteAbelianGroup,
    g0: int,
    ns=(16, 64, 256),
    epsilon: float = DEFAULT_EPSILON,
) -> RateReport:
    """Sup-norm distance of chi_n^{*n} from cexp(alpha*phi).

    The total gap is dominated by the classical Euler-limit error, so the
    pass condition is monotone decrease with the last error below the first
    times sqrt(ns[0] / ns[-1]), an order-1/2 drop across the range (4x at
    the default 16 to 256), not a specific slope.  The Euler error falls as
    1/n, so at a small alpha the errors meet an order-1 threshold exactly
    and rounding would decide; they clear order 1/2 by a factor
    sqrt(ns[-1] / ns[0]).  The target comes from ``_cexp_bump``, which runs
    no transform, so a fault in the inverse transform that chi_n^{*n} goes
    through cannot cancel.  Refuses fewer than two ns or a repeated one
    (``_sizes``), alpha = 0 (build_chi_n), and a distance
    at or below n ||chi_n||_1^{n-1} times its ``_floor`` plus the target's
    own error bound.
    """
    ns = _sizes(ns)
    target, target_err = _cexp_bump(alpha, G, g0)
    errors, floors = [], []
    for n in ns:
        res = build_chi_n(alpha, G, g0, n, epsilon)
        errors.append((idft(G, dft(res.chi) ** n) - target).sup_norm())
        mass = float(np.sum(res.chi.values))
        floors.append(n * mass ** (n - 1) * _floor(alpha, n, res, G.transform_error) + target_err)
    slope = _fit_slope(ns, errors, floors)
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    drop = math.sqrt(ns[0] / ns[-1])
    return RateReport(ns, tuple(errors), slope, passed=decreasing and errors[-1] < errors[0] * drop)


def cexp_pushforward_factorized(
    upsilon: GroupFunction, n: int, epsilon: float = DEFAULT_EPSILON
) -> GroupFunction:
    """Approximate cexp(upsilon) as a convolution of pushforward powers.

    Decomposes upsilon over the even bump basis and replaces each factor
    cexp(alpha_i * phi_i) by chi_{n,i}^{*n}.
    """
    G = upsilon.group
    terms = phi_basis_decompose(upsilon)
    acc = dft(delta(G))
    for alpha, g0 in terms:
        chi = build_chi_n(alpha, G, g0, n, epsilon).chi
        acc = acc * dft(chi) ** n
    return idft(G, acc)
