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
    GroupElement,
    GroupFunction,
    cexp_spectral,
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
    alpha: float, g0: GroupElement, n: int, epsilon: float = DEFAULT_EPSILON
) -> PushforwardResult:
    """Pushforward of r_n*Z onto g0's group, with r_n chosen so
    rho(r_n) = alpha/n; needs alpha > 0, n >= 2 and n > alpha.  At
    alpha = 0, chi_n would be delta exactly, with no rate to fit."""
    if not alpha > 0:  # NaN too
        raise DomainError(f"need alpha > 0 (alpha = 0 makes chi_n = delta exactly), got {alpha}")
    if n < 2 or n <= alpha:
        raise DomainError(f"need n > alpha and n >= 2, got n={n}")
    r_n = math.sqrt(math.log(n / alpha) / math.pi)
    hom = LatticeHom(Lattice.integers(r_n), g0.group, (g0,))
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
    g0: GroupElement,
    ns=DEFAULT_NS,
    epsilon: float = DEFAULT_EPSILON,
) -> RateReport:
    """Sup-norm error of delta + alpha*phi/n - chi_n; expects fourth-order
    decay.  Refuses alpha = 0 (build_chi_n), and an error at or below its
    ``_floor``."""
    ns = tuple(sorted(int(n) for n in ns))
    G = g0.group
    bump = phi(G, g0)
    errors, floors = [], []
    for n in ns:
        res = build_chi_n(alpha, g0, n, epsilon)
        target = delta(G) + (alpha / n) * bump
        errors.append((target - res.chi).sup_norm())
        floors.append(_floor(alpha, n, res))
    slope = _fit_slope(ns, errors, floors)
    return RateReport(ns, tuple(errors), slope, passed=slope <= -3.5)


def convergence_check_lemma37(
    alpha: float,
    g0: GroupElement,
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
    sqrt(ns[-1] / ns[0]).  Refuses alpha = 0 (build_chi_n), and a distance
    at or below n ||chi_n||_1^{n-1} times its ``_floor``.
    """
    ns = tuple(sorted(int(n) for n in ns))
    G = g0.group
    target = cexp_spectral(alpha * phi(G, g0))
    errors, floors = [], []
    for n in ns:
        res = build_chi_n(alpha, g0, n, epsilon)
        errors.append((idft(G, dft(res.chi) ** n) - target).sup_norm())
        mass = float(np.sum(res.chi.values))
        floors.append(n * mass ** (n - 1) * _floor(alpha, n, res, G.transform_error))
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
        chi = build_chi_n(alpha, g0, n, epsilon).chi
        acc = acc * dft(chi) ** n
    return idft(G, acc)
