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

from .errors import DomainError
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


def check_power_diff(a: float, b: float, C: float, n: int, slack: float = 1e-12) -> bool:
    """|a^n - b^n| <= n C^{n-1} |a - b| for a, b in [0, C]."""
    if not (0 <= a <= C and 0 <= b <= C) or n < 1:
        raise DomainError("need 0 <= a,b <= C and n >= 1")
    return abs(a**n - b**n) <= n * C ** (n - 1) * abs(a - b) + slack


def build_chi_n(
    alpha: float, g0: GroupElement, n: int, epsilon: float = DEFAULT_EPSILON
) -> PushforwardResult:
    """Pushforward of r_n*Z onto g0's group, with r_n chosen so
    rho(r_n) = alpha/n; needs alpha >= 0, n >= 2 and n > alpha."""
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    if n < 2 or (alpha > 0 and n <= alpha):
        raise DomainError(f"need n > alpha and n >= 2, got n={n}")
    if alpha == 0:
        return PushforwardResult(delta(g0.group), 0.0, epsilon)
    r_n = math.sqrt(math.log(n / alpha) / math.pi)
    hom = LatticeHom(Lattice.integers(r_n), g0.group, (g0,))
    return pushforward(hom, epsilon)


def _fit_slope(ns, errors) -> float:
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
    """Sup-norm error of delta + alpha*phi/n - chi_n; expects fourth-order decay."""
    ns = tuple(sorted(int(n) for n in ns))
    G = g0.group
    bump = phi(G, g0)
    errors = []
    for n in ns:
        chi = build_chi_n(alpha, g0, n, epsilon).chi
        target = delta(G) + (alpha / n) * bump
        errors.append((target - chi).sup_norm())
    slope = _fit_slope(ns, errors)
    return RateReport(ns, tuple(errors), slope, passed=slope <= -3.5)


def convergence_check_lemma37(
    alpha: float,
    g0: GroupElement,
    ns=(16, 64, 256),
    epsilon: float = DEFAULT_EPSILON,
) -> RateReport:
    """Sup-norm distance of chi_n^{*n} from cexp(alpha*phi).

    The total gap is dominated by the classical Euler-limit error, so the
    pass condition is monotone decrease with at least a 4x drop across the
    range, not a specific slope.
    """
    ns = tuple(sorted(int(n) for n in ns))
    G = g0.group
    target = cexp_spectral(alpha * phi(G, g0))
    errors = []
    for n in ns:
        chi = build_chi_n(alpha, g0, n, epsilon).chi
        errors.append((idft(G, dft(chi) ** n) - target).sup_norm())
    slope = _fit_slope(ns, errors) if min(errors) > 0 else -math.inf
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    big_drop = errors[-1] < errors[0] / 4 if errors[0] > 0 else True
    return RateReport(ns, tuple(errors), slope, passed=decreasing and big_drop)


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
