"""Independent, numpy-only reference computations for every answer the
workloads check.  Nothing here imports the library: each oracle recomputes
its quantity from the generated inputs by a different route (one FFT or one
eigendecomposition for a whole t-grid, a Clenshaw Legendre sum, log-space
closed forms), so a wrong library answer cannot agree with it by sharing
code.
"""

from __future__ import annotations

import math

import numpy as np


def residues(sizes: tuple[int, ...]) -> np.ndarray:
    """(order, rank) residue vectors of every flat index, last factor fastest."""
    return np.indices(sizes).reshape(len(sizes), -1).T


def _flat(res: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    moved = np.moveaxis(res % np.array(sizes), -1, 0)
    return np.ravel_multi_index(tuple(moved), sizes)


def cyclic_convolve(a: np.ndarray, b: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """(a*b)(x) = sum_y a(x-y) b(y) on Z_{n1} x ... x Z_{nk}."""
    prod = np.fft.fftn(a.reshape(sizes)) * np.fft.fftn(b.reshape(sizes))
    return np.fft.ifftn(prod).real.ravel()


def pair_margin_minima(chi: np.ndarray, sizes: tuple[int, ...]) -> tuple[float, float]:
    """Smallest margins over all (g1, g2) of the product and mean inequalities.

    Product: chi(g1+g2) chi(g1-g2) chi(0)^2 - chi(g1)^2 chi(g2)^2.
    Mean:    (chi(g1+g2) + chi(g1-g2))/2 - chi(g1) chi(g2)/chi(0).
    """
    res = residues(sizes)
    add = _flat(res[:, None, :] + res[None, :, :], sizes)
    sub = _flat(res[:, None, :] - res[None, :, :], sizes)
    v0 = chi[0]
    rsd = chi[add] * chi[sub] * v0**2 - np.outer(chi**2, chi**2)
    mean = 0.5 * (chi[add] + chi[sub]) - np.outer(chi, chi) / v0
    return float(rsd.min()), float(mean.min())


def convolve_even_minimum(chi: np.ndarray, upsilon: np.ndarray, sizes) -> float:
    """min over g of omega(g)/omega(0) - chi(g)/chi(0), omega = chi * upsilon."""
    omega = cyclic_convolve(chi, upsilon, sizes)
    return float(np.min(omega / omega[0] - chi / chi[0]))


def cayley_monotone_minimum(w: np.ndarray, sizes, t_grid: np.ndarray) -> float:
    """Worst step of H_t(0,v)/H_t(0,0) across the t-grid, all rows at once."""
    deg = float(w.sum())
    w_hat = np.fft.fftn(w.reshape(sizes)).ravel()
    spec = np.exp(np.outer(t_grid, w_hat - deg)).reshape((len(t_grid),) + tuple(sizes))
    rows = np.fft.ifftn(spec, axes=tuple(range(1, len(sizes) + 1))).real
    rows = rows.reshape(len(t_grid), -1)
    return float(np.diff(rows / rows[:, :1], axis=0).min())


def cexp(upsilon: np.ndarray, sizes) -> np.ndarray:
    """Convolutional exponential sum_n upsilon^{*n}/n! through one FFT pair."""
    return np.fft.ifftn(np.exp(np.fft.fftn(upsilon.reshape(sizes)))).real.ravel()


def general_monotone_minimum(W: np.ndarray, t_grid: np.ndarray) -> float:
    """Worst step of H_t(u,v)/H_t(u,u) over all u, v and the t-grid, from a
    single eigendecomposition of the graph Laplacian."""
    lap = np.diag(W.sum(axis=1)) - W
    lam, Q = np.linalg.eigh(lap)
    H = np.einsum("ij,tj,kj->tik", Q, np.exp(-np.outer(t_grid, lam)), Q)
    diag = np.diagonal(H, axis1=1, axis2=2)
    return float(np.diff(H / diag[:, :, None], axis=0).min())


def legendre_heat(cosines: np.ndarray, t: float, l_max: int, even_only: bool) -> np.ndarray:
    """Heat kernel on S2 (or RP2 with even_only: even degrees, doubled) by
    numpy's Clenshaw evaluation of the Legendre series."""
    ell = np.arange(l_max + 1)
    coef = (2 * ell + 1) / (4.0 * math.pi) * np.exp(-ell * (ell + 1) * t)
    if even_only:
        coef[1::2] = 0.0
        coef *= 2.0
    return np.polynomial.legendre.legval(np.clip(cosines, -1.0, 1.0), coef)


def sphere_margins(space: str, a, b, c, t: float, l_max: int) -> tuple[float, float, float]:
    """(product margin, mean margin, H(a,a)) for the reflection inequalities
    on S2 or RP2 at the triple a, b, c of unit vectors."""
    sbc = 2.0 * float(b @ c) * b - c
    sbc = sbc / np.linalg.norm(sbc)
    cos = np.array([a @ b, b @ c, a @ c, a @ sbc, 1.0])
    hab, hbc, hac, hasbc, haa = legendre_heat(cos, t, l_max, even_only=space == "RP2")
    product = hac * hasbc * haa**2 - hab**2 * hbc**2
    mean = 0.5 * (hac + hasbc) - hab * hbc / haa
    return float(product), float(mean), float(haa)


def _log_sinh(d: float) -> float:
    return d + math.log1p(-math.exp(-2.0 * d)) - math.log(2.0)


def _log_cosh(d: float) -> float:
    return d + math.log1p(math.exp(-2.0 * d)) - math.log(2.0)


def h3_reduced_gap(d1: float, t: float) -> float:
    """log LS - log RS of the reduced hyperbolic reflection inequality for
    the isosceles triple with legs d1; positive means it is violated.

    The base length d2 = arccosh(cosh(d1)^2) is formed from log cosh, so
    nothing overflows however large d1 is.
    """
    log_y = 2.0 * _log_cosh(d1)  # y = cosh(d1)^2 >= 1
    d2 = log_y + math.log1p(math.sqrt(-math.expm1(-2.0 * log_y)))
    log_ls = 2.0 * (math.log(d1) - _log_sinh(d1)) - d1 * d1 / (2.0 * t)
    log_rs = math.log(d2) - _log_sinh(d2) - d2 * d2 / (4.0 * t)
    return log_ls - log_rs


def _h3_kernel(d: np.ndarray, t: float) -> np.ndarray:
    safe = np.where(d > 1e-8, d, 1.0)
    ratio = np.where(d > 1e-8, safe / np.sinh(safe), 1.0)
    return (4.0 * math.pi * t) ** -1.5 * ratio * np.exp(-t - d * d / (4.0 * t))


def h3_margins(a, b, c, t: float) -> tuple[float, float, float]:
    """(product margin, mean margin, H(a,a)) on hyperbolic 3-space for the
    hyperboloid 4-vectors a, b, c."""
    eta = np.array([1.0, -1.0, -1.0, -1.0])
    sbc = 2.0 * float(b @ (eta * c)) * b - c
    pairs = np.array([a @ (eta * b), b @ (eta * c), a @ (eta * c), a @ (eta * sbc), 1.0])
    hab, hbc, hac, hasbc, haa = _h3_kernel(np.arccosh(np.maximum(pairs, 1.0)), t)
    product = hac * hasbc * haa**2 - hab**2 * hbc**2
    mean = 0.5 * (hac + hasbc) - hab * hbc / haa
    return float(product), float(mean), float(haa)
