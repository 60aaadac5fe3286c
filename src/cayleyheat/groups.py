"""Finite Abelian groups, function spaces on them, convolution, DFT and the
convolutional exponential.

Groups are products of cyclic factors Z_{n1} x ... x Z_{nk}.  Elements are
residue vectors; the flat index of an element is the lexicographic index with
the last factor varying fastest (numpy C order), so reshaping a value vector
to shape ``factor_sizes`` lines the axes up with the factors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DivergenceError,
    DomainError,
    GroupMismatchError,
    NumericalConsistencyError,
)

# largest group order accepted
ORDER_CAP = 4096

# an inverse transform discards an imaginary residue up to this share of the
# spectrum norm, and refuses a larger one
IMAG_REL_TOL = 1e-8

# relative tolerance with absolute floor, used for all "equals" checks
REL_TOL = 1e-10
ABS_TOL = 1e-14


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    return bool(np.max(np.abs(a - b), initial=0.0) <= REL_TOL * scale + ABS_TOL)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z_{n1} x ... x Z_{nk}."""

    factor_sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.factor_sizes:
            object.__setattr__(self, "factor_sizes", (1,))
        if any(n < 1 for n in self.factor_sizes):
            raise DomainError(f"factor sizes must be >= 1, got {self.factor_sizes}")
        if self.order > ORDER_CAP:
            raise DomainError(f"group order {self.order} exceeds cap {ORDER_CAP}")

    @property
    def order(self) -> int:
        return math.prod(self.factor_sizes)

    @property
    def rank(self) -> int:
        return len(self.factor_sizes)

    def index_of(self, residues: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(residues), self.factor_sizes))

    def residues_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(r) for r in np.unravel_index(index, self.factor_sizes))

    def element(self, residues: Sequence[int]) -> "GroupElement":
        res = tuple(int(r) % n for r, n in zip(residues, self.factor_sizes))
        if len(res) != self.rank:
            raise DomainError(
                f"expected {self.rank} residues, got {len(res)}"
            )
        return GroupElement(self, res)

    def from_index(self, index: int) -> "GroupElement":
        return GroupElement(self, self.residues_of(index))

    @property
    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    # index arithmetic on whole arrays, used by convolution and orbit logic
    def neg_index_table(self) -> np.ndarray:
        """neg[i] = flat index of -g_i."""
        grids = np.meshgrid(
            *[(-np.arange(n)) % n for n in self.factor_sizes], indexing="ij"
        )
        return np.ravel_multi_index(grids, self.factor_sizes).ravel()

    def sub_index_table(self) -> np.ndarray:
        """table[x, y] = flat index of g_x - g_y."""
        idx = [np.arange(n) for n in self.factor_sizes]
        x_res = np.array(
            np.meshgrid(*idx, indexing="ij")
        ).reshape(self.rank, -1)  # (k, |G|)
        diff = (x_res[:, :, None] - x_res[:, None, :]) % np.array(
            self.factor_sizes
        ).reshape(self.rank, 1, 1)
        return np.ravel_multi_index(tuple(diff), self.factor_sizes)

    def __str__(self):
        return "x".join(f"Z{n}" for n in self.factor_sizes)


@dataclass(frozen=True)
class GroupElement:
    group: FiniteAbelianGroup
    residues: tuple[int, ...]

    def __post_init__(self):
        for r, n in zip(self.residues, self.group.factor_sizes):
            if not 0 <= r < n:
                raise DomainError(f"residue {r} out of range for factor Z{n}")

    @property
    def index(self) -> int:
        return self.group.index_of(self.residues)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if other.group != self.group:
            raise GroupMismatchError("elements belong to different groups")
        return self.group.element(
            tuple(a + b for a, b in zip(self.residues, other.residues))
        )

    def __neg__(self) -> "GroupElement":
        return self.group.element(tuple(-r for r in self.residues))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __str__(self):
        return "(" + ",".join(str(r) for r in self.residues) + ")"


@dataclass(frozen=True)
class GroupFunction:
    """Dense real-valued function on a finite Abelian group."""

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.group.order,):
            raise DomainError(
                f"values length {vals.shape} != group order {self.group.order}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, g: GroupElement) -> float:
        return float(self.values[g.index])

    def at_index(self, i: int) -> float:
        return float(self.values[i])

    def is_even(self) -> bool:
        return _close(self.values, self.values[self.group.neg_index_table()])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

    def __add__(self, other: "GroupFunction") -> "GroupFunction":
        _same_group(self, other)
        return GroupFunction(self.group, self.values + other.values)

    def __sub__(self, other: "GroupFunction") -> "GroupFunction":
        _same_group(self, other)
        return GroupFunction(self.group, self.values - other.values)

    def __mul__(self, scalar: float) -> "GroupFunction":
        return GroupFunction(self.group, self.values * scalar)

    __rmul__ = __mul__


def _same_group(f, g):
    if f.group != g.group:
        raise GroupMismatchError("operands live on different groups")


def delta(group: FiniteAbelianGroup) -> GroupFunction:
    """Indicator of the identity; convolution identity."""
    v = np.zeros(group.order)
    v[0] = 1.0
    return GroupFunction(group, v)


def phi(group: FiniteAbelianGroup, g0: GroupElement) -> GroupFunction:
    """delta(.-g0) + delta(.+g0); value 2 at g0 when 2*g0 = 0."""
    v = np.zeros(group.order)
    v[g0.index] += 1.0
    v[(-g0).index] += 1.0
    return GroupFunction(group, v)


def dft(f: GroupFunction) -> np.ndarray:
    """Forward transform with conjugated characters, as a complex (|G|,) array
    indexed like the group.

    f_hat(k) = sum_g f(g) exp(-2*pi*i sum_j k_j g_j / n_j); this makes the
    convolution theorem a plain pointwise product.
    """
    return _over_group_axes(np.fft.fft, f.group, f.values)


def _over_group_axes(transform, group: FiniteAbelianGroup, x: np.ndarray) -> np.ndarray:
    """np.fft.fft or ifft over the group axes of each length-|G| row of x, last
    axis first: what fftn and ifftn do, without their per-call argument
    handling.  Returns an array of x's shape."""
    out = x.reshape(x.shape[:-1] + group.factor_sizes)
    for axis in range(-1, -group.rank - 1, -1):
        out = transform(out, axis=axis)
    return out.reshape(x.shape)


def idft_stack(group: FiniteAbelianGroup, spectra: np.ndarray) -> np.ndarray:
    """Inverse transform, with the 1/|G| factor, of each row of a (B, |G|)
    stack of spectra; returns the (B, |G|) real parts.

    Raises if the stack is not (B, |G|), if a row's spectrum norm is not
    finite, or if a row's imaginary residue exceeds IMAG_REL_TOL times that
    norm; below that the residue is discarded.  A finite norm bounds every
    value of the row's transform, so the values returned are finite.
    """
    if spectra.ndim != 2 or spectra.shape[1] != group.order:
        raise DomainError(f"spectra of shape {spectra.shape} are not rows of length {group.order}")
    out = _over_group_axes(np.fft.ifft, group, spectra)
    imag = np.abs(out.imag).max(axis=1)
    # the row norms np.linalg.norm(spectra, axis=1) gives, without its overhead
    norm = np.sqrt(np.add.reduce((spectra.conj() * spectra).real, axis=1))
    for i, (res, nrm) in enumerate(zip(imag.tolist(), norm.tolist())):
        if not nrm < math.inf:
            raise NumericalConsistencyError(f"spectrum norm of row {i} is not finite")
        if not res <= IMAG_REL_TOL * max(nrm, ABS_TOL):  # a NaN residue fails too
            raise NumericalConsistencyError(
                f"imaginary residue {res:.3e} exceeds {IMAG_REL_TOL:.1e} * ||s|| (row {i})"
            )
    return out.real.copy()


def idft(group: FiniteAbelianGroup, spectrum: np.ndarray) -> GroupFunction:
    """Inverse transform carrying the 1/|G| factor: the one-row idft_stack."""
    return GroupFunction(group, idft_stack(group, np.asarray(spectrum)[None])[0])


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f*g)(x) = sum_y f(x-y) g(y), through the transform."""
    _same_group(f, g)
    return idft(f.group, dft(f) * dft(g))


def cexp_spectral(upsilon: GroupFunction) -> GroupFunction:
    """Convolutional exponential via idft(exp(dft(upsilon)))."""
    return idft(upsilon.group, np.exp(dft(upsilon)))


def cexp_series(upsilon: GroupFunction, tol: float = 1e-14) -> GroupFunction:
    """Convolutional exponential by partial sums of sum_n upsilon^{*n}/n!.

    The sum runs on the spectrum: with z = dft(upsilon), term n has spectrum
    z^n/n!, and one inverse transform at the end gives the values.  For a
    function f on G with spectrum s,

        sup|f| <= ||s||_1 / |G|    (f(x) is the mean of s(k) times
                                    unit-modulus characters)
        sup|f| >= ||s||_2 / |G|    (Parseval: ||f||_2 = ||s||_2 / sqrt|G|)

    The series stops at the first n >= max|z| - 1 at which the first bound
    for term n is at most tol * max(the second bound for the partial sum,
    ABS_TOL).  Then sup|term n| <= tol * max(sup|sum|, ABS_TOL), the test a
    value-domain loop makes on the true sup norms, so that loop would have
    stopped at the same term or earlier.  And since |z(k)|/(n+1) <= 1, the
    first omitted term's first bound is at most term n's, so it obeys the
    same inequality.  The term cap raises DivergenceError.  A bound that is
    not finite (an overflow) is refused with DomainError.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    G = upsilon.group
    z = dft(upsilon)
    acc = np.ones(G.order, dtype=complex)  # the spectrum of delta
    term = acc.copy()
    z_max = float(np.max(np.abs(z)))
    l1 = float(np.sum(np.abs(upsilon.values)))
    cap = max(4, int(math.ceil(10 * (1 + l1))))
    for n in range(1, cap + 1):
        term *= z
        term *= 1.0 / n
        acc += term
        upper = float(np.add.reduce(np.abs(term))) / G.order
        lower = math.sqrt(np.vdot(acc, acc).real) / G.order
        if not (upper < math.inf and lower < math.inf):
            raise DomainError(f"cexp series term {n} is not finite")
        if n + 1 >= z_max and upper <= tol * max(lower, ABS_TOL):
            return idft(G, acc)
    raise DivergenceError(f"cexp series did not converge in {cap} terms")


def phi_basis_decompose(upsilon: GroupFunction) -> list[tuple[float, GroupElement]]:
    """Write an even nonnegative function as sum alpha_i * phi(g0_i).

    One representative per {g0, -g0} orbit; the identity orbit contributes
    upsilon(0)/2 since phi(0) = 2*delta.  Zero-weight orbits are skipped.
    """
    G = upsilon.group
    neg = G.neg_index_table()
    vals = upsilon.values
    if np.any(vals < -ABS_TOL):
        raise DomainError("decomposition requires a nonnegative function")
    if not _close(vals, vals[neg]):
        raise DomainError("decomposition requires an even function")
    out: list[tuple[float, GroupElement]] = []
    for i in range(G.order):
        j = int(neg[i])
        if j < i:
            continue  # orbit already handled at its smaller index
        v = float(vals[i])
        if v <= 0.0:
            continue
        alpha = v / 2.0 if i == j else v  # phi doubles on self-inverse orbits
        out.append((alpha, G.from_index(i)))
    return out


_GROUP_RE = re.compile(r"^z(\d+)$", re.IGNORECASE)


def parse_group(spec: str) -> FiniteAbelianGroup:
    """Parse "Zn1xZn2x..." (case-insensitive), e.g. "Z12xZ2"."""
    parts = re.split("x", spec.strip(), flags=re.IGNORECASE)
    sizes = []
    for p in parts:
        m = _GROUP_RE.match(p.strip())
        if not m:
            raise DomainError(f"bad group spec {spec!r}: cannot parse {p!r}")
        sizes.append(int(m.group(1)))
    return FiniteAbelianGroup(tuple(sizes))
