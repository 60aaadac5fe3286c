"""Finite Abelian groups, function spaces on them, convolution, DFT and the
convolutional exponential.

Groups are products of cyclic factors Z_{n1} x ... x Z_{nk}.  Library code
names an element by its flat index: the lexicographic index of its residue
vector with the last factor varying fastest (numpy C order), so reshaping a
value vector to shape ``factor_sizes`` lines the axes up with the factors.
That layout lives in one place: ``FiniteAbelianGroup.residues`` (index to
residues) and ``FiniteAbelianGroup.flat`` (residues to index).  The group
law is a sum of residues taken back through ``flat``, or one of the index
tables (g_i + g_j over pairs, and -g_i), built from per-factor tables by
Kronecker sum (``_kron_index``), which gives the integers ``flat`` gives at
one numpy pass per table, whatever the number of factors.

The transforms run on a fixed plan per group (``_plan``).  Each run of
consecutive factors below 16 is merged into dense DFT blocks of at most 64
elements, applied by matrix products; each factor of 16 or more goes through
np.fft.  The block matrices are built once from exact integer phases
(``_dense_block``).  A group with many small factors then costs about what a
cyclic group of its order costs, not one numpy pass per factor.
``transform_error`` states the plan's forward-error constant, which
``approx`` uses for its rate floor.

The plan holds three routes as plain data, each a tuple of steps whose last
field is the operator itself (an np.fft function or a block matrix), and one
loop (``_transform``) walks any of them: the DFT, its inverse, and the inverse
of a real stack (the heat rows' spectra) at half width.  For real s,
idft(s)(-k) = conj idft(s)(k).  So the half route's first step is computed
only on a half set H of its block, with H and -H covering it, and its later
steps run on width |H|; each element then takes its real part from itself or
from its negative.  The rows come out exactly even, the largest |Im| over H
is the largest over G, and a block of Z_2's, whose inverse DFT is exactly
real, keeps every product real.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

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

# np.exp overflows above about 709.7827
_EXP_ARG_MAX = 709.78

# largest pair index table kept on a group: 8 MB of int64, |G| <= 1024
PAIR_TABLE_MAX = 1 << 20


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

    @functools.cached_property
    def order(self) -> int:
        return math.prod(self.factor_sizes)

    @property
    def rank(self) -> int:
        return len(self.factor_sizes)

    @functools.cached_property
    def residues(self) -> np.ndarray:
        """Read-only (rank, |G|) table: column i holds the residues of element i."""
        table = np.indices(self.factor_sizes).reshape(self.rank, -1)
        table.setflags(write=False)
        return table

    def flat(self, residues) -> np.ndarray:
        """Flat indices from per-factor integer arrays of any sign, which
        broadcast together, each reduced mod its factor; accumulated one
        factor at a time (Horner's rule over the factor sizes, from the first
        factor's residues), so no stacked (rank, ...) array is built."""
        pairs = zip(residues, self.factor_sizes, strict=True)
        r, n = next(pairs)
        out = r % n
        for r, n in pairs:
            out = out * n + r % n
        return out

    def residues_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:  # a negative index would wrap
            raise DomainError(f"index {index} out of range for {self}")
        return tuple(self.residues[:, index].tolist())

    def from_index(self, index: int) -> "GroupElement":
        """The record of element ``index`` that ``LatticeHom`` accepts as
        an image."""
        return GroupElement(self, self.residues_of(index))

    def name_of(self, index: int) -> str:
        """How reports name element ``index``: its residues, as (1,3)."""
        return "(" + ",".join(map(str, self.residues_of(index))) + ")"

    # index arithmetic on whole arrays, used by the pair sweeps, the evenness
    # check and orbit logic; every table comes from _kron_index
    @functools.cached_property
    def _neg(self) -> np.ndarray:
        neg = _kron_index(self.factor_sizes, np.arange(self.order), _cyclic_neg)
        neg.setflags(write=False)
        return neg

    def neg_index_table(self) -> np.ndarray:
        """Read-only neg[i] = flat index of -g_i, built once per group."""
        return self._neg

    def add_index_rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start to stop - 1 of the add table: [i, j] = flat index of
        g_(start + i) + g_j, built anew on each call."""
        return _kron_index(self.factor_sizes, np.arange(start, stop), _cyclic_add)

    def add_index_table(self) -> np.ndarray:
        """Read-only table[x, y] = flat index of g_x + g_y.  Built on first
        use, and kept on the group when it has at most PAIR_TABLE_MAX
        entries; a larger one is built on each call."""
        table = self.__dict__.get("_add")
        if table is None:
            table = self.add_index_rows(0, self.order)
            table.setflags(write=False)
            if table.size <= PAIR_TABLE_MAX:
                self.__dict__["_add"] = table  # as cached_property stores
        return table

    def sub_index_table(self) -> np.ndarray:
        """table[x, y] = flat index of g_x - g_y: the add table's columns
        taken at -g_y, a new array on each call."""
        return np.take(self.add_index_table(), self._neg, axis=1)

    @property
    def transform_error(self) -> float:
        """Forward-error constant c of this group's transforms: a computed
        DFT or inverse is within c u of the exact one y, relative to
        ||y||_2, u the unit roundoff, to first order (see ``_Plan``)."""
        return _plan(self.factor_sizes).error

    def __str__(self):
        return "x".join(f"Z{n}" for n in self.factor_sizes)


@functools.lru_cache(maxsize=None)
def _cyclic_neg(n: int) -> np.ndarray:
    """Read-only neg table of Z_n: entry r is -r mod n."""
    neg = -np.arange(n) % n
    neg.setflags(write=False)
    return neg


@functools.lru_cache(maxsize=None)
def _cyclic_add(n: int) -> np.ndarray:
    """Read-only add table of Z_n, [r, j] = (r + j) mod n.  Row r is
    0, ..., n - 1 rotated left by r, so the table is the n windows of length
    n into 0, ..., n - 1, 0, ..., n - 2: a view of 2n - 1 integers."""
    r = np.arange(n)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([r, r[:-1]]), n)


def _kron_index(sizes: tuple[int, ...], rows: np.ndarray, table) -> np.ndarray:
    """Index table of Z_{n1} x ... x Z_{nk} at the elements ``rows`` (flat
    indices), from the per-factor tables ``table(n)``, whose entry or row r
    holds Z_n's indices for residue r.  Split G = P x Q: the element a|Q| + b
    has P's entries for a times |Q| plus Q's entries for b, and for a row,
    column c|Q| + d holds P's entry c times |Q| plus Q's entry d: the
    Kronecker sum.  Each side is built the same way, halving the factors, so
    the result is the Horner sum that ``flat`` computes, as the same
    integers, and the full-size array is written once."""
    if len(sizes) == 1:
        return table(sizes[0])[rows]
    k = len(sizes) // 2
    q = math.prod(sizes[k:])
    a, b = np.divmod(rows, q)
    p, s = _kron_index(sizes[:k], a, table), _kron_index(sizes[k:], b, table)
    if p.ndim == 1:
        return p * q + s
    return (p[:, :, None] * q + s[:, None, :]).reshape(len(rows), p.shape[1] * q)


@dataclass(frozen=True)
class GroupElement:
    """An element of ``group`` by its residues, with no arithmetic: only the
    image record that ``LatticeHom`` accepts, built by ``from_index``."""

    group: FiniteAbelianGroup
    residues: tuple[int, ...]

    def __post_init__(self):
        if len(self.residues) != self.group.rank:
            raise DomainError(f"expected {self.group.rank} residues, got {len(self.residues)}")
        for r, n in zip(self.residues, self.group.factor_sizes):
            if not 0 <= r < n:
                raise DomainError(f"residue {r} out of range for factor Z{n}")


@dataclass(frozen=True, eq=False)
class GroupFunction:
    """Dense real-valued function on a finite Abelian group.

    Every public construction checks the values: real, one per element and
    finite.  Only ``lattices.pushforward`` builds it with ``_trusted``, which
    skips those checks: its values are a ``bincount`` of at most point-cap
    weights in [0, 1], so finite.
    """

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):  # a cast to float drops the imaginary parts
            raise DomainError("values must be real, got complex values")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.group.order,):
            raise DomainError(
                f"values length {vals.shape} != group order {self.group.order}"
            )
        # the array methods skip np.all's dispatch, which costs more than the
        # reduction on a small group
        if not np.isfinite(vals).all():
            raise DomainError("values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _trusted(cls, group: FiniteAbelianGroup, values: np.ndarray) -> "GroupFunction":
        """The function with these values, which the caller has proven to be
        a finite float64 (|G|,) array, built without ``__post_init__``'s
        checks; the array is made read-only."""
        f = object.__new__(cls)
        object.__setattr__(f, "group", group)
        values.setflags(write=False)
        object.__setattr__(f, "values", values)
        return f

    def at_index(self, i: int) -> float:
        return float(self.values[i])

    def is_even(self) -> bool:
        """f(-g) = f(g) to within REL_TOL * max|f| + ABS_TOL everywhere."""
        v = self.values
        gap = np.abs(v - v[self.group.neg_index_table()]).max(initial=0.0)
        return bool(gap <= REL_TOL * np.abs(v).max(initial=0.0) + ABS_TOL)

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


def phi(group: FiniteAbelianGroup, g0: int) -> GroupFunction:
    """delta(.-g0) + delta(.+g0) for the element of flat index g0; value 2
    at g0 when 2*g0 = 0."""
    neg = group.flat(np.negative(group.residues_of(g0)))  # refuses g0 out of range
    v = np.zeros(group.order)
    v[g0] += 1.0
    v[neg] += 1.0
    return GroupFunction(group, v)


def dft(f: GroupFunction) -> np.ndarray:
    """Forward transform with conjugated characters, as a complex (|G|,) array
    indexed like the group.

    f_hat(k) = sum_g f(g) exp(-2*pi*i sum_j k_j g_j / n_j); this makes the
    convolution theorem a plain pointwise product.
    """
    return _transform(f.values[None], _plan(f.group.factor_sizes).forward, f.group.order)[0]


# factors below this size are merged into dense blocks; larger ones keep the FFT
_DENSE_BELOW = 16
# most elements in one dense block
_BLOCK_CAP = 64


class _Plan(NamedTuple):
    """How a group's transforms run.  Each route is a tuple of steps
    (pre, m, post, op), last axis first: a transform of length m over the
    middle axis of each row reshaped to (pre, m, post), by ``op``, an np.fft
    function or the dense DFT block of a run of factors (``_dense_block``).
    ``forward`` is the DFT and ``inverse`` its inverse with the 1/|G|
    factor, every block complex.  ``error`` is the forward-error constant c
    of the standard model (Higham, "Accuracy and Stability of Numerical
    Algorithms", ch. 3 and 24): the computed transform is within
    c u ||y||_2 of the exact one y, to first order in u.  A dense block of m
    elements is an inner product of length m per value, gamma_m ~ m u; an
    FFT of length m adds about log2(m) u.  So c is the sum of the dense
    block sizes plus the sum of log2 of the FFT lengths.  The tests check it
    against an extended-precision character sum.

    ``half`` is the inverse of a real stack at half width.  Its first step's
    half set is H = {i : i <= -i} of its block (0, ..., m // 2 for an FFT
    step), so H and -H cover the block.  That step's op is the inverse
    block's columns at H on a dense step, and np.fft.ihfft on an FFT step
    that later steps follow.  On a one-step FFT plan it is
    rfft(norm="forward"), of which ihfft is the conjugate: the real parts
    and |Im| that ``idft_stack`` reads are the same.  Later steps have post
    at width |H| in place of m, and a block of Z_2's keeps its real inverse
    block, so products on real rows stay real.  ``width`` is the row length
    |G| |H| / m the half route leaves.  ``src`` maps each element k to its
    value in that row (rows: the other factors; columns: H): k itself or -k,
    the one with the smaller flat index when both are there; None when every
    k = -k."""

    forward: tuple[tuple[int, int, int, Callable | np.ndarray], ...]
    inverse: tuple[tuple[int, int, int, Callable | np.ndarray], ...]
    half: tuple[tuple[int, int, int, Callable | np.ndarray], ...]
    error: float
    width: int
    src: np.ndarray | None


@functools.lru_cache(maxsize=None)
def _plan(sizes: tuple[int, ...]) -> _Plan:
    """Runs of consecutive factors below _DENSE_BELOW, merged greedily from
    the first factor into blocks of at most _BLOCK_CAP elements; each larger
    factor on its own, by the FFT.  The multidimensional DFT is the Kronecker
    product of its factors' DFTs (Van Loan, "Computational Frameworks for the
    Fast Fourier Transform"), so any grouping of the axes gives the same
    transform, and each route is that product written as data."""
    segments: list[tuple[tuple[int, ...], bool]] = []  # (factors, dense)
    for n in sizes:
        if n >= _DENSE_BELOW:
            segments.append(((n,), False))
        elif segments and segments[-1][1] and math.prod(segments[-1][0]) * n <= _BLOCK_CAP:
            segments[-1] = (segments[-1][0] + (n,), True)
        else:
            segments.append(((n,), True))
    steps, pre, error = [], 1, 0.0
    total = math.prod(sizes)
    for factors, dense in segments:
        m = math.prod(factors)
        steps.append((pre, m, total // (pre * m), factors if dense else None))
        pre *= m
        error += m if dense else math.log2(m)
    steps.reverse()
    forward = tuple((p, n, q, np.fft.fft if f is None else _dense_block(f, False))
                    for p, n, q, f in steps)
    inverse = [(p, n, q, np.fft.ifft if f is None else _dense_block(f, True))
               for p, n, q, f in steps]
    # the half route
    pre, m, _, factors = steps[0]
    H = np.flatnonzero(np.arange(m) <= _kron_index(factors or (m,), np.arange(m), _cyclic_neg))
    if factors is not None:
        first = _readonly(inverse[0][3][:, H])
    else:
        first = np.fft.ihfft if len(steps) > 1 else functools.partial(np.fft.rfft, norm="forward")
    half = ((pre, m, 1, first),) + tuple((p, n, q // m * len(H), op) for p, n, q, op in inverse[1:])
    k = np.arange(total)
    neg_k = _kron_index(sizes, k, _cyclic_neg)
    src = None
    if np.any(neg_k != k):
        pos = np.full(m, -1)
        pos[H] = np.arange(len(H))
        held = pos[k % m] >= 0
        rep = np.where(held & ~(held[neg_k] & (neg_k < k)), k, neg_k)
        src = rep // m * len(H) + pos[rep % m]
        src.setflags(write=False)
    # a real Z_2 block cast once here, not by numpy on every complex product
    inverse = tuple((p, n, q, op if callable(op) else _readonly(op.astype(complex, copy=False)))
                    for p, n, q, op in inverse)
    return _Plan(forward, inverse, half, error, total // m * len(H), src)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _unit_roots(L: int) -> np.ndarray:
    """exp(-2 pi i p / L) for p = 0, ..., L - 1.  Each angle is reduced to
    within pi/4 of a quarter turn j pi/2 with integer arithmetic, so the
    quarter turns are exactly 1, -i, -1, i and roots p and L - p are exact
    conjugates."""
    p = np.arange(L)
    j = np.round(4 * p / L).astype(int)  # ties to even, so j(L - p) = 4 - j(p)
    delta = 2 * np.pi * (4 * p - j * L) / (4 * L)
    c, s = np.cos(delta), np.sin(delta)
    # rotate (cos delta, sin delta) by j quarter turns
    cos = np.choose(j % 4, [c, -s, -c, s])
    sin = np.choose(j % 4, [s, c, -s, -c])
    return cos - 1j * sin


@functools.lru_cache(maxsize=None)
def _dense_block(factors: tuple[int, ...], inverse: bool) -> np.ndarray:
    """Read-only DFT matrix of Z_{n1} x ... x Z_{nr}, entry [k, g] =
    exp(-2 pi i sum_j k_j g_j / n_j), conjugated and divided by the block
    order when inverse.  The phase is the exact integer sum_j (k_j g_j mod n_j)
    L/n_j mod L, L = lcm(n_j), so each entry is within a few ulps of its root
    of unity.  The matrix is symmetric, which lets one matrix act from either
    side.  An inverse block of Z_2's, whose DFT is exactly real, comes back
    real, so products on real rows stay real."""
    L = math.lcm(*factors)
    res = np.indices(factors).reshape(len(factors), -1)
    phase = sum(np.outer(r, r) % n * (L // n) for r, n in zip(res, factors)) % L
    mat = _unit_roots(L)[phase]
    if inverse:
        mat = mat.conj() / len(mat)
        if not mat.imag.any():
            mat = np.ascontiguousarray(mat.real)
    mat.setflags(write=False)
    return mat


def _transform(x: np.ndarray, steps, width: int) -> np.ndarray:
    """Each row of a (B, n) stack x taken through one route of a ``_Plan``,
    as a (B, width) array: |G| for ``forward`` and ``inverse``, the plan's
    ``width`` for ``half``.  It is complex unless every op is a real block.
    Each step's products have one shape per row, whatever B is, so a row's
    bits do not depend on the stack it is in (a single (B*pre, m) product
    would send B*pre = 1 down numpy's matrix-vector path, which rounds
    differently)."""
    B = x.shape[0]
    for pre, m, post, op in steps:
        if callable(op):
            x = op(x.reshape(B * pre, m, post) if post > 1 else x.reshape(B * pre, m), axis=1)
        elif post > 1:  # not the first step: the block is symmetric
            x = np.matmul(op, x.reshape(B * pre, m, post))
        elif np.iscomplexobj(x) or not np.iscomplexobj(op):
            x = np.matmul(x.reshape(B, pre, m), op)
        else:  # real rows: the block's float view holds (Re, Im) pairs as
            # complex memory does, so one real product gives the complex result
            x = np.matmul(x.reshape(B, pre, m), op.view(float)).view(complex)
    return x.reshape(B, width)


def idft_stack(group: FiniteAbelianGroup, spectra: np.ndarray) -> np.ndarray:
    """Inverse transform, with the 1/|G| factor, of each row of a (B, |G|)
    stack of spectra; returns the (B, |G|) real parts.

    Raises if the stack is not (B, |G|); before any transform runs, if a
    row's spectrum norm is not finite; and after it, if a row's imaginary
    residue exceeds IMAG_REL_TOL times that norm.  Each guard names the first
    row that fails it.  A smaller residue is discarded.  A row whose squares
    overflow is scaled by its largest |s| before squaring, so a finite row
    with a finite norm gets it.
    A finite norm does not make the values finite: an FFT factor scales by
    1/n after summing, so a sum can overflow (on Z64, a constant spectrum of
    1e307 gives inf at 0 with no residue).  ``idft`` refuses such a row.
    A real stack runs at half width (see the module docstring), and its rows
    come out exactly even.
    """
    if spectra.ndim != 2 or spectra.shape[1] != group.order:
        raise DomainError(f"spectra of shape {spectra.shape} are not rows of length {group.order}")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt(np.vecdot(spectra, spectra).real).tolist()
        for i, nrm in enumerate(norm):
            if not nrm < math.inf:  # its squares overflow, or it is not finite
                scale = float(np.abs(spectra[i]).max())
                row = spectra[i] / scale
                norm[i] = nrm = scale * math.sqrt(np.vecdot(row, row).real)
                if not nrm < math.inf:  # a NaN norm fails too
                    raise NumericalConsistencyError(f"spectrum norm of row {i} is not finite")
        # a sum that overflows gives inf or NaN values, which idft refuses
        plan = _plan(group.factor_sizes)
        if np.iscomplexobj(spectra):
            y, src = _transform(spectra, plan.inverse, group.order), None
        else:  # y(-k) = conj y(k) completes each row
            y, src = _transform(spectra, plan.half, plan.width), plan.src
    # real rows (Z_2 blocks only) have no residue; their .imag is a new zero array
    imag = np.abs(y.imag).max(axis=1) if np.iscomplexobj(y) else np.zeros(len(y))
    # take gives C order, as fancy indexing does not
    real = np.ascontiguousarray(y.real) if src is None else y.real.take(src, axis=1)
    for i, (res, nrm) in enumerate(zip(imag.tolist(), norm)):
        if not res <= IMAG_REL_TOL * max(nrm, ABS_TOL):  # a NaN residue fails too
            raise NumericalConsistencyError(
                f"imaginary residue {res:.3e} exceeds {IMAG_REL_TOL:.1e} * ||s|| (row {i})"
            )
    return real


def idft(group: FiniteAbelianGroup, spectrum: np.ndarray) -> GroupFunction:
    """Inverse transform carrying the 1/|G| factor: the one-row idft_stack.
    A row that overflows in the transform's sums is refused as not finite."""
    return GroupFunction(group, idft_stack(group, np.asarray(spectrum)[None])[0])


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f*g)(x) = sum_y f(x-y) g(y), through the transform: f and g go
    through the DFT as one two-row stack, each row as dft gives it."""
    _same_group(f, g)
    G = f.group
    s = _transform(np.array([f.values, g.values]), _plan(G.factor_sizes).forward, G.order)
    return idft(G, s[0] * s[1])


def cexp_spectral(upsilon: GroupFunction) -> GroupFunction:
    """Convolutional exponential via idft(exp(dft(upsilon))); a spectrum
    whose exp overflows is refused.

    Straight after a BLAS product, as dft's last step can be, np.exp of a
    complex array ran 20 times slower on a Xeon VM with OpenBLAS (1.6 ms
    against 0.07 ms on 4 096 entries): the product leaves the CPU's wide
    vector registers dirty, which slows the scalar code of the complex exp.
    Any NumPy vector loop clears that, and the overflow check's reduction
    runs in between.
    """
    z = dft(upsilon)
    if not z.real.max() <= _EXP_ARG_MAX:  # a NaN fails too
        raise NumericalConsistencyError(
            f"exp of the spectrum overflows: max Re z = {z.real.max():.6g}"
        )
    return idft(upsilon.group, np.exp(z))


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
    not finite (an overflow) is refused with NumericalConsistencyError.
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
            raise NumericalConsistencyError(f"cexp series term {n} is not finite")
        if n + 1 >= z_max and upper <= tol * max(lower, ABS_TOL):
            return idft(G, acc)
    raise DivergenceError(f"cexp series did not converge in {cap} terms")


def phi_basis_decompose(upsilon: GroupFunction) -> list[tuple[float, int]]:
    """Write an even nonnegative function as sum alpha_i * phi(g0_i), as
    (alpha_i, flat index of g0_i) pairs.

    One representative per {g0, -g0} orbit; the identity orbit contributes
    upsilon(0)/2 since phi(0) = 2*delta.  Zero-weight orbits are skipped.
    """
    G = upsilon.group
    neg = G.neg_index_table()
    vals = upsilon.values
    if np.any(vals < -ABS_TOL):
        raise DomainError("decomposition requires a nonnegative function")
    if not upsilon.is_even():
        raise DomainError("decomposition requires an even function")
    # each orbit's smaller index where upsilon > 0; phi doubles on self-inverse orbits
    idx = np.flatnonzero((np.arange(G.order) <= neg) & (vals > 0.0))
    alphas = np.where(idx == neg[idx], vals[idx] / 2.0, vals[idx])
    return list(zip(alphas.tolist(), idx.tolist()))


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
