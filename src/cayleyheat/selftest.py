"""Reduced-scale invariant suite behind the `selftest` CLI command.

Each entry exercises one module invariant at a scale that keeps the whole
run well under a minute; each gives one report, named after the invariant.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import checks
from .checks import CheckReport
from .approx import (
    cexp_pushforward_factorized,
    convergence_check_lemma37,
    rate_check_lemma35,
)
from .continuum import h3_abc, h3_monotone_check, h3_reduced_check
from .continuum import heat_lemma_check_h3, symmetric_ineq_check_h3
from .groups import (
    FiniteAbelianGroup,
    cexp_series,
    cexp_spectral,
    convolve,
    dft,
    idft,
    phi,
    phi_basis_decompose,
)
from .heat import (
    CayleyWeights,
    GeneralGraph,
    GroupFunction,
    default_t_grid,
    heat_matrix_general,
    heat_row_cayley,
    monotone_check_cayley,
)
from .lattices import Lattice, LatticeHom, pushforward_closure, random_hom


class InvariantFailure(Exception):
    """An invariant of the suite does not hold."""


def _require(cond, msg) -> None:
    """Raise InvariantFailure(msg) unless cond; unlike ``assert``, this also
    runs under ``python -O``."""
    if not cond:
        raise InvariantFailure(msg)


def _rng():
    return np.random.default_rng(12345)


def _random_even_nonneg(G, rng):
    v = rng.uniform(0, 1, G.order)
    v = v + v[G.neg_index_table()]
    return GroupFunction(G, v)


def _cexp_by_eigh(u: GroupFunction) -> GroupFunction:
    """cexp(u) by a route that shares no transform: exp of the symmetric
    circulant C[x, y] = u(x - y) through eigh; C is convolution with u, so
    column 0 of exp(C) is cexp(u) applied to delta."""
    evals, Q = np.linalg.eigh(u.values[u.group.sub_index_table()])
    return GroupFunction(u.group, (Q * np.exp(evals)) @ Q[0])


def _check_group_core():
    G = FiniteAbelianGroup((2, 3, 4))
    rng = _rng()
    f = GroupFunction(G, rng.normal(size=G.order))
    g = GroupFunction(G, rng.normal(size=G.order))
    direct = f.values[G.sub_index_table()] @ g.values  # sum_y f(x-y) g(y)
    _require(
        np.allclose(direct, convolve(f, g).values, atol=1e-10),
        "direct and spectral convolution differ",
    )
    _require(np.allclose(idft(G, dft(f)).values, f.values, atol=1e-12), "idft(dft(f)) != f")
    u = _random_even_nonneg(G, rng)
    by_eigh = _cexp_by_eigh(u).values
    for name, cexp in (("spectral", cexp_spectral(u)), ("series", cexp_series(u, 1e-14))):
        _require(
            np.allclose(cexp.values, by_eigh, rtol=1e-9, atol=1e-12),
            f"{name} cexp differs from exp of the circulant",
        )
    recomposed = sum(alpha * phi(G, g0).values for alpha, g0 in phi_basis_decompose(u))
    _require(np.allclose(recomposed, u.values), "phi-basis decomposition does not recompose")


def _check_pushforward_closure():
    G = FiniteAbelianGroup((6,))
    rng = _rng()
    for _ in range(5):
        h1 = random_hom(G, rng, 2)
        h2 = LatticeHom(
            Lattice.integers(rng.uniform(0.7, 1.5)), G, (G.from_index(int(rng.integers(6))),)
        )
        c = pushforward_closure(h1, h2)
        _require(
            c.passed,
            f"closure errors: direct sum {c.direct_sum_err:.3e}, fiber product {c.fiber_err:.3e}",
        )
        chi1 = c.chi1
        scale = chi1.at_index(0)
        _require_sweep_replays(chi1, checks.sweep_rsd, checks.check_rsd, 1e-12 * scale**4)
        _require_sweep_replays(
            chi1, checks.sweep_mean_ineq, checks.check_mean_ineq, 1e-12 * scale**2
        )


def _require_sweep_replays(chi, sweep, single, tol):
    """The sweep passes, and its witness pair, re-checked on its own, gives
    the sweep's worst margin bitwise (signed zeros included)."""
    rep = sweep(chi, tol)
    _require(rep.passed, rep)
    g1, g2 = (
        chi.group.flat([int(r) for r in res.split(",")])
        for res in re.findall(r"\(([^)]*)\)", rep.witness)
    )
    again = single(chi, g1, g2, tol).worst_margin
    _require(again.hex() == rep.worst_margin.hex(), (rep.witness, again, rep.worst_margin))


def _check_rate_lemma35():
    G = FiniteAbelianGroup((12,))
    rr = rate_check_lemma35(1.0, G, 1, ns=(16, 32, 64, 128))
    _require(rr.passed, f"fitted order {rr.fitted_order}")


def _check_convergence_lemma37():
    G = FiniteAbelianGroup((8,))
    rr = convergence_check_lemma37(1.0, G, 1, ns=(16, 64, 256))
    _require(rr.passed, rr)


def _check_factorized_cexp():
    """The paper's construction: cexp(upsilon) as the limit of products of
    Gaussian pushforward powers, whose error falls as n grows.  The limit is
    taken by the eigh route, so a fault in the shared inverse transform
    cannot cancel."""
    G = FiniteAbelianGroup((8,))
    u = _random_even_nonneg(G, _rng())
    exact = _cexp_by_eigh(u)
    errors = [(cexp_pushforward_factorized(u, n) - exact).sup_norm() for n in (16, 64, 256)]
    _require(errors[0] > errors[1] > errors[2], f"errors {errors} do not fall with n")


def _check_heat_cayley():
    G = FiniteAbelianGroup((2,))
    w = GroupFunction(G, np.array([0.0, 1.0]))
    cw = CayleyWeights(G, w)
    row = heat_row_cayley(cw, 1.0).values
    _require(abs(row[0] - (1 + math.exp(-2)) / 2) < 1e-12, "Z2 heat row at 0")
    _require(abs(row[1] / row[0] - math.tanh(1.0)) < 1e-12, "Z2 heat ratio != tanh")
    rng = _rng()
    G12 = FiniteAbelianGroup((12,))
    v = rng.uniform(0, 2, 12)
    v = v + v[G12.neg_index_table()]
    v[0] = 0
    cw12 = CayleyWeights(G12, GroupFunction(G12, v))
    rep = monotone_check_cayley(cw12, default_t_grid(count=12), 1e-10)
    _require(rep.passed, rep)
    # circulant embedding (v[0] = 0: zero diagonal) agrees with the eigensolver route
    H = heat_matrix_general(GeneralGraph(v[G12.sub_index_table()]), 0.7)
    row = heat_row_cayley(cw12, 0.7).values
    _require(np.max(np.abs(H[0] - row)) < 1e-9, "circulant eigh row != Cayley row")


def _check_continuum():
    # the reduced check reports the violation at d1 = 3, t = 1, and both
    # unreduced triple checks fail on the points of h3_abc(3) there
    ls, rs, violated = h3_reduced_check(3.0, 1.0)
    _require(violated and ls > rs, (ls, rs, violated))
    triple = h3_abc(3.0)
    for check in (symmetric_ineq_check_h3, heat_lemma_check_h3):
        rep = check(*triple, 1.0)
        _require(not rep.passed, rep)
    rep = h3_monotone_check(2.0, np.geomspace(0.1, 10, 15))
    _require(rep.passed, rep)


INVARIANTS = [
    ("group_core", _check_group_core),
    ("pushforward_closure_and_inequalities", _check_pushforward_closure),
    ("lemma35_rate", _check_rate_lemma35),
    ("lemma37_convergence", _check_convergence_lemma37),
    ("factorized_cexp_convergence", _check_factorized_cexp),
    ("cayley_heat", _check_heat_cayley),
    ("continuum", _check_continuum),
]


def run() -> list[CheckReport]:
    """Run every invariant; one report each, named after the invariant.

    An invariant holds or not, so the margin is 0.0. A failed report's
    witness is the failure message, or the exception when the invariant's
    own machinery raised."""
    reports = []
    for name, fn in INVARIANTS:
        passed, witness = True, ""
        try:
            fn()
        except InvariantFailure as exc:
            passed, witness = False, str(exc)
        except Exception as exc:  # invariant machinery itself broke
            passed, witness = False, repr(exc)
        reports.append(CheckReport(passed, 0.0, witness, 1, name))
    return reports
