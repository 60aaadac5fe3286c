import math

import numpy as np
import pytest

from perfbench import oracles


def test_pair_minima_match_the_library_sweeps():
    from cayleyheat.checks import sweep_mean_ineq, sweep_rsd
    from cayleyheat.groups import FiniteAbelianGroup, GroupFunction

    G = FiniteAbelianGroup((4, 6))
    rng = np.random.default_rng(0)
    chi = GroupFunction(G, rng.random(G.order) + 0.1)
    rsd, mean = oracles.pair_margin_minima(chi.values, G.factor_sizes)
    assert rsd == pytest.approx(sweep_rsd(chi, 0.0).worst_margin, abs=1e-14)
    assert mean == pytest.approx(sweep_mean_ineq(chi, 0.0).worst_margin, abs=1e-14)


def test_h3_gap_matches_the_library_and_stays_finite():
    from cayleyheat.continuum import h3_reduced_log

    for d1, t in ((0.1, 1.0), (3.0, 0.2), (30.0, 5.0), (300.0, 1.0)):
        log_ls, log_rs = h3_reduced_log(d1, t)
        assert oracles.h3_reduced_gap(d1, t) == pytest.approx(log_ls - log_rs, rel=1e-9)
    assert math.isfinite(oracles.h3_reduced_gap(1000.0, 0.05))
    assert oracles.h3_reduced_gap(1000.0, 0.05) > 0


def test_legendre_oracle_matches_the_library_series():
    from cayleyheat.continuum import rp2_heat, sphere_heat

    x = np.array([-1.0, -0.3, 0.2, 0.9, 1.0])
    for t in (0.05, 1.0):
        assert np.allclose(oracles.legendre_heat(x, t, 200, False), sphere_heat(x, t)[0], rtol=1e-12)
        assert np.allclose(oracles.legendre_heat(x, t, 200, True), rp2_heat(x, t)[0], rtol=1e-12)


def test_general_monotone_oracle_matches_the_library():
    from cayleyheat.heat import GeneralGraph, monotone_violation_search

    W = np.array([[0.0, 5.0, 0.1], [5.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
    t = np.geomspace(0.05, 50.0, 20)
    ref = oracles.general_monotone_minimum(W, t)
    assert ref == pytest.approx(monotone_violation_search(GeneralGraph(W), t).worst_margin, abs=1e-12)


def test_seed_box_rule_predicts_the_library_fiber_product():
    from cayleyheat.lattices import _enumeration_box, fiber_product

    from perfbench import workloads as W

    rng = np.random.default_rng(3)
    w = W.LatticeClosure()
    for G in w.group_objs:
        for d1, d2 in w.dims:
            for _ in range(5):
                b1, b2 = W._skewed_bases(rng, 1, d1)[0], W._skewed_bases(rng, 1, d2)[0]
                i1, i2 = rng.integers(0, G.order, d1), rng.integers(0, G.order, d2)
                hf = fiber_product(W._hom(G, b1, i1), W._hom(G, b2, i2))
                r1, r2 = (np.array(np.unravel_index(i, G.factor_sizes)) for i in (i1, i2))
                basis = W._fiber_basis(b1, b2, r1, r2, G.factor_sizes)
                assert np.array_equal(basis, hf.lattice.basis)
                _, m, _ = _enumeration_box(hf.lattice, 1e-12, 10**30)
                assert W._seed_box_m(basis[None])[0] == m


def test_lattice_batch_is_fixed_by_the_seed_and_fits_the_cap():
    from perfbench import workloads as W

    a, b = W.LatticeClosure(), W.LatticeClosure()
    a.generate(7)
    b.generate(7)
    assert len(a.entries) == a.batch and all(e is not None for e in a.entries)
    for (ga, ra), (gb, rb) in zip(a.entries, b.entries):
        assert ga == gb and all(np.array_equal(x, y) for x, y in zip(ra, rb))
    assert a.probe_entries
