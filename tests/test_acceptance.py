"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import json
import math
import time

import numpy as np
import pytest

from cayleyheat.approx import convergence_check_lemma37, rate_check_lemma35
from cayleyheat.checks import sweep_mean_ineq, sweep_rsd
from cayleyheat.continuum import (
    h3_monotone_check,
    h3_reduced_check,
    h3_reduced_log,
    random_sphere_point,
    symmetric_ineq_check_sphere,
)
from cayleyheat.groups import (
    FiniteAbelianGroup,
    GroupFunction,
    cexp_series,
    cexp_spectral,
    convolve,
)
from cayleyheat.heat import (
    CayleyWeights,
    GeneralGraph,
    default_t_grid,
    heat_matrix_general,
    heat_row_cayley,
    monotone_check_cayley,
    search_monotonicity_violations,
)
from cayleyheat.lattices import direct_sum, fiber_product, pushforward, random_hom

from ctrw import ctrw_simulate


def report(num, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num}: {status} {detail}")
    assert passed, detail


def random_even_weights(G, rng, scale=2.0):
    v = rng.uniform(0, scale, G.order)
    v = v + v[G.neg_index_table()]
    v[0] = 0.0
    return CayleyWeights(G, GroupFunction(G, v))


SMALL_GROUPS = [(6,), (12,), (24,), (2, 4), (3, 3), (2, 2, 2), (8,), (2, 12)]

BIG_GROUPS = [
    (256,), (128, 2), (16, 16), (64, 4), (101,), (243,), (2, 2, 2, 2, 2),
    (12, 4), (25, 5), (7, 11), (32,), (48,), (6, 6), (255,), (81, 3),
]


@pytest.fixture(scope="module")
def pushforward_corpus():
    """The pushforwards built for criteria 2-3, reused by criterion 4."""
    rng = np.random.default_rng(20260823)
    corpus = []
    for i in range(50):
        G = FiniteAbelianGroup(SMALL_GROUPS[i % len(SMALL_GROUPS)])
        h1, h2 = random_hom(G, rng, 2), random_hom(G, rng, 2)
        chi1 = pushforward(h1, 1e-12)
        chi2 = pushforward(h2, 1e-12)
        chi_ds = pushforward(direct_sum(h1, h2), 1e-12)
        chi_fp = pushforward(fiber_product(h1, h2), 1e-12)
        corpus.append((G, h1, h2, chi1, chi2, chi_ds, chi_fp))
    return corpus


def test_criterion_01_theorem_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    grid = default_t_grid(0.05, 50.0, 20)
    worst = math.inf
    for i in range(100):
        G = FiniteAbelianGroup(BIG_GROUPS[i % len(BIG_GROUPS)])
        cw = random_even_weights(G, rng)
        rep = monotone_check_cayley(cw, grid, 1e-10)
        worst = min(worst, rep.worst_margin)
        if not rep.passed:
            report(1, False, f"violation on {G}: {rep.witness}")
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst >= -1e-10 and elapsed < 30,
        f"100 Cayley graphs, worst margin {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_direct_sum_oracle(pushforward_corpus):
    t0 = time.perf_counter()
    max_err = 0.0
    for G, h1, h2, chi1, chi2, chi_ds, _ in pushforward_corpus:
        conv = convolve(chi1.chi, chi2.chi)
        max_err = max(max_err, float(np.max(np.abs(conv.values - chi_ds.chi.values))))
    elapsed = time.perf_counter() - t0
    report(
        2,
        max_err < 1e-8 and elapsed < 60,
        f"50 instances, max |conv - direct_sum| = {max_err:.3e}, {elapsed:.1f}s",
    )


def test_criterion_03_fiber_product_oracle(pushforward_corpus):
    max_err = 0.0
    for G, h1, h2, chi1, chi2, _, chi_fp in pushforward_corpus:
        prod = chi1.chi.values * chi2.chi.values
        max_err = max(max_err, float(np.max(np.abs(prod - chi_fp.chi.values))))
    report(3, max_err < 1e-8, f"50 instances, max |product - fiber| = {max_err:.3e}")


def test_criterion_04_inequality_sweeps(pushforward_corpus):
    worst_rel = math.inf
    for _, _, _, chi1, chi2, chi_ds, chi_fp in pushforward_corpus:
        for res in (chi1, chi2, chi_ds, chi_fp):
            chi = res.chi
            c0 = chi.at_index(0)
            if c0 <= 0:
                continue
            rsd = sweep_rsd(chi, 1e-12 * c0**4)
            mean = sweep_mean_ineq(chi, 1e-12 * c0**2)
            worst_rel = min(
                worst_rel, rsd.worst_margin / c0**4, mean.worst_margin / c0**2
            )
            if not (rsd.passed and mean.passed):
                report(4, False, f"sweep failed: {rsd.witness} / {mean.witness}")
    report(4, worst_rel >= -1e-12, f"worst relative margin {worst_rel:.3e}")


def test_criterion_05_lemma35_rate():
    G = FiniteAbelianGroup((12,))
    rr = rate_check_lemma35(1.0, G, 1, ns=(16, 32, 64, 128, 256))
    ratios_ok = all(
        2**-5 <= e2 / e1 <= 2**-3 for e1, e2 in zip(rr.errors, rr.errors[1:])
    )
    report(
        5,
        rr.fitted_order <= -3.5 and ratios_ok,
        f"fitted order {rr.fitted_order:.3f}, ratios {[f'{b/a:.4f}' for a, b in zip(rr.errors, rr.errors[1:])]}",
    )


def test_criterion_06_lemma37_convergence():
    G = FiniteAbelianGroup((8,))
    ok = True
    details = []
    for alpha in (0.5, 1.0, 2.0):
        rr = convergence_check_lemma37(alpha, G, 1, ns=(16, 64, 256))
        decreasing = all(b < a for a, b in zip(rr.errors, rr.errors[1:]))
        drop = rr.errors[0] / rr.errors[-1]
        ok = ok and decreasing and drop >= 4
        details.append(f"alpha={alpha}: drop {drop:.1f}x")
    report(6, ok, "; ".join(details))


def test_criterion_07_cexp_consistency():
    rng = np.random.default_rng(77)
    max_gap = eigh_gap = 0.0
    for i in range(100):
        G = FiniteAbelianGroup(SMALL_GROUPS[i % len(SMALL_GROUPS)])
        v = rng.uniform(0, 1, G.order)
        v = v + v[G.neg_index_table()]
        u = GroupFunction(G, v)
        s = cexp_series(u, 1e-14)
        p = cexp_spectral(u)
        max_gap = max(max_gap, float(np.max(np.abs(s.values - p.values))) / p.sup_norm())
        # a route that shares no transform: the circulant C[x, y] = u(x - y)
        # is convolution with u, so column 0 of exp(C), through eigh, is cexp(u)
        evals, Q = np.linalg.eigh(v[G.sub_index_table()])
        by_eigh = (Q * np.exp(evals)) @ Q[0]
        for c in (s, p):
            eigh_gap = max(eigh_gap, float(np.max(np.abs(c.values - by_eigh))) / p.sup_norm())
    series_ok = max_gap < 1e-9 and eigh_gap < 1e-9

    G = FiniteAbelianGroup((2, 6))
    cw = random_even_weights(G, rng)
    a = heat_row_cayley(cw, 0.7)
    b = heat_row_cayley(cw, 1.4)
    ab = heat_row_cayley(cw, 2.1)
    semigroup_gap = float(np.max(np.abs(convolve(a, b).values - ab.values)))

    circ_gap = 0.0
    for _ in range(10):
        G = FiniteAbelianGroup((12,))
        cw = random_even_weights(G, rng)
        W = cw.w.values[G.sub_index_table()]
        H = heat_matrix_general(GeneralGraph(W), 0.9)
        row = heat_row_cayley(cw, 0.9).values
        circ_gap = max(circ_gap, float(np.max(np.abs(H[0] - row))))
    report(
        7,
        series_ok and semigroup_gap < 1e-10 and circ_gap < 1e-9,
        f"series/spectral {max_gap:.2e}, eigh {eigh_gap:.2e}, semigroup {semigroup_gap:.2e}, "
        f"circulant {circ_gap:.2e}",
    )


def test_criterion_08_monte_carlo():
    cw6 = CayleyWeights.from_dict({"group": "Z6", "weights": {"1": 1.0}})
    emp = ctrw_simulate(cw6, 0.7, 10**6, seed=7)
    row = heat_row_cayley(cw6, 0.7).values
    tv = 0.5 * float(np.sum(np.abs(emp.values - row)))

    cw2 = CayleyWeights.from_dict({"group": "Z2", "weights": {"1": 1.0}})
    emp2 = ctrw_simulate(cw2, 1.0, 10**6, seed=42)
    p = (1 - math.exp(-2)) / 2
    sigma = math.sqrt(p * (1 - p) / 10**6)
    z2_dev = abs(float(emp2.values[1]) - p)
    report(
        8,
        tv < 0.005 and z2_dev < 3 * sigma,
        f"Z6 TV {tv:.4f} (< 0.005), Z2 deviation {z2_dev:.5f} (< {3*sigma:.5f})",
    )


def test_criterion_09_h3_violation():
    t0 = time.perf_counter()
    ls, rs, violated = h3_reduced_check(3.0, 1.0)
    values_ok = abs(ls / 9.96e-4 - 1) < 0.01 and abs(rs / 4.53e-5 - 1) < 0.01

    t = 1.0
    d1s = np.linspace(5.0, 30.0, 60)
    c_ls = np.polyfit(d1s, [h3_reduced_log(d, t)[0] for d in d1s], 2)[0]
    c_rs = np.polyfit(d1s, [h3_reduced_log(d, t)[1] for d in d1s], 2)[0]
    fit_ok = abs(c_ls + 0.5) < 0.05 and abs(c_rs + 1.0) < 0.1
    elapsed = time.perf_counter() - t0
    report(
        9,
        violated and values_ok and fit_ok and elapsed < 1.0,
        f"LS={ls:.4e}, RS={rs:.4e}, quad coeffs {c_ls:.3f}/{c_rs:.3f}, {elapsed:.2f}s",
    )


def test_criterion_10_sphere_claim():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    t_values = (0.05, 0.2, 1.0, 5.0)
    worst = math.inf
    count = 0
    for space in ("S2", "RP2"):
        for i in range(1000):
            a, b, c = (random_sphere_point(rng) for _ in range(3))
            t = t_values[i % 4]
            rep = symmetric_ineq_check_sphere(space, a, b, c, t, l_max=200)
            count += 1
            worst = min(worst, rep.worst_margin)
            if not rep.passed:
                report(10, False, f"violation on {space}: {rep.witness}")
    elapsed = time.perf_counter() - t0
    report(
        10,
        elapsed < 120,
        f"{count} instances, worst margin {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_11_h3_monotone():
    ok = True
    details = []
    for d in (0.5, 2.0, 8.0):
        rep = h3_monotone_check(d, default_t_grid(0.05, 50.0, 20))
        ok = ok and rep.passed
        details.append(f"d={d}: margin {rep.worst_margin:.2e}")
    report(11, ok, "; ".join(details))


def test_criterion_12_violation_search():
    found = search_monotonicity_violations(8, 5000, seed=7)
    if not found:
        report(12, False, "no violation found in 5000 trials; raise the budget")
    g, rep = found[0]
    witness = json.dumps({"W": g.W.tolist(), "witness": rep.witness})
    report(
        12,
        len(found) >= 1 and len(witness) > 0,
        f"violation found, margin {rep.worst_margin:.3e}, witness serialized ({len(witness)} bytes)",
    )
