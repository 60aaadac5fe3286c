import json
import math
import tracemalloc

import numpy as np
import pytest

from cayleyheat import heat
from cayleyheat.checks import CheckReport
from cayleyheat.errors import DomainError, NumericalConsistencyError
from cayleyheat.groups import (
    FiniteAbelianGroup,
    GroupFunction,
    cexp_series,
    convolve,
    dft,
    idft,
    idft_stack,
)
from cayleyheat.heat import (
    CayleyWeights,
    GeneralGraph,
    default_t_grid,
    heat_matrix_general,
    heat_row_cayley,
    monotone_check_cayley,
    monotone_violation_search,
    random_heavy_tailed_graph,
    search_monotonicity_violations,
)

from ctrw import ctrw_simulate

GROUP_POOL = [
    (2,), (3,), (5,), (8,), (12,), (17,), (24,),
    (2, 2), (2, 4), (3, 3), (2, 2, 2), (6, 4),
]


def random_weights(G, rng, scale=2.0):
    v = rng.uniform(0, scale, G.order)
    v = v + v[G.neg_index_table()]
    v[0] = 0.0
    return CayleyWeights(G, GroupFunction(G, v))


def unit_cycle_weights(n):
    G = FiniteAbelianGroup((n,))
    v = np.zeros(n)
    v[1] = 1.0
    v[n - 1] += 1.0 if n > 2 else 0.0
    if n == 2:
        v[1] = 1.0
    return CayleyWeights(G, GroupFunction(G, v))


def sparse_weights(G, rng, gens=6):
    """A few random generators with weights in [0.1, 1], mirrored."""
    v = np.zeros(G.order)
    neg = G.neg_index_table()
    for g in rng.integers(1, G.order, size=gens):
        v[g] = v[neg[g]] = rng.uniform(0.1, 1.0)
    return CayleyWeights(G, GroupFunction(G, v))


def loop_monotone_cayley(cw, t_grid, tol=1e-10):
    """Reference check: one DFT, exponential and inverse DFT per t, keeping
    the first strictly smaller step."""
    worst, witness, count, prev = math.inf, "", 0, None
    for t in np.asarray(t_grid, dtype=float):
        spec = np.exp(t * dft(cw.w).real - t * cw.degree)
        row = idft(cw.group, spec).values
        ratio = row / row[0]
        if prev is not None:
            margins = ratio - prev
            v = int(np.argmin(margins))
            count += len(margins)
            if margins[v] < worst:
                worst = float(margins[v])
                witness = f"v={cw.group.from_index(v)}, t={prev_t:.6g}, t'={t:.6g}"
        prev, prev_t = ratio, t
    return CheckReport(worst >= -tol, worst, witness, count, "monotone_cayley")


def loop_monotone_general(g, t_grid, tol=1e-10):
    """Reference check: one eigendecomposition per t."""
    worst, witness, count, prev = math.inf, "", 0, None
    for t in np.asarray(t_grid, dtype=float):
        evals, Q = np.linalg.eigh(g.laplacian())
        H = (Q * np.exp(-t * evals)) @ Q.T
        ratio = H / np.diag(H)[:, None]
        if prev is not None:
            margins = ratio - prev
            u, v = np.unravel_index(int(np.argmin(margins)), margins.shape)
            count += margins.size
            if margins[u, v] < worst:
                worst = float(margins[u, v])
                witness = f"u={u}, v={v}, t={prev_t:.6g}, t'={t:.6g}"
        prev, prev_t = ratio, t
    return CheckReport(worst >= -tol, worst, witness, count, "monotone_general")


def assert_same_report(rep, ref):
    assert rep.worst_margin.hex() == ref.worst_margin.hex()
    assert (rep.witness, rep.count, rep.passed, rep.name) == (
        ref.witness, ref.count, ref.passed, ref.name
    )


class TestCayleyWeights:
    def test_rejects_identity_weight(self):
        G = FiniteAbelianGroup((4,))
        with pytest.raises(DomainError):
            CayleyWeights(G, GroupFunction(G, np.array([1.0, 0, 0, 0])))

    def test_rejects_uneven(self):
        G = FiniteAbelianGroup((4,))
        with pytest.raises(DomainError):
            CayleyWeights(G, GroupFunction(G, np.array([0.0, 1.0, 0, 0])))

    def test_from_dict_mirrors(self):
        cw = CayleyWeights.from_dict({"group": "Z12", "weights": {"1": 2.5, "3": 1.0}})
        assert cw.w.values[1] == 2.5
        assert cw.w.values[11] == 2.5
        assert cw.w.values[9] == 1.0
        assert cw.degree == 2 * (2.5 + 1.0)

    def test_from_dict_rejects_identity_index(self):
        with pytest.raises(DomainError):
            CayleyWeights.from_dict({"group": "Z4", "weights": {"0": 1.0}})


class TestHeatRowCayley:
    def test_z2_closed_form(self):
        G = FiniteAbelianGroup((2,))
        cw = CayleyWeights(G, GroupFunction(G, np.array([0.0, 1.0])))
        for t in (0.1, 1.0, 5.0):
            row = heat_row_cayley(cw, t).values
            assert abs(row[0] - (1 + math.exp(-2 * t)) / 2) < 1e-12
            assert abs(row[1] - (1 - math.exp(-2 * t)) / 2) < 1e-12

    def test_z3_closed_form(self):
        G = FiniteAbelianGroup((3,))
        cw = CayleyWeights(G, GroupFunction(G, np.array([0.0, 1.0, 1.0])))
        t = 0.9
        row = heat_row_cayley(cw, t).values
        assert abs(row[0] - (1 + 2 * math.exp(-3 * t)) / 3) < 1e-12

    def test_t_to_zero_approaches_delta(self):
        rng = np.random.default_rng(2)
        G = FiniteAbelianGroup((8,))
        cw = random_weights(G, rng)
        row = heat_row_cayley(cw, 1e-8).values
        assert row[0] > 1 - 1e-6
        assert np.all(row[1:] < 1e-6)

    def test_row_sums_to_one_and_positive(self):
        rng = np.random.default_rng(3)
        G = FiniteAbelianGroup((12,))
        cw = random_weights(G, rng)
        for t in (1e-3, 0.1, 1.0, 10.0, 100.0):
            row = heat_row_cayley(cw, t).values
            assert abs(row.sum() - 1.0) < 1e-10
            assert np.all(row > 0)

    def test_semigroup(self):
        rng = np.random.default_rng(4)
        G = FiniteAbelianGroup((2, 4))
        cw = random_weights(G, rng)
        a = heat_row_cayley(cw, 0.6)
        b = heat_row_cayley(cw, 1.1)
        ab = heat_row_cayley(cw, 1.7)
        assert np.max(np.abs(convolve(a, b).values - ab.values)) < 1e-10

    def test_matches_series_route(self):
        # exp(-t*deg) * cexp(t*w) computed directly via the series definition
        rng = np.random.default_rng(5)
        G = FiniteAbelianGroup((6,))
        cw = random_weights(G, rng, scale=1.0)
        t = 0.8
        row = heat_row_cayley(cw, t).values
        series = math.exp(-t * cw.degree) * cexp_series(t * cw.w, 1e-15).values
        assert np.max(np.abs(row - series)) < 1e-9

    def test_rejects_nonpositive_t(self):
        G = FiniteAbelianGroup((2,))
        cw = CayleyWeights(G, GroupFunction(G, np.array([0.0, 1.0])))
        with pytest.raises(DomainError):
            heat_row_cayley(cw, 0.0)


class TestHeatMatrixGeneral:
    def test_single_edge_closed_form(self):
        w = 1.7
        g = GeneralGraph(np.array([[0.0, w], [w, 0.0]]))
        t = 0.6
        H = heat_matrix_general(g, t)
        assert abs(H[1, 1] - (1 + math.exp(-2 * w * t)) / 2) < 1e-12

    def test_t_to_zero_identity(self):
        g = GeneralGraph(np.array([[0.0, 1.0, 0.5], [1.0, 0, 0], [0.5, 0, 0]]))
        H = heat_matrix_general(g, 1e-9)
        assert np.max(np.abs(H - np.eye(3))) < 1e-6

    def test_doubly_stochastic_symmetric(self):
        rng = np.random.default_rng(6)
        g = random_heavy_tailed_graph(6, rng)
        H = heat_matrix_general(g, 0.3)
        assert np.allclose(H, H.T, atol=1e-9)
        assert np.allclose(H.sum(axis=1), 1.0, atol=1e-9)
        assert np.min(H) >= -1e-12

    def test_matches_cayley_on_circulant(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            sizes = GROUP_POOL[trial % len(GROUP_POOL)]
            G = FiniteAbelianGroup(sizes)
            cw = random_weights(G, rng)
            n = G.order
            sub = G.sub_index_table()
            W = cw.w.values[sub]
            H = heat_matrix_general(GeneralGraph(W), 0.9)
            row = heat_row_cayley(cw, 0.9).values
            assert np.max(np.abs(H[0] - row)) < 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            GeneralGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestMonotonicity:
    def test_z2_ratio_is_tanh(self):
        G = FiniteAbelianGroup((2,))
        cw = CayleyWeights(G, GroupFunction(G, np.array([0.0, 1.0])))
        row = heat_row_cayley(cw, 1.0).values
        assert abs(row[1] / row[0] - 0.7615941559557649) < 1e-10

    def test_random_z12_sweep(self):
        rng = np.random.default_rng(8)
        G = FiniteAbelianGroup((12,))
        grid = 0.1 * 1.3 ** np.arange(21)
        for _ in range(10):
            cw = random_weights(G, rng)
            assert monotone_check_cayley(cw, grid, 1e-10).passed

    def test_identity_ratio_constant(self):
        rng = np.random.default_rng(9)
        G = FiniteAbelianGroup((6,))
        cw = random_weights(G, rng)
        for t in (0.2, 2.0):
            row = heat_row_cayley(cw, t).values
            assert row[0] / row[0] == 1.0

    def test_disconnected_support_trivially_monotone(self):
        # weights generating a proper subgroup: unreachable ratios stay 0
        G = FiniteAbelianGroup((8,))
        v = np.zeros(8)
        v[2] = v[6] = 1.0
        cw = CayleyWeights(G, GroupFunction(G, v))
        rep = monotone_check_cayley(cw, default_t_grid(count=10), 1e-10)
        assert rep.passed

    def test_sweep_over_group_pool(self):
        rng = np.random.default_rng(10)
        grid = default_t_grid(count=10)
        for sizes in GROUP_POOL:
            cw = random_weights(FiniteAbelianGroup(sizes), rng)
            assert monotone_check_cayley(cw, grid, 1e-10).passed

    def test_complete_graph_no_violation(self):
        n = 5
        W = np.ones((n, n)) - np.eye(n)
        rep = monotone_violation_search(GeneralGraph(W), default_t_grid(count=10))
        assert rep.passed

    def test_cayley_instance_no_violation_general_route(self):
        G = FiniteAbelianGroup((6,))
        cw = random_weights(G, np.random.default_rng(11))
        W = cw.w.values[G.sub_index_table()]
        rep = monotone_violation_search(GeneralGraph(W), default_t_grid(count=10))
        assert rep.passed

    def test_violation_search_finds_instance(self):
        found = search_monotonicity_violations(8, 5000, seed=7)
        assert found, "no violating graph found within budget"
        g, rep = found[0]
        assert not rep.passed
        # re-verify the witness on a fresh check
        again = monotone_violation_search(g, default_t_grid())
        assert not again.passed


class TestTGridBatch:
    """The batched t-grid against the per-t loops: bitwise-equal worst
    margins and the same witness, count and verdict."""

    def cayley_cases(self):
        rng = np.random.default_rng(21)
        for sizes in [(32,), (2,) * 10, (64, 64), (4,) * 6, (12,), (2, 3)]:
            G = FiniteAbelianGroup(sizes)
            yield sparse_weights(G, rng)
            yield sparse_weights(G, rng, gens=2)
            if G.order <= 64:
                yield random_weights(G, rng)
        # a proper subgroup's support: every unreachable step ties at 0
        G = FiniteAbelianGroup((8,))
        yield CayleyWeights(G, GroupFunction(G, np.array([0, 0, 1.0, 0, 0, 0, 1.0, 0])))

    def general_cases(self):
        rng = np.random.default_rng(22)
        for n in range(3, 9):
            for _ in range(8):
                yield random_heavy_tailed_graph(n, rng)
        yield GeneralGraph(np.ones((5, 5)) - np.eye(5))

    @pytest.mark.parametrize("grid", [default_t_grid(), 0.1 * 1.3 ** np.arange(21)])
    def test_cayley_matches_per_t_loop(self, grid):
        for cw in self.cayley_cases():
            assert_same_report(monotone_check_cayley(cw, grid), loop_monotone_cayley(cw, grid))

    @pytest.mark.parametrize("grid", [default_t_grid(), 0.1 * 1.3 ** np.arange(21)])
    def test_real_spectrum_matches_complex_spectrum(self, grid, monkeypatch):
        # the rows once exponentiated the complex spectrum t*(w_hat - deg);
        # for an even w its imaginary part is rounding, so rows and reports
        # agree to rounding
        def complex_rows(cw, t):
            t = t[:, None]
            return idft_stack(cw.group, np.exp(t * dft(cw.w) - t * cw.degree))

        for cw in self.cayley_cases():
            rows = heat._heat_rows(cw, grid)
            old_rows = complex_rows(cw, grid)
            assert np.max(np.abs(rows - old_rows)) <= 1e-12 * np.max(np.abs(old_rows))
            rep = monotone_check_cayley(cw, grid)
            with monkeypatch.context() as m:
                m.setattr(heat, "_heat_rows", complex_rows)
                old = monotone_check_cayley(cw, grid)
            assert abs(rep.worst_margin - old.worst_margin) <= 1e-12
            assert (rep.passed, rep.count) == (old.passed, old.count)

    @pytest.mark.parametrize("grid", [default_t_grid(), default_t_grid(0.01, 5.0, 7)])
    def test_general_matches_per_t_loop(self, grid):
        reports = []
        for g in self.general_cases():
            rep = monotone_violation_search(g, grid)
            assert_same_report(rep, loop_monotone_general(g, grid))
            reports.append(rep.passed)
        assert True in reports and False in reports

    def test_single_t_is_a_row_of_the_batch(self):
        grid = default_t_grid()
        for cw in self.cayley_cases():
            rows = heat._heat_rows(cw, grid)
            for i in (0, 7, len(grid) - 1):
                assert np.array_equal(heat_row_cayley(cw, grid[i]).values, rows[i])
        for g in self.general_cases():
            stack = heat._heat_matrices(*np.linalg.eigh(g.laplacian()), grid)
            for i in (0, 7, len(grid) - 1):
                assert np.array_equal(heat_matrix_general(g, grid[i]), stack[i])

    @pytest.mark.parametrize("per", [2, 3, 7])
    def test_t_blocks_match_per_t_loop(self, monkeypatch, per):
        # blocks of `per` t overlapping by one, the last one partial; a tie
        # across blocks must leave the first worst step as the witness
        grid = default_t_grid()
        for cw in self.cayley_cases():
            ref = loop_monotone_cayley(cw, grid)
            monkeypatch.setattr(heat, "_BLOCK_VALUES", per * cw.group.order)
            assert_same_report(monotone_check_cayley(cw, grid), ref)
        for g in self.general_cases():
            ref = loop_monotone_general(g, grid)
            monkeypatch.setattr(heat, "_BLOCK_VALUES", per * g.n * g.n)
            assert_same_report(monotone_violation_search(g, grid), ref)

    def test_long_grid_runs_in_bounded_memory(self, monkeypatch):
        G = FiniteAbelianGroup((4096,))
        cw = sparse_weights(G, np.random.default_rng(23))
        grid = default_t_grid(count=200)
        monkeypatch.setattr(heat, "_BLOCK_VALUES", 8 * G.order)
        tracemalloc.start()
        try:
            rep = monotone_check_cayley(cw, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.count == 199 * G.order
        # one block of 8 rows is 0.5 MB of complex values; the whole grid is 13 MB
        assert peak < 4e6

    def test_nonpositive_t_in_grid_rejected(self):
        cw = unit_cycle_weights(6)
        with pytest.raises(DomainError):
            monotone_check_cayley(cw, [0.0, 1.0])
        g = GeneralGraph(cw.w.values[cw.group.sub_index_table()])
        with pytest.raises(DomainError):
            monotone_violation_search(g, [-1.0, 1.0])
        with pytest.raises(DomainError):
            heat_row_cayley(cw, math.inf)

    def test_nonfinite_general_is_refused(self):
        # the Laplacian's eigenvectors come back NaN; a loop skipping NaN
        # steps reported passed=True with worst margin inf
        big = 1e154
        W = np.array([[0, big, big], [big, 0, 1.0], [big, 1.0, 0]])
        with np.errstate(all="ignore"), pytest.raises(NumericalConsistencyError):
            monotone_violation_search(GeneralGraph(W), default_t_grid())

    def test_nonfinite_cayley_is_refused(self):
        G = FiniteAbelianGroup((4,))
        with np.errstate(all="ignore"):
            cw = CayleyWeights(G, GroupFunction(G, np.array([0.0, 1e308, 1e308, 1e308])))
        with np.errstate(all="ignore"), pytest.raises(NumericalConsistencyError):
            monotone_check_cayley(cw, default_t_grid())

    def test_nonfinite_step_is_refused_not_skipped(self):
        # a NaN step must not hide behind, or be picked over, a finite one
        ratio = np.array([[1.0, 0.5, 0.2], [1.0, 0.4, 0.3], [1.0, np.nan, 0.4]])
        t = np.array([1.0, 2.0, 3.0])

        def report(t_grid):
            ratios = lambda tb: ratio[np.searchsorted(t, tb)]  # noqa: E731
            return heat._monotone_report(
                ratios, t_grid, 3, 1e-10, "monotone_cayley", lambda v: f"v={v}"
            )

        with pytest.raises(NumericalConsistencyError):
            report(t)
        rep = report(t[:2])
        assert rep.worst_margin == pytest.approx(-0.1)
        assert rep.witness == "v=1, t=1, t'=2"


class TestCTRW:
    def test_small_t_stays_home(self):
        G = FiniteAbelianGroup((6,))
        cw = CayleyWeights.from_dict({"group": "Z6", "weights": {"1": 1.0}})
        emp = ctrw_simulate(cw, 1e-4, 20_000, seed=1)
        assert emp.values[0] > 0.999

    def test_z2_binomial_bound(self):
        G = FiniteAbelianGroup((2,))
        cw = CayleyWeights(G, GroupFunction(G, np.array([0.0, 1.0])))
        trials = 10**6
        emp = ctrw_simulate(cw, 1.0, trials, seed=42)
        p = 0.43233235838169365  # (1 - e^-2)/2
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(emp.values[1] - p) < 3 * sigma

    def test_z6_total_variation(self):
        cw = CayleyWeights.from_dict({"group": "Z6", "weights": {"1": 1.0}})
        emp = ctrw_simulate(cw, 0.7, 10**6, seed=7)
        row = heat_row_cayley(cw, 0.7).values
        tv = 0.5 * float(np.sum(np.abs(emp.values - row)))
        assert tv < 0.005

    def test_deterministic_given_seed(self):
        cw = CayleyWeights.from_dict({"group": "Z6", "weights": {"1": 1.0, "2": 0.5}})
        a = ctrw_simulate(cw, 0.5, 10_000, seed=3)
        b = ctrw_simulate(cw, 0.5, 10_000, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_zero_degree_stays_at_identity(self):
        G = FiniteAbelianGroup((4,))
        cw = CayleyWeights(G, GroupFunction(G, np.zeros(4)))
        emp = ctrw_simulate(cw, 1.0, 100, seed=0)
        assert emp.values[0] == 1.0
