import numpy as np
import pytest

from cayleyheat import checks, continuum, heat
from cayleyheat.checks import (
    CheckReport,
    check_convolve_even,
    check_mean_ineq,
    check_rsd,
    sweep_mean_ineq,
    sweep_rsd,
)
from cayleyheat.errors import DomainError, NumericalConsistencyError
from cayleyheat.groups import FiniteAbelianGroup, GroupFunction, convolve, delta, phi
from cayleyheat.lattices import Lattice, LatticeHom, pushforward, random_hom


def pushed_chi(G, rng, max_dim=2):
    return pushforward(random_hom(G, rng, max_dim)).chi


def loop_sweep(chi, tol, single, name):
    """Reference sweep: the single-pair check on every (g1, g2), keeping the
    first strictly smaller margin."""
    worst, witness = np.inf, ""
    elements = [chi.group.from_index(i) for i in range(chi.group.order)]
    for g1 in elements:
        for g2 in elements:
            rep = single(chi, g1, g2, tol)
            if rep.worst_margin < worst:
                worst, witness = rep.worst_margin, rep.witness
    return CheckReport(worst >= -tol, float(worst), witness, chi.group.order**2, name)


def sweep_cases():
    """(chi, rsd tolerance, mean tolerance) for pushforwards on cyclic,
    elementary and mixed groups, plus one non-even, strictly positive chi,
    then pushforwards on Z2xZ3xZ5, whose flat-index strides are unequal and
    odd."""
    rng = np.random.default_rng(4)
    chis = [
        pushed_chi(FiniteAbelianGroup(sizes), rng)
        for sizes in [(8,), (2, 2, 2), (12,), (31,), (2, 2, 8)]
        for _ in range(2)
    ]
    G = FiniteAbelianGroup((3, 4))
    chis.append(GroupFunction(G, rng.uniform(0.2, 2.0, G.order)))
    chis += [pushed_chi(FiniteAbelianGroup((2, 3, 5)), rng) for _ in range(2)]
    return [(chi, 1e-12 * chi.at_index(0) ** 4, 1e-12 * chi.at_index(0) ** 2) for chi in chis]


def assert_same_report(a, b):
    assert a == b
    assert a.worst_margin.hex() == b.worst_margin.hex()  # bitwise, signed zero included


class TestRSD:
    def test_equality_at_origin(self):
        G = FiniteAbelianGroup((12,))
        chi = pushed_chi(G, np.random.default_rng(1))
        rep = check_rsd(chi, G.from_index(0), G.from_index(0), 0.0)
        assert rep.passed and rep.worst_margin == 0.0

    def test_equality_when_g2_zero(self):
        G = FiniteAbelianGroup((12,))
        chi = pushed_chi(G, np.random.default_rng(2))
        g1 = G.element((5,))
        # both sides are chi(g1)^2 chi(0)^2, multiplied in the same order
        rep = check_rsd(chi, g1, G.from_index(0), 0.0)
        assert rep.passed and rep.worst_margin == 0.0

    def test_exhaustive_on_pushforwards_z12(self):
        rng = np.random.default_rng(3)
        G = FiniteAbelianGroup((12,))
        for _ in range(10):
            chi = pushed_chi(G, rng)
            rep = sweep_rsd(chi, 1e-12 * chi.at_index(0) ** 4)
            assert rep.passed, rep

    def test_fast_sweep_matches_slow(self):
        # both vectorised sweeps against the per-pair loop: same margin to the
        # bit, same witness, count and verdict
        for chi, tol_rsd, tol_mean in sweep_cases():
            assert_same_report(
                sweep_rsd(chi, tol_rsd), loop_sweep(chi, tol_rsd, check_rsd, "rsd_sweep")
            )
            assert_same_report(
                sweep_mean_ineq(chi, tol_mean),
                loop_sweep(chi, tol_mean, check_mean_ineq, "mean_ineq_sweep"),
            )

    def test_requires_positive_center(self):
        G = FiniteAbelianGroup((3,))
        with pytest.raises(DomainError):
            check_rsd(GroupFunction(G, np.zeros(3)), G.from_index(0), G.from_index(0), 0.0)


class TestMeanIneq:
    def test_equality_at_origin(self):
        G = FiniteAbelianGroup((8,))
        chi = pushed_chi(G, np.random.default_rng(5))
        rep = check_mean_ineq(chi, G.from_index(0), G.from_index(0), 0.0)
        assert rep.passed and rep.worst_margin == 0.0

    def test_exhaustive_on_pushforwards_z2xz4(self):
        rng = np.random.default_rng(6)
        G = FiniteAbelianGroup((2, 4))
        for _ in range(10):
            chi = pushed_chi(G, rng)
            rep = sweep_mean_ineq(chi, 1e-12 * chi.at_index(0) ** 2)
            assert rep.passed, rep

    def test_implied_by_rsd_via_am_gm(self):
        # wherever the product inequality holds with chi >= 0, so does the mean one
        rng = np.random.default_rng(7)
        G = FiniteAbelianGroup((10,))
        chi = pushed_chi(G, rng)
        assert np.all(chi.values >= 0)
        assert sweep_rsd(chi, 1e-12 * chi.at_index(0) ** 4).passed
        assert sweep_mean_ineq(chi, 1e-12 * chi.at_index(0) ** 2).passed


class TestPairSweep:
    def test_row_blocks_match_one_block(self, monkeypatch):
        # blocks of 1 row, of 3 rows with a partial last block (31 = 10*3 + 1,
        # 32 = 10*3 + 2), and of 30 or 29 rows; symmetric ties across blocks
        # must leave the first worst pair as the witness.  The whole add table
        # is kept on the group after the first sweeps, so the block size is
        # read at call time: the row blocks are built, of the patched size.
        cases = [c for c in sweep_cases() if c[0].group.order in (31, 32)]
        whole = [(sweep_rsd(c, tr), sweep_mean_ineq(c, tm)) for c, tr, tm in cases]
        built = []
        add_rows = FiniteAbelianGroup.add_index_rows

        def spy(G, start, stop):
            built.append(stop - start)
            return add_rows(G, start, stop)

        monkeypatch.setattr(FiniteAbelianGroup, "add_index_rows", spy)
        for block_pairs in (1, 100, 31 * 30):
            monkeypatch.setattr(checks, "_BLOCK_PAIRS", block_pairs)
            for (chi, tol_rsd, tol_mean), (rsd, mean) in zip(cases, whole):
                built.clear()
                assert_same_report(sweep_rsd(chi, tol_rsd), rsd)
                assert_same_report(sweep_mean_ineq(chi, tol_mean), mean)
                rows = max(1, block_pairs // chi.group.order)
                assert sum(built) == 2 * chi.group.order and max(built) == rows

    def test_squares_as_check_rsd_takes_them(self):
        # With chi = (1, x) on Z2, the pairs (0, 1) and (1, 0) read
        # x^2 <= x^2.  Squares taken as products make those margins exactly
        # 0; libm's pow(x, 2) exceeds x*x by an ulp at this x, and a margin
        # x*x - x**2 failed the sweep with -5.55e-17.
        chi = GroupFunction(FiniteAbelianGroup((2,)), np.array([1.0, 0.6524064426367464]))
        rep = sweep_rsd(chi, 0.0)
        assert rep.passed and rep.worst_margin.hex() == (0.0).hex()
        assert rep.witness == "g1=(0), g2=(0)"
        assert_same_report(rep, loop_sweep(chi, 0.0, check_rsd, "rsd_sweep"))

    @pytest.mark.parametrize(
        "sweep, values",
        [
            # fourth powers overflow: every margin is inf - inf = NaN, which a
            # loop never counted as worse, so it passed with margin inf
            (sweep_rsd, [1e100, 1e90, 1e80, 1e90]),
            # a square overflows
            (sweep_rsd, [1e200, 1.0, 1.0, 1.0]),
            # chi(g1) chi(g2) / chi(0) overflows to inf
            (sweep_mean_ineq, [1e-300, 1e10, 1e10, 1e10]),
        ],
    )
    def test_nonfinite_margins_are_refused(self, sweep, values):
        chi = GroupFunction(FiniteAbelianGroup((4,)), np.array(values))
        with pytest.raises(NumericalConsistencyError):
            sweep(chi, 0.0)

    @pytest.mark.parametrize(
        "check, values, g",
        [
            # the squares overflow: inf - inf
            (check_rsd, [1e200, 1.0, 1.0, 1.0], 0),
            # both sides overflow: inf - inf
            (check_rsd, [1e100, 1e90, 1e80, 1e90], 0),
            # chi(g1) chi(g2) / chi(0) overflows: margin -inf
            (check_mean_ineq, [1e-300, 1e10, 1e10, 1e10], 1),
        ],
    )
    def test_single_pair_refuses_as_the_sweeps_do(self, check, values, g):
        G = FiniteAbelianGroup((4,))
        chi = GroupFunction(G, np.array(values))
        with pytest.raises(NumericalConsistencyError):
            check(chi, G.from_index(g), G.from_index(g), 0.0)

    def test_overflow_in_one_block_is_refused(self, monkeypatch):
        # only the last row block overflows; the finite blocks before it
        # must not decide the verdict
        v = np.ones(8)
        v[7] = 1e160
        monkeypatch.setattr(checks, "_BLOCK_PAIRS", 8)
        chi = GroupFunction(FiniteAbelianGroup((8,)), v)
        with pytest.raises(NumericalConsistencyError):
            sweep_mean_ineq(chi, 0.0)

    @pytest.mark.parametrize("sweep", [sweep_rsd, sweep_mean_ineq])
    @pytest.mark.parametrize("center", [0.0, -1.0])
    def test_requires_positive_center(self, sweep, center):
        G = FiniteAbelianGroup((4,))
        with pytest.raises(DomainError):
            sweep(GroupFunction(G, np.array([center, 1.0, 0.5, 1.0])), 0.0)


def test_triple_check_is_the_pair_check(monkeypatch):
    """The paper's dictionary: with chi(g) = H(a, a+g), g1 = b - a and
    g2 = c - b, a triple's kernel values H(a,b), H(b,c), H(a,c), H(a,s_b(c))
    and H(a,a) are chi(g1), chi(g2), chi(g1+g2), chi(g1-g2) and chi(0), so
    the continuum triple check on those five values, with no error to widen
    by, gives the pair checks' margins and verdicts bitwise.  The values
    are put in place of the kernel memo's answer."""
    values = None
    monkeypatch.setattr(continuum, "_triple_kernels", lambda *args: values)
    for chi, tol_rsd, tol_mean in sweep_cases():
        elements = [chi.group.from_index(i) for i in range(chi.group.order)]
        for g1 in elements:
            for g2 in elements:
                values = (chi(g1), chi(g2), chi(g1 + g2), chi(g1 - g2), chi.at_index(0), 0.0)
                for kind, single, tol in (
                    ("symmetric_ineq", check_rsd, tol_rsd),
                    ("heat_lemma", check_mean_ineq, tol_mean),
                ):
                    rep = continuum._triple_check(kind, "S2", None, None, None, 1.0, tol, 200)
                    ref = single(chi, g1, g2, tol)
                    assert rep.worst_margin.hex() == ref.worst_margin.hex()
                    assert rep.passed is ref.passed


class TestConvolveEven:
    def test_scaled_delta_gives_equality(self):
        rng = np.random.default_rng(8)
        G = FiniteAbelianGroup((6,))
        chi = pushed_chi(G, rng)
        rep = check_convolve_even(chi, 3.0 * delta(G), 1e-14)
        assert rep.passed
        assert abs(rep.worst_margin) < 1e-12

    def test_phi_bump_on_z8(self):
        # a generator image keeps chi strictly positive, so every ratio exists
        G = FiniteAbelianGroup((8,))
        h = LatticeHom(Lattice.integers(0.9), G, (G.element((1,)),))
        chi = pushforward(h).chi
        upsilon = phi(G, G.element((3,)))
        rep = check_convolve_even(chi, upsilon, 1e-12)
        assert rep.passed, rep

    def test_rejects_odd_upsilon(self):
        G = FiniteAbelianGroup((4,))
        chi = pushed_chi(G, np.random.default_rng(10))
        odd = GroupFunction(G, np.array([0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(DomainError):
            check_convolve_even(chi, odd, 1e-12)

    def test_zero_center_is_refused(self):
        # omega(0) = chi(1) + chi(3) = 2, so only chi(0) = 0 is wrong here
        G = FiniteAbelianGroup((4,))
        chi = GroupFunction(G, np.array([0.0, 1.0, 0.5, 1.0]))
        with pytest.raises(DomainError, match=r"chi\(0\) > 0"):
            check_convolve_even(chi, phi(G, G.element((1,))), 0.0)

    def test_overflowing_convolution_is_refused(self):
        # chi's forward transform overflows; under the suite's warning filter
        # a NumPy warning before the norm guard's refusal would fail this
        G = FiniteAbelianGroup((4,))
        chi = GroupFunction(G, np.full(4, 1e308))
        upsilon = GroupFunction(G, np.array([0.0, 1.0, 0.0, 1.0]))
        with pytest.raises(NumericalConsistencyError, match="not finite"):
            check_convolve_even(chi, upsilon, 0.0)

    def test_heat_semigroup_route(self):
        # chi = cexp(t*w) and upsilon = cexp((t'-t)*w): ratio monotonicity step
        from cayleyheat.groups import cexp_spectral

        rng = np.random.default_rng(11)
        G = FiniteAbelianGroup((9,))
        v = rng.uniform(0, 1, 9)
        v = v + v[G.neg_index_table()]
        v[0] = 0
        w = GroupFunction(G, v)
        chi = cexp_spectral(0.4 * w)
        upsilon = cexp_spectral(0.3 * w)
        rep = check_convolve_even(chi, upsilon, 1e-10)
        assert rep.passed, rep


# --- the worst-margin rule, through each of its three callers ---


def _sweep_in_rows(values):
    """sweep_mean_ineq on Z_n with one row of pairs per block."""

    def run(monkeypatch):
        monkeypatch.setattr(checks, "_BLOCK_PAIRS", len(values))
        chi = GroupFunction(FiniteAbelianGroup((len(values),)), np.array(values, dtype=float))
        return sweep_mean_ineq(chi, 0.0)

    return run


def _convolve_even(chi, upsilon, omega_is_chi=False):
    """check_convolve_even on one block; with omega_is_chi, convolve returns
    chi itself, a tiny chi(0) that the transform's rounding would lose."""

    def run(monkeypatch):
        if omega_is_chi:
            monkeypatch.setattr(checks, "convolve", lambda f, g: f)
        G = FiniteAbelianGroup((len(chi),))
        return check_convolve_even(
            GroupFunction(G, np.array(chi, dtype=float)),
            GroupFunction(G, np.array(upsilon, dtype=float)),
            0.0,
        )

    return run


def _monotone_in_steps(ratio):
    """heat._monotone_report on t = 1, 2, ... with one ratio step per block;
    ``ratio`` holds each t's ratios, one row per t."""

    def run(monkeypatch):
        ratio_at = np.array(ratio)
        monkeypatch.setattr(heat, "_BLOCK_VALUES", ratio_at.shape[1])
        t = np.arange(1.0, len(ratio_at) + 1)
        return heat._monotone_report(
            lambda tb: ratio_at[tb.astype(int) - 1],
            t,
            ratio_at.shape[1],
            0.0,
            "monotone_cayley",
            lambda v: f"v={v}",
        )

    return run


def _even_z8():
    v = np.random.default_rng(1).uniform(0.2, 2.0, 8)
    return (v + v[FiniteAbelianGroup((8,)).neg_index_table()]).tolist()


# (caller, case) -> (run(monkeypatch), the witness, or None for a refusal)
WORST_MARGIN_CASES = {
    # row 0 is finite; row 1 holds inf - inf at (1, 2)
    ("pair_sweep", "nan_in_later_block"): (
        _sweep_in_rows([1e-300, 1e5, 1e5, 1e308, 1, 1, 1, 1e308]), None
    ),
    # an exactly even chi: the worst margin sits at (1, 3) and at seven
    # mirror pairs in rows 3, 5 and 7
    ("pair_sweep", "tie_across_blocks"): (_sweep_in_rows(_even_z8()), "g1=(1), g2=(3)"),
    # chi(1)^2 / chi(0) overflows in row 1
    ("pair_sweep", "neg_inf"): (_sweep_in_rows([1e-300, 1e10, 1e10, 1e10]), None),
    # one block: inf - inf wherever g != 0
    ("convolve_even", "nan_in_later_block"): (
        _convolve_even([1e-300, 1e10, 1e10, 1e10], [1, 0, 0, 0], omega_is_chi=True), None
    ),
    # one block: margins (0, -4, -1.5, -4), exact on Z4
    ("convolve_even", "tie_across_blocks"): (
        _convolve_even([0.5, 4, 1, 4], [0, 0, 2, 0]), "g=(1)"
    ),
    # chi(1)/chi(0) = 1/1e-310 overflows
    ("convolve_even", "neg_inf"): (_convolve_even([1e-310, 1], [0, 1]), None),
    ("monotone", "nan_in_later_block"): (
        _monotone_in_steps([[1, 0.5], [1, 0.25], [1, np.nan]]), None
    ),
    # steps (0, -0.5), (0, 0), (0, -0.5)
    ("monotone", "tie_across_blocks"): (
        _monotone_in_steps([[1, 1], [1, 0.5], [1, 0.5], [1, 0]]), "v=1, t=1, t'=2"
    ),
    ("monotone", "neg_inf"): (_monotone_in_steps([[1, 1], [1, 0.5], [1, -np.inf]]), None),
}


@pytest.mark.parametrize("caller, case", list(WORST_MARGIN_CASES))
def test_worst_margin_rule(monkeypatch, caller, case):
    """Each caller hands its margins to checks.worst_report, which refuses a
    NaN or -inf wherever it lies and names the first worst entry in
    row-major order across the blocks."""
    run, witness = WORST_MARGIN_CASES[caller, case]
    seen = []
    reduce = checks.worst_report

    def spy(blocks, *args):
        def recorded():
            for offset, margins in blocks:
                seen.append(margins.copy())
                yield offset, margins

        return reduce(recorded(), *args)

    monkeypatch.setattr(checks, "worst_report", spy)
    monkeypatch.setattr(heat, "worst_report", spy)
    one_block = caller == "convolve_even"
    if witness is None:
        with pytest.raises(NumericalConsistencyError):
            run(monkeypatch)
    else:
        rep = run(monkeypatch)
    assert len(seen) == 1 if one_block else len(seen) > 1
    if witness is None:
        *before, last = seen
        assert all(np.isfinite(m).all() for m in before)
        if case == "neg_inf":
            assert np.isneginf(last).any() and not np.isnan(last).any()
        else:
            assert np.isnan(last).any()
        return
    worst = min(m.min() for m in seen)
    holding = [m for m in seen if (m == worst).any()]
    assert sum(int((m == worst).sum()) for m in holding) > 1
    assert len(holding) > 1 or one_block
    assert rep.worst_margin == worst and rep.witness == witness
