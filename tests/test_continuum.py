import math
import sys

import numpy as np
import pytest

from cayleyheat import continuum
from cayleyheat.continuum import (
    HyperboloidPoint,
    SpherePoint,
    h3_abc,
    h3_distance,
    h3_log_ratio,
    h3_monotone_check,
    h3_point_symmetry,
    h3_reduced_check,
    h3_reduced_log,
    heat_lemma_check_h3,
    heat_lemma_check_sphere,
    minkowski,
    _legendre_series,
    random_sphere_point,
    rp2_heat,
    sphere_heat,
    sphere_point_symmetry,
    symmetric_ineq_check_h3,
    symmetric_ineq_check_sphere,
)
from cayleyheat.errors import DomainError, NumericalConsistencyError


def loop_series(cos_theta, t, l_max, even_only):
    """Reference: the Legendre recurrence over every l up to l_max, with the
    library's operations in the same order, and its termwise tail."""
    x = np.clip(np.asarray(cos_theta, dtype=float), -1.0, 1.0)
    p_prev, p_curr = np.ones_like(x), x.copy()
    total = np.zeros_like(x)
    for l in range(0, l_max + 1):
        if l == 0:
            p_l = p_prev
        elif l == 1:
            p_l = p_curr
        else:
            p_l = ((2 * l - 1) * x * p_curr - (l - 1) * p_prev) / l
            p_prev, p_curr = p_curr, p_l
        if not even_only or l % 2 == 0:
            total += (2 * l + 1) / (4.0 * math.pi) * math.exp(-l * (l + 1) * t) * p_l
    tail = 0.0
    for l in range(l_max + 1, l_max + 400):
        term = (2 * l + 1) / (4.0 * math.pi) * math.exp(-l * (l + 1) * t)
        tail += term
        if term < 1e-300:
            break
    return total, tail


def series_cosines(seed=12, trials=40):
    """The five cosines of each check on random triples, plus the ends and
    near-antipodal points."""
    rng = np.random.default_rng(seed)
    cos = []
    for _ in range(trials):
        a, b, c = (random_sphere_point(rng) for _ in range(3))
        s = sphere_point_symmetry(b, c)
        cos += [a.u @ b.u, b.u @ c.u, a.u @ c.u, a.u @ s.u, 1.0]
    return np.array(cos + [1.0, -1.0, -1.0 + 1e-15, -1.0 + 1e-9, -0.9999, 1.0 - 1e-15])


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def linear_d_over_sinh(d):
    """Reference: d/sinh d in linear form, Taylor below 1e-4 and the log
    form past the sinh overflow, where it underflows to 0."""
    if d < 1e-4:
        return 1.0 - d * d / 6.0 + 7.0 * d**4 / 360.0
    try:
        return d / math.sinh(d)
    except OverflowError:
        return math.exp(math.log(d) - (d + math.log1p(-math.exp(-2.0 * d)) - math.log(2.0)))


def linear_h3_heat(d, t):
    """Reference: (4 pi t)^{-3/2} (d/sinh d) exp(-t - d^2/(4t)) in linear form."""
    return (4.0 * math.pi * t) ** -1.5 * linear_d_over_sinh(d) * math.exp(-t - d * d / (4.0 * t))


def mp_log_ratio(mp, d, t):
    """log(d/sinh d) - d^2/(4t) in mpmath at the precision set by the caller."""
    d, t = mp.mpf(d), mp.mpf(t)
    return (mp.log(d / mp.sinh(d)) if d else mp.mpf(0)) - d * d / (4 * t)


def random_boost(rng):
    """Random Lorentz boost + rotation preserving the hyperboloid."""
    # rotation in the spatial block
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    R = np.eye(4)
    R[1:, 1:] = Q
    # boost along x1
    s = rng.uniform(-1.0, 1.0)
    B = np.eye(4)
    B[0, 0] = B[1, 1] = math.cosh(s)
    B[0, 1] = B[1, 0] = math.sinh(s)
    return R @ B


def boost_point(M, p):
    x = M @ p.x
    if x[0] < 0:
        x = -x
    return HyperboloidPoint(x)


class TestH3Geometry:
    def test_distance_to_self(self):
        p = HyperboloidPoint(np.array([1.0, 0, 0, 0]))
        assert h3_distance(p, p) == 0.0

    def test_abc_leg_lengths(self):
        for d1 in (0.5, 1.0, 3.0):
            a, b, c = h3_abc(d1)
            assert abs(h3_distance(a, b) - d1) < 1e-10
            assert abs(h3_distance(b, c) - d1) < 1e-10

    def test_abc_base_length(self):
        d1 = 3.0
        a, b, c = h3_abc(d1)
        assert abs(h3_distance(a, c) - 5.3117798541548655) < 1e-10

    def test_abc_on_hyperboloid(self):
        for p in h3_abc(2.0):
            x = p.x
            assert abs(x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2 - 1) < 1e-9

    def test_off_hyperboloid_rejected(self):
        with pytest.raises(DomainError):
            HyperboloidPoint(np.array([1.0, 0.5, 0, 0]))

    @pytest.mark.parametrize(
        "x", [(1e200, 1e200, 0, 0), (math.nan, 0, 0, 0), (math.inf, 0, 0, 0), (1, 0, math.nan, 0)]
    )
    def test_nonfinite_form_rejected(self, x):
        # an overflowing square or a NaN coordinate makes the form value not finite
        with pytest.raises(DomainError):
            HyperboloidPoint(np.array(x, dtype=float))


class TestH3Symmetry:
    def test_fixed_point(self):
        b = h3_abc(1.0)[1]
        assert np.allclose(h3_point_symmetry(b, b).x, b.x)

    def test_involution(self):
        a, b, c = h3_abc(1.7)
        assert np.allclose(h3_point_symmetry(b, h3_point_symmetry(b, c)).x, c.x, atol=1e-10)

    def test_isometric(self):
        rng = np.random.default_rng(1)
        a, b, c = h3_abc(1.2)
        for _ in range(10):
            M = random_boost(rng)
            pa, pb, pc = (boost_point(M, p) for p in (a, b, c))
            assert abs(h3_distance(pb, h3_point_symmetry(pb, pc)) - h3_distance(pb, pc)) < 1e-9

    def test_reflected_distance_equals_base(self):
        a, b, c = h3_abc(3.0)
        d2 = h3_distance(a, c)
        assert abs(h3_distance(a, h3_point_symmetry(b, c)) - d2) < 1e-9


class TestH3Heat:
    def test_origin_value(self):
        p = HyperboloidPoint([1.0, 0.0, 0.0, 0.0])
        haa = (4 * math.pi) ** -1.5 * math.exp(-1)
        assert h3_log_ratio(0.0, 1.0) == 0.0
        assert all(abs(h - haa) < 1e-15 for h in continuum._triple_kernels("H3", p, p, p, 1.0, 200)[:5])

    def test_small_d_no_cancellation(self):
        # the log form log d - log sinh d returned 0 here
        exact = -(1 / 6 + 1 / 4) * 1e-16
        assert abs(h3_log_ratio(1e-8, 1.0) - exact) < 1e-15 * abs(exact)

    def test_ratio_formula(self):
        d, t = 1.3, 0.8
        ratio = math.exp(h3_log_ratio(d, t))
        assert abs(ratio - (d / math.sinh(d)) * math.exp(-d * d / (4 * t))) < 1e-15

    def test_log_heat_matches(self):
        for d, t in [(0.5, 0.25), (3.0, 1.0), (10.0, 4.0)]:
            log_heat = math.log(linear_h3_heat(d, t)) - math.log(linear_h3_heat(0.0, t))
            assert abs(h3_log_ratio(d, t) - log_heat) < 1e-13

    @pytest.mark.parametrize("t", [0.05, 1.0, 5.0])
    def test_log_ratio_matches_50_digits(self, t):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        # both sides of the switch to the series at 0.1, and of the sinh overflow
        ds = [*np.geomspace(1e-10, 1e3, 400), math.nextafter(0.1, 0.0), 0.1, 709.0, 711.0]
        for d in map(float, ds):
            exact = mp_log_ratio(mp, d, t)
            assert abs(h3_log_ratio(d, t) - exact) <= 1e-15 * max(1, abs(exact)), d

    def test_kernels_underflow_past_the_sinh_overflow(self):
        # the log ratio stays finite where sinh d overflows, and the kernel
        # values built on it underflow to 0; hyperboloid points cannot be
        # 1000 apart (cosh overflows first), so the triple's legs are 300
        assert math.isfinite(h3_log_ratio(1000.0, 1.0))
        assert math.exp(h3_log_ratio(1000.0, 1.0)) == 0.0
        kernels = continuum._triple_kernels("H3", *h3_abc(300.0), 1.0, 200)
        assert kernels[:2] == (0.0, 0.0) and kernels[4] > 0.0

    def test_negative_distance_is_refused(self):
        with pytest.raises(DomainError, match="nonnegative"):
            h3_log_ratio(-1e-3, 1.0)


class TestH3ReducedCheck:
    def test_violation_at_d1_3_t_1(self):
        ls, rs, violated = h3_reduced_check(3.0, 1.0)
        assert violated
        assert abs(ls - 9.96e-4) < 0.01 * 9.96e-4 + 1e-6
        assert abs(rs - 4.53e-5) < 0.01 * 4.53e-5 + 1e-7

    def test_small_d1_margin_vanishes(self):
        # both sides tend to 1 and the gap closes as the triple degenerates
        ls, rs, _ = h3_reduced_check(0.05, 1.0)
        assert abs(ls - 1.0) < 0.01 and abs(rs - 1.0) < 0.01
        assert abs(ls - rs) < 1e-5

    def test_violation_persists_to_large_d1(self):
        for d1 in (3.0, 5.0, 10.0, 20.0, 30.0):
            log_ls, log_rs = h3_reduced_log(d1, 1.0)
            assert log_ls > log_rs

    def test_reduced_matches_unreduced_route(self):
        # the reduced gap log LS - log RS is the unreduced gap in the log
        # ratios of the points of h3_abc, with the factors H_t(0) cancelled,
        # on the grid of test_verdict_matches_the_50_digit_gap, where both
        # are finite at every point; a gap that is not finite fails
        for d1 in map(float, np.geomspace(1e-6, 355.0, 1500)):
            a, b, c = h3_abc(d1)
            pairs = ((a, b), (b, c), (a, c), (a, h3_point_symmetry(b, c)))
            for t in (0.05, 0.2, 1.0, 5.0):
                log_ls, log_rs = h3_reduced_log(d1, t)
                r_ab, r_bc, r_ac, r_asbc = (h3_log_ratio(h3_distance(x, y), t) for x, y in pairs)
                reduced = log_ls - log_rs
                unreduced = 0.5 * (2.0 * r_ab + 2.0 * r_bc - r_ac - r_asbc)
                assert abs(reduced - unreduced) <= 1e-10 * max(abs(reduced), 1.0), (d1, t)

    def test_asymptotic_quadratic_coefficients(self):
        t = 1.0
        d1s = np.linspace(5.0, 30.0, 60)
        log_ls = [h3_reduced_log(d, t)[0] for d in d1s]
        log_rs = [h3_reduced_log(d, t)[1] for d in d1s]
        c_ls = np.polyfit(d1s, log_ls, 2)[0]
        c_rs = np.polyfit(d1s, log_rs, 2)[0]
        assert abs(c_ls - (-1 / (2 * t))) < 0.1 * (1 / (2 * t))
        assert abs(c_rs - (-1 / t)) < 0.1 * (1 / t)

    def test_answers_up_to_the_overflow_point(self):
        for d1 in (300.0, 355.0):
            assert h3_reduced_check(d1, 1.0)[2]

    def test_small_d1_violation_is_found(self):
        # the gap is about 0.128 d1^4 at t = 1; acosh(cosh(d1)^2) for the
        # base length lost it to cancellation and answered False
        assert h3_reduced_check(2e-6, 1.0)[2] is True

    def test_verdict_matches_the_50_digit_gap(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for d1 in map(float, np.geomspace(1e-6, 355.0, 1500)):
            d2 = mp.acosh(mp.cosh(mp.mpf(d1)) ** 2)
            for t in (0.05, 0.2, 1.0, 5.0):
                gap = 2 * mp_log_ratio(mp, d1, t) - mp_log_ratio(mp, d2, t)
                assert h3_reduced_check(d1, t)[2] == (gap > 0), (d1, t)

    @pytest.mark.parametrize("d1", [356.0, 400.0, 800.0, 1e6])
    def test_overflowing_d1_is_refused(self, d1):
        # cosh(d1)^2 overflows from d1 ~ 355.4 on, cosh(d1) itself past 710
        with pytest.raises(NumericalConsistencyError, match="overflows"):
            h3_reduced_check(d1, 1.0)
        with pytest.raises(NumericalConsistencyError, match="overflows"):
            h3_abc(d1)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_nonfinite_t_is_rejected(self, t):
        # NaN answered (nan, nan, False) and inf answered violated=True,
        # where the H3 triple checks refuse both
        for check in (h3_reduced_log, h3_reduced_check):
            with pytest.raises(DomainError, match="t must be positive and finite"):
                check(3.0, t)

    def test_subnormal_t_is_refused(self):
        # d1^2/4t overflows, so both log sides are -inf; their NaN gap once
        # got through and the check answered (0.0, 0.0, False)
        for check in (h3_reduced_log, h3_reduced_check):
            with pytest.raises(NumericalConsistencyError, match="log sides are not finite"):
                check(3.0, 1e-310)

    @pytest.mark.parametrize("d1", [math.inf, math.nan])
    def test_nonfinite_d1_is_rejected(self, d1):
        with pytest.raises(DomainError):
            h3_reduced_log(d1, 1.0)
        with pytest.raises(DomainError):
            h3_abc(d1)

    def test_explicit_triple_fails_symmetric_ineq(self):
        a, b, c = h3_abc(3.0)
        assert not symmetric_ineq_check_h3(a, b, c, 1.0).passed


class TestH3Monotone:
    def test_strictly_increasing(self):
        rep = h3_monotone_check(2.0, np.geomspace(0.1, 10, 20))
        assert rep.passed
        assert rep.worst_margin > 0

    def test_d_zero_constant_ratio(self):
        rep = h3_monotone_check(0.0, np.geomspace(0.1, 10, 10))
        assert rep.passed
        assert abs(rep.worst_margin) < 1e-15

    @pytest.mark.parametrize("d", [0.5, 2.0, 8.0])
    def test_sweep(self, d):
        assert h3_monotone_check(d, np.geomspace(0.05, 50, 20)).passed

    def test_answers_past_the_sinh_overflow(self):
        # the ratio underflows to 0 at every t, but its log steps,
        # d^2/4 (1/t - 1/t'), are finite and positive
        d, grid = 1000.0, np.geomspace(0.05, 50, 20)
        rep = h3_monotone_check(d, grid)
        steps = np.diff(-d * d / (4.0 * grid))
        assert rep.passed and rep.worst_margin > 0
        assert abs(rep.worst_margin - steps.min()) <= 1e-12 * steps.min()

    @pytest.mark.parametrize("d, tmin, tmax", [(2.0, 1e-300, 1e-299), (40.0, 0.05, 1.0)])
    def test_answers_where_the_ratios_underflow(self, d, tmin, tmax):
        # every ratio, or the two at the worst step, is 0.0 in floats; the
        # linear steps passed with worst margin 0.0
        grid = np.geomspace(tmin, tmax, 20)
        assert np.exp(h3_log_ratio(d, grid[:2])).tolist() == [0.0, 0.0]
        rep = h3_monotone_check(d, grid)
        assert rep.passed and rep.worst_margin > 0

    def test_refuses_where_the_log_ratio_overflows(self):
        # d^2 overflows, so every log ratio is -inf; the linear steps passed
        # with worst margin 0.0
        with pytest.raises(NumericalConsistencyError, match="log ratio is not finite"):
            h3_monotone_check(1e300, np.geomspace(0.05, 50, 20))


class TestSphereHeat:
    def test_normalizes_to_one(self):
        # Gauss-Legendre quadrature of the series over the sphere
        nodes, weights = np.polynomial.legendre.leggauss(64)
        for t in (0.1, 1.0):
            vals, tail = sphere_heat(nodes, t)
            integral = 2 * math.pi * float(np.sum(weights * vals))
            assert abs(integral - 1.0) < 1e-8 + 4 * math.pi * tail

    def test_large_t_uniform(self):
        vals, _ = sphere_heat(np.array([-0.7, 0.0, 0.9]), 50.0)
        assert np.max(np.abs(vals - 1 / (4 * math.pi))) < 1e-12

    def test_refuses_tiny_t(self):
        with pytest.raises(NumericalConsistencyError):
            sphere_heat(0.5, 1e-4, l_max=10)

    def test_positive(self):
        vals, _ = sphere_heat(np.linspace(-1, 1, 31), 0.05)
        assert np.all(vals > 0)

    @pytest.mark.parametrize(
        "x, t",
        [([math.nan, 0.5], 0.5), ([0.5, math.inf], 0.5), ([0.5], math.nan), ([0.5], math.inf)],
    )
    @pytest.mark.parametrize("kernel", [sphere_heat, rp2_heat])
    def test_refuses_nonfinite_input(self, kernel, x, t):
        # a NaN cosine would otherwise run to l_max and give a NaN value
        with pytest.raises(DomainError):
            kernel(np.array(x), t)


class TestRP2Heat:
    def test_antipodal_symmetry(self):
        for x in (0.3, 0.8):
            a, _ = rp2_heat(x, 0.5)
            b, _ = rp2_heat(-x, 0.5)
            assert abs(float(a) - float(b)) < 1e-14

    def test_large_t_constant(self):
        v, _ = rp2_heat(0.2, 50.0)
        assert abs(float(v) - 1 / (2 * math.pi)) < 1e-12

    def test_covering_consistency(self):
        for x in (-0.6, 0.1, 0.9):
            lifted, tail = rp2_heat(x, 0.3)
            s1, t1 = sphere_heat(x, 0.3)
            s2, t2 = sphere_heat(-x, 0.3)
            assert abs(float(lifted) - (float(s1) + float(s2))) < 1e-12 + tail + t1 + t2


class TestSpherePoint:
    @pytest.mark.parametrize(
        "u", [(1, 1, 0), (math.nan, 0, 0), (1, 0, math.nan), (math.inf, 0, 0), (0, 0, -math.inf)]
    )
    def test_off_sphere_rejected(self, u):
        # a NaN coordinate makes the norm NaN, which compares false both ways
        with pytest.raises(DomainError):
            SpherePoint(np.array(u, dtype=float))


class TestSphereSymmetry:
    def test_fixes_center(self):
        b = SpherePoint(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(sphere_point_symmetry(b, b).u, b.u)

    def test_orthogonal_negates(self):
        b = SpherePoint(np.array([0.0, 0.0, 1.0]))
        c = SpherePoint(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(sphere_point_symmetry(b, c).u, -c.u)

    def test_involution_and_isometry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            b, c = random_sphere_point(rng), random_sphere_point(rng)
            s = sphere_point_symmetry(b, c)
            assert np.allclose(sphere_point_symmetry(b, s).u, c.u, atol=1e-12)
            assert abs(float(np.dot(b.u, s.u)) - float(np.dot(b.u, c.u))) < 1e-12


class TestSymmetricInequality:
    def test_degenerate_equality(self):
        rng = np.random.default_rng(3)
        a = random_sphere_point(rng)
        rep = symmetric_ineq_check_sphere("S2", a, a, a, 1.0)
        assert rep.passed
        assert abs(rep.worst_margin) < 1e-12

    @pytest.mark.parametrize("space", ["S2", "RP2"])
    def test_random_sweep(self, space):
        rng = np.random.default_rng(4)
        for i in range(200):
            a, b, c = (random_sphere_point(rng) for _ in range(3))
            t = (0.05, 0.2, 1.0, 5.0)[i % 4]
            r2 = symmetric_ineq_check_sphere(space, a, b, c, t)
            r3 = heat_lemma_check_sphere(space, a, b, c, t)
            assert r2.passed, (space, t, r2)
            assert r3.passed, (space, t, r3)
            # AM-GM implication: passing the product form forces the mean form
            if r2.passed:
                assert r3.passed

    def test_h3_lemma_fails_where_product_fails(self):
        # the explicit configuration violates the product inequality
        a, b, c = h3_abc(3.0)
        assert not symmetric_ineq_check_h3(a, b, c, 1.0).passed

    def test_h3_near_equality_at_small_separation(self):
        a, b, c = h3_abc(0.3)
        assert symmetric_ineq_check_h3(a, b, c, 1.0, tol=1e-6).passed
        assert heat_lemma_check_h3(a, b, c, 1.0, tol=1e-4).passed

    def test_nonfinite_h3_margin_is_refused(self):
        # at t = 1e-60 H(a,a) is 2.2e88, so both sides of the product form
        # overflow and the margin is inf - inf
        b = h3_abc(0.5)[1]
        with pytest.raises(NumericalConsistencyError, match="not finite"):
            symmetric_ineq_check_h3(b, b, b, 1e-60)

    def test_overflowing_h3_center_is_refused(self):
        # (4 pi t)^-1.5 overflows a double at t = 1e-250
        b = h3_abc(0.5)[1]
        for check in (symmetric_ineq_check_h3, heat_lemma_check_h3):
            with pytest.raises(NumericalConsistencyError, match="overflows"):
                check(b, b, b, 1e-250)

    def test_underflowing_h3_center_is_refused(self):
        # e^-t underflows H(a,a) to 0 at t = 1000: the product form passed
        # with margin 0 and the mean form raised ZeroDivisionError
        a, b, c = h3_abc(0.5)
        for check in (symmetric_ineq_check_h3, heat_lemma_check_h3):
            with pytest.raises(NumericalConsistencyError, match="underflows"):
                check(a, b, c, 1000.0)

    def test_h3_far_triples_are_refused_where_both_sides_underflow(self):
        # at t = 1 the product form's sides underflow from d1 = 30 and the
        # mean form's from d1 = 60, where each passed with margin 0.0; the
        # reduced log-space check finds the violation at both
        for check, d1 in ((symmetric_ineq_check_h3, 30.0), (heat_lemma_check_h3, 60.0)):
            with pytest.raises(NumericalConsistencyError, match="both sides underflow"):
                check(*h3_abc(d1), 1.0)
            assert h3_reduced_check(d1, 1.0)[2]
        # at d1 = 20 the product form's sides are still normal numbers
        rep = symmetric_ineq_check_h3(*h3_abc(20.0), 1.0)
        assert not rep.passed
        assert rep.worst_margin == pytest.approx(-4.1e-211, rel=0.01)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_h3_triples_refuse_a_bad_t(self, bad):
        a, b, c = h3_abc(0.5)
        for check in (symmetric_ineq_check_h3, heat_lemma_check_h3):
            with pytest.raises(DomainError, match="t must be positive and finite"):
                check(a, b, c, bad)

    @pytest.mark.parametrize("space", ["H3", "S3"])
    def test_sphere_checks_refuse_other_spaces(self, space):
        # H3 has a branch in the shared kernel memo, but no series kernel
        s = tuple(random_sphere_point(np.random.default_rng(5)) for _ in range(3))
        for check in (symmetric_ineq_check_sphere, heat_lemma_check_sphere):
            with pytest.raises(DomainError, match=f"unknown series space '{space}'"):
                check(space, *s, 0.2)

    def test_reports_hold_python_scalars(self):
        rng = np.random.default_rng(5)
        s = tuple(random_sphere_point(rng) for _ in range(3))
        h = h3_abc(3.0)
        reports = [
            check(space, *s, 0.2)
            for space in ("S2", "RP2")
            for check in (symmetric_ineq_check_sphere, heat_lemma_check_sphere)
        ] + [check(*h, 1.0) for check in (symmetric_ineq_check_h3, heat_lemma_check_h3)]
        for rep in reports:
            assert type(rep.passed) is bool and type(rep.worst_margin) is float, rep


class TestSphereMonotone:
    def test_ratio_approaches_one_from_below(self):
        vals, _ = sphere_heat(np.array([0.0, 1.0]), 5.0)
        ratio = float(vals[0] / vals[1])
        assert ratio < 1.0
        assert 1.0 - ratio < 1e-3


class TestSeriesEarlyStop:
    """The series stops once no later term can change a bit of the sum, so
    every value and tail is bitwise the full l_max loop's."""

    @pytest.mark.parametrize("t", [0.05, 0.07, 0.2, 1.0, 5.0])
    @pytest.mark.parametrize("space", ["S2", "RP2"])
    def test_matches_full_loop(self, space, t):
        x = series_cosines()
        if space == "S2":
            kernel = sphere_heat
            ref, ref_tail = loop_series(x, t, 200, even_only=False)
        else:
            kernel = rp2_heat
            ref, ref_tail = loop_series(x, t, 200, even_only=True)
            ref, ref_tail = 2.0 * ref, 2.0 * ref_tail
        val, tail = kernel(x, t)
        assert_bitwise(val, ref)
        assert tail == ref_tail
        # each cosine's value is its own: the same alone as among the others
        for i in range(len(x)):
            assert_bitwise(kernel(x[i : i + 1], t)[0], ref[i : i + 1])

    @pytest.mark.parametrize("even_only", [False, True])
    @pytest.mark.parametrize("t, l_max", [(0.05, 2), (0.05, 20), (0.05, 35), (0.2, 10), (1.0, 4)])
    def test_l_max_below_the_stop_runs_the_full_loop(self, t, l_max, even_only):
        x = series_cosines(trials=10)
        val, tail = _legendre_series(x, t, l_max, even_only)
        ref, ref_tail = loop_series(x, t, l_max, even_only)
        assert_bitwise(val, ref)
        assert tail == ref_tail

    def test_scalar_input(self):
        for t in (0.05, 1.0):
            val, tail = _legendre_series(0.3, t, 200, False)
            ref, ref_tail = loop_series(0.3, t, 200, False)
            assert_bitwise(val, ref)
            assert tail == ref_tail

    def test_cost_does_not_grow_with_l_max(self, monkeypatch):
        # five triples' cosines, and an empty input, which runs no series
        inputs = [series_cosines(trials=5), np.array([])]
        expected = [sphere_heat(x, 0.05) for x in inputs]

        class CountingMath:
            # the module's math, with a cap on exp calls: a loop that ran to
            # l_max = 10^6 would need a million
            calls = 0

            def __getattr__(self, name):
                return getattr(math, name)

            def exp(self, y):
                CountingMath.calls += 1
                if CountingMath.calls > 10_000:
                    raise AssertionError("the series ran past its stop point")
                return math.exp(y)

        monkeypatch.setattr(continuum, "math", CountingMath())
        for x, (ref, ref_tail) in zip(inputs, expected):
            val, tail = sphere_heat(x, 0.05, l_max=10**6)
            assert_bitwise(val, ref)
            assert tail == 0.0 == ref_tail


def clear_kernel_memos():
    continuum._triple_kernels.cache_clear()


def count_calls(monkeypatch, name):
    """Replace continuum.<name> by a wrapper that counts its calls."""
    fn, calls = getattr(continuum, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(continuum, name, counted)
    return calls


SPHERE_CHECKS = (symmetric_ineq_check_sphere, heat_lemma_check_sphere)
H3_CHECKS = (symmetric_ineq_check_h3, heat_lemma_check_h3)


class TestKernelMemo:
    """Both checks on a triple share one evaluation of its five kernel
    values, and a kept evaluation answers only its own arguments."""

    def test_both_checks_share_one_evaluation(self, monkeypatch):
        clear_kernel_memos()
        series = count_calls(monkeypatch, "_legendre_series")
        distances = count_calls(monkeypatch, "h3_distance")
        s = tuple(random_sphere_point(np.random.default_rng(7)) for _ in range(3))
        h = h3_abc(3.0)
        for check in SPHERE_CHECKS:
            check("S2", *s, 0.2)
        for check in H3_CHECKS:
            check(*h, 1.0)
        assert len(series) == 1
        assert len(distances) == 4  # the four pairs of one evaluation

    def test_every_space_fills_the_one_memo(self):
        clear_kernel_memos()
        s = tuple(random_sphere_point(np.random.default_rng(7)) for _ in range(3))
        h = h3_abc(3.0)
        for space in ("S2", "RP2"):
            for check in SPHERE_CHECKS:
                check(space, *s, 0.2)
        for check in H3_CHECKS:
            check(*h, 1.0)
        info = continuum._triple_kernels.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 3, 3)

    def test_reports_match_a_cleared_evaluation(self, monkeypatch):
        rng = np.random.default_rng(7)
        s = tuple(random_sphere_point(rng) for _ in range(3))
        s_equal = tuple(SpherePoint(p.u.copy()) for p in s)
        h = h3_abc(3.0)
        h_equal = tuple(HyperboloidPoint(p.x.copy()) for p in h)
        # (check, arguments, keywords) in the order they run; the first
        # call of each space fills the memo that the later ones must not
        # answer from, apart from the second kind and the other tol
        calls = [
            (check, args, kw)
            for args, kw in (
                (("S2", *s, 0.2), {}),
                (("S2", *s, 0.2), {"tol": -1.0}),
                (("S2", *s, 1.0), {}),
                (("S2", *s, 0.2), {"l_max": 8}),
                (("RP2", *s, 0.2), {}),
                (("S2", *s_equal, 0.2), {}),
            )
            for check in SPHERE_CHECKS
        ] + [
            (check, args, kw)
            for args, kw in (
                ((*h, 1.0), {}),
                ((*h, 1.0), {"tol": 1e-3}),
                ((*h, 0.5), {}),
                ((*h_equal, 1.0), {}),
            )
            for check in H3_CHECKS
        ]
        expected = []
        for check, args, kw in calls:
            clear_kernel_memos()
            expected.append(check(*args, **kw))
        clear_kernel_memos()
        series = count_calls(monkeypatch, "_legendre_series")
        for (check, args, kw), ref in zip(calls, expected):
            rep = check(*args, **kw)
            assert rep == ref, (check.__name__, args[:1], kw)
            assert rep.worst_margin.hex() == ref.worst_margin.hex()
        # one series per distinct (space, points, t, l_max)
        assert len(series) == 5
        # the variations are seen: another t, l_max or space moves the
        # margin, and the other tol the verdict.  margins holds the product
        # form's, one per argument set: S2 base, tol, t, l_max, RP2, equal
        # points, then H3 base, tol, t, equal points
        margins = [rep.worst_margin for rep in expected[::2]]
        assert len(set(margins[:1] + margins[2:5])) == 4
        assert margins[5] == margins[0]
        assert expected[0].passed and not expected[2].passed
        assert margins[8] != margins[6] == margins[9]
        assert not expected[13].passed and expected[15].passed

    def test_refusal_raises_on_every_call(self, monkeypatch):
        clear_kernel_memos()
        series = count_calls(monkeypatch, "_legendre_series")
        s = tuple(random_sphere_point(np.random.default_rng(7)) for _ in range(3))
        for check in SPHERE_CHECKS:
            with pytest.raises(NumericalConsistencyError, match="truncation bound"):
                check("S2", *s, 0.2, l_max=1)
        assert len(series) == 2

    @pytest.mark.parametrize(
        "make, coords", [(SpherePoint, [0.0, 0.6, 0.8]), (HyperboloidPoint, [1.0, 0.0, 0.0, 0.0])]
    )
    def test_points_own_their_coordinates(self, make, coords):
        # a kept entry names its points by identity, so a point's value must
        # not change through the array it was made from
        given = np.array(coords)
        point = make(given)
        held = point.u if make is SpherePoint else point.x
        given += 1.0  # the caller's array stays writable
        assert held.tolist() == coords
        with pytest.raises(ValueError):
            held[0] = 2.0

    @pytest.mark.parametrize("as_numpy", [np.float64, np.array])
    def test_numpy_t_gives_the_python_float_reports(self, as_numpy):
        s = tuple(random_sphere_point(np.random.default_rng(7)) for _ in range(3))
        h = h3_abc(3.0)
        for space in ("S2", "RP2"):
            for check in SPHERE_CHECKS:
                clear_kernel_memos()
                ref = check(space, *s, 0.2)
                clear_kernel_memos()
                assert check(space, *s, as_numpy(0.2), l_max=np.int64(200)) == ref
        for check in H3_CHECKS:
            clear_kernel_memos()
            ref = check(*h, 1.0)
            clear_kernel_memos()
            assert check(*h, as_numpy(1.0)) == ref


# --- the continuum checks as they were written before they shared one
# triple check and heat._monotone_report, with squares taken as products as
# the shared margin formulas take them: references for bitwise equality ---


def old_kernels(space, a, b, c, t, l_max=200):
    kernel = sphere_heat if space == "S2" else rp2_heat
    sbc = sphere_point_symmetry(b, c)
    cos_vals = np.array(
        [
            float(np.dot(a.u, b.u)),
            float(np.dot(b.u, c.u)),
            float(np.dot(a.u, c.u)),
            float(np.dot(a.u, sbc.u)),
            1.0,
        ]
    )
    vals, tail = kernel(cos_vals, t, l_max)
    return (*(float(v) for v in vals), tail)


def old_symmetric_sphere(kernels, tol):
    hab, hbc, hac, hasbc, haa, tail = kernels
    lhs = hab * hab * (hbc * hbc)
    rhs = hac * hasbc * (haa * haa)
    per_eval = 10.0 * tail + 100.0 * np.finfo(float).eps * haa
    trunc = per_eval * (
        2 * abs(hab) * (hbc * hbc)
        + 2 * abs(hbc) * (hab * hab)
        + abs(hasbc * (haa * haa))
        + abs(hac * (haa * haa))
        + 2 * abs(hac * hasbc * haa)
    )
    margin = rhs - lhs
    return margin >= -(tol + trunc), margin


def old_heat_lemma_sphere(kernels, tol):
    hab, hbc, hac, hasbc, haa, tail = kernels
    lhs = hab * hbc / haa
    rhs = 0.5 * (hac + hasbc)
    per_eval = 10.0 * tail + 100.0 * np.finfo(float).eps * haa
    trunc = per_eval * (abs(hab) / haa + abs(hbc) / haa + 1.0 + lhs / haa)
    margin = rhs - lhs
    return margin >= -(tol + trunc), margin


# The H3 checks read their kernel values from the log ratio, so they match
# the linear closed form to rounding, not bitwise: margins to this much of
# the checks' scale, H(a,a)^4 for the product form, H(a,a) for the mean
# form, and for the monotone check's log steps the largest |log ratio|, at
# least 1.
H3_BOUND = 1e-14


def old_symmetric_h3(a, b, c, t, tol):
    sbc = h3_point_symmetry(b, c)
    h = lambda x, y: linear_h3_heat(h3_distance(x, y), t)  # noqa: E731
    haa = linear_h3_heat(0.0, t)
    lhs = h(a, b) ** 2 * h(b, c) ** 2
    rhs = h(a, c) * h(a, sbc) * haa**2
    margin = rhs - lhs
    return (margin >= -tol, margin, haa**4), max(lhs, rhs)


def old_heat_lemma_h3(a, b, c, t, tol):
    sbc = h3_point_symmetry(b, c)
    h = lambda x, y: linear_h3_heat(h3_distance(x, y), t)  # noqa: E731
    haa = linear_h3_heat(0.0, t)
    lhs = h(a, b) * h(b, c) / haa
    rhs = 0.5 * (h(a, c) + h(a, sbc))
    margin = rhs - lhs
    return (margin >= -tol, margin, haa), max(lhs, rhs)


def ref_log_d_over_sinh(d):
    """Reference: log(d/sinh d) through math.sinh below d = 20, and as
    log d - d + log 2 from there, where e^{-2d} is below 5e-18 (and sinh
    overflows past 710)."""
    if d == 0:
        return 0.0
    return math.log(d) - (math.log(math.sinh(d)) if d < 20 else d - math.log(2.0))


def old_h3_monotone(d, t_grid, tol=1e-12):
    """(passed, worst log step, witness, whether every other step is more
    than 2 H3_BOUND scale above the worst, so that steps each moved by at
    most H3_BOUND scale keep the same worst step, scale), with scale the
    largest |log ratio|, at least 1."""
    logs = ref_log_d_over_sinh(d) - d * d / (4.0 * t_grid)
    scale = max(1.0, float(np.max(np.abs(logs))))
    margins = np.diff(logs)
    worst_i = int(np.argmin(margins))
    worst = float(margins[worst_i])
    unique = bool(np.all(np.delete(margins, worst_i) > worst + 2 * H3_BOUND * scale))
    witness = f"d={d}, t={t_grid[worst_i]:.6g}, t'={t_grid[worst_i + 1]:.6g}"
    return worst >= -tol, worst, witness, unique, scale


def random_h3_point(rng, max_radius=3.0):
    r = rng.uniform(0.0, max_radius)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return HyperboloidPoint(np.concatenate([[math.cosh(r)], math.sinh(r) * v]))


TRIPLE_T = (0.05, 0.2, 1.0, 5.0)
# tolerances 0 and two negative ones, so some checks fail and the widened
# tolerance decides verdicts both ways
TRIPLE_TOLS = (0.0, -1e-4, -1e-2)


def assert_close_report(rep, old, name, witness, count=1):
    """Same name, count and verdict, margin within H3_BOUND of the
    reference's scale, and the same witness unless it is None."""
    passed, margin, scale = old
    assert (rep.name, rep.count) == (name, count)
    assert witness is None or rep.witness == witness
    assert bool(rep.passed) == bool(passed)
    assert abs(rep.worst_margin - margin) <= H3_BOUND * scale


def assert_same_report(rep, old, name, witness, count=1):
    passed, margin = old[:2]
    assert (rep.name, rep.count, rep.witness) == (name, count, witness)
    assert bool(rep.passed) == bool(passed)
    assert rep.worst_margin.hex() == float(margin).hex()


class TestMergedContinuumChecks:
    """The shared triple check and the monotone report give the verdicts
    and counts of the checks they replaced, and their margins: bitwise on
    S2 and RP2, within H3_BOUND of the linear closed form on H3."""

    @pytest.mark.parametrize("space", ["S2", "RP2"])
    def test_sphere_triples(self, space):
        rng = np.random.default_rng(61)
        failed = 0
        for i in range(1000):
            a, b, c = (random_sphere_point(rng) for _ in range(3))
            t, tol = TRIPLE_T[i % 4], TRIPLE_TOLS[i % 3]
            kernels = old_kernels(space, a, b, c, t)
            witness = f"space={space}, t={t}"
            for check, old, name in (
                (symmetric_ineq_check_sphere, old_symmetric_sphere, "symmetric_ineq"),
                (heat_lemma_check_sphere, old_heat_lemma_sphere, "heat_lemma"),
            ):
                rep = check(space, a, b, c, t, tol)
                assert_same_report(rep, old(kernels, tol), name, witness)
                failed += not rep.passed
        assert 0 < failed < 2000

    def test_h3_triples(self):
        rng = np.random.default_rng(62)
        triples = [tuple(random_h3_point(rng) for _ in range(3)) for _ in range(1000)]
        triples += [h3_abc(d1) for d1 in np.geomspace(0.05, 30.0, 40)]
        failed = refused = 0
        for i, (a, b, c) in enumerate(triples):
            t, tol = TRIPLE_T[i % 4], TRIPLE_TOLS[i % 3] * 1e-3
            witness = f"space=H3, t={t}"
            for check, old, name in (
                (symmetric_ineq_check_h3, old_symmetric_h3, "symmetric_ineq"),
                (heat_lemma_check_h3, old_heat_lemma_h3, "heat_lemma"),
            ):
                ref, larger_side = old(a, b, c, t, tol)
                if larger_side < sys.float_info.min:  # both sides underflow
                    with pytest.raises(NumericalConsistencyError, match="both sides underflow"):
                        check(a, b, c, t, tol)
                    refused += 1
                    continue
                rep = check(a, b, c, t, tol)
                assert_close_report(rep, ref, name, witness)
                failed += not rep.passed
        assert 0 < failed < 2 * len(triples)
        assert 0 < refused < failed

    def test_h3_monotone(self):
        grids = (np.geomspace(0.05, 50, 20), np.linspace(0.01, 3.0, 40))
        for d in [0.0, 1e-5, 709.0, 712.0, *np.geomspace(1e-6, 1000.0, 100)]:
            for grid in grids:
                for tol in (1e-12, -1e-3):
                    rep = h3_monotone_check(float(d), grid, tol)
                    passed, margin, witness, unique, scale = old_h3_monotone(float(d), grid, tol)
                    witness = witness if unique else None
                    assert_close_report(
                        rep, (passed, margin, scale), "h3_monotone", witness, len(grid) - 1
                    )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_monotone_checks_refuse_a_bad_t(self, bad):
        # without the grid check, h3 at t = -1 reported a made-up failure (margin -1.30)
        with pytest.raises(DomainError, match="t must be positive and finite"):
            h3_monotone_check(0.5, [bad, 1.0, 2.0])

    def test_h3_monotone_refuses_a_negative_distance(self):
        # d/sinh d took its Taylor branch at d = -5 and answered 8.99
        with pytest.raises(DomainError, match="nonnegative"):
            h3_monotone_check(-5.0, np.geomspace(0.05, 50, 20))
