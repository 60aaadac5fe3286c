import math

import numpy as np
import pytest

from cayleyheat import approx
from cayleyheat.approx import (
    build_chi_n,
    cexp_pushforward_factorized,
    convergence_check_lemma37,
    rate_check_lemma35,
)
from cayleyheat.checks import sweep_mean_ineq, sweep_rsd
from cayleyheat.errors import DomainError, NumericalConsistencyError
from cayleyheat.groups import (
    FiniteAbelianGroup,
    GroupFunction,
    cexp_spectral,
    delta,
    dft,
    idft,
    phi,
)


class TestBuildChiN:
    def test_config_requires_n_above_alpha(self):
        G = FiniteAbelianGroup((12,))
        with pytest.raises(DomainError):
            build_chi_n(5.0, G, 1, 4)

    def test_first_shell_value(self):
        G = FiniteAbelianGroup((12,))
        res = build_chi_n(1.0, G, 1, 100)
        assert abs(res.chi.values[1] - 0.01) < 1e-15
        assert res.chi.values[0] >= 1.0

    def test_second_shell_fourth_power(self):
        G = FiniteAbelianGroup((12,))
        res = build_chi_n(1.0, G, 1, 100)
        assert abs(res.chi.values[2] - 1e-8) < 1e-16

    def test_sup_error_bound(self):
        # remainder after the {0, +-r_n} shell is a fourth-order theta tail
        G = FiniteAbelianGroup((12,))
        g0 = 1
        for n in (16, 64, 256):
            alpha = 1.0
            res = build_chi_n(alpha, G, g0, n)
            target = delta(G) + (alpha / n) * phi(G, g0)
            err = (target - res.chi).sup_norm()
            assert err <= 3 * (alpha / n) ** 4


class TestLemma35Rate:
    def test_fitted_order_near_minus_four(self):
        G = FiniteAbelianGroup((12,))
        rr = rate_check_lemma35(1.0, G, 1)
        assert rr.passed
        assert -4.5 <= rr.fitted_order <= -3.5

    def test_successive_ratios(self):
        G = FiniteAbelianGroup((12,))
        rr = rate_check_lemma35(1.0, G, 1, ns=(16, 32, 64, 128, 256))
        for e_n, e_2n in zip(rr.errors, rr.errors[1:]):
            ratio = e_2n / e_n
            assert 2**-5 <= ratio <= 2**-3  # within a factor 2 of 2^-4

    def test_degenerate_g0_zero(self):
        G = FiniteAbelianGroup((12,))
        rr = rate_check_lemma35(1.0, G, 0, ns=(16, 32, 64, 128))
        assert rr.passed


class TestLemma37Convergence:
    def test_decreasing_on_z8(self):
        G = FiniteAbelianGroup((8,))
        rr = convergence_check_lemma37(1.0, G, 1)
        assert rr.passed
        assert all(b < a for a, b in zip(rr.errors, rr.errors[1:]))

    def test_slope_near_euler_limit_order(self):
        # total error dominated by the (1 + x/n)^n - e^x gap, first order in 1/n
        G = FiniteAbelianGroup((8,))
        rr = convergence_check_lemma37(1.0, G, 1, ns=(16, 64, 256))
        assert -1.5 <= rr.fitted_order <= -0.6

    @pytest.mark.parametrize("sizes", [(8,), (4,), (4, 4), (3, 9)], ids=str)
    def test_exact_first_order_drop_passes_on_every_group(self, sizes):
        # at alpha = 1e-4 the error falls as 1/n to about 7 digits, so over
        # n = 2 to 8 it drops almost exactly 4x: a 4x threshold left the
        # verdict to the last bit, which went one way on Z8 and the other on
        # the rest.  The endpoint-order rule asks for a sqrt(4) = 2x drop.
        G = FiniteAbelianGroup(sizes)
        rr = convergence_check_lemma37(1e-4, G, 1, ns=(2, 4, 8))
        assert rr.errors[-1] == pytest.approx(rr.errors[0] / 4, rel=1e-6)
        assert rr.passed

    def test_default_range_keeps_the_4x_drop(self):
        # ns 16 to 256: sqrt(16 / 256) is 1/4 exactly, so the rule is the
        # old one there, to the bit
        G = FiniteAbelianGroup((8,))
        rr = convergence_check_lemma37(1.0, G, 1, ns=(16, 64, 256))
        assert math.sqrt(16 / 256) == 0.25
        assert rr.passed == (rr.errors[-1] < rr.errors[0] / 4)

    def test_value_at_origin_converges(self):
        G = FiniteAbelianGroup((8,))
        g0 = 1
        target = cexp_spectral(phi(G, g0)).values[0]
        chi = build_chi_n(1.0, G, g0, 1024).chi
        power = idft(G, dft(chi) ** 1024)
        assert abs(power.values[0] - target) < 5e-3

    def test_alpha_zero_edge(self):
        # chi_n would be delta exactly: refused, before the n check
        G = FiniteAbelianGroup((8,))
        for n in (16, 1):
            with pytest.raises(DomainError, match="alpha = 0"):
                build_chi_n(0.0, G, 1, n)


class TestIndexArguments:
    @pytest.mark.parametrize("g0", [-1, 12])
    def test_build_chi_n_refuses_an_index_out_of_range(self, g0):
        # NumPy would wrap -1 to the last element
        with pytest.raises(DomainError, match=f"index {g0} out of range"):
            build_chi_n(1.0, FiniteAbelianGroup((12,)), g0, 16)

    @pytest.mark.parametrize("check", [rate_check_lemma35, convergence_check_lemma37])
    @pytest.mark.parametrize("g0", [-1, 12])
    def test_rate_checks_refuse_an_index_out_of_range(self, check, g0):
        with pytest.raises(DomainError, match=f"index {g0} out of range"):
            check(1.0, FiniteAbelianGroup((12,)), g0)

    def test_product_group_generator_image(self):
        # on Z4 x Z6 the index 7 is (1, 1): chi_n has alpha/n there and at -(1, 1)
        G = FiniteAbelianGroup((4, 6))
        chi = build_chi_n(1.0, G, 7, 100).chi
        assert chi.values[7] == chi.values[G.flat((3, 5))] == pytest.approx(0.01, rel=1e-12)


class TestCexpBump:
    """The lemma-37 target cexp(alpha phi(g0)), summed on the values, with
    its error bound, against 50-digit values: e^{alpha (z + 1/z)} =
    sum_m I_m(2 alpha) z^m, so cexp(alpha phi(g0)) is sum_m I_m(2 alpha) at
    m g0."""

    @staticmethod
    def exact(mp, alpha, G, g0):
        r0 = np.array(G.residues_of(g0))
        out = [mp.mpf(0)] * G.order
        for m in range(-int(6 * alpha) - 40, int(6 * alpha) + 41):
            out[int(G.flat(m * r0))] += mp.besseli(abs(m), 2 * mp.mpf(alpha))
        return out

    @pytest.mark.parametrize("sizes, g0", [((8,), 1), ((12,), 6), ((4, 6), 7), ((1,), 0)])
    def test_error_bound_holds(self, sizes, g0):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        G = FiniteAbelianGroup(sizes)
        for alpha in (1e-8, 0.5, 1.0, 5.0, 30.0, -2.0):
            got, bound = approx._cexp_bump(alpha, G, g0)
            exact = self.exact(mp, alpha, G, g0)
            err = max(abs(float(got.values[i]) - e) for i, e in enumerate(exact))
            assert err <= bound, (alpha, float(err), bound)
            # the bound is rounding-sized: at most 1e-12 of the l1 norm
            assert bound <= 1e-12 * math.exp(2 * abs(alpha))

    def test_matches_the_spectral_route(self):
        for sizes in [(12,), (4, 6), (4096,), (64, 64), (2,) * 6]:
            G = FiniteAbelianGroup(sizes)
            for alpha in (0.5, 2.5, 40.0):
                for g0 in (1, G.order // 2, G.order - 1):
                    got, bound = approx._cexp_bump(alpha, G, g0)
                    want = cexp_spectral(alpha * phi(G, g0))
                    gap = (got - want).sup_norm()
                    assert gap <= 1e-13 * want.sup_norm(), (sizes, alpha, g0)

    @pytest.mark.parametrize("alpha", [354.9, -400.0, 1e300, math.nan])
    def test_overflowing_norm_is_refused_by_name(self, alpha):
        # e^{2|alpha|}, the target's l1 norm, overflows above 2|alpha| = 709.78
        with pytest.raises(NumericalConsistencyError, match="cexp"):
            approx._cexp_bump(alpha, FiniteAbelianGroup((8,)), 1)

    def test_largest_accepted_alpha_answers(self):
        G = FiniteAbelianGroup((8,))
        got, bound = approx._cexp_bump(354.89, G, 1)
        assert np.all(np.isfinite(got.values)) and math.isfinite(bound)

    def test_refuses_an_index_out_of_range(self):
        for g0 in (-1, 8):
            with pytest.raises(DomainError, match=f"index {g0} out of range"):
                approx._cexp_bump(1.0, FiniteAbelianGroup((8,)), g0)


class TestErrorFloor:
    """The floors below which the rate checks refuse, against a 50-digit
    reference: the computed error is the exact one within the floor."""

    @staticmethod
    def exact_chi(mp, alpha, N, g0, n):
        """chi_n on Z_N: sum over k of (alpha/n)^{k^2} at k*g0, to 50 digits."""
        q = mp.mpf(alpha) / n
        vals = [mp.mpf(0)] * N
        for k in range(-60, 61):
            vals[k * g0 % N] += q ** (k * k)
        return vals

    CASES = [
        (alpha, n, eps)
        for alpha in (1.5, 1.0, 5.0, 1e-2, 1e-4, 1e-8)
        for n in (2, 16, 64, 256, 10**6)
        for eps in (1e-12, 1e-30)
        if n > alpha
    ]

    @pytest.mark.parametrize("g0", [1, 6, 0])
    def test_lemma35_floor_bounds_the_rounding(self, g0):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        G = FiniteAbelianGroup((12,))
        bump = phi(G, g0).values
        for alpha, n, eps in self.CASES:
            res = build_chi_n(alpha, G, g0, n, eps)
            computed = ((delta(G) + (alpha / n) * phi(G, g0)) - res.chi).sup_norm()
            chi = self.exact_chi(mp, alpha, 12, g0, n)
            target = [(i == 0) + mp.mpf(alpha) / n * int(bump[i]) for i in range(12)]
            exact = max(abs(t - c) for t, c in zip(target, chi))
            floor = approx._floor(alpha, n, res)
            assert abs(computed - exact) <= floor, (alpha, n, eps, computed, float(exact))

    @pytest.mark.parametrize("g0", [1, 4])
    def test_lemma37_floor_bounds_the_rounding(self, g0):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        N = 8
        G = FiniteAbelianGroup((N,))

        def dft_exact(v, sign):
            return [
                mp.fsum(v[g] * mp.expjpi(sign * mp.mpf(2 * k * g) / N) for g in range(N))
                for k in range(N)
            ]

        bump = phi(G, g0).values
        for alpha, n, eps in self.CASES:
            if n > 256:
                continue
            res = build_chi_n(alpha, G, g0, n, eps)
            target, target_err = approx._cexp_bump(alpha, G, g0)
            computed = (idft(G, dft(res.chi) ** n) - target).sup_norm()
            spec = dft_exact(self.exact_chi(mp, alpha, N, g0, n), -1)
            cexp_spec = [mp.exp(alpha * z) for z in dft_exact([int(b) for b in bump], -1)]
            diff = dft_exact([a**n - b for a, b in zip(spec, cexp_spec)], 1)
            exact = max(abs(mp.re(d)) / N for d in diff)
            mass = float(np.sum(res.chi.values))
            floor = n * mass ** (n - 1) * approx._floor(alpha, n, res, G.transform_error)
            assert abs(computed - exact) <= floor + target_err, (alpha, n, eps, computed, float(exact))

    def test_refused_below_the_floor(self):
        # at alpha = 1e-2 the default epsilon cuts every shell past k = 1
        # except at n = 16, whose error 1.5e-13 is still below the tail bound
        G = FiniteAbelianGroup((12,))
        with pytest.raises(NumericalConsistencyError, match="truncation and rounding"):
            rate_check_lemma35(1e-2, G, 1)


class TestLemma34Consequence:
    def test_spectral_power_gap_bound(self):
        # |a_n^n - b_n^n| <= e^{2 alpha} * n * |a_n - b_n| per character
        G = FiniteAbelianGroup((12,))
        g0 = 1
        alpha = 1.0
        K = math.exp(2 * alpha)
        for n in (16, 64, 256):
            chi = build_chi_n(alpha, G, g0, n).chi
            a_n = 1.0 + alpha * dft(phi(G, g0)).real / n
            b_n = dft(chi).real
            gap = np.abs(a_n**n - b_n**n)
            bound = K * n * np.abs(a_n - b_n)
            assert np.all(gap <= bound + 1e-12)


class TestPushforwardPowersSatisfyInequalities:
    def test_chi_n_and_powers_pass_sweeps(self):
        G = FiniteAbelianGroup((8,))
        g0 = 1
        for n in (16, 64):
            chi = build_chi_n(1.0, G, g0, n).chi
            power = idft(G, dft(chi) ** n)
            for f in (chi, power):
                assert sweep_rsd(f, 1e-12 * f.at_index(0) ** 4).passed
                assert sweep_mean_ineq(f, 1e-12 * f.at_index(0) ** 2).passed

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 5.0])
    def test_cexp_phi_passes_mean_inequality(self, alpha):
        for sizes in [(24,), (2, 12), (3, 8)]:
            G = FiniteAbelianGroup(sizes)
            g0 = 1
            f = cexp_spectral(alpha * phi(G, g0))
            assert sweep_mean_ineq(f, 1e-9).passed


class TestFactorized:
    def test_single_orbit_reduces_to_power(self):
        G = FiniteAbelianGroup((8,))
        g0 = 1
        u = 1.0 * phi(G, g0)
        out = cexp_pushforward_factorized(u, 256)
        chi = build_chi_n(1.0, G, g0, 256).chi
        power = idft(G, dft(chi) ** 256)
        assert np.max(np.abs(out.values - power.values)) < 1e-10

    def test_converges_to_cexp_on_z6(self):
        rng = np.random.default_rng(12)
        G = FiniteAbelianGroup((6,))
        v = rng.uniform(0, 1, 6)
        v = v + v[G.neg_index_table()]
        u = GroupFunction(G, v)
        out = cexp_pushforward_factorized(u, 256)
        target = cexp_spectral(u)
        assert np.max(np.abs(out.values - target.values)) < 0.05 * target.sup_norm()

    def test_result_even_nonnegative(self):
        G = FiniteAbelianGroup((6,))
        u = 0.8 * phi(G, 2)
        out = cexp_pushforward_factorized(u, 64)
        assert out.is_even()
        assert np.all(out.values > -1e-12)
