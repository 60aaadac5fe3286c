import math

import numpy as np
import pytest

from cayleyheat.errors import (
    DivergenceError,
    DomainError,
    GroupMismatchError,
    NumericalConsistencyError,
)
from cayleyheat.groups import (
    FiniteAbelianGroup,
    GroupFunction,
    cexp_series,
    cexp_spectral,
    convolve,
    delta,
    dft,
    idft,
    idft_stack,
    parse_group,
    phi,
    phi_basis_decompose,
)

RNG = np.random.default_rng(20260823)


def dft_direct(f):
    """O(|G|^2) character-sum transform; oracle for dft()."""
    G = f.group
    out = np.zeros(G.order, dtype=complex)
    for k in range(G.order):
        kr = G.residues_of(k)
        acc = 0.0 + 0.0j
        for g in range(G.order):
            gr = G.residues_of(g)
            ang = sum(ki * gi / n for ki, gi, n in zip(kr, gr, G.factor_sizes))
            acc += f.values[g] * np.exp(-2j * np.pi * ang)
        out[k] = acc
    return out


def convolve_direct(f, g):
    """O(|G|^2) sum over y of f(x - y) g(y); oracle for convolve()."""
    return GroupFunction(f.group, f.values[f.group.sub_index_table()] @ g.values)


def recompose(G, terms):
    """sum alpha * phi(g0) over the terms of a phi-basis decomposition."""
    acc = np.zeros(G.order)
    for alpha, g0 in terms:
        acc += alpha * phi(G, g0).values
    return GroupFunction(G, acc)


def cexp_series_by_wrappers(upsilon, tol=1e-14):
    """cexp_series's old value-domain loop, on GroupFunction terms: each
    term is convolved with upsilon and inverted as a one-row idft_stack, and
    the series stops at the first term whose sup is below tol times the
    partial sum's; the reference for the spectral sum."""
    G = upsilon.group
    acc = term = delta(G)
    ups_hat = dft(upsilon)
    cap = max(4, int(math.ceil(10 * (1 + float(np.sum(np.abs(upsilon.values)))))))
    for n in range(1, cap + 1):
        term = idft(G, dft(term) * ups_hat) * (1.0 / n)
        acc = acc + term
        if term.sup_norm() <= tol * max(acc.sup_norm(), 1e-14):
            return acc
    raise DivergenceError(cap)


# the Cayley groups of the perfbench heat_tgrid workload, orders 32 to 4096
HEAT_TGRID_GROUPS = [
    (32,), (2,) * 5, (8, 8), (256,), (16, 16), (2,) * 8, (1024,),
    (32, 32), (2,) * 10, (4096,), (64, 64), (8,) * 4, (4,) * 6,
]


def heat_tgrid_upsilons(G):
    """Two weight draws as heat_tgrid makes them (2-6 generators, mirrored),
    each at scales 0.5 and 3."""
    rng = np.random.default_rng(G.order + G.rank)
    neg = G.neg_index_table()
    for _ in range(2):
        w = np.zeros(G.order)
        for g in rng.integers(1, G.order, size=rng.integers(2, 7)):
            w[g] = w[neg[g]] = rng.uniform(0.1, 1.0)
        yield GroupFunction(G, 0.5 * w)
        yield GroupFunction(G, 3.0 * w)


def random_fn(G, rng=RNG):
    return GroupFunction(G, rng.normal(size=G.order))


def random_even_nonneg(G, rng=RNG):
    v = rng.uniform(0, 1, G.order)
    v = v + v[G.neg_index_table()]
    return GroupFunction(G, v)


class TestGroupArithmetic:
    def test_add_z6(self):
        G = FiniteAbelianGroup((6,))
        assert (G.element((4,)) + G.element((5,))).residues == (3,)

    def test_add_product(self):
        G = FiniteAbelianGroup((2, 3))
        g = G.element((1, 2))
        assert (g + g).residues == (0, 1)

    def test_identity_law(self):
        G = FiniteAbelianGroup((3, 4))
        for g in map(G.from_index, range(G.order)):
            assert (g + G.identity).residues == g.residues

    def test_mismatched_groups_raise(self):
        with pytest.raises(GroupMismatchError):
            FiniteAbelianGroup((2,)).identity + FiniteAbelianGroup((3,)).identity

    def test_index_bijection_round_trip(self):
        G = FiniteAbelianGroup((2, 3, 4))
        for i in range(G.order):
            assert G.from_index(i).index == i

    def test_last_factor_fastest(self):
        G = FiniteAbelianGroup((2, 3))
        assert G.residues_of(1) == (0, 1)
        assert G.residues_of(3) == (1, 0)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            FiniteAbelianGroup((5000,))


class TestParseGroup:
    def test_basic(self):
        assert parse_group("Z12xZ2").factor_sizes == (12, 2)

    def test_case_insensitive(self):
        assert parse_group("z4Xz3").factor_sizes == (4, 3)

    def test_bad_spec(self):
        with pytest.raises(DomainError):
            parse_group("Q8")


class TestDeltaPhi:
    def test_delta_z4(self):
        G = FiniteAbelianGroup((4,))
        assert delta(G).values.tolist() == [1, 0, 0, 0]

    def test_delta_convolution_identity(self):
        G = FiniteAbelianGroup((5,))
        f = random_fn(G)
        assert np.allclose(convolve(delta(G), f).values, f.values, atol=1e-12)

    def test_delta_flat_spectrum(self):
        G = FiniteAbelianGroup((2, 3))
        assert np.allclose(dft(delta(G)), 1.0)

    def test_phi_z5(self):
        G = FiniteAbelianGroup((5,))
        assert phi(G, G.element((1,))).values.tolist() == [0, 1, 0, 0, 1]

    def test_phi_doubles_on_self_inverse(self):
        G = FiniteAbelianGroup((4,))
        assert phi(G, G.element((2,))).values.tolist() == [0, 0, 2, 0]

    def test_phi_klein_group(self):
        G = FiniteAbelianGroup((2, 2))
        v = phi(G, G.element((1, 0))).values
        assert v[G.index_of((1, 0))] == 2
        assert v.sum() == 2


class TestDFT:
    def test_z2_sign_character(self):
        G = FiniteAbelianGroup((2,))
        s = dft(GroupFunction(G, np.array([0.0, 1.0])))
        assert np.allclose(s, [1, -1])

    def test_round_trip(self):
        G = FiniteAbelianGroup((3, 4))
        f = random_fn(G)
        assert np.allclose(idft(G, dft(f)).values, f.values, atol=1e-12)

    def test_matches_direct_character_sum(self):
        for sizes in [(7,), (2, 3), (2, 2, 3)]:
            G = FiniteAbelianGroup(sizes)
            f = random_fn(G)
            assert np.allclose(dft(f), dft_direct(f), atol=1e-10)

    def test_idft_constant(self):
        G = FiniteAbelianGroup((3,))
        out = idft(G, np.array([3.0, 0, 0], dtype=complex))
        assert np.allclose(out.values, 1.0)

    def test_idft_rejects_large_imaginary(self):
        G = FiniteAbelianGroup((3,))
        bad = np.array([1.0, 1j, 0.0])
        with pytest.raises(NumericalConsistencyError):
            idft(G, bad)

    def test_stack_rows_match_idft_and_ifftn(self):
        for sizes in [(1,), (7,), (12,), (2, 3), (2, 2, 2), (4,) * 4, (16, 16)]:
            G = FiniteAbelianGroup(sizes)
            spectra = np.stack([dft(random_fn(G)) for _ in range(3)])
            rows = idft_stack(G, spectra)
            ref = np.fft.ifftn(spectra.reshape((3,) + sizes), axes=range(1, len(sizes) + 1))
            assert np.array_equal(rows, ref.real.reshape(3, -1))
            for s, row in zip(spectra, rows):
                assert np.array_equal(idft(G, s).values, row)

    def test_idft_refuses_wrong_length(self):
        G = FiniteAbelianGroup((2, 2))
        for spectrum in (np.ones(3), np.ones(5), np.ones((2, 4))):
            with pytest.raises(DomainError, match="rows of length 4"):
                idft(G, spectrum)

    def test_stack_refuses_wrong_shape(self):
        G = FiniteAbelianGroup((2, 2))
        for spectra in (np.ones((2, 3)), np.ones((1, 8)), np.ones(4), np.ones((1, 2, 2))):
            with pytest.raises(DomainError, match="rows of length 4"):
                idft_stack(G, spectra)

    def test_dft_is_fftn(self):
        for sizes in [(7,), (2, 3), (4,) * 4, (2,) * 10]:
            f = random_fn(FiniteAbelianGroup(sizes))
            assert np.array_equal(dft(f), np.fft.fftn(f.values.reshape(sizes)).ravel())

    def test_stack_with_one_bad_row_trips_residue_check(self):
        G = FiniteAbelianGroup((8,))
        good = dft(random_fn(G))
        bad = good + 1e-6j * np.eye(8)[1]
        with pytest.raises(NumericalConsistencyError, match="row 2"):
            idft_stack(G, np.stack([good, good, bad]))

    def test_residue_is_judged_against_its_own_row(self):
        # the bad row's residue is tiny beside the big row's norm: a shared
        # norm would let it through
        G = FiniteAbelianGroup((8,))
        good = dft(random_fn(G))
        bad = good + 1e-6j * np.eye(8)[1]
        idft_stack(G, np.stack([1e12 * good, good]))
        with pytest.raises(NumericalConsistencyError, match="row 1"):
            idft_stack(G, np.stack([1e12 * good, bad]))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_stack_refuses_nonfinite_spectra(self, value):
        G = FiniteAbelianGroup((2, 4))
        spectra = np.stack([dft(random_fn(G))] * 2)
        spectra[1, 0] = value
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalConsistencyError, match="row 1"):
                idft_stack(G, spectra)

    def test_even_function_real_spectrum(self):
        G = FiniteAbelianGroup((8,))
        f = random_even_nonneg(G)
        assert np.max(np.abs(dft(f).imag)) < 1e-10

    def test_plancherel(self):
        G = FiniteAbelianGroup((3, 5))
        f = random_fn(G)
        lhs = np.sum(f.values**2)
        rhs = np.sum(np.abs(dft(f)) ** 2) / G.order
        assert abs(lhs - rhs) < 1e-10 * max(1.0, lhs)


class TestConvolve:
    def test_z2_expansion(self):
        G = FiniteAbelianGroup((2,))
        a = GroupFunction(G, np.array([2.0, 3.0]))
        b = GroupFunction(G, np.array([5.0, 7.0]))
        out = convolve_direct(a, b)
        assert np.allclose(out.values, [2 * 5 + 3 * 7, 2 * 7 + 3 * 5])

    def test_direct_vs_spectral(self):
        G = FiniteAbelianGroup((12,))
        f, g = random_fn(G), random_fn(G)
        d = convolve_direct(f, g)
        s = convolve(f, g)
        scale = max(1.0, d.sup_norm())
        assert np.max(np.abs(d.values - s.values)) < 1e-10 * scale

    def test_commutative_associative(self):
        G = FiniteAbelianGroup((2, 5))
        f, g, h = (random_fn(G) for _ in range(3))
        assert np.allclose(convolve(f, g).values, convolve(g, f).values, atol=1e-10)
        assert np.allclose(
            convolve(convolve(f, g), h).values,
            convolve(f, convolve(g, h)).values,
            atol=1e-10,
        )

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            convolve(delta(FiniteAbelianGroup((2,))), delta(FiniteAbelianGroup((3,))))


class TestCexp:
    def test_cexp_zero_is_delta(self):
        G = FiniteAbelianGroup((6,))
        zero = GroupFunction(G, np.zeros(6))
        assert np.allclose(cexp_series(zero).values, delta(G).values, atol=1e-12)
        assert np.allclose(cexp_spectral(zero).values, delta(G).values, atol=1e-12)

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5])
    def test_z2_cosh_sinh(self, s):
        # two-point spectrum exp(+-s) gives (cosh s, sinh s)
        G = FiniteAbelianGroup((2,))
        u = GroupFunction(G, np.array([0.0, s]))
        for out in (cexp_series(u), cexp_spectral(u)):
            assert abs(out.values[0] - math.cosh(s)) < 1e-12 * math.cosh(s)
            assert abs(out.values[1] - math.sinh(s)) < 1e-12 * math.cosh(s)

    def test_z3_cycle_spectrum(self):
        # adjacency spectrum {2, -1, -1}: cexp(t*u)(0) = (e^{2t} + 2e^{-t})/3
        G = FiniteAbelianGroup((3,))
        t = 0.7
        u = GroupFunction(G, np.array([0.0, t, t]))
        expected = 1.6827901914758312  # frozen from (e^{2t}+2e^{-t})/3
        assert abs(cexp_spectral(u).values[0] - expected) < 1e-12

    def test_homomorphism_property(self):
        G = FiniteAbelianGroup((8,))
        a, b = random_even_nonneg(G), random_even_nonneg(G)
        lhs = cexp_spectral(a + b)
        rhs = convolve(cexp_spectral(a), cexp_spectral(b))
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-9 * lhs.sup_norm()

    def test_series_matches_spectral_random(self):
        rng = np.random.default_rng(7)
        for sizes in [(6,), (2, 4), (3, 3)]:
            G = FiniteAbelianGroup(sizes)
            u = random_even_nonneg(G, rng)
            s = cexp_series(u, 1e-14)
            p = cexp_spectral(u)
            assert np.max(np.abs(s.values - p.values)) < 1e-9 * p.sup_norm()

    def test_cexp_even_and_positive(self):
        G = FiniteAbelianGroup((12,))
        u = 0.5 * phi(G, G.element((1,)))
        out = cexp_spectral(u)
        assert out.is_even()
        assert np.all(out.values > 0)

    @pytest.mark.parametrize("sizes", HEAT_TGRID_GROUPS, ids=str)
    def test_series_bitwise_equal_to_wrapper_loop(self, sizes):
        # the spectral sum stops at the wrapper loop's term or later and
        # rounds differently, so the two agree to a bound, not bitwise; both
        # are checked against one FFT pair of np.exp
        G = FiniteAbelianGroup(sizes)
        for u in heat_tgrid_upsilons(G):
            got = cexp_series(u).values
            oracle = np.fft.ifftn(np.exp(np.fft.fftn(u.values.reshape(sizes)))).real.ravel()
            sup = np.max(np.abs(oracle))
            assert np.max(np.abs(got - cexp_series_by_wrappers(u).values)) <= 1e-12 * sup
            assert np.max(np.abs(got - oracle)) <= 1e-12 * sup

    @pytest.mark.parametrize("sizes", HEAT_TGRID_GROUPS, ids=str)
    def test_series_stop_bounds_the_first_omitted_term(self, sizes):
        # terms u^{*m}/m! by repeated convolution in the value domain; the
        # partial sum nearest the result is where the series stopped, and the
        # term after it must be below tol times the result's sup
        G = FiniteAbelianGroup(sizes)
        rng = np.random.default_rng(G.order)
        # not even, so its spectrum is complex, with |z(k)| of order 2
        odd = GroupFunction(G, rng.normal(size=G.order) * (2 / math.sqrt(G.order)))
        for u in [*heat_tgrid_upsilons(G), odd]:
            u_hat = np.fft.fftn(u.values.reshape(sizes))
            terms = [delta(G).values]
            for m in range(1, 120):
                spec = np.fft.fftn(terms[-1].reshape(sizes)) * u_hat / m
                terms.append(np.fft.ifftn(spec).real.ravel())
            sums = np.cumsum(terms, axis=0)
            for tol in (0.5, 1e-3, 1e-6, 1e-9):
                got = cexp_series(u, tol).values
                sup = np.max(np.abs(got))
                n = int(np.argmin(np.max(np.abs(sums - got), axis=1)))
                assert np.max(np.abs(sums[n] - got)) <= 1e-12 * sup
                assert np.max(np.abs(terms[n + 1])) <= tol * sup

    @pytest.mark.parametrize(
        "sizes, weight",
        [((4,), 400.0), ((4,), 800.0), ((4,), 1e200), ((2, 2), 1e200), ((64,), 1e155)],
    )
    def test_series_overflow_is_refused(self, sizes, weight):
        # the terms overflow to inf or NaN: the stop test fires and the sum
        # is refused, without running to the term cap (about 4e201 terms at
        # weight 1e200)
        G = FiniteAbelianGroup(sizes)
        v = np.zeros(G.order)
        v[1] = v[G.neg_index_table()[1]] = weight
        with np.errstate(all="ignore"):
            with pytest.raises(DomainError, match="finite"):
                cexp_series(GroupFunction(G, v))

    def test_series_tol_precondition(self):
        G = FiniteAbelianGroup((2,))
        with pytest.raises(DomainError):
            cexp_series(delta(G), tol=0.0)


class TestPhiBasis:
    def test_single_bump(self):
        G = FiniteAbelianGroup((7,))
        g0 = G.element((2,))
        terms = phi_basis_decompose(phi(G, g0))
        assert len(terms) == 1
        alpha, rep = terms[0]
        assert alpha == 1.0
        assert rep.residues in ((2,), (5,))

    def test_z4_read_off(self):
        G = FiniteAbelianGroup((4,))
        u = GroupFunction(G, np.array([0.0, 3.0, 5.0, 3.0]))
        terms = sorted(phi_basis_decompose(u), key=lambda p: p[1].index)
        assert [(a, g.index) for a, g in terms] == [(3.0, 1), (2.5, 2)]

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for sizes in [(6,), (2, 4), (2, 2, 2)]:
            G = FiniteAbelianGroup(sizes)
            u = random_even_nonneg(G, rng)
            back = recompose(G, phi_basis_decompose(u))
            assert np.allclose(back.values, u.values, atol=1e-12)

    def test_identity_orbit_halved(self):
        G = FiniteAbelianGroup((5,))
        u = GroupFunction(G, np.array([4.0, 0, 0, 0, 0]))
        terms = phi_basis_decompose(u)
        assert terms == [(2.0, G.identity)]

    def test_rejects_odd_or_negative(self):
        G = FiniteAbelianGroup((4,))
        with pytest.raises(DomainError):
            phi_basis_decompose(GroupFunction(G, np.array([0.0, 1.0, 0, 0])))
        with pytest.raises(DomainError):
            phi_basis_decompose(GroupFunction(G, np.array([0.0, -1.0, 0, -1.0])))
