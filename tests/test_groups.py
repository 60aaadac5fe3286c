import math

import numpy as np
import pytest

from cayleyheat.errors import (
    DivergenceError,
    DomainError,
    GroupMismatchError,
    NumericalConsistencyError,
)
from cayleyheat import groups
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


U = 2.0**-53  # unit roundoff of IEEE double precision


def character_table(sizes, inverse=False):
    """[k, g] = exp(-+2 pi i sum_j k_j g_j / n_j) in np.longdouble, from the
    exact integer phase sum_j (k_j g_j mod n_j) L/n_j mod L, L = lcm(n_j)."""
    k = np.indices(sizes).reshape(len(sizes), -1)
    L = math.lcm(*sizes)
    phase = sum(np.outer(r, r) % n * (L // n) for r, n in zip(k, sizes)) % L
    angle = (8 * np.arctan(np.longdouble(1))) * phase.astype(np.longdouble) / L
    return np.cos(angle) + (1 if inverse else -1) * 1j * np.sin(angle)


def character_sums(sizes, x, inverse=False):
    """Each row of x through the O(|G|^2) character sum: the DFT, or the
    inverse with its 1/|G|, in np.longdouble; the oracle for the transform
    plans, built without np.fft or the library's blocks."""
    mat = character_table(sizes, inverse)
    out = np.asarray(x, dtype=np.clongdouble) @ mat
    return out / len(mat) if inverse else out


def assert_within_transform_bound(G, got, exact):
    """Each row within G.transform_error * u of the extended-precision
    character sum, in the 2-norm relative to that row, plus the oracle's own
    |G| * u_extended."""
    u_ext = float(np.finfo(np.longdouble).eps) / 2
    exact = np.atleast_2d(exact)
    err = np.linalg.norm((np.atleast_2d(got) - exact).astype(complex), axis=1)
    scale = np.linalg.norm(exact.astype(complex), axis=1)
    bound = (G.transform_error * U + G.order * u_ext) * scale
    assert np.all(err <= bound), (G, err / scale, G.transform_error * U)


def convolve_direct(f, g):
    """O(|G|^2) sum over y of f(x - y) g(y); oracle for convolve()."""
    return GroupFunction(f.group, f.values[f.group.sub_index_table()] @ g.values)


def phi_basis_decompose_by_loop(upsilon):
    """phi_basis_decompose as a loop over the elements: each orbit at its
    smaller index, alpha halved on self-inverse orbits; the reference."""
    G, vals = upsilon.group, upsilon.values
    neg = G.neg_index_table()
    out = []
    for i in range(G.order):
        j = int(neg[i])
        v = float(vals[i])
        if j >= i and v > 0.0:
            out.append((v / 2.0 if i == j else v, i))
    return out


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

# the heat_tgrid groups and four more: many small factors, unequal odd
# strides, and the trivial group
PAIR_TABLE_GROUPS = HEAT_TGRID_GROUPS + [(2,) * 12, (2, 3, 5, 7), (2, 3, 5), (1,)]
# those whose add table is kept on the group
KEPT_TABLE_GROUPS = [s for s in PAIR_TABLE_GROUPS if math.prod(s) ** 2 <= groups.PAIR_TABLE_MAX]


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


def neg_index_table_by_meshgrid(G):
    """neg_index_table built from a meshgrid of negated residues and
    np.ravel_multi_index; the reference for the layout's tables."""
    grids = np.meshgrid(*[(-np.arange(n)) % n for n in G.factor_sizes], indexing="ij")
    return np.ravel_multi_index(grids, G.factor_sizes).ravel()


def pair_index_rows_by_meshgrid(G, sign, rows=slice(None)):
    """[x, y] = flat index of g_x + sign * g_y over the rows x, built from a
    meshgrid of residues, sums reduced per factor, and np.ravel_multi_index."""
    idx = [np.arange(n) for n in G.factor_sizes]
    x_res = np.array(np.meshgrid(*idx, indexing="ij")).reshape(G.rank, -1)  # (k, |G|)
    sizes = np.array(G.factor_sizes).reshape(G.rank, 1, 1)
    pair = (x_res[:, rows, None] + sign * x_res[:, None, :]) % sizes
    return np.ravel_multi_index(tuple(pair), G.factor_sizes)


def sub_index_table_by_meshgrid(G):
    """sub_index_table built from a meshgrid of residues, differences reduced
    per factor, and np.ravel_multi_index."""
    return pair_index_rows_by_meshgrid(G, -1)


def random_fn(G, rng=RNG):
    return GroupFunction(G, rng.normal(size=G.order))


def random_even_nonneg(G, rng=RNG):
    v = rng.uniform(0, 1, G.order)
    v = v + v[G.neg_index_table()]
    return GroupFunction(G, v)


class TestGroupArithmetic:
    def test_index_bijection_round_trip(self):
        G = FiniteAbelianGroup((2, 3, 4))
        for i in range(G.order):
            assert G.flat(G.residues_of(i)) == i

    def test_last_factor_fastest(self):
        G = FiniteAbelianGroup((2, 3))
        assert G.residues_of(1) == (0, 1)
        assert G.residues_of(3) == (1, 0)

    def test_index_out_of_range(self):
        G = FiniteAbelianGroup((2, 3))
        for i in (-1, 6):
            for method in (G.residues_of, G.from_index):
                with pytest.raises(DomainError):
                    method(i)

    def test_from_index_is_residues_of(self):
        G = FiniteAbelianGroup((2, 3, 4))
        for i in range(G.order):
            assert G.from_index(i) == G.residues_of(i)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            FiniteAbelianGroup((5000,))

    def test_function_refuses_complex_values(self):
        # a cast to float would keep the real parts and drop the rest
        G = FiniteAbelianGroup((4,))
        for values in (np.arange(4) + 1j, np.zeros(4, dtype=complex), [0, 1, 2, 3j]):
            with pytest.raises(DomainError, match="values must be real"):
                GroupFunction(G, values)

    @pytest.mark.parametrize("values, message", [
        (np.zeros(3), "values length"),
        (np.zeros(5), "values length"),
        (np.array([0.0, np.nan, 0.0, 0.0]), "values must be finite"),
        (np.array([0.0, 0.0, -np.inf, 0.0]), "values must be finite"),
    ])
    def test_function_refuses_wrong_length_and_non_finite_values(self, values, message):
        with pytest.raises(DomainError, match=message):
            GroupFunction(FiniteAbelianGroup((4,)), values)


class TestLayout:
    @pytest.mark.parametrize("sizes", HEAT_TGRID_GROUPS, ids=str)
    def test_residues_and_flat_match_numpy(self, sizes):
        G = FiniteAbelianGroup(sizes)
        col = np.array(sizes)[:, None]
        assert np.array_equal(G.residues, np.unravel_index(np.arange(G.order), sizes))
        assert not G.residues.flags.writeable
        assert np.array_equal(G.flat(G.residues), np.arange(G.order))
        rng = np.random.default_rng(G.order + G.rank)
        # residues of either sign, and at or above their factor
        r = rng.integers(-3 * G.order, 3 * G.order, size=(G.rank, 200))
        assert (r < 0).any() and (r >= col).any()
        assert np.array_equal(G.flat(r), np.ravel_multi_index(tuple(r % col), sizes))
        # per-factor arrays broadcast: (4, 1) rows against (1, 5) columns
        a = rng.integers(-2 * G.order, 2 * G.order, size=(G.rank, 4, 1))
        b = rng.integers(-2 * G.order, 2 * G.order, size=(G.rank, 1, 5))
        expected = np.ravel_multi_index(tuple((a - b) % col[:, :, None]), sizes)
        assert np.array_equal(G.flat(x - y for x, y in zip(a, b)), expected)
        # one factor's array may carry the whole shape, another a scalar
        mixed = [a[0] - b[0]] + [-7] * (G.rank - 1)
        expected = np.ravel_multi_index(
            tuple(np.broadcast_arrays(*[np.asarray(m) % n for m, n in zip(mixed, sizes)])),
            sizes,
        )
        assert np.array_equal(G.flat(mixed), expected)

    @pytest.mark.parametrize("sizes", PAIR_TABLE_GROUPS, ids=str)
    def test_neg_index_table_matches_meshgrid(self, sizes):
        G = FiniteAbelianGroup(sizes)
        assert np.array_equal(G.neg_index_table(), neg_index_table_by_meshgrid(G))

    @pytest.mark.parametrize("sizes", KEPT_TABLE_GROUPS, ids=str)
    def test_sub_index_table_matches_meshgrid(self, sizes):
        G = FiniteAbelianGroup(sizes)
        assert np.array_equal(G.sub_index_table(), sub_index_table_by_meshgrid(G))


class TestPairTables:
    """The add, sub and neg index tables, built by Kronecker sum."""

    @pytest.mark.parametrize("sizes", PAIR_TABLE_GROUPS, ids=str)
    def test_add_index_table_matches_meshgrid(self, sizes):
        # neg and sub: TestLayout
        G = FiniteAbelianGroup(sizes)
        if sizes in KEPT_TABLE_GROUPS:
            assert np.array_equal(G.add_index_table(), pair_index_rows_by_meshgrid(G, 1))
            assert G.add_index_table() is G.add_index_table()  # kept
        else:  # rows of the add table, and the sub rows the sweeps derive
            neg = G.neg_index_table()
            for i0, i1 in [(0, 256), (1000, 1256), (G.order - 100, G.order)]:
                add = G.add_index_rows(i0, i1)
                assert np.array_equal(add, pair_index_rows_by_meshgrid(G, 1, slice(i0, i1)))
                assert np.array_equal(
                    np.take(add, neg, axis=1), pair_index_rows_by_meshgrid(G, -1, slice(i0, i1))
                )

    @pytest.mark.parametrize("sizes", PAIR_TABLE_GROUPS, ids=str)
    def test_row_blocks_match_flat(self, sizes):
        # aligned and unaligned blocks, one row, and the whole table where it
        # is kept, against the Horner sum that flat computes
        G = FiniteAbelianGroup(sizes)
        n, r = G.order, G.residues
        rows = max(1, groups.PAIR_TABLE_MAX // n)
        # the sweeps' first, second and last blocks
        starts = sorted({0, rows, (n - 1) // rows * rows} & set(range(n)))
        blocks = [(i0, min(i0 + rows, n)) for i0 in starts]
        blocks += [(0, 1), (n - 1, n), (n // 3, min(n, n // 3 + 37)), (n // 2, n // 2)]
        for i0, i1 in blocks:
            expected = G.flat(x[i0:i1, None] + x for x in r)
            assert np.array_equal(G.add_index_rows(i0, i1), expected), (i0, i1)

    def test_tables_are_read_only_and_lazy(self):
        G = FiniteAbelianGroup((4, 8))
        assert not {"_add", "_neg"} & set(vars(G))  # nothing built at construction
        for table in (G.add_index_table(), G.neg_index_table()):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1
        assert {"_add", "_neg"} <= set(vars(G))
        # the sub table is a new array, so writing to it leaves the tables as
        # they were
        sub = G.sub_index_table()
        sub[:] = 0
        assert np.array_equal(G.sub_index_table(), sub_index_table_by_meshgrid(G))

    def test_large_add_table_is_not_kept(self):
        # 2048^2 entries are above PAIR_TABLE_MAX: built on each call
        G = FiniteAbelianGroup((2, 1024))
        table = G.add_index_table()
        assert not table.flags.writeable and "_add" not in vars(G)
        assert np.array_equal(table[::97], G.add_index_rows(0, G.order)[::97])

    def test_equal_groups_have_equal_tables(self):
        # the tables live on each instance; equality and hashing ignore them
        G, H = FiniteAbelianGroup((2, 6)), FiniteAbelianGroup((2, 6))
        G.add_index_table()
        assert G == H and hash(G) == hash(H) and "_add" not in vars(H)


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
        assert phi(G, 1).values.tolist() == [0, 1, 0, 0, 1]

    def test_phi_doubles_on_self_inverse(self):
        G = FiniteAbelianGroup((4,))
        assert phi(G, 2).values.tolist() == [0, 0, 2, 0]

    def test_phi_klein_group(self):
        G = FiniteAbelianGroup((2, 2))
        g0 = G.flat((1, 0))
        v = phi(G, g0).values
        assert v[g0] == 2
        assert v.sum() == 2

    def test_phi_product_group(self):
        # -(1, 2) = (1, 1) in Z2 x Z3: flat indices 5 and 4
        G = FiniteAbelianGroup((2, 3))
        assert phi(G, 5).values.tolist() == [0, 0, 0, 0, 1, 1]

    def test_phi_refuses_an_index_out_of_range(self):
        G = FiniteAbelianGroup((2, 3))
        for g0 in (-1, G.order):
            with pytest.raises(DomainError, match=f"index {g0} out of range"):
                phi(G, g0)


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
        # dense-only, FFT-only and mixed plans, within the plan's stated bound
        for sizes in [(1,), (7,), (12,), (2, 3), (2, 2, 3), (4,) * 4, (3, 9), (2,) * 10,
                      (15, 15), (16, 16), (256,), (2, 16, 4), (16, 4)]:
            G = FiniteAbelianGroup(sizes)
            fs = [random_fn(G) for _ in range(3)]
            exact = character_sums(sizes, np.stack([f.values for f in fs]))
            assert_within_transform_bound(G, np.stack([dft(f) for f in fs]), exact)

    def test_idft_constant(self):
        G = FiniteAbelianGroup((3,))
        out = idft(G, np.array([3.0, 0, 0], dtype=complex))
        assert np.allclose(out.values, 1.0)

    @pytest.mark.parametrize("route", ["idft", "idft_complex", "convolve", "cexp_spectral"])
    def test_inverse_whose_sum_overflows_is_refused(self, route):
        # Z64's FFT scales after summing: each spectrum has a finite norm and
        # an answer of at most 1e307 at 0, but bin 0's sum overflows
        G = FiniteAbelianGroup((64,))
        spike = np.zeros(64)
        run = {
            "idft": lambda: idft(G, np.full(64, 1e307)),
            "idft_complex": lambda: idft(G, np.full(64, 1e307, dtype=complex)),
            "convolve": lambda: convolve(GroupFunction(G, spike), GroupFunction(G, spike)),
            "cexp_spectral": lambda: cexp_spectral(GroupFunction(G, spike)),
        }[route]
        spike[0] = 707.0 if route == "cexp_spectral" else 3.3e153
        with pytest.raises(DomainError, match="values must be finite"):
            run()

    def test_idft_values_are_read_only(self):
        out = idft(FiniteAbelianGroup((16,)), np.full(16, 3.0))
        assert not out.values.flags.writeable and out.values[0] == 3.0

    def test_idft_rejects_large_imaginary(self):
        G = FiniteAbelianGroup((3,))
        bad = np.array([1.0, 1j, 0.0])
        with pytest.raises(NumericalConsistencyError):
            idft(G, bad)

    def test_stack_rows_match_idft_and_character_sum(self):
        # dense-only, FFT-only and mixed plans; a row's bits do not depend on
        # the stack it is in, a one-row stack included
        for sizes in [(1,), (7,), (12,), (2, 3), (2, 2, 2), (4,) * 4, (3, 9), (2,) * 10,
                      (16, 16), (64,), (2, 16, 4), (16, 4)]:
            G = FiniteAbelianGroup(sizes)
            spectra = np.stack([dft(random_fn(G)) for _ in range(20)])
            full = idft_stack(G, spectra)
            exact = character_sums(sizes, spectra, inverse=True)
            assert_within_transform_bound(G, full, exact)
            for b in (1, 2, 20):
                assert np.array_equal(idft_stack(G, spectra[:b]), full[:b])
            for s, row in zip(spectra[:3], full):
                assert np.array_equal(idft(G, s).values, row)

    def test_forward_rows_match_dft(self):
        for sizes in [(7,), (3, 9), (2,) * 10, (16, 16), (2, 16, 4), (16, 4)]:
            G = FiniteAbelianGroup(sizes)
            fs = [random_fn(G) for _ in range(20)]
            stack = np.stack([f.values for f in fs])
            forward = groups._plan(sizes).forward
            full = groups._transform(stack, forward, G.order)
            for b in (1, 2, 20):
                assert np.array_equal(groups._transform(stack[:b], forward, G.order), full[:b])
            for f, row in zip(fs, full):
                assert np.array_equal(dft(f), row)

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
        # the row-major element layout is numpy's: FFT-only plans give
        # fftn's bits; dense and mixed plans agree within both routes' bounds
        # (the plan's stated constant plus log2 of each fftn axis)
        for sizes in [(16,), (16, 16), (64, 64), (256,), (17, 19)]:
            f = random_fn(FiniteAbelianGroup(sizes))
            assert np.array_equal(dft(f), np.fft.fftn(f.values.reshape(sizes)).ravel())
        for sizes in [(7,), (2, 3), (4,) * 4, (2,) * 10, (2, 16, 4), (16, 4)]:
            G = FiniteAbelianGroup(sizes)
            f = random_fn(G)
            ref = np.fft.fftn(f.values.reshape(sizes)).ravel()
            bound = (G.transform_error + sum(math.log2(n) for n in sizes)) * U
            assert np.linalg.norm(dft(f) - ref) <= bound * np.linalg.norm(ref)

    def test_complex_idft_stack_is_ifftn(self):
        # on FFT-only plans each row of a complex stack gets ifftn's bits
        for sizes in [(16,), (17,), (31,), (16, 16), (17, 19), (64, 64), (4096,)]:
            G = FiniteAbelianGroup(sizes)
            spectra = np.stack([dft(random_fn(G)) for _ in range(3)])
            ref = np.fft.ifftn(spectra.reshape(3, *sizes), axes=range(1, len(sizes) + 1))
            assert np.array_equal(idft_stack(G, spectra), ref.real.reshape(3, G.order))

    def test_plans(self):
        # runs of factors below 16 merge into blocks of at most 64 elements;
        # larger factors keep the FFT; the error constant sums the dense
        # block sizes and log2 of the FFT lengths; the inverse has the
        # forward route's shapes, the half route its (pre, m) at its own width
        cases = {
            (2,) * 10: ([(2,) * 4, (2,) * 6], 16 + 64),
            (4,) * 6: ([(4, 4, 4), (4, 4, 4)], 128),
            (2, 16, 4): ([(4,), None, (2,)], 4 + 4 + 2),
            (3, 9): ([(3, 9)], 27),
            (15, 15): ([(15,), (15,)], 30),
            (64, 64): ([None, None], 12),
            (1,): ([(1,)], 1),
        }
        for sizes, (blocks, error) in cases.items():
            plan = groups._plan(sizes)
            for f, (_, _, _, op) in zip(blocks, plan.forward, strict=True):
                assert op is (np.fft.fft if f is None else groups._dense_block(f, False))
            assert plan.error == error == FiniteAbelianGroup(sizes).transform_error
            for pre, m, post, _ in plan.forward:
                assert pre * m * post == math.prod(sizes)
            assert [s[:3] for s in plan.inverse] == [s[:3] for s in plan.forward]
            assert [s[:2] for s in plan.half] == [s[:2] for s in plan.forward]
            for pre, m, post, _ in plan.half[1:]:
                assert pre * m * post == plan.width

    @pytest.mark.parametrize("sizes", [(2,), (2, 2, 2), (2,) * 10, (7,), (2, 16, 4), (4,) * 4])
    def test_inverse_blocks_complex_and_z2_half_blocks_real(self, sizes):
        # complex rows meet complex blocks; real rows on Z2^k stay real
        plan = groups._plan(sizes)
        assert all(np.iscomplexobj(op) for *_, op in plan.inverse if not callable(op))
        if max(sizes) == 2:
            assert not any(callable(op) or np.iscomplexobj(op) for *_, op in plan.half)

    @pytest.mark.parametrize("n", [16, 17, 4096])
    def test_one_step_half_route_matches_ihfft(self, n):
        # the half route's op is ihfft's conjugate: same real parts and |Im|
        G = FiniteAbelianGroup((n,))
        spectra = even_real_spectra(G, 3)
        plan = groups._plan((n,))
        y = groups._transform(spectra, plan.half, plan.width)
        ref = np.fft.ihfft(spectra, axis=1)
        assert np.array_equal(y.real, ref.real)
        assert np.array_equal(np.abs(y.imag), np.abs(ref.imag))

    def test_dense_block_entries(self):
        # quarter turns exact, p and L - p exact conjugates, each entry within
        # a few ulps of the root of unity
        for factors in [(2,), (4,), (8,), (3, 9), (2, 3), (12,), (15,), (4, 4, 4)]:
            mat = groups._dense_block(factors, inverse=False)
            exact = character_table(factors)
            assert np.max(np.abs(mat - exact)) <= 4 * U
            assert np.array_equal(mat, mat.T)
            quarter = np.abs(exact.real * exact.imag) < 1e-3 * U  # 1, -i, -1 or i
            assert set(mat[quarter].tolist()) <= {1, -1j, -1, 1j}
            neg = FiniteAbelianGroup(factors).neg_index_table()
            assert np.array_equal(mat[:, neg], mat.conj())
            inv = groups._dense_block(factors, inverse=True)
            assert np.max(np.abs(inv @ mat - np.eye(len(mat)))) <= 4 * len(mat) * U

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

    @pytest.mark.parametrize("values", [(np.inf, np.nan), (np.nan, np.inf), (np.inf, np.inf)])
    def test_stack_names_the_first_row_whose_norm_is_not_finite(self, values):
        G = FiniteAbelianGroup((2, 4))
        spectra = np.stack([dft(random_fn(G))] * 4)
        spectra[1, 3], spectra[2, 0] = values
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalConsistencyError, match="norm of row 1 is not"):
                idft_stack(G, spectra)

    @pytest.mark.parametrize("real", [False, True])
    def test_stack_names_the_first_row_with_a_residue(self, real):
        # rows 1 and 2 both fail, row 2 by the larger residue
        G = FiniteAbelianGroup((8,))
        good = dft(random_fn(G))
        odd = 1e-3j * np.eye(8)[1]
        if real:  # an odd real part has an imaginary transform
            good, odd = good.real, RNG.normal(size=8)
            odd -= odd[G.neg_index_table()]
        spectra = np.stack([good, good + odd, good + 10 * odd, good])
        with pytest.raises(NumericalConsistencyError, match=r"\(row 1\)"):
            idft_stack(G, spectra)

    def test_row_whose_squares_overflow_passes_beside_a_good_row(self):
        # row 0's squares overflow; its norm, taken on the scaled row, is
        # finite, and its residue is judged against that norm
        G = FiniteAbelianGroup((8,))
        good = dft(random_fn(G))
        out = idft_stack(G, np.stack([1e300 * good, good]))
        assert np.array_equal(out[0], idft(G, 1e300 * good).values)
        assert np.array_equal(out[1], idft(G, good).values)
        bad = 1e300 * (good + 1e-6j * np.eye(8)[1])
        with pytest.raises(NumericalConsistencyError, match=r"\(row 0\)"):
            idft_stack(G, np.stack([bad, good]))

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


# every plan kind of the real-input route: FFT-only, dense-only, mixed, odd
# orders, factors of 1, Z1 and Z2^k (whose dense blocks are exactly real)
REAL_ROUTE_GROUPS = [
    (16,), (17,), (64,), (16, 16), (17, 19), (7,), (12,), (2, 3), (3, 9), (4,) * 4,
    (15, 15), (2, 16, 4), (16, 4), (16, 2), (5, 16), (16, 1), (1, 16), (1,), (2,),
    (2, 2, 2), (2,) * 10,
]


def even_real_spectra(G, rows=20):
    s = RNG.normal(size=(rows, G.order))
    return s + s[:, G.neg_index_table()]


class TestRealRoute:
    """idft_stack on a real stack: a half-width transform, completed from
    y(-g) = conj y(g)."""

    @pytest.mark.parametrize("sizes", REAL_ROUTE_GROUPS, ids=str)
    def test_rows_match_character_sum_and_are_even(self, sizes):
        G = FiniteAbelianGroup(sizes)
        spectra = even_real_spectra(G)
        full = idft_stack(G, spectra)
        assert_within_transform_bound(G, full, character_sums(sizes, spectra, inverse=True))
        # a row's bits do not depend on the stack it is in
        for b in (0, 1, 2, 20):
            assert np.array_equal(idft_stack(G, spectra[:b]), full[:b])
        for s, row in zip(spectra[:3], full):
            assert np.array_equal(idft(G, s).values, row)
        assert np.array_equal(full, full[:, G.neg_index_table()])
        if max(sizes) <= 2:  # every product stays real
            plan = groups._plan(sizes)
            assert not np.iscomplexobj(groups._transform(spectra, plan.half, plan.width))

    @pytest.mark.parametrize("sizes", [s for s in REAL_ROUTE_GROUPS if max(s) > 2], ids=str)
    def test_odd_spectrum_is_refused(self, sizes):
        G = FiniteAbelianGroup(sizes)
        s = RNG.normal(size=G.order)
        odd = s - s[G.neg_index_table()]
        with pytest.raises(NumericalConsistencyError, match=r"imaginary residue .* \(row 1\)"):
            idft_stack(G, np.stack([even_real_spectra(G, 1)[0], odd]))


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
        u = 0.5 * phi(G, 1)
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
        # is refused as an overflow, without a NumPy warning and without
        # running to the term cap (about 4e201 terms at weight 1e200)
        G = FiniteAbelianGroup(sizes)
        v = np.zeros(G.order)
        v[1] = v[G.neg_index_table()[1]] = weight
        with pytest.raises(NumericalConsistencyError, match="finite"):
            cexp_series(GroupFunction(G, v))

    def test_series_tol_precondition(self):
        G = FiniteAbelianGroup((2,))
        with pytest.raises(DomainError):
            cexp_series(delta(G), tol=0.0)


class TestPhiBasis:
    def test_single_bump(self):
        G = FiniteAbelianGroup((7,))
        terms = phi_basis_decompose(phi(G, 2))
        assert terms == [(1.0, 2)]

    def test_z4_read_off(self):
        G = FiniteAbelianGroup((4,))
        u = GroupFunction(G, np.array([0.0, 3.0, 5.0, 3.0]))
        assert phi_basis_decompose(u) == [(3.0, 1), (2.5, 2)]

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for sizes in [(6,), (2, 4), (2, 2, 2)]:
            G = FiniteAbelianGroup(sizes)
            u = random_even_nonneg(G, rng)
            back = recompose(G, phi_basis_decompose(u))
            assert np.allclose(back.values, u.values, atol=1e-12)

    def test_matches_orbit_loop(self):
        # same terms in the same order, alphas equal to the bit
        rng = np.random.default_rng(11)
        for sizes in [(1,), (5,), (12,), (2, 2), (2, 3, 4), (4, 6), (2,) * 6, (256,)]:
            G = FiniteAbelianGroup(sizes)
            for _ in range(5):
                v = rng.uniform(0, 1, G.order) * (rng.uniform(size=G.order) < 0.6)
                u = GroupFunction(G, v + v[G.neg_index_table()])
                got, want = phi_basis_decompose(u), phi_basis_decompose_by_loop(u)
                assert [(a.hex(), g) for a, g in got] == [(a.hex(), g) for a, g in want]

    def test_identity_orbit_halved(self):
        G = FiniteAbelianGroup((5,))
        u = GroupFunction(G, np.array([4.0, 0, 0, 0, 0]))
        terms = phi_basis_decompose(u)
        assert terms == [(2.0, 0)]

    def test_rejects_odd_or_negative(self):
        G = FiniteAbelianGroup((4,))
        with pytest.raises(DomainError):
            phi_basis_decompose(GroupFunction(G, np.array([0.0, 1.0, 0, 0])))
        with pytest.raises(DomainError):
            phi_basis_decompose(GroupFunction(G, np.array([0.0, -1.0, 0, -1.0])))
