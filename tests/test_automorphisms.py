"""Automorphism oracles for the group transforms.

An automorphism sigma of G = Z_{n1} x ... x Z_{nk} permutes the elements, so
f o sigma is f with its values permuted.  Two kinds are drawn here: swapping
two equal factors, and multiplying one factor's residues by a unit a mod n.
Then, exactly,

    dft(f o sigma)              = dft(f) o sigma*   (sigma* the same swap, or
                                                     the unit a^-1)
    heat row of w o sigma       = (heat row of w) o sigma
    cexp_spectral(u o sigma)    = cexp_spectral(u) o sigma

The computed sides differ by rounding only.  Each transform is within
G.transform_error * u of the exact one in the 2-norm, relative to its
result; the bounds below carry that through exp, and double it, since both
sides are computed.  A transform that mixes up one block's characters, such
as a sign error in one factor's phase, breaks the swap identities far beyond
the bound.
"""

import math

import numpy as np
import pytest

from cayleyheat import heat
from cayleyheat.groups import FiniteAbelianGroup, GroupFunction, cexp_spectral, dft
from cayleyheat.heat import CayleyWeights, default_t_grid

U = 2.0**-53  # unit roundoff of IEEE double precision


def swap(G, i, j):
    """Index permutation p with (f o sigma).values = f.values[p], sigma
    swapping factors i and j."""
    r = list(G.residues)
    r[i], r[j] = r[j], r[i]
    return G.flat(r)


def scale(G, i, a):
    """Index permutation of sigma multiplying factor i's residues by a."""
    r = list(G.residues)
    r[i] = a * r[i]
    return G.flat(r)


def permutations(G, kind, i, j_or_a):
    """(p, p*): sigma's permutation, and its dual's on the spectrum."""
    if kind == "swap":
        p = swap(G, i, j_or_a)
        return p, p
    n = G.factor_sizes[i]
    return scale(G, i, j_or_a), scale(G, i, pow(j_or_a, -1, n))


def norm(x, axis=None):
    return np.linalg.norm(x, axis=axis)


def assert_dft_permutes(G, f, p, p_dual):
    got, want = dft(GroupFunction(G, f[p])), dft(GroupFunction(G, f))[p_dual]
    assert norm(got - want) <= 2 * G.transform_error * U * norm(want), G


def assert_cexp_permutes(G, u, p):
    """The spectrum z carries an error of at most c u ||z||_2 per entry, so
    exp(z) one of (c ||z||_2 + 2) u relative per entry; the inverse adds
    c u of the result's 2-norm, which is ||exp(z)||_2 / sqrt|G|."""
    z = dft(GroupFunction(G, u))
    c = G.transform_error
    bound = 2 * (c * norm(z) + 2 + c) * U * norm(np.exp(z)) / math.sqrt(G.order)
    got = cexp_spectral(GroupFunction(G, u[p])).values
    want = cexp_spectral(GroupFunction(G, u)).values[p]
    assert norm(got - want) <= bound, G


def assert_heat_rows_permute(G, w, p, t):
    """Heat rows exponentiate t (Re w_hat - deg): an exponent error of at
    most t (c ||w_hat||_2 + (4 + log2|G|) deg) u, the second term for the
    two products and the difference (|Re w_hat| <= deg) and for the summed
    degree; exp adds u, and the inverse c u of the row's 2-norm."""
    cw = CayleyWeights(G, GroupFunction(G, w))
    c = G.transform_error
    rows = heat._heat_rows(cw, t)
    deg = float(np.sum(cw.w.values))
    spread = t * (c * norm(dft(cw.w)) + (4 + math.log2(G.order)) * deg) + 1 + c
    bound = 2 * spread * U * norm(rows, axis=1)
    moved = heat._heat_rows(CayleyWeights(G, GroupFunction(G, w[p])), t)
    assert np.all(norm(moved - rows[:, p], axis=1) <= bound), G


def random_inputs(G, rng):
    """A general f, an even nonnegative w with w(0) = 0, and a u that is not
    even, so the odd part of the spectrum is tested too."""
    f = rng.normal(size=G.order)
    w = rng.uniform(0, 1, G.order) * (rng.random(G.order) < 0.3)
    w = w + w[G.neg_index_table()]
    w[0] = 0.0
    u = rng.uniform(0, 2, G.order) / math.sqrt(G.order)
    return f, w, u


CASES = [
    ((4, 4, 4), "swap", 0, 2),
    ((4, 4, 4), "scale", 1, 3),
    ((3, 3), "swap", 0, 1),
    ((5, 5, 5), "swap", 1, 2),  # across the blocks (5, 5) and (5,)
    ((5, 5, 5), "scale", 2, 2),
    ((8,) * 4, "swap", 1, 2),
    ((8,) * 4, "scale", 0, 3),
    ((4, 16, 4), "swap", 0, 2),  # dense, FFT, dense
    ((16, 16), "swap", 0, 1),
    ((64,), "scale", 0, 5),
    ((12,), "scale", 0, 5),
    ((2,) * 10, "swap", 0, 9),
    ((4,) * 6, "swap", 2, 3),
]


@pytest.mark.parametrize("sizes, kind, i, j_or_a", CASES, ids=str)
def test_automorphism_permutes_transforms(sizes, kind, i, j_or_a):
    G = FiniteAbelianGroup(sizes)
    p, p_dual = permutations(G, kind, i, j_or_a)
    assert sorted(p.tolist()) == list(range(G.order))
    rng = np.random.default_rng(G.order + i)
    for _ in range(2):
        f, w, u = random_inputs(G, rng)
        assert_dft_permutes(G, f, p, p_dual)
        assert_cexp_permutes(G, u, p)
        assert_heat_rows_permute(G, w, p, default_t_grid())


def test_automorphisms_drawn_by_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def groups_with_a_repeated_factor(draw):
        """Factor sizes with some n twice, the two positions, and a unit mod n."""
        n = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]))
        sizes = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 9, 16]), max_size=2))
        i = draw(st.integers(0, len(sizes)))
        sizes.insert(i, n)
        j = draw(st.integers(0, len(sizes)))
        sizes.insert(j, n)
        i, j = (j, i + 1) if j <= i else (i, j)
        hypothesis.assume(math.prod(sizes) <= 1024)
        a = draw(st.sampled_from([a for a in range(1, n) if math.gcd(a, n) == 1]))
        return tuple(sizes), i, j, a, draw(st.integers(0, 2**32 - 1))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(groups_with_a_repeated_factor())
    def run(case):
        sizes, i, j, a, seed = case
        G = FiniteAbelianGroup(sizes)
        f, w, u = random_inputs(G, np.random.default_rng(seed))
        for kind, arg in [("swap", j), ("scale", a)]:
            p, p_dual = permutations(G, kind, i, arg)
            assert_dft_permutes(G, f, p, p_dual)
            assert_cexp_permutes(G, u, p)
            assert_heat_rows_permute(G, w, p, np.array([0.05, 1.0, 50.0]))

    run()
