"""The four checker workloads.

Each workload has three parts:

* ``generate(seed)`` draws the raw inputs (plain numpy arrays) of the
  ``batch`` instances in the set-up phase.  The schedule of instance kinds
  (group, dimensions, space) is a fixed cycle and only the numbers inside
  each instance are random, so every seed sees the same mix and seeds differ
  only in the draws.
* ``prepare(i)`` turns batch entry ``i`` into fresh library objects.  It
  runs outside the instance timer.
* ``run(inputs, tracer)`` is the timed instance: only calls into the
  library's public functions, each inside a span named after its layer.
* ``judge(inputs, out)`` runs after the timer stops.  It returns the
  instance's answers (name, verdict, worst margin, witness) for the digest
  and the first disagreement with the numpy-only oracle, or None.
* ``probes()`` (optional) returns prepared inputs on which the seed library
  is known to fail.  They stay out of the measured batch, so that no
  measured instance fails, and are run once in the traced run to count the
  refusals.
"""

from __future__ import annotations

import math

import numpy as np

from cayleyheat.checks import check_convolve_even, sweep_mean_ineq, sweep_rsd
from cayleyheat.continuum import (
    HyperboloidPoint,
    SpherePoint,
    h3_reduced_check,
    heat_lemma_check_h3,
    heat_lemma_check_sphere,
    symmetric_ineq_check_h3,
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
    monotone_check_cayley,
    monotone_violation_search,
)
from cayleyheat.lattices import (
    Lattice,
    LatticeHom,
    direct_sum,
    fiber_product,
    pushforward,
)

from . import oracles

# Skewed bases as in the CLI generator: entries uniform in [-1.5, 1.5],
# smallest singular value above 0.3.
BASIS_RANGE = 1.5
MIN_SINGULAR_VALUE = 0.3

# The heat-kernel t-grid of the CLI's check-monotone command.
T_GRID = np.geomspace(0.05, 50.0, 20)


def _skewed_bases(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """(count, d, d) bases drawn by batched rejection sampling."""
    out = np.empty((count, d, d))
    filled = 0
    while filled < count:
        need = count - filled
        cand = rng.uniform(-BASIS_RANGE, BASIS_RANGE, size=(2 * need + 16, d, d))
        smin = np.linalg.svd(cand, compute_uv=False)[:, -1]
        keep = cand[smin > MIN_SINGULAR_VALUE][:need]
        out[filled : filled + len(keep)] = keep
        filled += len(keep)
    return out


def _hom(group: FiniteAbelianGroup, basis: np.ndarray, images) -> LatticeHom:
    return LatticeHom(
        Lattice(basis), group, tuple(group.from_index(int(k)) for k in images)
    )


def _report(rep) -> list:
    return [rep.name, bool(rep.passed), float(rep.worst_margin), rep.witness]


def _verdict_differs(passed: bool, ref_margin: float, tol: float, slack: float) -> bool:
    """A verdict disagrees only when the oracle margin is clear of the
    threshold -tol by more than the comparison slack."""
    if abs(ref_margin + tol) <= slack:
        return False
    return passed != (ref_margin >= -tol)


def _echelon_kernel(mat: list[list[int]]) -> list[list[int]]:
    """Integer kernel basis of ``mat`` by the column-echelon reduction the
    library's ``fiber_product`` used when this benchmark was written, with
    the same operations in the same order, so it yields the same basis.

    Only input selection uses it: it predicts which fiber products the seed
    library refuses, so the batch stays the same when the library changes.
    """
    m, n = len(mat), len(mat[0])
    A = [row[:] for row in mat]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    col = 0
    for row in range(m):
        while True:
            nz = sorted((c for c in range(col, n) if A[row][c]), key=lambda c: abs(A[row][c]))
            if len(nz) <= 1:
                break
            p = nz[0]
            for c in nz[1:]:
                q = A[row][c] // A[row][p]
                for M in (A, V):
                    for r in M:
                        r[c] -= q * r[p]
        nz = [c for c in range(col, n) if A[row][c]]
        if nz:
            for M in (A, V):
                for r in M:
                    r[nz[0]], r[col] = r[col], r[nz[0]]
            col += 1
    return [[V[r][c] for r in range(n)] for c in range(n) if not any(A[r][c] for r in range(m))]


def _seed_box_m(bases: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Per-coordinate bound m of the seed library's enumeration box for each
    lattice in the (n, d, d) stack of basis columns; a box holds (2m + 1)^d
    points."""
    d = bases.shape[-1]
    smin = np.linalg.svd(bases, compute_uv=False)[:, -1]
    target = epsilon / 2.0
    R = np.full(len(bases), math.sqrt(math.log(1.0 / target) / math.pi))
    active = np.ones(len(bases), dtype=bool)
    for _ in range(64):
        new_r = np.sqrt(np.log((2.0 * R / smin + 1.0) ** d / target) / math.pi)
        converged = np.abs(new_r - R) < 1e-12
        R = np.where(active, new_r, R)
        active &= ~converged
        if not active.any():
            break
    R = np.maximum(R, np.linalg.norm(bases, axis=1).min(axis=1))
    return np.ceil(R / smin).astype(np.int64)


def _fiber_basis(b1, b2, r1: np.ndarray, r2: np.ndarray, sizes) -> np.ndarray:
    """Basis of the fiber product as the seed library builds it; r1 and r2
    are the (rank, d) residue matrices of the two homomorphisms' images."""
    d1, d2, k = r1.shape[1], r2.shape[1], len(sizes)
    M = [
        [int(x) for x in r1[j]] + [-int(x) for x in r2[j]] + [sizes[j] * (jj == j) for jj in range(k)]
        for j in range(k)
    ]
    K = np.array([c[: d1 + d2] for c in _echelon_kernel(M) if any(c[: d1 + d2])]).T
    big = np.zeros((d1 + d2, d1 + d2))
    big[:d1, :d1], big[d1:, d1:] = b1, b2
    return big @ K


class LatticeClosure:
    """Pushforward closure identities: chi_{h1+h2} = chi1 * chi2 and
    chi_{h1 x_G h2} = chi1 chi2, on random homomorphisms with d <= 2 each.

    Lattice enumeration does almost all the work, with a heavy tail set by
    the fiber product's basis.  The batch holds only homomorphism pairs
    whose every enumeration box fits the point cap with a margin, picked at
    evenly spaced quantiles of their total box size within each (group,
    dimensions) class, so every seed sees nearly the same cost mix.  Pairs whose
    fiber product the seed refuses become the defect probes.
    """

    name = "lattice_closure"
    groups = ((12,), (2, 12), (16,), (3, 9), (32,), (16, 4), (64,), (101,))
    dims = ((1, 1), (1, 2), (2, 1), (2, 2))
    per_class = 8
    batch = per_class * len(groups) * len(dims)
    oversample = 32  # candidates drawn per picked instance
    probes_per_class = 2
    # Enumeration budget per pushforward.  At the library default (10 M
    # points) a near-cap fiber product costs 0.5 s and 0.9 GB, so a run
    # would depend on a handful of instances.
    point_cap = 1_000_000
    closure_tol = 1e-8

    def __init__(self):
        self.group_objs = [FiniteAbelianGroup(s) for s in self.groups]

    def _draw_class(self, rng, G, d1, d2):
        """(picked, probes): raw (b1, i1, b2, i2) tuples of one class."""
        n = self.per_class * self.oversample
        b1, b2 = _skewed_bases(rng, n, d1), _skewed_bases(rng, n, d2)
        i1 = rng.integers(0, G.order, size=(n, d1))
        i2 = rng.integers(0, G.order, size=(n, d2))
        sizes = G.factor_sizes
        r1 = np.array(np.unravel_index(i1, sizes))  # (rank, n, d1)
        r2 = np.array(np.unravel_index(i2, sizes))
        fib = np.array([_fiber_basis(b1[c], b2[c], r1[:, c], r2[:, c], sizes) for c in range(n)])
        d = d1 + d2
        ds = np.zeros((n, d, d))
        ds[:, :d1, :d1], ds[:, d1:, d1:] = b1, b2
        m = _seed_box_m(fib)
        total = sum((2.0 * _seed_box_m(b) + 1.0) ** b.shape[-1] for b in (b1, b2, ds, fib))
        fits = np.flatnonzero((2.0 * m + 3.0) ** d <= self.point_cap)
        probes = np.flatnonzero((2.0 * m - 1.0) ** d > self.point_cap)
        if len(fits) < self.per_class:
            raise RuntimeError(f"only {len(fits)} of {n} candidates fit the point cap")
        fits = fits[np.argsort(total[fits], kind="stable")]
        pick = fits[(2 * np.arange(self.per_class) + 1) * len(fits) // (2 * self.per_class)]
        picked = [(b1[c], i1[c], b2[c], i2[c]) for c in rng.permutation(pick)]
        return picked, [(b1[c], i1[c], b2[c], i2[c]) for c in probes[: self.probes_per_class]]

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.entries = [None] * self.batch
        self.probe_entries = []
        n_classes = len(self.groups) * len(self.dims)
        for cls in range(n_classes):
            gi, (d1, d2) = cls % len(self.groups), self.dims[cls // len(self.groups)]
            picked, probes = self._draw_class(rng, self.group_objs[gi], d1, d2)
            for j, raw in enumerate(picked):
                self.entries[cls + j * n_classes] = (gi, raw)
            self.probe_entries += [(gi, raw) for raw in probes]

    def _inputs(self, entry):
        gi, (b1, i1, b2, i2) = entry
        G = self.group_objs[gi]
        return G, _hom(G, b1, i1), _hom(G, b2, i2)

    def prepare(self, i: int):
        return self._inputs(self.entries[i])

    def probes(self) -> list:
        return [self._inputs(e) for e in self.probe_entries]

    def run(self, inputs, tr):
        G, h1, h2 = inputs
        cap = self.point_cap
        with tr.span("lattices.pushforward"):
            chi1 = pushforward(h1, point_cap=cap).chi
        with tr.span("lattices.pushforward"):
            chi2 = pushforward(h2, point_cap=cap).chi
        with tr.span("lattices.direct_sum"):
            hs = direct_sum(h1, h2)
        with tr.span("lattices.pushforward"):
            chi_sum = pushforward(hs, point_cap=cap).chi
        with tr.span("lattices.fiber_product"):
            hf = fiber_product(h1, h2)
        with tr.span("lattices.pushforward"):
            chi_fib = pushforward(hf, point_cap=cap).chi
        with tr.span("groups.convolve"):
            conv = convolve(chi1, chi2)
        return chi1.values, chi2.values, chi_sum.values, chi_fib.values, conv.values

    def judge(self, inputs, out):
        G = inputs[0]
        chi1, chi2, chi_sum, chi_fib, conv = out
        err_sum = float(np.max(np.abs(conv - chi_sum)))
        err_fib = float(np.max(np.abs(chi1 * chi2 - chi_fib)))
        worst = "direct_sum" if err_sum >= err_fib else "fiber_product"
        passed = max(err_sum, err_fib) < self.closure_tol
        answers = [["closure", passed, -max(err_sum, err_fib), worst]]

        ref_conv = oracles.cyclic_convolve(chi1, chi2, G.factor_sizes)
        if np.max(np.abs(conv - ref_conv)) > 1e-10 * np.max(np.abs(ref_conv)):
            return answers, "convolve disagrees with the FFT oracle"
        if float(np.max(np.abs(ref_conv - chi_sum))) >= self.closure_tol:
            return answers, "direct-sum pushforward is not the convolution"
        if float(np.max(np.abs(chi1 * chi2 - chi_fib))) >= self.closure_tol:
            return answers, "fiber-product pushforward is not the product"
        if not passed:
            return answers, "closure verdict fails where both identities hold"
        return answers, None


class PairSweep:
    """All-pairs product and mean inequality sweeps plus the convolution
    ratio check, on one pushforward per instance.

    The sweeps are O(|G|^2) and take nearly all the time; enumeration of the
    d <= 2 lattice is small.  The group cycle puts the median instance on
    the order-8 groups and the 90th percentile on the order-32 groups,
    prime Z31 among them; the batch's one Z64 instance is its largest.
    """

    name = "pair_sweep"
    small = ((8,), (2, 4), (2, 2, 2))
    medium = ((16,), (4, 4), (2, 8))
    large = ((32,), (4, 8), (31,), (2, 16), (2, 2, 8))
    # slot kinds of one 32-instance cycle: 20 small, 7 medium, 5 large
    cycle = "SSMSLSSMSSLSMSSSLMSSMSLSSMSSLSMS"
    batch = 4 * len(cycle)
    big = (64,)  # replaces the batch's last large instance
    convolve_tol = 1e-10

    def __init__(self):
        kinds = {"S": self.small, "M": self.medium, "L": self.large}
        seen = {k: 0 for k in kinds}
        self.specs = []
        for i in range(self.batch):
            k = self.cycle[i % len(self.cycle)]
            self.specs.append(kinds[k][seen[k] % len(kinds[k])])
            seen[k] += 1
        last_large = max(i for i, s in enumerate(self.specs) if s in self.large)
        self.specs[last_large] = self.big
        self.group_objs = {s: FiniteAbelianGroup(s) for s in set(self.specs)}

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        n = self.batch
        self.dim = 1 + np.arange(n) % 2
        self.bases = {k: _skewed_bases(rng, n, k) for k in (1, 2)}
        self.images = rng.integers(0, 1 << 30, size=(n, 2))
        self.upsilon = rng.random((n, max(g.order for g in self.group_objs.values())))

    def prepare(self, i: int):
        G = self.group_objs[self.specs[i]]
        d = int(self.dim[i])
        hom = _hom(G, self.bases[d][i], self.images[i, :d] % G.order)
        raw = self.upsilon[i, : G.order]
        ups = GroupFunction(G, 0.5 * (raw + raw[G.neg_index_table()]))
        return G, hom, ups

    def run(self, inputs, tr):
        G, hom, ups = inputs
        with tr.span("lattices.pushforward"):
            chi = pushforward(hom).chi
        c0 = chi.at_index(0)
        with tr.span("checks.sweep_rsd"):
            rsd = sweep_rsd(chi, 1e-12 * c0**4)
        with tr.span("checks.sweep_mean_ineq"):
            mean = sweep_mean_ineq(chi, 1e-12 * c0**2)
        tr.add("checks.pairs", rsd.count + mean.count)
        with tr.span("checks.check_convolve_even"):
            conv = check_convolve_even(chi, ups, self.convolve_tol)
        return chi.values, rsd, mean, conv

    def judge(self, inputs, out):
        G, _hom, ups = inputs
        chi, rsd, mean, conv = out
        answers = [_report(rsd), _report(mean), _report(conv)]
        sizes = G.factor_sizes
        c0 = chi[0]
        ref_rsd, ref_mean = oracles.pair_margin_minima(chi, sizes)
        ref_conv = oracles.convolve_even_minimum(chi, ups.values, sizes)
        checks = (
            ("rsd sweep", rsd, ref_rsd, 1e-12 * c0**4, c0**4),
            ("mean sweep", mean, ref_mean, 1e-12 * c0**2, c0),
            ("convolve_even", conv, ref_conv, self.convolve_tol, 1.0),
        )
        for label, rep, ref, tol, scale in checks:
            slack = 1e-9 * scale
            if abs(rep.worst_margin - ref) > slack:
                return answers, f"{label} worst margin differs from the oracle"
            if _verdict_differs(rep.passed, ref, tol, slack):
                return answers, f"{label} verdict differs from the oracle"
        return answers, None


class HeatTGrid:
    """Ratio monotonicity on a 20-point t-grid, one graph per instance.

    Five general graphs (heavy-tailed weights, n = 3..8, dense eigh per t)
    for each Cayley graph (spectral rows through the group DFT, orders
    32..4096 and ranks 1..10, plus cexp by series against the spectral
    route).  With one Cayley graph in six, the median instance is a general
    graph and the 90th percentile falls inside the Cayley instances.
    """

    name = "heat_tgrid"
    period = 6  # instance kinds per cycle: one Cayley graph, five general
    cayley_groups = (
        (32,), (2,) * 5, (8, 8), (256,), (16, 16), (2,) * 8, (1024,),
        (32, 32), (2,) * 10, (4096,), (64, 64), (8,) * 4, (4,) * 6,
    )
    batch = period * len(cayley_groups) * 4
    max_generators = 6
    max_n = 8
    edge_density = 0.6
    pareto_shape = 0.8

    def __init__(self):
        self.group_objs = [FiniteAbelianGroup(s) for s in self.cayley_groups]

    def _kind(self, i: int):
        """('cayley', group index) or ('general', n) for instance i."""
        cycle, slot = divmod(i, self.period)
        if slot == 0:
            return "cayley", cycle % len(self.cayley_groups)
        j = cycle * (self.period - 1) + slot - 1
        return "general", 3 + j % (self.max_n - 2)

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        n = self.batch
        self.n_gens = rng.integers(2, self.max_generators + 1, size=n)
        self.gens = rng.integers(1, 1 << 30, size=(n, self.max_generators))
        self.gen_w = rng.uniform(0.1, 1.0, size=(n, self.max_generators))
        m = self.max_n * (self.max_n - 1) // 2
        present = rng.random((n, m)) < self.edge_density
        self.edges = np.where(present, rng.pareto(self.pareto_shape, (n, m)) + 0.01, 0.0)

    def prepare(self, i: int):
        kind, arg = self._kind(i)
        if kind == "cayley":
            G = self.group_objs[arg]
            neg = G.neg_index_table()
            w = np.zeros(G.order)
            for g, wt in zip(self.gens[i, : self.n_gens[i]], self.gen_w[i]):
                g = 1 + int(g) % (G.order - 1)
                w[g] = w[neg[g]] = wt
            cw = CayleyWeights(G, GroupFunction(G, w))
            return kind, cw, GroupFunction(G, 0.5 * w)
        W = np.zeros((self.max_n, self.max_n))
        W[np.triu_indices(self.max_n, 1)] = self.edges[i]
        W = W + W.T
        return kind, GeneralGraph(W[:arg, :arg]), None

    def run(self, inputs, tr):
        kind, graph, ups = inputs
        if kind == "general":
            with tr.span("heat.monotone_violation_search"):
                rep = monotone_violation_search(graph, T_GRID)
            tr.add("heat.violations_found", 0 if rep.passed else 1)
            return (rep,)
        with tr.span("heat.monotone_check_cayley"):
            rep = monotone_check_cayley(graph, T_GRID)
        tr.add("heat.cayley_t_points", len(T_GRID) * graph.group.order)
        with tr.span("groups.cexp_series"):
            series = cexp_series(ups)
        with tr.span("groups.cexp_spectral"):
            spectral = cexp_spectral(ups)
        return rep, series.values, spectral.values

    def judge(self, inputs, out):
        kind, graph, ups = inputs
        rep = out[0]
        answers = [_report(rep)]
        if kind == "general":
            ref = oracles.general_monotone_minimum(graph.W, T_GRID)
        else:
            sizes = graph.group.factor_sizes
            ref = oracles.cayley_monotone_minimum(graph.w.values, sizes, T_GRID)
            series, spectral = out[1], out[2]
            err = float(np.max(np.abs(series - spectral)))
            scale = float(np.max(np.abs(spectral)))
            answers.append(["cexp_agreement", err <= 1e-10 * scale, -err, ""])
            ref_cexp = oracles.cexp(ups.values, sizes)
            for label, vals in (("cexp_series", series), ("cexp_spectral", spectral)):
                if float(np.max(np.abs(vals - ref_cexp))) > 1e-10 * scale:
                    return answers, f"{label} disagrees with the FFT oracle"
        if abs(rep.worst_margin - ref) > 1e-9:
            return answers, "monotonicity worst margin differs from the oracle"
        if _verdict_differs(rep.passed, ref, 1e-10, 1e-9):
            return answers, "monotonicity verdict differs from the oracle"
        return answers, None


class ContinuumSeries:
    """Reflection inequalities on S2 and RP2 through the Legendre series
    (l_max = 200), with one hyperbolic instance in five.

    A hyperbolic instance runs the reduced isosceles check at a leg length
    d1 drawn log-uniform in [0.1, 300] and the closed-form checks on a
    random hyperboloid triple.  The seed overflows at d1 >= 356, so those
    leg lengths are the defect probes.
    """

    name = "continuum_series"
    period = 10  # slots 0-7 sphere (S2 on even slots, RP2 on odd), 8-9 H3
    h3_slots = 2
    t_values = (0.05, 0.2, 1.0, 5.0)
    l_max = 200
    d1_range = (0.1, 300.0)
    probe_d1 = tuple(np.geomspace(400.0, 1000.0, 8))
    max_h3_radius = 3.0
    batch = 40 * period

    def _kind(self, i: int):
        cycle, slot = divmod(i, self.period)
        t = self.t_values[(slot // 2 + cycle) % len(self.t_values)]
        if slot >= self.period - self.h3_slots:
            return "H3", t
        return ("S2" if slot % 2 == 0 else "RP2"), t

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        n = self.batch
        u = rng.normal(size=(n, 3, 3))
        self.sphere = u / np.linalg.norm(u, axis=2, keepdims=True)
        lo, hi = (math.log(x) for x in self.d1_range)
        self.d1 = np.exp(rng.uniform(lo, hi, size=n))
        r = rng.uniform(0.0, self.max_h3_radius, size=(n, 3, 1))
        v = rng.normal(size=(n, 3, 3))
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        self.hyper = np.concatenate([np.cosh(r), np.sinh(r) * v], axis=2)

    def prepare(self, i: int):
        space, t = self._kind(i)
        if space == "H3":
            pts = tuple(HyperboloidPoint(x) for x in self.hyper[i])
            return space, t, pts, float(self.d1[i])
        return space, t, tuple(SpherePoint(x) for x in self.sphere[i]), None

    def probes(self) -> list:
        return [
            ("H3", self.t_values[j % len(self.t_values)],
             tuple(HyperboloidPoint(x) for x in self.hyper[j]), float(d1))
            for j, d1 in enumerate(self.probe_d1)
        ]

    def run(self, inputs, tr):
        space, t, (a, b, c), d1 = inputs
        if space != "H3":
            with tr.span("continuum.sphere"):
                sym = symmetric_ineq_check_sphere(space, a, b, c, t, l_max=self.l_max)
            with tr.span("continuum.sphere"):
                lemma = heat_lemma_check_sphere(space, a, b, c, t, l_max=self.l_max)
            return sym, lemma
        with tr.span("continuum.h3"):
            ls, rs, violated = h3_reduced_check(d1, t)
        with tr.span("continuum.h3"):
            sym = symmetric_ineq_check_h3(a, b, c, t)
        with tr.span("continuum.h3"):
            lemma = heat_lemma_check_h3(a, b, c, t)
        return sym, lemma, (ls, rs, violated)

    def judge(self, inputs, out):
        space, t, (a, b, c), d1 = inputs
        sym, lemma = out[0], out[1]
        answers = [_report(sym), _report(lemma)]
        if space == "H3":
            ref_sym, ref_mean, haa = oracles.h3_margins(a.x, b.x, c.x, t)
        else:
            ref_sym, ref_mean, haa = oracles.sphere_margins(
                space, a.u, b.u, c.u, t, self.l_max
            )
        for label, rep, ref, scale in (
            ("product", sym, ref_sym, haa**4),
            ("mean", lemma, ref_mean, haa),
        ):
            slack = 1e-8 * scale
            if abs(rep.worst_margin - ref) > slack:
                return answers, f"{space} {label} margin differs from the oracle"
            if _verdict_differs(rep.passed, ref, 0.0, slack):
                return answers, f"{space} {label} verdict differs from the oracle"
        if space == "H3":
            ls, rs, violated = out[2]
            answers.append(["h3_reduced", not violated, rs - ls, f"d1={d1!r}, t={t}"])
            gap = oracles.h3_reduced_gap(d1, t)
            if abs(gap) > 1e-9 and violated != (gap > 0):
                return answers, "h3 reduced verdict differs from the log-space oracle"
        return answers, None


WORKLOADS = {
    w.name: w for w in (LatticeClosure, PairSweep, HeatTGrid, ContinuumSeries)
}
