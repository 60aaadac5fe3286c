"""Monte Carlo oracle for the Cayley heat row: the continuous-time random walk
sampled exactly.  Test-only; test_heat.py and test_acceptance.py compare its
empirical distribution with heat_row_cayley."""

import numpy as np

from cayleyheat.errors import DomainError
from cayleyheat.groups import GroupFunction
from cayleyheat.heat import CayleyWeights


def ctrw_simulate(
    cw: CayleyWeights, t: float, trials: int, seed: int
) -> GroupFunction:
    """Empirical time-t distribution of the continuous-time walk from 0.

    The walk holds for Exp(degree) times and jumps by s with probability
    w(s)/degree.  Splitting the Poisson jump stream by generator gives
    independent Poisson(w(s)*t) counts per generator, and since the group
    is Abelian the endpoint depends only on those counts; that exact
    representation is what is sampled.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if t <= 0:
        raise DomainError("t must be positive")
    G = cw.group
    rng = np.random.default_rng(seed)
    support = np.nonzero(cw.w.values)[0]
    if len(support) == 0:
        freq = np.zeros(G.order)
        freq[0] = 1.0
        return GroupFunction(G, freq)
    res = np.zeros((trials, G.rank), dtype=np.int64)
    sizes = np.array(G.factor_sizes, dtype=np.int64)
    for idx in support:
        counts = rng.poisson(cw.w.values[idx] * t, size=trials)
        step = np.array(G.residues_of(int(idx)), dtype=np.int64)
        res = (res + counts[:, None] * step[None, :]) % sizes
    flat = np.ravel_multi_index(tuple(res.T), G.factor_sizes)
    freq = np.bincount(flat, minlength=G.order) / trials
    return GroupFunction(G, freq)
