"""Reversible finite chains: construction, exact evolution, and mixing.

The simple random walk (SRW) on a graph moves to a uniformly random
neighbor at each step.  Chains are stored as sparse row-stochastic
kernels with a certified stationary distribution; stochasticity and
detailed balance are validated to 1e-12 at construction.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .graphs import Graph, _cover_count, _support_classes, vertex_transitive

ROW_SUM_TOL = 1e-12
REVERSIBILITY_TOL = 1e-12
EPS_SNAP = 1e-12               # see _snap
MIXING_BLOCK_COLUMNS = 128     # >= 2; see mixing_profile

APERIODIC = "aperiodic"
BIPARTITE_PERIODIC = "bipartite-periodic"


class ChainError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ReversibleChain:
    """Row-stochastic kernel P with stationary distribution pi.

    ``period_info`` is 'aperiodic' or 'bipartite-periodic' (detected on
    the support graph, not spectrally).  ``components`` lists the state
    sets of the communicating classes.  ``transitive`` is True only for
    the SRW of a graph that :func:`graphs.vertex_transitive` certified:
    automorphisms of the chain then carry state 0 onto every state.
    """

    n: int
    kernel: sp.csr_matrix
    stationary: np.ndarray
    period_info: str
    components: tuple
    source: dict = field(default_factory=dict)
    transitive: bool = False

    @property
    def is_irreducible(self) -> bool:
        return len(self.components) == 1

    def __repr__(self):
        return (f"ReversibleChain(n={self.n}, {self.period_info}, "
                f"components={len(self.components)})")


def _validate(kernel: sp.csr_matrix, pi: np.ndarray) -> None:
    rows = np.asarray(kernel.sum(axis=1)).ravel()
    worst = np.abs(rows - 1.0).max() if len(rows) else 0.0
    if worst > ROW_SUM_TOL:
        raise ChainError(f"kernel rows deviate from 1 by {worst:.3e}")
    if abs(pi.sum() - 1.0) > 1e-9 or np.any(pi < 0):
        raise ChainError("stationary vector is not a probability distribution")
    flux = sp.diags(pi) @ kernel
    asym = (flux - flux.T).tocoo()
    worst = np.abs(asym.data).max() if asym.nnz else 0.0
    if worst > REVERSIBILITY_TOL:
        raise ChainError(f"detailed balance violated by {worst:.3e}")


def _support(kernel: sp.csr_matrix) -> sp.csr_matrix:
    """Unit-weight CSR graph of the kernel's positive entries."""
    return (kernel > 0).astype(float)


def srw_chain(g: Graph) -> ReversibleChain:
    """SRW kernel P(x,y) = 1/deg(x) on edges, pi proportional to degree.

    ``transitive`` records :func:`graphs.vertex_transitive` of g: every
    automorphism of g preserves the SRW kernel."""
    indptr, indices = g.csr
    degs = np.diff(indptr)
    isolated = np.flatnonzero(degs == 0)
    if len(isolated):
        raise ChainError(
            f"isolated vertices have no SRW step: {isolated.tolist()[:20]}")
    kernel = sp.csr_matrix((np.repeat(1.0 / degs, degs), indices, indptr),
                           shape=(g.n, g.n))
    chain = chain_from_kernel(kernel, degs / degs.sum(),
                              source={"kind": "srw",
                                      "graph": dict(g.provenance)})
    return dataclasses.replace(chain, transitive=vertex_transitive(g))


def chain_from_kernel(kernel, stationary, source=None) -> ReversibleChain:
    """Wrap an explicit kernel; fails unless it is verifiably reversible.

    The communicating classes are the components of the support graph;
    the chain is bipartite-periodic when it has no holding probability
    and some class is bipartite.  The chain keeps its own copies of the
    kernel and of pi, so the caller's arrays are never modified or shared.
    The chain is never ``transitive``: no automorphisms come with a kernel.
    """
    kernel = sp.csr_matrix(kernel, copy=True)
    pi = np.array(stationary, dtype=float)
    _validate(kernel, pi)
    n = kernel.shape[0]
    support = _support(kernel)
    comps = _support_classes(support)
    # a holding probability makes the chain aperiodic: no cover needed
    has_diag = kernel.diagonal().max() > 0 if n else False
    periodic = not has_diag and _cover_count(support) > len(comps)
    period = BIPARTITE_PERIODIC if periodic else APERIODIC
    return ReversibleChain(
        n=n, kernel=kernel, stationary=pi, period_info=period,
        components=comps, source=dict(source or {"kind": "kernel"}))


def evolve(chain: ReversibleChain, mu0: np.ndarray, t: int) -> np.ndarray:
    """Distribution after t steps: mu0 P^t by repeated sparse products."""
    mu = np.asarray(mu0, dtype=float)
    if mu.shape != (chain.n,):
        raise ChainError(f"distribution has shape {mu.shape}, expected ({chain.n},)")
    if t < 0:
        raise ChainError("step count must be >= 0")
    pt = chain.kernel.T.tocsr()
    for _ in range(t):
        mu = pt @ mu
    return mu


def point_mass(n: int, x: int) -> np.ndarray:
    mu = np.zeros(n)
    mu[x] = 1.0
    return mu


def distances(chain: ReversibleChain, x: int, t: int):
    """(total variation, squared L2(pi)) distance of P^t(x, .) from pi."""
    mu = evolve(chain, point_mass(chain.n, x), t)
    pi = chain.stationary
    tv = 0.5 * np.abs(mu - pi).sum()
    l2sq = float(np.sum(mu * mu / pi) - 1.0)
    return float(tv), l2sq


@dataclass(frozen=True)
class MixingProfile:
    """Worst-start total-variation mixing data on an epsilon grid.

    ``tv_curve[t]`` is the max over measured starts of TV(P^t(x,.), pi);
    ``mixing_times[eps]`` is the least t with tv_curve[t] <= eps (strict
    infimum convention, no tolerance).  When only a sampled subset of
    starts was swept the profile is a lower bound and flagged.
    """

    eps_grid: tuple
    mixing_times: dict
    cutoff_ratios: dict
    tv_curve: tuple
    l2sq_curve: tuple
    worst_starts: tuple
    starts: tuple
    exact_starts: bool

    def mixing_time(self, eps: float) -> int:
        """``mixing_times`` at eps, looked up through :func:`_snap`, so
        ``mixing_time(1.0 - e)`` finds the complement of a grid value e."""
        if eps >= 1.0:
            return 0
        key = _snap(eps, self.mixing_times)
        if key not in self.mixing_times:
            raise KeyError(f"eps={eps} not on the profile grid")
        return self.mixing_times[key]


def _snap(eps: float, grid) -> float:
    """The first value of ``grid`` within ``EPS_SNAP`` of eps, else eps.

    A complement 1 - e is exact only up to rounding: 1 - 0.95 is
    0.050000000000000044, which must land on a grid value 0.05 and not
    become a key of its own."""
    return next((g for g in grid if abs(g - eps) <= EPS_SNAP), eps)


def _farthest_point_starts(chain: ReversibleChain, count: int) -> list:
    """Greedy k-center seeds over the kernel's support graph."""
    n = chain.n
    support = _support(chain.kernel)
    chosen = [0]
    dist = np.full(n, np.inf)
    while len(chosen) < min(count, n):
        np.minimum(dist, csgraph.shortest_path(
            support, unweighted=True, indices=chosen[-1]), out=dist)
        nxt = int(np.argmax(np.where(np.isfinite(dist), dist, -1.0)))
        if nxt in chosen:
            break
        chosen.append(nxt)
    return chosen


def mixing_profile(chain: ReversibleChain, eps_grid,
                   exact_start_limit: int = 5000,
                   sample_starts: int = 64,
                   max_steps: int = 100000) -> MixingProfile:
    """Worst-start mixing times for each epsilon, plus cutoff ratios.

    Evolves every start simultaneously (dense columns against the sparse
    kernel); above ``exact_start_limit`` states a farthest-point sample
    of starts is used instead and the result is a flagged lower bound.
    On a ``transitive`` chain every start has the same curves, so start 0
    alone is evolved and the profile is exact at any n.  Raises for
    periodic or reducible chains, whose TV does not converge.
    """
    if chain.period_info != APERIODIC:
        raise ChainError("mixing time undefined: chain is bipartite-periodic")
    if not chain.is_irreducible:
        raise ChainError("mixing time undefined: chain is reducible")
    eps_grid = tuple(float(e) for e in eps_grid)
    if not eps_grid or any(not (0.0 < e < 1.0) for e in eps_grid):
        raise ChainError("epsilon grid must lie in (0,1)")

    n = chain.n
    if chain.transitive:
        starts = [0]
        exact = True
    elif n <= exact_start_limit:
        starts = list(range(n))
        exact = True
    else:
        starts = _farthest_point_starts(chain, sample_starts)
        exact = False
    pi = chain.stationary
    pt = chain.kernel.T.tocsr()
    m = len(starts)
    cols = np.zeros((n, m))
    cols[starts, np.arange(m)] = 1.0

    # The distances of all starts are reduced block by block through one
    # scratch buffer of at most MIXING_BLOCK_COLUMNS columns instead of
    # through n x m temporaries.  Numpy sums each column of a block row by
    # row, as it does in a whole-array reduction, so the curves are the
    # same bits.  A single column is summed pairwise instead, so a block is
    # one column wide only when the whole array is.
    blocks = -(-m // MIXING_BLOCK_COLUMNS)
    edges = [m * b // blocks for b in range(blocks + 1)]
    buf = np.empty((n, -(-m // blocks)))
    pi_col = pi[:, None]
    tv_all = np.empty(m)
    l2_all = np.empty(m)

    targets = sorted(set(eps_grid) | {_snap(1.0 - e, eps_grid)
                                      for e in eps_grid})
    need = min(targets)
    tv_curve = []
    l2_curve = []
    worst_starts = []
    mixing_times = {}
    t = 0
    prev_tv = prev_l2 = math.inf
    while True:
        for lo, hi in zip(edges[:-1], edges[1:]):
            block, scratch = cols[:, lo:hi], buf[:, :hi - lo]
            np.subtract(block, pi_col, out=scratch)
            np.abs(scratch, out=scratch)
            scratch.sum(axis=0, out=tv_all[lo:hi])
            np.multiply(block, block, out=scratch)
            np.divide(scratch, pi_col, out=scratch)
            scratch.sum(axis=0, out=l2_all[lo:hi])
        worst = int(np.argmax(tv_all))
        tv = 0.5 * tv_all[worst]
        l2 = (l2_all - 1.0).max()
        # sanity on every profile run: both distances are monotone and
        # the Jensen comparison 4 tv^2 <= l2sq holds pointwise
        if tv > prev_tv + 1e-12 or l2 > prev_l2 + 1e-10:
            raise ChainError(f"distance increased at t={t}")
        if 4.0 * tv * tv > l2 + 1e-12:
            raise ChainError(f"Jensen violation at t={t}")
        prev_tv, prev_l2 = tv, l2
        tv_curve.append(float(tv))
        l2_curve.append(float(l2))
        worst_starts.append(starts[worst])
        for e in targets:
            if e not in mixing_times and tv <= e:
                mixing_times[e] = t
        if tv <= need:
            break
        t += 1
        if t > max_steps:
            raise ChainError(f"no mixing below eps={need} within {max_steps} steps")
        cols = pt @ cols

    ratios = {}
    for e in eps_grid:
        hi = mixing_times[e]
        lo = mixing_times[_snap(1.0 - e, eps_grid)]
        ratios[e] = (hi / lo) if lo > 0 else math.inf
    return MixingProfile(
        eps_grid=eps_grid,
        mixing_times={e: mixing_times[e] for e in targets},
        cutoff_ratios=ratios,
        tv_curve=tuple(tv_curve), l2sq_curve=tuple(l2_curve),
        worst_starts=tuple(worst_starts),
        starts=tuple(starts), exact_starts=exact)


def power_chain(chain: ReversibleChain, t: int) -> ReversibleChain:
    """Chain with kernel P^t and the same stationary distribution."""
    if t < 1:
        raise ChainError("exponent must be >= 1")
    if t == 1:
        return chain
    kern = chain.kernel
    for _ in range(t - 1):
        kern = kern @ chain.kernel
    # products leave each row's columns unsorted; keep the canonical order
    kern.sort_indices()
    return chain_from_kernel(
        kern, chain.stationary,
        source={"kind": "power", "t": t, "base": dict(chain.source)})
