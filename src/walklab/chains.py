"""Reversible finite chains: construction, exact evolution, and mixing.

The simple random walk (SRW) on a graph moves to a uniformly random
neighbor at each step.  Chains are stored as sparse row-stochastic
kernels with a certified stationary distribution; stochasticity and
detailed balance are validated to 1e-12 at construction.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import queue
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import graphs
from .graphs import (Graph, _level_distances, _support_classes,
                     vertex_transitive)

ROW_SUM_TOL = 1e-12
REVERSIBILITY_TOL = 1e-12
EPS_SNAP = 1e-12               # see _snap
# >= 2; widest block, see mixing_profile.  At 64 columns of n = 2048 a
# block and its spare take 2 MiB, a per-core L2 cache of a 2-core Xeon;
# the rr2048 sweep ran faster at 64 than at 32 or 128 there
MIXING_BLOCK_COLUMNS = 64
EXACT_START_LIMIT = 5000       # see mixing_profile
SAMPLE_STARTS = 64
MAX_MIXING_STEPS = 100_000

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
    transitive: bool = False

    @property
    def is_irreducible(self) -> bool:
        return len(self.components) == 1

    def __repr__(self):
        return (f"ReversibleChain(n={self.n}, {self.period_info}, "
                f"components={len(self.components)})")


def _validate(kernel: sp.csr_matrix, pi: np.ndarray) -> sp.csr_matrix:
    """Raise :class:`ChainError` unless ``kernel`` is a square kernel of
    finite nonnegative entries whose rows sum to 1 within
    ``ROW_SUM_TOL``, ``pi`` a distribution on its states, and the flux
    pi(x) P(x, y) symmetric within ``REVERSIBILITY_TOL``.  Every
    tolerance test is written so that NaN fails it.

    The flux is the kernel's data scaled by pi row by row, and its
    transpose the transposed kernel scaled by pi column by column: one
    transpose and one subtraction.  Returns that transposed kernel."""
    n = kernel.shape[0]
    if kernel.shape != (n, n):
        raise ChainError(f"kernel must be square, got shape {kernel.shape}")
    if pi.shape != (n,):
        raise ChainError(f"stationary vector has shape {pi.shape}, "
                         f"expected ({n},)")
    indptr, indices = kernel.indptr, kernel.indices[:kernel.nnz]
    data = kernel.data[:kernel.nnz]
    bad = np.flatnonzero(~((data >= 0) & (data < np.inf)))
    if len(bad):
        i = bad[0]
        row = int(np.searchsorted(indptr, i, side="right")) - 1
        raise ChainError(f"kernel entry ({row},{int(indices[i])}) is "
                         f"{float(data[i])}, not finite and nonnegative")
    bad = np.flatnonzero(~((pi >= 0) & (pi < np.inf)))
    if len(bad):
        raise ChainError(f"stationary entry {int(bad[0])} is "
                         f"{float(pi[bad[0]])}, not finite and nonnegative")
    rows = np.asarray(kernel.sum(axis=1)).ravel()
    worst = np.abs(rows - 1.0).max() if len(rows) else 0.0
    if not worst <= ROW_SUM_TOL:
        raise ChainError(f"kernel rows deviate from 1 by {worst:.3e}")
    if not abs(pi.sum() - 1.0) <= 1e-9:
        raise ChainError("stationary vector is not a probability distribution")
    flux = sp.csr_matrix((data * np.repeat(pi, np.diff(indptr)), indices,
                          indptr), shape=kernel.shape)
    transposed = kernel.T.tocsr()
    back = sp.csr_matrix((transposed.data * pi[transposed.indices],
                          transposed.indices, transposed.indptr),
                         shape=kernel.shape)
    asym = flux - back
    worst = np.abs(asym.data).max() if asym.nnz else 0.0
    if not worst <= REVERSIBILITY_TOL:
        raise ChainError(f"detailed balance violated by {worst:.3e}")
    return transposed


def _support(kernel: sp.csr_matrix) -> sp.csr_matrix:
    """Unit-weight CSR graph of the kernel's positive entries."""
    return (kernel > 0).astype(float)


def _period(bipartite) -> str:
    """A chain with no holding probability is periodic when some class,
    2-coloured by :func:`graphs._support_classes`, is bipartite."""
    return BIPARTITE_PERIODIC if any(bipartite) else APERIODIC


def srw_chain(g: Graph) -> ReversibleChain:
    """SRW kernel P(x,y) = 1/deg(x) on edges, pi proportional to degree.

    The kernel is validated as any other; its support is g's adjacency,
    which has no loops, so the classes and the period come from g's
    components and their bipartiteness, which g computes once and
    :func:`graphs.connected_components` and :func:`graphs.is_bipartite`
    share.  ``transitive`` records :func:`graphs.vertex_transitive` of g:
    every automorphism of g preserves the SRW kernel."""
    indptr, indices = g.indptr, g.indices
    degs = np.diff(indptr)
    isolated = np.flatnonzero(degs == 0)
    if len(isolated):
        raise ChainError(
            f"isolated vertices have no SRW step: {isolated.tolist()[:20]}")
    kernel = sp.csr_matrix((np.repeat(1.0 / degs, degs), indices, indptr),
                           shape=(g.n, g.n))
    pi = degs / degs.sum()
    _validate(kernel, pi)
    comps, bipartite = g._classes
    return ReversibleChain(n=g.n, kernel=kernel, stationary=pi,
                           period_info=_period(bipartite), components=comps,
                           transitive=vertex_transitive(g))


def chain_from_kernel(kernel, stationary) -> ReversibleChain:
    """Wrap an explicit kernel; fails unless it is verifiably reversible.

    The communicating classes are the components of the support graph
    (an entry P(x, y) > 0 joins x and y), read by
    :func:`graphs._support_classes` in linear passes; the chain is
    bipartite-periodic when it has no holding probability and some class
    is bipartite, and a kernel with a holding probability is never
    2-coloured.  The chain keeps its own copies of the kernel and of pi,
    so the caller's arrays are never modified or shared.  The chain is
    never ``transitive``: no automorphisms come with a kernel.
    """
    kernel = sp.csr_matrix(kernel, copy=True)
    pi = np.array(stationary, dtype=float)
    transposed = _validate(kernel, pi)
    n = kernel.shape[0]
    # a holding probability makes the chain aperiodic: no coloring needed
    holds = kernel.diagonal().max() > 0 if n else False
    # the entries are nonnegative and a sum that is 0 is not stored, so
    # P + P^T holds the positive entries of either, a symmetric pattern
    comps, bipartite = _support_classes(kernel + transposed,
                                        colour=not holds)
    return ReversibleChain(
        n=n, kernel=kernel, stationary=pi,
        period_info=APERIODIC if holds else _period(bipartite),
        components=comps)


# ---------------------------------------------------------------------------
# restrictions to sets


class CandidateFamily(Sequence):
    """Read-only sequence of sorted vertex tuples: a family of sets.

    Stored as one ``members`` array (every set's vertices, set after set)
    and ``offsets``: set i is ``members[offsets[i]:offsets[i + 1]]``.
    Indexing and iteration yield tuples of ints; a slice yields a list.
    :meth:`of` packs any sequence of sets; every reader of a family reads
    these arrays through it.

    ``tops`` is a :class:`CandidateFamily` of sets of this family such
    that every set of it lies inside some top.  Survival under killing is
    monotone in the set: for A within B and a nonnegative kernel,
    (K_A^t 1)(a) <= (K_B^t 1)(a), since a path that stays in A stays in B.
    It holds bit for bit in floating point too: row a of K_B is row a of
    K_A with more nonnegative terms, summed in the same column order, and
    rounded addition and multiplication are monotone.  So every survival
    maximum over the family, and the crossing time of
    :func:`hitting.hit_quantile`, is attained on a top.  A family built
    without ``tops`` is its own tops.
    """

    def __init__(self, members: np.ndarray, offsets: np.ndarray,
                 tops: CandidateFamily = None):
        members.flags.writeable = False
        offsets.flags.writeable = False
        self.members = members
        self.offsets = offsets
        self._tops = tops

    @classmethod
    def of(cls, sets) -> CandidateFamily:
        """``sets`` itself when it is a family; otherwise the family of
        the sets of the sequence ``sets``, in the order given, which is
        its own tops.  Nothing is checked: :func:`_family_blocks` checks
        the sets it restricts a kernel to."""
        if isinstance(sets, cls):
            return sets
        sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        offsets = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        members = np.fromiter(itertools.chain.from_iterable(sets),
                              dtype=np.int64, count=int(offsets[-1]))
        return cls(members, offsets)

    @property
    def tops(self) -> CandidateFamily:
        # no stored self-reference: a cycle would hold the arrays until
        # the garbage collector runs
        return self if self._tops is None else self._tops

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("candidate family index out of range")
        return tuple(self.members[self.offsets[i]:self.offsets[i + 1]].tolist())


def _family_blocks(kernels, sets):
    """Block-diagonal stacks of the restrictions K_A = kernel[A][:, A] of
    each kernel of ``kernels``, all n x n, to every set A of ``sets``.

    The only code that restricts a kernel to a set.  ``sets`` is a
    :class:`CandidateFamily` or any sequence of sets, read through
    :meth:`CandidateFamily.of`.  Whole families come from
    :func:`hitting.family_survivals` and :func:`hitting.hit_quantile`,
    which steps only the family's tops, as do the three survival maxima of
    :func:`walks.escape_transfer_experiment`, which share one pass, and
    from the Perron ranking of :func:`hitting.candidate_small_sets`, all
    its balls in one pass; one set (``[A]``, one block) from the
    worst-start replay of ``hit_quantile``,
    :func:`hitting.verify_spectral_hit` and
    :func:`spectral.restricted_top_eig`, which
    :func:`spectral.compare_restricted` calls.  Each set must be nonempty
    and sorted, with distinct entries in range, or :class:`ChainError` is
    raised.

    Consecutive sets share a chunk until it holds about
    ``graphs.FAMILY_CHUNK_ROWS`` rows, the chunk budget, or until one more
    set would take the slot map (below) past 16 budgets of entries, which
    bounds the memory of a step: a map holds at most max(16 budgets, n)
    entries, n for a set alone in its chunk.  Yields ``(lo, starts, which,
    block)`` per chunk and kernel, kernels in order within a chunk: the
    block of ``kernels[which]`` stacks the sets from ``sets[lo]`` on, and
    set ``lo + i`` owns the rows from ``starts[i]``.  Every row keeps the
    entry order of kernel[A][:, A], so a block matvec equals the per-set
    matvecs bit for bit, and a kernel's block does not depend on the other
    kernels.  One block is built at a time, so a caller that steps each
    before taking the next holds no more than one kernel's block.

    A chunk's layout is built once for all kernels: its checked members,
    their owners, and an int32 slot map local[set, vertex] holding the
    vertex's block row, or -1 when the vertex is not in the set.  Each
    kernel's rows of the members are then sliced out together, and an
    entry (set, column) finds its block column by one gather in the map.
    """
    kernels = [sp.csr_matrix(kernel) for kernel in kernels]
    n = kernels[0].shape[0]
    if any(kernel.shape != (n, n) for kernel in kernels):
        raise ChainError("kernels must all be n x n for one n")
    budget = graphs.FAMILY_CHUNK_ROWS
    family = CandidateFamily.of(sets)
    all_members, offsets = family.members, family.offsets
    lo = 0
    while lo < len(family):
        last = np.searchsorted(offsets, offsets[lo] + budget,
                               side="right") - 1
        hi = max(min(int(last), lo + 16 * budget // max(n, 1)), lo + 1)
        sizes = np.diff(offsets[lo:hi + 1])
        members = all_members[offsets[lo]:offsets[hi]]
        rows = len(members)
        owner = np.repeat(np.arange(hi - lo), sizes)
        # (set, vertex) keys; their sorted order is the block's row order
        keys = owner * n + members
        if np.any(sizes == 0) or np.any(np.diff(keys) <= 0) \
                or np.any(members < 0) or np.any(members >= n):
            raise ChainError(
                "sets must be nonempty, sorted, distinct and in range")
        # the slot map spans every vertex of every set in the chunk
        local = np.full((hi - lo, n), -1, dtype=np.int32)
        local[owner, members] = np.arange(rows)
        starts = np.cumsum(sizes) - sizes
        for which, kernel in enumerate(kernels):
            sub = kernel[members]
            entry_row = np.repeat(np.arange(rows), np.diff(sub.indptr))
            col = local[owner[entry_row], sub.indices]
            keep = col >= 0
            indptr = np.zeros(rows + 1, dtype=np.int64)
            np.cumsum(np.bincount(entry_row[keep], minlength=rows),
                      out=indptr[1:])
            yield lo, starts, which, sp.csr_matrix(
                (sub.data[keep], col[keep], indptr), shape=(rows, rows))
        lo = hi


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
    """The distribution concentrated on state x; raises for x outside [0, n)."""
    if not 0 <= x < n:
        raise ChainError(f"state {x} out of range for n={n}")
    mu = np.zeros(n)
    mu[x] = 1.0
    return mu


def _stationary(chain: ReversibleChain):
    """``(pi, inv_pi)`` for :func:`_distance_sums`.  A uniform pi is one
    scalar, with ``inv_pi`` None: each element sees the same operation as
    against the broadcast column, so the TV bits are the same.  Otherwise
    pi is the n x 1 column and ``inv_pi`` the vector 1/pi."""
    pi = chain.stationary
    if np.all(pi == pi[0]):
        return pi[0], None
    return pi[:, None], 1.0 / pi


def _distance_sums(state, pi, inv_pi, scratch, tv, l2) -> None:
    """For every column j of the n x w ``state``: ``tv[j]`` = sum_i
    |state[i, j] - pi_i| and ``l2[j]`` = sum_i state[i, j]^2 / pi_i, with
    ``pi, inv_pi`` from :func:`_stationary`.  ``scratch`` is an n x w
    buffer for the TV pass; nothing of size n is allocated.

    The L2 sum is one fused ``einsum`` pass: squares weighted by 1/pi on a
    non-uniform chain; on a uniform one, the plain sums of squares divided
    by the scalar pi afterwards.  Both accumulate row by row for w >= 2,
    whatever w is; a single column is summed in another order.
    """
    np.subtract(state, pi, out=scratch)
    np.abs(scratch, out=scratch)
    scratch.sum(axis=0, out=tv)
    if inv_pi is None:
        np.einsum("ij,ij->j", state, state, out=l2)
        l2 /= pi
    else:
        np.einsum("ij,ij,i->j", state, state, inv_pi, out=l2)


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
        hops = _level_distances(support, chosen[-1])
        np.minimum(dist, np.where(hops >= 0, hops, np.inf), out=dist)
        nxt = int(np.argmax(np.where(np.isfinite(dist), dist, -1.0)))
        if nxt in chosen:
            break
        chosen.append(nxt)
    return chosen


def _workers() -> int:
    """Threads for the mixing sweep: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity on this platform
        return os.cpu_count() or 1


def product(pt, state, out) -> None:
    """``out[:] = pt @ state`` for a CSR matrix and C-contiguous float
    arrays, a vector or columns, allocating nothing: scipy's own kernel
    for that product (``csr_matvec`` for one column, ``csr_matvecs`` for
    more) accumulates into the zeroed ``out``, as ``pt @ state`` does into
    a fresh array, so the bits are the same.  The one caller of scipy's
    private ``_sparsetools``: the mixing sweep, the Lanczos recurrence of
    :mod:`spectral` and the Perron ranking of
    :func:`hitting.candidate_small_sets` step through it."""
    if not (state.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("the product needs C-contiguous arrays")
    rows, cols = pt.shape
    out.fill(0.0)
    if state.ndim == 1 or state.shape[1] == 1:
        _sparsetools.csr_matvec(rows, cols, pt.indptr, pt.indices, pt.data,
                                state.ravel(), out.ravel())
    else:
        _sparsetools.csr_matvecs(rows, cols, state.shape[1], pt.indptr,
                                 pt.indices, pt.data, state.ravel(),
                                 out.ravel())


def mixing_profile(chain: ReversibleChain, eps_grid) -> MixingProfile:
    """Worst-start mixing times for each epsilon, plus cutoff ratios.

    Evolves the point mass of every start (dense columns against the
    sparse kernel) in blocks of at most ``MIXING_BLOCK_COLUMNS`` starts,
    and at least one block per worker thread (one per core this process
    may run on) while every block keeps two columns.  Each block is
    carried through every step it needs while it stays in cache, and
    records per step only its largest TV, the first start attaining it,
    and its largest L2 distance.  A block runs until its own worst TV
    falls to the smallest target; the run stops at the last such step, so
    a block that stopped earlier is resumed from its kept columns until it
    reaches it.  Each pass sweeps its unsettled blocks on the workers; with
    one block or one core, in the calling thread.
    The block records are then combined per step in block order (the
    first block wins a TV tie), and the monotonicity and Jensen checks run
    over the combined curve in step order, so the profile is the one a
    single sweep of all starts would give: its bits depend neither on the
    worker count nor on the block widths.

    The distances come from :func:`_distance_sums`: three passes for TV
    (subtract pi, take absolute values, sum) and one fused ``einsum``
    pass for L2.  When every entry of pi is equal, pi is that scalar and
    the L2 sum is the sum of squares divided by it; otherwise the squares
    are weighted by 1/pi inside the pass.  The TV curve, the worst starts
    and the mixing times keep the bits they had when L2 took three
    per-term passes (square, divide by pi, sum).  So does the L2 curve
    where dividing by pi is exact and every block has two columns:
    uniform chains on a power-of-two number of states (rr64, rr512,
    rr2048).  Elsewhere (rr1000, Petersen, every non-uniform chain, and
    the one column of a ``transitive`` chain) ``l2sq`` may move from the
    per-term value in its last bits: by at most 2.3e-13 relative on
    rr1000, Petersen and LPS(13,17).

    Every array of size n is allocated up front in the calling thread:
    the n x m states of the m starts, and a ring of one spare n x width
    buffer per worker (width is the widest block's), which a block takes
    for its products and distance passes and gives back when it stops.
    The workers allocate nothing of size n, so no thread keeps freed
    n-sized buffers in a malloc arena of its own.  The peak is
    8 n (m + workers width) bytes plus the kernel transpose, the per-step
    records (at most 128 bytes per block and step) and, on a non-uniform
    chain, the fixed-size iterator buffer (``np.getbufsize()`` doubles,
    64 KiB) that numpy takes in each worker to subtract the pi column.

    Above ``EXACT_START_LIMIT`` states a farthest-point sample of
    ``SAMPLE_STARTS`` starts is used instead and the result is a flagged
    lower bound.  On a ``transitive`` chain every start has the same
    curves, so start 0 alone is evolved and the profile is exact at any
    n.  Raises for periodic or reducible chains, whose TV does not
    converge, and when the worst TV stays above the smallest target
    through ``MAX_MIXING_STEPS`` steps.
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
    elif n <= EXACT_START_LIMIT:
        starts = list(range(n))
        exact = True
    else:
        starts = _farthest_point_starts(chain, SAMPLE_STARTS)
        exact = False
    pi, inv_pi = _stationary(chain)
    pt = chain.kernel.T.tocsr()
    m = len(starts)
    targets = sorted(set(eps_grid) | {_snap(1.0 - e, eps_grid)
                                      for e in eps_grid})
    need = min(targets)

    # A column's sparse product and its distance sums do not depend on the
    # width of its block: numpy and einsum sum a block of two or more
    # columns row by row, as they do the whole array, so the curves are
    # the same bits for any block width and worker count.  A single column
    # is summed in another order, so a block is one column wide only when
    # the whole array is.
    # Every worker gets a block when each can keep two columns.
    workers = _workers()
    blocks = max(1, min(max(-(-m // MIXING_BLOCK_COLUMNS), workers), m // 2))
    edges = [m * b // blocks for b in range(blocks + 1)]
    width = -(-m // blocks)
    workers = min(workers, blocks)
    tv_rec = [[] for _ in range(blocks)]     # per block, per step: max TV
    arg_rec = [[] for _ in range(blocks)]    # sum, its first column, and
    l2_rec = [[] for _ in range(blocks)]     # max L2 sum
    # ``kept[b]`` holds block b's columns at the last step it reached (its
    # point masses at t = 0); together they are the n x m state.  They and
    # the spares are allocated here, not in the workers (see the docstring).
    kept = []
    for lo, hi in itertools.pairwise(edges):
        state = np.zeros((n, hi - lo))
        state[starts[lo:hi], np.arange(hi - lo)] = 1.0
        kept.append(state)
    spares = queue.SimpleQueue()
    for _ in range(workers):
        spares.put(np.empty(n * width))

    def settled(b, until):
        t = len(tv_rec[b]) - 1
        return t >= 0 and (t >= MAX_MIXING_STEPS or (
            t >= until and 0.5 * tv_rec[b][-1] <= need))

    def sweep(b, until):
        own = kept[b]
        w = own.shape[1]
        spare = spares.get()
        state, scratch = own, spare[:n * w].reshape(n, w)
        tv_w, l2_w = np.empty(w), np.empty(w)
        while not settled(b, until):
            if tv_rec[b]:
                product(pt, state, scratch)
                # the old state becomes the scratch
                state, scratch = scratch, state
            _distance_sums(state, pi, inv_pi, scratch, tv_w, l2_w)
            j = int(np.argmax(tv_w))
            tv_rec[b].append(tv_w[j])
            arg_rec[b].append(edges[b] + j)
            l2_rec[b].append(l2_w.max())
        if state is not own:        # an odd number of products
            np.copyto(own, state)
        spares.put(spare)

    # every block runs to its own stop and the run stops at the last of
    # them, so the blocks that stopped earlier are resumed up to it (and
    # past it, should one of them sit above the target there).  Blocks
    # touch only their own records, so scheduling cannot move a bit.
    last = 0
    with ThreadPoolExecutor(workers) as pool:
        # a lone worker is this thread: a one-block sweep starts no thread
        run = pool.map if workers > 1 else map
        while True:
            todo = [b for b in range(blocks) if not settled(b, last)]
            list(run(sweep, todo, [last] * len(todo)))
            reached = max(map(len, tv_rec)) - 1
            if reached == last:
                break
            last = reached

    # argmax takes the first block at a tie, so the worst start is the
    # first one over all columns; rounding is monotone, so subtracting 1
    # after the max gives the max of the differences
    tv_tab = np.array(tv_rec)
    first = np.argmax(tv_tab, axis=0)
    steps = np.arange(last + 1)
    tv_seq = 0.5 * tv_tab[first, steps]
    worst_seq = np.array(arg_rec)[first, steps]
    l2_seq = np.max(l2_rec, axis=0) - 1.0
    tv_curve = []
    l2_curve = []
    worst_starts = []
    mixing_times = {}
    prev_tv = prev_l2 = math.inf
    for t, (tv, l2, worst) in enumerate(zip(tv_seq, l2_seq, worst_seq)):
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
    else:
        raise ChainError(
            f"no mixing below eps={need} within {MAX_MIXING_STEPS} steps")

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
