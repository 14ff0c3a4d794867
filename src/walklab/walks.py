"""Seeded trajectory simulation: regeneration times, good steps, and the
chain of regeneration positions.

A walk regenerates when it first reaches graph distance k from its
previous regeneration position (the anchor); the sequence of anchors is
the Y-chain, whose exact one-step kernel W is the sphere-hitting solve
from the hitting module, read through the run's ``SphereHits``.  A step
is good when at least d-1 neighbors of the current position are strictly
farther from the anchor, which is what couples the walk to the tree
level chain.

Every walker is a position in the graph's radius-k ball table, the pair
(anchor, u), and a step is one lookup in the table's step table; a
walker that lands on its anchor's sphere at v regenerates and moves to
the home position of v, so distances to the anchor and good steps are
read off the table with no search.  ``simulate_walk`` and the Y-kernel
sampler step one walker through Python lists of the table's rows.  The
escape experiment draws no walks: its chance of too few regenerations
is an exact backward recursion over the table's moves.

All randomness flows through counter-based Philox streams keyed by
(seed, stream); every result records its key, so reruns are
bit-identical.  Each step consumes one uniform x and moves from v to
neighbor ``floor(x * deg(v))`` of v in sorted order.  Draw order:

- ``simulate_walk``: step j of the trajectory (j >= 1) uses uniform j-1
  of Philox (seed, stream).
- ``sample_first_regenerations``: the trials read one sequence of
  uniforms back to back; trial i starts with the uniform after the last
  one trial i-1 used.  ``empirical_y_kernel`` samples anchor number si
  this way from Philox (seed, si).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .checks import Check
# bfs_distances stays bound here: perfbench's self-test checks that its
# tracer wraps walks.bfs_distances
from .graphs import (Graph, bfs_distances,  # noqa: F401
                     ball_table, is_connected, vertex_transitive)
from .chains import CandidateFamily, ReversibleChain
from .hitting import SphereHits, family_survivals


# Probability that the empirical-law TV of an exact sampler exceeds
# tv_noise_bound; see there
TV_GATE_DELTA = 1e-6
MIN_BLOCKS = 1000              # see block_statistics
SLOW_REGEN_WORK = 7e9          # multiply-adds, 8-14 s; see _slow_regenerations


class WalkError(ValueError):
    pass


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream): splittable and replayable."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def tau(t: int, d: int, k: int) -> int:
    """ceil((d-2) t / (d k)), in exact integer arithmetic."""
    if d < 3 or k < 1 or t < 0:
        raise WalkError(f"need d >= 3, k >= 1, t >= 0; got d={d}, k={k}, t={t}")
    return -(-(d - 2) * t // (d * k))


@dataclass(frozen=True)
class WalkTrace:
    """A trajectory annotated with regenerations and good-step flags.

    ``T[i]`` are the regeneration times (T[0] = 0); ``good_flags[j]`` says
    whether position j had at least d-1 neighbors strictly farther from
    its block's anchor (the anchor itself always qualifies); ``U[i]`` is
    the number of non-good times in completed block i.
    """

    start: int
    k: int
    positions: np.ndarray
    T: tuple
    good_flags: np.ndarray
    U: tuple
    seed: int
    stream: int

    @property
    def n_blocks(self) -> int:
        return len(self.T) - 1

    @property
    def block_lengths(self) -> tuple:
        return tuple(self.T[i + 1] - self.T[i] for i in range(self.n_blocks))

    def anchors(self) -> np.ndarray:
        """Anchor vertex governing each time index (the block's start)."""
        bounds = np.append(np.asarray(self.T, dtype=np.int64),
                           len(self.positions))
        return np.repeat(self.positions[bounds[:-1]], np.diff(bounds))

    def csv_rows(self):
        """Rows (t, vertex, anchor, good) for trace dumps."""
        return list(zip(range(len(self.positions)), self.positions.tolist(),
                        self.anchors().tolist(), self.good_flags.tolist()))


def simulate_walk(g: Graph, start: int, steps: int, k: int,
                  seed: int, stream: int = 0) -> WalkTrace:
    """SRW trajectory with regenerations at distance k, fully annotated.

    The walker steps through the radius-k :class:`BallTable`, so T, the
    good flags and U are read off the table's distances.  Only the start
    is checked for an empty k-sphere: a landing lies at distance exactly
    k from the previous anchor, which then lies on the landing's sphere.
    """
    if k < 1:
        raise WalkError("regeneration distance must be >= 1")
    if not is_connected(g):
        raise WalkError("walk simulation needs a connected graph")
    ball = ball_table(g, k)
    if ball.reach([start])[0] < k:
        raise WalkError(f"anchor {start} has no vertex at distance {k}; "
                        f"regeneration impossible")
    # flat lists: the walk visits many balls, and a list per row of the
    # whole table would cost more to build than it saves per step
    first, target = (a.tolist() for a in ball.steps)
    dist, home = ball.dist.tolist(), ball.home.tolist()
    vertex = ball.vertex(slice(None)).tolist()
    p = home[start]
    path, T = [p], [0]
    for j, x in enumerate(make_rng(seed, stream).random(steps).tolist(), 1):
        row = first[p]
        p = target[row + int(x * (first[p + 1] - row))]
        if dist[p] == k:
            T.append(j)
            p = home[vertex[p]]
        path.append(p)

    # every position is interior to its anchor's ball, and so are the
    # neighbors that its row lists
    path = np.array(path, dtype=np.int64)
    slot, nbr, _ = ball.moves(path)
    dp = ball.dist[path]
    farther = np.bincount(slot, weights=ball.dist[nbr] > dp[slot],
                          minlength=len(path))
    good = farther >= np.bincount(slot, minlength=len(path)) - 1
    bad = np.concatenate(([0], np.cumsum(~good)))
    U = bad[T[1:]] - bad[T[:-1]]
    return WalkTrace(start=start, k=k, positions=ball.vertex(path),
                     T=tuple(T), good_flags=good, U=tuple(U.tolist()),
                     seed=seed, stream=stream)


@dataclass(frozen=True)
class BlockStats:
    """Aggregated regeneration-block statistics across traces."""

    n_blocks: int
    t1_mean: float
    t1_var: float
    t1_stderr: float
    u_survival: tuple        # P[U > l] for l = 0, 1, ...
    decay_ratio: object      # geometric fit of the survival, None if U == 0
    checks: tuple


def block_statistics(traces) -> BlockStats:
    """Mean/variance of the regeneration time and the tail of U, over at
    least ``MIN_BLOCKS`` completed blocks."""
    lengths = []
    us = []
    for tr in traces:
        lengths.extend(tr.block_lengths)
        us.extend(tr.U)
    n = len(lengths)
    if n < MIN_BLOCKS:
        raise WalkError(f"need at least {MIN_BLOCKS} completed blocks, got {n}")
    arr = np.asarray(lengths, dtype=float)
    mean = float(arr.mean())
    var = float(arr.var(ddof=1))
    stderr = math.sqrt(var / n)
    u_arr = np.asarray(us, dtype=np.int64)
    max_u = int(u_arr.max()) if len(u_arr) else 0
    survival = tuple(float((u_arr > level).mean()) for level in range(max_u + 1))
    nonincreasing = all(a >= b for a, b in zip(survival, survival[1:]))
    drops = survival[-1] < 1.0
    ratio = None
    positive = [sv for sv in survival if sv > 0]
    if len(positive) >= 2:
        logs = np.log(positive)
        ratio = float(np.exp(np.polyfit(np.arange(len(logs)), logs, 1)[0]))
    checks = (
        Check(name="u-survival-nonincreasing", lhs=survival, rhs=None,
              passed=nonincreasing),
        Check(name="u-survival-drops-below-1", lhs=survival[-1], rhs=1.0,
              passed=drops),
    )
    return BlockStats(n_blocks=n, t1_mean=mean, t1_var=var, t1_stderr=stderr,
                      u_survival=survival, decay_ratio=ratio, checks=checks)


@dataclass(frozen=True)
class EmpiricalKernelRow:
    anchor: int
    trials: int
    frequencies: dict
    exact: dict
    tv_deviation: float
    seed: int
    stream: int


def empirical_y_kernel(hits: SphereHits, trials: int, seed: int,
                       anchors=None) -> list:
    """Monte Carlo rows of the regeneration kernel against the exact solve.

    For each anchor (vertex 0 when ``anchors`` is None), ``trials``
    independent first regenerations at radius ``hits.k`` on ``hits.g``
    are sampled and binned; the row is compared in total variation
    against the anchor's exact row, read from ``hits``, the run's
    :class:`SphereHits`.
    """
    if trials < 10_000:
        raise WalkError(f"need >= 10000 trials per anchor, got {trials}")
    if anchors is None:
        anchors = [0]
    g, k = hits.g, hits.k
    out = []
    for si, anchor in enumerate(anchors):
        exact = hits[anchor]
        _, landings = sample_first_regenerations(g, anchor, k, trials,
                                                 make_rng(seed, si))
        counts = np.bincount(landings, minlength=g.n)
        freq = {u: int(counts[u]) / trials for u in exact.sphere}
        exact_map = {u: float(p) for u, p in zip(exact.sphere, exact.probabilities)}
        tv = 0.5 * sum(abs(freq[u] - exact_map[u]) for u in exact.sphere)
        out.append(EmpiricalKernelRow(
            anchor=anchor, trials=trials, frequencies=freq, exact=exact_map,
            tv_deviation=tv, seed=seed, stream=si))
    return out


def tv_noise_bound(exact, trials: int) -> float:
    """Sampling noise in the TV distance of an empirical law from the law
    ``exact`` (its probabilities) that it was drawn from, ``trials`` draws.

    E[TV] <= (1/2) sum sqrt(p (1 - p) / N), cell by cell from the
    binomial variance, and one draw moves TV by at most 1/N, so by
    McDiarmid's inequality TV exceeds that by sqrt(ln(1/delta) / (2N))
    with probability at most delta = ``TV_GATE_DELTA``.  The bound grows
    with the support, as the noise does.
    """
    p = np.asarray(exact, dtype=float)
    return (0.5 * float(np.sqrt(p * (1.0 - p) / trials).sum())
            + math.sqrt(math.log(1.0 / TV_GATE_DELTA) / (2.0 * trials)))


def sample_first_regenerations(g: Graph, anchor: int, k: int, trials: int,
                               rng: np.random.Generator):
    """Durations and landing spots of ``trials`` first regenerations.

    The trials form one walk through the anchor's rows of the radius-k
    :class:`BallTable`: it starts at the anchor and jumps back to it
    whenever it lands on the anchor's k-sphere.  Uniforms are drawn in
    batches sized from the mean duration so far; the uniforms left after
    the last trial are drawn but never read.
    """
    ball = ball_table(g, k)
    if ball.reach([anchor])[0] < k:
        raise WalkError(f"anchor {anchor} has no vertex at distance {k}")
    # the anchor's positions lo..hi-1 and their rows, shifted by -lo
    pos = ball.positions([anchor])
    lo, hi = int(pos[0]), int(pos[-1]) + 1
    first, target = ball.steps
    target = (target[first[lo]:first[hi]] - lo).tolist()
    first = (first[lo:hi + 1] - first[lo]).tolist()
    rows = [target[first[i]:first[i + 1]] for i in range(hi - lo)]
    dist = ball.dist[lo:hi].tolist()
    start = int(ball.home[anchor] - lo)
    durations, landings = [], []
    p, steps = start, 0
    while len(durations) < trials:
        # the batch rule fixes how many uniforms are drawn, and with it
        # the generator's state after the call
        mean = sum(durations) / len(durations) if durations else 4.0
        more = int(1.25 * mean * (trials - len(durations))) + 64
        for x in rng.random(more).tolist():
            nbrs = rows[p]
            p = nbrs[int(x * len(nbrs))]
            steps += 1
            if dist[p] == k:
                durations.append(steps)
                landings.append(p)
                if len(durations) == trials:
                    break
                p, steps = start, 0
    return (np.array(durations, dtype=np.int64),
            ball.vertex(lo + np.array(landings, dtype=np.int64)))


def _slow_regenerations(g: Graph, k: int, tau_t: int,
                        horizon: int) -> np.ndarray:
    """P_a[fewer than ``tau_t`` regenerations in ``horizon`` steps], exactly,
    for every start a.

    Regenerations are a Markov additive process on the interior positions
    of the radius-k :class:`BallTable`: their moves split into N, the
    steps inside the anchor's ball, and R, the steps onto the k-sphere at
    v, sent to ``home[v]``.  With f_j the chance of fewer than j+1
    regenerations in the steps left, a step back is f_j <- N f_j + R
    f_{j-1} (f_{-1} = 0; f = 1 at no steps left), one product with N and
    R stacked; the term is f_{tau-1} at ``home[a]``.
    On a certified vertex-transitive graph an automorphism carries the walk
    after a regeneration at v onto the walk after one at 0, so only anchor
    0's rows are stepped and every R step goes to ``home[0]``.  The work,
    horizon * tau_t * (moves out of those rows), stays within
    ``SLOW_REGEN_WORK``: 8.4 s at 0.83e9 per second on an Intel Xeon core
    (rr512, tau_t >= 67), 14 s at the 0.50e9 of tau_t = 10.
    """
    ball = ball_table(g, k)
    transitive = vertex_transitive(g)
    # interior positions, of anchor 0 alone on a transitive graph
    pos = ball.positions([0]) if transitive else np.arange(len(ball.dist))
    rows = pos[ball.dist[pos] < k]
    slot, land, step = ball.moves(rows)
    work = horizon * tau_t * len(slot)
    if work > SLOW_REGEN_WORK:
        raise WalkError(f"exact slow-regeneration term needs {work:.3g} "
                        f"multiply-adds, above {SLOW_REGEN_WORK = :.3g}")
    regen = ball.dist[land] == k
    land[regen] = (ball.home[0] if transitive
                   else ball.home[ball.vertex(land[regen])])
    m = len(rows)
    # rows 0..m-1 hold N, rows m..2m-1 hold R
    both = sp.csr_matrix(
        (step, (slot + m * regen, np.searchsorted(rows, land))),
        shape=(2 * m, m))
    # column j+1 holds f_j, column 0 f_{-1} = 0: R f shifted one entry on
    # in C order is R f_{j-1} in column j+1 (and junk in column 0, reset)
    f = np.ones((m, tau_t + 1))
    f[:, 0] = 0.0
    for _ in range(horizon):
        both_f = both @ f
        f = both_f[:m]
        f.ravel()[1:] += both_f[m:].ravel()[:-1]
        f[:, 0] = 0.0
    homes = ball.home[:1] if transitive else ball.home
    return np.broadcast_to(f[np.searchsorted(rows, homes), -1], g.n)


@dataclass(frozen=True)
class EscapeTransferReport:
    """Decomposition of long-horizon escape into Y-chain escape plus the
    chance of completing too few regenerations.

    ``srw_escape`` is the exact worst escape probability at horizon t+s
    over the candidate sets; ``y_escape`` kills the exact regeneration
    kernel on each set for tau(t) steps; ``k_escape`` does the same with
    the distance-k SRW kernel; ``slow_regen`` is the exact worst P_a[fewer
    than tau(t) regenerations by t+s] over the members a.  ``n_sets``
    counts the whole family, also when the maxima are taken on its tops.
    """

    k: int
    t: int
    s: int
    tau_t: int
    n_sets: int
    srw_escape: float
    y_escape: float
    k_escape: object
    slow_regen: float
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return not any(c.failed for c in self.checks)


def escape_transfer_experiment(hits: SphereHits, chain: ReversibleChain,
                               sets, k_chain: ReversibleChain, t: int,
                               s: int) -> EscapeTransferReport:
    """Exact verification of the escape decomposition on ``hits.g`` at
    regeneration radius ``hits.k``.

    P_a[T_{A^c} > t+s] <= P^Y_a[T_{A^c} > tau(t)] + P_a[T_{tau(t)} > t+s]
    is asserted for the worst set of ``sets``, every term exact.
    ``hits`` is the run's :class:`SphereHits`, from which the rows of the
    regeneration kernel W are read, for the members of ``sets`` only.
    ``chain`` is the SRW chain of g and ``sets`` a nonempty family of
    small sets, a sequence of vertex sets or a :class:`CandidateFamily`
    such as ``candidate_small_sets(chain, alpha, graph=g)``;
    ``k_chain`` is the SRW chain of ``inflate(g, k)``, or None when some
    k-sphere is empty, which leaves ``k_escape`` None.  The last term is
    :func:`_slow_regenerations` maximized over every member; past
    ``SLOW_REGEN_WORK`` multiply-adds it raises :class:`WalkError` first.
    On a certified vertex-transitive graph the family is F0, seeded at
    vertex 0: automorphisms preserve the SRW, W and K survivals, so their
    maxima over F0 are those over its orbit closure.  The family is read
    through :meth:`CandidateFamily.of`, and the three maxima step only its
    tops, which attain them (see there); the W rows and the starts still
    come from every member, and the tops hold the same members.  The 1e-9
    slack is for rounding: a recursion value is at most t+s products with
    nonnegative rows of at most d+1 terms that sum to at most 1, so its
    error is at most (t+s)(d+1) 2^-52, below 1e-9 at the suites' largest
    horizon, 15000, for every d <= 299.
    """
    g, k = hits.g, hits.k
    if not g.is_regular:
        raise WalkError("escape transfer experiment needs a regular graph")
    if len(sets) == 0:
        raise WalkError("candidate family is empty: no set has mass <= alpha")
    tau_t = tau(t, g.regular_degree, k)
    horizon = t + s
    family = CandidateFamily.of(sets)
    # every set lies inside a top, so the tops hold every member
    needed = family.tops.union().tolist()
    slow = float(_slow_regenerations(g, k, tau_t, horizon)[needed].max())

    w_rows = hits.solve(needed)
    w = sp.csr_matrix((np.concatenate([h.probabilities for h in w_rows]),
                       (np.repeat(needed, [len(h.sphere) for h in w_rows]),
                        np.concatenate([h.sphere for h in w_rows]))),
                      shape=(g.n, g.n))
    runs = [(chain.kernel, horizon), (w, tau_t)]
    if k_chain is not None:
        runs.append((k_chain.kernel, tau_t))
    # one pass over the tops' layout for the SRW, W and K maxima
    srw_escape, y_escape, *k_escape = (
        float(s.max()) for s in family_survivals(runs, family.tops))
    k_escape = k_escape[0] if k_escape else None

    bound = y_escape + slow
    checks = [Check(
        name="escape-decomposition", lhs=srw_escape, rhs=bound,
        passed=srw_escape <= bound + 1e-9,
        note="exact terms, 1e-09 rounding slack")]
    if k_escape is not None:
        checks.append(Check(
            name="y-vs-k-escape", lhs=y_escape, rhs=k_escape, passed=None,
            note="informational: equal on graphs with girth > 2k"))
    return EscapeTransferReport(
        k=k, t=t, s=s, tau_t=tau_t, n_sets=len(sets), srw_escape=srw_escape,
        y_escape=y_escape, k_escape=k_escape, slow_regen=slow,
        checks=tuple(checks))
