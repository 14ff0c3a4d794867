"""Seeded trajectory simulation: regeneration times, good steps, and the
chain of regeneration positions.

A walk regenerates when it first reaches graph distance k from its
previous regeneration position (the anchor); the sequence of anchors is
the Y-chain, whose exact one-step kernel is the sphere-hitting solve
from the hitting module.  A step is good when at least d-1 neighbors of
the current position are strictly farther from the anchor, which is what
couples the walk to the tree level chain.  Distances to the anchor come
from the graph's radius-k ball table, and independent walks advance in
lockstep as arrays.

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
- ``escape_transfer_experiment``: trial i of start number si uses
  uniforms ``[i(t+s), (i+1)(t+s))`` of Philox (seed, 1_000_000 + si),
  one per step, whether or not it regenerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .checks import Check
# bfs_distances stays bound here: perfbench's self-test checks that its
# tracer wraps walks.bfs_distances
from .graphs import (Graph, ball_table, bfs_distances,  # noqa: F401
                     inflate, is_connected)
from .chains import srw_chain
from .hitting import (candidate_small_sets, family_survival,
                      sphere_hit_distribution)


class WalkError(ValueError):
    pass


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream): splittable and replayable."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_walk_positions(g: Graph, start: int, steps: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Plain SRW trajectory of the given length (positions 0..steps)."""
    adj = g.adjacency
    cur = start
    out = [start]
    for x in rng.random(steps).tolist():
        nbrs = adj[cur]
        cur = nbrs[int(x * len(nbrs))]
        out.append(cur)
    return np.array(out, dtype=np.int64)


def tau(t: int, d: int, k: int) -> int:
    """ceil((d-2) t / (d k)), in exact integer arithmetic."""
    if d < 3 or k < 1 or t < 0:
        raise WalkError(f"need d >= 3, k >= 1, t >= 0; got d={d}, k={k}, t={t}")
    num = (d - 2) * t
    den = d * k
    return -(-num // den)


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
        return _block_anchors(self.positions, self.T)

    def csv_rows(self):
        """Rows (t, vertex, anchor, good) for trace dumps."""
        anchors = self.anchors()
        return [(t, int(self.positions[t]), int(anchors[t]),
                 bool(self.good_flags[t]))
                for t in range(len(self.positions))]


def _block_anchors(positions: np.ndarray, T) -> np.ndarray:
    bounds = np.append(np.asarray(T, dtype=np.int64), len(positions))
    return np.repeat(positions[bounds[:-1]], np.diff(bounds))


def annotate_trace(g: Graph, positions, k: int):
    """Re-derive (T, good_flags, U) from raw positions; pure function.

    Raises when some anchor cannot reach distance k at all, since the
    block would never terminate.
    """
    positions = np.asarray(positions, dtype=np.int64)
    ball = ball_table(g, k)
    spheres = {}

    def sphere(anchor):
        ring = spheres.get(anchor)
        if ring is None:
            ring = spheres[anchor] = frozenset(ball.sphere(anchor).tolist())
            if not ring:
                raise WalkError(
                    f"anchor {anchor} has no vertex at distance {k}; "
                    f"regeneration impossible")
        return ring

    T = [0]
    ring = sphere(int(positions[0]))
    for j, p in enumerate(positions[1:].tolist(), 1):
        if p in ring:
            T.append(j)
            ring = sphere(p)

    anchors = _block_anchors(positions, T)
    dp = ball.distance(anchors, positions)
    slot, w = g.expand(positions)
    dw = ball.distance(anchors[slot], w)
    farther = np.bincount(slot, weights=(dw < 0) | (dw > dp[slot]),
                          minlength=len(positions))
    indptr = g.csr[0]
    good = farther >= indptr[positions + 1] - indptr[positions] - 1
    bad = np.concatenate(([0], np.cumsum(~good)))
    U = bad[T[1:]] - bad[T[:-1]]
    return tuple(T), good, tuple(U.tolist())


def simulate_walk(g: Graph, start: int, steps: int, k: int,
                  seed: int, stream: int = 0) -> WalkTrace:
    """SRW trajectory with regenerations at distance k, fully annotated."""
    if k < 1:
        raise WalkError("regeneration distance must be >= 1")
    if not is_connected(g):
        raise WalkError("walk simulation needs a connected graph")
    rng = make_rng(seed, stream)
    positions = random_walk_positions(g, start, steps, rng)
    T, good, U = annotate_trace(g, positions, k)
    return WalkTrace(start=start, k=k, positions=positions, T=T,
                     good_flags=good, U=U, seed=seed, stream=stream)


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


def block_statistics(traces, min_blocks: int = 1000) -> BlockStats:
    """Mean/variance of the regeneration time and the tail of U."""
    lengths = []
    us = []
    for tr in traces:
        lengths.extend(tr.block_lengths)
        us.extend(tr.U)
    n = len(lengths)
    if n < min_blocks:
        raise WalkError(f"need at least {min_blocks} completed blocks, got {n}")
    arr = np.asarray(lengths, dtype=float)
    mean = float(arr.mean())
    var = float(arr.var(ddof=1))
    stderr = math.sqrt(var / n)
    u_arr = np.asarray(us, dtype=np.int64)
    max_u = int(u_arr.max()) if len(u_arr) else 0
    survival = tuple(float((u_arr > level).mean()) for level in range(max_u + 1))
    nonincreasing = all(survival[i] >= survival[i + 1]
                        for i in range(len(survival) - 1))
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


def empirical_y_kernel(g: Graph, k: int, trials: int, seed: int,
                       anchors=None) -> list:
    """Monte Carlo rows of the regeneration kernel against the exact solve.

    For each anchor, ``trials`` independent first regenerations are
    sampled and binned; the row is compared in total variation against
    the absorbing-solve distribution.
    """
    if trials < 10_000:
        raise WalkError(f"need >= 10000 trials per anchor, got {trials}")
    if anchors is None:
        anchors = [0]
    out = []
    for si, anchor in enumerate(anchors):
        exact = sphere_hit_distribution(g, anchor, k)
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


def sample_first_regenerations(g: Graph, anchor: int, k: int, trials: int,
                               rng: np.random.Generator):
    """Durations and landing spots of ``trials`` first regenerations.

    Every trial starts at ``anchor``, so its outcome is fixed by the offset
    of its first uniform in the shared sequence.  The walks from every
    offset of a buffer of uniforms run in lockstep; the trials are then
    read off by hopping from each trial's offset to offset + duration.
    """
    ball = ball_table(g, k)
    if len(ball.sphere(anchor)) == 0:
        raise WalkError(f"anchor {anchor} has no vertex at distance {k}")
    durations, landings = [], []
    u = np.empty(0)
    while len(durations) < trials:
        # size the draw from the mean duration so far; a short draw costs
        # one more pass, over the uniforms after the last finished trial
        mean = sum(durations) / len(durations) if durations else 4.0
        more = int(1.25 * mean * (trials - len(durations))) + 64
        u = np.concatenate((u, rng.random(more)))
        steps, landing = _first_passages(g, ball, anchor, u)
        steps, landing = steps.tolist(), landing.tolist()
        o = 0
        while len(durations) < trials and o < len(u) and steps[o]:
            durations.append(steps[o])
            landings.append(landing[o])
            o += steps[o]
        u = u[o:]
    return (np.array(durations, dtype=np.int64),
            np.array(landings, dtype=np.int64))


def _first_passages(g: Graph, ball, anchor: int, u: np.ndarray):
    """Steps to the k-sphere and landing vertex of the walk from ``anchor``
    that starts at each offset j of ``u`` (using u[j], u[j+1], ...); steps
    is 0 where the walk runs out of uniforms first."""
    indptr, indices = g.csr
    degs = np.diff(indptr)
    steps = np.zeros(len(u), dtype=np.int64)
    landing = np.zeros(len(u), dtype=np.int64)
    walker = np.arange(len(u))
    cur = np.full(len(u), anchor, dtype=np.int64)
    t = 0
    while len(walker):
        live = walker + t < len(u)
        walker, cur = walker[live], cur[live]
        cur = indices[indptr[cur]
                      + (u[walker + t] * degs[cur]).astype(np.int64)]
        t += 1
        hit = ball.distance(anchor, cur) == ball.k
        steps[walker[hit]] = t
        landing[walker[hit]] = cur[hit]
        walker, cur = walker[~hit], cur[~hit]
    return steps, landing


def _lockstep_regenerations(g: Graph, start: int, k: int,
                            u: np.ndarray) -> np.ndarray:
    """Completed regenerations of ``len(u)`` fresh walks from ``start``;
    walk i takes its step j with uniform ``u[i, j]``."""
    nbr = g.neighbor_table()
    d = nbr.shape[1]
    ball = ball_table(g, k)
    cur = np.full(len(u), start, dtype=np.int64)
    anchor = cur
    regens = np.zeros(len(u), dtype=np.int64)
    for x in u.T:
        cur = nbr[cur, (x * d).astype(np.int64)]
        hit = ball.distance(anchor, cur) == k
        regens += hit
        anchor = np.where(hit, cur, anchor)
    return regens


@dataclass(frozen=True)
class EscapeTransferReport:
    """Decomposition of long-horizon escape into Y-chain escape plus the
    chance of completing too few regenerations.

    ``srw_escape`` is the exact worst escape probability at horizon t+s
    over the candidate sets; ``y_escape`` kills the exact regeneration
    kernel on each set for tau(t) steps; ``k_escape`` does the same with
    the distance-k SRW kernel; ``slow_regen`` is the Monte Carlo estimate
    of the worst P[fewer than tau(t) regenerations by t+s].
    """

    k: int
    t: int
    s: int
    tau_t: int
    alpha_requested: object
    alpha_used: float
    n_sets: int
    srw_escape: float
    y_escape: float
    k_escape: object
    slow_regen: float
    slow_regen_stderr: float
    trials: int
    seed: int
    checks: tuple
    note: str = ""

    @property
    def all_passed(self) -> bool:
        return not any(c.failed for c in self.checks)


def escape_transfer_experiment(g: Graph, k: int, t: int, s: int,
                               trials: int, seed: int,
                               alpha: float = None,
                               mc_starts_limit: int = 64) -> EscapeTransferReport:
    """Exact + Monte Carlo verification of the escape decomposition.

    P_a[T_{A^c} > t+s] <= P^Y_a[T_{A^c} > tau(t)] + P_a[T_{tau(t)} > t+s]
    is asserted for the worst candidate set within Monte Carlo error.
    When ``alpha`` is None the scale max(1/n, (d-1)^{-3k^2}) is used and
    the substitution is recorded in the note.
    """
    if not g.is_regular:
        raise WalkError("escape transfer experiment needs a regular graph")
    d = g.regular_degree
    note = ""
    if alpha is None:
        alpha_used = max(1.0 / g.n, float(d - 1) ** (-3 * k * k))
        note = (f"alpha defaulted to max(1/n, (d-1)^(-3k^2)) = {alpha_used:.6g}")
    else:
        alpha_used = float(alpha)
    chain = srw_chain(g)
    if alpha_used < chain.stationary.min() - 1e-15:
        raise WalkError(
            f"alpha={alpha_used:.6g} is below the smallest stationary mass; "
            f"no candidate sets exist")
    sets = candidate_small_sets(chain, alpha_used, graph=g)
    if not sets:
        raise WalkError("candidate family is empty")
    tau_t = tau(t, d, k)
    horizon = t + s

    srw_escape = float(family_survival(chain.kernel, sets, horizon).max())

    needed = sorted({v for A in sets for v in A})
    rows, cols, vals = [], [], []
    for v in needed:
        hit = sphere_hit_distribution(g, v, k)
        rows.extend([v] * len(hit.sphere))
        cols.extend(hit.sphere)
        vals.extend(hit.probabilities.tolist())
    w = sp.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))
    y_escape = float(family_survival(w, sets, tau_t).max())

    k_escape = None
    gk = inflate(g, k)
    if min(gk.degree(v) for v in range(gk.n)) > 0:
        k_chain = srw_chain(gk)
        k_escape = float(family_survival(k_chain.kernel, sets, tau_t).max())

    if g.n <= mc_starts_limit:
        starts = list(range(g.n))
    else:
        starts = needed[:mc_starts_limit]
    slow = 0.0
    slow_se = 0.0
    for si, a in enumerate(starts):
        u = make_rng(seed, 1_000_000 + si).random((trials, horizon))
        regens = _lockstep_regenerations(g, a, k, u)
        p_hat = int(np.count_nonzero(regens < tau_t)) / trials
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / trials) / trials)
        if p_hat > slow:
            slow, slow_se = p_hat, se
        slow_se = max(slow_se, se)

    margin = 4.0 * slow_se + 1e-9
    checks = [Check(
        name="escape-decomposition",
        lhs=srw_escape, rhs=y_escape + slow + margin,
        passed=srw_escape <= y_escape + slow + margin,
        note=f"margin includes 4 stderr = {4.0 * slow_se:.3g}")]
    if k_escape is not None:
        checks.append(Check(
            name="y-vs-k-escape", lhs=y_escape, rhs=k_escape, passed=None,
            note="informational: equal on graphs with girth > 2k"))
    return EscapeTransferReport(
        k=k, t=t, s=s, tau_t=tau_t, alpha_requested=alpha,
        alpha_used=alpha_used, n_sets=len(sets), srw_escape=srw_escape,
        y_escape=y_escape, k_escape=k_escape, slow_regen=slow,
        slow_regen_stderr=slow_se, trials=trials, seed=seed,
        checks=tuple(checks), note=note)
