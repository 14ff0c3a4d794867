"""Exact computations on the d-regular tree and the integer lattice.

The distance-from-root process of SRW on the infinite d-regular tree is
a birth-death chain on the nonnegative integers: up with probability
(d-1)/d and down with 1/d from any positive level, forced up at 0.
Everything here is computed by exact forward dynamic programming on that
chain (floats) or on signed-step paths (big integers), giving the
reference values that graph-side kernels are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .checks import Check
from .chains import ReversibleChain, evolve, point_mass
from .graphs import Graph, _check_vertex, bfs_distances

DP_HORIZON_LIMIT = 10_000
TD1_K_LIMIT = 6
TD1_C0 = 0.125           # the constant c0 of the staying-positive bound


class TreeError(ValueError):
    pass


def _check_degree(d: int) -> None:
    if d < 3:
        raise TreeError(f"tree degree must be >= 3, got {d}")


def level_distribution(d: int, t: int, k: int, no_return: bool = False) -> float:
    """P[level = k at time t] for the tree level chain started at 0.

    With ``no_return`` the event is intersected with never revisiting
    level 0 after time 0 (mass stepping down from level 1 is killed).
    """
    _check_degree(d)
    if t < 0 or k < 0:
        raise TreeError("t and k must be >= 0")
    profile = level_profile(d, t, no_return)
    return float(profile[k]) if k <= t else 0.0


def level_profile(d: int, t: int, no_return: bool = False) -> np.ndarray:
    """The whole level distribution at time t (vector over 0..t)."""
    _check_degree(d)
    if t < 0:
        raise TreeError("t must be >= 0")
    if t > DP_HORIZON_LIMIT:
        raise TreeError(f"DP horizon capped at {DP_HORIZON_LIMIT}, got {t}")
    p = np.zeros(t + 1)
    p[0] = 1.0
    up = (d - 1.0) / d
    down = 1.0 / d
    for step in range(t):
        nxt = np.zeros(t + 1)
        nxt[1] += p[0]
        hi = min(step + 1, t)
        nxt[2:hi + 1] += p[1:hi] * up
        if not no_return:
            nxt[0] += p[1] * down
        nxt[1:t] += p[2:t + 1] * down
        p = nxt
    return p


def sphere_size(d: int, k: int) -> int:
    """Vertices at distance k from the root: d(d-1)^{k-1}, and 1 at k=0."""
    _check_degree(d)
    return 1 if k == 0 else d * (d - 1) ** (k - 1)


def tree_kernel(d: int, t: int, k: int) -> float:
    """t-step transition probability to one fixed vertex at distance k."""
    _check_degree(d)
    if k > t:
        raise TreeError(f"distance {k} unreachable in {t} steps")
    return level_distribution(d, t, k) / sphere_size(d, k)


def level_hitting_time(d: int, k: int) -> float:
    """Expected time for the level chain to first reach level k from 0.

    Solves the one-step recurrence e_j = (d + e_{j-1})/(d-1) exactly;
    e_0 = 1 by the forced move.  No suite calls it: it is the closed form
    of E_v[T_{D_k}] on a tree ball, which :func:`hitting._ball_solves` gives.
    """
    _check_degree(d)
    if k < 0:
        raise TreeError("k must be >= 0")
    total = 0.0
    e = 1.0
    for _ in range(k):
        total += e
        e = (d + e) / (d - 1.0)
    return total


@dataclass(frozen=True)
class Td1Report:
    """Staying-positive level bound at horizon k + 2k^2.

    lhs is the exact P[level = k at k+2k^2, never back to 0]; rhs is
    c0 k^{-2} 2^{k+2k^2} (d-1)^{k^2+k-1} d^{1-(k+2k^2)} at c0 = ``TD1_C0``.
    ``max_c0`` is the largest constant for which lhs >= rhs holds.
    """

    d: int
    k: int
    horizon: int
    lhs: float
    rhs: float
    max_c0: float
    passed: bool


def td1_bound_check(d: int, k: int) -> Td1Report:
    _check_degree(d)
    if k < 1:
        raise TreeError("k must be >= 1")
    if k > TD1_K_LIMIT:
        raise TreeError(f"exact DP budget is k <= {TD1_K_LIMIT}, got {k}")
    t = k + 2 * k * k
    lhs = level_distribution(d, t, k, no_return=True)
    unit = (2.0 ** t) * (d - 1.0) ** (k * k + k - 1) * float(d) ** (1 - t) / (k * k)
    rhs = TD1_C0 * unit
    return Td1Report(d=d, k=k, horizon=t, lhs=lhs, rhs=rhs,
                     max_c0=lhs / unit, passed=lhs >= rhs - 1e-12)


def count_z_paths(k: int) -> int:
    """Signed-step paths of length k+2k^2 from 0 to k avoiding 0 after
    the start, counted exactly in integer arithmetic."""
    if k < 1:
        raise TreeError("k must be >= 1")
    t = k + 2 * k * k
    # first step is forced to +1; afterwards stay on positions >= 1
    counts = {1: 1}
    for _ in range(t - 1):
        nxt = {}
        for pos, ways in counts.items():
            nxt[pos + 1] = nxt.get(pos + 1, 0) + ways
            if pos - 1 >= 1:
                nxt[pos - 1] = nxt.get(pos - 1, 0) + ways
        counts = nxt
    return counts.get(k, 0)


def ballot_count(k: int) -> int:
    """Closed form for the same count: C(m-1, (m+k)/2 - 1) - C(m-1, (m+k)/2)
    with m = k + 2k^2 (reflection principle after the forced first step)."""
    if k < 1:
        raise TreeError("k must be >= 1")
    m = k + 2 * k * k
    up = (m + k) // 2 - 1  # up-steps remaining after the forced one
    return math.comb(m - 1, up) - math.comb(m - 1, up + 1)


def inv_normal_cdf(p: float) -> float:
    """Quantile of the standard normal (rational-approximation grade)."""
    if not (0.0 < p < 1.0):
        raise TreeError(f"p must lie in (0,1), got {p}")
    return NormalDist().inv_cdf(p)


def diameter_lower_bound(n: int, d: int, eps: float) -> float:
    """(d/(d-2)) log_{d-1} n + c_d invPhi(eps) sqrt(log_{d-1} n).

    The distance of the walk from its start concentrates, so mixing to
    within 1-eps cannot happen before roughly this time.  May be
    negative for tiny eps; returned raw.
    """
    _check_degree(d)
    if n < 2:
        raise TreeError("n must be >= 2")
    if not (0.0 < eps < 1.0):
        raise TreeError("eps must lie in (0,1)")
    logn = math.log(n) / math.log(d - 1)
    c_d = 2.0 * math.sqrt(d * (d - 1.0)) / (d - 2.0) ** 1.5
    return d / (d - 2.0) * logn + c_d * inv_normal_cdf(eps) * math.sqrt(logn)


@dataclass(frozen=True)
class KernelDomination:
    """P^t(x,y) on the graph versus the tree kernel at the same distance."""

    x: int
    y: int
    t: int
    distance: int
    graph_kernel: float
    tree_value: float
    passed: bool


def kernel_domination_check(g: Graph, chain: ReversibleChain, x: int, y: int,
                            t: int) -> KernelDomination:
    """Check P^t(x,y) >= tree kernel at distance dist(x,y), slack 1e-12,
    where P is ``chain``, the SRW chain of ``g``.

    The universal cover projects SRW on the tree onto SRW on the graph,
    so the graph kernel dominates the tree kernel entrywise.
    """
    if not g.is_regular:
        raise TreeError("kernel domination needs a regular graph")
    d = g.regular_degree
    _check_vertex(g.n, y)
    dist = int(bfs_distances(g, x)[y])
    if dist < 0:
        raise TreeError(f"{y} unreachable from {x}")
    mu = evolve(chain, point_mass(g.n, x), t)
    graph_val = float(mu[y])
    tree_val = tree_kernel(d, t, dist) if dist <= t else 0.0
    return KernelDomination(x=x, y=y, t=t, distance=dist,
                            graph_kernel=graph_val, tree_value=tree_val,
                            passed=graph_val >= tree_val - 1e-12)


@dataclass(frozen=True)
class LevelConcentration:
    """Mean, spread, and lower-tail table of the level at time t."""

    d: int
    t: int
    mean: float
    stddev: float
    lower_tail: tuple  # ((j, P[level <= mean - j sqrt(t)]) for j = 1..6)


def tree_distance_concentration(d: int, t: int) -> LevelConcentration:
    """Exact moments and lower tails of the level chain at time t.

    The mean sits near (d-2)t/d with a window of order sqrt(t); the tail
    table quantifies how little mass lies j sqrt(t) below the mean.
    """
    _check_degree(d)
    if t < 1:
        raise TreeError("t must be >= 1")
    profile = level_profile(d, t)
    levels = np.arange(len(profile), dtype=float)
    mean = float(np.dot(levels, profile))
    var = float(np.dot(levels * levels, profile) - mean * mean)
    std = math.sqrt(max(var, 0.0))
    tails = []
    for j in range(1, 7):
        cut = mean - j * math.sqrt(t)
        tails.append((j, float(profile[levels <= cut].sum())))
    return LevelConcentration(d=d, t=t, mean=mean, stddev=std,
                              lower_tail=tuple(tails))
