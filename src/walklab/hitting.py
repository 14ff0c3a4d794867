"""Killed-chain survival, escape-time quantiles, and sphere-hitting solves.

For a subset A the restriction P_A is the chain killed upon leaving A;
(P_A^t 1)(a) is the exact probability of staying inside A for t steps
from a.  The quantile hit_{1-alpha}(eps) is the first time every set of
stationary mass <= alpha is escaped with probability >= 1-eps from every
start.  Sphere hitting distributions (the probability of exiting the
radius-k ball through each boundary vertex) come from exact absorbing
linear solves; they realize the one-step kernel of the walk observed at
regeneration times.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .checks import Check
from .chains import ReversibleChain, APERIODIC, mixing_profile
from .graphs import Graph, bfs_distances
from .spectral import restricted_top_eig, spectrum

EXACT_SEARCH_LIMIT = 20
DIRECT_SOLVE_LIMIT = 20_000
CG_TOL = 1e-12
MAX_QUANTILE_STEPS = 100_000
FAMILY_CHUNK_ROWS = 16_384


class HittingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# survival under killing


def _restriction(chain: ReversibleChain, subset):
    idx = np.asarray(sorted(set(int(v) for v in subset)), dtype=np.int64)
    if len(idx) == 0:
        raise HittingError("subset must be nonempty")
    if idx[0] < 0 or idx[-1] >= chain.n:
        raise HittingError("subset contains out-of-range states")
    return idx, chain.kernel[idx][:, idx].tocsr()


def survival_vector(chain: ReversibleChain, subset, t: int) -> np.ndarray:
    """(P_A^t 1)(a) for every a in sorted(A)."""
    idx, sub = _restriction(chain, subset)
    u = np.ones(len(idx))
    for _ in range(t):
        u = sub @ u
    return u


def _family_blocks(kernel, sets):
    """Block-diagonal stacks of the restrictions kernel[A][:, A].

    Consecutive sets share a block until it holds about
    ``FAMILY_CHUNK_ROWS`` rows, which bounds the memory of a step.
    Yields ``(lo, starts, block)``: the block stacks the sets from
    ``sets[lo]`` on, and set ``lo + i`` owns the rows from ``starts[i]``.
    Every row keeps the entry order of kernel[A][:, A], so a block matvec
    equals the per-set matvecs bit for bit.  Each set must be nonempty
    and sorted, with distinct entries.
    """
    kernel = sp.csr_matrix(kernel)
    n = kernel.shape[0]
    lo = 0
    while lo < len(sets):
        hi, rows = lo, 0
        while hi < len(sets) and (
                hi == lo or rows + len(sets[hi]) <= FAMILY_CHUNK_ROWS):
            rows += len(sets[hi])
            hi += 1
        sizes = np.array([len(s) for s in sets[lo:hi]], dtype=np.int64)
        members = np.fromiter(itertools.chain.from_iterable(sets[lo:hi]),
                              dtype=np.int64, count=rows)
        owner = np.repeat(np.arange(hi - lo), sizes)
        # (set, vertex) keys; their sorted order is the block's row order
        keys = owner * n + members
        if np.any(sizes == 0) or np.any(np.diff(keys) <= 0) \
                or np.any(members < 0) or np.any(members >= n):
            raise HittingError(
                "sets must be nonempty, sorted, distinct and in range")
        sub = kernel[members]
        entry_row = np.repeat(np.arange(rows), np.diff(sub.indptr))
        entry_keys = owner[entry_row] * n + sub.indices
        col = np.minimum(np.searchsorted(keys, entry_keys), rows - 1)
        keep = keys[col] == entry_keys
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(entry_row[keep], minlength=rows), out=indptr[1:])
        block = sp.csr_matrix((sub.data[keep], col[keep], indptr),
                              shape=(rows, rows))
        yield lo, np.cumsum(sizes) - sizes, block
        lo = hi


def family_survival(kernel, sets, t: int) -> np.ndarray:
    """max_a (K_A^t 1)(a) for every set A of the family, in family order.

    One block-diagonal matvec per step advances a whole chunk of sets;
    ``np.maximum.reduceat`` takes each set's maximum.
    """
    out = np.empty(len(sets))
    for lo, starts, block in _family_blocks(kernel, sets):
        u = np.ones(block.shape[0])
        for _ in range(t):
            u = block @ u
        out[lo:lo + len(starts)] = np.maximum.reduceat(u, starts)
    return out


def survival_probability(chain: ReversibleChain, subset, a: int, t: int) -> float:
    """P_a[T_{A^c} > t]: probability of staying in A for t steps from a."""
    subset = sorted(set(int(v) for v in subset))
    if a not in subset:
        raise HittingError(f"start {a} is not in the subset")
    if t < 0:
        raise HittingError("t must be >= 0")
    u = survival_vector(chain, subset, t)
    return float(u[subset.index(a)])


# ---------------------------------------------------------------------------
# candidate small sets and the escape-time quantile


def _support_adjacency(chain: ReversibleChain):
    adj = [[] for _ in range(chain.n)]
    coo = chain.kernel.tocoo()
    for u, v in zip(coo.row, coo.col):
        if u != v:
            adj[u].append(int(v))
    return adj


def candidate_small_sets(chain: ReversibleChain, alpha: float,
                         graph: Graph = None, max_sets: int = 4096) -> list:
    """Heuristic family of sets with pi(A) <= alpha: balls around every
    center, greedily grown connected sets, and Perron-weight prefixes."""
    pi = chain.stationary
    if graph is not None:
        adj = [list(graph.adjacency[v]) for v in range(graph.n)]
    else:
        adj = _support_adjacency(chain)
    found = set()

    def push(vertices):
        fs = frozenset(int(v) for v in vertices)
        if fs and pi[list(fs)].sum() <= alpha + 1e-15 and len(fs) < chain.n:
            found.add(fs)

    # balls of growing radius around each center
    from collections import deque
    for v in range(chain.n):
        dist = {v: 0}
        order = [v]
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    order.append(w)
                    queue.append(w)
        mass = 0.0
        ball = []
        radius = 0
        for u in order:
            if dist[u] > radius:
                push(ball)
                radius = dist[u]
            if mass + pi[u] > alpha + 1e-15:
                break
            ball.append(u)
            mass += pi[u]
        push(ball)

    # greedy connected growth: absorb the boundary vertex with the most
    # neighbors already inside (maximizes internal retention)
    for v in range(chain.n):
        inside = {v}
        mass = pi[v]
        if mass > alpha + 1e-15:
            continue
        push(inside)
        while True:
            boundary = {}
            for u in inside:
                for w in adj[u]:
                    if w not in inside:
                        boundary[w] = boundary.get(w, 0) + 1
            best = None
            for w, links in sorted(boundary.items()):
                if mass + pi[w] > alpha + 1e-15:
                    continue
                if best is None or links > boundary[best]:
                    best = w
            if best is None:
                break
            inside.add(best)
            mass += pi[best]
            push(inside)
            if len(found) > max_sets:
                break
        if len(found) > max_sets:
            break

    # Perron-guided: rank a larger ball's vertices by restricted Perron
    # weight and take mass-feasible prefixes
    for v in range(0, chain.n, max(1, chain.n // 32)):
        dist = bfs_distances(graph, v) if graph is not None else None
        if dist is not None:
            ball = [int(u) for u in np.argsort(dist) if dist[u] >= 0][: max(4, int(2.5 * alpha * chain.n))]
        else:
            ball = sorted(found, key=len)[-1] if found else [v]
            ball = sorted(ball)
        ball = sorted(set(ball))
        if len(ball) < 2 or len(ball) >= chain.n:
            continue
        rec = restricted_top_eig(chain, ball)
        idx = np.asarray(rec.subset)
        sub = chain.kernel[idx][:, idx].tocsr()
        weight = np.ones(len(idx)) / len(idx)
        for _ in range(50):
            nxt = sub @ weight
            norm = np.linalg.norm(nxt)
            if norm < 1e-300:
                break
            weight = nxt / norm
        ranked = [int(idx[i]) for i in np.argsort(-weight)]
        prefix = []
        mass = 0.0
        for u in ranked:
            if mass + pi[u] > alpha + 1e-15:
                break
            prefix.append(u)
            mass += pi[u]
            push(prefix)
    return sorted(tuple(sorted(s)) for s in found)


@dataclass(frozen=True)
class HitQuantile:
    """hit_{1-alpha}(eps) over an explicit or exhaustive set family.

    ``mode`` is 'exact' (all subsets enumerated; true value) or
    'candidate-lower-bound' (heuristic family; certified lower bound).
    ``worst_set``/``worst_start`` attain the last survival above eps.
    """

    time: int
    alpha: float
    eps: float
    mode: str
    n_sets: int
    worst_set: object = None
    worst_start: object = None


def hit_quantile(chain: ReversibleChain, alpha: float, eps: float,
                 search: str = "exact", graph: Graph = None,
                 max_steps: int = MAX_QUANTILE_STEPS) -> HitQuantile:
    """First time every mass-<=alpha set is escaped w.p. >= 1-eps.

    Exact mode enumerates subsets (n <= 20, sizes <= floor(alpha n));
    candidate-family mode maximizes over the heuristic family only and is
    flagged as a lower bound.  Returns 0 when no set qualifies.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < eps < 1.0):
        raise HittingError("alpha and eps must lie in (0,1)")
    pi = chain.stationary
    if search == "exact":
        if chain.n > EXACT_SEARCH_LIMIT:
            raise HittingError(
                f"exact search needs n <= {EXACT_SEARCH_LIMIT}, got {chain.n}")
        max_size = min(int(alpha * chain.n), chain.n - 1)
        sets = []
        for size in range(1, max_size + 1):
            for combo in itertools.combinations(range(chain.n), size):
                if pi[list(combo)].sum() <= alpha + 1e-15:
                    sets.append(combo)
        mode = "exact"
    elif search == "candidate-family":
        sets = candidate_small_sets(chain, alpha, graph=graph)
        mode = "candidate-lower-bound"
    else:
        raise HittingError(f"unknown search mode {search!r}")

    if not sets:
        return HitQuantile(time=0, alpha=alpha, eps=eps, mode=mode, n_sets=0)

    # last[i]: last step at which set i's survival exceeds eps; where[i]:
    # its first maximizer then.  A set stays dead once its peak drops to
    # eps or below, since killed-chain survival maxima never increase.
    last = np.empty(len(sets), dtype=np.int64)
    where = np.empty(len(sets), dtype=np.int64)
    for lo, starts, block in _family_blocks(chain.kernel, sets):
        hi = lo + len(starts)
        rows = block.shape[0]
        owner = np.repeat(np.arange(len(starts)),
                          np.diff(np.append(starts, rows)))
        u = np.ones(rows)
        alive = np.ones(len(starts), dtype=bool)
        t = 0
        while True:
            peaks = np.maximum.reduceat(u, starts)
            alive &= peaks > eps
            if not alive.any():
                break
            if t >= max_steps:
                raise HittingError(
                    f"survival stayed above eps for {max_steps} steps")
            first = np.minimum.reduceat(
                np.where(u == peaks[owner], np.arange(rows), rows), starts)
            last[lo:hi][alive] = t
            where[lo:hi][alive] = (first - starts)[alive]
            u = block @ u
            t += 1
    worst = int(np.flatnonzero(last == last.max())[-1])
    crossing = int(last[worst]) + 1
    worst_set = sets[worst]
    worst_start = worst_set[int(where[worst])]
    return HitQuantile(time=crossing, alpha=alpha, eps=eps, mode=mode,
                       n_sets=len(sets), worst_set=worst_set,
                       worst_start=worst_start)


# ---------------------------------------------------------------------------
# the survival / Perron-root inequality suite


@dataclass(frozen=True)
class HitReport:
    """Survival-versus-spectrum records for one (chain, A) pair.

    ``survival_checks`` holds, per requested t, the three-term chain
    pi_A(a) surv(a,t)^2 <= sum_b pi_A(b) surv(b,t)^2 <= lambda(A)^{2t}.
    ``quantile_check`` compares hit_{1-alpha}(sqrt(alpha)) against the
    half-log bound available when lambda2 is in (0, 1/2).  The mixing
    transfer constant is reported, never asserted.
    """

    subset: tuple
    lambda_A: float
    t_list: tuple
    survival_curve: tuple
    survival_checks: tuple
    middle_consistency: tuple
    quantile_check: Check = None
    hitmix_constant: Check = None

    @property
    def all_passed(self) -> bool:
        records = list(self.survival_checks) + list(self.middle_consistency)
        if self.quantile_check is not None:
            records.append(self.quantile_check)
        return not any(r.failed for r in records)


def verify_spectral_hit(chain: ReversibleChain, subset, t_list,
                        alpha: float = None, eps: float = None,
                        lambda2: float = None, t_rel: float = None,
                        graph: Graph = None, tol: float = 1e-10) -> HitReport:
    """Evaluate the survival/Perron chain at each t plus the side checks.

    ``alpha``/``eps`` activate the quantile bound and the implied mixing
    constant; both need lambda2 (computed densely when not supplied).
    """
    subset = tuple(sorted(set(int(v) for v in subset)))
    t_list = tuple(sorted(set(int(t) for t in t_list)))
    if not t_list or t_list[0] < 0:
        raise HittingError("t_list must contain nonnegative times")
    idx = np.asarray(subset, dtype=np.int64)
    pi = chain.stationary
    pi_A = pi[idx] / pi[idx].sum()
    rec = restricted_top_eig(chain, subset)
    lam = rec.lambda_A

    sub = chain.kernel[idx][:, idx].tocsr()
    u = np.ones(len(idx))
    checks = []
    middles = []
    curve = []
    horizon = t_list[-1]
    for t in range(horizon + 1):
        if t in t_list:
            first = float((pi_A * u * u).max())
            middle_sum = float(sum(p * s * s for p, s in zip(pi_A, u)))
            middle_dot = float(np.dot(pi_A, u * u))
            rhs = lam ** (2 * t)
            checks.append(Check(
                name=f"survival-le-norm@t={t}", lhs=first, rhs=middle_dot,
                passed=first <= middle_dot + tol))
            checks.append(Check(
                name=f"norm-le-perron@t={t}", lhs=middle_dot, rhs=rhs,
                passed=middle_dot <= rhs + tol))
            middles.append(Check(
                name=f"norm-two-ways@t={t}", lhs=middle_sum, rhs=middle_dot,
                passed=abs(middle_sum - middle_dot) <= 1e-12))
        curve.append(float(u.max()))
        u = sub @ u

    quantile_check = None
    hitmix = None
    if alpha is not None:
        if lambda2 is None or t_rel is None:
            summ = spectrum(chain, mode="dense-full" if chain.n <= 3000
                            else "iterative-extremal")
            lambda2 = summ.lambda2 if lambda2 is None else lambda2
            t_rel = summ.t_rel if t_rel is None else t_rel
        quantile_check = quantile_halflog_check(chain, alpha, lambda2,
                                                graph=graph, tol=tol)
        if eps is not None:
            hitmix = hitmix_constant_record(chain, alpha, eps, t_rel,
                                            graph=graph)
    return HitReport(subset=subset, lambda_A=lam, t_list=t_list,
                     survival_curve=tuple(curve), survival_checks=tuple(checks),
                     middle_consistency=tuple(middles),
                     quantile_check=quantile_check, hitmix_constant=hitmix)


def quantile_halflog_check(chain: ReversibleChain, alpha: float,
                           lambda2: float, graph: Graph = None,
                           tol: float = 1e-10) -> Check:
    """hit_{1-alpha}(sqrt(alpha)) against (1/2)|log_{1/(2 lambda2)} min pi|.

    Valid for lambda2 in (0, 1/2) and alpha <= lambda2; skipped with the
    reason otherwise.
    """
    if not (0.0 < lambda2 < 0.5):
        return Check(name="quantile-halflog", lhs=None, rhs=None, passed=None,
                     note=f"skipped: lambda2={lambda2:.6g} not in (0, 1/2)")
    if alpha > lambda2:
        return Check(name="quantile-halflog", lhs=None, rhs=None, passed=None,
                     note=f"skipped: alpha={alpha:.6g} exceeds "
                          f"lambda2={lambda2:.6g}")
    search = "exact" if chain.n <= EXACT_SEARCH_LIMIT else "candidate-family"
    hq = hit_quantile(chain, alpha, math.sqrt(alpha), search=search,
                      graph=graph)
    pi_min = float(chain.stationary.min())
    bound = 0.5 * abs(math.log(pi_min) / math.log(1.0 / (2.0 * lambda2)))
    return Check(name="quantile-halflog", lhs=hq.time, rhs=bound,
                 passed=hq.time <= bound + tol, note=hq.mode)


def hitmix_constant_record(chain: ReversibleChain, alpha: float, eps: float,
                           t_rel: float, graph: Graph = None) -> Check:
    """Implied constant (tmix(eps+alpha) - hit)/(t_rel log(1/alpha)).

    Reported, never asserted: the escape-to-mixing transfer holds with
    some absolute constant, whose value is not pinned down.
    """
    if chain.period_info != APERIODIC or not chain.is_irreducible:
        return Check(name="hitmix-constant", lhs=None, rhs=None,
                     passed=None, note="skipped: chain not ergodic")
    search = "exact" if chain.n <= EXACT_SEARCH_LIMIT else "candidate-family"
    hq = hit_quantile(chain, alpha, eps, search=search, graph=graph)
    target = eps + alpha
    tmix = 0 if target >= 1.0 else mixing_profile(
        chain, [target]).mixing_times[target]
    denom = t_rel * math.log(1.0 / alpha)
    c_impl = (tmix - hq.time) / denom if denom > 0 else math.inf
    return Check(name="hitmix-constant", lhs=c_impl, rhs=None, passed=None,
                 note=f"tmix({target:.4g})={tmix}, hit={hq.time} ({hq.mode})")


# ---------------------------------------------------------------------------
# absorbing solves on balls


def _ball_absorbing_system(g: Graph, v: int, k: int):
    dist = bfs_distances(g, v, cutoff=k)
    sphere = np.flatnonzero(dist == k)
    interior = np.flatnonzero((dist >= 0) & (dist < k))
    if len(sphere) == 0:
        raise HittingError(f"sphere of radius {k} around {v} is empty")
    degs = np.array([g.degree(int(u)) for u in interior], dtype=float)
    pos_int = {int(u): i for i, u in enumerate(interior)}
    pos_sph = {int(u): i for i, u in enumerate(sphere)}
    rows_i, cols_i, vals_i = [], [], []
    rows_b, cols_b, vals_b = [], [], []
    for i, u in enumerate(interior):
        w_step = 1.0 / degs[i]
        for w in g.adjacency[int(u)]:
            if w in pos_int:
                rows_i.append(i), cols_i.append(pos_int[w]), vals_i.append(w_step)
            elif w in pos_sph:
                rows_b.append(i), cols_b.append(pos_sph[w]), vals_b.append(w_step)
            else:
                raise HittingError(
                    "internal error: interior vertex leaks outside the ball")
    m = len(interior)
    p_ii = sp.csr_matrix((vals_i, (rows_i, cols_i)), shape=(m, m))
    p_ib = sp.csr_matrix((vals_b, (rows_b, cols_b)), shape=(m, len(sphere)))
    system = sp.identity(m, format="csc") - p_ii.tocsc()
    return interior, sphere, system, p_ib, pos_int


def _solve_absorbing(system: sp.csc_matrix, rhs: np.ndarray) -> np.ndarray:
    m = system.shape[0]
    if m <= DIRECT_SOLVE_LIMIT:
        lu = spla.splu(system)
        if rhs.ndim == 1:
            return lu.solve(rhs)
        return np.column_stack([lu.solve(rhs[:, j]) for j in range(rhs.shape[1])])
    cols = rhs.reshape(m, -1)
    out = np.empty_like(cols)
    for j in range(cols.shape[1]):
        sol, info = spla.cg(system, cols[:, j], rtol=CG_TOL, atol=0.0)
        if info != 0:
            raise HittingError(f"conjugate gradient failed with info={info}")
        out[:, j] = sol
    return out.reshape(rhs.shape)


@dataclass(frozen=True)
class SphereHit:
    """Exact exit distribution of the killed walk onto the radius-k sphere.

    ``probabilities[i]`` is P_v[T_{D_k} = T_u] for u = sphere[i].  The
    tree lower bound 1/(d (d-1)^{k-1}) is checked with 1e-12 slack, and
    ``c_hat`` is the measured constant max_u P[...] * d (d-1)^{k-1}.
    """

    center: int
    radius: int
    sphere: tuple
    probabilities: np.ndarray
    total: float
    lower_bound: float
    min_prob: float
    max_prob: float
    c_hat: float
    excess: int
    lower_bound_pass: bool


def sphere_hit_distribution(g: Graph, v: int, k: int) -> SphereHit:
    """Solve the absorbing system on the ball B_k(v) exactly.

    The walk killed on the radius-k sphere never leaves the ball, so the
    hitting-location distribution solves (I - P_interior) H = P_boundary.
    """
    if not g.is_regular:
        raise HittingError("sphere hitting bound needs a regular graph")
    if k < 1:
        raise HittingError("radius must be >= 1")
    d = g.regular_degree
    interior, sphere, system, p_ib, pos_int = _ball_absorbing_system(g, v, k)
    h = _solve_absorbing(system, p_ib.toarray())
    row = h[pos_int[v]]
    total = float(row.sum())
    lb = 1.0 / (d * (d - 1) ** (k - 1))
    from .graphs import ball_stats
    excess = ball_stats(g, v, k).excess
    min_p, max_p = float(row.min()), float(row.max())
    return SphereHit(
        center=v, radius=k, sphere=tuple(int(u) for u in sphere),
        probabilities=row, total=total, lower_bound=lb,
        min_prob=min_p, max_prob=max_p,
        c_hat=max_p * d * (d - 1) ** (k - 1), excess=excess,
        lower_bound_pass=min_p >= lb - 1e-12)


def expected_hit_time(g: Graph, v: int, k: int) -> float:
    """E_v[T_{D_k}]: expected steps to reach distance k from v."""
    interior, sphere, system, _, pos_int = _ball_absorbing_system(g, v, k)
    h = _solve_absorbing(system, np.ones(len(interior)))
    return float(h[pos_int[v]])


# ---------------------------------------------------------------------------
# one-step regeneration kernel versus the distance-k walk


@dataclass(frozen=True)
class WvsKReport:
    """Row-by-row comparison of the regeneration kernel W with the SRW
    kernel K of the distance-k graph, over all inflated edges.

    ``per_center`` rows are (center, excess, sphere size, min W, max W,
    c_hat)."""

    k: int
    ratio_min: float
    ratio_max: float
    k_scaled_min: float
    k_scaled_max: float
    w_scaled_min: float
    checks: tuple
    per_center: tuple = ()

    @property
    def all_passed(self) -> bool:
        return not any(c.failed for c in self.checks)

    def c_hat_by_excess(self) -> dict:
        out = {}
        for _, excess, _, _, _, c_hat in self.per_center:
            out[excess] = max(out.get(excess, 0.0), c_hat)
        return out


def w_vs_k_report(g: Graph, k: int, centers=None) -> WvsKReport:
    """min/max of W/K and of K d(d-1)^{k-1} over inflated edges.

    W rows are exact sphere-hitting solves; K(x, .) is uniform over the
    distance-k neighbors.  Requires every measured vertex to have a
    nonempty k-sphere.
    """
    if not g.is_regular:
        raise HittingError("comparison needs a regular graph")
    d = g.regular_degree
    scale = d * (d - 1) ** (k - 1)
    if centers is None:
        centers = range(g.n)
    ratio_min = math.inf
    ratio_max = -math.inf
    k_min = math.inf
    k_max = -math.inf
    w_min = math.inf
    per_center = []
    for x in centers:
        hit = sphere_hit_distribution(g, x, k)
        deg_k = len(hit.sphere)
        k_val = scale / deg_k
        k_min, k_max = min(k_min, k_val), max(k_max, k_val)
        ratios = hit.probabilities * deg_k
        ratio_min = min(ratio_min, float(ratios.min()))
        ratio_max = max(ratio_max, float(ratios.max()))
        w_min = min(w_min, hit.min_prob * scale)
        per_center.append((int(x), hit.excess, deg_k,
                           hit.min_prob, hit.max_prob, hit.c_hat))
    checks = (
        Check(name="k-lower", lhs=k_min, rhs=1.0,
              passed=k_min >= 1.0 - 1e-12,
              note="K(x,y) d(d-1)^{k-1} >= 1"),
        Check(name="w-lower", lhs=w_min, rhs=1.0,
              passed=w_min >= 1.0 - 1e-12,
              note="W(x,y) d(d-1)^{k-1} >= 1"),
    )
    return WvsKReport(k=k, ratio_min=ratio_min, ratio_max=ratio_max,
                      k_scaled_min=k_min, k_scaled_max=k_max,
                      w_scaled_min=w_min, checks=checks,
                      per_center=tuple(per_center))
