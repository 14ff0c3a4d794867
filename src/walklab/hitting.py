"""Killed-chain survival, escape-time quantiles, and sphere-hitting solves.

For a subset A the restriction P_A is the chain killed upon leaving A;
(P_A^t 1)(a) is the exact probability of staying inside A for t steps
from a.  The quantile hit_{1-alpha}(eps) is the first time every set of
stationary mass <= alpha is escaped with probability >= 1-eps from every
start.  Sphere hitting distributions (the probability of exiting the
radius-k ball through each boundary vertex) come from exact absorbing
linear solves, one block-diagonal factorization over many balls; they
realize the one-step kernel of the walk observed at regeneration times.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .checks import Check
from . import graphs
from .chains import (CandidateFamily, ReversibleChain, APERIODIC,
                     MixingProfile, _family_blocks, product)
from .graphs import (BallTable, Graph, _scan_vertices, ball_table,
                     vertex_transitive)
from .spectral import restricted_top_eig

EXACT_SEARCH_LIMIT = 20
MAX_QUANTILE_STEPS = 100_000
MAX_GREEDY_SETS = 4096         # see candidate_small_sets
SURVIVAL_TOL = 1e-10           # slack of the survival and quantile checks


class HittingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# survival under killing


def family_survivals(runs, sets) -> list:
    """max_a (K_A^t 1)(a) for every set A of the family ``sets``, in family
    order, for every ``(kernel, t)`` of ``runs``: one block-diagonal matvec
    per step advances a chunk of sets of :func:`chains._family_blocks`,
    whose layout is built once for all the kernels, with the same bits as
    separate runs; ``np.maximum.reduceat`` takes each set's maximum."""
    kernels, times = zip(*runs)
    outs = [np.empty(len(sets)) for _ in runs]
    for lo, starts, which, block in _family_blocks(kernels, sets):
        u = np.ones(block.shape[0])
        for _ in range(times[which]):
            u = block @ u
        outs[which][lo:lo + len(starts)] = np.maximum.reduceat(u, starts)
    return outs


# ---------------------------------------------------------------------------
# candidate small sets and the escape-time quantile


def _set_words(n: int) -> np.ndarray:
    """A fixed random 64-bit word per vertex.  A set's hash is the sum of
    its vertices' words modulo 2^64, whatever order a chain adds them in."""
    return np.random.Philox(key=np.uint64(5)).random_raw(n)


def _sorted_members(flat, start, length, which, n) -> np.ndarray:
    """The members of the sets ``which``, set after set, each sorted: set
    i is ``flat[start[i]:start[i] + length[i]]``."""
    size = length[which]
    owner = np.repeat(np.arange(len(which)), size)
    at = np.arange(len(owner)) + np.repeat(start[which] - np.cumsum(size)
                                           + size, size)
    keys = owner * n + flat[at]
    keys.sort()
    return keys - owner * n


class _Chains:
    """The sets of a candidate family as prefixes of chains.

    A chain is an ordered vertex array; each set it adds is one of its
    prefixes, sorted, and its last set, its top, holds the others.  The
    chains lie end to end, and set i is ``length[i]`` vertices from
    ``start[i]``.  A set's key is (size, hash), the hash the sum of
    :func:`_set_words` over it, read off one cumulative sum along the
    chains, so equal sets have equal keys.  Sets with equal keys are
    compared member by member: a collision never merges two sets.
    """

    def __init__(self, n: int):
        self.n = n
        self.words = _set_words(n)
        empty = np.zeros(0, dtype=np.int64)
        self.pieces, self.starts, self.lengths = [empty], [empty], [empty]
        self.tops = [empty.astype(bool)]
        self.size = 0

    def add(self, piece, starts, lengths, tops) -> None:
        """Chains laid end to end in ``piece`` and their sets: set i is
        ``piece[starts[i]:starts[i] + lengths[i]]``, and ``tops[i]`` says
        whether it is its chain's top."""
        lengths = np.asarray(lengths, dtype=np.int64)
        self.pieces.append(np.asarray(piece, dtype=np.int64))
        self.starts.append(np.broadcast_to(
            np.asarray(starts, dtype=np.int64) + self.size, lengths.shape))
        self.lengths.append(lengths)
        self.tops.append(np.asarray(tops, dtype=bool))
        self.size += len(piece)

    def identify(self) -> tuple:
        """``(flat, start, length, hashes, first)`` of every set added so
        far: ``first[i]`` is the first set equal to set i.  The chains
        added so far are kept as one piece from here on."""
        flat = np.concatenate(self.pieces)
        start = np.concatenate(self.starts)
        length = np.concatenate(self.lengths)
        self.pieces, self.starts, self.lengths = [flat], [start], [length]
        self.tops = [np.concatenate(self.tops)]
        # uint64 sums wrap modulo 2^64, so a difference is a prefix's sum
        cum = np.zeros(len(flat) + 1, dtype=np.uint64)
        np.cumsum(self.words[flat], out=cum[1:])
        hashes = cum[start + length] - cum[start]
        by_key = np.lexsort((hashes, length))
        new = np.ones(len(by_key), dtype=bool)
        new[1:] = (np.diff(length[by_key]) != 0) | (np.diff(hashes[by_key])
                                                     != 0)
        head = np.flatnonzero(new)
        first = np.empty(len(by_key), dtype=np.int64)
        first[by_key] = np.repeat(by_key[head],
                                  np.diff(np.r_[head, len(by_key)]))
        dup = np.flatnonzero(first != np.arange(len(first)))
        mine = _sorted_members(flat, start, length, dup, self.n)
        theirs = _sorted_members(flat, start, length, first[dup], self.n)
        owner = np.repeat(np.arange(len(dup)), length[dup])
        clash = np.unique(first[dup[owner[mine != theirs]]])
        # a collision: split those keys' sets by their members
        seen = {}
        for i in np.flatnonzero(np.isin(first, clash)).tolist():
            members = np.sort(flat[start[i]:start[i] + length[i]]).tobytes()
            first[i] = seen.setdefault(members, i)
        return flat, start, length, hashes, first

    def family(self) -> CandidateFamily:
        """The distinct sets, in lexicographic order of their sorted
        tuples, with the tops of the chains as the family's tops.

        Each distinct set's members become big-endian uint32 bytes, whose
        byte order is tuple order; they are built, and packed back in
        order, a chunk of about ``graphs.FAMILY_CHUNK_ROWS`` entries at a
        time.  The chains are let go once the keys hold their sets, so
        the store is spent afterwards."""
        flat, start, length, _, first = self.identify()
        self.pieces = []
        distinct = np.flatnonzero(first == np.arange(len(first)))
        size = length[distinct]
        budget = graphs.FAMILY_CHUNK_ROWS
        keys = []
        for part in np.split(np.arange(len(distinct)), np.searchsorted(
                np.cumsum(size), np.arange(budget, size.sum(), budget))):
            buf = _sorted_members(flat, start, length, distinct[part],
                                  self.n).astype(">u4").tobytes()
            ends = 4 * np.cumsum(size[part])
            keys += [buf[a:b] for a, b in zip((ends - 4 * size[part]).tolist(),
                                              ends.tolist())]
        del flat
        order = sorted(range(len(keys)), key=keys.__getitem__)
        offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(size[order], out=offsets[1:])
        members = np.empty(offsets[-1], dtype=np.int32)
        cuts = [0, *np.searchsorted(offsets, np.arange(budget, offsets[-1],
                                                       budget)).tolist()]
        # packed from the end, each chunk's keys let go once packed
        keys = [keys[i] for i in order]
        for lo in reversed(cuts):
            members[offsets[lo]:offsets[len(keys)]] = np.frombuffer(
                b"".join(keys[lo:]), dtype=">u4")
            del keys[lo:]
        # the tops, a subset of the family, in its order
        place = np.empty(len(order), dtype=np.int64)
        place[order] = np.arange(len(order))
        tops = np.unique(place[np.searchsorted(distinct,
                                               first[self.tops[0]])])
        top_offsets = np.zeros(len(tops) + 1, dtype=np.int64)
        np.cumsum(np.diff(offsets)[tops], out=top_offsets[1:])
        top_members = np.concatenate(
            [members[:0], *(members[offsets[t]:offsets[t + 1]]
                            for t in tops.tolist())])
        return CandidateFamily(members, offsets,
                               CandidateFamily(top_members, top_offsets))


def candidate_small_sets(chain: ReversibleChain, alpha: float,
                         graph: Graph) -> CandidateFamily:
    """Heuristic family of sets with pi(A) <= alpha, deduplicated and in
    lexicographic order of their sorted tuples.

    Three phases traverse ``graph``, each adding only sets with
    0 < |A| < n whose mass, summed in the order the phase adds vertices,
    is <= alpha + 1e-15:

    - balls: for every seed, the BFS balls of each complete radius that
      fits, then the largest fitting prefix of the BFS order;
    - greedy: from each seed in turn, absorb the outside neighbor with
      the most links into the set while one fits, adding every
      intermediate set;
    - Perron prefixes: for every (n // 32)-th seed, take the first
      max(4, 2.5 alpha n) vertices of its BFS order, rank them by
      restricted Perron weight (50 power steps, each scaled by its
      largest entry) and add every fitting prefix of the ranking.

    Ties are broken by three stated rules, none of which depends on a
    sort kernel: the BFS order is FIFO with neighbors in ascending order,
    so a ball cut inside a level keeps the vertices discovered first;
    the greedy phase takes the lowest vertex among the most linked; the
    Perron ranking is a stable sort of the ascending ball, so equal
    weights go to the lower vertex.

    The seeds are all n vertices, except on a graph that
    :func:`graphs.vertex_transitive` certifies, where they are vertex 0
    alone.  There the family F0 stands for its orbit closure Aut.F0,
    which has sets at every vertex: for a chain that the automorphisms
    preserve, such as the graph's SRW, the maxima of killed-chain
    survival and of restricted Perron roots over F0 equal those over
    Aut.F0, and so does :func:`hit_quantile`.

    ``MAX_GREEDY_SETS`` bounds only the greedy phase: it stops once the
    family holds more than ``MAX_GREEDY_SETS`` sets.  The ball and Perron
    phases are not bounded, so the family can be much larger.

    Every set is a prefix of one chain: a seed's BFS order, one greedy
    run (cut short or not) or one Perron ranking.  The chain's last set
    added, its top, holds all of its sets, and the family's ``tops`` are
    these, one per chain that added a set.  By the monotone rounding
    that :class:`CandidateFamily` states, killed-chain survival maxima
    over the family are attained on its tops.

    The phases run in bulk where the rules allow.  Every seed's BFS order
    comes from one lockstep pass, :meth:`graphs.Graph.bfs_prefixes`, which
    stops each seed once its mass passes alpha (the Perron seeds once
    they also hold their ball), and its running mass is the same left to
    right sum.  The greedy runs stay one seed at a time, since the bound
    reads the running count of distinct sets.  The Perron balls take one
    :func:`chains._family_blocks` layout, each power step is one
    block-diagonal product with each ball scaled by its own largest entry
    (``np.maximum.reduceat``) and frozen once that is below 1e-300, and
    one ``np.lexsort`` by (ball, -weight) ranks them all.  Sets are found
    distinct by the keys of :class:`_Chains`.
    """
    pi = chain.stationary
    n = chain.n
    limit = alpha + 1e-15
    indptr, indices = graph.indptr, graph.indices
    seeds = np.asarray(_scan_vertices(graph), dtype=np.int64)
    size = max(4, int(2.5 * alpha * n))
    stride = max(1, n // 32)
    chains = _Chains(n)

    # balls of growing radius around every seed; every stride-th seed keeps
    # the head of its BFS order as its Perron ball
    least = np.zeros(len(seeds), dtype=np.int64)
    least[::stride] = size
    balls = []
    for lo, owner, order, level, total in graph.bfs_prefixes(seeds, pi, limit,
                                                            least):
        held = np.bincount(owner)
        first = np.cumsum(held) - held
        rank = np.arange(len(order)) - first[owner]
        fit = np.bincount(owner[total <= limit], minlength=len(held))
        # the ball of each complete radius that fits ends where a level starts
        ends = np.flatnonzero((rank > 0) & (rank < fit[owner])
                              & (np.diff(level, prepend=0) != 0))
        seed = np.concatenate((owner[ends], np.arange(len(held))))
        stop = np.concatenate((rank[ends], fit))
        keep = (stop > 0) & (stop < n)
        by_seed = np.lexsort((stop[keep], seed[keep]))
        seed, stop = seed[keep][by_seed], stop[keep][by_seed]
        last = np.ones(len(seed), dtype=bool)
        last[:-1] = seed[1:] != seed[:-1]
        chains.add(order[rank < fit[owner]], (np.cumsum(fit) - fit)[seed],
                   stop, last)
        for i in range(-lo % stride, len(held), stride):
            balls.append(np.sort(order[first[i]:first[i] + min(size, held[i])]))

    # greedy connected growth: absorb the boundary vertex with the most
    # neighbors already inside (maximizes internal retention); the bound
    # reads the number of distinct sets found so far
    flat, start, length, hashes, first = chains.identify()
    distinct = np.flatnonzero(first == np.arange(len(first)))
    seen = {}           # (size, hash) -> (chain, start) of each such set
    for key, at in zip(zip(length[distinct].tolist(),
                           hashes[distinct].tolist()),
                       start[distinct].tolist()):
        seen.setdefault(key, []).append((flat, at))
    found = len(distinct)
    words = chains.words.tolist()
    for v in seeds.tolist():
        mass = pi[v]
        if mass > limit:
            continue
        inside = np.zeros(n, dtype=bool)
        links = np.zeros(n, dtype=np.int64)
        run, tag = [], 0

        def absorb(u):
            nonlocal found, tag
            inside[u] = True
            links[indices[indptr[u]:indptr[u + 1]]] += 1   # simple: no repeats
            run.append(u)
            tag = (tag + words[u]) % 2 ** 64
            if len(run) >= n:
                return
            same = seen.setdefault((len(run), tag), [])
            if same:
                members = np.flatnonzero(inside)
                if any(np.array_equal(members, np.sort(seq[at:at + len(run)]))
                       for seq, at in same):
                    return
            same.append((run, 0))
            found += 1

        absorb(v)
        while True:
            score = np.where(~inside & (mass + pi <= limit), links, 0)
            best = int(np.argmax(score))
            if score[best] == 0:
                break
            mass += pi[best]
            absorb(best)
            if found > MAX_GREEDY_SETS:
                break
        # the set only grows, so its last form is the run's top, also when
        # the bound cuts the run short; a run that reaches all n has none
        sizes = np.arange(1, min(len(run), n - 1) + 1)
        chains.add(run, 0, sizes, sizes == len(run))
        if found > MAX_GREEDY_SETS:
            break
    # the chains are repacked with the Perron prefixes; let this copy go
    del flat, start, length, hashes, first, distinct, seen

    # Perron-guided: rank a larger ball's vertices by restricted Perron
    # weight and take mass-feasible prefixes
    balls = [ball for ball in balls if 1 < len(ball) < n]
    offsets = np.zeros(len(balls) + 1, dtype=np.int64)
    np.cumsum([len(ball) for ball in balls], out=offsets[1:])
    packed = CandidateFamily(np.concatenate([np.zeros(0, np.int64), *balls]),
                             offsets)
    for lo, starts, _, block in _family_blocks([chain.kernel], packed):
        rows = block.shape[0]
        count = np.diff(starts, append=rows)
        weight = np.repeat(1.0 / count, count)
        live = np.ones(rows, dtype=bool)
        step = np.empty(rows)
        for _ in range(50):
            product(block, weight, step)
            top = np.repeat(np.maximum.reduceat(step, starts), count)
            live &= ~(top < 1e-300)
            np.divide(step, top, out=weight, where=live)
        owner = np.repeat(np.arange(len(starts)), count)
        ranked = packed.members[offsets[lo]:offsets[lo] + rows][
            np.lexsort((-weight, owner))]
        for a, b in zip(starts.tolist(), (starts + count).tolist()):
            fit = int(np.searchsorted(np.cumsum(pi[ranked[a:b]]), limit,
                                      side="right"))
            sizes = np.arange(1, fit + 1)
            chains.add(ranked[a:a + fit], 0, sizes, sizes == fit)

    return chains.family()


@dataclass(frozen=True)
class HitQuantile:
    """hit_{1-alpha}(eps) over an explicit or exhaustive set family.

    ``mode`` is 'exact' (all subsets enumerated; true value) or
    'candidate-lower-bound' (heuristic family; certified lower bound).
    ``n_sets`` counts the sets maximized over: the whole family, also
    when only its tops are stepped.  ``worst_set``/``worst_start`` attain
    the last survival above eps; ``worst_set``, a tuple, is the last tied
    top.
    """

    time: int
    alpha: float
    eps: float
    mode: str
    n_sets: int
    worst_set: object = None
    worst_start: object = None


def hit_quantile(chain: ReversibleChain, alpha: float, eps: float,
                 sets=None) -> HitQuantile:
    """First time every mass-<=alpha set is escaped w.p. >= 1-eps.

    With ``sets`` None every subset of size <= floor(alpha n) is
    enumerated (n <= 20) and the value is exact; a given family is
    maximized over as it stands and the value is flagged as a lower
    bound.  The family is read through :meth:`CandidateFamily.of`, and
    only its tops are stepped: on a :class:`CandidateFamily` such as
    ``candidate_small_sets(chain, alpha, graph)`` every set lies inside a
    top, whose survival is at least that set's at every step, so the
    crossing time is the family's; any other sequence is its own tops.
    Returns 0 when no set qualifies; raises when some set's survival
    stays above eps for ``MAX_QUANTILE_STEPS`` steps.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < eps < 1.0):
        raise HittingError("alpha and eps must lie in (0,1)")
    pi = chain.stationary
    if sets is None:
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
    else:
        mode = "candidate-lower-bound"

    if len(sets) == 0:
        return HitQuantile(time=0, alpha=alpha, eps=eps, mode=mode, n_sets=0)
    n_sets = len(sets)
    sets = CandidateFamily.of(sets).tops

    # last[i]: last step at which set i's survival exceeds eps.  A set
    # stays dead once its peak drops to eps or below, since killed-chain
    # survival maxima never increase.  The worst set's first maximizer at
    # that step comes from replaying it alone in a one-set block, which
    # gives the same bits as its rows in the family's block.
    last = np.empty(len(sets), dtype=np.int64)
    for lo, starts, _, block in _family_blocks([chain.kernel], sets):
        u = np.ones(block.shape[0])
        alive = np.ones(len(starts), dtype=bool)
        t = 0
        while True:
            alive &= np.maximum.reduceat(u, starts) > eps
            if not alive.any():
                break
            if t >= MAX_QUANTILE_STEPS:
                raise HittingError(f"survival stayed above eps for "
                                   f"{MAX_QUANTILE_STEPS} steps")
            last[lo:lo + len(starts)][alive] = t
            u = block @ u
            t += 1
    worst = int(np.flatnonzero(last == last.max())[-1])
    crossing = int(last[worst]) + 1
    worst_set = sets[worst]
    _, _, _, block = next(_family_blocks([chain.kernel], [worst_set]))
    u = np.ones(len(worst_set))
    for _ in range(crossing - 1):
        u = block @ u
    worst_start = worst_set[int(np.argmax(u))]
    return HitQuantile(time=crossing, alpha=alpha, eps=eps, mode=mode,
                       n_sets=n_sets, worst_set=worst_set,
                       worst_start=worst_start)


# ---------------------------------------------------------------------------
# the survival / Perron-root inequality suite


@dataclass(frozen=True)
class HitReport:
    """Survival-versus-spectrum records for one (chain, A) pair.

    ``survival_checks`` holds, per requested t, the three-term chain
    pi_A(a) surv(a,t)^2 <= sum_b pi_A(b) surv(b,t)^2 <= lambda(A)^{2t}.
    """

    subset: tuple
    lambda_A: float
    t_list: tuple
    survival_curve: tuple
    survival_checks: tuple
    middle_consistency: tuple

    @property
    def all_passed(self) -> bool:
        return not any(r.failed for r in
                       self.survival_checks + self.middle_consistency)


def verify_spectral_hit(chain: ReversibleChain, subset, t_list) -> HitReport:
    """Evaluate the survival/Perron chain at each t, with lambda(A) at the
    lower end of its residual interval, max(lambda(A) - r, 0), and
    ``SURVIVAL_TOL`` of slack in both inequalities."""
    subset = tuple(sorted(set(int(v) for v in subset)))
    t_list = tuple(sorted(set(int(t) for t in t_list)))
    if not t_list or t_list[0] < 0:
        raise HittingError("t_list must contain nonnegative times")
    pi = chain.stationary
    rec = restricted_top_eig(chain, subset)
    low = max(rec.lambda_A - rec.residual, 0.0)

    _, _, _, sub = next(_family_blocks([chain.kernel], [subset]))
    pi_A = pi[list(subset)]
    pi_A = pi_A / pi_A.sum()
    u = np.ones(len(subset))
    checks = []
    middles = []
    curve = []
    horizon = t_list[-1]
    for t in range(horizon + 1):
        if t in t_list:
            first = float((pi_A * u * u).max())
            middle_sum = float(sum(p * s * s for p, s in zip(pi_A, u)))
            middle_dot = float(np.dot(pi_A, u * u))
            rhs = low ** (2 * t)
            checks.append(Check(
                name=f"survival-le-norm@t={t}", lhs=first, rhs=middle_dot,
                passed=first <= middle_dot + SURVIVAL_TOL))
            checks.append(Check(
                name=f"norm-le-perron@t={t}", lhs=middle_dot, rhs=rhs,
                passed=middle_dot <= rhs + SURVIVAL_TOL))
            middles.append(Check(
                name=f"norm-two-ways@t={t}", lhs=middle_sum, rhs=middle_dot,
                passed=abs(middle_sum - middle_dot) <= 1e-12))
        curve.append(float(u.max()))
        u = sub @ u

    return HitReport(subset=subset, lambda_A=rec.lambda_A, t_list=t_list,
                     survival_curve=tuple(curve), survival_checks=tuple(checks),
                     middle_consistency=tuple(middles))


def quantile_halflog_check(chain: ReversibleChain, alpha: float,
                           lambda2: float, sets=None) -> Check:
    """hit_{1-alpha}(sqrt(alpha)) against (1/2)|log_{1/(2 lambda2)} min pi|,
    with ``SURVIVAL_TOL`` of slack.

    Valid for lambda2 in (0, 1/2) and alpha <= lambda2; skipped with the
    reason otherwise.  ``sets`` is passed to :func:`hit_quantile`.
    """
    if not (0.0 < lambda2 < 0.5):
        return Check(name="quantile-halflog", lhs=None, rhs=None, passed=None,
                     note=f"skipped: lambda2={lambda2:.6g} not in (0, 1/2)")
    if alpha > lambda2:
        return Check(name="quantile-halflog", lhs=None, rhs=None, passed=None,
                     note=f"skipped: alpha={alpha:.6g} exceeds "
                          f"lambda2={lambda2:.6g}")
    hq = hit_quantile(chain, alpha, math.sqrt(alpha), sets=sets)
    pi_min = float(chain.stationary.min())
    bound = 0.5 * abs(math.log(pi_min) / math.log(1.0 / (2.0 * lambda2)))
    return Check(name="quantile-halflog", lhs=hq.time, rhs=bound,
                 passed=hq.time <= bound + SURVIVAL_TOL, note=hq.mode)


def hitmix_constant_record(chain: ReversibleChain, alpha: float, eps: float,
                           t_rel: float, profile: MixingProfile,
                           sets=None) -> Check:
    """Implied constant (tmix(eps+alpha) - hit)/(t_rel log(1/alpha)).

    tmix(eps+alpha) is the first t with ``profile.tv_curve[t] <=
    eps+alpha``; ``profile`` is the chain's mixing profile, which may be
    None for a periodic or reducible chain, and ``sets`` is passed to
    :func:`hit_quantile`.  Reported, never asserted: the escape-to-mixing
    transfer holds with some absolute constant, whose value is not pinned
    down.
    """
    if chain.period_info != APERIODIC or not chain.is_irreducible:
        return Check(name="hitmix-constant", lhs=None, rhs=None,
                     passed=None, note="skipped: chain not ergodic")
    hq = hit_quantile(chain, alpha, eps, sets=sets)
    target = eps + alpha
    tmix = 0 if target >= 1.0 else next(
        (t for t, tv in enumerate(profile.tv_curve) if tv <= target), None)
    if tmix is None:
        raise HittingError(f"mixing profile stops above eps+alpha={target:g}")
    denom = t_rel * math.log(1.0 / alpha)
    c_impl = (tmix - hq.time) / denom if denom > 0 else math.inf
    return Check(name="hitmix-constant", lhs=c_impl, rhs=None, passed=None,
                 note=f"tmix({target:.4g})={tmix}, hit={hq.time} ({hq.mode})")


# ---------------------------------------------------------------------------
# absorbing solves on balls


def _ball_solves(table: BallTable, pos: np.ndarray) -> list:
    """``(center, sphere, row, time, excess)`` for each ball whose
    positions in ``table`` are ``pos``, balls in ascending order, each
    with a nonempty sphere, as :class:`SphereHit` defines them.

    :meth:`graphs.BallTable.moves` never crosses anchors, so I - P on the
    centers' interior positions is block-diagonal.  LU in natural column
    order eliminates each block alone, so a row's bits do not depend on
    the other balls (COLAMD mixes them and moves last bits); one
    transposed solve with 1 at every home gives every Green row G(v, .).
    An edge with an interior end is two of these moves, or one onto the
    sphere, so they count each ball's excess too; every ball has both.
    """
    dist = table.dist[pos]
    anchor = table.anchor(pos)
    centers = anchor[dist == 0]
    inner = dist < table.k
    rows, sphere = pos[inner], pos[~inner]
    slot, land, step = table.moves(rows)
    out = table.dist[land] == table.k
    ball = np.searchsorted(centers, anchor)
    moves = ball[inner][slot]
    excess = (np.bincount(moves) + np.bincount(moves[out])) // 2 \
        - np.bincount(ball) + 1
    # I - P on the interior, built as one canonical CSC (rows ascending in
    # each column): 1 on the diagonal, -step off it
    size = len(rows)
    entry_row = np.concatenate((slot[~out], np.arange(size)))
    entry_col = np.concatenate((np.searchsorted(rows, land[~out]),
                                np.arange(size)))
    by_col = np.argsort(entry_col * size + entry_row)
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry_col, minlength=size), out=indptr[1:])
    system = sp.csc_matrix(
        (np.concatenate((-step[~out], np.ones(size)))[by_col],
         entry_row[by_col], indptr), shape=(size, size))
    homes = (dist[inner] == 0) * 1.0
    x = spla.splu(system, permc_spec="NATURAL").solve(homes, trans="T")
    row = np.bincount(np.searchsorted(sphere, land[out]),
                      weights=x[slot[out]] * step[out], minlength=len(sphere))
    # each center's rows, and its sphere, are runs in center order
    cut = np.searchsorted(anchor[~inner], centers[1:])
    times = np.split(x, np.searchsorted(anchor[inner], centers[1:]))
    return list(zip(centers.tolist(), np.split(table.vertex(sphere), cut),
                    np.split(row, cut), [float(t.sum()) for t in times],
                    excess.tolist()))


@dataclass(frozen=True)
class SphereHit:
    """Exact exit distribution of the killed walk onto the radius-k sphere.

    ``probabilities[i]`` is P_v[T_{D_k} = T_u] for u = sphere[i].  The
    tree lower bound 1/(d (d-1)^{k-1}) is checked with 1e-12 slack, and
    ``c_hat`` is the measured constant max_u P[...] * d (d-1)^{k-1}.
    ``expected_time`` is E_v[T_{D_k}], the sum of the same Green row.
    ``excess`` is the tree excess of the ball, as
    :func:`graphs.assumption1_scan` defines it: edges with an interior
    endpoint minus the ball size, plus one, counted off the solve's own
    moves.
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
    expected_time: float


class SphereHits(dict):
    """The rows of the regeneration kernel W of graph ``g`` at radius
    ``k``, keyed by center: ``hits[v]`` is the :class:`SphereHit` of v,
    solved on first access or by :meth:`solve`, and kept.

    It is the only source of W: :func:`w_vs_k_report`,
    :func:`walks.escape_transfer_experiment` and
    :func:`walks.empirical_y_kernel` take it and read ``g`` and ``k``
    from it.  One instance per run lets every reader of a row share its
    solve, so each ball is solved at most once; a row's bits do not
    depend on the centers solved with it."""

    def __init__(self, g: Graph, k: int):
        super().__init__()
        self.g = g
        self.k = k

    def solve(self, centers) -> list:
        """The :class:`SphereHit` of each of ``centers``, in the order
        given.  Those not yet held are solved ascending, one
        :func:`_ball_solves` per batch of :meth:`graphs.BallTable.batches`;
        when one's sphere is empty (its :meth:`graphs.BallTable.reach` is
        below k), the smallest such raises :class:`HittingError` before
        any batch is solved."""
        g, k = self.g, self.k
        if not g.is_regular:
            raise HittingError("sphere hitting bound needs a regular graph")
        todo = np.setdiff1d(np.asarray(centers, dtype=np.int64), list(self))
        table = ball_table(g, k)
        empty = todo[table.reach(todo) < k]
        if len(empty):
            raise HittingError(f"sphere of radius {k} around {empty[0]} "
                               f"is empty")
        d = g.regular_degree
        lb = 1.0 / (d * (d - 1) ** (k - 1))
        for anchors in table.batches(todo):
            for v, sphere, row, time, excess in _ball_solves(
                    table, table.positions(anchors)):
                low, high = float(row.min()), float(row.max())
                self[v] = SphereHit(
                    center=v, radius=k, sphere=tuple(sphere.tolist()),
                    probabilities=row, total=float(row.sum()),
                    lower_bound=lb, min_prob=low, max_prob=high,
                    c_hat=high * d * (d - 1) ** (k - 1), excess=excess,
                    lower_bound_pass=low >= lb - 1e-12,
                    expected_time=time)
        return [self[v] for v in centers]

    def __missing__(self, v):
        return self.solve([v])[0]


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


def w_vs_k_report(hits: SphereHits) -> WvsKReport:
    """min/max of W/K and of K d(d-1)^{k-1} over inflated edges of
    ``hits.g`` at radius ``hits.k``.

    W rows are the exact sphere-hitting solves of ``hits``, the run's
    :class:`SphereHits`; K(x, .) is uniform over the distance-k neighbors.
    Requires every measured vertex to have a nonempty k-sphere.  The
    centers are every vertex when n <= 4096 or the graph is certified
    vertex-transitive, and vertices 0..255 otherwise.  On an uncertified
    graph ``hits.solve`` solves them all in chunked batches.  On a
    certified graph an automorphism carries center 0's ball and sphere-hit
    row onto every center's, so center 0 is solved alone, its ratios and
    extremes are computed once, and each center x's ``per_center`` row is
    (x, *center 0's fields).
    """
    g, k = hits.g, hits.k
    if not g.is_regular:
        raise HittingError("comparison needs a regular graph")
    d = g.regular_degree
    scale = d * (d - 1) ** (k - 1)
    transitive = vertex_transitive(g)
    centers = range(g.n) if g.n <= 4096 or transitive else range(256)
    ratio_min = math.inf
    ratio_max = -math.inf
    k_min = math.inf
    k_max = -math.inf
    w_min = math.inf
    per_center = []
    measured = [0] if transitive else centers
    hits.solve(measured)
    for x in measured:
        hit = hits[x]
        deg_k = len(hit.sphere)
        k_val = scale / deg_k
        k_min, k_max = min(k_min, k_val), max(k_max, k_val)
        ratios = hit.probabilities * deg_k
        ratio_min = min(ratio_min, float(ratios.min()))
        ratio_max = max(ratio_max, float(ratios.max()))
        w_min = min(w_min, hit.min_prob * scale)
        per_center.append((hit.excess, deg_k,
                           hit.min_prob, hit.max_prob, hit.c_hat))
    if transitive:
        per_center *= len(centers)
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
                      per_center=tuple((x, *row) for x, row
                                       in zip(centers, per_center)))
