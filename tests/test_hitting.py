import ast
import math
import pathlib
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

import walklab as wl
from walklab import chains, graphs, hitting, spectral
from walklab.chains import ChainError, mixing_profile, srw_chain
from walklab.graphs import GraphError, ball_table
from walklab.hitting import (CandidateFamily, HittingError, SphereHits,
                             candidate_small_sets,
                             family_survivals,
                             hit_quantile,
                             hitmix_constant_record, quantile_halflog_check,
                             verify_spectral_hit, w_vs_k_report)
from walklab.spectral import restricted_top_eig, spectrum
from walklab.suites import _spread


# -- survival -----------------------------------------------------------------

def survival_vector(chain, subset, t):
    """Reference: (P_A^t 1)(a) for every a in sorted(A), by t matvecs
    with the slice kernel[A][:, A]."""
    idx = np.asarray(sorted(set(subset)), dtype=np.int64)
    sub = chain.kernel[idx][:, idx].tocsr()
    u = np.ones(len(idx))
    for _ in range(t):
        u = sub @ u
    return u


def test_survival_at_zero_is_one(petersen_chain):
    for a in (0, 3, 7):
        [got] = family_survivals([(petersen_chain.kernel, 0)],
                                 [sorted([a, (a + 1) % 10])])
        assert got.tolist() == [1.0]


def test_survival_singleton_k4(k4_chain):
    for t in (1, 5):
        [got] = family_survivals([(k4_chain.kernel, t)], [(0,)])
        assert got.tolist() == [0.0]


def test_survival_pair_k4_closed_form(k4_chain):
    # restriction is (1/3) x swap, so survival decays exactly as 3^-t
    for t in range(8):
        [[got]] = family_survivals([(k4_chain.kernel, t)], [(0, 1)])
        assert abs(got - 3.0 ** (-t)) < 1e-15


def test_survival_vector_monotone(petersen_chain):
    prev = survival_vector(petersen_chain, [0, 1, 2], 0)
    for t in range(1, 10):
        cur = survival_vector(petersen_chain, [0, 1, 2], t)
        assert np.all(cur <= prev + 1e-15)
        [got] = family_survivals([(petersen_chain.kernel, t)], [(0, 1, 2)])
        assert got.tolist() == [cur.max()]
        prev = cur


# -- quantiles ----------------------------------------------------------------

def test_hit_quantile_k4(k4_chain):
    hq = hit_quantile(k4_chain, 0.3, 0.1)
    assert hq.time == 1
    assert hq.mode == "exact"
    assert hq.n_sets == 4  # singletons only at alpha = 0.3


def test_hit_quantile_petersen_pairs(petersen_chain):
    hq = hit_quantile(petersen_chain, 0.25, 0.1)
    assert hq.time == 3  # adjacent pair survives 1/9 > 0.1 >= 1/27
    assert hq.n_sets == 55
    a, b = hq.worst_set
    assert b in wl.build_named("petersen").adjacency[a]


def test_hit_quantile_vacuous(k4_chain):
    hq = hit_quantile(k4_chain, 0.2, 0.5)  # alpha below min mass 1/4
    assert hq.time == 0
    assert hq.n_sets == 0


def test_hit_quantile_exact_needs_small_n(random_cubic_medium):
    chain = srw_chain(random_cubic_medium)
    with pytest.raises(HittingError, match="n <= 20"):
        hit_quantile(chain, 0.1, 0.1)


def test_hit_quantile_candidate_is_lower_bound(petersen, petersen_chain):
    exact = hit_quantile(petersen_chain, 0.25, 0.1)
    cand = hit_quantile(petersen_chain, 0.25, 0.1, sets=candidate_small_sets(
        petersen_chain, 0.25, graph=petersen))
    assert cand.mode == "candidate-lower-bound"
    assert cand.time <= exact.time


# -- batched family survival against per-set references -----------------------

def per_set_hit_quantile(chain, sets, eps, max_steps):
    """Reference: one restriction and one matvec per live set per step."""
    restrictions = []
    for s in sets:
        idx = np.asarray(s, dtype=np.int64)
        restrictions.append((s, chain.kernel[idx][:, idx].tocsr(),
                             np.ones(len(s))))
    worst_set = worst_start = None
    t = 0
    alive = list(range(len(restrictions)))
    crossing = 0
    while alive:
        still = []
        for i in alive:
            s, sub, u = restrictions[i]
            if float(u.max()) > eps:
                still.append(i)
                crossing = t + 1
                worst_set, worst_start = s, s[int(np.argmax(u))]
                restrictions[i] = (s, sub, sub @ u)
        alive = still
        if not alive:
            break
        t += 1
        if t > max_steps:
            raise HittingError("reference overflow")
    return crossing, worst_set, worst_start


def exact_family(chain, alpha):
    pi = chain.stationary
    return [c for size in range(1, min(int(alpha * chain.n), chain.n - 1) + 1)
            for c in combinations(range(chain.n), size)
            if pi[list(c)].sum() <= alpha + 1e-15]


QUANTILE_CASES = [("petersen", 0.25, 0.1), ("petersen", 0.3, 0.02),
                  ("prism", 0.34, 0.25), ("q3", 0.25, 0.05)]


@pytest.mark.parametrize("name,alpha,eps", QUANTILE_CASES)
def test_hit_quantile_exact_matches_per_set_loop(request, name, alpha, eps):
    g = request.getfixturevalue(name)
    chain = srw_chain(g)
    hq = hit_quantile(chain, alpha, eps)
    ref = per_set_hit_quantile(chain, exact_family(chain, alpha), eps,
                               hitting.MAX_QUANTILE_STEPS)
    assert (hq.time, hq.worst_set, hq.worst_start) == ref


@pytest.fixture(scope="module")
def cubic_family(random_cubic_medium):
    chain = srw_chain(random_cubic_medium)
    return chain, candidate_small_sets(chain, 0.1, graph=random_cubic_medium)


def test_hit_quantile_candidates_match_per_set_loop(petersen, petersen_chain,
                                                    random_cubic_medium,
                                                    cubic_family):
    chain, sets = cubic_family
    for g, ch, fam, alpha, eps in (
            (petersen, petersen_chain,
             candidate_small_sets(petersen_chain, 0.25, graph=petersen),
             0.25, 0.1),
            (random_cubic_medium, chain, sets, 0.1, 0.05)):
        hq = hit_quantile(ch, alpha, eps, sets=fam)
        assert hq.n_sets == len(fam)
        ref = per_set_hit_quantile(ch, fam, eps, hitting.MAX_QUANTILE_STEPS)
        assert (hq.time, hq.worst_set, hq.worst_start) == ref


@pytest.mark.parametrize("eps", [0.02, 0.1, 0.3])
def test_worst_start_is_the_maximizer_at_the_last_step(petersen_chain, eps):
    # on these sets the first maximizer alternates from step to step, so
    # the worst start must be read at the last step above eps
    nonregular = _nonregular_graph()
    chain = srw_chain(nonregular)
    for ch, fam in ((petersen_chain, exact_family(petersen_chain, 0.4)),
                    (chain, candidate_small_sets(chain, 0.4,
                                                 graph=nonregular))):
        hq = hit_quantile(ch, 0.4, eps, sets=fam)
        ref = per_set_hit_quantile(ch, fam, eps, hitting.MAX_QUANTILE_STEPS)
        assert (hq.time, hq.worst_set, hq.worst_start) == ref
        at = [int(np.argmax(survival_vector(ch, hq.worst_set, t)))
              for t in (hq.time - 1, hq.time)]
        assert at[0] != at[1]


def test_family_survival_matches_per_set_vectors(cubic_family):
    chain, sets = cubic_family
    for t in (0, 7):
        [got] = family_survivals([(chain.kernel, t)], sets)
        for i in range(0, len(sets), 5):
            assert got[i] == survival_vector(chain, sets[i], t).max()


def test_tiny_chunks_give_identical_results(monkeypatch, cubic_family,
                                            petersen_chain):
    chain, sets = cubic_family
    sets = sets[::4]
    [wide] = family_survivals([(chain.kernel, 9)], sets)
    wide_hq = hit_quantile(petersen_chain, 0.3, 0.02)
    monkeypatch.setattr(graphs, "FAMILY_CHUNK_ROWS", 5)
    [narrow] = family_survivals([(chain.kernel, 9)], sets)
    assert np.array_equal(narrow, wide)
    assert hit_quantile(petersen_chain, 0.3, 0.02) == wide_hq


def test_hit_quantile_max_steps_overflow(monkeypatch, petersen_chain):
    full = hit_quantile(petersen_chain, 0.3, 0.02)
    # the last step with survival above eps is full.time - 1; the bound is
    # read when the quantile runs, not when the module is imported
    monkeypatch.setattr(hitting, "MAX_QUANTILE_STEPS", full.time)
    assert hit_quantile(petersen_chain, 0.3, 0.02) == full
    monkeypatch.setattr(hitting, "MAX_QUANTILE_STEPS", full.time - 1)
    with pytest.raises(HittingError, match=f"for {full.time - 1} steps"):
        hit_quantile(petersen_chain, 0.3, 0.02)
    with pytest.raises(HittingError):
        per_set_hit_quantile(petersen_chain,
                             exact_family(petersen_chain, 0.3), 0.02,
                             full.time - 1)


def test_family_survival_rejects_unsorted_sets(petersen_chain):
    with pytest.raises(ChainError, match="sorted"):
        family_survivals([(petersen_chain.kernel, 2)], [(3, 1)])


def reference_family_blocks(kernel, sets):
    """Reference: the block builder that finds each kernel entry's block
    column by binary search over the chunk's (set, vertex) keys, with
    chunks closed on rows alone.  The sets are read as Python sequences,
    so a family's sets are its sorted tuples."""
    import scipy.sparse as sp
    kernel = sp.csr_matrix(kernel)
    n = kernel.shape[0]
    sets = [list(s) for s in sets]
    offsets = np.cumsum([0] + [len(s) for s in sets])
    all_members = np.array([v for s in sets for v in s], dtype=np.int64)
    lo = 0
    while lo < len(sets):
        last = np.searchsorted(offsets,
                               offsets[lo] + graphs.FAMILY_CHUNK_ROWS,
                               side="right") - 1
        hi = max(int(last), lo + 1)
        sizes = np.diff(offsets[lo:hi + 1])
        members = all_members[offsets[lo]:offsets[hi]]
        rows = len(members)
        owner = np.repeat(np.arange(hi - lo), sizes)
        keys = owner * n + members
        if np.any(sizes == 0) or np.any(np.diff(keys) <= 0) \
                or np.any(members < 0) or np.any(members >= n):
            raise ChainError(
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


def per_set_pieces(blocks):
    """(lo, starts, block) triples cut into one (indptr, indices, data)
    triple per set, columns counted from the set's first row."""
    pieces = []
    for _, starts, block in blocks:
        ends = np.append(starts[1:], block.shape[0])
        for a, b in zip(starts.tolist(), ends.tolist()):
            lo, hi = block.indptr[a], block.indptr[b]
            pieces.append((block.indptr[a:b + 1] - lo,
                           block.indices[lo:hi] - a, block.data[lo:hi]))
    return pieces


def reference_survival(kernel, sets, t):
    out = []
    for _, starts, block in reference_family_blocks(kernel, sets):
        u = np.ones(block.shape[0])
        for _ in range(t):
            u = block @ u
        out.extend(np.maximum.reduceat(u, starts))
    return np.array(out)


def assert_blocks_match_reference(*kernels, sets):
    """Blocks of every kernel from one pass over a shared layout, each
    equal to its own reference; returns the first kernel's blocks."""
    shared = list(chains._family_blocks(kernels, sets))
    # each chunk yields every kernel's block, kernels in order
    assert [which for _, _, which, _ in shared] == \
        list(range(len(kernels))) * (len(shared) // len(kernels))
    for i, kernel in enumerate(kernels):
        blocks = [(lo, starts, block)
                  for lo, starts, which, block in shared if which == i]
        assert [lo for lo, _, _ in blocks] == \
            np.cumsum([0] + [len(st) for _, st, _ in blocks[:-1]]).tolist()
        for got, want in zip(
                per_set_pieces(blocks),
                per_set_pieces(reference_family_blocks(kernel, sets)),
                strict=True):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        for _, starts, block in blocks:
            # block-diagonal: every entry lies in its own set's columns
            owner = np.searchsorted(starts, np.arange(block.shape[0]),
                                    side="right")
            row_of = np.repeat(np.arange(block.shape[0]),
                               np.diff(block.indptr))
            assert np.array_equal(
                np.searchsorted(starts, block.indices, side="right"),
                owner[row_of])
        for t in (0, 1, 6):
            assert np.array_equal(family_survivals([(kernel, t)], sets)[0],
                                  reference_survival(kernel, sets, t))
    # one pass over the shared layout gives each kernel's own bits
    runs = [(kernel, t) for kernel, t in zip(kernels, (6, 1, 0))]
    for got, (kernel, t) in zip(family_survivals(runs, sets), runs,
                                strict=True):
        assert np.array_equal(got, reference_survival(kernel, sets, t))
    return [(lo, starts, block)
            for lo, starts, which, block in shared if which == 0]


def recording_slot_maps(monkeypatch):
    """Sizes of the 2-d int32 arrays (slot maps) that chains.py
    allocates with np.full."""
    import inspect
    sizes = []
    full = np.full

    def recorded(shape, *args, **kwargs):
        out = full(shape, *args, **kwargs)
        caller = inspect.currentframe().f_back.f_globals["__name__"]
        if caller == chains.__name__ and out.dtype == np.int32 \
                and out.ndim == 2:
            sizes.append(out.size)
        return out

    monkeypatch.setattr(chains.np, "full", recorded)
    return sizes


def two_step_kernel(chain):
    """P^2 without the rows of odd states: another entry pattern on the
    same states, with empty rows as in the W of the escape experiment."""
    even = (np.arange(chain.n) % 2 == 0).astype(float)
    square = chain.kernel @ chain.kernel
    square.sort_indices()
    kernel = (sp.diags(even) @ square).tocsr()
    kernel.eliminate_zeros()
    return kernel


def test_family_blocks_match_search_reference(monkeypatch, cubic_family,
                                              petersen_chain):
    chain, sets = cubic_family
    sizes = recording_slot_maps(monkeypatch)
    # default chunks: one slot map of sets x n entries per chunk, shared by
    # the two kernels
    blocks = assert_blocks_match_reference(
        chain.kernel, two_step_kernel(chain), sets=sets)
    assert len(blocks) > 1 and sizes
    assert max(sizes) <= 16 * graphs.FAMILY_CHUNK_ROWS
    sizes.clear()
    shared = list(chains._family_blocks([chain.kernel, two_step_kernel(chain)],
                                        sets))
    assert len(sizes) == len(blocks) == len(shared) // 2
    # tiny chunks, a bound of 80 entries: on n = 200 a set alone gets a
    # map of all n vertices; on n = 10 a chunk holds up to 5 rows from at
    # most 8 sets
    monkeypatch.setattr(graphs, "FAMILY_CHUNK_ROWS", 5)
    sizes.clear()
    blocks = assert_blocks_match_reference(
        chain.kernel, two_step_kernel(chain), sets=sets[::7])
    assert all(len(starts) == 1 for _, starts, _ in blocks)
    assert set(sizes) == {chain.n} == {200}
    blocks = assert_blocks_match_reference(
        petersen_chain.kernel, two_step_kernel(petersen_chain),
        sets=exact_family(petersen_chain, 0.3))
    assert max(len(starts) for _, starts, _ in blocks) == 5


def test_family_blocks_reject_kernels_of_other_sizes(petersen_chain,
                                                     cubic_family):
    chain, _ = cubic_family
    with pytest.raises(ChainError, match="n x n for one n"):
        list(chains._family_blocks([petersen_chain.kernel, chain.kernel],
                                   [(0, 1)]))


def test_singleton_chunks_close_on_the_slot_map_bound(monkeypatch,
                                                      cubic_family):
    chain, _ = cubic_family
    n = chain.n
    sets = [(v,) for v in range(n)] * 8
    sizes = recording_slot_maps(monkeypatch)
    blocks = assert_blocks_match_reference(chain.kernel, sets=sets)
    per_chunk = 16 * graphs.FAMILY_CHUNK_ROWS // n
    assert [len(starts) for _, starts, _ in blocks] == \
        [per_chunk] * (len(sets) // per_chunk) + [len(sets) % per_chunk]
    assert max(sizes) == per_chunk * n <= 16 * graphs.FAMILY_CHUNK_ROWS
    # the rows alone would have closed one chunk
    assert len(list(reference_family_blocks(chain.kernel, sets))) == 1


@pytest.mark.parametrize("rows", [None, 5])
def test_family_blocks_reject_bad_sets(monkeypatch, petersen_chain, rows):
    if rows is not None:
        monkeypatch.setattr(graphs, "FAMILY_CHUNK_ROWS", rows)
    message = "^sets must be nonempty, sorted, distinct and in range$"
    for bad in ([(0, 1), ()], [(3, 1)], [(2, 5, 5)], [(4, 10)], [(-1, 2)]):
        with pytest.raises(ChainError, match=message):
            family_survivals([(petersen_chain.kernel, 2)], bad)
        with pytest.raises(ChainError, match=message):
            list(reference_family_blocks(petersen_chain.kernel, bad))


def test_candidate_sets_respect_mass(petersen, petersen_chain):
    sets = candidate_small_sets(petersen_chain, 0.25, graph=petersen)
    assert sets
    pi = petersen_chain.stationary
    for s in sets:
        assert pi[list(s)].sum() <= 0.25 + 1e-12
        assert 0 < len(s) < 10


# -- the candidate family against the scalar reference ------------------------

def reference_candidate_small_sets(chain, alpha, graph, max_sets=4096,
                                   seeds=None):
    """Reference: the scalar family builder (dict BFS, boundary dicts,
    frozenset dedupe), with every phase seeded at ``seeds`` (all states
    when None).  Its tie rules are written out without numpy sorts: BFS
    in FIFO order with ascending neighbors, the lowest vertex among the
    most linked, and Python's stable sort for the Perron ranking.

    Returns ``(family, tops)``, both sorted tuples: a chain's top is the
    last set it adds (a greedy run's last set, none when that set is all
    n states, as the bound keeps it)."""
    from collections import deque
    pi = chain.stationary
    seeds = list(range(chain.n)) if seeds is None else list(seeds)
    adj = [sorted(graph.adjacency[v]) for v in range(graph.n)]
    found = set()
    tops = set()

    def push(vertices):
        """Add a set; return it, or None when it is not added."""
        fs = frozenset(int(v) for v in vertices)
        if fs and pi[list(fs)].sum() <= alpha + 1e-15 and len(fs) < chain.n:
            found.add(fs)
            return fs
        return None

    def end_chain(top):
        if top is not None:
            tops.add(top)

    def bfs(v):
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
        return order, dist

    for v in seeds:
        order, dist = bfs(v)
        mass = 0.0
        ball = []
        radius = 0
        top = None
        for u in order:
            if dist[u] > radius:
                top = push(ball) or top
                radius = dist[u]
            if mass + pi[u] > alpha + 1e-15:
                break
            ball.append(u)
            mass += pi[u]
        end_chain(push(ball) or top)

    for v in seeds:
        inside = {v}
        mass = pi[v]
        if mass > alpha + 1e-15:
            continue
        top = push(inside)
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
            top = push(inside)
            if len(found) > max_sets:
                break
        end_chain(top)
        if len(found) > max_sets:
            break

    for v in seeds[::max(1, chain.n // 32)]:
        ball = sorted(bfs(v)[0][:max(4, int(2.5 * alpha * chain.n))])
        if len(ball) < 2 or len(ball) >= chain.n:
            continue
        idx = np.asarray(ball)
        sub = chain.kernel[idx][:, idx].tocsr()
        weight = np.ones(len(idx)) / len(idx)
        for _ in range(50):
            nxt = sub @ weight
            if nxt.max() < 1e-300:
                break
            weight = nxt / nxt.max()
        ranked = [ball[i] for i in sorted(range(len(ball)),
                                          key=lambda i: -weight[i])]
        prefix = []
        mass = 0.0
        top = None
        for u in ranked:
            if mass + pi[u] > alpha + 1e-15:
                break
            prefix.append(u)
            mass += pi[u]
            top = push(prefix) or top
        end_chain(top)
    return (sorted(tuple(sorted(s)) for s in found),
            sorted(tuple(sorted(s)) for s in tops))


def _nonregular_graph():
    # a path with chords: degrees 1..4, so pi is not uniform
    edges = [(i, i + 1) for i in range(39)]
    edges += [(0, 10), (5, 30), (12, 18), (20, 35), (3, 37), (5, 12)]
    return wl.make_graph(40, edges)


def relabelled(g):
    """``g`` under a fixed random relabelling of its vertices, with its
    provenance but no automorphism certificate: every vertex seeds."""
    perm = np.random.Generator(np.random.Philox(key=np.uint64(9))) \
        .permutation(g.n)
    return wl.make_graph(g.n, perm[np.array(g.edges)], g.provenance)


FAMILY_CASES = [
    # (graph fixture, alpha, max_sets, the graph as built or else
    # relabelled); "lazy_prism" is the prism with its lazy SRW, whose
    # kernel holds 1/2 at every vertex
    ("petersen", 0.25, 4096, True), ("petersen", 0.4, 10, True),
    ("prism", 0.34, 4096, True), ("prism", 0.5, 4096, True),
    ("lazy_prism", 0.5, 4096, True),
    ("rr512", 0.25, 4096, True),
    ("nonregular", 0.25, 4096, True), ("nonregular", 0.4, 30, True),
    ("petersen", 0.4, 4096, False), ("prism", 0.5, 4096, False),
    ("q3", 0.25, 4096, False), ("nonregular", 0.25, 4096, False),
    ("random_cubic_medium", 0.1, 100, False), ("lazy_prism", 0.5, 4096, False),
]


@pytest.fixture(scope="module")
def rr512():
    return wl.build_random_regular(512, 3, 2)


@pytest.fixture(scope="module")
def nonregular():
    return _nonregular_graph()


@pytest.fixture(scope="module")
def rr64():
    return wl.build_random_regular(64, 3, 8)


@pytest.fixture(scope="module")
def lps17_13():
    return wl.build_lps(17, 13)


@pytest.fixture(scope="module")
def lps13_17():
    return wl.build_lps(13, 17)


def family_case(monkeypatch, request, name, max_sets, as_built):
    """(graph, chain) of a ``FAMILY_CASES`` row, with its greedy bound
    set."""
    lazy = name == "lazy_prism"
    g = request.getfixturevalue("prism" if lazy else name)
    if not as_built:
        g = relabelled(g)
        assert not wl.vertex_transitive(g)
    chain = srw_chain(g)
    if lazy:
        chain = wl.chain_from_kernel((chain.kernel + np.eye(g.n)) * 0.5,
                                     chain.stationary)
    monkeypatch.setattr(hitting, "MAX_GREEDY_SETS", max_sets)
    return g, chain


@pytest.mark.parametrize("name,alpha,max_sets,as_built", FAMILY_CASES)
def test_candidate_family_matches_scalar_reference(monkeypatch, request, name,
                                                   alpha, max_sets, as_built):
    g, chain = family_case(monkeypatch, request, name, max_sets, as_built)
    got = candidate_small_sets(chain, alpha, graph=g)
    ref, tops = reference_candidate_small_sets(chain, alpha, g,
                                               max_sets=max_sets)
    assert sorted(got) == ref
    assert len(got) == len(ref)
    assert sorted(got.tops) == tops
    assert len(got.tops) == len(tops)


def assert_spread_is_the_sorted_stride(family):
    ordered = sorted(family, key=lambda s: (len(s), s))
    assert len(ordered) == len(family)
    for count in (6, 12, 16):
        assert _spread(family, count) == \
            ordered[::max(1, len(family) // count)][:count]


@pytest.mark.parametrize("name,alpha,max_sets,as_built", FAMILY_CASES)
def test_spread_is_the_sorted_stride(monkeypatch, request, name, alpha,
                                     max_sets, as_built):
    g, chain = family_case(monkeypatch, request, name, max_sets, as_built)
    assert_spread_is_the_sorted_stride(
        candidate_small_sets(chain, alpha, graph=g))


@pytest.mark.parametrize("name", ["rr512", "lps13_17"])
def test_spread_is_the_sorted_stride_on_the_benchmark_graphs(request, name):
    g = request.getfixturevalue(name)
    assert_spread_is_the_sorted_stride(
        candidate_small_sets(srw_chain(g), 0.25, graph=g))


def reference_restricted_root(chain, subset, lanczos):
    """Reference: (lambda(A), residual, iterations) solved as
    restricted_top_eig solves them, on the slice kernel[A][:, A] scaled by
    two diagonal products, with the frozen Lanczos solve ``lanczos``."""
    idx = np.asarray(subset, dtype=np.int64)
    sub = chain.kernel[idx][:, idx].tocsr()
    if len(idx) == 1 or sub.nnz == 0:
        return float(sub.diagonal().max()), 0.0, 0
    root = np.sqrt(chain.stationary[idx])
    s_sub = (sp.diags(root) @ sub @ sp.diags(1.0 / root)).tocsr()
    ((lam, residual),), iterations = lanczos(s_sub, (-1,))
    return lam, residual, iterations


@pytest.mark.parametrize("name,alpha,max_sets,as_built", FAMILY_CASES)
def test_restricted_roots_match_the_slice_reference(monkeypatch, request, name,
                                                    alpha, max_sets, as_built,
                                                    lanczos_reference):
    g, chain = family_case(monkeypatch, request, name, max_sets, as_built)
    sets = _spread(candidate_small_sets(chain, alpha, graph=g), 16)
    assert sets
    for A in sets:
        rec = restricted_top_eig(chain, A)
        assert (rec.lambda_A, rec.residual, rec.iterations) == \
            reference_restricted_root(chain, A, lanczos_reference)


@pytest.mark.parametrize("name", ["lps17_13", "rr512"])
def test_restricted_roots_match_the_reference_on_spread_sets(
        request, name, lanczos_reference):
    # the spread sets the spectral suite solves, on the two benchmark graphs
    g = request.getfixturevalue(name)
    chain = srw_chain(g)
    for A in _spread(candidate_small_sets(chain, 0.25, graph=g), 12):
        rec = restricted_top_eig(chain, A)
        assert (rec.lambda_A, rec.residual, rec.iterations) == \
            reference_restricted_root(chain, A, lanczos_reference)


def incidence(sets, n):
    """0/1 matrix with row i the indicator of set i."""
    out = np.zeros((len(sets), n))
    for i, A in enumerate(sets):
        out[i, list(A)] = 1.0
    return out


@pytest.mark.parametrize("name,alpha,max_sets,as_built", FAMILY_CASES)
def test_family_tops_cover_the_family_and_attain_its_maxima(
        monkeypatch, request, name, alpha, max_sets, as_built):
    g, chain = family_case(monkeypatch, request, name, max_sets, as_built)
    fam = candidate_small_sets(chain, alpha, graph=g)
    tops = fam.tops
    # every top is a family set, and every family set lies inside a top
    assert sorted(tops) == sorted(set(tops)) and set(tops) <= set(fam)
    assert tops.tops is tops
    shared = incidence(fam, g.n) @ incidence(tops, g.n).T
    sizes = np.array([len(A) for A in fam])
    assert np.all((shared == sizes[:, None]).any(axis=1))
    # the maxima over the tops are the family's, bit for bit
    sets = list(fam)
    for t in (1, 5, 18):
        assert family_survivals([(chain.kernel, t)], tops)[0].max() == \
            family_survivals([(chain.kernel, t)], sets)[0].max()
    for eps in (0.1, 0.25, 0.5):
        on_tops = hit_quantile(chain, alpha, eps, sets=fam)
        on_all = hit_quantile(chain, alpha, eps, sets=sets)
        assert on_tops.time == on_all.time
        assert on_tops.n_sets == on_all.n_sets == len(fam)
        assert on_tops.worst_set in set(tops)


def reversed_ties_argsort(monkeypatch):
    """Replace ``np.argsort`` by another valid sort: stable calls keep
    their order, and every other call returns each run of equal keys in
    reverse.  A result that rests on the tie order of an unstable sort
    changes under it."""
    argsort = np.argsort

    def fake(a, axis=-1, kind=None, order=None, *, stable=None):
        out = argsort(a, axis=axis, kind="stable", order=order)
        if stable or kind in ("stable", "mergesort") or np.ndim(a) != 1 \
                or len(a) < 2:
            return out
        keys = np.asarray(a)[out]
        run = np.cumsum(np.r_[True, keys[1:] != keys[:-1]])
        return out[np.lexsort((-np.arange(len(out)), run))]

    monkeypatch.setattr(np, "argsort", fake)


@pytest.mark.parametrize("name", ["petersen", "rr64", "lps17_13", "q3"])
def test_candidate_family_ignores_the_argsort_tie_order(monkeypatch, request,
                                                       name):
    # the family's ties are its own rules, not the sort kernel's choice
    g = request.getfixturevalue(name)
    chain = srw_chain(g)
    want = list(candidate_small_sets(chain, 0.25, graph=g))
    reversed_ties_argsort(monkeypatch)
    keys = np.array([2, 1, 2, 0, 1, 2])
    assert np.argsort(keys).tolist() == [3, 4, 1, 5, 2, 0]
    assert np.argsort(keys, kind="stable").tolist() == [3, 1, 4, 0, 2, 5]
    assert list(candidate_small_sets(chain, 0.25, graph=g)) == want


@pytest.mark.parametrize("name", ["petersen", "rr64", "nonregular", "q3"])
def test_candidate_family_survives_hash_collisions(monkeypatch, request, name):
    # with one word for every vertex, every two sets of one size share a
    # key: only the member comparisons keep distinct sets apart, in the
    # bulk identification and in the greedy phase's running count
    g = request.getfixturevalue(name)
    chain = srw_chain(g)
    want = candidate_small_sets(chain, 0.25, graph=g)
    monkeypatch.setattr(hitting, "_set_words",
                        lambda n: np.full(n, 7, dtype=np.uint64))
    got = candidate_small_sets(chain, 0.25, graph=g)
    for a, b in ((got, want), (got.tops, want.tops)):
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.start, b.start)
        assert np.array_equal(a.length, b.length)
    monkeypatch.setattr(hitting, "MAX_GREEDY_SETS", 30)
    seeds = [0] if wl.vertex_transitive(g) else None
    got = candidate_small_sets(chain, 0.25, graph=g)
    want = reference_candidate_small_sets(chain, 0.25, g, max_sets=30,
                                          seeds=seeds)[0]
    assert sorted(got) == want and len(got) == len(want)


def test_candidate_family_memory_is_bounded_by_its_tops():
    # the family keeps its chains, one vertex array that its tops share,
    # and two words per set.  The build holds that array and its own
    # working set: the lockstep BFS in batches within the chunk budget and
    # the cumulative hash sum along the chains.  Its traced peak stays
    # within 4 int64 words per top entry (3.3 on this graph); a build that
    # packed every set apart from its chain took 7.2, and one that also
    # kept each prefix's key and a joined copy took 10.5
    g = wl.build_random_regular(2048, 3, 2)
    chain = srw_chain(g)
    tracemalloc.start()
    try:
        fam = candidate_small_sets(chain, 0.25, graph=g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries = sum(map(len, fam.tops))
    assert peak <= 4 * 8 * entries
    assert fam.tops.vertices is fam.vertices
    # the stored arrays stay within 1.1 words per top entry, while the
    # sets they hold count 6 times as many entries
    stored = fam.vertices.nbytes + fam.start.nbytes + fam.length.nbytes
    assert stored <= 1.1 * 8 * entries
    assert sum(map(len, fam)) >= 6 * entries


CERTIFIED_FAMILY_CASES = [(("cycle", 12), 0.25), (("hypercube", 4), 0.25),
                          (("complete", 6), 0.34), (("hypercube", 3), 0.25)]


@pytest.mark.parametrize("spec,alpha", CERTIFIED_FAMILY_CASES)
def test_the_certificate_alone_decides_the_seeds(spec, alpha):
    # certified: every phase seeded at vertex 0; a relabelled copy without
    # automorphisms: every vertex, as before
    g = wl.build_named(*spec)
    assert wl.vertex_transitive(g)
    chain = srw_chain(g)
    fam = candidate_small_sets(chain, alpha, graph=g)
    sets, tops = reference_candidate_small_sets(chain, alpha, g, seeds=[0])
    assert (sorted(fam), sorted(fam.tops)) == (sets, tops)
    assert (len(fam), len(fam.tops)) == (len(sets), len(tops))
    bare = relabelled(g)
    assert not wl.vertex_transitive(bare)
    chain = srw_chain(bare)
    fam = candidate_small_sets(chain, alpha, graph=bare)
    sets, tops = reference_candidate_small_sets(chain, alpha, bare)
    assert (sorted(fam), sorted(fam.tops)) == (sets, tops)
    assert (len(fam), len(fam.tops)) == (len(sets), len(tops))


def orbit_closure(g, family):
    """Test helper: Aut.F, the images of every set of ``family`` under the
    group that ``g.automorphisms`` generate, by a Schreier BFS whose nodes
    are sets and whose edges are the generators.  Sorted tuples."""
    seen = {tuple(A) for A in family}
    frontier = list(seen)
    while frontier:
        images = {tuple(sorted(perm[list(A)].tolist()))
                  for A in frontier for perm in g.automorphisms}
        frontier = list(images - seen)
        seen |= images
    return sorted(seen)


@pytest.mark.parametrize("spec,alpha", CERTIFIED_FAMILY_CASES)
def test_family_statistics_match_on_the_orbit_closure(spec, alpha):
    g = wl.build_named(*spec)
    chain = srw_chain(g)
    family = candidate_small_sets(chain, alpha, graph=g)
    closure = orbit_closure(g, family)
    assert set(family) < set(closure)
    for t in range(1, 6):
        [on_family] = family_survivals([(chain.kernel, t)], family)
        [on_closure] = family_survivals([(chain.kernel, t)], closure)
        assert on_family.max() == pytest.approx(on_closure.max(), rel=0,
                                                abs=1e-15)
    for eps in (0.1, 0.25):
        assert hit_quantile(chain, alpha, eps, sets=family).time == \
            hit_quantile(chain, alpha, eps, sets=closure).time


def test_candidate_family_greedy_phase_is_exercised(monkeypatch, rr512):
    # the rr512 family outgrows its balls: the greedy phase stops on
    # MAX_GREEDY_SETS, and the Perron prefixes then add sets beyond the bound
    chain = srw_chain(rr512)
    fam = candidate_small_sets(chain, 0.25, graph=rr512)
    monkeypatch.setattr(hitting, "MAX_GREEDY_SETS", 10)
    small = candidate_small_sets(chain, 0.25, graph=rr512)
    assert len(fam) > 4096
    assert len(small) < len(fam)


def test_candidate_family_sequence(petersen, petersen_chain):
    fam = candidate_small_sets(petersen_chain, 0.25, graph=petersen)
    sets = list(fam)
    assert all(isinstance(s, tuple) and list(s) == sorted(s) for s in sets)
    assert all(isinstance(v, int) for s in sets for v in s)
    assert sorted(sets) == sorted(set(sets)) and len(set(sets)) == len(sets)
    assert fam[-1] == sets[-1] and fam[3] == sets[3]
    assert fam[1:7:2] == sets[1:7:2]
    assert sets[2] in fam
    with pytest.raises(IndexError):
        fam[len(fam)]
    for array in (fam.vertices, fam.start, fam.length):
        with pytest.raises(ValueError):
            array[0] = 1
    # set i is a range of the chains, in chain order, read back sorted
    assert [tuple(sorted(fam.vertices[a:a + b])) for a, b in
            zip(fam.start, fam.length)] == sets
    assert list(fam.length) == [len(s) for s in sets]
    # a family built directly records no chains: it is its own tops
    bare = CandidateFamily(fam.vertices.copy(), fam.start.copy(),
                           fam.length.copy())
    assert bare.tops is bare and list(bare) == sets


def test_run_suite_builds_the_family_once(monkeypatch, tmp_path):
    from walklab import chains, graphs, spectral
    from walklab.suites import ExperimentConfig, run_suite
    builds = []
    build = hitting.candidate_small_sets

    def counting(*args, **kwargs):
        builds.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(hitting, "candidate_small_sets", counting)
    calls = {}

    def record_calls(module, name):
        original = getattr(module, name)

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.setdefault(name, []).append((args, out))
            return out

        monkeypatch.setattr(module, name, recorded)

    for module, name in ((spectral, "spectrum"), (chains, "mixing_profile"),
                         (graphs, "inflate"), (chains, "srw_chain"),
                         (hitting, "_ball_solves")):
        record_calls(module, name)
    cfg = ExperimentConfig(graph={"kind": "random-regular", "n": 64, "d": 3,
                                  "seed": 8}, trials=200, seed=3,
                           out_dir=str(tmp_path / "rr64"))
    report, _ = run_suite(cfg)
    # spectral and hitting suites, the hit quantile and the escape
    # experiment all read the family
    assert any(r["name"] == "escape-decomposition" for r in report.records)
    assert builds == [cfg.alpha]
    # the mixing and hitting suites share one profile, the inflation and
    # walk suites one distance-k graph and chain
    for name in ("spectrum", "mixing_profile", "inflate"):
        assert len(calls[name]) == 1, name
    [(_, gk)] = calls["inflate"]
    assert sum(args[0] is gk for args, _ in calls["srw_chain"]) == 1
    # a random graph carries no automorphisms: every start, every center
    [(_, prof)] = calls["mixing_profile"]
    assert prof.starts == tuple(range(64))
    # the inflation suite, the escape experiment and the empirical Y-kernel
    # row share one solve per center: w_vs_k_report solves all 64 centers
    # in one block-diagonal batch, and the others read its rows
    [(_, rows)] = calls["_ball_solves"]
    assert [row[0] for row in rows] == list(range(64))

    # on a certified Cayley graph one start and one center stand for all
    calls.clear()
    cfg = ExperimentConfig(graph={"kind": "lps", "p": 17, "q": 13},
                           suites=("mixing", "inflation"),
                           out_dir=str(tmp_path / "lps"))
    report, _ = run_suite(cfg)
    assert report.all_passed
    [(_, prof)] = calls["mixing_profile"]
    assert prof.starts == (0,) and prof.exact_starts
    [(_, rows)] = calls["_ball_solves"]
    assert [row[0] for row in rows] == [0]


def test_family_passes_step_only_the_tops(monkeypatch, tmp_path, rr512):
    # the hitmix quantile and the escape experiment's SRW, W and K maxima
    # each step the tops' rows (70,132 on this graph), not the family's
    # (449,044); the halflog quantile skips, as lambda2 > 1/2 here
    from walklab.suites import ExperimentConfig, run_suite
    fam = candidate_small_sets(srw_chain(rr512), 0.25, graph=rr512)
    passes = []
    blocks = hitting._family_blocks

    def recording(kernels, sets):
        stepped = [len(sets), [0] * len(kernels)]
        passes.append(stepped)
        for piece in blocks(kernels, sets):
            stepped[1][piece[2]] += piece[3].shape[0]
            yield piece

    monkeypatch.setattr(hitting, "_family_blocks", recording)
    cfg = ExperimentConfig(graph={"kind": "random-regular", "n": 512, "d": 3,
                                  "seed": 2}, suites=("hitting", "walk"),
                           trials=200, seed=2, out_dir=str(tmp_path))
    report, _ = run_suite(cfg)
    assert any(r["name"] == "escape-decomposition" for r in report.records)
    # the family build ranks its 32 Perron balls of 320 vertices in one
    # pass, and the escape experiment's three maxima share one pass over
    # the layout
    family_passes = [rows for count, rows in passes if count > 1]
    top_rows = sum(map(len, fam.tops))
    assert family_passes == [[32 * 320], [top_rows], [top_rows] * 3]
    assert top_rows == 70_132 < sum(map(len, fam)) == 449_044


def test_one_suite_alone_solves_only_what_it_reads(monkeypatch, tmp_path):
    from walklab import spectral
    from walklab.suites import ExperimentConfig, build_graph, run_suite
    # every solved center builds one SphereHit, whichever batch it was
    # solved in
    solves = []
    made = hitting.SphereHit
    monkeypatch.setattr(hitting, "SphereHit", lambda **fields:
                        solves.append(fields["center"]) or made(**fields))
    spectra = []
    spectrum = spectral.spectrum
    monkeypatch.setattr(spectral, "spectrum",
                        lambda *args, **kwargs: spectra.append(args)
                        or spectrum(*args, **kwargs))
    graph = {"kind": "random-regular", "n": 64, "d": 3, "seed": 8}
    run_suite(ExperimentConfig(graph=graph, suites=("inflation",),
                               out_dir=str(tmp_path)))
    assert solves == list(range(64))
    # neither the inflation nor the tree suite reads the spectrum
    run_suite(ExperimentConfig(graph=graph, suites=("tree",),
                               out_dir=str(tmp_path)))
    assert spectra == []
    # the walk suite solves the member union of the family and the
    # Y-kernel anchor 0, each once; on the certified LPS(17,13) the family
    # is seeded at vertex 0 alone
    for spec in (graph, {"kind": "lps", "p": 17, "q": 13}):
        solves.clear()
        cfg = ExperimentConfig(graph=spec, suites=("walk",), trials=200,
                               seed=3, out_dir=str(tmp_path))
        run_suite(cfg)
        g = build_graph(spec)
        family = candidate_small_sets(srw_chain(g), cfg.alpha, graph=g)
        assert sorted(solves) == np.union1d(family.union(), [0]).tolist()
    # all six suites share one solve per center
    solves.clear()
    run_suite(ExperimentConfig(graph=graph, trials=200, seed=3,
                               out_dir=str(tmp_path)))
    assert solves == list(range(64))


def spy_ball_solves(monkeypatch):
    """Record the centers of every :func:`hitting._ball_solves` call."""
    calls = []
    solve = hitting._ball_solves

    def spy(table, pos):
        rows = solve(table, pos)
        calls.append([row[0] for row in rows])
        return rows

    monkeypatch.setattr(hitting, "_ball_solves", spy)
    return calls


def test_sphere_hits_solve_each_center_once(monkeypatch, petersen):
    solves = spy_ball_solves(monkeypatch)
    hits = hitting.SphereHits(petersen, 2)
    first = w_vs_k_report(hits)
    assert w_vs_k_report(hits) == first
    assert solves == [list(range(10))]
    assert [hit.center for hit in hits.solve([3, 9, 0])] == [3, 9, 0]
    assert hits[3] is hits[3] and len(solves) == 1
    # none asked, none solved; rows come back in the order asked
    solves.clear()
    hits = hitting.SphereHits(petersen, 2)
    assert hits.solve([]) == [] and solves == [] and len(hits) == 0
    rows = hits.solve([7, 2, 7, 5, 2])
    assert [hit.center for hit in rows] == [7, 2, 7, 5, 2]
    assert rows[0] is rows[2] and rows[1] is rows[4]
    assert solves == [[2, 5, 7]]


class CallSites(ast.NodeVisitor):
    """The dotted scope (module, classes, functions) of every call of
    ``name``, by name or as an attribute."""

    def __init__(self, module, name):
        self.scope, self.sites, self.name = [module], [], name

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

    def visit_Call(self, node):
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) == self.name:
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


def test_only_sphere_hits_solves_a_ball():
    # W is read through the run's SphereHits alone, so each ball is solved
    # once per run; a second caller would solve its balls again.  Every
    # LU goes through the one block-diagonal solve.
    def sites(name):
        found = []
        for path in sorted(
                pathlib.Path(hitting.__file__).parent.glob("*.py")):
            finder = CallSites(path.stem, name)
            finder.visit(ast.parse(path.read_text(encoding="utf-8")))
            found += finder.sites
        return found

    assert sites("splu") == ["hitting._ball_solves"]
    assert sites("_ball_solves") == ["hitting.SphereHits.solve"]


# -- rows do not depend on the batch -----------------------------------------

def _uncertified_lps():
    g = wl.build_lps(13, 17)
    return wl.make_graph(g.n, np.array(g.edges), g.provenance)


BATCH_CASES = {
    "rr512-2": (lambda: wl.build_random_regular(512, 3, 2), 2),
    "rr512-3": (lambda: wl.build_random_regular(512, 3, 2), 3),
    "rr2048-3": (lambda: wl.build_random_regular(2048, 3, 2), 3),
    "prism-2": (lambda: wl.build_named("prism"), 2),
    "petersen-2": (lambda: wl.build_named("petersen"), 2),
    "lps13_17-2": (_uncertified_lps, 2),
}


def row_bits(g, k, batched):
    """(probabilities bytes, expected time, excess) of every center's
    SphereHit: from one ``SphereHits.solve`` over all centers when
    ``batched``, else each from a SphereHits of its own."""
    hits = (SphereHits(g, k).solve(range(g.n)) if batched
            else [SphereHits(g, k)[v] for v in range(g.n)])
    return [(h.probabilities.tobytes(), h.expected_time, h.excess)
            for h in hits]


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_rows_do_not_depend_on_the_batch(monkeypatch, case):
    # a walk-only run solves row 0 alone and an all-suite run solves it
    # with every center: both must write the same bits
    build, k = BATCH_CASES[case]
    g = build()
    # graphs._ball_edges would look up every sphere vertex's neighbors
    # too: the solve counts each excess off its own moves
    edges, shaped = graphs._ball_edges, []
    monkeypatch.setattr(graphs, "_ball_edges",
                        lambda *args: shaped.append(args) or edges(*args))
    alone = row_bits(g, k, batched=False)
    assert row_bits(g, k, batched=True) == alone
    # many batches: whole balls within 16 * 5 // d keys, one or a few each
    monkeypatch.setattr(graphs, "FAMILY_CHUNK_ROWS", 5)
    assert row_bits(g, k, batched=True) == alone
    assert shaped == []


def test_colamd_rows_depend_on_the_batch(monkeypatch):
    # the mutant that drops the natural ordering: SuperLU's COLAMD mixes
    # the blocks, and the batch test above fails
    import scipy.sparse.linalg as spla
    g, k = BATCH_CASES["rr512-3"][0](), 3
    monkeypatch.setattr(hitting, "spla", type("Colamd", (), {
        "splu": staticmethod(lambda a, **kwargs: spla.splu(a))}))
    assert row_bits(g, k, batched=True) != row_bits(g, k, batched=False)


def test_sphere_hit_batches_stay_within_the_chunk_budget(monkeypatch):
    # at 1024 rows a batch takes at most 16 * 1024 // 14 = 1170 keys, five
    # radius-2 balls of 197 keys with 14 neighbors each; beyond the rows
    # it returns, the solve holds at most 8 int64 arrays of 16 * 1024
    # entries (measured: 0.1 MB).  All 2448 balls in one batch would build
    # 514k moves out of their 36,720 interior keys (measured: 25 MB).
    g = _uncertified_lps()
    ball_table(g, 2)            # the table is the graph's, built once
    monkeypatch.setattr(graphs, "FAMILY_CHUNK_ROWS", 1024)
    hits = SphereHits(g, 2)
    tracemalloc.start()
    try:
        rows = hits.solve(range(g.n))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [hit.center for hit in rows] == list(range(g.n))
    assert peak - held <= 8 * 16 * graphs.FAMILY_CHUNK_ROWS * 8


def test_empty_spheres_raise_before_any_batch_is_solved(monkeypatch,
                                                        petersen):
    # Petersen on 0..9, where every 2-sphere has 6 vertices, then K4 on
    # 10..13, where none has any; one ball per batch
    edges = list(petersen.edges) + [(a, b) for a in range(10, 14)
                                    for b in range(a + 1, 14)]
    g = wl.make_graph(14, edges)
    monkeypatch.setattr(graphs, "FAMILY_CHUNK_ROWS", 1)
    assert [len(b) for b in ball_table(g, 2).batches(range(14))] == [1] * 14
    solves = spy_ball_solves(monkeypatch)
    hits = SphereHits(g, 2)
    with pytest.raises(HittingError, match="^sphere of radius 2 around 10 "
                                          "is empty$"):
        hits.solve(range(14))
    assert solves == [] and len(hits) == 0
    assert [hit.center for hit in hits.solve(range(10))] == list(range(10))
    assert solves == [[v] for v in range(10)]


# -- families packed from plain sequences -------------------------------------

def test_a_list_reads_as_the_family_packed_from_it(cubic_family):
    chain, fam = cubic_family
    sets = list(fam)[::-3]              # not in lexicographic order
    packed = CandidateFamily.of(sets)
    assert list(packed) == sets and packed[1:3] == sets[1:3]
    assert packed.tops is packed
    assert CandidateFamily.of(packed) is packed
    assert CandidateFamily.of(fam) is fam and fam.tops is not fam
    assert len(CandidateFamily.of([])) == 0
    runs = [(chain.kernel, 7), (two_step_kernel(chain), 3)]
    for on_list, on_packed in zip(family_survivals(runs, sets),
                                  family_survivals(runs, packed)):
        assert np.array_equal(on_list, on_packed)
    for eps in (0.05, 0.25):
        assert hit_quantile(chain, 0.1, eps, sets=sets) == \
            hit_quantile(chain, 0.1, eps, sets=packed)


def test_worst_set_is_a_tuple_whatever_the_input(petersen_chain):
    exact = hit_quantile(petersen_chain, 0.3, 0.02)
    sets = exact_family(petersen_chain, 0.3)
    for given in (sets, [list(s) for s in sets],
                  [np.array(s) for s in sets], CandidateFamily.of(sets)):
        hq = hit_quantile(petersen_chain, 0.3, 0.02, sets=given)
        assert type(hq.worst_set) is tuple
        assert (hq.time, hq.worst_set, hq.worst_start) == \
            (exact.time, exact.worst_set, exact.worst_start)
    assert type(exact.worst_set) is tuple
    # an (m, s) int array of sets reads as the list of its rows
    triples = [s for s in sets if len(s) == 3]
    on_list, on_array = (hit_quantile(petersen_chain, 0.3, 0.02, sets=given)
                         for given in (triples, np.array(triples)))
    assert type(on_array.worst_set) is tuple
    assert (on_array.time, on_array.worst_set, on_array.worst_start) == \
        (on_list.time, on_list.worst_set, on_list.worst_start)


# -- sphere hits against the column-solve reference ---------------------------

def reference_ball_system(g, v, k):
    """Reference: the BFS ball and its absorbing system built entry by
    entry.  Returns (interior, sphere, I - P_int, P_bd, position of v)."""
    import scipy.sparse as sp
    from walklab.graphs import bfs_distances
    dist = bfs_distances(g, v, cutoff=k)
    sphere = np.flatnonzero(dist == k)
    interior = np.flatnonzero((dist >= 0) & (dist < k))
    pos_int = {int(u): i for i, u in enumerate(interior)}
    pos_sph = {int(u): i for i, u in enumerate(sphere)}
    rows_i, cols_i, vals_i = [], [], []
    rows_b, cols_b, vals_b = [], [], []
    for i, u in enumerate(interior):
        w_step = 1.0 / g.degree(int(u))
        for w in g.adjacency[int(u)]:
            if w in pos_int:
                rows_i.append(i), cols_i.append(pos_int[w]), vals_i.append(w_step)
            else:
                rows_b.append(i), cols_b.append(pos_sph[w]), vals_b.append(w_step)
    m = len(interior)
    p_ii = sp.csr_matrix((vals_i, (rows_i, cols_i)), shape=(m, m))
    p_ib = sp.csr_matrix((vals_b, (rows_b, cols_b)), shape=(m, len(sphere)))
    system = sp.identity(m, format="csc") - p_ii.tocsc()
    return interior, sphere, system, p_ib, pos_int[v]


def reference_sphere_hit(g, v, k):
    """Reference: every column of (I - P_int)^{-1} P_bd solved, row v read
    off.  Returns (sphere, row)."""
    import scipy.sparse.linalg as spla
    _, sphere, system, p_ib, at = reference_ball_system(g, v, k)
    lu = spla.splu(system)
    rhs = p_ib.toarray()
    h = np.column_stack([lu.solve(rhs[:, j]) for j in range(rhs.shape[1])])
    return tuple(int(u) for u in sphere), h[at]


SPHERE_CASES = [("petersen", 1), ("petersen", 2), ("prism", 2), ("q3", 2),
                ("girth5_graph", 2), ("random_cubic_medium", 2),
                ("random_cubic_medium", 3), ("rr512", 4)]


@pytest.mark.parametrize("name,k", SPHERE_CASES)
def test_sphere_hit_matches_column_solve(request, name, k):
    g = request.getfixturevalue(name)
    hits = SphereHits(g, k)
    centers = range(0, g.n, max(1, g.n // 24))
    hits.solve(centers)
    for v in centers:
        hit = hits[v]
        sphere, row = reference_sphere_hit(g, v, k)
        assert hit.sphere == sphere
        assert np.max(np.abs(hit.probabilities - row)) <= 1e-15
        assert hit.excess == reference_excess(g, v, k)


def test_expected_hit_time_matches_reference_system(nonregular):
    # degrees 1..4: the system's columns carry the neighbors' own 1/deg.
    # SphereHits needs a regular graph for its lower bound, so the solve
    # that gives SphereHit.expected_time and .excess is called directly.
    import scipy.sparse.linalg as spla
    from walklab.graphs import ball_table
    for k in (1, 2, 3):
        table = ball_table(nonregular, k)
        for v in range(0, nonregular.n, 3):
            interior, _, system, _, at = reference_ball_system(
                nonregular, v, k)
            ref = spla.splu(system).solve(np.ones(len(interior)))[at]
            [(_, _, _, time, excess)] = hitting._ball_solves(
                table, table.positions([v]))
            assert abs(time - ref) <= 1e-12 * ref
            assert excess == reference_excess(nonregular, v, k)


# -- the survival / Perron suite ---------------------------------------------

def test_verify_spectral_hit_k4_pair(k4_chain):
    rep = verify_spectral_hit(k4_chain, [0, 1], [0, 1, 2, 5])
    assert abs(rep.lambda_A - 1 / 3) < 1e-12
    assert rep.all_passed
    # right inequality is an equality here: the all-ones vector is the
    # Perron vector of the restriction
    for check in rep.survival_checks:
        if check.name.startswith("norm-le-perron"):
            assert abs(check.lhs - check.rhs) < 1e-12
    # t = 2 record: (1/2) 3^-4 <= 3^-4 <= 3^-4
    at2 = [c for c in rep.survival_checks if c.name.endswith("t=2")]
    assert abs(at2[0].lhs - 0.5 * 3.0 ** -4) < 1e-15
    # lambda2(K4) < 0, so the half-log quantile bound is skipped
    check = quantile_halflog_check(k4_chain, 0.3, spectrum(k4_chain).lambda2)
    assert check.passed is None
    assert "lambda2" in check.note


def test_verify_spectral_hit_random_pairs():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(31)))
    for _ in range(10):
        n = int(rng.integers(6, 16)) * 2
        g = wl.build_random_regular(n, 3, seed=int(rng.integers(1 << 30)))
        chain = srw_chain(g)
        size = int(rng.integers(2, max(3, n // 2)))
        subset = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
        rep = verify_spectral_hit(chain, subset, list(range(0, 30, 3)))
        assert rep.all_passed, (n, subset)


def test_quantile_halflog_petersen(petersen_chain):
    s = spectrum(petersen_chain)
    check = quantile_halflog_check(petersen_chain, 0.25, s.lambda2)
    # survival of the worst pair after 1 step is 1/3 <= sqrt(0.25)
    assert check.lhs == 1
    assert abs(check.rhs - 0.5 * math.log(10) / math.log(1.5)) < 1e-12
    assert check.passed


def test_quantile_halflog_requires_alpha_below_lambda2(petersen_chain):
    s = spectrum(petersen_chain)
    check = quantile_halflog_check(petersen_chain, 0.4, s.lambda2)
    assert check.passed is None
    assert "alpha" in check.note


def test_hitmix_record_is_informational(petersen_chain):
    s = spectrum(petersen_chain)
    prof = mixing_profile(petersen_chain, [0.1, 0.25])
    rec = hitmix_constant_record(petersen_chain, 0.25, 0.25, s.t_rel, prof)
    assert rec.passed is None
    assert isinstance(rec.lhs, float)
    # tmix(eps+alpha) read off the shared profile equals its own profile's
    tmix = mixing_profile(petersen_chain, [0.5]).mixing_times[0.5]
    assert rec.note.startswith(f"tmix(0.5)={tmix}, ")


def test_hitmix_record_needs_a_long_enough_profile(petersen_chain):
    s = spectrum(petersen_chain)
    prof = mixing_profile(petersen_chain, [0.5])
    assert prof.tv_curve[-1] > 0.25
    with pytest.raises(HittingError, match="profile stops above"):
        hitmix_constant_record(petersen_chain, 0.1, 0.15, s.t_rel, prof)


# -- sphere hitting -----------------------------------------------------------

def test_sphere_hit_k4_one_step(k4):
    hit = SphereHits(k4, 1)[0]
    assert np.allclose(hit.probabilities, 1 / 3)
    assert math.isclose(hit.c_hat, 1.0)
    assert hit.lower_bound_pass


def test_sphere_hit_petersen_uniform(petersen):
    hit = SphereHits(petersen, 2)[0]
    assert len(hit.sphere) == 6
    assert np.allclose(hit.probabilities, 1 / 6, atol=1e-12)
    assert math.isclose(hit.lower_bound, 1 / 6)
    assert hit.excess == 0
    assert abs(hit.total - 1.0) < 1e-10


def test_sphere_hit_prism(prism):
    hit = SphereHits(prism, 2)[0]
    assert len(hit.sphere) == 2
    assert np.allclose(hit.probabilities, 0.5, atol=1e-12)
    assert math.isclose(hit.c_hat, 3.0, abs_tol=1e-10)
    assert hit.excess > 0
    assert hit.lower_bound_pass


def test_sphere_hit_monte_carlo_agreement(prism):
    # independent check: simulate first exits and compare within 4 SE
    from walklab.walks import make_rng, sample_first_regenerations
    hit = SphereHits(prism, 2)[0]
    trials = 100_000
    _, landings = sample_first_regenerations(prism, 0, 2, trials,
                                             make_rng(11, 0))
    for u, p in zip(hit.sphere, hit.probabilities):
        freq = float(np.mean(landings == u))
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(freq - p) <= 4 * se


def test_sphere_hit_empty_sphere(k4):
    with pytest.raises(HittingError, match="^sphere of radius 2 around 0 "
                                          "is empty$"):
        SphereHits(k4, 2)[0]


@pytest.mark.parametrize("solve", [
    lambda g, v, k: SphereHits(g, k).solve([0, v]),
    lambda g, v, k: SphereHits(g, k)[v]],
    ids=["SphereHits.solve", "SphereHits"])
@pytest.mark.parametrize("v", [10, -1])
def test_ball_solves_reject_out_of_range_centers(petersen, solve, v):
    # the ball table has no pair for such a center: an empty sphere
    with pytest.raises(GraphError, match=f"^vertex {v} out of range"):
        solve(petersen, v, 2)


def test_sphere_hit_lower_bound_everywhere(girth5_graph, prism, petersen):
    for g, k in ((girth5_graph, 2), (prism, 2), (petersen, 2), (petersen, 1)):
        for v in range(0, g.n, max(1, g.n // 16)):
            hit = SphereHits(g, k)[v]
            assert hit.lower_bound_pass
            assert abs(hit.total - 1.0) < 1e-10


def test_expected_hit_time_petersen(petersen):
    assert abs(SphereHits(petersen, 2)[0].expected_time - 3.0) < 1e-12


def test_expected_hit_time_tree_formula(girth5_graph):
    # on a tree ball the expectation solves the biased birth-death chain
    from walklab.tree import level_hitting_time
    assert abs(SphereHits(girth5_graph, 2)[5].expected_time
               - level_hitting_time(3, 2)) < 1e-12


def reference_excess(g, v, k):
    """Reference: the edges with an endpoint at distance < k from v, less
    the ball size, plus one, from a loop over every edge of g."""
    from walklab.graphs import bfs_distances
    dist = bfs_distances(g, v)
    ball = (dist >= 0) & (dist <= k)
    relevant = sum(1 for a, b in g.edges
                   if ball[a] and ball[b] and min(dist[a], dist[b]) < k)
    return relevant - int(ball.sum()) + 1


@pytest.mark.parametrize("case, k, defects", [
    ("rr512", 2, 15), ("rr512", 3, 75), ("rr2048", 2, 26),
    ("girth5_graph", 2, 0)])
def test_tree_balls_take_the_level_hitting_time(request, case, k, defects):
    # E_v[T] on a tree ball of a 3-regular graph is the level chain's;
    # the defect set, the centers whose ball is not a tree, sizes as in
    # the distance-k spectrum account
    from walklab.tree import level_hitting_time
    g = (wl.build_random_regular(2048, 3, 3) if case == "rr2048"
         else request.getfixturevalue(case))
    hits = SphereHits(g, k).solve(range(g.n))
    tree = [h for h in hits if h.excess == 0]
    assert len(hits) - len(tree) == defects
    for h in hits[::max(1, g.n // 64)]:
        assert h.excess == reference_excess(g, h.center, k)
    level = level_hitting_time(3, k)
    assert max(abs(h.expected_time - level) for h in tree) <= 1e-10


# -- W against K --------------------------------------------------------------

def test_w_vs_k_petersen(petersen):
    rep = w_vs_k_report(SphereHits(petersen, 2))
    assert abs(rep.ratio_min - 1.0) < 1e-10
    assert abs(rep.ratio_max - 1.0) < 1e-10
    assert rep.k_scaled_min >= 1.0 - 1e-12
    assert rep.all_passed
    assert rep.c_hat_by_excess() == {0: pytest.approx(1.0)}


def test_w_vs_k_prism(prism):
    rep = w_vs_k_report(SphereHits(prism, 2))
    assert abs(rep.ratio_min - 1.0) < 1e-10   # W = K = 1/2 by symmetry
    assert abs(rep.ratio_max - 1.0) < 1e-10
    assert math.isclose(rep.k_scaled_min, 3.0)
    assert math.isclose(rep.k_scaled_max, 3.0)
    assert rep.all_passed


def test_w_vs_k_high_girth(girth5_graph):
    rep = w_vs_k_report(SphereHits(girth5_graph, 2))
    assert abs(rep.ratio_min - 1.0) < 1e-10
    assert abs(rep.ratio_max - 1.0) < 1e-10
    assert abs(rep.k_scaled_min - 1.0) < 1e-12


@pytest.mark.parametrize("pq", [(5, 13), (13, 17)])
def test_w_vs_k_one_center_matches_all_centers(monkeypatch, pq):
    g = wl.build_lps(*pq)
    plain = wl.make_graph(g.n, np.array(g.edges), g.provenance)
    ref = w_vs_k_report(SphereHits(plain, 2))
    solves = spy_ball_solves(monkeypatch)
    rep = w_vs_k_report(SphereHits(g, 2))
    assert solves == [[0]]
    assert len(rep.per_center) == len(ref.per_center) == g.n
    for got, want in zip(rep.per_center, ref.per_center):
        assert got[:3] == want[:3]
        assert np.allclose(got[3:], want[3:], rtol=0, atol=1e-12)
    fields = ("ratio_min", "ratio_max", "k_scaled_min", "k_scaled_max",
              "w_scaled_min")
    assert np.allclose([getattr(rep, f) for f in fields],
                       [getattr(ref, f) for f in fields], rtol=0, atol=1e-12)
    assert [c.passed for c in rep.checks] == [c.passed for c in ref.checks]


def reference_w_vs_k_loop(hits):
    """Frozen copy of the report's loop as first written: every center of
    a certified graph re-reads center 0's row and recomputes its ratios."""
    g, k = hits.g, hits.k
    d = g.regular_degree
    scale = d * (d - 1) ** (k - 1)
    ratio_min = k_min = w_min = math.inf
    ratio_max = k_max = -math.inf
    per_center = []
    for x in range(g.n):
        hit = hits[0]
        deg_k = len(hit.sphere)
        k_val = scale / deg_k
        k_min, k_max = min(k_min, k_val), max(k_max, k_val)
        ratios = hit.probabilities * deg_k
        ratio_min = min(ratio_min, float(ratios.min()))
        ratio_max = max(ratio_max, float(ratios.max()))
        w_min = min(w_min, hit.min_prob * scale)
        per_center.append((x, hit.excess, deg_k,
                           hit.min_prob, hit.max_prob, hit.c_hat))
    return ratio_min, ratio_max, k_min, k_max, w_min, tuple(per_center)


@pytest.mark.parametrize("build", [lambda: wl.build_lps(13, 17),
                                   lambda: wl.build_lps(17, 13),
                                   lambda: wl.build_named("hypercube", 4)],
                         ids=["lps13_17", "lps17_13", "q4"])
def test_w_vs_k_reads_one_row_on_a_certified_graph(build):
    g = build()
    hits = SphereHits(g, 2)
    rep = w_vs_k_report(hits)
    assert list(hits) == [0]
    assert (rep.ratio_min, rep.ratio_max, rep.k_scaled_min, rep.k_scaled_max,
            rep.w_scaled_min, rep.per_center) == reference_w_vs_k_loop(hits)


def test_uncertified_graphs_take_every_start_and_center(
        monkeypatch, tmp_path, random_cubic_medium):
    g = wl.build_lps(17, 13)
    path = tmp_path / "lps.txt"
    wl.write_edge_list(g, path)
    perm = np.random.Generator(np.random.Philox(key=np.uint64(5))) \
        .permutation(g.n)
    relabelled = wl.make_graph(g.n, perm[np.array(g.edges)], g.provenance)
    solves = spy_ball_solves(monkeypatch)
    for plain in (random_cubic_medium, wl.read_edge_list(path), relabelled):
        chain = srw_chain(plain)
        assert not chain.transitive
        assert mixing_profile(chain, [0.25]).starts == tuple(range(plain.n))
        solves.clear()
        w_vs_k_report(SphereHits(plain, 2))
        assert sum(solves, []) == list(range(plain.n))


def test_middle_term_two_ways(petersen_chain):
    rep = verify_spectral_hit(petersen_chain, [0, 1, 2, 5], [0, 1, 3, 7])
    for check in rep.middle_consistency:
        assert check.passed
