import hashlib
import math
import warnings
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

import walklab as wl
from walklab import graphs
from walklab.chains import (APERIODIC, BIPARTITE_PERIODIC, chain_from_kernel,
                            srw_chain)
from walklab.graphs import (GraphError, GraphFileError, ball_table,
                            bfs_distances, connected_components,
                            count_simple_cycles, cyclic_automorphism,
                            is_bipartite, is_connected, vertex_transitive)


# -- exhaustive-search oracles ------------------------------------------------

def brute_girth(g):
    """Shortest cycle by enumerating the whole cycle space."""
    best = math.inf
    edges = list(g.edges)
    n_edges = len(edges)
    # every simple cycle is an XOR of fundamental cycles; reuse the
    # library's enumeration only through raw subsets here
    import itertools
    for size in range(3, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            sub = [e for e in edges if e[0] in combo and e[1] in combo]
            if len(sub) != size:
                continue
            deg = {}
            for u, v in sub:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if set(deg) == set(combo) and all(d == 2 for d in deg.values()):
                if is_connected_subset(sub, combo):
                    return size
    return best


def is_connected_subset(sub_edges, vertices):
    vs = set(vertices)
    adj = {v: [] for v in vs}
    for u, v in sub_edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {next(iter(vs))}
    stack = [next(iter(vs))]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def reference_count_simple_cycles(edges):
    """The Gray-code counter that the 2-core counter replaced: every
    nonempty XOR of fundamental cycles is tested with a degree table over
    all its edges and a BFS.  ``edges`` must be (min, max) pairs."""
    edges = [tuple(e) for e in edges]
    if not edges:
        return 0
    vertices = sorted({u for e in edges for u in e})
    index = {e: i for i, e in enumerate(edges)}
    adj = {u: [] for u in vertices}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)

    # spanning forest for fundamental cycles
    parent_edge = {}
    visited = set()
    tree_edges = set()
    for root in vertices:
        if root in visited:
            continue
        visited.add(root)
        parent_edge[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in visited:
                    visited.add(w)
                    e = (min(u, w), max(u, w))
                    parent_edge[w] = (u, e)
                    tree_edges.add(e)
                    queue.append(w)

    def path_to_root(u):
        mask = 0
        while parent_edge[u] is not None:
            up, e = parent_edge[u]
            mask ^= 1 << index[e]
            u = up
        return mask

    basis = []
    for e in edges:
        if e not in tree_edges:
            u, w = e
            mask = path_to_root(u) ^ path_to_root(w) ^ (1 << index[e])
            basis.append(mask)

    rank = len(basis)
    if rank == 0:
        return 0
    endpoints = edges
    count = 0
    mask = 0
    # Gray-code walk over all nonempty subsets of the basis.
    for step in range(1, 1 << rank):
        mask ^= basis[(step & -step).bit_length() - 1]
        if mask == 0:
            continue
        deg = {}
        sel = mask
        while sel:
            i = (sel & -sel).bit_length() - 1
            sel &= sel - 1
            u, w = endpoints[i]
            deg[u] = deg.get(u, 0) + 1
            deg[w] = deg.get(w, 0) + 1
        # a disjoint union of cycles has all degrees 2; a single cycle is
        # also connected
        if all(dcount == 2 for dcount in deg.values()):
            start = next(iter(deg))
            seen = {start}
            queue = deque([start])
            sel = mask
            inc = {u: [] for u in deg}
            while sel:
                i = (sel & -sel).bit_length() - 1
                sel &= sel - 1
                u, w = endpoints[i]
                inc[u].append(w)
                inc[w].append(u)
            while queue:
                u = queue.popleft()
                for w in inc[u]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            if len(seen) == len(deg):
                count += 1
    return count


# -- named builders -----------------------------------------------------------

def test_complete_graph(k4):
    assert k4.n == 4
    assert k4.m == 6
    assert k4.is_regular and k4.regular_degree == 3


def test_petersen(petersen):
    assert petersen.n == 10
    assert petersen.m == 15
    assert petersen.is_regular and petersen.regular_degree == 3


def test_hypercube_bipartite(q3):
    assert q3.n == 8
    assert q3.is_regular and q3.regular_degree == 3
    assert is_bipartite(q3)


def test_prism(prism):
    assert prism.n == 6 and prism.m == 9
    assert prism.is_regular and prism.regular_degree == 3


def test_unknown_name_rejected():
    with pytest.raises(GraphError):
        wl.build_named("moebius")
    with pytest.raises(GraphError):
        wl.build_named("complete", 1)


def test_make_graph_rejects_loops_and_parallels():
    with pytest.raises(GraphError):
        wl.make_graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        wl.make_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        wl.make_graph(2, [(0, 5)])


# -- random regular -----------------------------------------------------------

def test_random_regular_basic():
    g = wl.build_random_regular(10, 3, seed=4)
    assert g.m == 15  # handshake: n d / 2
    assert g.is_regular and g.regular_degree == 3


def test_random_regular_forced_k4():
    g = wl.build_random_regular(4, 3, seed=0)
    assert sorted(g.edges) == sorted(wl.build_named("complete", 4).edges)


def test_random_regular_parity_error():
    with pytest.raises(GraphError, match="even"):
        wl.build_random_regular(5, 3, seed=0)


def test_random_regular_deterministic():
    a = wl.build_random_regular(60, 3, seed=123)
    b = wl.build_random_regular(60, 3, seed=123)
    assert a.edges == b.edges
    c = wl.build_random_regular(60, 3, seed=124)
    assert c.edges != a.edges


def reference_random_regular(n, d, seed):
    """``(pairs, attempts)`` of the pairing model as first written: a
    parallel edge found by counting the distinct keys with ``np.unique``."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    stubs = np.repeat(np.arange(n), d)
    for attempt in range(1, 10 * n + 1):
        pairs = rng.permutation(stubs).reshape(-1, 2)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        keys = lo.astype(np.int64) * n + hi
        if np.all(lo != hi) and len(np.unique(keys)) == len(keys):
            return pairs, attempt
    raise AssertionError("no simple pairing")


@pytest.mark.parametrize("n, d, seed", [
    (10, 3, 4), (60, 3, 123), (200, 4, 7), (20_000, 3, 5)])
def test_random_regular_matches_the_unique_key_oracle(n, d, seed):
    # the sorted keys reject the same pairings; rr20000 takes 29 attempts
    pairs, attempts = reference_random_regular(n, d, seed)
    g = wl.build_random_regular(n, d, seed)
    assert g.provenance["attempts"] == attempts
    assert g == wl.make_graph(n, pairs)
    assert attempts == 29 or n < 20_000


def test_high_girth_regular():
    g = wl.build_high_girth_regular(300, 3, 6, seed=5)
    assert g.is_regular and g.regular_degree == 3
    assert wl.girth(g) >= 6


# -- girth --------------------------------------------------------------------

def test_girth_fixtures(k4, petersen, c6, q3):
    assert wl.girth(k4) == 3
    assert wl.girth(c6) == 6
    assert wl.girth(q3) == 4
    assert wl.girth(petersen) == 5


def test_girth_matches_exhaustive_oracle(petersen):
    assert brute_girth(petersen) == 5


def test_girth_tree_sentinel():
    tree = wl.make_graph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    assert wl.girth(tree) == wl.INFINITE_GIRTH


K33 = [(a, b) for a in range(3) for b in range(3, 6)]


def test_simple_cycle_counts():
    # K4: four triangles + three 4-cycles
    assert count_simple_cycles(wl.build_named("complete", 4).edges) == 7
    # Petersen: 12 + 10 + 15 + 20 cycles of lengths 5,6,8,9
    assert count_simple_cycles(wl.build_named("petersen").edges) == 57
    assert count_simple_cycles(wl.build_named("cycle", 6).edges) == 1
    assert count_simple_cycles([(0, 1), (1, 2)]) == 0
    assert count_simple_cycles([]) == 0
    assert count_simple_cycles(wl.build_named("complete", 5).edges) == 37
    assert count_simple_cycles(K33) == 15
    assert count_simple_cycles(wl.build_named("hypercube", 3).edges) == 28
    # Q4: cycle rank 17
    assert count_simple_cycles(wl.build_named("hypercube", 4).edges) == 14704


def test_count_simple_cycles_input_handling():
    assert count_simple_cycles([(0, 1), (1, 2), (2, 0)]) == 1
    assert count_simple_cycles([("b", "a"), ("c", "b"), ("a", "c")]) == 1
    # errors name the edge as given, not relabelled to 0..V-1
    for edges, message in [([(0, 1), (1, 0)], "repeated edge (1,0)"),
                           ([(0, 0)], "self-loop at vertex 0"),
                           ([(10, 12), (12, 30), (30, 12)],
                            "repeated edge (30,12)"),
                           ([(10, 12), (12, 12)], "self-loop at vertex 12")]:
        with pytest.raises(GraphError) as err:
            count_simple_cycles(edges)
        assert str(err.value) == message


# 2-core and degree-2 path cases: (edges, simple cycles)
CONTRACTION_CASES = {
    # two triangles sharing a degree-4 vertex
    "bowtie": ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)], 2),
    # a triangle on a two-edge tail, and a pendant edge on the triangle
    "lollipop": ([(4, 3), (3, 2), (2, 0), (0, 1), (1, 2), (1, 5)], 1),
    # three paths of lengths 1, 2 and 3 between vertices 0 and 1
    "theta": ([(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)], 3),
    # a 4-ring, a 5-ring and a theta, disjoint, labels interleaved
    "rings+theta": ([(0, 3), (3, 6), (6, 9), (9, 0),
                     (1, 4), (4, 7), (7, 10), (10, 13), (13, 1),
                     (2, 5), (5, 8), (2, 11), (11, 8), (2, 14), (14, 8)],
                    5),
    # a 6-cycle with the chord (0, 3)
    "chorded-c6": ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)],
                   3),
}


@pytest.mark.parametrize("name", sorted(CONTRACTION_CASES))
def test_count_simple_cycles_contraction_cases(name):
    edges, cycles = CONTRACTION_CASES[name]
    assert count_simple_cycles(edges) == cycles
    assert reference_count_simple_cycles([tuple(sorted(e))
                                          for e in edges]) == cycles


def test_count_simple_cycles_matches_reference_on_named_graphs():
    graphs = [wl.build_named("complete", n).edges for n in (4, 5, 6)]
    graphs += [wl.build_named(name).edges for name in ("petersen", "prism")]
    graphs += [wl.build_named("hypercube", 3).edges, K33]
    for edges in graphs:
        assert count_simple_cycles(edges) == \
            reference_count_simple_cycles(edges)
        assert count_simple_cycles(reversed([e[::-1] for e in edges])) == \
            reference_count_simple_cycles(edges)


def test_count_simple_cycles_matches_reference_on_rr512_balls():
    # every radius-5 ball of the n=512 graph has cycle rank <= 12
    g = wl.build_random_regular(512, 3, 2)
    ranks = []
    for v in range(g.n):
        dist = bfs_distances(g, v, cutoff=5)
        ball = np.flatnonzero(dist >= 0)
        slot, w = g.expand(ball)
        u = ball[slot]
        keep = (u < w) & (dist[w] >= 0)
        edges = list(zip(u[keep].tolist(), w[keep].tolist()))
        ranks.append(len(edges) - len(ball) + 1)
        assert count_simple_cycles(edges) == \
            reference_count_simple_cycles(edges)
    assert max(ranks) == 12


def test_assumption1_scan_counts_random_regular_balls_at_radius_5():
    rep = wl.assumption1_scan(wl.build_random_regular(512, 3, 2), 5)
    assert (rep.max_cycle_rank, rep.max_simple_cycle_count) == (12, 2118)
    assert rep.all_counts_exact
    rep = wl.assumption1_scan(wl.build_random_regular(2000, 3, 4), 5)
    assert (rep.max_cycle_rank, rep.max_simple_cycle_count) == (5, 28)


def test_assumption1_scan_petersen(petersen):
    rep = wl.assumption1_scan(petersen, 2)
    assert rep.max_excess == 0
    assert rep.max_cycle_rank == 6        # 15 - 10 + 1 on the full ball
    assert rep.max_simple_cycle_bound == 63
    assert rep.max_simple_cycle_count == 57


def test_assumption1_scan_c6(c6):
    rep = wl.assumption1_scan(c6, 3)
    assert rep.max_excess == 1


def test_assumption1_scan_tree_like():
    g = wl.build_high_girth_regular(1000, 3, 8, seed=3)
    rep = wl.assumption1_scan(g, 3)
    assert rep.max_excess == 0
    assert rep.max_simple_cycle_count == 0


def reference_assumption1_scan(g, r):
    """The per-center scan: each ball from a full-graph BFS, its edges
    from the CSR rows, maxima over the centers one at a time."""
    max_excess = max_rank = max_count = 0
    exact = True
    for v in [0] if wl.vertex_transitive(g) else range(g.n):
        dist = bfs_distances(g, v, cutoff=r)
        ball = np.flatnonzero(dist >= 0)
        slot, w = g.expand(ball)
        u = ball[slot]
        keep = (u < w) & (dist[w] >= 0)
        u, w = u[keep], w[keep]
        relevant = int(np.count_nonzero((dist[u] < r) | (dist[w] < r)))
        rank = len(u) - len(ball) + 1
        max_excess = max(max_excess, relevant - len(ball) + 1)
        max_rank = max(max_rank, rank)
        if rank > graphs.CYCLE_RANK_BUDGET:
            exact = False
        elif rank > 0:
            count = count_simple_cycles(list(zip(u.tolist(), w.tolist())))
            max_count = max(max_count, count)
    return wl.Assumption1Report(
        radius=r, max_excess=max_excess, max_cycle_rank=max_rank,
        max_simple_cycle_bound=(1 << max_rank) - 1,
        max_simple_cycle_count=max_count if exact else None,
        all_counts_exact=exact)


SCAN_CASES = [("rr512", r) for r in range(1, 6)] + [
    (name, r) for name in ("petersen", "prism", "k4", "c6", "q3")
    for r in (1, 2, 3)] + [("high_girth", 3), ("lps_13_17_plain", 2),
                           ("empty", 2), ("isolated", 2)]


def _scan_graph(request, name):
    if name == "rr512":
        return wl.build_random_regular(512, 3, 2)
    if name == "high_girth":
        return wl.build_high_girth_regular(1000, 3, 8, seed=3)
    if name == "lps_13_17_plain":
        return _uncertified(request.getfixturevalue("lps_13_17"))
    if name == "empty":
        return wl.make_graph(0, [])
    if name == "isolated":
        return wl.make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name,r", SCAN_CASES)
def test_assumption1_scan_matches_per_center_scan(request, monkeypatch,
                                                  name, r):
    g = _scan_graph(request, name)
    ref = reference_assumption1_scan(g, r)
    assert wl.assumption1_scan(g, r) == ref
    if g.n <= 512 and r <= 3:
        # one center per chunk, or a few
        monkeypatch.setattr(graphs, "FAMILY_CHUNK_ROWS", 5)
        assert wl.assumption1_scan(g, r) == ref


def test_assumption1_scan_memory_stays_within_its_chunks(monkeypatch):
    # chunks of 16 * 256 entries, 32 KiB of int64: the peak stays within
    # 8 of them.  A scan of the whole table at once holds 2000 balls of
    # up to 22 keys, with 3 neighbors each, and peaks near 7 MB.
    import tracemalloc
    g = wl.build_random_regular(2000, 3, 5)
    ref = wl.assumption1_scan(g, 3)
    monkeypatch.setattr(graphs, "FAMILY_CHUNK_ROWS", 256)
    budget = 16 * graphs.FAMILY_CHUNK_ROWS * 8
    tracemalloc.start()
    try:
        rep = wl.assumption1_scan(g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == ref
    assert peak <= 8 * budget


def test_assumption1_scan_looks_each_batch_up_once(monkeypatch):
    # the ranks and the simple-cycle counts both read the batch's one
    # _ball_edges lookup: 512 balls of at most 512 keys, 170 a batch
    g = wl.build_random_regular(512, 3, 2)
    calls = {"_ball_keys": 0, "_ball_edges": 0}
    for name in calls:
        def spy(*args, real=getattr(graphs, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(graphs, name, spy)
    rep = wl.assumption1_scan(g, 5)
    assert rep.all_counts_exact and rep.max_cycle_rank > 0
    assert calls == {"_ball_keys": 4, "_ball_edges": 4}


# (graph, r) -> (max_excess, max_cycle_rank, bit length of
# max_simple_cycle_bound, max_simple_cycle_count); the counts are exact
# exactly when not None.  The uncertified LPS rows stop at r = 2, where
# the scan of all 2448 balls takes well under a second.
ASSUMPTION1_TABLE = {
    "petersen": {1: (0, 0, 0, 0), 2: (0, 6, 6, 57), 3: (6, 6, 6, 57),
                 5: (6, 6, 6, 57)},
    "prism": {1: (0, 1, 1, 1), 2: (3, 4, 4, 14), 3: (4, 4, 4, 14),
              5: (4, 4, 4, 14)},
    "q3": {1: (0, 0, 0, 0), 2: (3, 3, 3, 7), 3: (5, 5, 5, 28),
           5: (5, 5, 5, 28)},
    "rr512": {1: (0, 1, 1, 1), 2: (1, 2, 2, 3), 3: (2, 3, 3, 6),
              5: (8, 12, 12, 2118)},
    "rr2000": {1: (0, 1, 1, 1), 2: (1, 1, 1, 1), 3: (1, 2, 2, 2),
               5: (4, 5, 5, 28)},
    "lps_13_17": {1: (0, 0, 0, 0), 2: (0, 0, 0, 0),
                  3: (876, 6660, 6660, None), 5: (14689, 14689, 14689, None)},
    "lps_13_17_plain": {1: (0, 0, 0, 0), 2: (0, 0, 0, 0)},
    "lps_17_13_plain": {1: (0, 3, 3, 3), 2: (27, 579, 579, None)},
}


@pytest.mark.parametrize("name", sorted(ASSUMPTION1_TABLE))
def test_assumption1_scan_frozen_table(request, name):
    builders = {
        "q3": lambda: wl.build_named("hypercube", 3),
        "rr512": lambda: wl.build_random_regular(512, 3, 2),
        "rr2000": lambda: wl.build_random_regular(2000, 3, 4),
        "lps_13_17_plain": lambda: _uncertified(
            request.getfixturevalue("lps_13_17")),
        "lps_17_13_plain": lambda: _uncertified(wl.build_lps(17, 13)),
    }
    g = builders.get(name, lambda: request.getfixturevalue(name))()
    for r, (excess, rank, bits, count) in ASSUMPTION1_TABLE[name].items():
        assert wl.assumption1_scan(g, r) == wl.Assumption1Report(
            radius=r, max_excess=excess, max_cycle_rank=rank,
            max_simple_cycle_bound=(1 << bits) - 1,
            max_simple_cycle_count=count, all_counts_exact=count is not None)


# -- inflation ----------------------------------------------------------------

def test_inflate_identity_k1(petersen, k4, prism, c6):
    for g in (petersen, k4, prism, c6):
        assert wl.inflate(g, 1).edges == g.edges


def test_inflate_c6_two_triangles(c6):
    g2 = wl.inflate(c6, 2)
    assert g2.edges == ((0, 2), (0, 4), (1, 3), (1, 5), (2, 4), (3, 5))
    comps = connected_components(g2)
    assert len(comps) == 2
    assert all(len(c) == 3 for c in comps)


def test_inflate_petersen_complement(petersen):
    g2 = wl.inflate(petersen, 2)
    assert g2.is_regular and g2.regular_degree == 6
    # distance-2 pairs are exactly the non-edges (diameter 2)
    assert g2.m == 45 - 15
    assert not set(g2.edges) & set(petersen.edges)


def test_inflate_empty_warns(k4):
    with pytest.warns(UserWarning):
        g = wl.inflate(k4, 3)
    assert g.m == 0


def test_inflate_matches_bfs_definition(random_cubic_medium, c6):
    for g, k in ((random_cubic_medium, 3), (c6, 2), (c6, 3)):
        edges = sorted((v, int(u)) for v in range(g.n)
                       for u in np.flatnonzero(bfs_distances(g, v, k) == k)
                       if v < u)
        assert wl.inflate(g, k).edges == tuple(edges)


def reference_inflate(g, k):
    """The distance-k graph as ``make_graph`` over g's pair list: the
    pairs (v, u), v < u, at distance k in g's radius-k ball table."""
    table = ball_table(g, k)
    v, u = np.divmod(table.keys[table.dist == k], g.n)
    keep = v < u
    return wl.make_graph(g.n, np.column_stack((v[keep], u[keep])),
                         {"kind": "inflated", "k": k,
                          "base": dict(g.provenance)})


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", ["petersen", "k4", "c6", "q3", "prism",
                                  "girth5_graph", "random_cubic_medium",
                                  "lps_bipartite"])
def test_inflate_matches_make_graph_over_pairs(request, name, k):
    g = request.getfixturevalue(name)
    ref = reference_inflate(g, k)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got = wl.inflate(g, k)
    # k4 at k = 2, 3 and petersen and prism at k = 3 have no pairs
    assert [str(w.message) for w in seen] == (
        [f"distance-{k} graph has no edges"] if ref.m == 0 else [])
    for mine, theirs in ((got.indptr, ref.indptr),
                         (got.indices, ref.indices)):
        assert mine.dtype == theirs.dtype == np.int64
        assert np.array_equal(mine, theirs)
        assert not mine.flags.writeable
    assert (got.n, got.provenance, got.automorphisms) == \
        (ref.n, ref.provenance, ())
    assert got.edges == ref.edges


def test_graph_from_keys_rejects_bad_keys(c6):
    keys = np.repeat(np.arange(6), 2) * 6 + np.array(c6.indices)
    assert graphs._graph_from_keys(6, keys) == c6
    cases = {
        "repeated pair \\(0, 1\\)": np.insert(keys, 1, keys[0]),
        "out-of-order pair \\(0, 1\\)": keys[[1, 0] + list(range(2, 12))],
        "self-loop at vertex 2": np.insert(keys, 5, 2 * 7),
        "key 36 out of range for n=6": np.append(keys, 36),
        "key -1 out of range for n=6": np.insert(keys, 0, -1),
    }
    for message, bad in cases.items():
        with pytest.raises(GraphError, match=message):
            graphs._graph_from_keys(6, bad)
    with pytest.raises(GraphError, match="key 0 out of range for n=0"):
        graphs._graph_from_keys(0, [0])
    assert graphs._graph_from_keys(0, []) == wl.make_graph(0, [])


# -- cached derived data ------------------------------------------------------

def test_degree_profile_cached():
    g = wl.make_graph(4, [(0, 1), (1, 2), (2, 3)])
    prof = g.degree_profile
    assert (prof.min_degree, prof.max_degree, prof.is_regular) == (1, 2, False)
    assert g.degree_profile is prof
    assert not g.is_regular
    assert g.degree_profile is prof
    with pytest.raises(GraphError, match="not regular"):
        g.regular_degree
    assert wl.make_graph(0, []).degree_profile.is_regular


def test_csr_and_expand(petersen):
    indptr, indices = petersen.indptr, petersen.indices
    for v in range(petersen.n):
        assert tuple(indices[indptr[v]:indptr[v + 1]]) == petersen.adjacency[v]
    slot, nbr = petersen.expand([4, 0])
    assert slot.tolist() == [0, 0, 0, 1, 1, 1]
    assert nbr.tolist() == list(petersen.adjacency[4] + petersen.adjacency[0])


def test_ball_table_matches_bfs(petersen, prism, c6, random_cubic_medium):
    path = wl.make_graph(5, [(0, 1), (1, 2), (2, 3)])   # 4 is isolated
    for g in (petersen, prism, c6, random_cubic_medium, path):
        for k in (1, 2, 3):
            table = ball_table(g, k)
            assert ball_table(g, k) is table
            far = []
            for a in range(g.n):
                dist = bfs_distances(g, a, cutoff=k)
                pos = table.positions([a])
                read = np.full(g.n, -1)
                read[table.vertex(pos)] = table.dist[pos]
                assert np.array_equal(read, dist)
                assert table.reach([a]).tolist() == [dist.max()]
                far.append(dist.max())
            # runs of adjacent anchors, of anchors apart, and of none
            for anchors in (range(g.n), range(1, g.n, 2), range(0, g.n, 3),
                            [1, g.n - 1], [g.n - 1], []):
                assert table.reach(anchors).tolist() == \
                    [far[a] for a in anchors]
    with pytest.raises(GraphError, match="radius"):
        ball_table(petersen, 0)


@pytest.mark.parametrize("anchor", [10, -1])
def test_ball_table_rejects_out_of_range_anchors(petersen, anchor):
    # the keys anchor * n + u hold no pair for such an anchor: an empty ball
    table = ball_table(petersen, 2)
    for lookup in (table.positions, table.reach, table.batches):
        with pytest.raises(GraphError, match=f"^vertex {anchor} out of range"):
            lookup([anchor])


def test_ball_step_table_moves_inside_each_ball(petersen, prism, c6,
                                                random_cubic_medium):
    path = wl.make_graph(5, [(0, 1), (1, 2), (2, 3)])   # 4 is isolated
    for g in (petersen, prism, c6, random_cubic_medium, path):
        for k in (1, 2, 3):
            table = ball_table(g, k)
            first, target = table.steps
            assert table.steps is table.steps
            assert np.array_equal(table.keys[table.home],
                                  np.arange(g.n) * (g.n + 1))
            degs = np.diff(first)
            inner = table.dist < k
            assert not degs[~inner].any()     # interior rows only
            for pos in np.flatnonzero(inner).tolist():
                anchor, u = divmod(int(table.keys[pos]), g.n)
                assert degs[pos] == g.degree(u)
                row = target[first[pos]:first[pos + 1]]
                assert table.keys[row].tolist() == \
                    [anchor * g.n + w for w in g.adjacency[u]]
                assert table.vertex(row).tolist() == list(g.adjacency[u])


def test_moves_list_the_step_table_rows(petersen, random_cubic_medium):
    from walklab.graphs import _build_ball_table
    path = wl.make_graph(5, [(0, 1), (1, 2), (2, 3)])   # degrees 1 and 2
    for g in (petersen, random_cubic_medium, path):
        for k in (1, 2, 3):
            table = _build_ball_table(g, k)
            rows = np.flatnonzero(table.dist < k)[::-3]
            slot, land, step = table.moves(rows)
            assert "steps" not in vars(table)   # built for rows alone
            first, target = table.steps
            degs = np.diff(first)[rows]
            assert np.array_equal(slot, np.repeat(np.arange(len(rows)), degs))
            assert np.array_equal(land, np.concatenate(
                [target[first[p]:first[p + 1]] for p in rows]))
            assert np.array_equal(step, 1.0 / degs[slot])


CERTIFIED = {
    "k5": lambda: wl.build_named("complete", 5),
    "c9": lambda: wl.build_named("cycle", 9),
    "c2000": lambda: wl.build_named("cycle", 2000),
    "q3": lambda: wl.build_named("hypercube", 3),
    "q4": lambda: wl.build_named("hypercube", 4),
    "lps13_17": lambda: wl.build_lps(13, 17),
    "lps17_13": lambda: wl.build_lps(17, 13),
    "lps5_13": lambda: wl.build_lps(5, 13),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certified_ball_table_equals_the_all_anchor_bfs(name):
    # vertex 0's ball moved along the certified arrays is each vertex's
    from walklab.graphs import _ball_keys, _build_ball_table
    g = CERTIFIED[name]()
    assert vertex_transitive(g)
    for k in (1, 2, 3):
        table = _build_ball_table(g, k)
        keys, dist = _ball_keys(g, np.arange(g.n, dtype=np.int64), k)
        assert np.array_equal(table.keys, keys)
        assert np.array_equal(table.dist, dist)
        assert table.dist.dtype == dist.dtype


def move_levels(g):
    """The breadth-first levels from vertex 0 along the moves v -> perm[v]
    of the attached arrays, through which _moved_balls carries 0's ball
    to every vertex."""
    seen, frontier, levels = {0}, [0], 0
    while frontier:
        frontier = [v for v in {int(perm[u]) for u in frontier
                                for perm in g.automorphisms} if v not in seen]
        seen.update(frontier)
        levels += len(frontier) > 0
    assert len(seen) == g.n
    return levels


@pytest.mark.parametrize("n", [3, 8, 9, 2000])
def test_certified_cycles_move_in_log_levels(n):
    # the rotation by 1 alone takes n - 1 levels, each a few numpy calls
    # per array; the rotations by 1, 2, 4, ... < n take at most log2 n
    g = wl.build_named("cycle", n)
    assert vertex_transitive(g)
    assert move_levels(g) <= (n - 1).bit_length()
    # the spectrum still splits along the rotation by 1
    perm, m = cyclic_automorphism(g)
    assert m == n and np.array_equal(perm, (np.arange(n) + 1) % n)


def test_a_false_automorphism_gets_the_bfs_table(petersen):
    # the rotation v -> v + 1 is a permutation whose one orbit is all of V,
    # but it does not map Petersen's edges onto themselves, nor 0's
    # radius-1 ball onto 1's
    from walklab.graphs import _ball_keys, _build_ball_table, _moved_balls
    rotation = (np.arange(10) + 1) % 10
    g = wl.make_graph(10, np.array(petersen.edges), None, [rotation])
    assert not vertex_transitive(g)
    keys, dist = _ball_keys(g, np.arange(10, dtype=np.int64), 1)
    assert not np.array_equal(_moved_balls(g, 1)[0], keys)
    table = _build_ball_table(g, 1)
    assert np.array_equal(table.keys, keys)
    assert np.array_equal(table.dist, dist)


@pytest.mark.parametrize("p,q,d,ball1", [(13, 17, 14, 15), (5, 13, 6, 7)])
def test_step_table_size_on_regular_graphs(p, q, d, ball1):
    # interior rows only: n |B_1| d slots at k = 2, not n |B_2| d
    g = wl.build_lps(p, q)
    first, target = ball_table(g, 2).steps
    assert len(target) == first[-1] == g.n * ball1 * d
    assert len(ball_table(g, 2).keys) > g.n * ball1
    cubic = wl.build_random_regular(64, 3, 8)
    table = ball_table(cubic, 3)
    assert len(table.steps[1]) == 3 * np.count_nonzero(table.dist < 3)


# -- CSR storage against the tuple builder it replaced ------------------------

def reference_make_graph(n, edges):
    """The per-edge loop of the tuple-storing ``make_graph``: the sorted
    ``(edges, adjacency)`` tuples, or the message it raised."""
    if n < 0:
        return f"vertex count must be nonnegative, got {n}"
    norm = []
    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            return f"self-loop at vertex {u}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) out of range for n={n}"
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            return f"parallel edge ({u},{v})"
        seen.add((u, v))
        norm.append((u, v))
    norm.sort()
    adj = [[] for _ in range(n)]
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(norm), tuple(tuple(sorted(a)) for a in adj)


def reference_csr(adjacency):
    """CSR arrays from adjacency tuples, as the tuple-storing graph
    derived them."""
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in adjacency], out=indptr[1:])
    indices = np.array([w for a in adjacency for w in a], dtype=np.int64)
    return indptr, indices


def _shuffled(edges, seed):
    rng = np.random.default_rng(seed)
    return [edges[i][::-1] if rng.integers(2) else edges[i]
            for i in rng.permutation(len(edges))]


MAKE_GRAPH_CASES = {
    "petersen-shuffled": lambda: (
        10, _shuffled(wl.build_named("petersen").edges, 1)),
    "petersen-reversed": lambda: (
        10, [e[::-1] for e in reversed(wl.build_named("petersen").edges)]),
    "rr200-shuffled": lambda: (
        200, _shuffled(wl.build_random_regular(200, 3, 77).edges, 2)),
    "lps-shuffled": lambda: (2184, _shuffled(wl.build_lps(5, 13).edges, 3)),
    "numpy-int64": lambda: (6, [(np.int64(u), np.int64(v)) for u, v in
                                [(4, 5), (0, 3), (3, 1), (2, 0)]]),
    "numpy-int32-array": lambda: (6, np.array([(4, 5), (0, 3), (3, 1)],
                                              dtype=np.int32)),
    "tuple-of-lists": lambda: (4, ([3, 2], [1, 0], [0, 3])),
    "generator": lambda: (5, ((i, i + 1) for i in range(4))),
    "empty": lambda: (4, []),
    "empty-array": lambda: (3, np.empty((0, 2), dtype=np.int64)),
    "n0": lambda: (0, []),
    "n0-edge": lambda: (0, [(0, 1)]),
    "negative-n": lambda: (-1, []),
    "loop-before-range-and-parallel": lambda: (3, [(0, 1), (2, 2), (0, 9), (1, 0)]),
    "range-before-loop-and-parallel": lambda: (3, [(0, 1), (0, 9), (2, 2), (1, 0)]),
    "parallel-before-loop-and-range": lambda: (3, [(0, 1), (1, 0), (2, 2), (0, 9)]),
    "loop-out-of-range": lambda: (2, [(0, 1), (7, 7)]),
    "negative-endpoint": lambda: (3, [(0, 1), (-1, 2)]),
    "parallel-reversed-first": lambda: (4, [(0, 1), (2, 1), (1, 2), (1, 0)]),
    "parallel-thrice": lambda: (4, [(0, 1), (0, 1), (0, 1)]),
    # (0, 5) has the key 0*3+5 of (1, 2): range, not parallel, either way
    "key-collision-after": lambda: (3, [(1, 2), (0, 5)]),
    "key-collision-before": lambda: (3, [(0, 5), (1, 2)]),
    "fault-in-large-list": lambda: (2448, wl.build_lps(13, 17).edges[:5000]
                                    + ((17, 2447), (4, 4), (17, 2447))),
}


@pytest.mark.parametrize("name", sorted(MAKE_GRAPH_CASES))
def test_make_graph_matches_tuple_builder(name):
    n, edges = MAKE_GRAPH_CASES[name]()
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    ref = reference_make_graph(n, edges)
    if isinstance(ref, str):
        with pytest.raises(GraphError) as info:
            wl.make_graph(n, edges)
        assert str(info.value) == ref
        return
    g = wl.make_graph(n, edges)
    ref_edges, ref_adjacency = ref
    assert g.edges == ref_edges and g.adjacency == ref_adjacency
    assert all(type(x) is int for e in g.edges for x in e)
    assert all(type(w) is int for a in g.adjacency for w in a)
    for got, want in zip((g.indptr, g.indices),
                         reference_csr(ref_adjacency)):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, want)
    assert g.m == len(ref_edges)
    assert [g.degree(v) for v in range(n)] == [len(a) for a in ref_adjacency]


def test_make_graph_rejects_non_pairs_and_huge_labels():
    with pytest.raises(ValueError, match="unpack"):
        wl.make_graph(4, [(0, 1, 2)])
    with pytest.raises(GraphError, match="out of range"):
        wl.make_graph(4, [(0, 10 ** 30)])


def test_graph_stores_only_csr():
    import dataclasses
    assert [f.name for f in dataclasses.fields(wl.Graph)] == \
        ["n", "indptr", "indices", "provenance", "automorphisms"]


def test_graph_equality(petersen):
    same = wl.make_graph(10, reversed(petersen.edges), {"kind": "file"})
    assert same == petersen and same.provenance != petersen.provenance
    assert wl.make_graph(11, petersen.edges) != petersen
    assert wl.make_graph(10, petersen.edges[1:]) != petersen
    assert petersen != petersen.edges


def test_tree_balls_count_exactly_beyond_edge_budget():
    # LPS(13,17) has girth 6, so its radius-2 balls are trees of 197
    # vertices and 196 edges
    g = wl.build_lps(13, 17)
    assert len(ball_table(g, 2).positions([0])) == 197
    # the budget is on the cycle rank only, not on the edge count
    rep = wl.assumption1_scan(g, 2)
    assert rep.max_cycle_rank == 0
    assert rep.all_counts_exact and rep.max_simple_cycle_count == 0


def test_reprs_survive_huge_cycle_bounds():
    # the radius-4 ball covers LPS(13,17): rank 14,689, a 4,422-digit bound
    rep = wl.assumption1_scan(wl.build_lps(13, 17), 4)
    assert rep.max_cycle_rank == 14689
    assert rep.max_simple_cycle_bound == (1 << 14689) - 1
    assert "max_cycle_rank=14689" in repr(rep)
    assert "max_simple_cycle_bound" not in repr(rep)


# -- edge-list files ----------------------------------------------------------

def test_edge_list_round_trip(tmp_path, petersen):
    path = tmp_path / "g.txt"
    wl.write_edge_list(petersen, path)
    back = wl.read_edge_list(path)
    assert back.n == petersen.n
    assert back.edges == petersen.edges
    # bit-exact: rewriting the parsed graph reproduces the file
    path2 = tmp_path / "g2.txt"
    wl.write_edge_list(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_edge_list_malformed_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0 1\n0 two\n")
    with pytest.raises(GraphFileError, match="line 3"):
        wl.read_edge_list(path)


def test_edge_list_header_mismatch(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("4 3\n0 1\n")
    with pytest.raises(GraphFileError, match="declared 3"):
        wl.read_edge_list(path)


def test_bfs_distances_petersen(petersen):
    dist = bfs_distances(petersen, 0)
    assert sorted(np.bincount(dist).tolist()) == sorted([1, 3, 6])


@pytest.mark.parametrize("source", [10, -1])
def test_bfs_rejects_out_of_range_sources(capfd, petersen, source):
    # csgraph itself answers 10 with all -1, printing and swallowing its
    # IndexError, and -1 with an OverflowError
    with pytest.raises(GraphError, match=f"^vertex {source} out of range"):
        bfs_distances(petersen, source)
    assert capfd.readouterr().err == ""


def reference_bfs_prefix(g, seed, mass, limit):
    """Reference: one seed's FIFO order by a deque, its distances, and the
    running sums of ``mass`` by ``np.cumsum``, cut after the first level
    whose end has passed ``limit``."""
    dist = {seed: 0}
    order = [seed]
    queue = deque([seed])
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                order.append(w)
                queue.append(w)
    level = np.array([dist[v] for v in order])
    total = np.cumsum(mass[order])
    ends = np.flatnonzero(np.diff(level, append=level[-1] + 1)) + 1
    stop = next((e for e in ends if total[e - 1] > limit), len(order))
    return np.array(order[:stop]), level[:stop], total[:stop]


@pytest.mark.parametrize("rows", [16_384, 64])
def test_bfs_prefixes_match_one_seed_at_a_time(monkeypatch, rows):
    # a 64-row budget cuts the seeds into many batches; the orders, levels
    # and running sums do not depend on the batch.  Every third seed also
    # runs with unit masses until it holds n // 2 vertices, as the Perron
    # balls of the candidate family run
    monkeypatch.setattr(graphs, "FAMILY_CHUNK_ROWS", rows)
    path = wl.make_graph(40, [(i, i + 1) for i in range(39)]
                         + [(0, 10), (5, 30), (12, 18), (20, 35), (3, 37)])
    for g in (wl.build_random_regular(200, 3, 77), path,
              wl.make_graph(7, [(0, 1), (1, 2), (4, 5)])):
        mass = np.random.default_rng(g.n).random(g.n)
        mass /= mass.sum()
        every = np.arange(g.n)[::-1]
        for seeds, weights, limit in ((every, mass, 0.2),
                                      (every[every % 3 == 0], np.ones(g.n),
                                       g.n // 2 - 1)):
            seen = 0
            for lo, owner, order, level, total in g.bfs_prefixes(
                    seeds, weights, limit):
                for i in range(owner[-1] + 1):
                    mine = owner == i
                    want = reference_bfs_prefix(g, seeds[lo + i], weights,
                                                limit)
                    assert np.array_equal(order[mine], want[0])
                    assert np.array_equal(level[mine], want[1])
                    assert np.array_equal(total[mine], want[2])
                assert np.all(np.diff(owner) >= 0)
                seen += owner[-1] + 1
            assert seen == len(seeds)
    for bad in (40, -1):
        with pytest.raises(GraphError, match=f"^vertex {bad} out of range"):
            next(path.bfs_prefixes([0, bad], np.ones(40), 1.0))


# -- csgraph traversals against the Python code they replaced -----------------

def reference_bfs_distances(g, source, cutoff=None):
    """The Python BFS that bfs_distances replaced."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if cutoff is not None and du >= cutoff:
            continue
        for w in g.adjacency[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                queue.append(w)
    return dist


def reference_components(g):
    """The Python BFS that connected_components replaced."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = []
        queue = deque([s])
        seen[s] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def reference_bipartition(g):
    """The two-coloring BFS behind the old is_bipartite: a 0/1 array, or
    None if some component is odd."""
    color = np.full(g.n, -1, dtype=np.int8)
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return color


def reference_girth(g):
    """Girth from a BFS from every vertex at once, level by level on
    sparse matrices, independent of graphs._shortest_cycle.  Row s of
    ``level`` holds the vertices at distance r from s, and
    ``level @ adjacency`` counts each vertex's neighbors among them.  A
    vertex at distance r with such a neighbor closes a cycle of length at
    most 2r + 1, and a new vertex with two of them one of at most 2r + 2.
    The first test to fire gives the girth: from a source on a shortest
    cycle, one fires at the r where its length is 2r + 1 or 2r + 2."""
    u, w = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    adjacency = sp.csr_matrix((np.ones(2 * len(u)),
                               (np.r_[u, w], np.r_[w, u])), shape=(g.n, g.n))
    level = seen = sp.identity(g.n, format="csr")
    for r in range(g.n):
        counts = level @ adjacency
        if counts.multiply(level).count_nonzero():
            return 2 * r + 1
        new = counts - counts.multiply(seen)
        new.eliminate_zeros()
        if new.nnz == 0:
            return math.inf
        if new.data.max() >= 2:
            return 2 * r + 2
        level, seen = new, seen + new
    return math.inf


def reference_short_cycle_edge(adj, min_girth):
    """The depth-capped scan that picked the edge to swap out in
    build_high_girth_regular: (length, edge) or None."""
    depth_cap = min_girth // 2
    best = None
    for src in range(len(adj)):
        dist = {src: 0}
        parent = {src: -1}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if dist[u] >= depth_cap:
                continue
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    length = dist[u] + dist[w] + 1
                    if length < min_girth and (best is None
                                               or length < best[0]):
                        best = (length, (min(u, w), max(u, w)))
    return best


def reference_ball_stats(g, v, k):
    """``((excess, rank, count), edges, components)`` of v's radius-k ball
    from a loop over every edge of g: its tree excess and cycle rank, its
    simple-cycle count (None past the budget), its induced edges and the
    union-find component count of the induced ball."""
    dist = reference_bfs_distances(g, v, cutoff=k)
    ball = [int(u) for u in np.flatnonzero(dist >= 0)]
    in_ball = dist >= 0
    inner = in_ball & (dist <= k - 1)
    relevant = 0
    ball_edges = []
    for u, w in g.edges:
        if in_ball[u] and in_ball[w]:
            ball_edges.append((u, w))
            if inner[u] or inner[w]:
                relevant += 1
    idx = {u: i for i, u in enumerate(ball)}
    parent = list(range(len(ball)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, w in ball_edges:
        ra, rb = find(idx[u]), find(idx[w])
        if ra != rb:
            parent[ra] = rb
    components = len({find(i) for i in range(len(ball))})
    rank = len(ball_edges) - len(ball) + components
    count = None
    if rank <= wl.graphs.CYCLE_RANK_BUDGET:
        count = reference_count_simple_cycles(ball_edges)
    return (relevant - len(ball) + 1, rank, count), ball_edges, components


# disjoint unions with isolated vertices, labelled so that components
# interleave; the empty and one-vertex graphs; odd and even cycles
TRAVERSAL_GRAPHS = {
    "c4+c3+isolated": (9, [(0, 2), (2, 4), (4, 6), (6, 0), (1, 3), (3, 5),
                           (5, 1)]),
    "c4+p2+isolated": (8, [(0, 3), (3, 6), (6, 7), (7, 0), (1, 5)]),
    "path+isolated": (5, [(0, 1), (1, 2), (2, 3)]),
    "empty": (0, []),
    "single": (1, []),
    "c5": (5, [(i, (i + 1) % 5) for i in range(5)]),
}


@pytest.fixture(scope="module")
def lps_bipartite():
    return wl.build_lps(5, 13)


@pytest.fixture(scope="module")
def lps_nonbipartite():
    return wl.build_lps(17, 13)


def _traversal_graph(request, name):
    if name in TRAVERSAL_GRAPHS:
        return wl.make_graph(*TRAVERSAL_GRAPHS[name])
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", sorted(TRAVERSAL_GRAPHS) + [
    "c6", "q3", "petersen", "lps_bipartite", "lps_nonbipartite"])
def test_traversals_match_python_bfs(request, name):
    g = _traversal_graph(request, name)
    for s in range(0, g.n, max(1, g.n // 12)):
        for cutoff in (None, 0, 1, 2, 3):
            dist = bfs_distances(g, s, cutoff)
            assert dist.dtype == np.int64
            assert np.array_equal(dist,
                                  reference_bfs_distances(g, s, cutoff))
    comps = reference_components(g)
    assert connected_components(g) == comps
    assert is_connected(g) == (len(comps) <= 1)
    assert is_bipartite(g) == (reference_bipartition(g) is not None)


def test_bipartite_verdicts(request):
    verdicts = {name: is_bipartite(_traversal_graph(request, name))
                for name in ("c4+c3+isolated", "c4+p2+isolated", "empty",
                             "single", "c5", "c6", "q3", "lps_bipartite",
                             "lps_nonbipartite")}
    assert verdicts == {"c4+c3+isolated": False, "c4+p2+isolated": True,
                        "empty": True, "single": True, "c5": False,
                        "c6": True, "q3": True, "lps_bipartite": True,
                        "lps_nonbipartite": False}


def reference_support_classes(support):
    """``(classes, bipartite)`` from the bipartite double cover built by
    ``sp.bmat``: vertices (v, side), edges (u, 0)-(v, 1) and (u, 1)-(v, 0).
    A component is bipartite (a self-loop is an odd cycle) exactly when
    its cover splits in two, i.e. (v, 0) and (v, 1) are apart."""
    n = support.shape[0]
    if n == 0:
        return (), ()
    count, labels = csgraph.connected_components(support, directed=False)
    cover = sp.bmat([[None, support], [support, None]], format="csr")
    cover_labels = csgraph.connected_components(cover, directed=False)[1]
    classes = sorted((tuple(np.flatnonzero(labels == c).tolist())
                      for c in range(count)), key=lambda c: c[0])
    bipartite = tuple(bool(cover_labels[c[0]] != cover_labels[c[0] + n])
                      for c in classes)
    return tuple(classes), bipartite


PETERSEN_EDGES = wl.build_named("petersen").edges
# the zoo of the CLI tests that the fixtures do not already hold
ZOO = {
    "path4": (4, [(0, 1), (1, 2), (2, 3)]),
    "star4": (5, [(0, leaf) for leaf in range(1, 5)]),
    "two-petersen": (20, list(PETERSEN_EDGES)
                     + [(u + 10, v + 10) for u, v in PETERSEN_EDGES]),
    "k2": (2, [(0, 1)]),
    "c7": (7, [(i, (i + 1) % 7) for i in range(7)]),
    "q4": (16, list(wl.build_named("hypercube", 4).edges)),
}


def _classes_graph(request, name):
    if name in ZOO:
        return wl.make_graph(*ZOO[name])
    if name == "lps_13_17_distance_2":
        return wl.inflate(request.getfixturevalue("lps_13_17"), 2)
    g = _traversal_graph(request, name)
    # a fresh copy, so that its classes are computed here
    return wl.make_graph(g.n, np.array(g.edges, dtype=np.int64).reshape(-1, 2))


@pytest.mark.parametrize("name", sorted(TRAVERSAL_GRAPHS) + sorted(ZOO) + [
    "petersen", "k4", "c6", "q3", "prism", "girth5_graph",
    "random_cubic_medium", "lps_bipartite", "lps_nonbipartite", "lps_13_17",
    "lps_13_17_distance_2"])
def test_support_classes_match_double_cover(request, name):
    g = _classes_graph(request, name)
    ref = reference_support_classes(g._matrix)
    assert graphs._support_classes(g._matrix) == ref
    assert graphs._support_classes(g._matrix, colour=False) == (ref[0], None)
    assert g._classes == ref
    assert connected_components(g) == [list(c) for c in ref[0]]
    assert is_connected(g) == (len(ref[0]) <= 1)
    assert is_bipartite(g) == all(ref[1])
    if g.n and g.degree_profile.min_degree > 0:
        chain = srw_chain(g)
        assert chain.components == ref[0]
        assert chain.period_info == (BIPARTITE_PERIODIC if any(ref[1])
                                     else APERIODIC)


@pytest.mark.parametrize("name, count", [
    ("petersen", 1), ("c6", 1), ("lps_13_17_distance_2", 1),
    ("two-petersen", 2), ("c4+c3+isolated", 3)])
def test_one_class_is_searched_on_the_support_itself(request, monkeypatch,
                                                     name, count):
    # one class: a BFS from vertex 0 on the matrix that was passed in;
    # several: one BFS from the virtual vertex n over the (n+1)-vertex
    # forest, which copies the pattern
    if name == "c4+c3+isolated":
        g = wl.make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                              (4, 5), (5, 6), (6, 4)])
    else:
        g = _classes_graph(request, name)
    support = g._matrix
    searches = []
    search = csgraph.breadth_first_order

    def spy(graph, root, *args, **kwargs):
        searches.append((graph is support, graph.shape[0], root))
        return search(graph, root, *args, **kwargs)

    monkeypatch.setattr(csgraph, "breadth_first_order", spy)
    found = graphs._support_classes(support)
    monkeypatch.undo()
    assert found == reference_support_classes(support)
    assert len(found[0]) == count
    assert searches == ([(True, g.n, 0)] if count == 1
                        else [(False, g.n + 1, g.n)])


def random_reducible_kernel(seed, loops):
    """A reversible kernel with random conductances on interleaved
    classes: odd ones (a path closed into a triangle at its start, plus
    random chords) and bipartite ones (a path plus random chords between
    its even and odd positions).  With ``loops``, some classes are
    isolated states that hold with probability 1, and a few other states
    hold too."""
    rng = np.random.default_rng(seed)
    kinds = ["odd", "bipartite", "isolated"] if loops else ["odd",
                                                            "bipartite"]
    blocks = []
    while sum(map(len, blocks)) < 60:
        kind = kinds[rng.integers(len(kinds))]
        blocks.append([kind] * (1 if kind == "isolated"
                                else int(rng.integers(3, 9))))
    n = sum(map(len, blocks))
    perm = rng.permutation(n)
    cond = np.zeros((n, n))
    at = 0
    for block in blocks:
        v = perm[at:at + len(block)]
        at += len(v)
        links = [(v[i], v[i + 1]) for i in range(len(v) - 1)]
        if block[0] == "odd":
            links.append((v[0], v[2]))
        for _ in range(len(v)):
            i, j = sorted(rng.integers(len(v), size=2))
            if i != j and (block[0] == "odd" or (j - i) % 2):
                links.append((v[i], v[j]))
        if block[0] == "isolated":
            links.append((v[0], v[0]))
        for a, b in links:
            cond[a, b] = cond[b, a] = rng.uniform(0.5, 1.5)
    if loops:
        for x in rng.choice(n, size=3, replace=False):
            cond[x, x] = rng.uniform(0.5, 1.5)
    weight = cond.sum(axis=1)
    return sp.csr_matrix(cond / weight[:, None]), weight / weight.sum()


@pytest.mark.parametrize("loops", [False, True],
                         ids=["no-loops", "isolated-and-loops"])
@pytest.mark.parametrize("seed", range(6))
def test_kernel_classes_match_double_cover(seed, loops):
    kernel, pi = random_reducible_kernel(seed, loops)
    support = (kernel > 0).astype(float)
    ref = reference_support_classes(support)
    assert len(ref[0]) > 1
    assert graphs._support_classes(support) == ref
    chain = chain_from_kernel(kernel, pi)
    assert chain.components == ref[0]
    holds = kernel.diagonal().max() > 0
    assert holds == loops
    assert chain.period_info == (BIPARTITE_PERIODIC if any(ref[1])
                                 and not holds else APERIODIC)
    # a one-way entry within the tolerances joins its two classes, as an
    # undirected edge does
    one_way = kernel.tolil()
    one_way[ref[0][0][0], ref[0][1][0]] = 1e-14
    merged = chain_from_kernel(one_way.tocsr(), pi)
    assert merged.components[0] == tuple(sorted(ref[0][0] + ref[0][1]))
    assert merged.components[1:] == ref[0][2:]


def test_girth_matches_reference_scan(request, k4, prism, c6, q3, petersen,
                                      random_cubic_medium, girth5_graph):
    tree = wl.make_graph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    graphs = [k4, prism, c6, q3, petersen, random_cubic_medium, girth5_graph,
              tree, request.getfixturevalue("lps_nonbipartite")]
    for g in graphs:
        assert wl.girth(g) == reference_girth(g), g


HIGH_GIRTH_FIXTURES = {
    # (n, d, min_girth, seed): (sha256 prefix of repr(edges), swaps)
    (400, 3, 5, 21): ("36706994b44b08b6", 1),
    (2000, 3, 7, 11): ("afbcda7496552412", 15),
    (200, 3, 6, 3): ("3c79184a495ecf79", 8),
    (300, 4, 5, 7): ("06cfa4ea0b72e5bd", 18),
    (150, 3, 7, 1): ("56cc3aaff6ceae8d", 23),
    (100, 3, 4, 2): ("cb33f7e197222e58", 1),
}


@pytest.mark.parametrize("key", sorted(HIGH_GIRTH_FIXTURES),
                         ids=lambda key: "n{}-d{}-g{}-s{}".format(*key))
def test_high_girth_fixtures_pinned(key):
    n, d, min_girth, seed = key
    g = wl.build_high_girth_regular(n, d, min_girth, seed=seed)
    digest = hashlib.sha256(repr(g.edges).encode()).hexdigest()[:16]
    assert (digest, g.provenance["swaps"]) == HIGH_GIRTH_FIXTURES[key]
    assert wl.girth(g) >= min_girth


@pytest.mark.parametrize("key", sorted(HIGH_GIRTH_FIXTURES),
                         ids=lambda key: "n{}-d{}-g{}-s{}".format(*key))
def test_shortest_cycle_matches_swap_scan(key):
    # the first girth-surgery step on the pairing-model graph, on the
    # same live sets the builder passes
    from walklab.graphs import _shortest_cycle
    n, d, min_girth, seed = key
    g = wl.build_random_regular(n, d, seed)
    adj = [set(a) for a in g.adjacency]
    ref = reference_short_cycle_edge(adj, min_girth)
    assert _shortest_cycle(adj, min_girth) == (ref or (min_girth, None))
    assert _shortest_cycle(adj, math.inf)[0] == reference_girth(g)


@pytest.fixture(scope="module")
def c300():
    return wl.build_named("cycle", 300)


@pytest.mark.parametrize("name,ks", [
    ("petersen", (0, 1, 2, 3)), ("prism", (0, 1, 2, 3)),
    ("random_cubic_medium", (1, 2, 3, 4)), ("girth5_graph", (1, 2, 3)),
    # a radius past MAX_BALL_RADIUS, at which the ball closes
    ("c300", (0, 150))])
def test_ball_stats_match_edge_loop(request, name, ks, monkeypatch):
    # the scan's maxima are the edge loop's over every center, and
    # count_simple_cycles gets each cyclic ball's edge list as the loop
    # built it, center after center
    seen = []
    real = graphs.count_simple_cycles

    def spy(edges):
        seen.append(list(edges))
        return real(edges)

    monkeypatch.setattr(graphs, "count_simple_cycles", spy)
    g = request.getfixturevalue(name)
    for k in ks:
        refs = [reference_ball_stats(g, v, k)
                for v in ([0] if wl.vertex_transitive(g) else range(g.n))]
        assert {components for _, _, components in refs} == {1}
        excess, rank, count = zip(*[stats for stats, _, _ in refs])
        exact = None not in count
        seen.clear()
        assert wl.assumption1_scan(g, k) == wl.Assumption1Report(
            radius=k, max_excess=max(excess), max_cycle_rank=max(rank),
            max_simple_cycle_bound=(1 << max(rank)) - 1,
            max_simple_cycle_count=max(count) if exact else None,
            all_counts_exact=exact)
        assert exact and seen == [edges for (_, rank, _), edges, _ in refs
                                  if rank > 0]


# -- certified vertex-transitivity --------------------------------------------

@pytest.fixture(scope="module")
def lps_13_17():
    return wl.build_lps(13, 17)


CAYLEY_GRAPHS = ["lps_bipartite", "lps_nonbipartite", "lps_13_17", "q4",
                 "c9", "k6"]


def _cayley_graph(request, name):
    named = {"q4": ("hypercube", 4), "c9": ("cycle", 9),
             "k6": ("complete", 6)}
    if name in named:
        return wl.build_named(*named[name])
    return request.getfixturevalue(name)


def _uncertified(g):
    """The same graph with no automorphisms attached."""
    return wl.make_graph(g.n, np.array(g.edges), g.provenance)


@pytest.mark.parametrize("name", CAYLEY_GRAPHS)
def test_builders_attach_certified_automorphisms(request, name):
    g = _cayley_graph(request, name)
    assert wl.vertex_transitive(g)
    for perm in g.automorphisms:
        assert perm.dtype == np.int64 and not perm.flags.writeable
        assert sorted(perm.tolist()) == list(range(g.n))
        moved = {(min(a, b), max(a, b))
                 for a, b in perm[np.array(g.edges)].tolist()}
        assert moved == set(g.edges)
    # the arrays ride along outside equality and repr
    plain = _uncertified(g)
    assert plain == g and repr(plain) == repr(g)
    assert plain.automorphisms == () and not wl.vertex_transitive(plain)


def test_certificate_rejects_what_it_must(tmp_path, lps_bipartite, prism,
                                          random_cubic_medium):
    g = lps_bipartite
    edges = np.array(g.edges)
    swap = np.arange(g.n)
    swap[[0, 1]] = [1, 0]
    repeated = np.arange(g.n)
    repeated[1] = 0
    for bad in (swap, repeated, np.arange(g.n - 1)):
        # one bad array sinks the valid generators beside it
        copy = wl.make_graph(g.n, edges, g.provenance,
                             g.automorphisms + (bad,))
        assert copy == g and not wl.vertex_transitive(copy)
    # a true automorphism whose orbit of 0 is {0, 3}
    triangle_swap = [3, 4, 5, 0, 1, 2]
    swapped = wl.make_graph(6, prism.edges, prism.provenance,
                            [triangle_swap])
    assert not wl.vertex_transitive(swapped)
    rotated = wl.make_graph(6, prism.edges, prism.provenance,
                            [triangle_swap, [1, 2, 0, 4, 5, 3]])
    assert wl.vertex_transitive(rotated)
    # no generators: random graphs, files, relabelled copies, even with
    # an LPS provenance
    path = tmp_path / "lps.txt"
    wl.write_edge_list(g, path)
    perm = np.random.Generator(np.random.Philox(key=np.uint64(5))) \
        .permutation(g.n)
    relabelled = wl.make_graph(g.n, perm[edges], dict(g.provenance))
    for plain in (random_cubic_medium, wl.read_edge_list(path), relabelled):
        assert plain.automorphisms == () and not wl.vertex_transitive(plain)
    assert wl.read_edge_list(path) == g


@pytest.mark.parametrize("name", CAYLEY_GRAPHS)
def test_one_vertex_scans_match_all_vertex_scans(request, name):
    g = _cayley_graph(request, name)
    plain = _uncertified(g)
    assert wl.girth(g) == reference_girth(g)
    assert wl.assumption1_scan(g, 2) == wl.assumption1_scan(plain, 2)


def test_cyclic_automorphism_takes_the_longest_uniform_cycles():
    for n in (8, 9):
        c = wl.build_named("cycle", n)
        edges = np.array(c.edges)
        rotation = (np.arange(n) + 1) % n
        reflection = -np.arange(n) % n        # fixes vertex 0
        g = wl.make_graph(n, edges, c.provenance, [reflection, rotation])
        perm, m = cyclic_automorphism(g)
        assert m == n and np.array_equal(perm, rotation)
        # a reflection alone does not certify the cycle
        alone = wl.make_graph(n, edges, c.provenance, [reflection])
        assert cyclic_automorphism(alone) is None
    # on C8, v -> 1 - v has no fixed point (four 2-cycles); the rotation by
    # two (two 4-cycles) is longer, and of two equal lengths the first wins
    c8 = wl.build_named("cycle", 8)
    edges = np.array(c8.edges)
    flip = (1 - np.arange(8)) % 8
    by2, by6 = (np.arange(8) + 2) % 8, (np.arange(8) + 6) % 8
    g = wl.make_graph(8, edges, c8.provenance, [flip, by2, by6])
    perm, m = cyclic_automorphism(g)
    assert m == 4 and np.array_equal(perm, by2)
    # on the prism the triangle swap (three 2-cycles) and the rotation (two
    # 3-cycles) are uniform; the reflection fixing 0 and 3 never qualifies
    prism = wl.build_named("prism")
    mixed = wl.make_graph(6, prism.edges, prism.provenance,
                          [[3, 4, 5, 0, 1, 2], [1, 2, 0, 4, 5, 3],
                           [0, 2, 1, 3, 5, 4]])
    assert wl.vertex_transitive(mixed)
    perm, m = cyclic_automorphism(mixed)
    assert m == 3 and perm.tolist() == [1, 2, 0, 4, 5, 3]
    # on Q3, rotating the bits and flipping bit 0 puts vertex 0 on a
    # 6-cycle and 010, 101 on a 2-cycle: longer than a flip, never uniform
    q3 = wl.build_named("hypercube", 3)
    x = np.arange(8)
    twist = (((x << 1) | (x >> 2)) & 7) ^ 1
    g = wl.make_graph(8, np.array(q3.edges), q3.provenance,
                      (twist,) + q3.automorphisms)
    assert wl.vertex_transitive(g)
    perm, m = cyclic_automorphism(g)
    assert m == 2 and perm is g.automorphisms[1]


def test_cyclic_automorphism_needs_the_certificate(petersen,
                                                   random_cubic_medium):
    assert cyclic_automorphism(petersen) is None
    assert cyclic_automorphism(random_cubic_medium) is None
    c5 = wl.build_named("cycle", 5)
    broken = wl.make_graph(5, np.array(c5.edges), c5.provenance,
                           [(np.arange(5) + 2) % 5, [1, 0, 2, 3, 4]])
    assert not wl.vertex_transitive(broken)
    assert cyclic_automorphism(broken) is None
