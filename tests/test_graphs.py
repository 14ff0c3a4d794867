import math

import numpy as np
import pytest

import walklab as wl
from walklab.graphs import (GraphError, GraphFileError, ball_table,
                            bfs_distances, connected_components,
                            count_simple_cycles, diameter, is_bipartite,
                            is_connected)


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


# -- balls and excess ---------------------------------------------------------

def test_ball_stats_petersen(petersen):
    st = wl.ball_stats(petersen, 0, 2)
    assert st.levels == (1, 3, 6)
    assert st.relevant_edge_count == 9
    assert st.edge_surplus == -1
    assert st.excess == 0
    assert st.cycle_rank == 0


def test_ball_stats_k4(k4):
    st = wl.ball_stats(k4, 0, 1)
    assert st.levels == (1, 3)
    assert st.edge_surplus == -1
    assert st.excess == 0


def test_ball_stats_c6(c6):
    st = wl.ball_stats(c6, 0, 3)
    assert st.levels == (1, 2, 2, 1)
    assert st.relevant_edge_count == 6
    assert st.excess == 1
    assert st.cycle_rank == 1


def test_excess_equals_edge_surplus_plus_one(petersen, prism, c6, random_cubic_medium):
    for g in (petersen, prism, c6, random_cubic_medium):
        for v in range(0, g.n, max(1, g.n // 10)):
            for k in (1, 2, 3):
                st = wl.ball_stats(g, v, k)
                assert st.excess == st.edge_surplus + 1
                assert st.excess == st.cycle_rank
                assert st.excess >= 0


def test_ball_levels_sum_to_n_at_diameter(petersen, prism):
    for g in (petersen, prism):
        dia = diameter(g)
        for v in range(g.n):
            st = wl.ball_stats(g, v, dia)
            assert sum(st.levels) == g.n


def test_simple_cycle_counts():
    # K4: four triangles + three 4-cycles
    assert count_simple_cycles(wl.build_named("complete", 4).edges) == 7
    # Petersen: 12 + 10 + 15 + 20 cycles of lengths 5,6,8,9
    assert count_simple_cycles(wl.build_named("petersen").edges) == 57
    assert count_simple_cycles(wl.build_named("cycle", 6).edges) == 1
    assert count_simple_cycles([(0, 1), (1, 2)]) == 0


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


def test_csr_and_neighbor_table(petersen):
    indptr, indices = petersen.csr
    for v in range(petersen.n):
        assert tuple(indices[indptr[v]:indptr[v + 1]]) == petersen.adjacency[v]
    assert petersen.neighbor_table().tolist() == \
        [list(a) for a in petersen.adjacency]
    slot, nbr = petersen.expand([4, 0])
    assert slot.tolist() == [0, 0, 0, 1, 1, 1]
    assert nbr.tolist() == list(petersen.adjacency[4] + petersen.adjacency[0])
    with pytest.raises(GraphError):
        wl.make_graph(3, [(0, 1)]).neighbor_table()


def test_ball_table_matches_bfs(petersen, prism, c6, random_cubic_medium):
    path = wl.make_graph(5, [(0, 1), (1, 2), (2, 3)])   # 4 is isolated
    for g in (petersen, prism, c6, random_cubic_medium, path):
        for k in (1, 2, 3):
            table = ball_table(g, k)
            assert ball_table(g, k) is table
            everyone = np.arange(g.n)
            for a in range(g.n):
                dist = bfs_distances(g, a, cutoff=k)
                assert np.array_equal(table.distance(a, everyone), dist)
                assert table.sphere(a).tolist() == \
                    np.flatnonzero(dist == k).tolist()
    with pytest.raises(GraphError, match="radius"):
        ball_table(petersen, 0)


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
