import ast
import math
import pathlib
import sys
import threading
import tracemalloc
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp

import walklab as wl
from walklab import chains, graphs
from walklab.chains import (APERIODIC, BIPARTITE_PERIODIC, ChainError,
                            chain_from_kernel, evolve, mixing_profile,
                            point_mass, srw_chain)
from walklab.graphs import connected_components


def petersen_adjacency():
    g = wl.build_named("petersen")
    a = np.zeros((10, 10))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def test_srw_k4(k4_chain):
    p = k4_chain.kernel.toarray()
    assert np.allclose(p, (np.ones((4, 4)) - np.eye(4)) / 3.0)
    assert np.allclose(k4_chain.stationary, 0.25)
    assert k4_chain.period_info == APERIODIC


def test_srw_petersen(petersen_chain):
    assert np.allclose(petersen_chain.stationary, 0.1)
    assert petersen_chain.period_info == APERIODIC


def test_srw_two_component_inflation(c6):
    chain = srw_chain(wl.inflate(c6, 2))
    assert len(chain.components) == 2
    assert chain.period_info == APERIODIC
    assert np.allclose(chain.stationary, 1.0 / 6.0)


def test_srw_rejects_isolated():
    g = wl.make_graph(3, [(0, 1)])
    with pytest.raises(ChainError, match=r"\[2\]"):
        srw_chain(g)


def test_evolve_k4_one_step(k4_chain):
    mu = evolve(k4_chain, point_mass(4, 0), 1)
    assert np.allclose(mu, [0, 1 / 3, 1 / 3, 1 / 3])


def test_evolve_stationarity(petersen_chain):
    pi = petersen_chain.stationary
    for t in (1, 5, 17):
        assert np.allclose(evolve(petersen_chain, pi, t), pi, atol=1e-14)


def test_evolve_petersen_two_steps(petersen, petersen_chain):
    # oracle: A^2 = J + 2I - A, so P^2 = (J + 2I - A)/9
    a = petersen_adjacency()
    oracle = (np.ones((10, 10)) + 2 * np.eye(10) - a) / 9.0
    mu = evolve(petersen_chain, point_mass(10, 0), 2)
    assert np.allclose(mu, oracle[0], atol=1e-14)
    assert math.isclose(mu[0], 1 / 3)
    assert sorted(set(np.round(mu, 12))) == [0.0, round(1 / 9, 12), round(1 / 3, 12)]


def test_evolve_semigroup(petersen_chain):
    mu_s = evolve(petersen_chain, point_mass(10, 3), 4)
    two_leg = evolve(petersen_chain, evolve(petersen_chain, point_mass(10, 3), 1), 3)
    assert np.abs(mu_s - two_leg).max() <= 1e-10


def distances(chain, x, t):
    """Oracle: (total variation, squared L2(pi)) distance of P^t(x, .)
    from pi, by exact evolution of one point mass.  Summed by
    ``chains._distance_sums`` on one column, as the profile of a
    transitive chain sums start 0, so the two agree bit for bit."""
    mu = evolve(chain, point_mass(chain.n, x), t)[:, None]
    tv, l2 = np.empty(1), np.empty(1)
    chains._distance_sums(mu, *chains._stationary(chain), np.empty_like(mu),
                          tv, l2)
    return float(0.5 * tv[0]), float(l2[0] - 1.0)


def test_distances_k4(k4_chain):
    tv0, l20 = distances(k4_chain, 0, 0)
    assert math.isclose(tv0, 0.75)
    assert math.isclose(l20, 3.0)
    tv1, l21 = distances(k4_chain, 0, 1)
    assert math.isclose(tv1, 0.25)
    assert math.isclose(l21, 1 / 3)


def test_distances_petersen_t4(petersen_chain):
    # P^4 row: 15/81 at start, 4/81 on neighbors, 9/81 elsewhere
    tv, _ = distances(petersen_chain, 0, 4)
    assert abs(tv - 41 / 270) < 1e-12


@pytest.mark.parametrize("x", [-1, 10])
def test_point_mass_and_distances_reject_out_of_range_states(petersen_chain,
                                                             x):
    # -1 must not read as state 9, nor 10 raise a bare IndexError
    with pytest.raises(ChainError, match=f"state {x} out of range for n=10"):
        point_mass(10, x)
    with pytest.raises(ChainError, match=f"state {x} out of range for n=10"):
        distances(petersen_chain, x, 2)


def test_jensen_inequality_everywhere(petersen_chain, k4_chain):
    for chain in (petersen_chain, k4_chain):
        for x in range(chain.n):
            for t in range(8):
                tv, l2 = distances(chain, x, t)
                assert 4 * tv * tv <= l2 + 1e-12


def test_mixing_profile_petersen(petersen_chain):
    prof = mixing_profile(petersen_chain, [0.25])
    expected = (0.9, 0.7, 0.3, 23 / 90, 41 / 270)
    assert len(prof.tv_curve) >= 5
    for got, want in zip(prof.tv_curve[:5], expected):
        assert abs(got - want) < 1e-10
    assert prof.mixing_times[0.25] == 4
    assert prof.cutoff_ratios[0.25] == 4.0
    assert prof.exact_starts


def test_mixing_profile_k4(k4_chain):
    prof = mixing_profile(k4_chain, [0.25])
    assert prof.mixing_times[0.25] == 1
    # TV(0) = 3/4 hits the 0.75 target at t = 0, so the ratio divides by 0
    assert prof.mixing_times[0.75] == 0
    assert prof.cutoff_ratios[0.25] == math.inf


def test_mixing_profile_bipartite_error():
    chain = srw_chain(wl.build_named("cycle", 4))
    with pytest.raises(ChainError, match="periodic"):
        mixing_profile(chain, [0.25])


def test_mixing_profile_reducible_error(c6):
    chain = srw_chain(wl.inflate(c6, 2))
    with pytest.raises(ChainError, match="reducible"):
        mixing_profile(chain, [0.25])


def test_mixing_profile_sampled_starts(monkeypatch, random_cubic_medium):
    chain = srw_chain(random_cubic_medium)
    exact = mixing_profile(chain, [0.25])
    monkeypatch.setattr(chains, "EXACT_START_LIMIT", 50)
    monkeypatch.setattr(chains, "SAMPLE_STARTS", 16)
    sampled = mixing_profile(chain, [0.25])
    assert not sampled.exact_starts
    assert len(sampled.starts) == 16
    # a start subset can only lower the worst-start curve
    assert sampled.mixing_times[0.25] <= exact.mixing_times[0.25]


def test_chain_from_kernel_validates():
    bad = np.array([[0.5, 0.5], [0.9, 0.2]])
    with pytest.raises(ChainError, match="rows"):
        chain_from_kernel(bad, np.array([0.5, 0.5]))
    asym = np.array([[0.0, 1.0], [0.5, 0.5]])
    with pytest.raises(ChainError, match="balance"):
        chain_from_kernel(asym, np.array([0.5, 0.5]))


SWAP = [[0.0, 1.0], [1.0, 0.0]]
UNIFORM = [0.5, 0.5]


@pytest.mark.parametrize("kernel, pi, message", [
    # rows sum to 1 and the flux is symmetric, but -0.5 is no probability
    ([[1.5, -0.5], [-0.5, 1.5]], UNIFORM,
     r"kernel entry \(0,1\) is -0\.5, not finite and nonnegative"),
    # NaN passed every "> tol" test, so this read as bipartite-periodic
    ([[np.nan, 1.0], [1.0, 0.0]], UNIFORM,
     r"kernel entry \(0,0\) is nan, not finite and nonnegative"),
    ([[0.0, np.inf], [1.0, 0.0]], UNIFORM,
     r"kernel entry \(0,1\) is inf, not finite and nonnegative"),
    (SWAP, [np.nan, 0.5],
     r"stationary entry 0 is nan, not finite and nonnegative"),
    (SWAP, [0.5, -np.inf],
     r"stationary entry 1 is -inf, not finite and nonnegative"),
    (SWAP, [0.5, 0.5, 0.0],
     r"stationary vector has shape \(3,\), expected \(2,\)"),
    (SWAP, [[0.5, 0.5]],
     r"stationary vector has shape \(1, 2\), expected \(2,\)"),
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], UNIFORM,
     r"kernel must be square, got shape \(2, 3\)"),
    # finite entries whose sums overflow fail the tolerance tests
    ([[1e308, 1e308], [1.0, 0.0]], UNIFORM,
     r"kernel rows deviate from 1 by inf"),
    (SWAP, [1e308, 1e308], "not a probability distribution"),
], ids=["negative", "nan-entry", "inf-entry", "nan-pi", "inf-pi",
        "pi-too-long", "pi-not-a-vector", "not-square", "row-overflow",
        "pi-overflow"])
def test_chain_from_kernel_rejects(kernel, pi, message):
    with np.errstate(over="ignore"), pytest.raises(ChainError, match=message):
        chain_from_kernel(sp.csr_matrix(np.array(kernel)), np.array(pi))


def test_chain_from_kernel_leaves_the_callers_matrix_alone():
    # SRW on the triangle, row 0 stored with its columns as [2, 1]
    kernel = sp.csr_matrix((np.full(6, 0.5), np.array([2, 1, 0, 2, 0, 1]),
                            np.array([0, 2, 4, 6])), shape=(3, 3))
    chain = chain_from_kernel(kernel, np.full(3, 1.0 / 3.0))
    assert kernel.indices.tolist() == [2, 1, 0, 2, 0, 1]
    for name in ("data", "indices", "indptr"):
        assert not np.shares_memory(getattr(chain.kernel, name),
                                    getattr(kernel, name)), name
    assert np.array_equal(chain.kernel.toarray(), kernel.toarray())


def test_chain_from_kernel_leaves_the_callers_stationary_vector_alone():
    kernel = sp.csr_matrix(np.full((3, 3), 0.5) - 0.5 * np.eye(3))
    pi = np.full(3, 1.0 / 3.0)
    chain = chain_from_kernel(kernel, pi)
    assert not np.shares_memory(chain.stationary, pi)
    pi[0] = 0.9
    assert chain.stationary.tolist() == [1.0 / 3.0] * 3


def reference_balance_worst(kernel, pi):
    """The largest |pi(x) P(x, y) - pi(y) P(y, x)| as the whole-matrix
    check took it: the full flux minus its full transpose."""
    flux = sp.diags(pi) @ kernel
    return np.abs((flux - flux.T.tocsr()).data).max()


def cycle_kernel(n):
    """The SRW kernel of the n-cycle: two entries per row."""
    return srw_chain(wl.build_named("cycle", n)).kernel.copy()


def test_balance_is_checked_chunk_by_chunk_to_the_last():
    # 20,000 rows of 2 entries, and as many transposed: several chunks of
    # the budget, and rows n - 3..n - 1 lie in the last one
    n = 20_000
    kernel = cycle_kernel(n)
    assert 4 * n > 2 * graphs.FAMILY_CHUNK_ROWS
    pi = np.full(n, 1.0 / n)
    # row n - 2 leans towards n - 1: the only asymmetric fluxes join
    # n - 3, n - 2 and n - 1
    lo = kernel.indptr[n - 2]
    assert kernel.indices[lo:lo + 2].tolist() == [n - 3, n - 1]
    kernel.data[lo:lo + 2] = [0.5 - 1e-6, 0.5 + 1e-6]
    worst = reference_balance_worst(kernel, pi)
    assert 1e-12 < worst
    with pytest.raises(ChainError) as info:
        chain_from_kernel(kernel, pi)
    assert str(info.value) == f"detailed balance violated by {worst:.3e}"
    kernel.data[lo:lo + 2] = 0.5
    assert chain_from_kernel(kernel, pi).components == (tuple(range(n)),)


def one_way_kernel(weight):
    """Two 2-state classes {0, 1} and {2, 3}, each holding or moving with
    probability 1/2, and a one-way entry P(1, 2) = ``weight`` taken from
    P(1, 1): a pattern that is not symmetric."""
    return sp.csr_matrix(
        (np.array([0.5, 0.5, 0.5, 0.5 - weight, weight, 0.5, 0.5, 0.5, 0.5]),
         np.array([0, 1, 0, 1, 2, 2, 3, 2, 3]), np.array([0, 2, 5, 7, 9])),
        shape=(4, 4))


def test_a_one_way_entry_passes_only_below_the_tolerance():
    pi = np.full(4, 0.25)
    # a flux of 0.25 weight at (1, 2), and none back
    below = one_way_kernel(2e-12)
    assert reference_balance_worst(below, pi) <= chains.REVERSIBILITY_TOL
    chain = chain_from_kernel(below, pi)
    # P + P^T joins the classes through the one-way entry
    assert chain.components == ((0, 1, 2, 3),)
    assert chain.period_info == APERIODIC
    above = one_way_kernel(8e-12)
    worst = reference_balance_worst(above, pi)
    assert worst > chains.REVERSIBILITY_TOL
    with pytest.raises(ChainError) as info:
        chain_from_kernel(above, pi)
    assert str(info.value) == f"detailed balance violated by {worst:.3e}"
    below.data[4] = np.nan
    with pytest.raises(ChainError, match=r"kernel entry \(1,2\) is nan"):
        chain_from_kernel(below, pi)


def test_stored_zeros_join_no_classes():
    # the pattern is symmetric, but the stored zeros at (1, 2) and (2, 1)
    # are no entries of the support: two classes, as P + P^T gives them
    kernel = sp.csr_matrix(
        (np.array([0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.5, 0.5, 0.5, 0.5]),
         np.array([0, 1, 0, 1, 2, 1, 2, 3, 2, 3]),
         np.array([0, 2, 5, 8, 10])), shape=(4, 4))
    chain = chain_from_kernel(kernel, np.full(4, 0.25))
    assert chain.kernel.nnz == 10
    assert chain.components == ((0, 1), (2, 3))


def test_chain_builders_hold_a_kernel_and_one_transpose(peak_growth):
    # the chain's kernel and the check's transpose take 12 bytes an entry
    # each; the full flux, its transpose and their difference took about
    # 40 bytes an entry beside them
    lps = "import walklab as wl\nfrom walklab import chains\n"
    growth, entries = peak_growth(
        lps + "g = wl.inflate(wl.build_lps(13, 17), 2)\n"
        "wl.graphs.connected_components(g)",
        "(chains.srw_chain(g), len(g.indices))[1]")
    assert growth <= 30 * int(entries)
    growth, entries = peak_growth(
        lps + "p = chains.srw_chain(wl.build_lps(13, 17))\n"
        "two = p.kernel @ p.kernel\n"
        "two.sort_indices()\n"
        "blend = (p.kernel + two) * 0.5\n"
        "del two",
        "(chains.chain_from_kernel(blend, p.stationary), blend.nnz)[1]")
    assert growth <= 30 * int(entries)


def test_tv_monotone_on_profile(random_cubic_medium):
    chain = srw_chain(random_cubic_medium)
    prof = mixing_profile(chain, [0.25])
    curve = prof.tv_curve
    assert all(curve[i + 1] <= curve[i] + 1e-12 for i in range(len(curve) - 1))
    l2 = prof.l2sq_curve
    assert all(l2[i + 1] <= l2[i] + 1e-10 for i in range(len(l2) - 1))


# -- array kernels against the scalar code they replaced ----------------------

def reference_srw_kernel(g):
    """The edge-loop SRW kernel builder that srw_chain replaced."""
    degs = np.array([g.degree(v) for v in range(g.n)], dtype=np.int64)
    rows, cols, vals = [], [], []
    for u, v in g.edges:
        rows.append(u), cols.append(v), vals.append(1.0 / degs[u])
        rows.append(v), cols.append(u), vals.append(1.0 / degs[v])
    return sp.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))


def reference_classes(kernel):
    """The DFS components and two-coloring period check that
    chain_from_kernel replaced."""
    n = kernel.shape[0]
    adj = [set() for _ in range(n)]
    coo = kernel.tocoo()
    for u, v, w in zip(coo.row, coo.col, coo.data):
        if u != v and w > 0:
            adj[u].add(int(v))
            adj[v].add(int(u))
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    period = APERIODIC
    if not kernel.diagonal().max() > 0:
        color = [-1] * n
        for s in range(n):
            if color[s] >= 0:
                continue
            color[s] = 0
            stack = [s]
            bip = True
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if color[w] < 0:
                        color[w] = 1 - color[u]
                        stack.append(w)
                    elif color[w] == color[u]:
                        bip = False
            if bip and any(adj[v] for v in range(n)):
                period = BIPARTITE_PERIODIC
                break
    return tuple(comps), period


def reference_starts(chain, count):
    """The Python-BFS farthest-point starts that csgraph replaced."""
    n = chain.n
    adj = [[] for _ in range(n)]
    coo = chain.kernel.tocoo()
    for u, v in zip(coo.row, coo.col):
        if u != v:
            adj[u].append(int(v))
    chosen = [0]
    dist = np.full(n, np.inf)
    while len(chosen) < min(count, n):
        src = chosen[-1]
        d = np.full(n, -1, dtype=np.int64)
        d[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if d[w] < 0:
                    d[w] = d[u] + 1
                    queue.append(w)
        reach = d >= 0
        dist[reach] = np.minimum(dist[reach], d[reach])
        nxt = int(np.argmax(np.where(np.isfinite(dist), dist, -1.0)))
        if nxt in chosen:
            break
        chosen.append(nxt)
    return chosen


def reference_l2_sums(cols, pi, per_term=False):
    """Column sums of cols^2 / pi over the whole array: one fused einsum
    pass, as mixing_profile sums them, or the per-term passes (square,
    divide by pi, sum) it replaced."""
    if per_term:
        return np.sum(cols * cols / pi[:, None], axis=0)
    if np.all(pi == pi[0]):
        return np.einsum("ij,ij->j", cols, cols) / pi[0]
    return np.einsum("ij,ij,i->j", cols, cols, 1.0 / pi)


def reference_sweep(chain, eps, exact_start_limit, sample_starts=64,
                    per_term=False):
    """The whole-array distance reductions that mixing_profile replaced:
    (tv_curve, l2sq_curve, worst_starts, starts); ``per_term`` as in
    :func:`reference_l2_sums`."""
    n = chain.n
    if n <= exact_start_limit:
        starts = list(range(n))
    else:
        starts = reference_starts(chain, sample_starts)
    pi = chain.stationary
    pt = chain.kernel.T.tocsr()
    cols = np.zeros((n, len(starts)))
    for j, s in enumerate(starts):
        cols[s, j] = 1.0
    tv_curve, l2_curve, worst_starts = [], [], []
    while True:
        tv_all = 0.5 * np.abs(cols - pi[:, None]).sum(axis=0)
        worst = int(np.argmax(tv_all))
        tv_curve.append(float(tv_all[worst]))
        l2_curve.append(float(
            (reference_l2_sums(cols, pi, per_term) - 1.0).max()))
        worst_starts.append(starts[worst])
        if tv_all[worst] <= min(eps, 1.0 - eps):
            return (tuple(tv_curve), tuple(l2_curve), tuple(worst_starts),
                    tuple(starts))
        cols = pt @ cols


@pytest.fixture(scope="module")
def lps_chain():
    return srw_chain(wl.build_lps(13, 17))


def _kernel_cases(request):
    gs = [request.getfixturevalue(name) for name in
          ("petersen", "k4", "c6", "q3", "prism", "random_cubic_medium")]
    gs += [wl.inflate(request.getfixturevalue("c6"), 2),
           wl.make_graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]),
           wl.build_lps(5, 13)]
    return gs


def test_srw_kernel_matches_edge_loop(request):
    for g in _kernel_cases(request):
        new, old = srw_chain(g).kernel, reference_srw_kernel(g)
        assert np.array_equal(new.indptr, old.indptr), g
        assert np.array_equal(new.indices, old.indices), g
        assert np.array_equal(new.data, old.data), g
        assert new.indices.dtype == old.indices.dtype


# disjoint unions, labelled so that the components interleave
INTERLEAVED = {
    "c4+c3": (7, [(0, 2), (2, 4), (4, 6), (6, 0), (1, 3), (3, 5), (5, 1)]),
    "c5+c3": (8, [(0, 2), (2, 4), (4, 6), (6, 7), (7, 0), (1, 3), (3, 5),
                  (5, 1)]),
    "p3+p2+k3": (8, [(0, 3), (3, 6), (1, 4), (2, 5), (5, 7), (7, 2)]),
}


@pytest.mark.parametrize("name", sorted(INTERLEAVED))
def test_components_and_period_interleaved(name):
    g = wl.make_graph(*INTERLEAVED[name])
    chain = srw_chain(g)
    assert (chain.components, chain.period_info) == \
        reference_classes(chain.kernel)
    assert chain.components == tuple(
        tuple(c) for c in connected_components(g))
    lazy = chain_from_kernel((chain.kernel + sp.eye(g.n)) / 2,
                             chain.stationary)
    assert (lazy.components, lazy.period_info) == (chain.components,
                                                   APERIODIC)


def test_components_and_period_match_dfs(request):
    expected = {"c4+c3": BIPARTITE_PERIODIC, "c5+c3": APERIODIC}
    for name, period in expected.items():
        assert srw_chain(wl.make_graph(*INTERLEAVED[name])).period_info \
            == period
    chains = [srw_chain(g) for g in _kernel_cases(request)]
    two_step = request.getfixturevalue("two_step")
    chains.append(two_step(request.getfixturevalue("petersen_chain")))
    chains.append(two_step(srw_chain(request.getfixturevalue("c6"))))
    for chain in chains:
        assert (chain.components, chain.period_info) == \
            reference_classes(chain.kernel), chain


# worker counts the sweep is checked at; the same bits at every count
WORKERS = (1, 2, 3)


def patch_workers(monkeypatch, count):
    monkeypatch.setattr(chains, "_workers", lambda: count)


@pytest.mark.parametrize("graph", ["rr200", "lps"])
@pytest.mark.parametrize("exact", [True, False])
def test_mixing_profile_matches_whole_array_sweep(monkeypatch, request, graph,
                                                  exact, lps_chain):
    if graph == "lps":
        # an uncertified copy of the kernel, so every start is swept
        chain = chain_from_kernel(lps_chain.kernel, lps_chain.stationary)
    else:
        chain = srw_chain(request.getfixturevalue("random_cubic_medium"))
    limit = chain.n if exact else chain.n // 2
    monkeypatch.setattr(chains, "EXACT_START_LIMIT", limit)
    ref = reference_sweep(chain, 0.25, limit)
    for workers in WORKERS:
        patch_workers(monkeypatch, workers)
        prof = mixing_profile(chain, [0.25])
        assert prof.exact_starts == exact
        assert (prof.tv_curve, prof.l2sq_curve, prof.worst_starts,
                prof.starts) == ref, workers


@pytest.mark.parametrize("spec", [("lps", 13, 17), ("lps", 17, 13),
                                  ("cycle", 9), ("complete", 6)],
                         ids=lambda spec: "-".join(map(str, spec)))
def test_certified_profile_matches_all_start_sweep(monkeypatch, spec,
                                                   lps_chain):
    if spec == ("lps", 13, 17):
        chain = lps_chain
    elif spec[0] == "lps":
        chain = srw_chain(wl.build_lps(*spec[1:]))
    else:
        chain = srw_chain(wl.build_named(*spec))
    assert chain.transitive
    monkeypatch.setattr(chains, "EXACT_START_LIMIT", 1)
    prof = mixing_profile(chain, [0.25])
    tv, l2, _, starts = reference_sweep(chain, 0.25, chain.n)
    assert prof.exact_starts and prof.starts == (0,) and len(starts) == chain.n
    assert prof.worst_starts == (0,) * len(tv)
    assert np.allclose(prof.tv_curve, tv, rtol=0, atol=1e-13)
    assert np.allclose(prof.l2sq_curve, l2, rtol=0, atol=1e-13)
    for e, t in prof.mixing_times.items():
        assert t == next(s for s, v in enumerate(tv) if v <= e)


def test_only_certified_srw_chains_are_transitive(lps_chain, petersen_chain):
    assert lps_chain.transitive and not petersen_chain.transitive
    assert not chain_from_kernel(lps_chain.kernel,
                                 lps_chain.stationary).transitive


@pytest.mark.parametrize("columns", [2, 3, 7])
def test_mixing_profile_narrow_blocks(monkeypatch, random_cubic_medium,
                                      columns):
    # narrow and uneven blocks sum each column in the same order
    monkeypatch.setattr(chains, "MIXING_BLOCK_COLUMNS", columns)
    chain = srw_chain(random_cubic_medium)
    for limit, count in ((chain.n, 64), (50, 64), (50, 1)):
        monkeypatch.setattr(chains, "EXACT_START_LIMIT", limit)
        monkeypatch.setattr(chains, "SAMPLE_STARTS", count)
        ref = reference_sweep(chain, 0.25, limit, count)
        for workers in WORKERS:
            patch_workers(monkeypatch, workers)
            prof = mixing_profile(chain, [0.25])
            assert (prof.tv_curve, prof.l2sq_curve, prof.worst_starts,
                    prof.starts) == ref, (limit, count, workers)


def test_farthest_point_starts_match_bfs(request, lps_chain):
    from walklab.chains import _farthest_point_starts
    chains = [srw_chain(request.getfixturevalue("random_cubic_medium")),
              lps_chain, srw_chain(wl.inflate(request.getfixturevalue("c6"),
                                              2))]
    for chain in chains:
        for count in (1, 5, 64):
            assert _farthest_point_starts(chain, count) == \
                reference_starts(chain, count)


def test_mixing_profile_snaps_complements_onto_the_grid():
    chain = srw_chain(wl.build_random_regular(64, 3, 1))
    prof = mixing_profile(chain, [0.05, 0.95])
    # 1 - 0.95 is 0.050000000000000044: one key, not two
    assert list(prof.mixing_times) == [0.05, 0.95]
    assert prof.cutoff_ratios[0.05] == \
        prof.mixing_times[0.05] / prof.mixing_times[0.95]
    assert prof.cutoff_ratios[0.95] == \
        prof.mixing_times[0.95] / prof.mixing_times[0.05]
    assert prof.mixing_time(1.0 - 0.95) == prof.mixing_times[0.05]
    assert prof.mixing_time(1.0 - 0.05) == prof.mixing_times[0.95]
    with pytest.raises(KeyError, match="not on the profile grid"):
        prof.mixing_time(0.5)
    # the suites' grid has no such pair, and keeps its exact complements
    prof = mixing_profile(chain, [0.1, 0.25])
    assert list(prof.mixing_times) == [0.1, 0.25, 0.75, 0.9]


def test_classes_computed_once_per_graph_and_never_coloured_when_holding(
        monkeypatch, petersen, c6, q3, two_step):
    calls = []
    support_classes = graphs._support_classes

    def counted(support, colour=True):
        calls.append((support.shape[0], colour))
        return support_classes(support, colour)

    monkeypatch.setattr(graphs, "_support_classes", counted)
    monkeypatch.setattr(chains, "_support_classes", counted)
    k5 = wl.build_named("complete", 5)
    for g, bipartite in ((petersen, False), (c6, True), (q3, True),
                         (k5, False)):
        # a fresh copy: the fixtures may have computed their classes
        g = wl.make_graph(g.n, g.edges)
        assert connected_components(g) == [list(range(g.n))]
        assert graphs.is_connected(g)
        assert graphs.is_bipartite(g) == bipartite
        chain = srw_chain(g)
        assert srw_chain(g).period_info == chain.period_info == (
            BIPARTITE_PERIODIC if bipartite else APERIODIC)
        assert calls == [(g.n, True)]
        two = two_step(chain)
        blend = chain_from_kernel((chain.kernel + two.kernel) * 0.5,
                                  chain.stationary)
        # both hold with positive probability: aperiodic, never coloured
        assert two.period_info == blend.period_info == APERIODIC
        assert blend.components == chain.components
        assert calls == [(g.n, True), (g.n, False), (g.n, False)]
        again = chain_from_kernel(chain.kernel, chain.stationary)
        assert again.period_info == chain.period_info
        assert calls[-1] == (g.n, True)
        calls.clear()


class CountingCsgraph:
    """Stands in for ``scipy.sparse.csgraph`` and records each call."""

    def __init__(self, module):
        self.module, self.calls = module, []

    def __getattr__(self, name):
        fn = getattr(self.module, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return fn(*args, **kwargs)
        return counted


def test_perfect_matching_classes_take_two_csgraph_calls(monkeypatch):
    n = 20_000
    pairs = np.random.default_rng(5).permutation(n).reshape(-1, 2)
    g = wl.make_graph(n, pairs)
    counting = CountingCsgraph(graphs.csgraph)
    monkeypatch.setattr(graphs, "csgraph", counting)
    chain = srw_chain(g)
    # one components call and one search, not one search per class
    assert counting.calls == ["connected_components", "breadth_first_order"]
    assert chain.components == tuple(sorted(map(tuple, np.sort(pairs)
                                                .tolist())))
    assert len(chain.components) == n // 2
    assert chain.period_info == BIPARTITE_PERIODIC
    assert graphs.is_bipartite(g) and not graphs.is_connected(g)
    assert len(counting.calls) == 2


# the peak of srw_chain(inflate(LPS(13,17), 2)) over the bytes of its
# kernel: 6.8 measured (the validation's flux, transposed kernel and
# difference are live together, on top of the ball table and the graph);
# the double cover that sp.bmat built took it to 9.8
SRW_PEAK_PER_KERNEL_BYTE = 7.5


def test_srw_chain_of_the_distance_2_graph_builds_no_cover():
    g = wl.build_lps(13, 17)
    tracemalloc.start()
    try:
        chain = srw_chain(wl.inflate(g, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kernel = chain.kernel
    assert kernel.nnz == 445_536
    own = kernel.data.nbytes + kernel.indices.nbytes + kernel.indptr.nbytes
    assert peak <= SRW_PEAK_PER_KERNEL_BYTE * own
    # the kernel and the graph's CSR arrays alone take 1.67 of it
    assert peak >= 1.67 * own


def _slow_and_rare_chain(g):
    """The walk on g plus two states that mix late in different ways.

    A 10-vertex path hangs off g's vertex 0; its far end, state 110, is the
    last start to mix in TV.  State 20 is joined to g's vertex 50 by a
    conductance of 1e-9 and holds with probability 0.9: its TV falls below
    1/4 early, but its L2 distance stays the largest for a long time after.
    """
    n = g.n + 11
    rest = [x for x in range(n) if x != 20 and not 101 <= x <= 110]
    links = [(rest[u], rest[w], 1.0) for u, w in g.edges]
    links += [(rest[0], 101, 1.0)] + [(x, x + 1, 1.0) for x in range(101, 110)]
    links += [(20, rest[50], 1e-9)]
    u, w, c = map(np.array, zip(*links))
    cond = sp.csr_matrix((np.r_[c, c, 9e-9], (np.r_[u, w, 20], np.r_[w, u, 20])),
                         shape=(n, n))
    weight = np.asarray(cond.sum(axis=1)).ravel()
    return chain_from_kernel(sp.diags(1.0 / weight) @ cond,
                             weight / weight.sum())


def test_mixing_profile_resumes_blocks_that_stop_early(monkeypatch,
                                                       random_cubic_medium):
    # With 7-wide blocks the slow start 110 sits in a middle block of all
    # 211 starts, and in the first block of the sampled ones.  The rare
    # state's block stops first, and the L2 curve after that step is read
    # from its resumed columns.  pi is not uniform: the column path.
    monkeypatch.setattr(chains, "MIXING_BLOCK_COLUMNS", 7)
    chain = _slow_and_rare_chain(random_cubic_medium)
    pt = chain.kernel.T.tocsr()
    pi = chain.stationary[:, None]
    for limit in (chain.n, 50):
        monkeypatch.setattr(chains, "EXACT_START_LIMIT", limit)
        ref = reference_sweep(chain, 0.25, limit)
        for workers in WORKERS:
            patch_workers(monkeypatch, workers)
            prof = mixing_profile(chain, [0.25])
            assert (prof.tv_curve, prof.l2sq_curve, prof.worst_starts,
                    prof.starts) == ref, workers
        starts = list(prof.starts)
        assert prof.worst_starts[-1] == 110 and 20 in starts
        cols = np.zeros((chain.n, len(starts)))
        cols[starts, np.arange(len(starts))] = 1.0
        rare_tv, l2_worst = [], []
        for _ in prof.tv_curve:
            rare_tv.append(0.5 * np.abs(cols[:, starts.index(20)] - pi[:, 0]).sum())
            l2_worst.append(starts[int(np.argmax((cols * cols / pi).sum(axis=0)))])
            cols = pt @ cols
        rare_stop = next(t for t, v in enumerate(rare_tv) if v <= 0.25)
        assert rare_stop + 1 < len(prof.tv_curve) - 1
        assert l2_worst[rare_stop + 1] == 20


@pytest.mark.parametrize("n, seed", [(64, 8), (512, 2)])
def test_fused_l2_is_the_per_term_passes_on_power_of_two_uniform_chains(
        n, seed):
    # pi = 1/n is a power of two, so dividing the sum of squares by it is
    # exact: the L2 curve keeps the bits of square, divide by pi, sum
    chain = srw_chain(wl.build_random_regular(n, 3, seed))
    prof = mixing_profile(chain, [0.25])
    assert (prof.tv_curve, prof.l2sq_curve, prof.worst_starts,
            prof.starts) == reference_sweep(chain, 0.25, n, per_term=True)


@pytest.mark.parametrize("case", ["rr1000", "petersen", "slow-and-rare"])
def test_fused_l2_stays_near_the_per_term_passes(request, case):
    # elsewhere the fused L2 moves only in the last bits; TV does not move
    if case == "rr1000":
        chain = srw_chain(wl.build_random_regular(1000, 3, 5))
    elif case == "petersen":
        chain = request.getfixturevalue("petersen_chain")
    else:
        chain = _slow_and_rare_chain(
            request.getfixturevalue("random_cubic_medium"))
    prof = mixing_profile(chain, [0.25])
    tv, l2, worst, starts = reference_sweep(chain, 0.25, chain.n,
                                            per_term=True)
    assert (prof.tv_curve, prof.worst_starts, prof.starts) == \
        (tv, worst, starts)
    assert np.allclose(prof.l2sq_curve, l2, rtol=1e-12, atol=0)


def test_distances_match_the_transitive_profile(lps_chain):
    # one L2 formula: distances sums one column, as the profile of a
    # transitive chain sums its start 0
    prof = mixing_profile(lps_chain, [0.25])
    assert prof.starts == (0,)
    for t, (tv, l2) in enumerate(zip(prof.tv_curve, prof.l2sq_curve)):
        assert distances(lps_chain, 0, t) == (tv, l2), t


@pytest.mark.parametrize("transitive", [False, True])
def test_mixing_profile_max_steps_boundary(monkeypatch, random_cubic_medium,
                                           lps_chain, transitive):
    # two 100-wide blocks, or start 0 alone
    chain = lps_chain if transitive else srw_chain(random_cubic_medium)
    prof = mixing_profile(chain, [0.25])
    assert len(prof.starts) == (1 if transitive else 200)
    last = len(prof.tv_curve) - 1
    monkeypatch.setattr(chains, "MAX_MIXING_STEPS", last)
    assert mixing_profile(chain, [0.25]) == prof
    monkeypatch.setattr(chains, "MAX_MIXING_STEPS", last - 1)
    with pytest.raises(ChainError, match="no mixing below eps=0.25 within "
                                         f"{last - 1} steps"):
        mixing_profile(chain, [0.25])


def test_mixing_profile_blocks_share_nothing_under_thread_switches(
        monkeypatch, random_cubic_medium):
    # more workers than cores, switching threads every microsecond: a record
    # landing in another block's list, or a spare buffer handed to two
    # blocks at once, would move the curves off the reference
    patch_workers(monkeypatch, 8)
    monkeypatch.setattr(chains, "MIXING_BLOCK_COLUMNS", 7)
    chain = _slow_and_rare_chain(random_cubic_medium)
    ref = reference_sweep(chain, 0.25, chain.n)
    # a corrupted sweep raises within this many steps instead of hanging
    monkeypatch.setattr(chains, "MAX_MIXING_STEPS", 2 * len(ref[0]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        prof = mixing_profile(chain, [0.25])
    finally:
        sys.setswitchinterval(interval)
    assert (prof.tv_curve, prof.l2sq_curve, prof.worst_starts,
            prof.starts) == ref


def test_one_worker_sweeps_in_the_calling_thread(monkeypatch, lps_chain,
                                                 random_cubic_medium):
    # one start (a transitive chain) or one core starts no thread
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    chain = srw_chain(random_cubic_medium)
    mixing_profile(lps_chain, [0.25])
    patch_workers(monkeypatch, 1)
    mixing_profile(chain, [0.25])
    assert started == []
    patch_workers(monkeypatch, 2)
    mixing_profile(chain, [0.25])
    assert len(started) == 2


@pytest.mark.parametrize("case", ["rr200", "lps", "slow-and-rare"])
def test_allocation_free_product_matches_matmul(request, lps_chain, case):
    # the sweep's product calls scipy's private kernels directly; a scipy
    # whose _sparsetools no longer computes pt @ state fails here
    if case == "lps":
        chain = chain_from_kernel(lps_chain.kernel, lps_chain.stationary)
    elif case == "rr200":
        chain = srw_chain(request.getfixturevalue("random_cubic_medium"))
    else:
        chain = _slow_and_rare_chain(
            request.getfixturevalue("random_cubic_medium"))
    pt = chain.kernel.T.tocsr()
    rng = np.random.default_rng(3)
    for width in (None, 1, 2, 3, 128):
        # None: a vector, as the Lanczos recurrence passes it
        state = rng.random(chain.n if width is None else (chain.n, width))
        out = np.full_like(state, np.nan)
        chains.product(pt, state, out)
        assert np.array_equal(out, pt @ state)
    # a strided view would be written through a copy and lose the product
    with pytest.raises(ValueError, match="C-contiguous"):
        chains.product(pt, state, np.empty((chain.n, 2 * width))[:, ::2])


@pytest.mark.parametrize("workers", [2, 3])
def test_mixing_profile_memory_stays_within_its_bound(monkeypatch,
                                                      random_cubic_medium,
                                                      workers):
    # the docstring's bound: 8 n (m + workers width) bytes, 128 bytes of
    # records per block and step, on a non-uniform chain one iterator
    # buffer of numpy's size per worker, and 64 KiB for the kernel
    # transpose and the Python objects; on the uniform rr200 and on the
    # slow-and-rare chain, whose L2 pass weighs every square by 1/pi
    patch_workers(monkeypatch, workers)
    for chain in (srw_chain(random_cubic_medium),
                  _slow_and_rare_chain(random_cubic_medium)):
        n = m = chain.n
        blocks = max(-(-m // chains.MIXING_BLOCK_COLUMNS), workers)
        width = -(-m // blocks)
        uniform = np.all(chain.stationary == chain.stationary[0])
        tracemalloc.start()
        try:
            prof = mixing_profile(chain, [0.25])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(prof.starts) == m
        records = 128 * blocks * len(prof.tv_curve)
        buffers = 0 if uniform else workers * 8 * np.getbufsize()
        assert peak <= 8 * n * (m + workers * width) + records + buffers \
            + 64 * 1024, n
        # the states alone take 8 n m bytes, so the bound is not vacuous
        assert peak >= 8 * n * m


class KernelSubscripts(ast.NodeVisitor):
    """(module, innermost function, line) of every subscript of a kernel:
    ``<anything>.kernel[...]``, or ``kernel[...]`` on a plain name."""

    def __init__(self, module):
        self.module, self.function, self.sites = module, None, []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Subscript(self, node):
        target = node.value
        if isinstance(target, ast.Attribute) and target.attr == "kernel" \
                or isinstance(target, ast.Name) and target.id == "kernel":
            self.sites.append((self.module, self.function, node.lineno))
        self.generic_visit(node)


def kernel_subscripts(package_dir):
    sites = []
    for path in sorted(pathlib.Path(package_dir).glob("*.py")):
        finder = KernelSubscripts(path.stem)
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += finder.sites
    return sites


def test_only_the_family_blocks_slice_a_kernel():
    # every K_A = kernel[A][:, A] comes from chains._family_blocks, which
    # checks each set; a second slicing site would need its own checks
    sites = kernel_subscripts(pathlib.Path(chains.__file__).parent)
    assert [site for site in sites if site[1] != "_family_blocks"] == []
    assert {site[0] for site in sites} == {"chains"}


class SparsetoolsUses(KernelSubscripts):
    """(module, innermost function) of every import of scipy's private
    ``_sparsetools`` and of every attribute read off it."""

    def visit_Subscript(self, node):
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if any(alias.name == "_sparsetools" for alias in node.names) \
                or "_sparsetools" in (node.module or ""):
            self.sites.append((self.module, self.function))

    def visit_Attribute(self, node):
        if getattr(node.value, "id", None) == "_sparsetools":
            self.sites.append((self.module, self.function))
        self.generic_visit(node)


def test_only_the_sweep_product_calls_private_sparsetools():
    # _sparsetools is scipy's private API; one caller, guarded bit for bit
    # by test_allocation_free_product_matches_matmul, keeps an upgrade that
    # changes it to one place
    sites = []
    for path in sorted(pathlib.Path(chains.__file__).parent.glob("*.py")):
        finder = SparsetoolsUses(path.stem)
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += finder.sites
    assert sites == [("chains", None), ("chains", "product"),
                     ("chains", "product")]
