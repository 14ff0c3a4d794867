import math

import numpy as np
import pytest

import walklab as wl
from walklab.chains import srw_chain
from walklab.graphs import (BallTable, GraphError, ball_table, bfs_distances,
                            inflate)
from walklab.hitting import CandidateFamily, SphereHits, candidate_small_sets
from walklab.suites import ExperimentConfig, run_suite
from walklab import walks
from walklab.walks import (WalkError, _slow_regenerations, block_statistics,
                           empirical_y_kernel, escape_transfer_experiment,
                           make_rng, sample_first_regenerations,
                           simulate_walk, tau, tv_noise_bound)


def test_tau_values():
    assert tau(60, 3, 2) == 10
    assert tau(61, 3, 2) == 11
    assert tau(0, 3, 2) == 0
    assert tau(7, 5, 3) == math.ceil(3 * 7 / 15)


def test_tau_validation():
    with pytest.raises(WalkError):
        tau(5, 2, 1)


def test_k4_every_step_regenerates(k4):
    tr = simulate_walk(k4, 0, 25, 1, seed=3)
    assert tr.T == tuple(range(26))
    assert all(u == 0 for u in tr.U)


def test_petersen_all_steps_good(petersen):
    tr = simulate_walk(petersen, 0, 5000, 2, seed=8)
    assert tr.good_flags.all()
    assert set(tr.U) == {0}
    assert tr.n_blocks > 1000


def test_prism_has_bad_steps(prism):
    tr = simulate_walk(prism, 0, 5000, 2, seed=8)
    frac = np.mean([u > 0 for u in tr.U])
    assert frac > 0.2  # level-1 vertices have a same-level neighbor


def test_regeneration_distances_exact(petersen):
    tr = simulate_walk(petersen, 0, 3000, 2, seed=5)
    from walklab.graphs import bfs_distances
    for i in range(tr.n_blocks):
        anchor = tr.positions[tr.T[i]]
        dist = bfs_distances(petersen, int(anchor))
        # landing exactly at distance k, strictly inside beforehand
        assert dist[tr.positions[tr.T[i + 1]]] == 2
        for t in range(tr.T[i], tr.T[i + 1]):
            assert dist[tr.positions[t]] < 2


def test_simulation_deterministic(petersen):
    a = simulate_walk(petersen, 0, 500, 2, seed=9, stream=4)
    b = simulate_walk(petersen, 0, 500, 2, seed=9, stream=4)
    assert np.array_equal(a.positions, b.positions)
    c = simulate_walk(petersen, 0, 500, 2, seed=9, stream=5)
    assert not np.array_equal(a.positions, c.positions)


def test_walk_errors(petersen, k4):
    with pytest.raises(WalkError, match="impossible"):
        simulate_walk(k4, 0, 10, 2, seed=1)   # diameter 1 < k
    disconnected = wl.inflate(wl.build_named("cycle", 6), 2)
    with pytest.raises(WalkError, match="connected"):
        simulate_walk(disconnected, 0, 10, 1, seed=1)


def test_block_statistics_petersen(petersen):
    traces = [simulate_walk(petersen, 0, 4000, 2, seed=20, stream=i)
              for i in range(3)]
    stats = block_statistics(traces)
    exact = SphereHits(petersen, 2)[0].expected_time
    assert abs(exact - 3.0) < 1e-12
    assert abs(stats.t1_mean - exact) <= 4 * stats.t1_stderr
    assert stats.u_survival == (0.0,)
    assert stats.decay_ratio is None
    assert all(c.passed for c in stats.checks)


def test_block_statistics_tree_ball_formula(girth5_graph):
    # girth > 4: radius-2 balls are trees, E[T1] = 3k - 4 + 2^{2-k} = 3
    traces = [simulate_walk(girth5_graph, 0, 6000, 2, seed=31, stream=i)
              for i in range(2)]
    stats = block_statistics(traces)
    assert abs(stats.t1_mean - 3.0) <= 4 * stats.t1_stderr


def test_block_statistics_prism_decay(prism):
    traces = [simulate_walk(prism, 0, 8000, 2, seed=40, stream=i)
              for i in range(2)]
    stats = block_statistics(traces)
    assert stats.u_survival[0] > 0.0
    assert all(s1 >= s2 for s1, s2 in zip(stats.u_survival,
                                          stats.u_survival[1:]))
    assert stats.u_survival[-1] < 1.0
    assert stats.decay_ratio is not None and 0 < stats.decay_ratio < 1


def test_block_statistics_needs_blocks(petersen):
    tr = simulate_walk(petersen, 0, 30, 2, seed=1)
    with pytest.raises(WalkError, match="blocks"):
        block_statistics([tr])


def test_empirical_y_kernel_petersen(petersen):
    rows = empirical_y_kernel(SphereHits(petersen, 2), 100_000, seed=77)
    row = rows[0]
    assert row.tv_deviation <= 0.02
    assert all(abs(v - 1 / 6) < 1e-12 for v in row.exact.values())


def test_empirical_y_kernel_k4(k4):
    rows = empirical_y_kernel(SphereHits(k4, 1), 20_000, seed=5)
    for freq in rows[0].frequencies.values():
        assert abs(freq - 1 / 3) < 0.02


def test_empirical_y_kernel_prism(prism):
    rows = empirical_y_kernel(SphereHits(prism, 2), 20_000, seed=6)
    assert all(abs(v - 0.5) < 1e-12 for v in rows[0].exact.values())
    assert rows[0].tv_deviation < 0.02


def test_empirical_y_kernel_converges(petersen):
    coarse = empirical_y_kernel(SphereHits(petersen, 2), 10_000, seed=123)[0]
    fine = empirical_y_kernel(SphereHits(petersen, 2), 200_000,
                              seed=123)[0]
    assert fine.tv_deviation < coarse.tv_deviation


@pytest.mark.parametrize("call, bad", [
    (lambda g: empirical_y_kernel(SphereHits(g, 2), 10_000, seed=1,
                                  anchors=[10]), 10),
    (lambda g: simulate_walk(g, 10, 20, 2, seed=1), 10),
    (lambda g: simulate_walk(g, -1, 20, 2, seed=1), -1)],
    ids=["y-kernel-anchor", "walk-start-10", "walk-start--1"])
def test_walks_reject_out_of_range_vertices(petersen, call, bad):
    # the ball table has no pair for an anchor outside 0..n-1, and its home
    # positions indexed at -1 read vertex n-1
    with pytest.raises(GraphError, match=f"^vertex {bad} out of range"):
        call(petersen)


def test_empirical_y_kernel_needs_trials(petersen):
    with pytest.raises(WalkError, match="trials"):
        empirical_y_kernel(SphereHits(petersen, 2), 500, seed=1)


def test_sample_first_regenerations_matches_hit_time(petersen):
    durations, landings = sample_first_regenerations(
        petersen, 0, 2, 50_000, make_rng(3, 9))
    assert abs(durations.mean() - 3.0) < 4 * durations.std() / math.sqrt(50_000)
    hit = SphereHits(petersen, 2)[0]
    assert set(np.unique(landings)) == set(hit.sphere)


def escape_transfer(g, alpha, k, **kwargs):
    """The escape experiment on g with the candidate family at alpha."""
    chain = srw_chain(g)
    sets = candidate_small_sets(chain, alpha, graph=g)
    gk = inflate(g, k)
    k_chain = srw_chain(gk) if gk.degree_profile.min_degree > 0 else None
    return escape_transfer_experiment(SphereHits(g, k), chain, sets, k_chain,
                                      **kwargs)


def test_escape_transfer_petersen(petersen):
    rep = escape_transfer(petersen, 0.25, k=2, t=12, s=6)
    assert rep.tau_t == tau(12, 3, 2)
    assert rep.all_passed
    check = rep.checks[0]
    # the bound itself, with the rounding slack in the pass test only
    assert check.rhs == rep.y_escape + rep.slow_regen
    assert rep.srw_escape <= check.rhs + 1e-9
    assert rep.slow_regen == float(
        _slow_regenerations(petersen, 2, rep.tau_t, 18).max())
    assert rep.n_sets > 0


@pytest.mark.parametrize("name", ["petersen", "rr512", "lps13_17"])
def test_escape_transfer_takes_a_list_of_sets(request, name):
    # the family steps only its tops, the list every set: the same
    # report, srw_escape, y_escape, k_escape, n_sets and slow_regen alike
    g = request.getfixturevalue(name)
    chain = srw_chain(g)
    family = candidate_small_sets(chain, 0.25, graph=g)
    k_chain = srw_chain(inflate(g, 2))
    hits = SphereHits(g, 2)
    reps = [escape_transfer_experiment(hits, chain, sets, k_chain, t=6, s=3)
            for sets in (family, list(family))]
    assert reps[0] == reps[1] and reps[0].n_sets == len(family)


@pytest.mark.parametrize("name", ["petersen", "rr512"])
def test_escape_transfer_reads_a_list_as_its_packed_family(request, name):
    # a list out of lexicographic order, and the family packed from it
    g = request.getfixturevalue(name)
    chain = srw_chain(g)
    sets = list(candidate_small_sets(chain, 0.25, graph=g))[::-2]
    k_chain = srw_chain(inflate(g, 2))
    hits = SphereHits(g, 2)
    reps = [escape_transfer_experiment(hits, chain, given, k_chain, t=6, s=3)
            for given in (sets, CandidateFamily.of(sets))]
    assert reps[0] == reps[1] and reps[0].n_sets == len(sets)
    # an (m, s) int array of sets reads as the list of its rows
    rows = [A for A in sets if len(A) == len(sets[0])]
    reps = [escape_transfer_experiment(hits, chain, given, k_chain, t=6, s=3)
            for given in (rows, np.array(rows))]
    assert reps[0] == reps[1] and reps[0].n_sets == len(rows)


def test_escape_transfer_t_zero(petersen):
    rep = escape_transfer(petersen, 0.25, k=2, t=0, s=4)
    assert rep.tau_t == 0
    assert rep.y_escape == 1.0  # zero-step Y chain never escapes
    assert rep.slow_regen == 0.0  # fewer than 0 regenerations never happen
    assert rep.all_passed


def test_escape_transfer_w_equals_k_on_high_girth(girth5_graph):
    rep = escape_transfer(girth5_graph, 0.02, k=2, t=8, s=4)
    assert rep.k_escape is not None
    assert abs(rep.y_escape - rep.k_escape) < 1e-10
    assert rep.all_passed


def test_escape_transfer_alpha_too_small(petersen):
    with pytest.raises(WalkError, match="alpha"):
        escape_transfer(petersen, 0.01, k=2, t=6, s=3)


def test_trace_csv_rows(petersen):
    tr = simulate_walk(petersen, 0, 50, 2, seed=1)
    rows = tr.csv_rows()
    assert len(rows) == 51
    assert rows[0] == (0, 0, 0, True)
    from walklab.graphs import bfs_distances
    for t, vertex, anchor, good in rows:
        assert bfs_distances(petersen, anchor)[vertex] < 2 or t in tr.T
    # anchor switches exactly at regeneration times
    anchors = tr.anchors()
    for i, T in enumerate(tr.T):
        assert anchors[T] == tr.positions[T]


# -- array kernels against scalar references ---------------------------------
# Each reference walks one trajectory at a time with plain BFS distances and
# consumes the Philox stream in the documented draw order.

def scalar_slow_regen(g, k, horizon, tau_t, trials, seed, starts):
    """Monte Carlo P[fewer than tau_t regenerations] at each of
    ``starts``, one trial and one step at a time."""
    dist = {}
    out = []
    for si, start in enumerate(starts):
        u = iter(make_rng(seed, 1_000_000 + si).random(trials * horizon)
                 .tolist())
        few = 0
        for _ in range(trials):
            anchor = cur = start
            regens = 0
            for _ in range(horizon):
                nbrs = g.adjacency[cur]
                cur = nbrs[int(next(u) * len(nbrs))]
                if anchor not in dist:
                    dist[anchor] = bfs_distances(g, anchor, cutoff=k)
                if dist[anchor][cur] == k:
                    regens += 1
                    anchor = cur
            few += regens < tau_t
        out.append(few / trials)
    return out


def path_regeneration_counts(g, k, start, depth):
    """``counts[h][r]``: how many of the paths of h <= depth steps from
    ``start`` regenerate r times, by enumerating every path."""
    dist = {}
    counts = [{} for _ in range(depth + 1)]
    stack = [(start, start, 0, 0)]
    while stack:
        anchor, cur, h, r = stack.pop()
        counts[h][r] = counts[h].get(r, 0) + 1
        if h == depth:
            continue
        if anchor not in dist:
            dist[anchor] = bfs_distances(g, anchor, cutoff=k)
        for w in g.adjacency[cur]:
            if dist[anchor][w] == k:
                stack.append((w, w, h + 1, r + 1))
            else:
                stack.append((anchor, w, h + 1, r))
    return counts


@pytest.fixture(scope="module")
def cubic64():
    return wl.build_random_regular(64, 3, 8)


@pytest.fixture(scope="module")
def rr512():
    return wl.build_random_regular(512, 3, 2)


@pytest.fixture(scope="module")
def lps13_17():
    return wl.build_lps(13, 17)


@pytest.fixture(scope="module")
def q4():
    return wl.build_named("hypercube", 4)


@pytest.fixture(scope="module")
def irregular():
    """Connected, degrees 1 to 5, with triangles and a 4-cycle."""
    return wl.make_graph(13, [
        (0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5), (5, 6),
        (6, 7), (7, 4), (5, 8), (8, 9), (9, 10), (10, 11), (11, 8), (2, 9),
        (4, 6), (11, 12)])


def few_sets(g):
    """Three small sets around vertex 0: a singleton, an edge and the
    radius-1 ball, as a candidate family."""
    ball = (0,) + g.adjacency[0]
    sets = sorted({(0,), tuple(sorted(ball[:2])), tuple(sorted(ball))})
    offsets = np.cumsum([0] + [len(s) for s in sets])
    return CandidateFamily(np.concatenate(sets).astype(np.int64), offsets)


@pytest.mark.parametrize("seed", [3, 8])
def test_slow_regen_matches_scalar_reference(prism, cubic64, lps13_17, seed):
    # the report's term is the exact maximum over the family's members,
    # and each member's value lies within 4 stderr of 300 Monte Carlo
    # trials, the stderr taken at the exact value
    for g, alpha, k in ((prism, 0.34, 2), (cubic64, 0.1, 2), (cubic64, 0.1, 3),
                        (lps13_17, None, 2)):
        chain = srw_chain(g)
        sets = few_sets(g) if alpha is None \
            else candidate_small_sets(chain, alpha, graph=g)
        rep = escape_transfer_experiment(SphereHits(g, k), chain, sets, None,
                                         t=8, s=4)
        exact = _slow_regenerations(g, k, rep.tau_t, 12)
        members = np.unique(sets.members).tolist()
        assert rep.slow_regen == float(exact[members].max())
        for a, p_hat in zip(members, scalar_slow_regen(
                g, k, 12, rep.tau_t, 300, seed, members)):
            p = exact[a]
            se = math.sqrt(max(p * (1.0 - p), 1.0 / 300) / 300)
            assert abs(p - p_hat) <= 4 * se
    assert 0 < rep.slow_regen < 1


@pytest.mark.parametrize("name,k,depth", [
    ("petersen", 2, 8), ("prism", 2, 8), ("q3", 2, 8), ("cubic64", 2, 6),
    ("cubic64", 3, 6)])
def test_slow_regen_equals_path_sum(request, name, k, depth):
    # P_a[fewer than tau regenerations in h steps] summed over all d^h
    # paths, exactly; q3 is certified and steps anchor 0's ball alone
    g = request.getfixturevalue(name)
    d = g.regular_degree
    counts = [path_regeneration_counts(g, k, a, depth) for a in range(g.n)]
    for h in range(depth + 1):
        for tau_t in range(4):
            want = [sum(c for r, c in per_start[h].items() if r < tau_t)
                    / d ** h for per_start in counts]
            got = _slow_regenerations(g, k, tau_t, h)
            assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("name", ["lps13_17", "q4"])
def test_slow_regen_quotient_matches_all_positions(request, name):
    # the certified graph steps anchor 0's ball; an uncertified relabelled
    # copy steps every position and must agree at every start
    g = request.getfixturevalue(name)
    assert wl.vertex_transitive(g)
    perm = np.random.Generator(np.random.Philox(key=np.uint64(9))) \
        .permutation(g.n)
    bare = wl.make_graph(g.n, perm[np.array(g.edges)], g.provenance)
    assert not wl.vertex_transitive(bare)
    for t, s in ((12, 6), (30, 15)):
        tau_t = tau(t, g.regular_degree, 2)
        quotient = _slow_regenerations(g, 2, tau_t, t + s)
        full = _slow_regenerations(bare, 2, tau_t, t + s)
        assert 0 < quotient[0] < 1
        assert np.allclose(full[perm], quotient, rtol=1e-12, atol=0)


def test_slow_regen_work_bound(petersen, monkeypatch, tmp_path):
    # past the bound the experiment raises and the walk suite records the
    # escape check as skipped with the same note
    monkeypatch.setattr(walks, "SLOW_REGEN_WORK", 1000)
    with pytest.raises(WalkError, match="SLOW_REGEN_WORK"):
        escape_transfer(petersen, 0.25, k=2, t=12, s=6)
    report, _ = run_suite(ExperimentConfig(
        graph={"kind": "named", "name": "petersen"}, suites=("walk",),
        trials=200, seed=3, out_dir=str(tmp_path)))
    escape = [r for r in report.records
              if r["name"] == "escape-decomposition"]
    assert [(r["passed"], r["note"]) for r in escape] == [
        (None, "skipped: exact slow-regeneration term needs 4.32e+03 "
               "multiply-adds, above SLOW_REGEN_WORK = 1e+03")]


def test_walk_suite_skips_escape_on_an_empty_family(tmp_path):
    # alpha below 1/n leaves no candidate set: a skipped record, no crash
    report, _ = run_suite(ExperimentConfig(
        graph={"kind": "named", "name": "petersen"}, suites=("walk",),
        alpha=0.05, trials=200, seed=3, out_dir=str(tmp_path)))
    assert [(r["passed"], r["note"]) for r in report.records
            if r["name"] == "escape-decomposition"] == [
        (None, "skipped: candidate family is empty: no set has mass <= alpha")]


def test_walk_records_do_not_depend_on_the_other_suites(tmp_path):
    # alone, the walk suite solves W's row 0 by itself; after the inflation
    # suite it reads the row from that suite's batch of all 512 centers
    graph = {"kind": "random-regular", "n": 512, "d": 3, "seed": 2}
    walk_records = []
    for suites in (("walk",), ("spectral", "mixing", "hitting", "inflation",
                               "tree", "walk")):
        report, _ = run_suite(ExperimentConfig(
            graph=graph, suites=suites, k=3, trials=10_000, seed=2,
            out_dir=str(tmp_path / suites[0])))
        walk_records.append([r for r in report.records
                             if r["suite"] == "walk"])
    assert walk_records[0] == walk_records[1]
    assert any(r["name"] == "escape-decomposition" and r["passed"]
               for r in walk_records[0])


def test_first_regenerations_match_scalar_reference(prism, petersen, cubic64,
                                                    lps13_17, irregular):
    for g, anchor, k in ((prism, 0, 2), (petersen, 3, 2), (cubic64, 5, 3),
                         (lps13_17, 7, 2), (irregular, 0, 2),
                         (irregular, 12, 3), (irregular, 6, 4)):
        durations, landings = sample_first_regenerations(
            g, anchor, k, 3000, make_rng(4, 2))
        dist = bfs_distances(g, anchor, cutoff=k)
        u = iter(make_rng(4, 2).random(int(durations.sum())).tolist())
        for duration, landing in zip(durations, landings):
            cur, steps = anchor, 0
            while dist[cur] != k:
                nbrs = g.adjacency[cur]
                cur = nbrs[int(next(u) * len(nbrs))]
                steps += 1
            assert (steps, cur) == (duration, landing)


def offset_first_regenerations(g, anchor, k, trials, rng):
    """Reference: the walks from every offset of a batch of uniforms run in
    lockstep through the ball's step table, and the trials are read off by
    hopping from each trial's offset to offset + duration."""
    ball = ball_table(g, k)
    first, target = ball.steps
    durations, landings = [], []
    u = np.empty(0)
    while len(durations) < trials:
        mean = sum(durations) / len(durations) if durations else 4.0
        more = int(1.25 * mean * (trials - len(durations))) + 64
        u = np.concatenate((u, rng.random(more)))
        steps = np.zeros(len(u), dtype=np.int64)
        landing = np.zeros(len(u), dtype=np.int64)
        walker = np.arange(len(u))
        pos = np.full(len(u), ball.home[anchor])
        t = 0
        while len(walker):
            live = walker + t < len(u)
            walker, pos = walker[live], pos[live]
            row = first[pos]
            degs = first[pos + 1] - row
            pos = target[row + (u[walker + t] * degs).astype(np.int64)]
            t += 1
            hit = ball.dist[pos] == ball.k
            steps[walker[hit]] = t
            landing[walker[hit]] = ball.vertex(pos[hit])
            walker, pos = walker[~hit], pos[~hit]
        steps, landing = steps.tolist(), landing.tolist()
        o = 0
        while len(durations) < trials and o < len(u) and steps[o]:
            durations.append(steps[o])
            landings.append(landing[o])
            o += steps[o]
        u = u[o:]
    return np.array(durations), np.array(landings)


@pytest.mark.parametrize("trials", [1, 3000])
def test_first_regenerations_match_offset_sampler(prism, petersen, cubic64,
                                                  lps13_17, irregular,
                                                  trials):
    for g, anchor, k in ((prism, 0, 2), (petersen, 3, 2), (cubic64, 5, 3),
                         (lps13_17, 7, 2), (irregular, 0, 2),
                         (irregular, 12, 3), (irregular, 6, 4)):
        rng, ref_rng = make_rng(4, 2), make_rng(4, 2)
        durations, landings = sample_first_regenerations(g, anchor, k,
                                                         trials, rng)
        want = offset_first_regenerations(g, anchor, k, trials, ref_rng)
        assert np.array_equal(durations, want[0])
        assert np.array_equal(landings, want[1])
        # the same batches were drawn: the generators end in one state
        assert rng.random() == ref_rng.random()


def test_walkers_read_only_the_ball_table():
    # every walker in walks steps through ball_table(g, k).steps or reads
    # the table's moves; none reads the adjacency lists, and the table
    # offers no distance search
    import ast
    import inspect
    from walklab import walks
    tree = ast.parse(inspect.getsource(walks))
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]

    def readers(attr):
        return {f.name for f in functions for node in ast.walk(f)
                if isinstance(node, ast.Attribute) and node.attr == attr}

    assert readers("adjacency") == set()
    assert readers("steps") >= {"simulate_walk", "sample_first_regenerations"}
    assert readers("moves") >= {"simulate_walk", "_slow_regenerations"}
    assert not hasattr(BallTable, "distance")


def test_escape_check_draws_no_randomness():
    # the escape check is exact: no sampler may come back into it
    import ast
    import inspect
    def called(fn):
        return {node.func.id for node in ast.walk(ast.parse(
                    inspect.getsource(fn)))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)}

    assert "_slow_regenerations" in called(escape_transfer_experiment)
    for fn in (escape_transfer_experiment, _slow_regenerations):
        assert "make_rng" not in called(fn)


def scalar_annotation(g, positions, k):
    """(T, good, U) with a fresh BFS at every regeneration."""
    T = [0]
    good = np.zeros(len(positions), dtype=bool)
    dist = bfs_distances(g, int(positions[0]), cutoff=k)
    for j, p in enumerate(positions):
        dp = dist[p]
        farther = sum(1 for w in g.adjacency[p]
                      if dist[w] < 0 or dist[w] > dp)
        good[j] = farther >= g.degree(p) - 1
        if j + 1 < len(positions) and dist[positions[j + 1]] == k:
            T.append(j + 1)
            dist = bfs_distances(g, int(positions[j + 1]), cutoff=k)
    U = tuple(int(T[i + 1] - T[i] - good[T[i]:T[i + 1]].sum())
              for i in range(len(T) - 1))
    return tuple(T), good, U


def test_annotation_matches_scalar_reference(prism, cubic64, girth5_graph):
    for g, k in ((prism, 2), (cubic64, 2), (cubic64, 3), (girth5_graph, 2)):
        tr = simulate_walk(g, 1, 3000, k, seed=6, stream=2)
        T, good, U = scalar_annotation(g, tr.positions, k)
        assert (tr.T, tr.U) == (T, U)
        assert np.array_equal(tr.good_flags, good)


def test_walk_positions_follow_draw_order(cubic64):
    tr = simulate_walk(cubic64, 7, 500, 2, seed=12, stream=3)
    u = make_rng(12, 3).random(500)
    cur = 7
    for j in range(1, 501):
        cur = cubic64.adjacency[cur][int(u[j - 1] * 3)]
        assert tr.positions[j] == cur


def _tv_of_draw(law, sample_from, trials, seed):
    """TV from ``law`` of the empirical law of ``trials`` draws from
    ``sample_from``, by one seeded multinomial draw."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    counts = rng.multinomial(trials, sample_from)
    return 0.5 * float(np.abs(counts / trials - law).sum())


def test_tv_noise_bound_grows_with_the_support():
    trials = 100_000
    pet, big = np.full(6, 1 / 6), np.full(306, 1 / 306)
    assert tv_noise_bound(pet, trials) == pytest.approx(0.011847, abs=1e-6)
    assert tv_noise_bound(big, trials) == pytest.approx(0.035925, abs=1e-6)
    # an exact sampler passes on LPS(17,13)'s 306-cell 2-sphere, where the
    # old fixed 0.02 sat below the mean noise (0.022)
    for seed in range(5):
        tv = _tv_of_draw(big, big, trials, seed)
        assert 0.02 < tv <= tv_noise_bound(big, trials)
    # a law at TV 0.05 from the exact one fails on 6 cells and on 306
    for law in (pet, big):
        off = law.copy()
        half = len(law) // 2
        off[:half] += 0.05 / half
        off[half:] -= 0.05 / (len(law) - half)
        assert 0.5 * np.abs(off - law).sum() == pytest.approx(0.05)
        for seed in range(5):
            assert _tv_of_draw(law, off, trials, seed) \
                > tv_noise_bound(law, trials)


def test_walk_suite_gates_against_the_noise_bound(tmp_path):
    cfg = ExperimentConfig(graph={"kind": "named", "name": "petersen"},
                           suites=("walk",), trials=100_000, seed=3,
                           out_dir=str(tmp_path))
    report, _ = run_suite(cfg)
    rec = next(r for r in report.records
               if r["name"] == "empirical-y-kernel-tv")
    assert rec["rhs"] == tv_noise_bound(np.full(6, 1 / 6), 100_000)
    assert rec["passed"] is True and rec["lhs"] <= rec["rhs"]
