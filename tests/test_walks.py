import math

import numpy as np
import pytest

import walklab as wl
from walklab.graphs import bfs_distances
from walklab.hitting import expected_hit_time, sphere_hit_distribution
from walklab.walks import (WalkError, annotate_trace, block_statistics,
                           empirical_y_kernel, escape_transfer_experiment,
                           make_rng, sample_first_regenerations,
                           simulate_walk, tau)


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


def test_annotation_replay_identity(prism):
    tr = simulate_walk(prism, 0, 2000, 2, seed=13)
    T, good, U = annotate_trace(prism, tr.positions, 2)
    assert T == tr.T
    assert np.array_equal(good, tr.good_flags)
    assert U == tr.U


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
    exact = expected_hit_time(petersen, 0, 2)
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
    rows = empirical_y_kernel(petersen, 2, 100_000, seed=77)
    row = rows[0]
    assert row.tv_deviation <= 0.02
    assert all(abs(v - 1 / 6) < 1e-12 for v in row.exact.values())


def test_empirical_y_kernel_k4(k4):
    rows = empirical_y_kernel(k4, 1, 20_000, seed=5)
    for freq in rows[0].frequencies.values():
        assert abs(freq - 1 / 3) < 0.02


def test_empirical_y_kernel_prism(prism):
    rows = empirical_y_kernel(prism, 2, 20_000, seed=6)
    assert all(abs(v - 0.5) < 1e-12 for v in rows[0].exact.values())
    assert rows[0].tv_deviation < 0.02


def test_empirical_y_kernel_converges(petersen):
    coarse = empirical_y_kernel(petersen, 2, 10_000, seed=123)[0]
    fine = empirical_y_kernel(petersen, 2, 200_000, seed=123)[0]
    assert fine.tv_deviation < coarse.tv_deviation


def test_empirical_y_kernel_needs_trials(petersen):
    with pytest.raises(WalkError, match="trials"):
        empirical_y_kernel(petersen, 2, 500, seed=1)


def test_sample_first_regenerations_matches_hit_time(petersen):
    durations, landings = sample_first_regenerations(
        petersen, 0, 2, 50_000, make_rng(3, 9))
    assert abs(durations.mean() - 3.0) < 4 * durations.std() / math.sqrt(50_000)
    hit = sphere_hit_distribution(petersen, 0, 2)
    assert set(np.unique(landings)) == set(hit.sphere)


def test_escape_transfer_petersen(petersen):
    rep = escape_transfer_experiment(petersen, k=2, t=12, s=6, trials=2000,
                                     seed=14, alpha=0.25)
    assert rep.tau_t == tau(12, 3, 2)
    assert rep.all_passed
    assert rep.srw_escape <= rep.y_escape + rep.slow_regen \
        + 4 * rep.slow_regen_stderr + 1e-9
    assert rep.n_sets > 0


def test_escape_transfer_t_zero(petersen):
    rep = escape_transfer_experiment(petersen, k=2, t=0, s=4, trials=500,
                                     seed=2, alpha=0.25)
    assert rep.tau_t == 0
    assert rep.y_escape == 1.0  # zero-step Y chain never escapes
    assert rep.all_passed


def test_escape_transfer_w_equals_k_on_high_girth(girth5_graph):
    rep = escape_transfer_experiment(girth5_graph, k=2, t=8, s=4, trials=400,
                                     seed=3, alpha=0.02)
    assert rep.k_escape is not None
    assert abs(rep.y_escape - rep.k_escape) < 1e-10
    assert rep.all_passed


def test_escape_transfer_alpha_default(petersen):
    rep = escape_transfer_experiment(petersen, k=2, t=6, s=3, trials=400,
                                     seed=4)
    # (d-1)^{-3k^2} = 2^-12 is far below 1/n = 0.1, so 1/n is used
    assert rep.alpha_used == pytest.approx(0.1)
    assert "alpha defaulted" in rep.note


def test_escape_transfer_alpha_too_small(petersen):
    with pytest.raises(WalkError, match="alpha"):
        escape_transfer_experiment(petersen, k=2, t=6, s=3, trials=100,
                                   seed=4, alpha=0.01)


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

def scalar_slow_regen(g, k, horizon, tau_t, trials, seed):
    """Worst P[fewer than tau_t regenerations] over all starts, one trial
    and one step at a time."""
    dist = [bfs_distances(g, v, cutoff=k) for v in range(g.n)]
    slow = slow_se = 0.0
    for si in range(g.n):
        u = iter(make_rng(seed, 1_000_000 + si).random(trials * horizon)
                 .tolist())
        few = 0
        for _ in range(trials):
            anchor = cur = si
            regens = 0
            for _ in range(horizon):
                nbrs = g.adjacency[cur]
                cur = nbrs[int(next(u) * len(nbrs))]
                if dist[anchor][cur] == k:
                    regens += 1
                    anchor = cur
            few += regens < tau_t
        p_hat = few / trials
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / trials) / trials)
        if p_hat > slow:
            slow, slow_se = p_hat, se
        slow_se = max(slow_se, se)
    return slow, slow_se


@pytest.fixture(scope="module")
def cubic64():
    return wl.build_random_regular(64, 3, 8)


@pytest.mark.parametrize("seed", [3, 8])
def test_slow_regen_matches_scalar_reference(prism, cubic64, seed):
    for g, alpha in ((prism, 0.34), (cubic64, 0.1)):
        rep = escape_transfer_experiment(g, k=2, t=8, s=4, trials=300,
                                         seed=seed, alpha=alpha)
        assert (rep.slow_regen, rep.slow_regen_stderr) == scalar_slow_regen(
            g, 2, 12, rep.tau_t, 300, seed)


def test_first_regenerations_match_scalar_reference(prism, petersen, cubic64):
    for g, anchor, k in ((prism, 0, 2), (petersen, 3, 2), (cubic64, 5, 3)):
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
