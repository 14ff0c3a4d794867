import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from walklab.chains import srw_chain
from walklab.graphs import GraphError
from walklab.tree import (TreeError, ballot_count, count_z_paths,
                          diameter_lower_bound, inv_normal_cdf,
                          kernel_domination_check, level_distribution,
                          level_hitting_time, level_profile, sphere_size,
                          td1_bound_check, tree_distance_concentration,
                          tree_kernel)


# -- exact-rational oracle for the level chain --------------------------------

def level_dp_fractions(d, t, no_return=False):
    """Same DP in exact rationals; the float path must match to 1e-15."""
    up, down = Fraction(d - 1, d), Fraction(1, d)
    p = {0: Fraction(1)}
    for _ in range(t):
        nxt = {}
        for lvl, mass in p.items():
            if lvl == 0:
                nxt[1] = nxt.get(1, Fraction(0)) + mass
            else:
                nxt[lvl + 1] = nxt.get(lvl + 1, Fraction(0)) + mass * up
                if lvl == 1 and no_return:
                    pass
                else:
                    nxt[lvl - 1] = nxt.get(lvl - 1, Fraction(0)) + mass * down
        p = nxt
    return p


def test_level_distribution_examples():
    assert level_distribution(3, 1, 1) == 1.0
    assert abs(level_distribution(3, 2, 2) - 2 / 3) < 1e-15
    assert abs(level_distribution(3, 3, 1, no_return=True) - 2 / 9) < 1e-15


def test_level_distribution_matches_rational_dp():
    for d, t in ((3, 9), (4, 8), (5, 7)):
        for no_return in (False, True):
            exact = level_dp_fractions(d, t, no_return)
            for k in range(t + 1):
                want = float(exact.get(k, Fraction(0)))
                got = level_distribution(d, t, k, no_return)
                assert abs(got - want) < 1e-14, (d, t, k, no_return)


def reference_level_distribution(d, t, k, no_return=False):
    """The DP loop level_distribution ran before it read level_profile."""
    if k > t:
        return 0.0
    p = np.zeros(t + 1)
    p[0] = 1.0
    up = (d - 1.0) / d
    down = 1.0 / d
    for step in range(t):
        nxt = np.zeros(t + 1)
        nxt[1] += p[0]
        if step + 1 <= t:
            hi = min(step + 1, t)
            nxt[2:hi + 1] += p[1:hi] * up
        if not no_return:
            nxt[0] += p[1] * down
        nxt[1:t] += p[2:t + 1] * down
        p = nxt
    return float(p[k])


def test_level_distribution_bitwise_equal_to_old_dp():
    for d in (3, 4, 7):
        for t in (0, 1, 2, 5, 13, 30):
            for no_return in (False, True):
                for k in range(t + 2):
                    assert level_distribution(d, t, k, no_return) == \
                        reference_level_distribution(d, t, k, no_return)


def test_level_guards():
    with pytest.raises(TreeError):
        level_profile(3, -1)
    with pytest.raises(TreeError):
        level_distribution(3, -1, 0)
    with pytest.raises(TreeError):
        level_distribution(3, 2, -1)
    with pytest.raises(TreeError, match="horizon"):
        level_distribution(3, 10_001, 0)
    with pytest.raises(TreeError, match="degree"):
        level_distribution(2, 3, 1)


def test_level_profile_sums_to_one():
    for d in (3, 5):
        for t in (1, 7, 40):
            assert abs(level_profile(d, t).sum() - 1.0) < 1e-12


def test_level_parity():
    p = level_profile(3, 9)
    assert p[0::2].sum() == 0.0  # odd time: even levels empty


def test_level_chain_monte_carlo():
    # 10^6 simulated level walks agree with the DP within 4 SE
    rng = np.random.Generator(np.random.Philox(key=np.uint64(42)))
    d, t, trials = 3, 8, 1_000_000
    steps = rng.random((trials, t))
    lvl = np.zeros(trials, dtype=np.int64)
    for j in range(t):
        up = (lvl == 0) | (steps[:, j] < (d - 1) / d)
        lvl = np.where(up, lvl + 1, lvl - 1)
    profile = level_profile(d, t)
    for k in range(0, t + 1, 2):
        p = profile[k]
        freq = float(np.mean(lvl == k))
        se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(freq - p) <= 4 * se, k


def test_tree_kernel_values():
    assert abs(tree_kernel(3, 1, 1) - 1 / 3) < 1e-15
    assert abs(tree_kernel(3, 2, 2) - 1 / 9) < 1e-15
    assert abs(tree_kernel(3, 3, 1) - 5 / 27) < 1e-15


def test_tree_kernel_path_product():
    # at k = t the only contribution is the straight path
    for d in (3, 4, 5):
        for k in (1, 2, 3, 4):
            path_prob = ((d - 1) / d) ** (k - 1) * (1 / d) ** 0 / sphere_size(d, k)
            # first step forced; remaining k-1 steps go up w.p. (d-1)/d
            assert abs(tree_kernel(d, k, k) - path_prob / 1.0) < 1e-15


def test_sphere_size():
    assert sphere_size(3, 0) == 1
    assert sphere_size(3, 1) == 3
    assert sphere_size(3, 4) == 3 * 2 ** 3


def test_level_hitting_time_closed_form():
    # d = 3: expected time to reach level k is 3k - 4 + 2^{2-k}
    for k in range(1, 12):
        assert abs(level_hitting_time(3, k) - (3 * k - 4 + 2.0 ** (2 - k))) < 1e-9


# -- the staying-positive bound ----------------------------------------------

def test_td1_k1_closed_form():
    rep = td1_bound_check(3, 1)
    assert abs(rep.lhs - 2 / 9) < 1e-15
    assert abs(rep.rhs - (1 / 8) * 16 / 9) < 1e-15
    assert abs(rep.max_c0 - 0.125) < 1e-12
    assert rep.passed


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_td1_passes_at_one_eighth(d, k):
    rep = td1_bound_check(d, k)
    assert rep.passed
    assert rep.max_c0 >= 0.125 - 1e-12


def test_td1_max_c0_is_degree_free():
    # lhs/rhs both carry (d-1)^{k^2+k-1} d^{1-m}: the feasible constant
    # depends only on the signed-path count
    vals = {d: td1_bound_check(d, 2).max_c0 for d in (3, 4, 5)}
    assert max(vals.values()) - min(vals.values()) < 1e-12


def test_td1_budget():
    with pytest.raises(TreeError, match="budget"):
        td1_bound_check(3, 7)


# -- signed-step path counting -------------------------------------------------

def brute_force_z_paths(k):
    t = k + 2 * k * k
    count = 0
    for steps in itertools.product((1, -1), repeat=t):
        pos = 0
        ok = True
        for i, s in enumerate(steps):
            pos += s
            if pos == 0 and i < t - 1:
                ok = False
                break
        if ok and pos == k:
            count += 1
    return count


def test_count_z_paths_k1_brute_force():
    # 8 signed sequences of length 3; only (+,+,-) works
    assert brute_force_z_paths(1) == 1
    assert count_z_paths(1) == 1


def test_count_z_paths_values():
    assert count_z_paths(1) == 1
    assert count_z_paths(2) == 42
    assert count_z_paths(3) == 41990


def test_count_z_paths_matches_ballot():
    for k in range(1, 7):
        assert count_z_paths(k) == ballot_count(k)


def test_ballot_closed_form_values():
    assert ballot_count(2) == math.comb(9, 5) - math.comb(9, 6)
    assert ballot_count(3) == math.comb(20, 11) - math.comb(20, 12)


def test_z_path_ratio_lower_bound():
    ratios = [count_z_paths(k) * k * k / 2.0 ** (k + 2 * k * k)
              for k in (1, 2, 3, 4)]
    assert all(r >= 0.12 for r in ratios)
    assert abs(ratios[0] - 0.125) < 1e-15
    assert abs(ratios[1] - 0.1640625) < 1e-15


def test_z_walk_no_return_probability():
    # P[never return to 0 before reaching k] = 1/(2k) for SRW on the
    # integers: forced coin + gambler's ruin from 1
    for k in (1, 2, 3, 5):
        p = Fraction(1, 2) * Fraction(1, k)
        # absorbing DP oracle on {0..k}
        probs = {i: Fraction(0) for i in range(k + 1)}
        probs[1] = Fraction(1, 2)   # first step up
        # solve h(i) = P[hit k before 0 | at i] by linearity: h(i) = i/k
        reach = sum(probs[i] * Fraction(i, k) for i in range(1, k + 1))
        assert reach == p


# -- normal quantiles and the diameter bound ----------------------------------

def test_inv_normal_reference_values():
    assert inv_normal_cdf(0.5) == 0.0
    assert abs(inv_normal_cdf(0.975) - 1.959964) < 1e-6
    assert abs(inv_normal_cdf(0.0013499) - (-3.0)) < 1e-4
    assert abs(inv_normal_cdf(0.841344746) - 1.0) < 1e-6


def test_inv_normal_against_scipy():
    for p in (0.001, 0.025, 0.31, 0.5, 0.77, 0.999):
        assert abs(inv_normal_cdf(p) - stats.norm.ppf(p)) < 1e-8


def test_inv_normal_domain():
    with pytest.raises(TreeError):
        inv_normal_cdf(0.0)
    with pytest.raises(TreeError):
        inv_normal_cdf(1.0)


def test_diameter_lower_bound_values():
    mid = diameter_lower_bound(10 ** 6, 3, 0.5)
    assert abs(mid - 3 * math.log2(10 ** 6)) < 1e-9
    hi = diameter_lower_bound(10 ** 6, 3, 0.975)
    c3 = 2 * math.sqrt(6)
    want = mid + c3 * 1.9599639845400545 * math.sqrt(math.log2(10 ** 6))
    assert abs(hi - want) < 1e-6
    assert 102.0 < hi < 103.5


def test_c_d_constant():
    # c_3 = 2 sqrt(3 * 2) / 1 = 2 sqrt 6
    lo = diameter_lower_bound(1024, 3, 0.6)
    base = diameter_lower_bound(1024, 3, 0.5)
    slope = (lo - base) / (inv_normal_cdf(0.6) * math.sqrt(10))
    assert abs(slope - 2 * math.sqrt(6)) < 1e-9


# -- kernel domination ---------------------------------------------------------

def test_kernel_domination_k4(k4):
    rep = kernel_domination_check(k4, srw_chain(k4), 0, 1, 1)
    assert abs(rep.graph_kernel - 1 / 3) < 1e-15
    assert abs(rep.tree_value - 1 / 3) < 1e-15
    rep2 = kernel_domination_check(k4, srw_chain(k4), 0, 1, 2)
    assert abs(rep2.graph_kernel - 2 / 9) < 1e-15
    assert rep2.tree_value == 0.0  # parity kills the tree side
    assert rep2.passed


def test_kernel_domination_petersen_equality(petersen):
    rep = kernel_domination_check(petersen, srw_chain(petersen), 0, 1, 3)
    assert abs(rep.graph_kernel - 5 / 27) < 1e-14
    assert abs(rep.tree_value - 5 / 27) < 1e-14
    assert rep.passed


def test_kernel_domination_sweep(petersen, prism, girth5_graph):
    for g in (petersen, prism):
        chain = srw_chain(g)
        for t in range(1, 7):
            for y in (1, g.n - 1):
                rep = kernel_domination_check(g, chain, 0, y, t)
                assert rep.passed, (g.provenance, y, t)
    rep = kernel_domination_check(girth5_graph, srw_chain(girth5_graph), 0,
                                  girth5_graph.adjacency[0][0], 5)
    assert rep.passed


@pytest.mark.parametrize("x, y, bad", [(0, -1, -1), (0, 10, 10),
                                       (-1, 0, -1)])
def test_kernel_domination_rejects_out_of_range_vertices(petersen_chain,
                                                         petersen, x, y, bad):
    # a distance array indexed at -1 reads vertex 9
    with pytest.raises(GraphError, match=f"^vertex {bad} out of range"):
        kernel_domination_check(petersen, petersen_chain, x, y, 3)


# -- concentration -------------------------------------------------------------

def test_concentration_small():
    c = tree_distance_concentration(3, 1)
    assert c.mean == 1.0 and c.stddev == 0.0
    c2 = tree_distance_concentration(3, 2)
    assert abs(c2.mean - 4 / 3) < 1e-12


def test_concentration_drift_and_tail():
    c = tree_distance_concentration(3, 300)
    assert abs(c.mean - 100) <= 10
    tail5 = dict(c.lower_tail)[5]
    assert tail5 < 0.01
    assert c.stddev < 3 * math.sqrt(300)
