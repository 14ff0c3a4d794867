import math
from itertools import combinations

import numpy as np
import pytest

import walklab as wl
from walklab import hitting
from walklab.chains import srw_chain
from walklab.hitting import (HittingError, candidate_small_sets,
                             expected_hit_time, family_survival, hit_quantile,
                             hitmix_constant_record, quantile_halflog_check,
                             sphere_hit_distribution, survival_probability,
                             survival_vector, verify_spectral_hit,
                             w_vs_k_report)
from walklab.spectral import spectrum


# -- survival -----------------------------------------------------------------

def test_survival_at_zero_is_one(petersen_chain):
    for a in (0, 3, 7):
        assert survival_probability(petersen_chain, [a, (a + 1) % 10], a, 0) == 1.0


def test_survival_singleton_k4(k4_chain):
    assert survival_probability(k4_chain, [0], 0, 1) == 0.0
    assert survival_probability(k4_chain, [0], 0, 5) == 0.0


def test_survival_pair_k4_closed_form(k4_chain):
    # restriction is (1/3) x swap, so survival decays exactly as 3^-t
    for t in range(8):
        got = survival_probability(k4_chain, [0, 1], 0, t)
        assert abs(got - 3.0 ** (-t)) < 1e-15


def test_survival_requires_membership(k4_chain):
    with pytest.raises(HittingError, match="not in the subset"):
        survival_probability(k4_chain, [0, 1], 2, 1)


def test_survival_vector_monotone(petersen_chain):
    prev = survival_vector(petersen_chain, [0, 1, 2], 0)
    for t in range(1, 10):
        cur = survival_vector(petersen_chain, [0, 1, 2], t)
        assert np.all(cur <= prev + 1e-15)
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
        hit_quantile(chain, 0.1, 0.1, search="exact")


def test_hit_quantile_candidate_is_lower_bound(petersen, petersen_chain):
    exact = hit_quantile(petersen_chain, 0.25, 0.1, search="exact")
    cand = hit_quantile(petersen_chain, 0.25, 0.1,
                        search="candidate-family", graph=petersen)
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
    hq = hit_quantile(chain, alpha, eps, search="exact")
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
        hq = hit_quantile(ch, alpha, eps, search="candidate-family", graph=g)
        assert hq.n_sets == len(fam)
        ref = per_set_hit_quantile(ch, fam, eps, hitting.MAX_QUANTILE_STEPS)
        assert (hq.time, hq.worst_set, hq.worst_start) == ref


def test_family_survival_matches_per_set_vectors(cubic_family):
    chain, sets = cubic_family
    for t in (0, 7):
        got = family_survival(chain.kernel, sets, t)
        for i in range(0, len(sets), 5):
            assert got[i] == survival_vector(chain, sets[i], t).max()


def test_tiny_chunks_give_identical_results(monkeypatch, cubic_family,
                                            petersen_chain):
    chain, sets = cubic_family
    sets = sets[::4]
    wide = family_survival(chain.kernel, sets, 9)
    wide_hq = hit_quantile(petersen_chain, 0.3, 0.02)
    monkeypatch.setattr(hitting, "FAMILY_CHUNK_ROWS", 5)
    assert np.array_equal(family_survival(chain.kernel, sets, 9), wide)
    assert hit_quantile(petersen_chain, 0.3, 0.02) == wide_hq


def test_hit_quantile_max_steps_overflow(petersen_chain):
    full = hit_quantile(petersen_chain, 0.3, 0.02)
    # the last step with survival above eps is full.time - 1
    assert hit_quantile(petersen_chain, 0.3, 0.02,
                        max_steps=full.time) == full
    with pytest.raises(HittingError, match="steps"):
        hit_quantile(petersen_chain, 0.3, 0.02, max_steps=full.time - 1)
    with pytest.raises(HittingError):
        per_set_hit_quantile(petersen_chain,
                             exact_family(petersen_chain, 0.3), 0.02,
                             full.time - 1)


def test_family_survival_rejects_unsorted_sets(petersen_chain):
    with pytest.raises(HittingError, match="sorted"):
        family_survival(petersen_chain.kernel, [(3, 1)], 2)


def test_candidate_sets_respect_mass(petersen, petersen_chain):
    sets = candidate_small_sets(petersen_chain, 0.25, graph=petersen)
    assert sets
    pi = petersen_chain.stationary
    for s in sets:
        assert pi[list(s)].sum() <= 0.25 + 1e-12
        assert 0 < len(s) < 10


# -- the survival / Perron suite ---------------------------------------------

def test_verify_spectral_hit_k4_pair(k4_chain):
    rep = verify_spectral_hit(k4_chain, [0, 1], [0, 1, 2, 5], alpha=0.3,
                              eps=0.1)
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
    assert rep.quantile_check.passed is None
    assert "lambda2" in rep.quantile_check.note


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


def test_quantile_halflog_petersen(petersen, petersen_chain):
    s = spectrum(petersen_chain)
    check = quantile_halflog_check(petersen_chain, 0.25, s.lambda2,
                                   graph=petersen)
    # survival of the worst pair after 1 step is 1/3 <= sqrt(0.25)
    assert check.lhs == 1
    assert abs(check.rhs - 0.5 * math.log(10) / math.log(1.5)) < 1e-12
    assert check.passed


def test_quantile_halflog_requires_alpha_below_lambda2(petersen_chain):
    s = spectrum(petersen_chain)
    check = quantile_halflog_check(petersen_chain, 0.4, s.lambda2)
    assert check.passed is None
    assert "alpha" in check.note


def test_hitmix_record_is_informational(petersen, petersen_chain):
    s = spectrum(petersen_chain)
    rec = hitmix_constant_record(petersen_chain, 0.25, 0.25, s.t_rel,
                                 graph=petersen)
    assert rec.passed is None
    assert isinstance(rec.lhs, float)


# -- sphere hitting -----------------------------------------------------------

def test_sphere_hit_k4_one_step(k4):
    hit = sphere_hit_distribution(k4, 0, 1)
    assert np.allclose(hit.probabilities, 1 / 3)
    assert math.isclose(hit.c_hat, 1.0)
    assert hit.lower_bound_pass


def test_sphere_hit_petersen_uniform(petersen):
    hit = sphere_hit_distribution(petersen, 0, 2)
    assert len(hit.sphere) == 6
    assert np.allclose(hit.probabilities, 1 / 6, atol=1e-12)
    assert math.isclose(hit.lower_bound, 1 / 6)
    assert hit.excess == 0
    assert abs(hit.total - 1.0) < 1e-10


def test_sphere_hit_prism(prism):
    hit = sphere_hit_distribution(prism, 0, 2)
    assert len(hit.sphere) == 2
    assert np.allclose(hit.probabilities, 0.5, atol=1e-12)
    assert math.isclose(hit.c_hat, 3.0, abs_tol=1e-10)
    assert hit.excess > 0
    assert hit.lower_bound_pass


def test_sphere_hit_monte_carlo_agreement(prism):
    # independent check: simulate first exits and compare within 4 SE
    from walklab.walks import make_rng, sample_first_regenerations
    hit = sphere_hit_distribution(prism, 0, 2)
    trials = 100_000
    _, landings = sample_first_regenerations(prism, 0, 2, trials,
                                             make_rng(11, 0))
    for u, p in zip(hit.sphere, hit.probabilities):
        freq = float(np.mean(landings == u))
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(freq - p) <= 4 * se


def test_sphere_hit_empty_sphere(k4):
    with pytest.raises(HittingError, match="empty"):
        sphere_hit_distribution(k4, 0, 2)


def test_sphere_hit_lower_bound_everywhere(girth5_graph, prism, petersen):
    for g, k in ((girth5_graph, 2), (prism, 2), (petersen, 2), (petersen, 1)):
        for v in range(0, g.n, max(1, g.n // 16)):
            hit = sphere_hit_distribution(g, v, k)
            assert hit.lower_bound_pass
            assert abs(hit.total - 1.0) < 1e-10


def test_expected_hit_time_petersen(petersen):
    assert abs(expected_hit_time(petersen, 0, 2) - 3.0) < 1e-12


def test_expected_hit_time_tree_formula(girth5_graph):
    # on a tree ball the expectation solves the biased birth-death chain
    from walklab.tree import level_hitting_time
    assert abs(expected_hit_time(girth5_graph, 5, 2)
               - level_hitting_time(3, 2)) < 1e-12


# -- W against K --------------------------------------------------------------

def test_w_vs_k_petersen(petersen):
    rep = w_vs_k_report(petersen, 2)
    assert abs(rep.ratio_min - 1.0) < 1e-10
    assert abs(rep.ratio_max - 1.0) < 1e-10
    assert rep.k_scaled_min >= 1.0 - 1e-12
    assert rep.all_passed
    assert rep.c_hat_by_excess() == {0: pytest.approx(1.0)}


def test_w_vs_k_prism(prism):
    rep = w_vs_k_report(prism, 2)
    assert abs(rep.ratio_min - 1.0) < 1e-10   # W = K = 1/2 by symmetry
    assert abs(rep.ratio_max - 1.0) < 1e-10
    assert math.isclose(rep.k_scaled_min, 3.0)
    assert math.isclose(rep.k_scaled_max, 3.0)
    assert rep.all_passed


def test_w_vs_k_high_girth(girth5_graph):
    rep = w_vs_k_report(girth5_graph, 2)
    assert abs(rep.ratio_min - 1.0) < 1e-10
    assert abs(rep.ratio_max - 1.0) < 1e-10
    assert abs(rep.k_scaled_min - 1.0) < 1e-12


def test_middle_term_two_ways(petersen_chain):
    rep = verify_spectral_hit(petersen_chain, [0, 1, 2, 5], [0, 1, 3, 7])
    for check in rep.middle_consistency:
        assert check.passed
