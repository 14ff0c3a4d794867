import ctypes
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import _flapack

import walklab as wl
from walklab import spectral
from walklab.chains import (BIPARTITE_PERIODIC, ChainError, chain_from_kernel,
                            srw_chain)
from walklab.hitting import candidate_small_sets, verify_spectral_hit
from walklab.reports import dumps_canonical
from walklab.spectral import (SpectralError, classify_ramanujan,
                              compare_restricted, poincare_bound,
                              restricted_top_eig, rho, spectrum, symmetrized)
from walklab.suites import ExperimentConfig, _spread, run_suite


def eig_multiset(summary, digits=9):
    return sorted(np.round(summary.eigenvalues, digits).tolist())


def test_spectrum_k4(k4, k4_chain):
    s = spectrum(k4_chain, source_graph=k4)
    assert eig_multiset(s) == [round(-1 / 3, 9)] * 3 + [1.0]
    assert math.isclose(s.lambda_star, 1 / 3)
    assert math.isclose(s.t_rel, 1.5)


def test_spectrum_c6(c6):
    s = spectrum(srw_chain(c6))
    expect = sorted([1.0, 0.5, 0.5, -0.5, -0.5, -1.0])
    assert eig_multiset(s) == [round(v, 9) for v in expect]
    assert math.isclose(s.lambda2, 0.5)
    assert math.isclose(s.lambda_star, 1.0)
    assert s.t_rel == math.inf


def test_spectrum_petersen(petersen, petersen_chain):
    s = spectrum(petersen_chain, source_graph=petersen)
    expect = sorted([1.0] + [1 / 3] * 5 + [-2 / 3] * 4)
    assert eig_multiset(s) == [round(v, 9) for v in expect]
    assert math.isclose(s.lambda_star, 2 / 3)
    assert math.isclose(s.t_rel, 3.0)
    assert math.isclose(s.rho_d, rho(3))


def test_spectrum_iterative_matches_dense(petersen, petersen_chain,
                                          random_cubic_medium):
    for g in (petersen, random_cubic_medium):
        chain = srw_chain(g)
        dense = spectrum(chain, source_graph=g)
        it = spectrum(chain, mode="iterative-extremal", source_graph=g)
        assert abs(it.lambda2 - dense.lambda2) < 1e-8
        assert abs(it.lambda_min - dense.lambda_min) < 1e-8


# graphs on which the iterative path is easy to get wrong
ITERATIVE_CASES = {
    "k6": lambda: wl.build_named("complete", 6),      # lambda2 = -1/5 < 0
    "k30": lambda: wl.build_named("complete", 30),
    "q4": lambda: wl.build_named("hypercube", 4),     # lambda_min = -1
    "petersen": lambda: wl.build_named("petersen"),   # lambda2 of mult. 5
    "non-regular": lambda: wl.make_graph(             # triangle with tails
        7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (1, 6)]),
    "path3": lambda: wl.make_graph(3, [(0, 1), (1, 2)]),  # 3 distinct values
    "rr200": lambda: wl.build_random_regular(200, 3, 77),
    # criterion 11's graph; n = 2448 is within DENSE_BUDGET
    "lps13-17": lambda: wl.build_lps(13, 17),
}


@pytest.mark.parametrize("name", sorted(ITERATIVE_CASES))
def test_iterative_matches_dense_within_residuals(name):
    g = ITERATIVE_CASES[name]()
    chain = srw_chain(g)
    dense = spectrum(chain)
    it = spectrum(chain, mode="iterative-extremal")
    res = it.residuals
    assert it.method == "iterative-extremal" and it.eigenvalues is None
    assert abs(it.lambda2 - dense.lambda2) <= res["lambda2"] + 1e-12
    assert abs(it.lambda_min - dense.lambda_min) <= res["lambda_min"] + 1e-12
    assert res["lambda2"] < 1e-12 and res["lambda_min"] < 1e-12
    assert 0 < res["lambda2_iterations"] and 0 < res["lambda_min_iterations"]
    assert abs(it.lambda_star - dense.lambda_star) < 1e-12
    if name.startswith("k"):
        n = g.n
        assert abs(it.lambda2 + 1.0 / (n - 1)) < 1e-12
    if name == "q4":
        assert abs(it.lambda_min + 1.0) < 1e-12
        assert it.t_rel == math.inf


@pytest.mark.parametrize("name", ["rr2048", *sorted(ITERATIVE_CASES)])
def test_iterative_spectrum_matches_the_frozen_lanczos(name,
                                                       lanczos_reference):
    # the buffered recurrence and the LAPACK calls of the 16-step check give
    # the bits of the allocating form, on rr2048 (seed 3, the spectral-cert
    # graph) and on every small case, breakdowns included
    g = (wl.build_random_regular(2048, 3, 3) if name == "rr2048"
         else ITERATIVE_CASES[name]())
    chain = srw_chain(g)
    it = spectrum(chain, mode="iterative-extremal")
    top = np.sqrt(chain.stationary)
    top /= np.linalg.norm(top)
    if chain.is_irreducible:
        ((lambda2, res2), (lambda_min, resm)), steps = lanczos_reference(
            symmetrized(chain), (-1, 0), top)
    else:
        lambda2, res2 = 1.0, 0.0
        ((lambda_min, resm),), steps = lanczos_reference(symmetrized(chain),
                                                         (0,), top)
    assert (it.lambda2, it.lambda_min) == (lambda2, lambda_min)
    assert it.residuals == {"lambda2": res2, "lambda2_iterations": steps,
                            "lambda_min": resm,
                            "lambda_min_iterations": steps}


@pytest.mark.parametrize("name", sorted(ITERATIVE_CASES))
def test_iterative_reruns_identical(name):
    # path3 breaks down: its Krylov space is invariant after two steps
    chain = srw_chain(ITERATIVE_CASES[name]())
    first = spectrum(chain, mode="iterative-extremal")
    assert spectrum(chain, mode="iterative-extremal") == first


@pytest.mark.parametrize("name", sorted(ITERATIVE_CASES))
def test_iterative_ends_share_one_run(name):
    res = spectrum(srw_chain(ITERATIVE_CASES[name]()),
                   mode="iterative-extremal").residuals
    assert res["lambda2_iterations"] == res["lambda_min_iterations"]


def test_iterative_memory_stays_linear():
    # a few vectors of length n: the run takes some 400 steps here, and
    # keeping its basis would peak near 14 MB
    chain = srw_chain(wl.build_random_regular(4000, 3, 1))
    tracemalloc.start()
    try:
        spectrum(chain, mode="iterative-extremal")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * chain.n * 8


def test_iterative_raises_at_the_step_cap(monkeypatch, random_cubic_medium):
    chain = srw_chain(random_cubic_medium)
    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 1)
    with pytest.raises(SpectralError, match="did not converge within 1 "):
        spectrum(chain, mode="iterative-extremal")


def test_iterative_on_reducible_and_single_state_chains(c6):
    # two triangles: lambda2 = 1 exactly, lambda_min = -1/2 as in dense mode
    chain = srw_chain(wl.inflate(c6, 2))
    s = spectrum(chain, mode="iterative-extremal")
    assert (s.lambda2, s.residuals["lambda2"]) == (1.0, 0.0)
    dense = spectrum(chain)
    assert abs(s.lambda_min - dense.lambda_min) <= \
        s.residuals["lambda_min"] + 1e-14
    assert s.lambda_star == pytest.approx(dense.lambda_star, abs=1e-14)
    single = chain_from_kernel(np.array([[1.0]]), [1.0])
    with pytest.raises(SpectralError, match="two states"):
        spectrum(single, mode="iterative-extremal")


def test_spectrum_dense_budget(monkeypatch, petersen_chain, tmp_path):
    # spectrum and the suites read the one budget when they run
    monkeypatch.setattr(spectral, "DENSE_BUDGET", 5)
    with pytest.raises(SpectralError, match="budget is n <= 5"):
        spectrum(petersen_chain)
    report, _ = run_suite(ExperimentConfig(
        graph={"kind": "named", "name": "petersen"}, suites=("spectral",),
        out_dir=str(tmp_path)))
    assert report.records[1]["note"] == "iterative-extremal"
    assert not any(r["name"] == "restricted-comparison-vs-blend"
                   for r in report.records)


def test_trace_consistency(petersen_chain):
    s = spectrum(petersen_chain)
    eigs = np.asarray(s.eigenvalues)
    assert abs(eigs.sum()) < 1e-8                       # loopless: trace 0
    assert abs((eigs ** 2).sum() - 10 / 3) < 1e-8      # n/d for 3-regular


def test_classify_petersen(petersen, petersen_chain):
    s = spectrum(petersen_chain, source_graph=petersen)
    rep = classify_ramanujan(petersen, s)
    assert rep.category == "ramanujan"
    assert math.isclose(rep.rho_d, 0.9428090415820635)
    assert not rep.bipartite


def test_classify_hypercube(q3):
    s = spectrum(srw_chain(q3), source_graph=q3)
    rep = classify_ramanujan(q3, s)
    assert rep.category == "ramanujan"
    assert rep.bipartite


def test_classify_rejects_low_degree(c6):
    s = spectrum(srw_chain(c6))
    with pytest.raises(SpectralError, match="d >= 3"):
        classify_ramanujan(c6, s)


def test_classify_q4_ramanujan():
    # Q4 spectrum {1, 1/2, 0, -1/2, -1}; rho_4 = sqrt(3)/2 = 0.866
    q4 = wl.build_named("hypercube", 4)
    s4 = spectrum(srw_chain(q4), source_graph=q4)
    assert classify_ramanujan(q4, s4).category == "ramanujan"


def test_classify_neither_on_circular_ladder():
    # C_40 x K2 is 3-regular with lambda2 = (2 cos(pi/20) + 1)/3 > rho_3
    n = 40
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    g = wl.make_graph(2 * n, edges)
    s = spectrum(srw_chain(g), source_graph=g)
    expected_lambda2 = (2 * math.cos(math.pi / 20) + 1) / 3
    assert abs(s.lambda2 - expected_lambda2) < 1e-9
    rep = classify_ramanujan(g, s)
    assert rep.category == "neither"
    assert rep.lambda2_over_rho > 1.0


def test_classify_iterative_uses_interval_ends(petersen):
    # Petersen: 1/3 (x5), -2/3 (x4); rho_3 = 0.9428...
    it = spectrum(srw_chain(petersen), mode="iterative-extremal",
                  source_graph=petersen)
    assert classify_ramanujan(petersen, it).category == "ramanujan"
    r = rho(3)

    def verdict(lambda2, r2, lambda_min, r_min):
        s = dataclasses.replace(
            it, lambda2=lambda2, lambda_min=lambda_min,
            residuals=dict(it.residuals, lambda2=r2, lambda_min=r_min))
        return classify_ramanujan(petersen, s).category

    assert verdict(r - 1e-8, 0.0, -2 / 3, 0.0) == "ramanujan"
    assert verdict(r - 1e-8, 2e-8, -2 / 3, 0.0) == "neither"
    assert verdict(1 / 3, 0.0, -r + 1e-8, 0.0) == "ramanujan"
    assert verdict(1 / 3, 0.0, -r + 1e-8, 2e-8) == "one-sided-at-margin"
    assert verdict(1 / 3, 0.0, -1.0 + 1e-8, 0.0) == "one-sided-at-margin"
    assert verdict(1 / 3, 0.0, -1.0 + 1e-8, 2e-8) == "neither"


def test_classify_iterative_bipartite_uses_lambda2_end():
    q4 = wl.build_named("hypercube", 4)
    it = spectrum(srw_chain(q4), mode="iterative-extremal", source_graph=q4)
    rep = classify_ramanujan(q4, it)
    assert rep.category == "ramanujan" and rep.bipartite
    r = rho(4)
    near = dataclasses.replace(
        it, lambda2=r - 1e-8, residuals=dict(it.residuals, lambda2=2e-8))
    assert classify_ramanujan(q4, near).category == "neither"


def test_poincare_values():
    val = poincare_bound(10, 2 / 3, 0.25)
    assert math.isclose(val, 0.5 * math.log(160) / math.log(1.5))
    assert 6.25 < val < 6.27
    big = poincare_bound(10 ** 6, 0.94280, 0.25)
    assert 140.0 < big < 141.5
    assert poincare_bound(100, 0.0, 0.5) == 0.0
    with pytest.raises(SpectralError):
        poincare_bound(100, 1.0, 0.5)
    with pytest.raises(SpectralError):
        poincare_bound(1, 0.5, 0.5)


def test_restricted_singleton_k4(k4_chain):
    s = spectrum(k4_chain)
    rec = restricted_top_eig(k4_chain, [0], lambda2=s.lambda2)
    assert rec.lambda_A == 0.0
    # refined bound is tight at zero: -1/3 + (4/3)(1/4) = 0
    assert abs(rec.refined_bound) < 1e-12
    assert rec.refined_pass
    assert not rec.plain_applicable  # lambda2 < 0


def test_restricted_pair_k4(k4_chain):
    s = spectrum(k4_chain)
    rec = restricted_top_eig(k4_chain, [0, 1], lambda2=s.lambda2)
    assert abs(rec.lambda_A - 1 / 3) < 1e-12
    assert abs(rec.refined_bound - 1 / 3) < 1e-12
    assert rec.refined_pass


def test_restricted_c6_path(c6):
    chain = srw_chain(c6)
    rec = restricted_top_eig(chain, [1, 2, 3])
    assert abs(rec.lambda_A - math.sqrt(2) / 2) < 1e-10


@pytest.fixture(scope="module")
def families():
    """(chain, candidate family) of random 3-regular n=512 (seed 2) and
    LPS(13,17), at alpha = 0.25."""
    out = []
    for g in (wl.build_random_regular(512, 3, 2), wl.build_lps(13, 17)):
        chain = srw_chain(g)
        out.append((chain, candidate_small_sets(chain, 0.25, graph=g)))
    return out


def dense_top(chain, subset) -> float:
    """Largest eigenvalue of S_A by a dense symmetric solve."""
    idx = np.asarray(subset)
    root = np.sqrt(chain.stationary[idx])
    s = chain.kernel[idx][:, idx].toarray() * root[:, None] / root[None, :]
    return float(np.linalg.eigvalsh((s + s.T) / 2)[-1])


def test_restricted_matches_dense_on_spread_sets(families):
    for chain, family in families:
        for subset in _spread(family, 16):
            rec = restricted_top_eig(chain, subset)
            assert abs(rec.lambda_A - dense_top(chain, subset)) < 1e-13
            assert rec.residual < 1e-13
            assert restricted_top_eig(chain, subset) == rec


def test_spread_matches_the_sorted_stride(families, petersen, petersen_chain):
    small = candidate_small_sets(petersen_chain, 0.25, graph=petersen)
    for family in [f for _, f in families] + [small]:
        ordered = sorted(family, key=lambda A: (len(A), A))
        for count in (6, 16):
            stride = max(1, len(ordered) // count)
            assert _spread(family, count) == ordered[::stride][:count]


def test_restricted_exact_without_an_operator(c6):
    chain = srw_chain(c6)
    for subset in ([0], [0, 2, 4]):     # a singleton, an independent set
        rec = restricted_top_eig(chain, subset)
        assert (rec.lambda_A, rec.residual, rec.iterations) == (0.0, 0.0, 0)
    lazy = chain_from_kernel((chain.kernel + sp.identity(6)) * 0.5,
                             chain.stationary)
    rec = restricted_top_eig(lazy, [3])
    assert (rec.lambda_A, rec.residual, rec.iterations) == (0.5, 0.0, 0)


def test_restricted_raises_past_the_step_cap(monkeypatch, families):
    chain, family = families[0]
    largest = max(sorted(family), key=len)
    assert restricted_top_eig(chain, largest).iterations > 0
    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 1)
    with pytest.raises(SpectralError, match="did not converge within 1 "):
        restricted_top_eig(chain, largest)


def set_residual(monkeypatch, residual):
    """Make every Lanczos solve report ``residual``."""
    solve = spectral._lanczos_extremal

    def patched(s, ends, top=None):
        pairs, applications = solve(s, ends, top)
        return [(theta, residual) for theta, _ in pairs], applications

    monkeypatch.setattr(spectral, "_lanczos_extremal", patched)


def test_verdicts_read_the_conservative_end(monkeypatch, petersen_chain,
                                            two_step):
    chain, subset = petersen_chain, [0, 1]         # an edge: lambda(A) = 1/3
    lam2 = spectrum(chain).lambda2
    rec = restricted_top_eig(chain, subset, lambda2=lam2)
    assert rec.refined_pass and rec.plain_pass
    blend = chain_from_kernel((chain.kernel + two_step(chain).kernel) * 0.5,
                              chain.stationary)
    cmp = compare_restricted(chain, blend, subset)
    assert cmp.passed
    hit = verify_spectral_hit(chain, subset, (1, 2))
    assert hit.all_passed

    set_residual(monkeypatch, rec.refined_bound - rec.lambda_A + 1e-8)
    rec2 = restricted_top_eig(chain, subset, lambda2=lam2)
    assert rec2.lambda_A == rec.lambda_A
    assert not rec2.refined_pass and rec2.plain_pass
    set_residual(monkeypatch, rec.plain_bound - rec.lambda_A + 1e-8)
    assert not restricted_top_eig(chain, subset, lambda2=lam2).plain_pass
    # the left root's upper end against the right root's lower end
    set_residual(monkeypatch, (cmp.rhs - cmp.lhs) / 2)
    cmp2 = compare_restricted(chain, blend, subset)
    assert (cmp2.lhs, cmp2.rhs) == (cmp.lhs, cmp.rhs) and not cmp2.passed
    # the Perron side of the survival chain uses the lower end
    set_residual(monkeypatch, rec.lambda_A)
    hit2 = verify_spectral_hit(chain, subset, (1, 2))
    assert [c.rhs for c in hit2.survival_checks
            if c.name.startswith("norm-le-perron")] == [0.0, 0.0]
    assert not hit2.all_passed


@pytest.mark.parametrize("subset", [[-1, 4], [-2, -1], [0, 10]])
def test_restricted_entry_points_reject_out_of_range_states(petersen_chain,
                                                            subset):
    # no wrap-around onto the last states, no IndexError from the slicing
    message = "^sets must be nonempty, sorted, distinct and in range$"
    chain = petersen_chain
    with pytest.raises(ChainError, match=message):
        restricted_top_eig(chain, subset)
    with pytest.raises(ChainError, match=message):
        compare_restricted(chain, chain, subset)
    with pytest.raises(ChainError, match=message):
        verify_spectral_hit(chain, subset, (0, 1))


def test_restricted_rejects_bad_subsets(k4_chain):
    with pytest.raises(SpectralError):
        restricted_top_eig(k4_chain, [])
    with pytest.raises(SpectralError):
        restricted_top_eig(k4_chain, [0, 1, 2, 3])


def test_restricted_matches_dense_eigensolve(random_cubic_medium):
    chain = srw_chain(random_cubic_medium)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    for size in (3, 10, 40, 80):
        start = int(rng.integers(chain.n))
        # connected-ish random subsets via BFS order
        from walklab.graphs import bfs_distances
        order = np.argsort(bfs_distances(random_cubic_medium, start))
        subset = sorted(int(v) for v in order[:size])
        rec = restricted_top_eig(chain, subset)
        idx = np.asarray(subset)
        sub = chain.kernel[idx][:, idx].toarray()
        dense = float(np.max(np.linalg.eigvals(sub).real))
        assert abs(rec.lambda_A - dense) < 1e-8


def test_restricted_monotone_in_subset(random_cubic_medium):
    chain = srw_chain(random_cubic_medium)
    from walklab.graphs import bfs_distances
    order = np.argsort(bfs_distances(random_cubic_medium, 17))
    prev = -1.0
    for size in (2, 5, 12, 30, 60):
        rec = restricted_top_eig(chain, sorted(int(v) for v in order[:size]))
        assert rec.lambda_A >= prev - 1e-9
        prev = rec.lambda_A


def test_refined_bound_on_random_pairs():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(99)))
    for trial in range(25):
        n = int(rng.integers(8, 40)) * 2
        g = wl.build_random_regular(n, 3, seed=int(rng.integers(1 << 30)))
        chain = srw_chain(g)
        s = spectrum(chain)
        size = int(rng.integers(1, max(2, n // 3)))
        subset = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
        rec = restricted_top_eig(chain, subset, lambda2=s.lambda2)
        assert rec.refined_pass, (n, subset, rec)
        if rec.plain_applicable:
            assert rec.plain_pass


def test_compare_restricted_self(k4_chain):
    rep = compare_restricted(k4_chain, k4_chain, [0, 1])
    assert rep.C1 == 1.0 and rep.C2 == 1.0
    assert math.isclose(rep.lhs, rep.rhs / (rep.C1 * rep.C2 ** 2))
    assert rep.passed


def test_compare_restricted_k4_square(k4_chain, two_step):
    rep = compare_restricted(k4_chain, two_step(k4_chain), [0, 1])
    assert math.isclose(rep.C1, 1.5)
    assert rep.C2 == 1.0
    assert math.isclose(rep.lhs, 1 / 3, abs_tol=1e-10)
    assert math.isclose(rep.rhs, (3 / 2) * (5 / 9), abs_tol=1e-10)
    assert rep.passed


def test_compare_restricted_support_violation(k4_chain, two_step):
    p2 = two_step(k4_chain)
    with pytest.raises(SpectralError, match=r"support violation.*P2\(0,0\)"):
        compare_restricted(p2, k4_chain, [0, 1])


def reference_compare_c1(chain1, chain2):
    """C1 from a dict of P2's entries, one P1 entry at a time."""
    k1, k2 = chain1.kernel.tocoo(), chain2.kernel.tocoo()
    p2 = {(int(u), int(v)): w for u, v, w in zip(k2.row, k2.col, k2.data)}
    c1 = 0.0
    for u, v, w in zip(k1.row, k1.col, k1.data):
        if w <= 0:
            continue
        denom = p2.get((int(u), int(v)), 0.0)
        if denom <= 0:
            return (f"support violation: P1({u},{v}) = {w:.3e} "
                    f"but P2({u},{v}) = 0")
        c1 = max(c1, w / denom)
    return c1


def test_compare_restricted_matches_dict_lookup(k4_chain, two_step):
    lps = srw_chain(wl.build_lps(13, 17))
    blend = chain_from_kernel((lps.kernel + two_step(lps).kernel) * 0.5,
                              lps.stationary)
    # P2 with each row's entries stored in reverse order
    flipped = blend.kernel.copy()
    for v in range(flipped.shape[0]):
        lo, hi = flipped.indptr[v], flipped.indptr[v + 1]
        flipped.indices[lo:hi] = flipped.indices[lo:hi][::-1].copy()
        flipped.data[lo:hi] = flipped.data[lo:hi][::-1].copy()
    flipped.has_sorted_indices = False
    # chain_from_kernel would sort the rows back
    flipped_chain = dataclasses.replace(blend, kernel=flipped)
    stored = flipped_chain.kernel.indices.copy()
    assert not np.array_equal(stored, blend.kernel.indices)
    for p1, p2 in ((lps, blend), (lps, flipped_chain),
                   (k4_chain, two_step(k4_chain))):
        c1 = compare_restricted(p1, p2, [0, 1]).C1
        assert type(c1) is float and c1 == reference_compare_c1(p1, p2)
    # the lookup leaves the caller's kernel as it was stored
    assert np.array_equal(flipped_chain.kernel.indices, stored)
    for p1, p2 in ((two_step(k4_chain), k4_chain), (blend, lps)):
        with pytest.raises(SpectralError) as info:
            compare_restricted(p1, p2, [0, 1])
        assert str(info.value) == reference_compare_c1(p1, p2)


def test_compare_w_equals_k_on_tree_balls(girth5_graph):
    # on a girth > 4 graph the regeneration kernel at k=2 IS the SRW
    # kernel of the distance-2 graph; the comparison is then an equality
    from walklab.hitting import SphereHits
    gk = wl.inflate(girth5_graph, 2)
    k_chain = srw_chain(gk)
    n = girth5_graph.n
    rows = []
    cols = []
    vals = []
    hits = SphereHits(girth5_graph, 2)
    for x in range(n):
        hit = hits[x]
        for u, p in zip(hit.sphere, hit.probabilities):
            rows.append(x), cols.append(u), vals.append(float(p))
    w = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    w_chain = chain_from_kernel(w, k_chain.stationary)
    subset = list(range(8))
    rep = compare_restricted(w_chain, k_chain, subset)
    assert abs(rep.C1 - 1.0) < 1e-9
    assert abs(rep.C2 - 1.0) < 1e-9
    assert abs(rep.lhs - rep.rhs) < 1e-9


def test_symmetrized_is_symmetric(petersen_chain):
    s = symmetrized(petersen_chain).toarray()
    assert np.abs(s - s.T).max() < 1e-14


# -- exact spectra by cyclic symmetry blocks ---------------------------------

# builder, and the cycle length m of the array the block path must use
BLOCK_CASES = {
    "c8": (lambda: wl.build_named("cycle", 8), 8),
    "c9": (lambda: wl.build_named("cycle", 9), 9),
    "k5": (lambda: wl.build_named("complete", 5), 5),
    "q3": (lambda: wl.build_named("hypercube", 3), 2),
    "q4": (lambda: wl.build_named("hypercube", 4), 2),
    "lps13-17": (lambda: wl.build_lps(13, 17), 17),
    "lps17-13": (lambda: wl.build_lps(17, 13), 13),
    "lps5-13": (lambda: wl.build_lps(5, 13), 13),     # PGL, bipartite
}


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_spectrum_matches_dense_eigvalsh(name):
    build, m = BLOCK_CASES[name]
    g = build()
    chain = srw_chain(g)
    s = spectrum(chain, source_graph=g)
    assert s.method == "dense-full"
    assert s.blocks == {"m": m, "size": g.n // m}
    dense = np.linalg.eigvalsh(symmetrized(chain).toarray())[::-1]
    assert np.abs(s.eigenvalues - dense).max() <= 1e-12
    assert np.all(np.diff(s.eigenvalues) <= 0)
    # the trace-moment records' checks, on the block spectrum
    kernel = chain.kernel
    assert abs(s.eigenvalues.sum() - kernel.diagonal().sum()) <= 1e-8
    assert abs((s.eigenvalues ** 2).sum()
               - (kernel @ kernel).diagonal().sum()) <= 1e-8
    # a block's -1 may come out an ulp above -1 (it does on Q3); a
    # periodic chain's t_rel stays infinite
    periodic = chain.period_info == BIPARTITE_PERIODIC
    assert (s.t_rel == math.inf) == periodic


def test_spectral_suite_records_the_blocks(tmp_path):
    for spec, blocks in (
            ({"kind": "named", "name": "hypercube", "dim": 3},
             {"m": 2, "size": 4}),
            ({"kind": "lps", "p": 17, "q": 13}, {"m": 13, "size": 84}),
            ({"kind": "named", "name": "petersen"}, None)):
        cfg = ExperimentConfig(graph=spec, suites=("spectral",),
                               out_dir=str(tmp_path))
        report, _ = run_suite(cfg)
        recs = {r["name"]: r for r in report.records}
        assert recs["spectrum"]["extra"].get("blocks") == blocks
        for name in ("trace-first-moment", "trace-second-moment"):
            assert recs[name]["passed"] is True


def test_spectral_suite_blend_records_are_pinned(tmp_path):
    # the blend reads the sorted product K @ K; sha256 of each canonical
    # restricted-comparison-vs-blend record, whose two roots come from the
    # plain Lanczos run of spectral._lanczos_extremal
    for spec, digest in (
            ({"kind": "named", "name": "petersen"},
             "961e92ee4f9d8a01944681ad0873438de4d1404608c1b51b7a4a19ee8fc5e3c9"),
            ({"kind": "random-regular", "n": 64, "d": 3, "seed": 8},
             "c11135a3f3020b3dc8e201bc4a76923fbd943330a37e848ccdc19ce273f2a806")):
        cfg = ExperimentConfig(graph=spec, suites=("spectral",), seed=3,
                               out_dir=str(tmp_path))
        report, _ = run_suite(cfg)
        rec, = [r for r in report.records
                if r["name"] == "restricted-comparison-vs-blend"]
        assert hashlib.sha256(
            dumps_canonical(rec).encode()).hexdigest() == digest


def test_wrong_source_graph_takes_the_dense_path():
    c8, q3 = wl.build_named("cycle", 8), wl.build_named("hypercube", 3)
    chain = srw_chain(c8)
    # Q3's bit flips are certified on Q3 but do not commute with C8's kernel
    wrong = spectrum(chain, source_graph=q3)
    plain = spectrum(chain)
    assert wrong.blocks is None and plain.blocks is None
    assert np.array_equal(wrong.eigenvalues, plain.eigenvalues)
    # an uncertified copy of the right graph takes the dense path too
    bare = wl.make_graph(c8.n, np.array(c8.edges), c8.provenance)
    assert spectrum(chain, source_graph=bare).blocks is None
    assert spectrum(chain, source_graph=c8).blocks == {"m": 8, "size": 1}


def test_one_block_spectrum_equals_dense_eigvalsh_bit_for_bit():
    # no commuting symmetry: the identity, one block, S itself
    rr = wl.build_random_regular(200, 3, 5)
    for g in (wl.build_named("petersen"), wl.build_named("prism"), rr,
              wl.inflate(rr, 2)):
        chain = srw_chain(g)
        s = spectrum(chain, source_graph=g)
        assert s.blocks is None
        dense = np.linalg.eigvalsh(symmetrized(chain).toarray())[::-1]
        assert np.array_equal(s.eigenvalues, dense)


def reference_block_eigenvalues(s, perm, m, real_solve=np.linalg.eigvalsh):
    """Frozen copy of the block solve as first written: each block built
    in C order, a complex one as ``block + 1j * imag``, and handed to
    ``np.linalg.eigvalsh``, which copies it before LAPACK reduces it; a
    real block goes to ``real_solve`` instead when one is given."""
    n = s.shape[0]
    size = n // m
    smallest = np.arange(n)
    cur = perm
    for _ in range(m - 1):
        np.minimum(smallest, cur, out=smallest)
        cur = perm[cur]
    reps = np.flatnonzero(smallest == np.arange(n))
    orbit = np.empty(n, dtype=np.int64)
    phase = np.empty(n, dtype=np.int64)
    cur = reps
    for j in range(m):
        orbit[cur] = np.arange(size)
        phase[cur] = j
        cur = perm[cur]
    rows = s[reps].tocoo()
    cell = rows.row.astype(np.int64) * size + orbit[rows.col]
    shift = phase[rows.col]
    half = np.exp(2j * np.pi * np.arange(m // 2 + 1) / m)
    half[0] = 1.0
    if m % 2 == 0:
        half[m // 2] = -1.0
    if m % 4 == 0:
        half[m // 4] = 1j
    omega = np.concatenate((half, half[1:(m + 1) // 2][::-1].conj()))
    parts = []
    for k in range(m // 2 + 1):
        w = omega[k * shift % m] * rows.data
        block = np.bincount(cell, w.real, size * size)
        solve = real_solve
        if 2 * k % m:
            block = block + 1j * np.bincount(cell, w.imag, size * size)
            solve = np.linalg.eigvalsh
        vals = solve(block.reshape(size, size))
        parts.append(vals)
        if 0 < 2 * k < m:
            parts.append(vals)
    return np.sort(np.concatenate(parts))


def lapacke_two_stage(a):
    """Frozen two-stage reference: the eigenvalues (ascending) of the
    symmetric float64 ``a`` from LAPACKE's C entry to dsyevd_2stage in
    scipy's bundled OpenBLAS, column-major, jobz 'N', uplo 'L', on a copy
    and with a workspace LAPACKE allocates itself: the block solve's
    routine, reached without the block solve's own call."""
    fn = ctypes.CDLL(_flapack.__file__).scipy_LAPACKE_dsyevd_2stage
    fn.restype = ctypes.c_int32
    fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char,
                   ctypes.c_int32, ctypes.c_void_p, ctypes.c_int32,
                   ctypes.c_void_p]
    a = np.array(a, dtype=float, order="F")
    w = np.empty(len(a))
    assert fn(102, b"N", b"L", len(a), a.ctypes.data, max(len(a), 1),
              w.ctypes.data) == 0
    return w


# two-stage against eigvalsh bits on S (||S|| = 1): 6.4e-15 was measured
# on rr2048, and n eps ||S|| there is 4.5e-13
TWO_STAGE_TOL = 1e-13

IN_PLACE_CASES = {
    # m = 1: a real block of 2048, past the cutoff, in two stages
    "rr2048": lambda: wl.build_random_regular(2048, 3, 3),
    "lps13-17": lambda: wl.build_lps(13, 17),    # complex blocks
    "lps17-13": lambda: wl.build_lps(17, 13),
    "lps5-13": lambda: wl.build_lps(5, 13),
    "non-regular": lambda: wl.inflate(wl.build_random_regular(512, 3, 2), 2),
}


@pytest.mark.parametrize("name", sorted(IN_PLACE_CASES))
def test_in_place_block_solve_equals_the_frozen_eigvalsh_path(name):
    g = IN_PLACE_CASES[name]()
    chain = srw_chain(g)
    s = symmetrized(chain)
    perm, m = spectral._commuting_symmetry(s, g) or (np.arange(g.n), 1)
    assert (m > 1) == name.startswith("lps")
    assert g.is_regular != (name == "non-regular")
    got = spectrum(chain, source_graph=g).eigenvalues
    frozen = reference_block_eigenvalues(s, perm, m)[::-1]
    if name != "rr2048":
        assert np.array_equal(got, frozen)
        return
    two_stage = reference_block_eigenvalues(s, perm, m, lapacke_two_stage)
    assert np.array_equal(got, two_stage[::-1])
    assert np.abs(got - frozen).max() <= TWO_STAGE_TOL


def test_the_two_stage_symbol_resolves():
    # blocks past the cutoff take their bits from it, and without it they
    # raise: its absence from scipy's OpenBLAS must fail here, not skip
    assert spectral._DSYEVD_2STAGE is not None
    assert spectral._DSYEVD_2STAGE.__name__ == "scipy_dsyevd_2stage_"


@pytest.mark.parametrize("n", [spectral.TWO_STAGE_MIN - 2,
                               spectral.TWO_STAGE_MIN])
def test_two_stage_agrees_with_eigvalsh_across_the_cutoff(n):
    # below the cutoff the spectrum keeps eigvalsh's bits, from it on the
    # two-stage ones; the two agree to TWO_STAGE_TOL on either side
    g = wl.build_random_regular(n, 3, 4)
    chain = srw_chain(g)
    a = symmetrized(chain).toarray()
    frozen = np.linalg.eigvalsh(a)[::-1]
    two_stage = lapacke_two_stage(a)[::-1]
    assert np.abs(two_stage - frozen).max() <= TWO_STAGE_TOL
    got = spectrum(chain, source_graph=g)
    assert got.blocks is None
    assert np.array_equal(got.eigenvalues,
                          frozen if n < spectral.TWO_STAGE_MIN else two_stage)


def test_two_stage_takes_the_real_blocks_alone(monkeypatch):
    # under a cutoff of 128, Q7 x K3's real block of 128 goes to the
    # two-stage routine and its complex pair of 128 stays on zheevd
    g = cube_times_triangle(7)
    chain = srw_chain(g)
    s = symmetrized(chain)
    perm, m = spectral._commuting_symmetry(s, g)
    monkeypatch.setattr(spectral, "TWO_STAGE_MIN", 128)
    got = spectrum(chain, source_graph=g)
    assert got.blocks == {"m": 3, "size": 128}
    two_stage = reference_block_eigenvalues(s, perm, m, lapacke_two_stage)
    assert np.array_equal(got.eigenvalues, two_stage[::-1])
    frozen = reference_block_eigenvalues(s, perm, m)[::-1]
    assert np.abs(got.eigenvalues - frozen).max() <= TWO_STAGE_TOL


def cube_times_triangle(dim):
    """Q_dim x K_3, certified by its bit flips and the triangle's 3-cycle,
    whose cycles are the longest uniform ones: a real and a complex block
    of size 2^dim."""
    half = 1 << dim
    v = np.arange(3 * half)
    x, c = v % half, v // half
    moves = [(x ^ (1 << b)) + c * half for b in range(dim)]
    moves.append(x + (c + 1) % 3 * half)
    ends = np.sort(np.column_stack((np.tile(v, dim + 1),
                                    np.concatenate(moves))), axis=1)
    return wl.make_graph(3 * half, np.unique(ends, axis=0), None, moves)


def test_dense_blocks_are_reduced_in_place():
    # an n x n block of 8-byte cells takes n^2 8 bytes, and a copy of it
    # for LAPACK would double that; numpy's own eigvalsh copy is not
    # traced, but a copy made by a LAPACK wrapper is.  rr1024's block
    # reaches the cutoff: the two-stage workspace, allocated by numpy, is
    # traced too
    rr = wl.build_random_regular(1024, 3, 1)
    chain = srw_chain(rr)
    assert rr.n >= spectral.TWO_STAGE_MIN
    tracemalloc.start()
    try:
        assert spectrum(chain, source_graph=rr).blocks is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * rr.n ** 2 * 8
    # a complex block: 16 bytes a cell, and 8 of the one bincount filling
    # it; S, the representatives' rows and the workspace take the rest
    g = cube_times_triangle(9)
    chain = srw_chain(g)
    tracemalloc.start()
    try:
        blocks = spectrum(chain, source_graph=g).blocks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == {"m": 3, "size": 512}
    assert peak <= 28 * 512 ** 2
    # tracemalloc sees neither numpy's eigvalsh copy nor OpenBLAS's
    # buffers; the peak resident size of a child process sees both.  The
    # n = 3000 block, reduced in two stages, takes 72 MB, and a copy of it
    # would make 144.
    n = 3000
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(wl.__file__)))
    proc = subprocess.run([sys.executable, "-c", DENSE_RSS_CHILD, str(n)],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    blocks, growth = proc.stdout.split()
    assert blocks == "None"
    assert int(growth) <= 1.5 * n ** 2 * 8


# The growth, in bytes, of the peak resident size over one dense spectrum
# of a random 3-regular graph on argv[1] vertices.  The peak is the
# process's own VmHWM: ru_maxrss starts from the parent's peak when that
# is larger, since an exec keeps it.
DENSE_RSS_CHILD = """
import sys
import walklab as wl
from walklab.chains import srw_chain

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh
                    if line.startswith("VmHWM:"))

g = wl.build_random_regular(int(sys.argv[1]), 3, 2)
chain = srw_chain(g)
before = peak()
blocks = wl.spectrum(chain, source_graph=g).blocks
print(blocks, peak() - before)
"""


def test_a_failed_dense_solve_raises(monkeypatch, petersen_chain):
    monkeypatch.setattr(spectral, "_SYEVD",
                        lambda a, *args, **kwargs: (None, a, 3))
    with pytest.raises(SpectralError, match="LAPACK info=3"):
        spectrum(petersen_chain)


def test_a_failed_two_stage_solve_raises(monkeypatch, petersen_chain):
    monkeypatch.setattr(spectral, "TWO_STAGE_MIN", 10)
    monkeypatch.setattr(spectral, "_dsyevd_2stage",
                        lambda a, *args, **kwargs: (None, a, 3))
    with pytest.raises(SpectralError, match="LAPACK info=3"):
        spectrum(petersen_chain)


def test_a_missing_two_stage_symbol_raises_from_the_cutoff(monkeypatch,
                                                           petersen_chain):
    # no fallback to dsyevd: the bits of a report must not depend on the
    # install, so a block past the cutoff raises and one below it solves
    monkeypatch.setattr(spectral, "_DSYEVD_2STAGE", None)
    assert spectrum(petersen_chain).lambda2 == pytest.approx(1 / 3)
    monkeypatch.setattr(spectral, "TWO_STAGE_MIN", 10)
    with pytest.raises(SpectralError, match="scipy_dsyevd_2stage_"):
        spectrum(petersen_chain)


def test_block_spectrum_keeps_exact_zeros():
    # C4's lambda2 is 0; an ulp below it would make the plain restricted
    # bound inapplicable and drop its records
    c4 = wl.build_named("cycle", 4)
    s = spectrum(srw_chain(c4), source_graph=c4)
    assert s.blocks == {"m": 4, "size": 1}
    assert s.eigenvalues.tolist() == [1.0, 0.0, 0.0, -1.0]


def test_plain_records_do_not_hang_on_the_sign_of_a_zero_lambda2(
        monkeypatch):
    # an ulp either side of C4's lambda2 = 0 keeps the same records: the
    # plain bound applies from -tol, inside its pass test's slack
    from walklab.suites import Run, spectral_suite
    c4 = wl.build_named("cycle", 4)
    chain = srw_chain(c4)
    exact = spectrum(chain, source_graph=c4)
    cfg = ExperimentConfig(graph={"kind": "named", "name": "cycle", "n": 4},
                           alpha=0.5, dump_curves=False)
    kept = []
    for lam2 in (1e-17, -1e-17):
        summary = dataclasses.replace(exact, lambda2=lam2)
        monkeypatch.setattr(spectral, "spectrum",
                            lambda *args, summary=summary, **kwargs: summary)
        recs, _ = spectral_suite(Run(cfg, c4, chain))
        kept.append([(r["name"], r["passed"]) for r in recs
                     if r["name"].startswith("restricted-")])
    assert kept[0] == kept[1]
    assert sum(name.startswith("restricted-plain") for name, _ in kept[0]) \
        == 2
    assert all(passed for _, passed in kept[0])
