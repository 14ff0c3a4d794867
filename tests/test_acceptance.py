"""Acceptance gate: every advertised guarantee at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s / -v).  Time
budgets are asserted alongside the numeric tolerances.
"""

import math
import os
import time

import numpy as np
import pytest

import walklab as wl
from walklab.chains import mixing_profile, srw_chain
from walklab.hitting import (SURVIVAL_TOL, SphereHits, verify_spectral_hit,
                             w_vs_k_report)
from walklab.spectral import (VERDICT_TOL, classify_ramanujan, poincare_bound,
                              restricted_top_eig, rho, spectrum)
from walklab.tree import (TD1_C0, ballot_count, count_z_paths,
                          diameter_lower_bound, kernel_domination_check,
                          td1_bound_check)
from walklab.walks import (block_statistics, empirical_y_kernel,
                           simulate_walk)


def _done(num: int, label: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion {num}: {label} [{elapsed:.2f}s < {budget:g}s]")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_petersen_fixture():
    t0 = time.perf_counter()
    g = wl.build_named("petersen")
    chain = srw_chain(g)
    s = spectrum(chain, source_graph=g)
    expected = sorted([1.0] + [1 / 3] * 5 + [-2 / 3] * 4)
    assert np.abs(np.sort(s.eigenvalues) - np.asarray(expected)).max() < 1e-9
    cls = classify_ramanujan(g, s)
    assert cls.category == "ramanujan"
    assert abs(cls.rho_d - 0.9428090415820635) < 1e-12
    prof = mixing_profile(chain, [0.25])
    assert prof.mixing_times[0.25] == 4
    want_tv = (0.9, 0.7, 0.3, 23 / 90, 41 / 270)
    for got, want in zip(prof.tv_curve[:5], want_tv):
        assert abs(got - want) < 1e-10
    _done(1, "Petersen spectrum / Ramanujan / tmix(1/4)=4", t0, 1.0)


def test_criterion_02_l2_contraction_suite():
    t0 = time.perf_counter()
    graphs = [wl.build_named("petersen"), wl.build_named("complete", 4),
              wl.build_named("hypercube", 3)]
    graphs += [wl.build_random_regular(200, 3, seed=1000 + i)
               for i in range(10)]
    slack = 1e-10
    for g in graphs:
        chain = srw_chain(g)
        lam = spectrum(chain).lambda_star
        n = g.n
        pi = chain.stationary
        cols = np.eye(n)
        pt = chain.kernel.T.tocsr()
        for t in range(101):
            tv = 0.5 * np.abs(cols - pi[:, None]).sum(axis=0)
            l2 = np.sum(cols * cols / pi[:, None], axis=0) - 1.0
            assert np.all(4.0 * tv * tv <= l2 + slack), (g.provenance, t)
            assert np.all(l2 <= n * lam ** (2 * t) + slack), (g.provenance, t)
            cols = pt @ cols
    _done(2, "4tv^2 <= l2sq <= n lambda^{2t} for t <= 100 on 13 graphs",
          t0, 10.0)


def test_criterion_03_restricted_root_bounds():
    t0 = time.perf_counter()
    assert VERDICT_TOL == 1e-9
    # the K4 singleton corner case: bound tight at zero
    k4 = srw_chain(wl.build_named("complete", 4))
    lam2_k4 = spectrum(k4).lambda2
    rec = restricted_top_eig(k4, [0], lambda2=lam2_k4)
    assert rec.lambda_A == 0.0
    assert abs(rec.refined_bound) < 1e-15 and rec.refined_pass

    rng = np.random.Generator(np.random.Philox(key=np.uint64(2024)))
    checked = 0
    plain_checked = 0
    while checked < 200:
        n = 2 * int(rng.integers(6, 50))
        d = int(rng.choice([3, 4]))
        try:
            g = wl.build_random_regular(n, d, seed=int(rng.integers(1 << 30)))
        except wl.GraphError:
            continue  # rejection budget exhausted at small n: resample
        chain = srw_chain(g)
        lam2 = spectrum(chain).lambda2
        size = int(rng.integers(1, max(2, (2 * n) // 3)))
        subset = sorted(int(v) for v in rng.choice(n, size=size,
                                                   replace=False))
        rec = restricted_top_eig(chain, subset, lambda2=lam2)
        assert rec.refined_pass, (n, d, subset)
        if rec.plain_applicable:
            assert rec.plain_pass, (n, d, subset)
            plain_checked += 1
        checked += 1
    assert plain_checked > 100
    _done(3, f"refined Perron bound on 200 pairs ({plain_checked} plain)",
          t0, 30.0)


def test_criterion_04_survival_norm_perron_chain():
    t0 = time.perf_counter()
    k4 = srw_chain(wl.build_named("complete", 4))
    assert SURVIVAL_TOL == 1e-10
    rep = verify_spectral_hit(k4, [0, 1], list(range(101)))
    assert rep.all_passed
    for check in rep.survival_checks:
        if check.name.startswith("norm-le-perron"):
            assert abs(check.lhs - check.rhs) < 1e-10  # equality case

    rng = np.random.Generator(np.random.Philox(key=np.uint64(777)))
    for _ in range(100):
        n = 2 * int(rng.integers(5, 25))
        g = wl.build_random_regular(n, 3, seed=int(rng.integers(1 << 30)))
        chain = srw_chain(g)
        size = int(rng.integers(2, max(3, n // 2)))
        subset = sorted(int(v) for v in rng.choice(n, size=size,
                                                   replace=False))
        rep = verify_spectral_hit(chain, subset, list(range(101)))
        assert rep.all_passed, (n, subset)
    _done(4, "survival/norm/Perron chain at t <= 100 on 101 pairs", t0, 30.0)


def test_criterion_05_sphere_hitting_bound():
    t0 = time.perf_counter()
    pet = wl.build_named("petersen")
    hit = SphereHits(pet, 2)[0]
    assert np.abs(hit.probabilities - 1 / 6).max() < 1e-12
    assert hit.lower_bound_pass

    big = wl.build_high_girth_regular(2000, 3, 7, seed=11)
    assert wl.girth(big) > 6
    c_hat_by_excess = {}
    hits = SphereHits(big, 3)
    hits.solve(range(big.n))
    for v in range(big.n):
        h = hits[v]
        assert h.min_prob >= h.lower_bound - 1e-12, v
        assert h.excess == 0
        assert np.abs(h.probabilities - 1 / 12).max() < 1e-12, v
        c_hat_by_excess[h.excess] = max(c_hat_by_excess.get(h.excess, 0.0),
                                        h.c_hat)
    for g, k in ((wl.build_named("prism"), 2), (pet, 1), (pet, 2)):
        hits = SphereHits(g, k)
        for v in range(g.n):
            h = hits[v]
            assert h.min_prob >= h.lower_bound - 1e-12
            c_hat_by_excess[h.excess] = max(c_hat_by_excess.get(h.excess, 0.0),
                                            h.c_hat)
    assert all(math.isfinite(c) for c in c_hat_by_excess.values())
    _done(5, f"sphere-hit lower bound everywhere; c-hat {c_hat_by_excess}",
          t0, 60.0)


def test_criterion_06_w_matches_k():
    t0 = time.perf_counter()
    for g, k in ((wl.build_high_girth_regular(400, 3, 5, seed=21), 2),
                 (wl.build_high_girth_regular(500, 3, 7, seed=9), 3),
                 (wl.build_named("petersen"), 2)):
        rep = w_vs_k_report(SphereHits(g, k))
        assert abs(rep.ratio_min - 1.0) < 1e-10
        assert abs(rep.ratio_max - 1.0) < 1e-10
        assert rep.k_scaled_min >= 1.0 - 1e-12
    prism_rep = w_vs_k_report(SphereHits(wl.build_named("prism"), 2))
    assert abs(prism_rep.ratio_min - 1.0) < 1e-10
    assert abs(prism_rep.ratio_max - 1.0) < 1e-10
    _done(6, "W/K = 1 on girth > 2k fixtures and the prism", t0, 30.0)


def test_criterion_07_signed_path_counts():
    t0 = time.perf_counter()
    assert count_z_paths(1) == 1
    assert count_z_paths(2) == 42
    assert count_z_paths(3) == 41990
    for k in (1, 2, 3, 4):
        assert count_z_paths(k) == ballot_count(k)
        ratio = count_z_paths(k) * k * k / 2.0 ** (k + 2 * k * k)
        assert ratio >= 0.12
    _done(7, "signed-path counts 1/42/41990 and ratio >= 0.12", t0, 5.0)


def test_criterion_08_level_bound_and_domination():
    t0 = time.perf_counter()
    assert TD1_C0 == 0.125
    for d in (3, 4, 5):
        for k in (1, 2):
            rep = td1_bound_check(d, k)
            assert rep.lhs >= rep.rhs - 1e-12, (d, k)
    pet = wl.build_named("petersen")
    dom = kernel_domination_check(pet, srw_chain(pet), 0, 1, 3)
    assert abs(dom.graph_kernel - 5 / 27) < 1e-12
    assert abs(dom.tree_value - 5 / 27) < 1e-12
    assert dom.graph_kernel >= dom.tree_value - 1e-12
    k4 = wl.build_named("complete", 4)
    dom2 = kernel_domination_check(k4, srw_chain(k4), 0, 1, 2)
    assert abs(dom2.graph_kernel - 2 / 9) < 1e-12
    assert dom2.tree_value == 0.0
    assert dom2.passed
    _done(8, "level bound at c0=1/8 and tree-kernel domination", t0, 10.0)


def test_criterion_09_mixing_time_sandwich():
    t0 = time.perf_counter()
    for n, seed in ((128, 1), (512, 2), (2048, 3)):
        g = wl.build_random_regular(n, 3, seed=seed)
        chain = srw_chain(g)
        prof = mixing_profile(chain, [0.25])
        lam = spectrum(chain).lambda_star
        upper = poincare_bound(n, lam, 0.25)
        lower = diameter_lower_bound(n, 3, 0.25)
        tmix = prof.mixing_times[0.25]
        assert tmix >= lower - 1.0, (n, tmix, lower)
        assert tmix <= upper, (n, tmix, upper)
    _done(9, "diameter bound - 1 <= tmix(1/4) <= spectral bound at "
             "n=128/512/2048", t0, 300.0)


def test_criterion_10_regeneration_statistics():
    t0 = time.perf_counter()
    pet = wl.build_named("petersen")
    exact = SphereHits(pet, 2)[0].expected_time
    assert abs(exact - 3.0) < 1e-12

    # 10^5 completed blocks from a single seeded run
    steps_needed = int(3.4 * 100_000)
    traces = [simulate_walk(pet, 0, steps_needed, 2, seed=2718, stream=0)]
    while sum(tr.n_blocks for tr in traces) < 100_000:
        traces.append(simulate_walk(pet, 0, steps_needed // 10, 2, seed=2718,
                                    stream=len(traces)))
    stats = block_statistics(traces)
    assert stats.n_blocks >= 100_000
    assert abs(stats.t1_mean - exact) <= 4 * stats.t1_stderr
    assert stats.u_survival == (0.0,)   # every step good on Petersen

    rows = empirical_y_kernel(SphereHits(pet, 2), 100_000, seed=3141)
    assert rows[0].tv_deviation <= 0.02

    prism = wl.build_named("prism")
    tr = simulate_walk(prism, 0, 20_000, 2, seed=99)
    assert any(u >= 1 for u in tr.U)    # bad steps exist off tree balls
    _done(10, f"E[T1]=3 within 4 SE over {stats.n_blocks} blocks; "
              f"Y-kernel TV {rows[0].tv_deviation:.4f}", t0, 120.0)


def test_criterion_11_lps_certificate():
    t0 = time.perf_counter()
    g = wl.build_lps(13, 17)
    assert g.n == 2448
    assert g.is_regular and g.regular_degree == 14
    from walklab.graphs import is_bipartite, is_connected
    assert is_connected(g)
    assert not is_bipartite(g)
    chain = srw_chain(g)
    s = spectrum(chain, mode="iterative-extremal", source_graph=g)
    bound = rho(14)
    assert abs(bound - 0.515078753637713) < 1e-12
    assert s.lambda2 <= bound + 1e-6
    _done(11, f"LPS(13,17): n=2448, 14-regular, lambda2={s.lambda2:.8f} "
              f"<= {bound:.6f}", t0, 300.0)


def test_criterion_12_byte_identical_reports(tmp_path):
    t0 = time.perf_counter()
    from walklab.suites import ExperimentConfig, run_suite
    out = str(tmp_path / "det")
    cfg = ExperimentConfig(graph={"kind": "random-regular", "n": 64, "d": 3,
                                  "seed": 8},
                           suites=("spectral", "mixing", "tree", "walk"),
                           trials=12000, seed=8, out_dir=out)
    run_suite(cfg)
    canonical = {}
    for name in sorted(os.listdir(out)):
        if name == "timings.json":
            continue
        canonical[name] = open(os.path.join(out, name), "rb").read()
    run_suite(cfg)
    for name, content in canonical.items():
        assert open(os.path.join(out, name), "rb").read() == content, name
    _done(12, f"byte-identical rerun of {len(canonical)} report files",
          t0, 120.0)
