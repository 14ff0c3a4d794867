"""Config-driven verification suites tying the library together.

Each suite turns one graph into a list of report records (pass/fail or
informational).  Everything is deterministic given the config: all
randomness is drawn from Philox streams keyed by the config seed, and
the emitted files carry no timing or host data.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import graphs as G
from . import chains as C
from . import spectral as S
from . import hitting as H
from . import tree as T
from . import walks as W
from .lps import build_lps
from .reports import (Report, record, record_from_check, write_report,
                      write_csv)

SUITE_NAMES = ("spectral", "mixing", "hitting", "inflation", "tree", "walk")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully serializable description of one run.

    ``graph`` is a dict: {"kind": "named"|"random-regular"|"high-girth"|
    "lps"|"file", ...params}.  A config plus the code version determines
    every output byte.
    """

    graph: dict
    suites: tuple = ("all",)
    k: int = 2
    alpha: float = 0.25
    eps: float = 0.25
    t_grid: tuple = (0, 1, 2, 5, 10)
    steps: int = 12
    trials: int = 20000
    seed: int = 0
    out_dir: str = "walklab-out"
    dump_curves: bool = True

    def selected_suites(self) -> tuple:
        if "all" in self.suites:
            return SUITE_NAMES
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ConfigError(f"unknown suites {unknown!r}; "
                              f"choose from {SUITE_NAMES}")
        return tuple(s for s in SUITE_NAMES if s in self.suites)

    def canonical_dict(self) -> dict:
        """The config as ``report.json`` embeds it: every field except
        ``out_dir``, which says where the run writes, not what it computes."""
        data = asdict(self)
        del data["out_dir"]
        return data


def config_from_dict(data: dict) -> ExperimentConfig:
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "graph" not in data:
        raise ConfigError("config needs a 'graph' entry")
    data = dict(data)
    for key in ("suites", "t_grid"):
        if key in data:
            data[key] = tuple(data[key])
    return ExperimentConfig(**data)


def build_graph(spec: dict, default_seed: int = 0) -> G.Graph:
    """Materialize the graph described by a config dict."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"graph spec must be a dict with 'kind', got {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "named":
            params = [spec[key] for key in ("n", "dim") if key in spec]
            return G.build_named(spec["name"], *params)
        if kind == "random-regular":
            return G.build_random_regular(
                spec["n"], spec["d"], spec.get("seed", default_seed))
        if kind == "high-girth":
            return G.build_high_girth_regular(
                spec["n"], spec["d"], spec["min_girth"],
                spec.get("seed", default_seed))
        if kind == "lps":
            return build_lps(spec["p"], spec["q"])
        if kind == "file":
            return G.read_edge_list(spec["path"])
    except KeyError as exc:
        raise ConfigError(f"graph spec {spec!r} is missing field {exc}") from exc
    raise ConfigError(f"unknown graph kind {kind!r}")


def _skip(suite: str, reason: str) -> dict:
    return record(suite, "suite-skipped", passed=None, note=reason)


# ---------------------------------------------------------------------------


def _shared_spectrum(g, chain):
    mode = "dense-full" if chain.n <= S.DENSE_BUDGET else "iterative-extremal"
    return S.spectrum(chain, mode=mode, source_graph=g)


def spectral_suite(g, chain, summary, cfg) -> tuple:
    recs = []
    csvs = {}
    recs.append(record(
        "spectral", "spectrum", passed=None,
        note=summary.method,
        extra={"lambda2": summary.lambda2, "lambda_min": summary.lambda_min,
               "lambda_star": summary.lambda_star, "t_rel": summary.t_rel,
               "rho_d": summary.rho_d, "residuals": summary.residuals}))

    if summary.eigenvalues is not None:
        eigs = np.asarray(summary.eigenvalues)
        trace_p = float(chain.kernel.diagonal().sum())
        trace_p2 = float((chain.kernel @ chain.kernel).diagonal().sum())
        recs.append(record(
            "spectral", "trace-first-moment", lhs=float(eigs.sum()),
            rhs=trace_p, passed=abs(eigs.sum() - trace_p) <= 1e-8))
        recs.append(record(
            "spectral", "trace-second-moment", lhs=float((eigs ** 2).sum()),
            rhs=trace_p2, passed=abs((eigs ** 2).sum() - trace_p2) <= 1e-8))
        if cfg.dump_curves:
            csvs["eigenvalues.csv"] = (("index", "eigenvalue"),
                                       list(enumerate(eigs.tolist())))

    if g.is_regular and g.regular_degree >= 3:
        cls = S.classify_ramanujan(g, summary)
        recs.append(record(
            "spectral", "ramanujan-class", lhs=cls.lambda2, rhs=cls.rho_d,
            passed=None, note=cls.category,
            extra={"margin": cls.lambda2_over_rho,
                   "min_nontrivial": cls.min_nontrivial,
                   "bipartite": cls.bipartite}))

    # restricted Perron roots on a deterministic family of small sets
    sets = H.candidate_small_sets(chain, cfg.alpha, graph=g)[:16]
    for A in sets:
        rec = S.restricted_top_eig(chain, A, lambda2=summary.lambda2)
        recs.append(record(
            "spectral", f"restricted-refined|A|={len(A)}",
            lhs=rec.lambda_A, rhs=rec.refined_bound, passed=rec.refined_pass,
            note=f"A={list(A)[:8]}"))
        if rec.plain_applicable:
            recs.append(record(
                "spectral", f"restricted-plain|A|={len(A)}",
                lhs=rec.lambda_A, rhs=rec.plain_bound, passed=rec.plain_pass))
    if sets and chain.n <= S.DENSE_BUDGET:
        # blend with the two-step kernel: support always contains P's
        blend = (chain.kernel + C.power_chain(chain, 2).kernel) * 0.5
        other = C.chain_from_kernel(blend, chain.stationary,
                                    source={"kind": "blend"})
        cmp = S.compare_restricted(chain, other, sets[0])
        recs.append(record(
            "spectral", "restricted-comparison-vs-blend",
            lhs=cmp.lhs, rhs=cmp.rhs, passed=cmp.passed,
            extra={"C1": cmp.C1, "C2": cmp.C2}))
    return recs, csvs


def mixing_suite(g, chain, summary, cfg) -> tuple:
    if chain.period_info != C.APERIODIC:
        return [_skip("mixing", "chain is bipartite-periodic")], {}
    if not chain.is_irreducible:
        return [_skip("mixing", "chain is reducible")], {}
    recs = []
    csvs = {}
    grid = tuple(sorted({cfg.eps, 0.1}))
    prof = C.mixing_profile(chain, grid)
    recs.append(record(
        "mixing", "profile-internal-invariants", passed=True,
        note="TV/L2 monotone and 4tv^2 <= l2sq at every step"))
    for e in grid:
        recs.append(record(
            "mixing", f"tmix({e:g})", lhs=prof.mixing_times[e], passed=None,
            note="" if prof.exact_starts else "lower-bound profile"))
    recs.append(record(
        "mixing", "cutoff-ratios", passed=None,
        extra={"n": g.n,
               "ratios": {f"{e:g}": prof.cutoff_ratios[e] for e in grid},
               "exact_starts": prof.exact_starts}))

    if summary.lambda_star < 1.0 and g.is_regular:
        for e in grid:
            bound = S.poincare_bound(g.n, summary.lambda_star, e)
            recs.append(record(
                "mixing", f"tmix-le-poincare({e:g})",
                lhs=prof.mixing_times[e], rhs=bound,
                passed=prof.mixing_times[e] <= bound))
    if g.is_regular and g.regular_degree >= 3:
        e = cfg.eps
        bound = T.diameter_lower_bound(g.n, g.regular_degree, e)
        # o(1)-robust surrogate: mixing to target eps takes at least the
        # distance-concentration time evaluated with the same eps, since
        # tmix(eps) >= tmix(1 - eps - o(1)) once n is nontrivial
        recs.append(record(
            "mixing", f"tmix-ge-diameter-bound({e:g})",
            lhs=prof.mixing_times[e], rhs=bound - 1.0,
            passed=prof.mixing_times[e] >= bound - 1.0))
        recs.append(record(
            "mixing", f"tmix-tail-vs-diameter-bound({e:g})",
            lhs=prof.mixing_times[1.0 - e], rhs=bound - 1.0, passed=None,
            note="literal finite-n comparison, informational: the bound "
                 "applies to the o(1)-corrected level"))
    if cfg.dump_curves:
        rows = [(t, prof.worst_starts[t], prof.tv_curve[t], prof.l2sq_curve[t])
                for t in range(len(prof.tv_curve))]
        csvs["mixing_curve.csv"] = (("t", "start", "tv", "l2sq"), rows)
    return recs, csvs


def hitting_suite(g, chain, summary, cfg) -> tuple:
    recs = []
    csvs = {}
    sets = H.candidate_small_sets(chain, cfg.alpha, graph=g)
    if not sets:
        return [_skip("hitting", f"no sets with mass <= alpha={cfg.alpha}")], {}
    sets = sorted(sets, key=lambda A: (len(A), A))
    stride = max(1, len(sets) // 6)
    sets = sets[::stride][:6]
    t_list = tuple(cfg.t_grid)
    worst_curve = None
    worst_peak = -1.0
    for A in sets:
        rep = H.verify_spectral_hit(chain, A, t_list)
        for check in rep.survival_checks + rep.middle_consistency:
            recs.append(record_from_check("hitting", check,
                                          extra={"A": list(A)}))
        tail = rep.survival_curve[-1]
        if tail > worst_peak:
            worst_peak = tail
            worst_curve = rep.survival_curve
    qcheck = H.quantile_halflog_check(chain, cfg.alpha, summary.lambda2,
                                      graph=g)
    recs.append(record_from_check("hitting", qcheck))
    hm = H.hitmix_constant_record(chain, cfg.alpha, cfg.eps, summary.t_rel,
                                  graph=g)
    recs.append(record_from_check("hitting", hm))
    if cfg.dump_curves and worst_curve is not None:
        csvs["survival_worst_set.csv"] = (
            ("t", "survival"), list(enumerate(worst_curve)))
    return recs, csvs


def inflation_suite(g, chain, summary, cfg) -> tuple:
    if not g.is_regular:
        return [_skip("inflation", "needs a regular base graph")], {}
    recs = []
    gk = G.inflate(g, cfg.k)
    prof = gk.degree_profile
    comps = len(G.connected_components(gk))
    recs.append(record(
        "inflation", "distance-k-graph", passed=None,
        extra={"k": cfg.k, "edges": gk.m, "min_degree": prof.min_degree,
               "max_degree": prof.max_degree, "regular": prof.is_regular,
               "components": comps}))
    if prof.min_degree == 0:
        recs.append(record(
            "inflation", "w-vs-k", passed=None,
            note="skipped: some vertex has an empty k-sphere"))
        return recs, {}
    k_chain = C.srw_chain(gk)
    recs.append(record(
        "inflation", "inflated-srw-reversible", passed=True,
        note=f"pi proportional to degree, {k_chain.period_info}"))
    centers = range(g.n) if g.n <= 4096 else range(256)
    wk = H.w_vs_k_report(g, cfg.k, centers=centers)
    for check in wk.checks:
        recs.append(record_from_check("inflation", check))
    recs.append(record(
        "inflation", "w-over-k-ratio", lhs=wk.ratio_min, rhs=wk.ratio_max,
        passed=None, note="min/max of W/K over inflated edges"))
    recs.append(record(
        "inflation", "c-hat-by-excess", passed=None,
        extra={str(exc): val for exc, val in wk.c_hat_by_excess().items()}))
    zero_excess = [row for row in wk.per_center if row[1] == 0]
    if zero_excess:
        scale = g.regular_degree * (g.regular_degree - 1) ** (cfg.k - 1)
        dev = max(max(abs(row[3] * scale - 1.0), abs(row[4] * scale - 1.0))
                  for row in zero_excess)
        recs.append(record(
            "inflation", "tree-ball-uniformity", lhs=dev, rhs=1e-10,
            passed=dev <= 1e-10,
            note=f"{len(zero_excess)} centers with excess 0"))
    return recs, {}


def tree_suite(g, chain, summary, cfg) -> tuple:
    recs = []
    csvs = {}
    if not g.is_regular or g.regular_degree < 3:
        return [_skip("tree", "needs a regular graph with d >= 3")], {}
    d = g.regular_degree
    for k in (1, 2):
        rep = T.td1_bound_check(d, k)
        recs.append(record(
            "tree", f"level-bound(d={d},k={k})", lhs=rep.lhs, rhs=rep.rhs,
            passed=rep.passed, note=f"max c0 = {rep.max_c0:.6f}"))
    for k in (1, 2, 3, 4):
        m = T.count_z_paths(k)
        recs.append(record(
            "tree", f"z-paths(k={k})", lhs=m, rhs=T.ballot_count(k),
            passed=m == T.ballot_count(k)))
        ratio = m * k * k / 2.0 ** (k + 2 * k * k)
        recs.append(record(
            "tree", f"z-path-ratio(k={k})", lhs=ratio, rhs=0.12,
            passed=ratio >= 0.12))
    x = 0
    y = g.adjacency[0][0]
    for t in (1, 3):
        kd = T.kernel_domination_check(g, x, y, t)
        recs.append(record(
            "tree", f"kernel-domination(t={t})", lhs=kd.graph_kernel,
            rhs=kd.tree_value, passed=kd.passed,
            note=f"pair ({x},{y}) at distance {kd.distance}"))
    recs.append(record(
        "tree", f"diameter-lower-bound(eps={cfg.eps:g})",
        lhs=T.diameter_lower_bound(g.n, d, cfg.eps), passed=None))
    t_conc = max(cfg.steps, 2)
    conc = T.tree_distance_concentration(d, t_conc)
    recs.append(record(
        "tree", f"level-concentration(t={t_conc})", passed=None,
        extra={"mean": conc.mean, "stddev": conc.stddev,
               "drift": (d - 2) * t_conc / d,
               "lower_tail": dict((str(j), v) for j, v in conc.lower_tail)}))
    if cfg.dump_curves:
        profile = T.level_profile(d, t_conc)
        rows = [(lvl, p) for lvl, p in enumerate(profile.tolist())]
        csvs["level_tail.csv"] = (("level", "prob"), rows)
    return recs, csvs


def walk_suite(g, chain, summary, cfg) -> tuple:
    if not G.is_connected(g):
        return [_skip("walk", "graph is disconnected")], {}
    if not g.is_regular:
        return [_skip("walk", "walk suite needs a regular graph")], {}
    recs = []
    k = cfg.k
    try:
        exact_t1 = H.expected_hit_time(g, 0, k)
    except H.HittingError as exc:
        return [_skip("walk", f"no radius-{k} sphere: {exc}")], {}

    target_blocks = 1200
    steps = int(math.ceil(1.5 * target_blocks * exact_t1))
    traces = [W.simulate_walk(g, 0, steps, k, cfg.seed, stream=0)]
    extra_stream = 1
    while sum(tr.n_blocks for tr in traces) < 1000:
        traces.append(W.simulate_walk(g, 0, steps, k, cfg.seed,
                                      stream=extra_stream))
        extra_stream += 1
    stats = W.block_statistics(traces)
    dev = abs(stats.t1_mean - exact_t1)
    recs.append(record(
        "walk", "block-length-vs-exact", lhs=stats.t1_mean, rhs=exact_t1,
        passed=dev <= 4.0 * stats.t1_stderr,
        note=f"{stats.n_blocks} blocks, stderr {stats.t1_stderr:.4g}",
        extra={"seed": cfg.seed, "streams": list(range(len(traces)))}))
    for check in stats.checks:
        recs.append(record_from_check("walk", check))
    recs.append(record(
        "walk", "u-survival", passed=None,
        extra={"survival": list(stats.u_survival),
               "decay_ratio": stats.decay_ratio}))

    trials = max(10000, cfg.trials)
    rows = W.empirical_y_kernel(g, k, trials, cfg.seed, anchors=[0])
    row = rows[0]
    recs.append(record(
        "walk", "empirical-y-kernel-tv", lhs=row.tv_deviation,
        rhs=0.02 if trials >= 100000 else None,
        passed=(row.tv_deviation <= 0.02) if trials >= 100000 else None,
        note=f"{trials} trials, anchor {row.anchor}, "
             f"seed ({row.seed},{row.stream})"))

    esc = W.escape_transfer_experiment(
        g, k=k, t=cfg.steps, s=max(1, cfg.steps // 2),
        trials=min(cfg.trials, 4000), seed=cfg.seed, alpha=cfg.alpha)
    for check in esc.checks:
        recs.append(record_from_check("walk", check, extra={
            "srw_escape": esc.srw_escape, "y_escape": esc.y_escape,
            "k_escape": esc.k_escape, "slow_regen": esc.slow_regen,
            "tau": esc.tau_t, "n_sets": esc.n_sets}))
    csvs = {}
    if cfg.dump_curves:
        csvs["walk_trace.csv"] = (("t", "vertex", "anchor", "good"),
                                  traces[0].csv_rows()[:5000])
    return recs, csvs


SUITE_FUNCTIONS = {
    "spectral": spectral_suite,
    "mixing": mixing_suite,
    "hitting": hitting_suite,
    "inflation": inflation_suite,
    "tree": tree_suite,
    "walk": walk_suite,
}


def run_suite(cfg: ExperimentConfig, write: bool = True):
    """Execute the selected suites and (optionally) write report files.

    Returns (report, paths).  Exit semantics live in the CLI: the report
    knows only whether every asserted check passed.
    """
    g = build_graph(cfg.graph, cfg.seed)
    report = Report(config=cfg.canonical_dict())
    report.add(record("run", "graph", passed=None, extra={
        "n": g.n, "m": g.m, "provenance": g.provenance,
        "regular": g.is_regular}))
    try:
        chain = C.srw_chain(g)
    except C.ChainError as exc:
        report.add(record("run", "srw-chain", passed=False, note=str(exc)))
        paths = write_report(report, cfg.out_dir) if write else {}
        return report, paths
    summary = _shared_spectrum(g, chain)
    csv_files = {}
    timings = {}
    selected = cfg.selected_suites()
    for name in selected:
        t0 = time.perf_counter()
        recs, csvs = SUITE_FUNCTIONS[name](g, chain, summary, cfg)
        timings[name] = time.perf_counter() - t0
        report.extend(recs)
        csv_files.update(csvs)
    paths = {}
    if write:
        paths = write_report(report, cfg.out_dir, timings=timings)
        for fname, (header, rows) in sorted(csv_files.items()):
            path = os.path.join(cfg.out_dir, fname)
            write_csv(path, header, rows)
            paths[fname] = path
    return report, paths
