"""Config-driven verification suites tying the library together.

``run_suite`` builds one :class:`Run` per config: the graph and its SRW
chain, plus the spectrum, candidate family, mixing profile, sphere-hit
rows and distance-k graph and chain, each built on first use and shared
by every suite.  Each suite turns the run into a list of
report records (pass/fail or informational).  Everything is
deterministic given the config: all randomness is drawn from Philox
streams keyed by the config seed, and the emitted files carry no timing
or host data.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
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


def _check_int(name: str, value, low: int, high: int = None) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, "
                          f"got {value!r}")
    if high is not None and value > high:
        raise ConfigError(f"{name} must be at most {high}, got {value!r}")


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

    def __post_init__(self):
        """Reject values the suites cannot run with, as a ``ConfigError``."""
        for name in ("alpha", "eps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {value!r}")
        _check_int("k", self.k, 1, G.MAX_BALL_RADIUS)
        # the tree suite's level DP runs to horizon max(steps, 2)
        _check_int("steps", self.steps, 0, T.DP_HORIZON_LIMIT)
        _check_int("trials", self.trials, 1)
        graph = self.graph if isinstance(self.graph, dict) else {}
        seeds = {"seed": self.seed}
        if "seed" in graph:
            seeds["graph seed"] = graph["seed"]
        for name, seed in seeds.items():
            _check_int(name, seed, 0)
            if seed >= 2 ** 64:     # seeds key 64-bit Philox streams
                raise ConfigError(f"{name} must be below 2**64, got {seed}")
        # the builders check the ranges; a non-integer would crash them
        for name in ("n", "d", "p", "q", "min_girth", "dim"):
            if name in graph:
                _check_int(f"graph {name}", graph[name], 0)
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got "
                              f"{self.out_dir!r}")
        if not isinstance(self.dump_curves, bool):
            raise ConfigError(f"dump_curves must be true or false, got "
                              f"{self.dump_curves!r}")
        for name in ("suites", "t_grid"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigError(f"{name} must be a nonempty list, "
                                  f"got {value!r}")
        for t in self.t_grid:
            _check_int("each t_grid entry", t, 0)

    def selected_suites(self) -> tuple:
        unknown = [s for s in self.suites
                   if s != "all" and s not in SUITE_NAMES]
        if unknown:
            raise ConfigError(f"unknown suites {unknown!r}; "
                              f"choose from {SUITE_NAMES}")
        if "all" in self.suites:
            return SUITE_NAMES
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
        if isinstance(data.get(key), list):
            data[key] = tuple(data[key])
    return ExperimentConfig(**data)


def build_graph(spec: dict, default_seed: int = 0) -> G.Graph:
    """Materialize the graph described by a config dict.

    The fields besides ``kind`` (and ``name`` for a named graph) are the
    builder's parameters, ``seed`` defaulting to ``default_seed``; a field
    missing or one the builder does not take is a :class:`ConfigError`.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"graph spec must be a dict with 'kind', got {spec!r}")
    kind = spec["kind"]
    # looked up on each call, so a wrapped module attribute is the one called
    builders = {"named": G.named_builder,
                "random-regular": G.build_random_regular,
                "high-girth": G.build_high_girth_regular,
                "lps": build_lps,
                "file": G.read_edge_list}
    builder = builders.get(kind) if isinstance(kind, str) else None
    if builder is None:
        raise ConfigError(f"unknown graph kind {kind!r}")
    fields = {key: value for key, value in spec.items() if key != "kind"}
    subject = f"kind {kind!r}"
    if kind == "named":
        if "name" not in fields:
            raise ConfigError(f"graph spec {spec!r} is missing field 'name'")
        subject = f"graph {fields['name']!r}"
        builder = builder(fields.pop("name"))
    params = inspect.signature(builder).parameters
    if "seed" in params:
        fields.setdefault("seed", default_seed)
    for key in fields:
        if key not in params:
            raise ConfigError(f"graph spec {spec!r} has field {key!r}, "
                              f"which {subject} does not take")
    for key in params:
        if key not in fields:
            raise ConfigError(f"graph spec {spec!r} is missing field {key!r}")
    return builder(**fields)


def _skip(suite: str, reason: str) -> dict:
    return record(suite, "suite-skipped", passed=None, note=reason)


@dataclass(frozen=True)
class Run:
    """The per-run objects every suite reads, each built at most once.

    ``chain`` is the SRW chain of ``g``.  The cached properties are built
    on first use, through their module attributes (``S.spectrum``,
    ``H.candidate_small_sets``, ...).
    """

    cfg: ExperimentConfig
    g: G.Graph
    chain: C.ReversibleChain

    @functools.cached_property
    def summary(self) -> S.SpectrumSummary:
        """Spectrum of ``chain``: dense iff n <= ``S.DENSE_BUDGET``, the
        extremal pair from the iterative path otherwise."""
        mode = "dense-full" if self.chain.n <= S.DENSE_BUDGET \
            else "iterative-extremal"
        return S.spectrum(self.chain, mode=mode, source_graph=self.g)

    @functools.cached_property
    def family(self) -> H.CandidateFamily:
        """Candidate small sets at ``cfg.alpha``, in the order found,
        which nothing reads: the spread ranks its sets and the rest take
        maxima.  On a certified vertex-transitive graph it is F0, the sets
        seeded at vertex 0, which stands for its orbit closure: the spread
        samples, the hit quantile and the escape values all come from F0."""
        return H.candidate_small_sets(self.chain, self.cfg.alpha, graph=self.g)

    @functools.cached_property
    def profile(self):
        """Mixing profile on the grid {eps, 0.1}; None when the chain is
        periodic or reducible."""
        if self.chain.period_info != C.APERIODIC \
                or not self.chain.is_irreducible:
            return None
        return C.mixing_profile(self.chain, sorted({self.cfg.eps, 0.1}))

    @functools.cached_property
    def sphere_hits(self) -> H.SphereHits:
        """Sphere-hit rows at radius k, solved on first access or in
        batches: the one source of W, shared by inflation and walk."""
        return H.SphereHits(self.g, self.cfg.k)

    @functools.cached_property
    def inflated(self) -> G.Graph:
        return G.inflate(self.g, self.cfg.k)

    @functools.cached_property
    def inflated_chain(self):
        """SRW chain of the distance-k graph; None when some k-sphere is
        empty."""
        if self.inflated.degree_profile.min_degree == 0:
            return None
        return C.srw_chain(self.inflated)


def _spread(family: H.CandidateFamily, count: int) -> list:
    """Every (len // count)-th set in (size, lexicographic) order, at most
    ``count``, ranked by :meth:`chains.CandidateFamily.ranked`."""
    return family.ranked(
        range(0, len(family), max(1, len(family) // count))[:count])


# ---------------------------------------------------------------------------


def spectral_suite(run: Run) -> tuple:
    g, chain, summary, cfg = run.g, run.chain, run.summary, run.cfg
    recs = []
    csvs = {}
    extra = {"lambda2": summary.lambda2, "lambda_min": summary.lambda_min,
             "lambda_star": summary.lambda_star, "t_rel": summary.t_rel,
             "rho_d": summary.rho_d, "residuals": summary.residuals}
    if summary.blocks is not None:
        # absent on the plain paths, so their reports keep their bytes
        extra["blocks"] = summary.blocks
    recs.append(record("spectral", "spectrum", passed=None,
                       note=summary.method, extra=extra))

    if summary.eigenvalues is not None:
        eigs = np.asarray(summary.eigenvalues)
        trace_p = float(chain.kernel.diagonal().sum())
        # tr(K^2) = sum of K o K^T, without forming K^2 beside the blend's
        trace_p2 = float(chain.kernel.multiply(chain.kernel.T).sum())
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

    # restricted Perron roots on sets spread over the candidate family
    sets = _spread(run.family, 16)
    for A in sets:
        rec = S.restricted_top_eig(chain, A, lambda2=summary.lambda2)
        solver = {"residual": rec.residual, "iterations": rec.iterations}
        recs.append(record(
            "spectral", f"restricted-refined|A|={len(A)}",
            lhs=rec.lambda_A, rhs=rec.refined_bound, passed=rec.refined_pass,
            note=f"A={list(A)[:8]}", extra=solver))
        if rec.plain_applicable:
            recs.append(record(
                "spectral", f"restricted-plain|A|={len(A)}",
                lhs=rec.lambda_A, rhs=rec.plain_bound, passed=rec.plain_pass,
                extra=solver))
    if sets and summary.eigenvalues is not None:
        # blend with the two-step kernel: support always contains P's
        # (rows sorted to the canonical order); reassigning frees P^2
        blend = chain.kernel @ chain.kernel
        blend.sort_indices()
        blend = (chain.kernel + blend) * 0.5
        other = C.chain_from_kernel(blend, chain.stationary)
        cmp = S.compare_restricted(chain, other, sets[-1])
        recs.append(record(
            "spectral", "restricted-comparison-vs-blend",
            lhs=cmp.lhs, rhs=cmp.rhs, passed=cmp.passed,
            extra={"C1": cmp.C1, "C2": cmp.C2, "residual": cmp.residuals,
                   "iterations": cmp.iterations}))
    return recs, csvs


def mixing_suite(run: Run) -> tuple:
    g, chain, cfg = run.g, run.chain, run.cfg
    if chain.period_info != C.APERIODIC:
        return [_skip("mixing", "chain is bipartite-periodic")], {}
    if not chain.is_irreducible:
        return [_skip("mixing", "chain is reducible")], {}
    summary = run.summary
    recs = []
    csvs = {}
    prof = run.profile
    grid = prof.eps_grid
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
               "exact_starts": prof.exact_starts,
               "starts": len(prof.starts)}))

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
            lhs=prof.mixing_time(1.0 - e), rhs=bound - 1.0, passed=None,
            note="literal finite-n comparison, informational: the bound "
                 "applies to the o(1)-corrected level"))
    if cfg.dump_curves:
        rows = [(t, prof.worst_starts[t], prof.tv_curve[t], prof.l2sq_curve[t])
                for t in range(len(prof.tv_curve))]
        csvs["mixing_curve.csv"] = (("t", "start", "tv", "l2sq"), rows)
    return recs, csvs


def hitting_suite(run: Run) -> tuple:
    chain, cfg = run.chain, run.cfg
    recs = []
    csvs = {}
    sets = run.family
    if not sets:
        return [_skip("hitting", f"no sets with mass <= alpha={cfg.alpha}")], {}
    summary = run.summary
    sets = _spread(sets, 6)
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
    # the quantile is exact on small chains, a lower bound over the family
    # otherwise
    qsets = None if chain.n <= H.EXACT_SEARCH_LIMIT else run.family
    qcheck = H.quantile_halflog_check(chain, cfg.alpha, summary.lambda2,
                                      sets=qsets)
    recs.append(record_from_check("hitting", qcheck))
    hm = H.hitmix_constant_record(chain, cfg.alpha, cfg.eps, summary.t_rel,
                                  run.profile, sets=qsets)
    recs.append(record_from_check("hitting", hm))
    if cfg.dump_curves and worst_curve is not None:
        csvs["survival_worst_set.csv"] = (
            ("t", "survival"), list(enumerate(worst_curve)))
    return recs, csvs


def inflation_suite(run: Run) -> tuple:
    g, cfg = run.g, run.cfg
    if not g.is_regular:
        return [_skip("inflation", "needs a regular base graph")], {}
    recs = []
    gk = run.inflated
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
    k_chain = run.inflated_chain
    recs.append(record(
        "inflation", "inflated-srw-reversible", passed=True,
        note=f"pi proportional to degree, {k_chain.period_info}"))
    wk = H.w_vs_k_report(run.sphere_hits)
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


def tree_suite(run: Run) -> tuple:
    g, cfg = run.g, run.cfg
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
    y = int(g.indices[0])   # the first neighbor of x
    for t in (1, 3):
        kd = T.kernel_domination_check(g, run.chain, x, y, t)
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


def walk_suite(run: Run) -> tuple:
    g, cfg = run.g, run.cfg
    if not run.chain.is_irreducible:
        return [_skip("walk", "graph is disconnected")], {}
    if not g.is_regular:
        return [_skip("walk", "walk suite needs a regular graph")], {}
    if g.regular_degree < 3:
        return [_skip("walk", "needs a regular graph with d >= 3")], {}
    recs = []
    k = cfg.k
    try:
        exact_t1 = run.sphere_hits[0].expected_time
    except H.HittingError as exc:
        return [_skip("walk", f"no radius-{k} sphere: {exc}")], {}

    target_blocks = 1200
    steps = int(math.ceil(1.5 * target_blocks * exact_t1))
    traces = [W.simulate_walk(g, 0, steps, k, cfg.seed, stream=0)]
    extra_stream = 1
    while sum(tr.n_blocks for tr in traces) < W.MIN_BLOCKS:
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
    rows = W.empirical_y_kernel(run.sphere_hits, trials, cfg.seed)
    row = rows[0]
    # gated from 10^5 trials, against the sampling noise of an exact sampler
    gate = W.tv_noise_bound(list(row.exact.values()), trials) \
        if trials >= 100000 else None
    recs.append(record(
        "walk", "empirical-y-kernel-tv", lhs=row.tv_deviation, rhs=gate,
        passed=(row.tv_deviation <= gate) if gate is not None else None,
        note=f"{trials} trials, anchor {row.anchor}, "
             f"seed ({row.seed},{row.stream})"))

    try:
        esc = W.escape_transfer_experiment(
            run.sphere_hits, run.chain, run.family, run.inflated_chain,
            t=cfg.steps, s=max(1, cfg.steps // 2))
    except (H.HittingError, W.WalkError) as exc:
        # a family member whose k-sphere is empty has no W row; an empty
        # family and the slow-regeneration work bound raise WalkError
        recs.append(record("walk", "escape-decomposition", passed=None,
                           note=f"skipped: {exc}"))
    else:
        for check in esc.checks:
            recs.append(record_from_check("walk", check, extra={
                "srw_escape": esc.srw_escape, "y_escape": esc.y_escape,
                "k_escape": esc.k_escape, "slow_regen": esc.slow_regen,
                "tau": esc.tau_t, "n_sets": esc.n_sets}
                if check.name == "escape-decomposition" else None))
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


def run_suite(cfg: ExperimentConfig):
    """Execute the selected suites and write the report files to
    ``cfg.out_dir``.

    Returns (report, paths).  Exit semantics live in the CLI: the report
    knows only whether every asserted check passed.
    """
    g = build_graph(cfg.graph, cfg.seed)
    report = Report(config=cfg.canonical_dict())
    report.add(record("run", "graph", passed=None, extra={
        "n": g.n, "m": g.m, "provenance": g.provenance,
        "regular": g.is_regular,
        "vertex_transitive": G.vertex_transitive(g)}))
    try:
        chain = C.srw_chain(g)
    except C.ChainError as exc:
        report.add(record("run", "srw-chain", passed=False, note=str(exc)))
        return report, write_report(report, cfg.out_dir)
    run = Run(cfg, g, chain)
    csv_files = {}
    timings = {}
    selected = cfg.selected_suites()
    for name in selected:
        t0 = time.perf_counter()
        recs, csvs = SUITE_FUNCTIONS[name](run)
        timings[name] = time.perf_counter() - t0
        report.extend(recs)
        csv_files.update(csvs)
    paths = write_report(report, cfg.out_dir, timings=timings)
    for fname, (header, rows) in sorted(csv_files.items()):
        path = os.path.join(cfg.out_dir, fname)
        write_csv(path, header, rows)
        paths[fname] = path
    return report, paths
