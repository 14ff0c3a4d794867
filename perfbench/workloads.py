"""The three benchmark workloads: inputs, timed ops, and output checks.

A workload's ``setup(seed)`` generates its inputs (untimed apart from
``setup_s``); ``ops`` are the timed calls of one round, each taking the
inputs and returning an ``Outcome``; ``finish`` runs the reference
computations that must stay outside the timed phase and may fail more
ops.  A seed changes the inputs only in ways that keep the amount of
work fixed, so the spread between runs with different seeds is noise.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import walklab as wl
from walklab import chains as C
from walklab import spectral as S
from walklab import suites
from walklab import tree as T
from walklab.reports import dumps_canonical

OUT = os.path.join("perfbench", ".out")
LAMBDA2_TOL = 1e-6
TMIX_2048 = 36          # exact tmix(1/4), random 3-regular n=2048, seed 3


@dataclass
class Outcome:
    """One op's result: canonical output digest, failure reasons, and the
    values that the post-run reference check needs."""

    op: str
    digest: str
    failures: list = field(default_factory=list)
    lambda2: float = None


def _digest_files(out_dir) -> str:
    """sha256 over every canonical file of a run (timings are a sidecar)."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name == "timings.json":
            continue
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def digest_values(values: dict) -> str:
    return hashlib.sha256(dumps_canonical(values).encode()).hexdigest()


class SuiteWorkload:
    """``run_suite`` on one pinned config; ``out_dir`` is pinned too,
    because ``report.json`` embeds it.  The seed is the config seed, which
    keys the Monte Carlo streams (and is all that differs for suites that
    draw none); the graph stays pinned."""

    def __init__(self, name, graph, suite_names):
        self.name = name
        self.graph = graph
        self.suites = suite_names
        self.ops = (self.run_suite,)

    def setup(self, seed):
        out_dir = os.path.join(OUT, self.name)
        return suites.ExperimentConfig(graph=dict(self.graph),
                                       suites=self.suites, seed=seed,
                                       out_dir=out_dir)

    def run_suite(self, cfg):
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        # called through the module so that a traced run sees its span
        report, _ = suites.run_suite(cfg)
        failures = [f"check {r['suite']}/{r['name']} failed"
                    for r in report.records if r["passed"] is False]
        failures += [f"suite {r['suite']} skipped: {r['note']}"
                     for r in report.records if r["name"] == "suite-skipped"]
        if report.n_asserted == 0:
            failures.append("no asserted checks")
        return Outcome(self.name, _digest_files(cfg.out_dir), failures)

    def finish(self, cfg, outcomes):
        pass


def relabel(g, seed):
    """Isomorphic copy of ``g`` with vertices permuted by a Philox(seed)
    permutation; every exact quantity (spectrum, all-start mixing) is
    unchanged."""
    perm = np.random.Generator(np.random.Philox(key=np.uint64(seed))) \
        .permutation(g.n)
    edges = [(int(perm[u]), int(perm[v])) for u, v in g.edges]
    return wl.make_graph(g.n, edges, dict(g.provenance, relabel_seed=seed))


def eigsh_lambda2(g) -> float:
    """Second eigenvalue of the SRW kernel A/d by ARPACK, independent of
    walklab's eigensolvers."""
    rows = [u for u, v in g.edges] + [v for u, v in g.edges]
    cols = [v for u, v in g.edges] + [u for u, v in g.edges]
    a = sp.csr_matrix((np.full(len(rows), 1.0 / g.regular_degree),
                       (rows, cols)), shape=(g.n, g.n))
    v0 = np.random.Generator(np.random.Philox(key=np.uint64(1))) \
        .standard_normal(g.n)
    vals = spla.eigsh(a, k=2, which="LA", v0=v0, tol=1e-12,
                      return_eigenvectors=False)
    return float(np.min(vals))


class SpectralCertWorkload:
    """Three library-call ops on the iterative and exact spectral paths.

    The n=20000 graph and LPS(13,17) are used as pinned: relabelling them
    moves the power-iteration count by up to +-20%, which would show as
    spread.  The seed relabels the n=2048 graph, whose dense spectrum and
    all-start mixing profile do the same work under any labelling.
    """

    name = "spectral-cert"

    def __init__(self):
        self.ops = (self.rr20000, self.lps, self.rr2048)

    def setup(self, seed):
        return {
            "rr20000": wl.build_random_regular(20000, 3, 5),
            "lps": wl.build_lps(13, 17),
            "rr2048": relabel(wl.build_random_regular(2048, 3, 3), seed),
        }

    @staticmethod
    def _sandwich(g, prof, summary, failures):
        tmix = prof.mixing_times[0.25]
        lower = T.diameter_lower_bound(g.n, 3, 0.25) - 1.0
        upper = S.poincare_bound(g.n, summary.lambda_star, 0.25)
        if not lower <= tmix <= upper:
            failures.append(f"tmix(1/4)={tmix} outside [{lower}, {upper}]")
        return {"tmix": tmix, "lower": lower, "upper": upper}

    def rr20000(self, inputs):
        g = inputs["rr20000"]
        chain = C.srw_chain(g)
        s = S.spectrum(chain, mode="iterative-extremal", source_graph=g)
        cls = S.classify_ramanujan(g, s)
        prof = C.mixing_profile(chain, [0.25])
        failures = []
        if cls.category != S.RAMANUJAN:
            failures.append(f"class is {cls.category}, not ramanujan")
        values = self._sandwich(g, prof, s, failures)
        values.update(lambda2=s.lambda2, lambda_min=s.lambda_min,
                      residuals=s.residuals, category=cls.category,
                      tv=list(prof.tv_curve))
        return Outcome("rr20000-iterative", digest_values(values), failures,
                       s.lambda2)

    def lps(self, inputs):
        g = inputs["lps"]
        chain = C.srw_chain(g)
        s = S.spectrum(chain, mode="iterative-extremal", source_graph=g)
        failures = []
        if s.lambda2 > S.rho(14) + LAMBDA2_TOL:
            failures.append(f"LPS lambda2={s.lambda2} > rho(14)")
        values = {"lambda2": s.lambda2, "lambda_min": s.lambda_min,
                  "residuals": s.residuals}
        return Outcome("lps-certificate", digest_values(values), failures,
                       s.lambda2)

    def rr2048(self, inputs):
        g = inputs["rr2048"]
        chain = C.srw_chain(g)
        s = S.spectrum(chain)
        prof = C.mixing_profile(chain, [0.25])
        failures = []
        values = self._sandwich(g, prof, s, failures)
        if values["tmix"] != TMIX_2048:
            failures.append(f"tmix(1/4)={values['tmix']}, expected {TMIX_2048}")
        values.update(lambda2=s.lambda2, tv=list(prof.tv_curve))
        return Outcome("rr2048-exact", digest_values(values), failures,
                       s.lambda2)

    def finish(self, inputs, outcomes):
        graphs = {"rr20000-iterative": inputs["rr20000"],
                  "lps-certificate": inputs["lps"],
                  "rr2048-exact": inputs["rr2048"]}
        refs = {}
        for out in outcomes:
            if out.lambda2 is None:
                continue
            if out.op not in refs:
                refs[out.op] = eigsh_lambda2(graphs[out.op])
            if abs(out.lambda2 - refs[out.op]) > LAMBDA2_TOL:
                out.failures.append(
                    f"lambda2={out.lambda2} differs from eigsh {refs[out.op]}")


WORKLOADS = {
    "verify-rr512": SuiteWorkload(
        "verify-rr512", {"kind": "random-regular", "n": 512, "d": 3, "seed": 2},
        ("all",)),
    "lps-exact": SuiteWorkload(
        "lps-exact", {"kind": "lps", "p": 13, "q": 17},
        ("spectral", "mixing", "inflation")),
    "spectral-cert": SpectralCertWorkload(),
}
