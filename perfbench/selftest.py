"""Self-tests of the benchmark's tracing, on a small config (~10 s):

    python3 perfbench/selftest.py

1. two traced runs give identical counters;
2. installing the tracing wrappers leaves canonical output bytes unchanged;
3. the untraced run installs no wrappers, and uninstall restores them all;
4. the per-op gate fails an op that raises or whose output bytes change.
"""

from __future__ import annotations

import dataclasses
import sys

from run import import_walklab, run_rounds


def check(cond, message):
    if not cond:
        raise AssertionError(message)


class SmallWorkload:
    """All six suites on random 3-regular n=64 with few Monte Carlo
    trials, plus the iterative spectrum and a mixing profile at n=128.
    Each op records which tracing wrappers were installed when it ran."""

    def __init__(self):
        from workloads import SuiteWorkload
        self.suite = SuiteWorkload(
            "selftest", {"kind": "random-regular", "n": 64, "d": 3, "seed": 8},
            ("all",))
        self.ops = (self.run_suite, self.spectra)
        self.seen = []

    def setup(self, seed):
        import walklab as wl
        cfg = dataclasses.replace(self.suite.setup(seed), trials=200)
        return {"cfg": cfg, "graph": wl.build_random_regular(128, 3, 1)}

    def _record(self):
        import tracing
        self.seen.append(tracing.installed_wrappers())

    def run_suite(self, inputs):
        self._record()
        return self.suite.run_suite(inputs["cfg"])

    def spectra(self, inputs):
        from walklab import chains as C, spectral as S
        from workloads import Outcome, digest_values
        self._record()
        g = inputs["graph"]
        chain = C.srw_chain(g)
        s = S.spectrum(chain, mode="iterative-extremal", source_graph=g)
        prof = C.mixing_profile(chain, [0.25])
        return Outcome("spectra", digest_values(
            {"lambda2": s.lambda2, "residuals": s.residuals,
             "tv": list(prof.tv_curve)}))


class GateWorkload:
    """One op that raises, one whose output changes between rounds."""

    def __init__(self):
        self.ops = (self.raises, self.drifts)
        self.calls = 0

    def raises(self, inputs):
        raise ValueError("expected by the self-test")

    def drifts(self, inputs):
        from workloads import Outcome
        self.calls += 1
        return Outcome("drifts", str(self.calls))


def check_gate():
    import contextlib
    import io
    w = GateWorkload()
    history = {}
    with contextlib.redirect_stderr(io.StringIO()):
        _, first = run_rounds(w, None, 0, history)
        _, second = run_rounds(w, None, 0, history)
    failures = [out.failures for out in first + second]
    check(failures == [["raised"], [], ["raised"],
                       ["canonical output bytes changed"]],
          f"gate verdicts wrong: {failures}")


def main():
    import_walklab()
    import tracing

    w = SmallWorkload()
    inputs = w.setup(3)
    history = {}
    _, plain = run_rounds(w, inputs, 0, history)
    check(w.seen == [[], []], f"untraced run saw wrappers: {w.seen}")

    counters = []
    for _ in range(2):
        w.seen.clear()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, traced = run_rounds(w, inputs, 0, history)
        finally:
            tracer.uninstall()
        check(all("walklab.walks.bfs_distances" in names
                  and "walklab.suites.SUITE_FUNCTIONS['walk']" in names
                  for names in w.seen), f"traced run lacks wrappers: {w.seen}")
        check(tracing.installed_wrappers() == [],
              f"uninstall left {tracing.installed_wrappers()}")
        for a, b in zip(plain, traced):
            check(a.digest == b.digest and not b.failures,
                  f"{b.op}: traced output differs or failed: {b.failures}")
        counters.append({k: v["value"] for k, v in tracer.metrics().items()
                         if v["unit"] != "s"})
    diff = {k: (v, counters[1][k]) for k, v in counters[0].items()
            if v != counters[1][k]}
    check(not diff, f"counters differ between traced runs: {diff}")
    for name in ("graphs.bfs_calls", "walks.simulate_steps",
                 "hitting.lu_solves", "spectral.power_iterations",
                 "spectral.restricted_iterations", "chains.mixing_steps",
                 "reports.bytes_written"):
        check(counters[0][name] > 0, f"{name} was not counted")
    check_gate()
    print("selftest: 4 checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
