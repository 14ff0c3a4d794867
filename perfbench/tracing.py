"""Span and counter tracing of walklab, installed from outside the package.

``Tracer.install()`` wraps every public function of each layer module and
rebinds the wrapper in every ``walklab`` namespace that holds the original
(``walks.bfs_distances``, ``suites.SUITE_FUNCTIONS`` entries, the package
root, ...).  ``uninstall()`` puts the originals back.  Nothing under
``src/`` is edited.

A span is (name, start, end, parent).  Calls to the functions in ``HOT``
run ~10^6 times per workload, so they get no span of their own: their
count and time are added to the enclosing span instead.  A layer's self
time is the time its spans cover minus the time their child spans and
aggregated hot calls cover, plus the time of its own hot calls.

Counters come from arguments and return values, and LU work comes from a
counting stand-in for ``scipy.sparse.linalg`` inside ``walklab.hitting``.
Every counter is deterministic for a fixed workload and seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

LAYERS = ("graphs", "lps", "chains", "spectral", "hitting", "tree", "walks",
          "suites", "reports")
SUITES = ("spectral", "mixing", "hitting", "inflation", "tree", "walk")
HOT = frozenset({"graphs.bfs_distances"})

# per-layer counters, each reported as a metric
COUNTERS = (
    "walks.simulate_steps", "walks.y_kernel_trials",
    "graphs.bfs_calls", "graphs.ball_stats_calls", "graphs.pairing_attempts",
    "hitting.candidate_calls", "hitting.candidate_sets",
    "hitting.sphere_hit_calls", "hitting.lu_factorizations",
    "hitting.lu_solves", "hitting.quantile_steps",
    "spectral.spectrum_calls", "spectral.power_iterations",
    "spectral.restricted_calls", "spectral.restricted_iterations",
    "chains.srw_chain_calls", "chains.mixing_steps",
    "chains.mixing_bytes_computed",
    "reports.bytes_written",
)


def _unit(name) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if "bytes" in name else "count"


def walklab_modules():
    """Every imported module of the walklab package, root first."""
    root = importlib.import_module("walklab")
    mods = [root]
    for name in ("graphs", "lps", "chains", "spectral", "hitting", "tree",
                 "walks", "suites", "reports", "checks", "cli"):
        mods.append(importlib.import_module(f"walklab.{name}"))
    return mods


def layer_functions():
    """{qualified name: function} for the public functions of each layer."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"walklab.{layer}")
        for name, fn in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)):
                continue
            out[f"{layer}.{name}"] = fn
    return out


def is_wrapper(fn) -> bool:
    return getattr(fn, "__perfbench_wrapped__", None) is not None


def installed_wrappers() -> list:
    """Names bound to a tracing wrapper anywhere in walklab (should be [])."""
    found = []
    for mod in walklab_modules():
        for name, val in vars(mod).items():
            if is_wrapper(val):
                found.append(f"{mod.__name__}.{name}")
    suites = importlib.import_module("walklab.suites")
    for name, fn in suites.SUITE_FUNCTIONS.items():
        if is_wrapper(fn):
            found.append(f"walklab.suites.SUITE_FUNCTIONS[{name!r}]")
    hitting = importlib.import_module("walklab.hitting")
    if isinstance(hitting.spla, _SplaCounter):
        found.append("walklab.hitting.spla")
    return found


class _Identity:
    """Small integers for objects seen during a trace, equal for objects
    with equal ``content``; holds a reference so that ``id`` values are
    never reused."""

    def __init__(self, content):
        self._content = content
        self._by_id = {}
        self._by_content = {}

    def __call__(self, obj) -> int:
        entry = self._by_id.get(id(obj))
        if entry is None:
            serial = self._by_content.setdefault(self._content(obj),
                                                  len(self._by_content))
            entry = self._by_id[id(obj)] = (obj, serial)
        return entry[1]


def _graph_content(g):
    return g.n, g.edges


def _chain_content(chain):
    k = chain.kernel.tocsr()
    return (k.indptr.tobytes(), k.indices.tobytes(), k.data.tobytes(),
            chain.stationary.tobytes())


class _LUCounter:
    def __init__(self, lu, counters):
        self._lu = lu
        self._counters = counters

    def solve(self, *args, **kwargs):
        self._counters["hitting.lu_solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _SplaCounter:
    """Stands in for ``scipy.sparse.linalg`` as ``walklab.hitting`` sees it."""

    def __init__(self, module, counters):
        self._module = module
        self._counters = counters

    def splu(self, *args, **kwargs):
        self._counters["hitting.lu_factorizations"] += 1
        return _LUCounter(self._module.splu(*args, **kwargs), self._counters)

    def __getattr__(self, name):
        return getattr(self._module, name)


def span_totals(records) -> dict:
    """{function name: total seconds} over span records (as written by
    ``Tracer.span_records``), counting a call nested in a call of the same
    function once, and hot calls from their per-span aggregates."""
    out = {}
    for rec in records:
        parent = rec["parent"]
        while parent is not None and records[parent]["name"] != rec["name"]:
            parent = records[parent]["parent"]
        if parent is None:
            out[rec["name"]] = out.get(rec["name"], 0.0) + (
                rec["end"] - rec["start"])
        for name, agg in rec["hot"].items():
            out[name] = out.get(name, 0.0) + agg["seconds"]
    return out


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, {hot name: [calls, s]}]
        self._stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._bfs_keys = set()
        self._candidate_keys = set()
        self._lambda2_residual = 0.0
        self._graph_id = _Identity(_graph_content)
        self._chain_id = _Identity(_chain_content)
        self._restore = []
        self._observers = {
            "graphs.bfs_distances": self._on_bfs,
            "graphs.ball_stats": self._on_ball_stats,
            "graphs.build_random_regular": self._on_random_regular,
            "hitting.candidate_small_sets": self._on_candidates,
            "hitting.sphere_hit_distribution": self._on_sphere_hit,
            "hitting.hit_quantile": self._on_hit_quantile,
            "spectral.spectrum": self._on_spectrum,
            "spectral.restricted_top_eig": self._on_restricted,
            "chains.srw_chain": self._on_srw_chain,
            "chains.mixing_profile": self._on_mixing_profile,
            "walks.simulate_walk": self._on_simulate_walk,
            "walks.empirical_y_kernel": self._on_y_kernel,
            "reports.write_report": self._on_write_report,
            "reports.write_csv": self._on_write_csv,
        }

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        originals = layer_functions()
        by_id = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod in walklab_modules():
            for attr, val in list(vars(mod).items()):
                wrapper = by_id.get(id(val))
                if wrapper is not None:
                    self._restore.append((mod.__dict__, attr, val))
                    setattr(mod, attr, wrapper)
        suites = importlib.import_module("walklab.suites")
        for key, fn in list(suites.SUITE_FUNCTIONS.items()):
            wrapper = by_id.get(id(fn))
            if wrapper is not None:
                self._restore.append((suites.SUITE_FUNCTIONS, key, fn))
                suites.SUITE_FUNCTIONS[key] = wrapper
        hitting = importlib.import_module("walklab.hitting")
        self._restore.append((hitting.__dict__, "spla", hitting.spla))
        hitting.spla = _SplaCounter(hitting.spla, self.counters)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            target[key] = original
        self._restore = []

    def _wrap(self, name, fn):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        @functools.wraps(fn)
        def hot(*args, **kwargs):
            if not self._stack:
                return traced(*args, **kwargs)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            agg = self.spans[self._stack[-1]][4]
            entry = agg.get(name)
            if entry is None:
                agg[name] = [1, dt]
            else:
                entry[0] += 1
                entry[1] += dt
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper = hot if name in HOT else traced
        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    # -- observers: counts from arguments and return values -----------

    @staticmethod
    def _arg(args, kwargs, pos, name, default=None):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)

    def _on_bfs(self, args, kwargs, result):
        self.counters["graphs.bfs_calls"] += 1
        self._bfs_keys.add((self._graph_id(self._arg(args, kwargs, 0, "g")),
                            int(self._arg(args, kwargs, 1, "source")),
                            self._arg(args, kwargs, 2, "cutoff")))

    def _on_ball_stats(self, args, kwargs, result):
        self.counters["graphs.ball_stats_calls"] += 1

    def _on_random_regular(self, args, kwargs, result):
        self.counters["graphs.pairing_attempts"] += \
            int(result.provenance["attempts"])

    def _on_candidates(self, args, kwargs, result):
        self.counters["hitting.candidate_calls"] += 1
        self.counters["hitting.candidate_sets"] += len(result)
        graph = self._arg(args, kwargs, 2, "graph")
        self._candidate_keys.add((
            self._chain_id(self._arg(args, kwargs, 0, "chain")),
            float(self._arg(args, kwargs, 1, "alpha")),
            None if graph is None else self._graph_id(graph),
            self._arg(args, kwargs, 3, "max_sets", 4096)))

    def _on_sphere_hit(self, args, kwargs, result):
        self.counters["hitting.sphere_hit_calls"] += 1

    def _on_hit_quantile(self, args, kwargs, result):
        self.counters["hitting.quantile_steps"] += int(result.time)

    def _on_spectrum(self, args, kwargs, result):
        self.counters["spectral.spectrum_calls"] += 1
        res = result.residuals
        if res:
            self.counters["spectral.power_iterations"] += int(
                res["lambda2_iterations"] + res["lambda_min_iterations"])
            self._lambda2_residual = max(self._lambda2_residual,
                                         float(res["lambda2"]))

    def _on_restricted(self, args, kwargs, result):
        self.counters["spectral.restricted_calls"] += 1
        self.counters["spectral.restricted_iterations"] += \
            int(result.iterations)

    def _on_srw_chain(self, args, kwargs, result):
        self.counters["chains.srw_chain_calls"] += 1

    def _on_mixing_profile(self, args, kwargs, result):
        steps = len(result.tv_curve) - 1
        chain = self._arg(args, kwargs, 0, "chain")
        self.counters["chains.mixing_steps"] += steps
        # each step produces one dense n x |starts| float64 block
        self.counters["chains.mixing_bytes_computed"] += \
            steps * chain.n * len(result.starts) * 8

    def _on_simulate_walk(self, args, kwargs, result):
        self.counters["walks.simulate_steps"] += len(result.positions) - 1

    def _on_y_kernel(self, args, kwargs, result):
        self.counters["walks.y_kernel_trials"] += sum(r.trials for r in result)

    def _on_write_report(self, args, kwargs, result):
        # the timings sidecar varies in length from run to run
        self.counters["reports.bytes_written"] += sum(
            os.path.getsize(path) for key, path in result.items()
            if key != "timings")

    def _on_write_csv(self, args, kwargs, result):
        self.counters["reports.bytes_written"] += os.path.getsize(
            self._arg(args, kwargs, 0, "path"))

    # -- summaries -------------------------------------------------------

    def span_records(self) -> list:
        """(name, start, end, parent) rows, hot calls folded into extras."""
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "hot": {k: {"calls": v[0], "seconds": v[1]}
                         for k, v in s[4].items()}}
                for s in self.spans]

    def layer_self_seconds(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, hot in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, hot) in enumerate(self.spans):
            leaf = sum(seconds for _, seconds in hot.values())
            out[name.split(".")[0]] += (end - start) - child[i] - leaf
            for hot_name, (_, seconds) in hot.items():
                out[hot_name.split(".")[0]] += seconds
        return out

    def metrics(self, rounds: int = 1) -> dict:
        """Every per-layer metric except ``trace.overhead_s``, as
        {name: {"value", "unit"}}; times and counts are per round."""
        totals = span_totals(self.span_records())
        per_round = {f"{layer}.self_s": s
                     for layer, s in self.layer_self_seconds().items()}
        per_round.update(self.counters)
        per_round["graphs.inflate_s"] = totals.get("graphs.inflate", 0.0)
        per_round["walks.escape_s"] = totals.get(
            "walks.escape_transfer_experiment", 0.0)
        for suite in SUITES:
            per_round[f"suites.{suite}_s"] = totals.get(
                f"suites.{suite}_suite", 0.0)
        out = {name: {"value": value / rounds, "unit": _unit(name)}
               for name, value in per_round.items()}
        # distinct inputs / calls; 1.0 when there were no calls
        for name, keys, calls in (
                ("graphs.bfs_distinct_ratio", self._bfs_keys,
                 self.counters["graphs.bfs_calls"]),
                ("hitting.candidate_distinct_ratio", self._candidate_keys,
                 self.counters["hitting.candidate_calls"])):
            out[name] = {"value": len(keys) / calls if calls else 1.0,
                         "unit": "ratio"}
        out["spectral.lambda2_residual"] = {"value": self._lambda2_residual,
                                            "unit": "norm"}
        return out
