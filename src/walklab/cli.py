"""Command-line harness.

Subcommands map one-to-one onto the library modules:

  gen       build a graph and write its edge list
  inflate   write the distance-k graph of a base graph
  spectrum  eigenvalue suite          mix    mixing-profile suite
  hit       hitting/survival suite    tree   tree-oracle suite
  walk      trajectory suite          verify all suites
  summary   aggregate several report.json files

Graph selection: --graph takes a family name (petersen, prism, complete,
cycle, hypercube), a generator (random-regular, high-girth, lps), or an
edge-list file path.  A JSON config given with --config overrides flags.
Exit codes: 0 all asserted checks passed, 1 some check failed, 2 usage or
config error.  The WALKLAB_OUT environment variable overrides the output
directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from .graphs import GraphError, write_edge_list, inflate
from .chains import ChainError
from .reports import (InputError, write_json, read_json, read_report,
                      emit_summary, dumps_canonical, render_text)
from .suites import (ExperimentConfig, ConfigError, build_graph,
                     config_from_dict, run_suite, SUITE_NAMES)

NAMED_GRAPHS = ("petersen", "prism", "complete", "cycle", "hypercube")

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _add_common(parser):
    parser.add_argument("--graph", default="petersen",
                        help="family name, generator kind, or edge-list path")
    parser.add_argument("--n", type=int, help="vertex count / size parameter")
    parser.add_argument("--d", type=int, help="degree for generated graphs")
    parser.add_argument("--p", type=int, help="LPS prime p")
    parser.add_argument("--q", type=int, help="LPS prime q")
    parser.add_argument("--min-girth", type=int, default=7,
                        help="target girth for --graph high-girth")
    parser.add_argument("--k", type=int, default=2,
                        help="distance parameter (inflation/regeneration)")
    parser.add_argument("--alpha", type=float, default=0.25,
                        help="stationary-mass bound for small sets")
    parser.add_argument("--eps", type=float, default=0.25,
                        help="accuracy parameter for mixing/escape")
    parser.add_argument("--steps", type=int, default=12,
                        help="time horizon for walk/tree experiments")
    parser.add_argument("--trials", type=int, default=20000,
                        help="Monte Carlo trials")
    parser.add_argument("--seed", type=int, default=0, help="global seed")
    parser.add_argument("--out", default="walklab-out",
                        help="output directory")
    parser.add_argument("--config", help="JSON config file (overrides flags)")
    parser.add_argument("--no-curves", action="store_true",
                        help="skip CSV curve files")


def _graph_spec(args) -> dict:
    name = args.graph
    if name in NAMED_GRAPHS:
        spec = {"kind": "named", "name": name}
        default = {"complete": 4, "cycle": 6, "hypercube": 3}.get(name)
        if default is not None:
            spec["dim" if name == "hypercube" else "n"] = (
                default if args.n is None else args.n)
        return spec
    if name == "random-regular":
        if args.n is None or args.d is None:
            raise ConfigError("random-regular needs --n and --d")
        return {"kind": "random-regular", "n": args.n, "d": args.d,
                "seed": args.seed}
    if name == "high-girth":
        if args.n is None or args.d is None:
            raise ConfigError("high-girth needs --n and --d")
        return {"kind": "high-girth", "n": args.n, "d": args.d,
                "min_girth": args.min_girth, "seed": args.seed}
    if name == "lps":
        if args.p is None or args.q is None:
            raise ConfigError("lps needs --p and --q")
        return {"kind": "lps", "p": args.p, "q": args.q}
    if os.path.exists(name) or os.sep in name or name.endswith(".txt"):
        return {"kind": "file", "path": name}
    raise ConfigError(
        f"unknown graph {name!r}: not a family, generator, or existing file")


def _config_from_args(args, suites) -> ExperimentConfig:
    data = {
        "graph": _graph_spec(args),
        "suites": tuple(suites),
        "k": args.k,
        "alpha": args.alpha,
        "eps": args.eps,
        "steps": args.steps,
        "trials": args.trials,
        "seed": args.seed,
        "out_dir": args.out,
        "dump_curves": not args.no_curves,
    }
    if args.config:
        overrides = read_json(args.config)
        if not isinstance(overrides, dict):
            raise ConfigError(f"config must be a JSON object, got "
                              f"{type(overrides).__name__}")
        data.update(overrides)
    if "WALKLAB_OUT" in os.environ:
        data["out_dir"] = os.environ["WALKLAB_OUT"]
    return config_from_dict(data)


def _run_selected(args, suites) -> int:
    cfg = _config_from_args(args, suites)
    report, _ = run_suite(cfg)
    sys.stdout.write(render_text(report))
    return EXIT_PASS if report.all_passed else EXIT_CHECK_FAILED


def _cmd_gen(args) -> int:
    cfg = _config_from_args(args, ("spectral",))
    g = build_graph(cfg.graph, cfg.seed)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "graph.txt")
    write_edge_list(g, path)
    meta = {"n": g.n, "m": g.m, "provenance": g.provenance,
            "regular": g.is_regular}
    write_json(meta, os.path.join(cfg.out_dir, "graph.json"))
    print(f"wrote {path} (n={g.n}, m={g.m})")
    return EXIT_PASS


def _cmd_inflate(args) -> int:
    cfg = _config_from_args(args, ("inflation",))
    g = build_graph(cfg.graph, cfg.seed)
    gk = inflate(g, cfg.k)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"graph_k{cfg.k}.txt")
    write_edge_list(gk, path)
    prof = gk.degree_profile
    meta = {"n": gk.n, "m": gk.m, "provenance": gk.provenance,
            "min_degree": prof.min_degree, "max_degree": prof.max_degree}
    write_json(meta, os.path.join(cfg.out_dir, f"graph_k{cfg.k}.json"))
    print(f"wrote {path} (n={gk.n}, m={gk.m})")
    return EXIT_PASS


def _cmd_summary(args) -> int:
    reports = [read_report(p) for p in args.reports]
    summary = emit_summary(reports)
    text = dumps_canonical(summary)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(summary, os.path.join(args.out, "summary.json"))
    sys.stdout.write(text)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walklab",
        description="random-walk mixing / spectral / hitting verification")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, suites, helptext in (
        ("spectrum", ("spectral",), "eigenvalues, classification, Perron roots"),
        ("mix", ("mixing",), "worst-start mixing profile and bounds"),
        ("hit", ("hitting",), "survival inequalities and escape quantiles"),
        ("tree", ("tree",), "regular-tree and lattice-path oracles"),
        ("walk", ("walk",), "trajectory simulation and regeneration stats"),
        ("verify", SUITE_NAMES, "run every suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name == "verify":
            p.add_argument("--suite", action="append", choices=SUITE_NAMES,
                           help="restrict to specific suites (repeatable)")
        p.set_defaults(suites=suites)

    p = sub.add_parser("gen", help="generate a graph and write its edge list")
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("inflate", help="write the distance-k graph")
    _add_common(p)
    p.set_defaults(func=_cmd_inflate)

    p = sub.add_parser("summary", help="aggregate report.json files")
    p.add_argument("reports", nargs="+", help="paths to report.json files")
    p.add_argument("--out", help="directory for summary.json")
    p.set_defaults(func=_cmd_summary)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "func"):
            return args.func(args)
        suites = args.suites
        if getattr(args, "suite", None):
            suites = tuple(args.suite)
        return _run_selected(args, suites)
    except (ConfigError, GraphError, ChainError, InputError,
            OSError) as exc:
        print(f"walklab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
