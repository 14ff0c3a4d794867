import hashlib
import json
import os
import subprocess
import sys

import pytest

import walklab
from walklab.cli import main
from walklab.graphs import GraphFileError, read_edge_list
from walklab.reports import dumps_canonical, emit_summary, read_report
from walklab.suites import (ConfigError, ExperimentConfig, build_graph,
                            config_from_dict, run_suite)


def run_cli(*argv):
    return main(list(argv))


def canonical_digest(out_dir) -> str:
    """sha256 over name, NUL and bytes of every report file but the
    timings sidecar, in sorted order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name != "timings.json":
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def test_gen_and_file_round_trip(tmp_path):
    out = str(tmp_path / "gen")
    assert run_cli("gen", "--graph", "random-regular", "--n", "20", "--d", "3",
                   "--seed", "7", "--out", out) == 0
    graph_path = os.path.join(out, "graph.txt")
    assert os.path.exists(graph_path)
    out2 = str(tmp_path / "spec")
    assert run_cli("spectrum", "--graph", graph_path, "--out", out2) == 0
    rep = read_report(os.path.join(out2, "report.json"))
    assert rep["summary"]["all_passed"]


def test_verify_petersen_exit_zero(tmp_path):
    out = str(tmp_path / "pet")
    code = run_cli("verify", "--graph", "petersen", "--trials", "12000",
                   "--out", out)
    assert code == 0
    rep = read_report(os.path.join(out, "report.json"))
    assert rep["summary"]["failed"] == 0
    names = {r["name"] for r in rep["records"]}
    assert "ramanujan-class" in names
    assert "escape-decomposition" in names
    # curve files written with canonical float formatting
    head = open(os.path.join(out, "mixing_curve.csv")).readline().strip()
    assert head == "t,start,tv,l2sq"
    row = open(os.path.join(out, "mixing_curve.csv")).readlines()[1]
    assert "e-01" in row or "e+00" in row


def test_malformed_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 2\n0 1\nnot numbers\n")
    code = run_cli("spectrum", "--graph", str(bad), "--out",
                   str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3" in err


PETERSEN = {"kind": "named", "name": "petersen"}


@pytest.mark.parametrize("argv, config, message", [
    (("hit", "--alpha", "1.5"), None, "alpha must lie in (0, 1), got 1.5"),
    (("verify", "--alpha", "1.0"), None, "alpha must lie in (0, 1)"),
    (("hit", "--alpha", "0"), None, "alpha must lie in (0, 1)"),
    (("mix", "--eps", "0"), None, "eps must lie in (0, 1)"),
    (("tree", "--seed", "-1"), None, "seed must be an integer >= 0, got -1"),
    (("tree",), {"seed": 2 ** 64}, "seed must be below 2**64"),
    (("walk", "--trials", "-5"), None, "trials must be an integer >= 1"),
    (("walk", "--steps", "-3"), None, "steps must be an integer >= 0"),
    (("walk", "--k", "0"), None, "k must be an integer >= 1"),
    (("verify", "--k", "128"), None, "k must be at most 127, got 128"),
    (("tree", "--steps", "20000"), None,
     "steps must be at most 10000, got 20000"),
    (("hit",), {"t_grid": [0, -1, 2]}, "each t_grid entry must be"),
    (("hit",), {"t_grid": []}, "t_grid must be a nonempty list"),
    (("verify",), {"suites": "spectral"}, "suites must be a nonempty list"),
    (("verify",), {"suites": []}, "suites must be a nonempty list, got ()"),
    (("gen",), {"graph": {"kind": "random-regular", "n": 10, "d": 3,
                          "seed": -1}}, "graph seed must be an integer"),
    (("tree",), [1, 2], "config must be a JSON object, got list"),
    (("tree",), {"out_dir": 5}, "out_dir must be a string, got 5"),
    (("tree",), {"graph": {"kind": "random-regular", "n": "10", "d": 3}},
     "graph n must be an integer >= 0, got '10'"),
    (("tree",), {"dump_curves": "no"},
     "dump_curves must be true or false, got 'no'"),
    (("tree",), {"graph": {"kind": "named", "name": "petersen", "n": 5}},
     "graph spec {'kind': 'named', 'name': 'petersen', 'n': 5} has field "
     "'n', which graph 'petersen' does not take"),
    (("tree",), {"graph": {"kind": "named", "name": "hypercube", "n": 3}},
     "graph spec {'kind': 'named', 'name': 'hypercube', 'n': 3} has field "
     "'n', which graph 'hypercube' does not take"),
    (("gen",), {"graph": {"kind": "lps", "p": 5, "q": 13, "seed": 1}},
     "graph spec {'kind': 'lps', 'p': 5, 'q': 13, 'seed': 1} has field "
     "'seed', which kind 'lps' does not take"),
    (("tree",), {"graph": {"kind": "named", "name": "complete"}},
     "graph spec {'kind': 'named', 'name': 'complete'} is missing field "
     "'n'"),
    (("tree",), {"graph": {"kind": "high-girth", "n": 20, "d": 3}},
     "graph spec {'kind': 'high-girth', 'n': 20, 'd': 3} is missing field "
     "'min_girth'"),
    (("tree",), {"graph": {"kind": ["lps"]}}, "unknown graph kind ['lps']"),
    (("tree",), {"graph": {"kind": "named", "name": ["k5"]}},
     "unknown graph name ['k5']"),
], ids=["alpha-1.5", "alpha-1.0", "alpha-0", "eps-0", "seed", "seed-2**64",
        "trials", "steps", "k", "k-128", "steps-20000", "t_grid-negative", "t_grid-empty",
        "suites-string", "suites-empty", "graph-seed", "config-list",
        "out_dir-int", "graph-n-string", "dump_curves-string",
        "petersen-n", "hypercube-n", "lps-seed", "complete-no-n",
        "high-girth-no-min_girth", "kind-list", "name-list"])
def test_bad_config_values_are_usage_errors(tmp_path, capsys, argv, config,
                                            message):
    args = [*argv, "--graph", "petersen", "--out", str(tmp_path / "o")]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("walklab: error: " + message)
    assert err.count("\n") == 1
    assert not os.path.exists(tmp_path / "o")


def usage_error(capsys, *argv) -> str:
    """The one stderr line of a CLI run that must exit 2."""
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("walklab: error: ") and err.count("\n") == 1
    return err


def test_files_that_are_not_ascii_are_usage_errors(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_bytes(b"3 2\n0 1\n1 2 \xe9\n")
    assert usage_error(capsys, "spectrum", "--graph", str(edges), "--out",
                       str(tmp_path / "o")) == \
        "walklab: error: line 3: byte 0xe9 is not ASCII\n"
    with pytest.raises(GraphFileError, match="^line 3: byte 0xe9 "):
        read_edge_list(edges)
    config = tmp_path / "cfg.json"
    config.write_bytes(b'{"seed": "\xc3\xa9"}')
    assert "byte 0xc3 at offset 10 is not ASCII" in usage_error(
        capsys, "tree", "--config", str(config), "--out", str(tmp_path / "o"))
    report = tmp_path / "report.json"
    report.write_bytes(b'{"records": [], "note": "\xff"}')
    assert "byte 0xff at offset 25 is not ASCII" in usage_error(
        capsys, "summary", str(report))
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("content", [
    "[1, 2]", '{"version": 1}', '{"version": 1, "records": [3]}',
    '{"version": 1, "records": [{"name": "hitmix-constant"}]}',
], ids=["list", "no-records", "number-record", "record-without-lhs"])
def test_summary_rejects_files_that_are_not_reports(tmp_path, capsys,
                                                     content):
    path = tmp_path / "report.json"
    path.write_text(content)
    assert usage_error(capsys, "summary", str(path)) == \
        f"walklab: error: {path} is not a walklab report: it holds no " \
        f"list of records\n"


def test_malformed_json_names_its_file(tmp_path, capsys):
    path = tmp_path / "cut.json"
    path.write_text('{"records": [')
    for argv in (("summary", str(path)), ("tree", "--config", str(path))):
        assert usage_error(capsys, *argv).startswith(
            f"walklab: error: {path}: Expecting value: line 1 column 14")


def test_summary_rejects_reports_of_different_versions(tmp_path, capsys):
    paths = []
    for version in (1, 2):
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps({"version": version, "records": []}))
        paths.append(str(path))
    assert usage_error(capsys, "summary", *paths) == \
        "walklab: error: incompatible report versions: [1, 2]\n"


def test_cli_prints_the_text_report_and_closes_its_files(tmp_path):
    # a file left open would show as a ResourceWarning, raised as an error
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(walklab.__file__)))
    env.pop("WALKLAB_OUT", None)
    out = tmp_path / "tree"
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m",
         "walklab.cli", "tree", "--graph", "petersen", "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (out / "report.txt").read_text()


@pytest.mark.parametrize("argv, message", [
    (("cycle", "--n", "0"), "cycle needs n >= 3, got 0"),
    (("hypercube", "--n", "0"), "hypercube needs dim >= 1, got 0"),
    (("random-regular", "--n", "0", "--d", "3"),
     "degree 3 must be smaller than n=0"),
], ids=["cycle", "hypercube", "random-regular"])
def test_an_explicit_zero_reaches_the_builder(tmp_path, capsys, argv,
                                              message):
    # 0 is a given value, not a missing one: the default graph must not
    # stand in for it
    assert usage_error(capsys, "gen", "--graph", *argv, "--out",
                       str(tmp_path / "o")) == f"walklab: error: {message}\n"
    assert not os.path.exists(tmp_path / "o")


def test_unknown_graph_is_usage_error(tmp_path):
    code = run_cli("spectrum", "--graph", "nonexistent-family", "--out",
                   str(tmp_path / "o"))
    assert code == 2


def test_byte_identical_reruns(tmp_path):
    out = str(tmp_path / "rerun")
    args = ("mix", "--graph", "petersen", "--seed", "5", "--out", out)
    assert run_cli(*args) == 0
    first = {}
    for name in ("report.json", "report.txt", "mixing_curve.csv"):
        first[name] = open(os.path.join(out, name), "rb").read()
    assert run_cli(*args) == 0
    for name, content in first.items():
        assert open(os.path.join(out, name), "rb").read() == content, name


def test_config_file_overrides_flags(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"graph": {"kind": "named",
                                              "name": "prism"},
                                    "suites": ["spectral"],
                                    "seed": 3}))
    out = str(tmp_path / "cfgout")
    code = run_cli("verify", "--graph", "petersen", "--config", str(cfg_path),
                   "--out", out)
    assert code == 0
    rep = read_report(os.path.join(out, "report.json"))
    assert rep["config"]["graph"]["name"] == "prism"
    assert rep["config"]["seed"] == 3
    assert tuple(rep["config"]["suites"]) == ("spectral",)


def test_env_var_out_dir(tmp_path, monkeypatch):
    target = str(tmp_path / "via-env")
    monkeypatch.setenv("WALKLAB_OUT", target)
    assert run_cli("spectrum", "--graph", "petersen",
                   "--out", str(tmp_path / "ignored")) == 0
    assert os.path.exists(os.path.join(target, "report.json"))


def test_inflate_subcommand(tmp_path):
    out = str(tmp_path / "infl")
    assert run_cli("inflate", "--graph", "petersen", "--k", "2",
                   "--out", out) == 0
    path = os.path.join(out, "graph_k2.txt")
    head = open(path).readline().split()
    assert head == ["10", "30"]


def test_summary_aggregates(tmp_path):
    outs = []
    for name, seed in (("petersen", 1), ("prism", 2)):
        out = str(tmp_path / f"s-{name}")
        run_cli("verify", "--graph", name, "--suite", "mixing", "--suite",
                "inflation", "--seed", str(seed), "--trials", "12000",
                "--out", out)
        outs.append(os.path.join(out, "report.json"))
    sum_out = str(tmp_path / "agg")
    assert run_cli("summary", *outs, "--out", sum_out) == 0
    data = json.load(open(os.path.join(sum_out, "summary.json")))
    assert data["reports"] == 2
    assert len(data["cutoff_ratio_table"]) == 2
    # prism k=2 spheres sit at excess 3 with measured constant 3
    assert data["max_c_hat_by_excess"]["3"] == pytest.approx(3.0)


def test_summary_empty_errors():
    with pytest.raises(ValueError, match="no reports"):
        emit_summary([])


def test_report_round_trip(tmp_path):
    out = str(tmp_path / "rt")
    run_cli("hit", "--graph", "petersen", "--out", out)
    path = os.path.join(out, "report.json")
    raw = open(path).read()
    assert dumps_canonical(read_report(path)) == raw


def test_exit_code_on_check_failure(tmp_path, monkeypatch):
    # force a failure by corrupting a record after the run: instead, use
    # a config that asserts a false inequality is not constructible, so
    # patch a suite to emit a failing record
    from walklab import suites as su
    from walklab.reports import record

    def bad_suite(run):
        return [record("spectral", "forced-failure", lhs=1, rhs=0,
                       passed=False)], {}

    monkeypatch.setitem(su.SUITE_FUNCTIONS, "spectral", bad_suite)
    code = run_cli("spectrum", "--graph", "petersen",
                   "--out", str(tmp_path / "fail"))
    assert code == 1


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown config fields"):
        config_from_dict({"graph": {"kind": "named", "name": "petersen"},
                          "bogus": 1})
    with pytest.raises(ConfigError, match="graph"):
        config_from_dict({"seed": 1})
    with pytest.raises(ConfigError, match="unknown suites"):
        ExperimentConfig(graph={"kind": "named", "name": "petersen"},
                         suites=("nope",)).selected_suites()
    with pytest.raises(ConfigError, match="unknown graph kind"):
        build_graph({"kind": "mystery"})


def test_run_suite_library_entry(tmp_path):
    cfg = ExperimentConfig(graph={"kind": "named", "name": "petersen"},
                           suites=("tree",), out_dir=str(tmp_path / "lib"))
    report, paths = run_suite(cfg)
    assert report.all_passed
    assert os.path.exists(paths["json"])
    recs = [r for r in report.records if r["suite"] == "tree"]
    assert any(r["name"].startswith("z-paths") for r in recs)


def test_report_json_independent_of_out_dir(tmp_path):
    # report.json records what was computed, not where it was written
    blobs = []
    for name in ("first", "second"):
        cfg = ExperimentConfig(graph={"kind": "named", "name": "prism"},
                               suites=("spectral", "walk"), trials=10000,
                               seed=4, out_dir=str(tmp_path / name))
        _, paths = run_suite(cfg)
        with open(paths["json"], "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]
    assert b"out_dir" not in blobs[0]


# canonical reports; any change to these bytes must be deliberate.  q3, k5
# and lps17-13 carry certified automorphisms with uniform cycles, so their
# spectra come from cyclic symmetry blocks and their candidate families are
# seeded at vertex 0; rr64 and petersen take one dense eigvalsh and every
# seed
ALL = ("all",)
PINNED_DIGESTS = {
    "rr64": ({"kind": "random-regular", "n": 64, "d": 3, "seed": 8}, ALL,
             "8418ffea811b60365b2431de76fdc5a5e28af1b3a2593c89265335aa8368b78e"),
    "petersen": ({"kind": "named", "name": "petersen"}, ALL,
                 "e01b97044849321e87e0d2c0c8f29b4b01692c7ebf15ecfe9ee93595011af24b"),
    # bipartite: the periodic skips of the mixing and hitmix records
    "q3": ({"kind": "named", "name": "hypercube", "dim": 3}, ALL,
           "ec324370756151e698f0ea928a2561df53c43fa861cee095278a0911501c5319"),
    # diameter 1: every 2-sphere is empty
    "k5": ({"kind": "named", "name": "complete", "n": 5}, ALL,
           "b879694bc7aee7564efedc023dc9ce87c6325f5e4255b68a028369c29340c37c"),
    # certified vertex-transitive (PSL, non-bipartite): one start, one center
    "lps17-13": ({"kind": "lps", "p": 17, "q": 13},
                 ("spectral", "mixing", "inflation"),
                 "d8303900d17175541bd881e4fa29d4f3667e710ebbf90aaa2f6338be6a6fe428"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_canonical_report_digests(tmp_path, name):
    spec, suites, digest = PINNED_DIGESTS[name]
    out = str(tmp_path / name)
    run_suite(ExperimentConfig(graph=spec, suites=suites, trials=2000, seed=3,
                               out_dir=out))
    assert canonical_digest(out) == digest


@pytest.mark.parametrize("n", [7, 8])
def test_all_suites_on_cycles_skip_the_walk(tmp_path, n):
    out = str(tmp_path / f"c{n}")
    cfg = ExperimentConfig(graph={"kind": "named", "name": "cycle", "n": n},
                           out_dir=out)
    run_suite(cfg)
    rep = read_report(os.path.join(out, "report.json"))
    assert [(r["suite"], r["name"], r["note"]) for r in rep["records"]
            if r["suite"] == "walk"] == [
        ("walk", "suite-skipped", "needs a regular graph with d >= 3")]


def zoo_spec(name, tmp_path):
    """Graph spec of a small zoo member: P4, K1,4 and two disjoint
    Petersen graphs are read from edge-list files; rr8 is random cubic."""
    petersen = walklab.build_named("petersen")
    files = {
        "path4": (4, [(0, 1), (1, 2), (2, 3)]),
        "star4": (5, [(0, leaf) for leaf in range(1, 5)]),
        "two-petersen": (20, list(petersen.edges)
                         + [(u + 10, v + 10) for u, v in petersen.edges]),
    }
    if name in files:
        path = str(tmp_path / f"{name}.txt")
        walklab.write_edge_list(walklab.make_graph(*files[name]), path)
        return {"kind": "file", "path": path}
    if name == "rr8":
        return {"kind": "random-regular", "n": 8, "d": 3, "seed": 2}
    kind, param, value = {"k2": ("complete", "n", 2), "c6": ("cycle", "n", 6),
                          "c7": ("cycle", "n", 7),
                          "q4": ("hypercube", "dim", 4)}[name]
    return {"kind": "named", "name": kind, param: value}


@pytest.mark.parametrize("small", [False, True],
                         ids=["default-budgets", "small-budgets"])
@pytest.mark.parametrize("name", ["two-petersen", "path4", "star4", "k2",
                                  "c6", "c7", "q4", "rr8"])
def test_every_suite_reports_on_the_zoo(monkeypatch, tmp_path, name, small):
    # disconnected, non-regular, bipartite and odd cycles, on the dense and
    # the iterative spectrum and on exact and sampled mixing starts
    from walklab import chains, spectral
    from walklab.suites import SUITE_NAMES
    if small:
        monkeypatch.setattr(spectral, "DENSE_BUDGET", 1)
        monkeypatch.setattr(chains, "EXACT_START_LIMIT", 1)
    out = tmp_path / "out"
    # on rr8 at k = 3, vertex 0 has eccentricity 3 but family member 1 has
    # eccentricity 2: the escape check has no W row at 1
    k = 3 if name == "rr8" else 2
    report, paths = run_suite(ExperimentConfig(
        graph=zoo_spec(name, tmp_path), k=k, trials=200, out_dir=str(out)))
    assert os.path.exists(out / "report.json")
    assert {r["suite"] for r in report.records} == {"run", *SUITE_NAMES}
    [spec] = [r for r in report.records if r["name"] == "spectrum"]
    assert spec["note"] == ("iterative-extremal" if small else "dense-full")
    if name == "two-petersen" and small:
        # two classes: lambda2 = 1 exactly, stated with residual 0
        assert spec["extra"]["lambda2"] == 1.0
        assert spec["extra"]["residuals"]["lambda2"] == 0.0
    if name == "rr8":
        [esc] = [r for r in report.records
                 if r["name"] == "escape-decomposition"]
        assert (esc["passed"], esc["note"]) == (
            None, "skipped: sphere of radius 3 around 1 is empty")


def test_skipped_suites_build_no_spectrum(monkeypatch, tmp_path):
    from walklab import spectral
    calls = []
    spectrum = spectral.spectrum
    monkeypatch.setattr(spectral, "spectrum",
                        lambda *args, **kwargs: calls.append(args)
                        or spectrum(*args, **kwargs))
    q4 = {"kind": "named", "name": "hypercube", "dim": 4}
    # Q4 is bipartite, so the mixing suite skips; at alpha = 0.05 no set
    # fits under the mass 1/16 of a vertex, so the hitting suite skips
    for suite, alpha in (("mixing", 0.25), ("hitting", 0.05)):
        report, _ = run_suite(ExperimentConfig(
            graph=q4, suites=(suite,), alpha=alpha, out_dir=str(tmp_path)))
        assert [r["name"] for r in report.records
                if r["suite"] == suite] == ["suite-skipped"]
    assert calls == []
