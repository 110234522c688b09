"""Tests of the benchmark's own checks:  python3 -m pytest perfbench -q"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from plap import cli, eigensolver  # noqa: E402


def _path_call(n):
    return next(c for c in corpus._unit_paths() if c.n == n)


def _random_call(n, options):
    edges, mu = corpus.random_connected_graph(np.random.default_rng(3), n, "degree")
    return corpus._call(f"r{n}", n, edges, mu, "degree", options)


def _certify(tmp_path, call, main=cli.main):
    graph = tmp_path / f"{call.ident}.txt"
    graph.write_text(call.text)
    out = tmp_path / f"{call.ident}.json"
    code = main(["certify", str(graph), *call.options, "--json", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    calls = [_path_call(6), _random_call(4, ("--one-laplacian", "--p", "1.5"))]
    return [(call, *_certify(tmp, call)) for call in calls]


def test_reports_pass_their_own_checks(reports):
    for call, code, report in reports:
        assert code == 0
        assert checks.report_problems(report, call.digest, call.p_list) == []
        summary = checks.summary(code, report)
        assert checks.reference_mismatches(summary, summary) == []


@pytest.mark.parametrize("flip", [
    lambda r: r["runs"][0]["nodal"]["checks"][1],
    lambda r: r["runs"][0]["cheeger"][1],
    lambda r: r["runs"][-1]["nodal_space"][0]["weak"],
    lambda r: r["runs"][-1]["operator_checks"],
    lambda r: r["kernel_inequality"],
])
def test_one_flipped_pass_flag_is_caught(reports, flip):
    for call, code, report in reports:
        bad = copy.deepcopy(report)
        entry = flip(bad)
        entry["pass"] = not entry["pass"]
        assert checks.report_problems(bad, call.digest, call.p_list)


def test_one_flipped_flag_differs_from_the_reference(reports):
    for call, code, report in reports:
        bad = copy.deepcopy(report)
        check = bad["runs"][1]["nodal"]["checks"][0] if len(bad["runs"]) > 1 \
            else bad["runs"][0]["nodal"]["checks"][0]
        check["pass"] = not check["pass"]
        assert checks.reference_mismatches(checks.summary(code, bad),
                                           checks.summary(code, report))


def test_one_perturbed_lambda_is_caught(reports):
    for call, code, report in reports:
        bad = copy.deepcopy(report)
        bad["runs"][0]["spectrum"][1]["lambda"] *= 1.0 + 1e-6
        assert checks.reference_mismatches(checks.summary(code, bad),
                                           checks.summary(code, report))


def test_a_fixed_failure_is_not_a_mismatch(reports):
    call, code, report = reports[0]
    assert checks.reference_mismatches(checks.summary(code, report),
                                       {"exit": 2, "all_pass": None}) == []


def test_graph_files_parse_to_the_generated_graph(tmp_path):
    for call in (_path_call(5), _random_call(5, ()),
                 corpus.exact_p1(0, 1)[0]):
        path = tmp_path / "g.txt"
        path.write_text(call.text)
        g = cli._load_graph(str(path), call.mu_mode)
        assert cli.graph_digest(g) == call.digest


def test_traced_counts_repeat_exactly(tmp_path):
    calls = [_path_call(7), _random_call(5, ("--p", "1.5")),
             _random_call(6, ("--p", "2"))]
    totals = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            for call in calls:
                tracer.begin_call()
                assert _certify(tmp_path, call, tracer.root(cli.main))[0] == 0
                tracer.end_call()
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        accounted = sum(metrics[name] for name in spans.SELF_TIMES)
        assert accounted > 0
        totals.append({k: v for k, v in metrics.items() if k not in spans.SELF_TIMES})
    assert totals[0] == totals[1]
    assert totals[0]["eigensolver.newton_iterations"] > 0
    assert totals[0]["kernels.path_shoot_calls"] > 0
    assert cli.variational_spectrum is eigensolver.variational_spectrum


def test_a_call_over_the_latency_limit_is_cut(tmp_path, monkeypatch):
    call = _path_call(12)
    graph = tmp_path / "g.txt"
    graph.write_text(call.text)
    monkeypatch.setattr(run, "LATENCY_LIMIT_S", 0.05)
    code, wall, _, _ = run._certify(cli.main, ["certify", str(graph), "--mu", "unit"])
    assert code is None and wall < 1.0
    monkeypatch.setattr(run, "LATENCY_LIMIT_S", 20.0)
    code, _, _, _ = run._certify(cli.main, ["certify", str(graph), "--mu", "unit",
                                         "--p", "2", "--json", str(tmp_path / "r.json")])
    assert code == 0
