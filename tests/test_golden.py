"""`plap certify --json` and `plap cheeger --json` reports of fixed inputs,
byte for byte.

The reports in tests/golden are the known-right answers of their inputs;
`python3 -m tests.golden.regen` rewrites them and names what moved.
"""

import pytest

from plap import parse_graph

from .golden.regen import CHEEGER_INPUTS, GRAPHS, HERE, INPUTS, certify, cheeger


@pytest.mark.parametrize("name", list(INPUTS))
def test_certify_report_matches_golden(name, tmp_path):
    text, _ = INPUTS[name]
    assert (HERE / f"{name}.txt").read_text(encoding="utf-8") == text
    out = tmp_path / "report.json"
    assert certify(name, out) == 0
    assert out.read_bytes() == (HERE / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", list(CHEEGER_INPUTS))
def test_cheeger_report_matches_golden(name, tmp_path):
    graph, _ = CHEEGER_INPUTS[name]
    if graph in GRAPHS:
        assert (HERE / f"{graph}.txt").read_text(encoding="utf-8") == GRAPHS[graph]
    out = tmp_path / "report.json"
    assert cheeger(name, out) == 0
    assert out.read_bytes() == (HERE / f"{name}.json").read_bytes()


def test_reports_do_not_depend_on_earlier_calls(tmp_path):
    # one process certifies at seeds 0, 5 and 0 again, after graphs of fewer
    # (path5) and more (path13) vertices drew the same streams at seed 0; the
    # n = 12 inputs between them grow and reuse the kept work arrays across
    # n, edge count, measure, exponents and seed
    for name in ("path5", "cap0_g000", "path9", "path13", "cap0_g001",
                 "exact0_m5", "cap0_g002", "path9", "path9_seed5", "cap0_g000",
                 "path9"):
        out = tmp_path / "report.json"
        assert certify(name, out) == 0
        assert out.read_bytes() == (HERE / f"{name}.json").read_bytes(), name


def test_graph_files_parse_to_the_measure_of_their_mu_lines():
    # with no --mu, a file with a mu line reads as explicit, else as unit
    for name in INPUTS:
        text = (HERE / f"{name}.txt").read_text(encoding="utf-8")
        has_mu = any(line.split("#", 1)[0].split()[:1] == ["mu"]
                     for line in text.splitlines())
        assert parse_graph(text, None) == parse_graph(
            text, "explicit" if has_mu else "unit"), name
