import re

import numpy as np
import pytest

from plap import (
    Graph,
    GraphParseError,
    build_graph,
    graph_digest,
    is_connected,
    parse_graph,
    path_graph,
    serialize_graph,
    tau,
)
from plap.graph import is_canonical_path, is_unit_path

from .util import random_connected_graph

P3_TEXT = """\
n 3
1 2 1.0
2 3 1.0
"""


def test_parse_p3_unit_mu():
    g = parse_graph(P3_TEXT, "unit")
    assert g.n == 3 and g.m == 2
    assert np.array_equal(g.mu, np.ones(3))
    assert list(zip(g.edges_u, g.edges_v)) == [(0, 1), (1, 2)]


def test_parse_p3_degree_mu():
    g = parse_graph(P3_TEXT, "degree")
    assert np.array_equal(g.mu, np.array([1.0, 2.0, 1.0]))


def test_parse_explicit_mu():
    text = "n 2\nmu 1 0.5\nmu 2 2.5\n1 2 3.0\n"
    g = parse_graph(text, "explicit")
    assert np.array_equal(g.mu, np.array([0.5, 2.5]))
    assert g.mu_mode == "explicit"


@pytest.mark.parametrize("line,fragment", [
    ("2 2 1.0", "self-loop"),
    ("1 2 0.0", "nonpositive weight"),
    ("1 2 -3", "nonpositive weight"),
    ("1 9 1.0", "out of range"),
    ("1 b 1.0", "bad edge line"),
    ("1 2", "expected edge"),
    ("1 2 1.0 7", "expected edge"),
])
def test_parse_bad_edge_lines(line, fragment):
    text = f"n 3\n1 3 1.0\n{line}\n"
    with pytest.raises(GraphParseError, match="line 3"):
        parse_graph(text, "unit")
    with pytest.raises(GraphParseError, match=fragment):
        parse_graph(text, "unit")


HUGE = 10 ** 15


@pytest.mark.parametrize("text,mode,fragment", [
    ("n x\n", "unit", "line 1: bad vertex count 'x'"),
    ("n 0\n", "unit", "line 1: vertex count must be >= 1"),
    ("n 2\nmu 1\n", "explicit", "line 2: expected 'mu <vertex> <value>'"),
    ("n 2\nmu one 1.0\n", "explicit", "line 2: bad mu line"),
    ("n 2\nmu 3 1.0\n", "explicit", "line 2: vertex 3 out of range 1..2"),
    ("n 2\nmu 1 1.0\nmu 1 2.0\n", "explicit",
     "line 3: duplicate mu for vertex 1"),
    ("n 2\nmu 1 0.0\n", "explicit", "line 2: mu must be positive"),
    ("n 2\nmu 1 -1\n", "explicit", "line 2: mu must be positive"),
    ("", "unit", "empty document"),
    ("# a comment\n\n", "unit", "empty document"),
    ("n 3\n1 2 1.0\n", "degree", "mu_mode=degree requires every vertex"),
    ("n 2\n1 2 1.0\n", "cosine", "unknown mu_mode 'cosine'"),
    # numpy refuses 10^15 measures without touching memory, and the first
    # missing mu is found without walking every vertex
    (f"n {HUGE}\n1 2 1.0\n", "unit",
     f"line 1: vertex count {HUGE} is too large to allocate"),
    (f"# huge\nn {HUGE}\n1 2 1.0\n", "degree",
     f"line 2: vertex count {HUGE} is too large to allocate"),
    (f"n {HUGE}\nmu 1 1.0\n1 2 1.0\n", "explicit", "mu missing for vertex 2"),
], ids=["count", "n0", "mu-short", "mu-token", "mu-range", "mu-duplicate",
        "mu-zero", "mu-negative", "empty", "comment-only",
        "isolated-degree", "mu-mode", "huge-unit", "huge-degree", "huge-mu"])
def test_parse_errors(text, mode, fragment):
    with pytest.raises(GraphParseError, match=re.escape(fragment)):
        parse_graph(text, mode)


def test_parse_duplicate_edge_names_both_lines():
    text = "n 3\n1 2 1.0\n2 1 2.0\n"
    with pytest.raises(GraphParseError, match="line 3.*duplicate"):
        parse_graph(text, "unit")


def test_parse_missing_mu_in_explicit_mode():
    with pytest.raises(GraphParseError, match="mu missing for vertex 1"):
        parse_graph(P3_TEXT, "explicit")


def test_parse_mu_lines_require_explicit_mode():
    text = "n 2\nmu 1 1.0\nmu 2 1.0\n1 2 1.0\n"
    with pytest.raises(GraphParseError, match="mu_mode"):
        parse_graph(text, "unit")


def test_parse_comments_and_blank_lines():
    text = "# a path\n\nn 2  # two vertices\n1 2 1.5\n"
    g = parse_graph(text, "unit")
    assert g.m == 1 and g.edges_w[0] == 1.5


def test_parse_chooses_the_measure_from_mu_lines():
    # a mu line inside a comment is no mu line
    commented = "n 2\n# mu 1 2.0\n1 2 1.0  # mu 2 0.5\n"
    assert parse_graph(commented, None) == parse_graph(commented, "unit")
    text = "n 2\nmu 1 2.0\nmu 2 0.5  # a comment\n1 2 1.0\n"
    g = parse_graph(text, None)
    assert g == parse_graph(text, "explicit")
    assert g.mu_mode == "explicit" and g.mu.tolist() == [2.0, 0.5]
    # the default measure stays unit, which refuses mu lines
    with pytest.raises(GraphParseError, match="mu lines present"):
        parse_graph(text)
    with pytest.raises(GraphParseError, match="mu missing for vertex 2"):
        parse_graph("n 2\nmu 1 2.0\n1 2 1.0\n", None)


def test_parse_missing_header():
    with pytest.raises(GraphParseError, match="header"):
        parse_graph("1 2 1.0\n", "unit")


def test_round_trip_serialization():
    rng = np.random.default_rng(3)
    for n in (2, 5, 9):
        g = random_connected_graph(rng, n, mu_mode="explicit")
        assert parse_graph(serialize_graph(g), "explicit") == g


def test_digest_stable_and_mode_sensitive():
    g1 = path_graph(4, "unit")
    g2 = path_graph(4, "degree")
    assert graph_digest(g1) == graph_digest(path_graph(4, "unit"))
    assert graph_digest(g1) != graph_digest(g2)


def test_path_graph_shapes():
    g = path_graph(3)
    assert g.n == 3 and g.m == 2 and is_unit_path(g)
    g4 = path_graph(4)
    assert g4.m == 3
    assert np.array_equal(path_graph(4, "degree").mu, [1.0, 2.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        path_graph(1)


def test_is_connected():
    assert is_connected(path_graph(4))
    two_edges = build_graph(4, [(1, 2, 1.0), (3, 4, 1.0)])
    assert not is_connected(two_edges)
    assert is_connected(build_graph(1, []))


def test_connectivity_invariant_under_relabel():
    rng = np.random.default_rng(11)
    g = random_connected_graph(rng, 7, mu_mode="unit")
    perm = rng.permutation(7) + 1
    relabeled = build_graph(
        7, [(int(perm[u]), int(perm[v]), w)
            for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w)])
    assert is_connected(relabeled) == is_connected(g)


def test_tau_values():
    assert tau(path_graph(4)) == 2.0
    assert tau(path_graph(3)) == 2.0
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 6, mu_mode="degree")
    assert tau(g) == pytest.approx(1.0)
    assert tau(random_connected_graph(rng, 6, mu_mode="explicit")) > 0


def test_build_graph_validation():
    edge = [(1, 2, 1.0)]
    cases = [
        ((3, [(1, 2, 1.0), (2, 1, 1.0)]), {}, "duplicate"),
        ((3, [(2, 2, 1.0)]), {}, "self-loop"),
        ((2, edge), {"mu": [1.0, -1.0], "mu_mode": "explicit"}, "positive"),
        ((0, []), {}, "vertex count must be >= 1"),
        ((2, [(1, 3, 1.0)]), {}, "endpoint out of range 1..2"),
        ((2, [(1, 2, 0.0)]), {}, "nonpositive weight"),
        ((2, edge), {"mu_mode": "cosine"}, "unknown mu_mode"),
        ((2, edge), {"mu_mode": "explicit"}, "requires a mu value"),
        ((2, edge), {"mu": [1.0, 1.0, 1.0], "mu_mode": "explicit"},
         "expected 2 mu values"),
    ]
    for args, kwargs, fragment in cases:
        with pytest.raises(ValueError, match=re.escape(fragment)):
            build_graph(*args, **kwargs)


def test_canonical_path_detection():
    assert is_canonical_path(path_graph(5))
    assert not is_canonical_path(build_graph(3, [(1, 3, 1.0), (2, 3, 1.0)]))
    weighted = build_graph(3, [(1, 2, 2.0), (2, 3, 1.0)])
    assert is_canonical_path(weighted) and not is_unit_path(weighted)


def test_graph_is_immutable():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.mu[0] = 7.0
