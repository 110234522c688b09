"""Seeded corpora for the three `plap certify` workloads.

Every workload is a list of calls made from ``--seed`` alone, so the same
seed always gives the same graph files and the same certify arguments.  The
size of a corpus follows from ``--seconds`` and fixed per-call cost
estimates taken at the baseline, never from the clock, so two runs of one
seed make the same calls and their counters can be compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from plap.cli import DEFAULT_CERTIFY_P
from plap.graph import build_graph, graph_digest

MU_MODES = ("unit", "degree", "explicit")

# Baseline cost of one call, used only to size a corpus from --seconds
# (2-core x86 machine, numpy fallback kernels, no numba).
MIXED_GRAPH_COST_S = 3.75   # n = 3..10, heavy tail capped by the limit
MIXED_PATHS_COST_S = 7.0    # unit paths n = 4..12 once, n = 8 four times a graph
CAP_CALL_COST_S = 3.0       # n = 12: 1.8-2.7 s
EXACT_P1_CALL_COST_S = 7.5  # n = 5, m = 4..7: 5-9 s

UNIT_PATH_SIZES = tuple(range(4, 13))
MIXED_REPEATED_PATH_N = 8
MIXED_REPEATS_PER_GRAPH = 4
MIXED_SIZES = tuple(range(3, 11))
CAP_SIZE = 12
EXACT_P1_SIZE = 5
EXACT_P1_EDGES = (4, 5, 6, 7)


@dataclass(frozen=True)
class Call:
    """One certify call: the graph file text and the extra certify options."""
    ident: str
    n: int
    m: int
    mu_mode: str
    text: str
    options: tuple[str, ...]
    digest: str
    repeat: int = 0     # > 0 for a later run of the same input

    @property
    def p_list(self) -> list[float]:
        """The exponents certify is asked for."""
        p = [float(self.options[i + 1]) for i, opt in enumerate(self.options)
             if opt == "--p"]
        return p or [float(x) for x in DEFAULT_CERTIFY_P]


def random_connected_graph(rng, n, mu_mode):
    """Random spanning tree plus extra edges; weights in [0.5, 2].

    The same draws, in the same order, as ``tests/util.random_connected_graph``
    with ``mu_mode`` given.  It is repeated here so that a change to the test
    helpers cannot silently change the benchmark's inputs.
    """
    edges = set()
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.add((u, v))
    extra = int(rng.integers(0, n))
    for _ in range(extra * 2):
        u, v = sorted(rng.integers(1, n + 1, 2))
        if u != v:
            edges.add((int(u), int(v)))
    weighted = [(u, v, float(rng.uniform(0.5, 2.0))) for u, v in sorted(edges)]
    mu = rng.uniform(0.5, 2.0, n) if mu_mode == "explicit" else None
    return weighted, mu


def graph_text(n, edges, mu) -> str:
    """Edge-list document with `mu` lines only when the measure is explicit."""
    lines = [f"n {n}"]
    if mu is not None:
        lines += [f"mu {i + 1} {float(x)!r}" for i, x in enumerate(mu)]
    lines += [f"{u} {v} {float(w)!r}" for u, v, w in edges]
    return "\n".join(lines) + "\n"


def _call(ident, n, edges, mu, mu_mode, options):
    digest = graph_digest(build_graph(n, edges, mu=mu, mu_mode=mu_mode))
    return Call(ident=ident, n=n, m=len(edges), mu_mode=mu_mode,
                text=graph_text(n, edges, mu),
                options=("--mu", mu_mode) + tuple(options), digest=digest)


def _unit_paths():
    return [_call(f"path-{n}", n, [(i, i + 1, 1.0) for i in range(1, n)],
                  None, "unit", ()) for n in UNIT_PATH_SIZES]


def _count(seconds: float, cost: float) -> int:
    return max(1, round(seconds / cost))


def traced_prefix(calls: list[Call]) -> list[Call]:
    """The calls of a traced run: the corpus without repeats, random graphs halved.

    A traced run makes each call twice, untraced and traced, to measure the
    tracing overhead, so it takes about half the corpus to stay near --seconds.
    """
    first = [c for c in calls if not c.repeat]
    paths = [c for c in first if c.ident.startswith("path-")]
    rest = [c for c in first if not c.ident.startswith("path-")]
    return paths + rest[:(len(rest) + 1) // 2]


def certify_mixed(seed: int, seconds: float) -> list[Call]:
    """Unit paths n = 4..12, then random graphs, each followed by the path n = 8.

    Each round of random graphs holds one graph per n = 3..10 in a seeded
    order and cycles the measure mode, so every run has the same mix of sizes
    and modes.  The repeated path is one cheap input that does not depend on
    the seed.  It gives the median call time a large block of samples of a
    single cost, so bursts of host noise and the seed's heavy-tailed graphs
    barely move the median.
    """
    rng = np.random.default_rng(seed)
    paths = _unit_paths()
    repeated = next(p for p in paths if p.n == MIXED_REPEATED_PATH_N)
    rounds = _count(seconds - MIXED_PATHS_COST_S,
                    MIXED_GRAPH_COST_S * len(MIXED_SIZES))
    calls = list(paths)
    for r in range(rounds):
        for j, n in enumerate(rng.permutation(MIXED_SIZES)):
            i = r * len(MIXED_SIZES) + j
            mode = MU_MODES[i % 3]
            calls.append(_call(f"g{i:03d}", int(n),
                               *random_connected_graph(rng, int(n), mode),
                               mode, ()))
            calls += [replace(repeated, repeat=MIXED_REPEATS_PER_GRAPH * i + k + 1)
                      for k in range(MIXED_REPEATS_PER_GRAPH)]
    return calls


def cheeger_cap(seed: int, seconds: float) -> list[Call]:
    """`certify --p 2` on random n = 12 graphs, two below the exact h_k cap.

    At n = 13 a call takes 6-8 s, so a run would hold too few calls for a
    steady median; at n = 12 the enumeration is still about 95% of a call.
    """
    rng = np.random.default_rng(seed)
    calls = []
    for i in range(_count(seconds, CAP_CALL_COST_S)):
        mode = MU_MODES[i % 3]
        calls.append(_call(f"g{i:03d}", CAP_SIZE,
                           *random_connected_graph(rng, CAP_SIZE, mode),
                           mode, ("--p", "2")))
    return calls


def exact_p1(seed: int, seconds: float) -> list[Call]:
    """`certify --one-laplacian --p 2` on random n = 5 graphs with m = 4..7 edges.

    Graphs are drawn until one has the next edge count in turn, so every run
    holds the same mix of edge counts, and no dense graph (11 s at m = 8
    against 5-9 s at m = 4..7 while sizing) runs near the latency limit.
    """
    rng = np.random.default_rng(seed)
    calls = []
    for i in range(_count(seconds, EXACT_P1_CALL_COST_S)):
        mode = MU_MODES[i % 3]
        m = EXACT_P1_EDGES[i % len(EXACT_P1_EDGES)]
        while True:
            edges, mu = random_connected_graph(rng, EXACT_P1_SIZE, mode)
            if len(edges) == m:
                break
        calls.append(_call(f"g{i:03d}", EXACT_P1_SIZE, edges, mu, mode,
                           ("--one-laplacian", "--p", "2")))
    return calls


WORKLOADS = {
    "certify_mixed": certify_mixed,
    "cheeger_cap": cheeger_cap,
    "exact_p1": exact_p1,
}
