"""Shared test helpers: seeded random graph and function generators."""

import numpy as np

from plap import build_graph

MU_MODES = ("unit", "degree", "explicit")


def random_connected_graph(rng, n, mu_mode=None):
    """Random spanning tree plus extra edges; weights in [0.5, 2]."""
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
    if mu_mode is None:
        mu_mode = MU_MODES[int(rng.integers(0, 3))]
    mu = rng.uniform(0.5, 2.0, n) if mu_mode == "explicit" else None
    return build_graph(n, weighted, mu=mu, mu_mode=mu_mode)


def random_vertex_function(rng, n, min_gap=0.0):
    """Random values; optionally bounded away from 0 and from each other."""
    while True:
        f = rng.standard_normal(n)
        if min_gap == 0.0:
            return f
        if np.min(np.abs(f)) <= min_gap:
            continue
        diffs = np.abs(f[:, None] - f[None, :])
        if np.min(diffs[np.triu_indices(n, 1)]) > min_gap:
            return f


def vertex_function_stack(rng, rows, n):
    """rows random vertex functions of n entries; some rows have ties, exact
    zeros, or scales from 1e-60 to 1e60."""
    fs = rng.standard_normal((rows, n))
    fs[1::4] = np.round(fs[1::4])
    fs[2::4, :n // 2] = 0.0
    fs[3::4] *= 10.0 ** rng.integers(-60, 61, (fs[3::4].shape[0], 1))
    return fs
