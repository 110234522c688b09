"""Weighted undirected graphs with positive vertex measures.

Vertices are contiguous 1-based integers. Each edge {u, v} is stored once as
an ordered pair u < v; every downstream sum over edges runs once per stored
pair (no 1/2 factor), so the quadratic form of the p=2 operator equals the
classical f'Lf.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

MU_MODES = ("unit", "degree", "explicit")


class GraphParseError(ValueError):
    """Malformed edge-list document; the message names the offending line."""


@dataclass(frozen=True, eq=False)
class Graph:
    n: int
    mu: np.ndarray        # (n,) positive vertex measures
    edges_u: np.ndarray   # (m,) 0-based tail indices, edges_u < edges_v
    edges_v: np.ndarray   # (m,) 0-based head indices
    edges_w: np.ndarray   # (m,) positive edge weights
    mu_mode: str = "explicit"

    def __post_init__(self):
        for arr in (self.mu, self.edges_u, self.edges_v, self.edges_w):
            arr.setflags(write=False)

    @property
    def m(self) -> int:
        return len(self.edges_w)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted degree d(u) = sum of incident edge weights."""
        d = np.bincount(self.edges_u, weights=self.edges_w, minlength=self.n)
        d += np.bincount(self.edges_v, weights=self.edges_w, minlength=self.n)
        d.setflags(write=False)
        return d

    @cached_property
    def unit_weights(self) -> bool:
        """Every edge weight is 1.0."""
        return bool(np.all(self.edges_w == 1.0))

    @cached_property
    def unit_measure(self) -> bool:
        """Every vertex measure is 1.0."""
        return bool(np.all(self.mu == 1.0))

    @cached_property
    def hk(self) -> tuple[float, ...]:
        """Exact h_1..h_n; raises `cheeger.ExactCapExceeded` past the cap."""
        from . import cheeger
        return tuple(cheeger.multiway_cheeger_values(self))

    @cached_property
    def optimal_families(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """The optimal family of every k = 1..n, as `cheeger` breaks ties."""
        from . import cheeger
        return tuple(fam for _, fam in cheeger.multiway_cheeger_all(self))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists (0-based) for traversal."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in zip(self.edges_u, self.edges_v):
            nbrs[u].append(int(v))
            nbrs[v].append(int(u))
        return tuple(tuple(a) for a in nbrs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.mu_mode == other.mu_mode
            and np.array_equal(self.mu, other.mu)
            and np.array_equal(self.edges_u, other.edges_u)
            and np.array_equal(self.edges_v, other.edges_v)
            and np.array_equal(self.edges_w, other.edges_w)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mu_mode, self.mu.tobytes(),
                     self.edges_u.tobytes(), self.edges_v.tobytes(),
                     self.edges_w.tobytes()))


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int, float]],
    mu: Sequence[float] | None = None,
    mu_mode: str = "unit",
) -> Graph:
    """Construct a validated Graph from 1-based (u, v, w) triples.

    mu_mode selects the vertex measure: all ones, weighted degree, or the
    explicitly supplied values.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if mu_mode not in MU_MODES:
        raise ValueError(f"unknown mu_mode {mu_mode!r}, expected one of {MU_MODES}")
    seen: set[tuple[int, int]] = set()
    eu, ev, ew = [], [], []
    for u, v, w in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge endpoint out of range 1..{n}: ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if w <= 0 or not np.isfinite(w):
            raise ValueError(f"edge ({u}, {v}) has nonpositive weight {w}")
        a, b = (u - 1, v - 1) if u < v else (v - 1, u - 1)
        if (a, b) in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add((a, b))
        eu.append(a)
        ev.append(b)
        ew.append(float(w))
    order = sorted(range(len(eu)), key=lambda i: (eu[i], ev[i]))
    edges_u = np.array([eu[i] for i in order], dtype=np.int64)
    edges_v = np.array([ev[i] for i in order], dtype=np.int64)
    edges_w = np.array([ew[i] for i in order], dtype=np.float64)

    if mu_mode == "unit":
        mu_arr = np.ones(n)
    elif mu_mode == "degree":
        mu_arr = np.bincount(edges_u, weights=edges_w, minlength=n)
        mu_arr += np.bincount(edges_v, weights=edges_w, minlength=n)
        if np.any(mu_arr <= 0):
            raise ValueError("mu_mode=degree requires every vertex to have an edge")
    else:
        if mu is None:
            raise ValueError("mu_mode=explicit requires a mu value per vertex")
        mu_arr = np.asarray(mu, dtype=np.float64)
        if mu_arr.shape != (n,):
            raise ValueError(f"expected {n} mu values, got {mu_arr.shape}")
        if np.any(mu_arr <= 0) or not np.all(np.isfinite(mu_arr)):
            raise ValueError("vertex measures must be positive and finite")
    return Graph(n=n, mu=mu_arr, edges_u=edges_u, edges_v=edges_v,
                 edges_w=edges_w, mu_mode=mu_mode)


def parse_graph(text: str, mu_mode: str | None = "unit") -> Graph:
    """Parse an edge-list document.

    Format: a header line ``n <count>``, optional ``mu <vertex> <value>``
    lines, and edge lines ``<u> <v> <w>``.  ``#`` starts a comment.  With
    mu_mode None the measure is explicit when the document has a mu line
    and unit otherwise.
    """
    if mu_mode is not None and mu_mode not in MU_MODES:
        raise GraphParseError(f"unknown mu_mode {mu_mode!r}")
    n = None
    mu_seen: dict[int, float] = {}
    edges: list[tuple[int, int, float]] = []
    edge_lines: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "n" or len(tokens) != 2:
                raise GraphParseError(f"line {lineno}: expected header 'n <count>'")
            try:
                n = int(tokens[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad vertex count {tokens[1]!r}") from None
            if n < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be >= 1")
            header = lineno
            continue
        if tokens[0] == "mu":
            if len(tokens) != 3:
                raise GraphParseError(f"line {lineno}: expected 'mu <vertex> <value>'")
            try:
                v, val = int(tokens[1]), float(tokens[2])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad mu line") from None
            if not 1 <= v <= n:
                raise GraphParseError(f"line {lineno}: vertex {v} out of range 1..{n}")
            if v in mu_seen:
                raise GraphParseError(f"line {lineno}: duplicate mu for vertex {v}")
            if val <= 0 or not np.isfinite(val):
                raise GraphParseError(f"line {lineno}: mu must be positive, got {val}")
            mu_seen[v] = val
            continue
        if len(tokens) != 3:
            raise GraphParseError(f"line {lineno}: expected edge '<u> <v> <w>'")
        try:
            u, v, w = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError:
            raise GraphParseError(f"line {lineno}: bad edge line") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphParseError(f"line {lineno}: endpoint out of range 1..{n}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        if w <= 0 or not np.isfinite(w):
            raise GraphParseError(f"line {lineno}: nonpositive weight {w}")
        key = (min(u, v), max(u, v))
        if key in edge_lines:
            raise GraphParseError(
                f"line {lineno}: duplicate edge ({u}, {v}), first seen on line {edge_lines[key]}")
        edge_lines[key] = lineno
        edges.append((u, v, w))
    if n is None:
        raise GraphParseError("line 1: empty document, expected header 'n <count>'")
    if mu_mode is None:
        mu_mode = "explicit" if mu_seen else "unit"
    mu = None
    if mu_mode == "explicit":
        if len(mu_seen) < n:
            # mu_seen holds vertices of 1..n, so one of the first
            # len(mu_seen) + 1 has no mu
            missing = next(v for v in range(1, n + 1) if v not in mu_seen)
            raise GraphParseError(
                f"end of input: mu_mode=explicit but mu missing for vertex {missing}")
        mu = [mu_seen[v] for v in range(1, n + 1)]
    elif mu_seen:
        raise GraphParseError(
            f"mu lines present but mu_mode={mu_mode!r}; use mu_mode='explicit'")
    try:
        return build_graph(n, edges, mu=mu, mu_mode=mu_mode)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from None
    except MemoryError:
        raise GraphParseError(
            f"line {header}: vertex count {n} is too large to allocate") from None


def serialize_graph(g: Graph) -> str:
    """Emit an edge-list document; parse_graph(..., 'explicit') round-trips."""
    lines = [f"n {g.n}"]
    lines += [f"mu {i + 1} {float(g.mu[i])!r}" for i in range(g.n)]
    lines += [
        f"{u + 1} {v + 1} {float(w)!r}"
        for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w)
    ]
    return "\n".join(lines) + "\n"


def graph_digest(g: Graph) -> str:
    """SHA-256 of the canonical serialization (plus mu_mode tag)."""
    payload = f"mode {g.mu_mode}\n" + serialize_graph(g)
    return hashlib.sha256(payload.encode()).hexdigest()


def path_graph(n: int, mu_mode: str = "unit") -> Graph:
    """Unit-weight path on vertices 1..n."""
    if n < 2:
        raise ValueError(f"path graph needs n >= 2, got {n}")
    return build_graph(n, [(i, i + 1, 1.0) for i in range(1, n)], mu_mode=mu_mode)


def components(g: Graph, member=None) -> list[list[int]]:
    """Connected components of g, or of the subgraph a mask induces.

    The mask holds one truth value per vertex, as a list or an array.

    Each component is a sorted list of 0-based vertices, and components come
    in order of their smallest vertex.
    """
    # todo[v]: v is in the subgraph and not yet reached
    todo = [True] * g.n if member is None else list(member)
    adj = g.adjacency
    comps = []
    for s in range(g.n):
        if todo[s]:
            todo[s] = False
            stack, comp = [s], [s]
            while stack:
                for v in adj[stack.pop()]:
                    if todo[v]:
                        todo[v] = False
                        comp.append(v)
                        stack.append(v)
            comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def is_canonical_path(g: Graph) -> bool:
    """True iff the edge set is exactly {i, i+1} for i = 1..n-1."""
    if g.m != g.n - 1:
        return False
    return bool(np.all(g.edges_u == np.arange(g.n - 1))
                and np.all(g.edges_v == np.arange(1, g.n)))


def is_unit_path(g: Graph) -> bool:
    """Canonical path with unit weights and unit measures."""
    return is_canonical_path(g) and g.unit_weights and g.unit_measure


def tau(g: Graph) -> float:
    """Largest degree-to-measure ratio max_u d(u)/mu(u)."""
    return float(np.max(g.degrees / g.mu))


def subset_indices(g: Graph, subset: Iterable[int]) -> np.ndarray:
    """Validated 0-based index array for a 1-based vertex subset."""
    idx = sorted(set(int(v) for v in subset))
    if not idx:
        raise ValueError("empty vertex subset")
    if idx[0] < 1 or idx[-1] > g.n:
        raise ValueError(f"subset vertex out of range 1..{g.n}")
    return np.array(idx, dtype=np.int64) - 1
