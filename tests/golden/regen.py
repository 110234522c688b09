"""Golden `plap certify --json` and `plap cheeger --json` reports of inputs
whose answers are known.

Each certify input is a graph file in this directory plus the certify
options it runs with; its report is the .json file of the same name.  Each
cheeger input names a graph file and the cheeger options; its report is
the .json file of the cheeger input's name.  A report records the graph
path, so every report is made from this directory with the bare file name,
as `tests/test_golden.py` and the CI console-script step do.

    PYTHONPATH=src python3 -m tests.golden.regen

run from the repository root rewrites the graph files and the reports and
prints, per input, every eigenvalue, nodal count, h_k, pass flag and exit
code that moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np

from plap import cli

from ..util import MU_MODES, random_connected_graph

HERE = Path(__file__).resolve().parent

# report fields whose changes regen names one by one
WATCHED = {"lambda", "strong", "weak", "strong_domains", "weak_domains", "h_k",
           "pass", "all_pass", "h", "families"}


def _unit_path(n: int) -> str:
    return f"n {n}\n" + "".join(f"{i} {i + 1} 1.0\n" for i in range(1, n))


def _complete_graph(n: int) -> str:
    return f"n {n}\n" + "".join(f"{u} {v} 1.0\n" for u in range(1, n + 1)
                                  for v in range(u + 1, n + 1))


def _random_graph(seed: int, mu_mode: str, n: int = 5) -> str:
    """`random_connected_graph(default_rng(seed), n, mu_mode)` without mu
    lines; certify rebuilds its measure from --mu."""
    g = random_connected_graph(np.random.default_rng(seed), n, mu_mode)
    return f"n {g.n}\n" + "".join(f"{u + 1} {v + 1} {float(w)!r}\n" for u, v, w
                                  in zip(g.edges_u, g.edges_v, g.edges_w))


def _corpus_text(g) -> str:
    """perfbench's graph file format: mu lines only for the explicit measure."""
    lines = [f"n {g.n}"]
    if g.mu_mode == "explicit":
        lines += [f"mu {u + 1} {float(x)!r}" for u, x in enumerate(g.mu)]
    lines += [f"{u + 1} {v + 1} {float(w)!r}" for u, v, w
              in zip(g.edges_u, g.edges_v, g.edges_w)]
    return "\n".join(lines) + "\n"


def _exact_p1_graphs(seed: int = 0) -> list[tuple[str, str]]:
    """(graph text, measure mode) of the n = 5 graphs with m = 4, 5, 6, 7
    edges that perfbench's `exact_p1` corpus draws at this seed: the same
    draws in the same order, in its file format."""
    rng = np.random.default_rng(seed)
    out = []
    for i, m in enumerate((4, 5, 6, 7)):
        mode = MU_MODES[i % 3]
        g = random_connected_graph(rng, 5, mode)
        while g.m != m:
            g = random_connected_graph(rng, 5, mode)
        out.append((_corpus_text(g), mode))
    return out


def _cheeger_cap_graphs(seed: int = 0, count: int = 3) -> list[tuple[str, str]]:
    """(graph text, measure mode) of the first count n = 12 graphs that
    perfbench's `cheeger_cap` corpus draws at this seed, one per measure
    mode, in its file format."""
    rng = np.random.default_rng(seed)
    modes = [MU_MODES[i % 3] for i in range(count)]
    return [(_corpus_text(random_connected_graph(rng, 12, mode)), mode)
            for mode in modes]


# name: (graph file text, certify options).  Odd paths have a zero middle
# vertex, so their weak spaces differ from the strong ones; the path n = 13
# has spaces of 12 domains (the most with sign patterns) and of 13 (none).
# path9_seed5 samples other streams than path9; random0_unit12 is an n = 12
# graph at p = 2, whose spectrum is the dense symmetric eigensolver's.
# exact0_m4..m7 are the seed-0 `exact_p1` benchmark inputs, which pin the
# exact p = 1 section on graphs of every measure mode.  cap0_g000..g002 are
# the first seed-0 `cheeger_cap` benchmark inputs (n = 12, unit, degree and
# explicit measure), which pin the exact h_k of every k at p = 2.  The unit
# paths n = 4..12 at the default exponents are the path calls of the seed-0
# `certify_mixed` benchmark corpus.
INPUTS = {
    **{f"path{n}": (_unit_path(n), ()) for n in (4, 5, 6, 7, 8)},
    "path9": (_unit_path(9), ()),
    "path9_seed5": (_unit_path(9), ("--seed", "5")),
    **{f"path{n}": (_unit_path(n), ()) for n in (10, 11, 12)},
    "path13": (_unit_path(13), ("--p", "2")),
    "random0_unit": (_random_graph(0, "unit"), ("--p", "2", "--one-laplacian")),
    "random0_unit12": (_random_graph(0, "unit", 12), ("--p", "2")),
    "random1_degree": (_random_graph(1, "degree"),
                       ("--mu", "degree", "--p", "2", "--one-laplacian")),
    **{f"exact0_m{m}": (text, ("--mu", mode, "--one-laplacian", "--p", "2"))
       for m, (text, mode) in zip((4, 5, 6, 7), _exact_p1_graphs())},
    **{f"cap0_g{i:03d}": (text, ("--mu", mode, "--p", "2"))
       for i, (text, mode) in enumerate(_cheeger_cap_graphs())},
}


# graph files that only cheeger inputs read
GRAPHS = {"k8": _complete_graph(8)}

# name: (graph file name, cheeger options).  cap0_g000 is an n = 12 graph
# with every k; on the unit-weight K8 every family of each size ties, so the
# report pins the lexicographic tie-break.
CHEEGER_INPUTS = {
    "cheeger_cap0_g000": ("cap0_g000", ("--k", "12")),
    "cheeger_k8": ("k8", ("--k", "8")),
}


def _run_here(argv: list[str]) -> int:
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    finally:
        os.chdir(cwd)


def certify(name: str, json_path) -> int:
    """Exit code of `plap certify` on input name, run from this directory."""
    _, options = INPUTS[name]
    return _run_here(["certify", f"{name}.txt", *options, "--json", str(json_path)])


def cheeger(name: str, json_path) -> int:
    """Exit code of `plap cheeger` on cheeger input name, run from this
    directory."""
    graph, options = CHEEGER_INPUTS[name]
    return _run_here(["cheeger", f"{graph}.txt", *options, "--json", str(json_path)])


def _leaves(x, path=""):
    if isinstance(x, dict):
        for key, value in x.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(x, list):
        for i, value in enumerate(x):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, x


def moved(old: dict, new: dict) -> list[str]:
    """One line per watched field that differs, and a count of the others."""
    a, b = dict(_leaves(old)), dict(_leaves(new))
    lines, others = [], 0
    for path in sorted(a.keys() | b.keys()):
        if a.get(path) != b.get(path):
            if path.rsplit(".", 1)[-1].split("[")[0] in WATCHED:
                lines.append(f"{path}: {a.get(path)} -> {b.get(path)}")
            else:
                others += 1
    if others:
        lines.append(f"{others} other values")
    return lines


def _regen(name: str, run) -> None:
    report = HERE / f"{name}.json"
    old = json.loads(report.read_text(encoding="utf-8")) if report.exists() else None
    code = run(name, report)
    new = json.loads(report.read_text(encoding="utf-8"))
    if old is None:
        print(f"{name}: new, exit {code}")
        return
    lines = moved(old, new)
    old_code = 0 if old.get("all_pass", True) else 1
    if code != old_code:
        lines.insert(0, f"exit code: {old_code} -> {code}")
    print(f"{name}: " + ("unchanged" if not lines else "moved"))
    for line in lines:
        print(f"  {line}")


def main() -> None:
    for name, (text, _) in INPUTS.items():
        (HERE / f"{name}.txt").write_text(text, encoding="utf-8")
        _regen(name, certify)
    for name, text in GRAPHS.items():
        (HERE / f"{name}.txt").write_text(text, encoding="utf-8")
    for name in CHEEGER_INPUTS:
        _regen(name, cheeger)


if __name__ == "__main__":
    main()
