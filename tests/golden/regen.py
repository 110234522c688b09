"""Golden `plap certify --json` reports of inputs whose answers are known.

Each input is a graph file in this directory plus the certify options it
runs with; its report is the .json file of the same name.  A report records
the graph path, so every report is made from this directory with the bare
file name, as `tests/test_golden.py` and the CI console-script step do.

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

from ..util import random_connected_graph

HERE = Path(__file__).resolve().parent

# report fields whose changes regen names one by one
WATCHED = {"lambda", "strong", "weak", "strong_domains", "weak_domains", "h_k",
           "pass", "all_pass"}


def _unit_path(n: int) -> str:
    return f"n {n}\n" + "".join(f"{i} {i + 1} 1.0\n" for i in range(1, n))


def _random_graph(seed: int, mu_mode: str) -> str:
    """`random_connected_graph(default_rng(seed), 5, mu_mode)` without mu
    lines; certify rebuilds its measure from --mu."""
    g = random_connected_graph(np.random.default_rng(seed), 5, mu_mode)
    return f"n {g.n}\n" + "".join(f"{u + 1} {v + 1} {float(w)!r}\n" for u, v, w
                                  in zip(g.edges_u, g.edges_v, g.edges_w))


# name: (graph file text, certify options).  Odd paths have a zero middle
# vertex, so their weak spaces differ from the strong ones; the path n = 13
# has spaces of 12 domains (the most with sign patterns) and of 13 (none).
INPUTS = {
    "path5": (_unit_path(5), ()),
    "path8": (_unit_path(8), ()),
    "path9": (_unit_path(9), ()),
    "path13": (_unit_path(13), ("--p", "2")),
    "random0_unit": (_random_graph(0, "unit"), ("--p", "2", "--one-laplacian")),
    "random1_degree": (_random_graph(1, "degree"),
                       ("--mu", "degree", "--p", "2", "--one-laplacian")),
}


def certify(name: str, json_path) -> int:
    """Exit code of `plap certify` on input name, run from this directory."""
    _, options = INPUTS[name]
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["certify", f"{name}.txt", *options, "--json", str(json_path)])
    finally:
        os.chdir(cwd)


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
            if path.rsplit(".", 1)[-1] in WATCHED:
                lines.append(f"{path}: {a.get(path)} -> {b.get(path)}")
            else:
                others += 1
    if others:
        lines.append(f"{others} other values")
    return lines


def main() -> None:
    for name, (text, _) in INPUTS.items():
        (HERE / f"{name}.txt").write_text(text, encoding="utf-8")
        report = HERE / f"{name}.json"
        old = json.loads(report.read_text(encoding="utf-8")) if report.exists() else None
        code = certify(name, report)
        new = json.loads(report.read_text(encoding="utf-8"))
        if old is None:
            print(f"{name}: new, exit {code}")
            continue
        lines = moved(old, new)
        old_code = 0 if old["all_pass"] else 1
        if code != old_code:
            lines.insert(0, f"exit code: {old_code} -> {code}")
        print(f"{name}: " + ("unchanged" if not lines else "moved"))
        for line in lines:
            print(f"  {line}")


if __name__ == "__main__":
    main()
