"""Per-layer tracing from outside the program.

The tracer replaces public functions of each `plap` layer under the name
their caller looks up, records a span (name, start, end, parent) around
each, and counts calls.  A layer's self time is its span's duration minus
the time its child spans cover, so the self times of one call add up to
the call's root span.  Hot kernels are counted without a span, because a
span on each of their millions of calls would cost more than they do; their
time stays in the layer that calls them.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from plap import cheeger, cli, eigensolver, kernels, nodal, one_laplacian, plaplacian

ROOT = "cli.self_s"

# (module, attribute the caller looks up, span name)
SPANNED = (
    (cli, "parse_graph", "graph.parse_s"),
    (cli, "variational_spectrum", "eigensolver.continuation_s"),
    (cli, "solve_p2_spectrum", "eigensolver.p2_s"),
    (cli, "path_spectrum", "eigensolver.path_s"),
    (eigensolver, "solve_from_guess", "eigensolver.repair_s"),
    (plaplacian, "ax_by_gap", "plaplacian.ax_by_gap_s"),
    (nodal, "nodal_space_max_rq", "nodal.space_s"),
    (nodal, "certify_nodal_bounds", "nodal.certify_s"),
    (cheeger, "multiway_cheeger_all", "cheeger.hk_s"),
    (cheeger, "certify_cheeger", "cheeger.certify_s"),
    (kernels, "subset_tables", "kernels.subset_tables_s"),
    (kernels, "family_minmax_dp", "kernels.family_dp_s"),
    (one_laplacian, "enumerate_1lap_eigenvalues", "one_laplacian.enumerate_s"),
    (one_laplacian, "verify_1lap_eigenpair", "one_laplacian.verify_s"),
    (one_laplacian, "lp_solve", "one_laplacian.lp_s"),
)

# (module, attribute, counter name): call counts without a span
COUNTED = (
    (kernels, "plap_apply", "kernels.plap_apply_calls"),
    (kernels, "path_shoot_core", "kernels.path_shoot_calls"),
    (nodal, "strong_nodal_domains", "nodal.domain_calls"),
    (nodal, "weak_nodal_domains", "nodal.domain_calls"),
)

SELF_TIMES = (ROOT,) + tuple(name for _, _, name in SPANNED)

# counters taken from the number of spans of one name
SPAN_COUNTS = {
    "eigensolver.repair_calls": "eigensolver.repair_s",
    "cheeger.hk_calls": "cheeger.hk_s",
    "one_laplacian.lp_calls": "one_laplacian.lp_s",
}


def _continuation_counts(counts, spectrum):
    for diag in spectrum.diagnostics:
        counts["eigensolver.newton_iterations"] += diag.get("newton_iterations", 0)
        counts["eigensolver.halvings"] += diag.get("halvings", 0)
        counts["eigensolver.fold_restarts"] += diag.get("fold_restarts", 0)
        counts["eigensolver.seeded_pairs"] += "seeded_from" in diag
    counts["eigensolver.dead_branches"] += sum("terminated" in note
                                               for note in spectrum.notes)


def _repair_counts(counts, pair):
    counts["eigensolver.repair_useful"] += pair is not None


RESULT_COUNTS = {
    "eigensolver.continuation_s": _continuation_counts,
    "eigensolver.repair_s": _repair_counts,
}


class Tracer:
    """Spans and counters of the calls made while installed.

    Spans and counts of a call are kept apart until `end_call` folds them
    into the totals, so a call cut off by the latency limit leaves no trace.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.calls = 0
        self._spans = []      # [name, start, end, parent index]
        self._stack = []
        self._call_counts = Counter()
        self._saved = []

    def _wrap_span(self, name, fn):
        spans, stack = self._spans, self._stack
        on_result = RESULT_COUNTS.get(name)
        call_counts = self._call_counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(call_counts, result)
            return result
        return wrapper

    def _wrap_count(self, name, fn):
        call_counts = self._call_counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call_counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for module, attr, name in SPANNED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap_span(name, fn))
        for module, attr, name in COUNTED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap_count(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def root(self, fn):
        """`fn` wrapped in the root span of one call."""
        return self._wrap_span(ROOT, fn)

    def begin_call(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self._call_counts.clear()

    def end_call(self) -> None:
        """Fold the finished call's spans and counts into the totals."""
        spans = self._spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_s):
            self.self_s[name] += end - start - inner
            self.counts[name] += 1
        self.counts.update(self._call_counts)
        self.calls += 1

    def metrics(self) -> dict[str, float]:
        """Self time per layer and the counters, over every finished call."""
        out = {name: self.self_s.get(name, 0.0) for name in SELF_TIMES}
        for metric, span in SPAN_COUNTS.items():
            out[metric] = self.counts[span]
        calls = out["eigensolver.repair_calls"]
        out["eigensolver.repair_useful_ratio"] = (
            self.counts["eigensolver.repair_useful"] / calls if calls else 0.0)
        out["cheeger.hk_calls"] = (out["cheeger.hk_calls"] / self.calls
                                   if self.calls else 0.0)
        for name in ("eigensolver.newton_iterations", "eigensolver.halvings",
                     "eigensolver.fold_restarts", "eigensolver.dead_branches",
                     "eigensolver.seeded_pairs", "kernels.plap_apply_calls",
                     "kernels.path_shoot_calls", "nodal.domain_calls"):
            out[name] = self.counts[name]
        return out
