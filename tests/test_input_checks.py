"""Library input checks: each refuses its bad input with its own message."""

import numpy as np
import pytest

from plap import (
    EigenPair,
    certify_cheeger,
    multiway_cheeger_all,
    nodal_space_max_rq,
    path_graph,
    rayleigh_quotient,
    rq_gradient,
    sweep_bound,
    variational_spectrum,
    verify_1lap_eigenpair,
)
from plap.cheeger import multiway_cheeger_greedy
from plap.eigensolver import Spectrum
from plap.nodal import NodalDecomposition
from plap.one_laplacian import to_fraction
from plap.plaplacian import pnorm

G = path_graph(4)
F = np.array([1.0, 0.5, -0.5, -1.0])


def _pair(lam):
    return EigenPair(p=2.0, lam=lam, f=F.copy(), residual=0.0)


CASES = {
    "family-kmax-zero": (lambda: multiway_cheeger_all(G, 0),
                         "k must satisfy 1 <= k <= 4, got 0"),
    "family-kmax-above-n": (lambda: multiway_cheeger_all(G, 5),
                            "k must satisfy 1 <= k <= 4, got 5"),
    "greedy-k-zero": (lambda: multiway_cheeger_greedy(G, 0),
                      "k must satisfy 1 <= k <= 4, got 0"),
    "greedy-k-above-n": (lambda: multiway_cheeger_greedy(G, 5),
                         "k must satisfy 1 <= k <= 4, got 5"),
    "sweep-bound-p1": (lambda: sweep_bound(G, F, 1.0),
                       "sweep bound requires p > 1, got 1.0"),
    "certify-cheeger-p1": (
        lambda: certify_cheeger(Spectrum(graph=G, p=1.0, pairs=(), method="x")),
        "the two-sided bound is certified for p > 1 only"),
    "pnorm-nonfinite": (lambda: pnorm(G, [1.0, np.nan, 0.0, 0.0], 2.0),
                        "vertex function must be finite"),
    "rayleigh-p-below-one": (lambda: rayleigh_quotient(G, F, 0.5),
                             "exponent must satisfy p >= 1, got 0.5"),
    "gradient-p1": (lambda: rq_gradient(G, F, 1.0),
                    "rq_gradient requires p > 1, got 1.0"),
    "gradient-zero": (lambda: rq_gradient(G, np.zeros(4), 2.0),
                      "gradient undefined for the zero function"),
    "fraction-object": (lambda: to_fraction(object()),
                        "cannot interpret <object object at 0x[0-9a-f]+> "
                        "as an exact rational"),
    "verify-1lap-length": (lambda: verify_1lap_eigenpair(G, [1, -1], 1),
                           "expected 4 vertex values, got 2"),
    "nodal-space-empty": (
        lambda: nodal_space_max_rq(
            G, _pair(0.0), NodalDecomposition("strong", (), (), frozenset()),
            np.ones((4, 10))),
        "empty nodal decomposition"),
    "spectrum-descending": (
        lambda: Spectrum(graph=G, p=2.0, pairs=(_pair(2.0), _pair(1.0)),
                         method="x"),
        "spectrum eigenvalues must be ascending"),
    "variational-p1": (lambda: variational_spectrum(G, 1.0),
                       "variational spectrum requires p > 1, got 1.0"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_input_check_raises_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
