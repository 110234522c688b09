"""Graph p-Laplacian eigenpairs, nodal domains, and multiway Cheeger certificates."""

from .cheeger import (
    CheegerCertificate,
    certify_cheeger,
    cut_ratio,
    multiway_cheeger_all,
    sweep_bound,
    sweep_cut,
)
from .eigensolver import (
    BracketError,
    ContinuationError,
    Spectrum,
    path_spectrum,
    solve_p2_spectrum,
    variational_spectrum,
)
from .graph import (
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
from .nodal import (
    NodalDecomposition,
    NodalReport,
    certify_nodal_bounds,
    nodal_space_max_rq,
    strong_nodal_domains,
    weak_nodal_domains,
)
from .one_laplacian import (
    OneLapCertificate,
    enumerate_1lap_eigenvalues,
    merged_eigenvalues,
    verify_1lap_eigenpair,
)
from .plaplacian import (
    EigenPair,
    apply_p_laplacian,
    ax_by_gap,
    eigen_residual,
    phi,
    rayleigh_quotient,
    rq_gradient,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CheegerCertificate",
    "ContinuationError",
    "EigenPair",
    "Graph",
    "GraphParseError",
    "NodalDecomposition",
    "NodalReport",
    "OneLapCertificate",
    "Spectrum",
    "apply_p_laplacian",
    "ax_by_gap",
    "build_graph",
    "certify_cheeger",
    "certify_nodal_bounds",
    "cut_ratio",
    "eigen_residual",
    "enumerate_1lap_eigenvalues",
    "graph_digest",
    "is_connected",
    "merged_eigenvalues",
    "multiway_cheeger_all",
    "nodal_space_max_rq",
    "parse_graph",
    "path_graph",
    "path_spectrum",
    "phi",
    "rayleigh_quotient",
    "rq_gradient",
    "serialize_graph",
    "solve_p2_spectrum",
    "strong_nodal_domains",
    "sweep_bound",
    "sweep_cut",
    "tau",
    "variational_spectrum",
    "verify_1lap_eigenpair",
    "weak_nodal_domains",
]
