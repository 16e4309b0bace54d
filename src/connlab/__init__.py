"""connlab: connection matrices and signless Hodge operators of graphs.

A graph is treated as a one-dimensional simplicial complex (vertices plus
edges).  The package builds its connection matrix L, Green inverse, Dirac
and Hodge operators, verifies the exact identity |H| = L - L^{-1} over the
integers and over prime fields, computes spectral-radius bounds, runs
reversible integer and finite-field dynamics, forms strong ring products,
and solves perturbed versions of the identity by Newton iteration.
"""

from .complexes import Complex, build_complex, star, sphere_chi
from .exact import (
    FieldMatrix,
    IntMatrix,
    SingularMatrixError,
    det,
    field_reduce,
)
from .dynamics import (
    Trajectory,
    growth_rates,
    jacobi_residual,
    orbit,
    perron_limits,
    quaternion_solution,
)
from .graphs import Graph, GraphError, from_spec, generate, load_graph, save_graph
from .newton import (
    NewtonConfig,
    NewtonResult,
    NonConvergenceError,
    SingularJacobianError,
    perturb_target,
    solve_hydrogen,
    solve_perturbed,
    verify_support,
)
from .operators import (
    OperatorBundle,
    bundle_for,
    hydrogen_residual,
    supersymmetry_report,
    trace_report,
)
from .products import product_checks, product_connection, product_hodge, two_time_walk
from .spectra import (
    BoundsReport,
    Spectrum,
    bounds_report,
    eig_sym,
)
from .tables import REFERENCE_TABLES

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "Complex",
    "FieldMatrix",
    "Graph",
    "GraphError",
    "IntMatrix",
    "NewtonConfig",
    "NewtonResult",
    "NonConvergenceError",
    "OperatorBundle",
    "REFERENCE_TABLES",
    "SingularJacobianError",
    "SingularMatrixError",
    "Spectrum",
    "Trajectory",
    "bounds_report",
    "build_complex",
    "bundle_for",
    "det",
    "eig_sym",
    "field_reduce",
    "from_spec",
    "generate",
    "growth_rates",
    "hydrogen_residual",
    "jacobi_residual",
    "load_graph",
    "orbit",
    "perron_limits",
    "perturb_target",
    "product_checks",
    "product_connection",
    "product_hodge",
    "quaternion_solution",
    "save_graph",
    "solve_hydrogen",
    "solve_perturbed",
    "sphere_chi",
    "star",
    "supersymmetry_report",
    "trace_report",
    "two_time_walk",
    "verify_support",
    "__version__",
]
