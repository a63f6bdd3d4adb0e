"""Vector colorings, theta-bar, graph products, and quantum certificates."""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ConvergenceError,
    DimensionError,
    DomainError,
    FeasibilityError,
    LimitExceededError,
    ParseError,
    ValidationError,
    VecchromError,
)
from .graphs import (
    Graph,
    ProductKind,
    complement,
    erdos_renyi,
    generate,
    graph_from_edges,
    is_bipartite,
    is_homomorphism,
    load_graph,
    parse_edge_list,
    product,
    save_graph,
    union,
    write_edge_list,
)
from .linalg import eig_sym
from .certificates import dual_form_bound, eigenvalue_bound, witness_bound
from .sdp import (
    SdpProblem,
    SdpSolution,
    SolverConfig,
    build_chi_vec,
    build_theta_bar,
    solve,
)
from .params import (
    OneHomReport,
    ParamResult,
    chi_vec,
    chromatic_coloring,
    chromatic_number,
    one_homogeneous_check,
    spectral_lower_bound,
    spectral_vector_chromatic,
    theta_bar,
)
from .colorings import (
    ClassicalColoring,
    VectorColoring,
    extract_coloring,
    load_coloring,
    modular_coloring,
    save_coloring,
    verify_coloring,
)
from .quantum import (
    QuantumHomomorphism,
    classical_embedding,
    compose_classical,
    load_certificate,
    pad_colors,
    product_qhom,
    quantum_sabidussi,
    save_certificate,
    verify_quantum_hom,
)
from .identities import IdentityCheck, run_suite
