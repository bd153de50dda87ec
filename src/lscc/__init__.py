"""Locally stable measurement schemes for phase retrieval.

Builds measurement schemes whose local regions each allow stable phase
retrieval, induces the signal-dependent weighted connectivity graph, computes
Cheeger and spectral connectivity, and evaluates explicit stability bounds
with empirical verification harnesses.
"""

from .errors import (
    BudgetExceededError,
    ClassError,
    DegenerateFamilyError,
    DegenerateFrameError,
    DimensionError,
    EmptyGraphError,
    FieldError,
    InvalidWeightError,
    LsccError,
    SchemeError,
    TopologyError,
    UnsupportedPError,
)
from .graphs import (
    CheegerResult,
    SpectralResult,
    WeightedGraph,
    algebraic_connectivity,
    check_cheeger_inequality,
    cheeger,
    cheeger_exact,
    cheeger_interval,
    cheeger_sweep,
    is_connected,
    laplacian,
    normalized_degree,
    normalized_laplacian,
)
from .measurement import (
    COMPLEX,
    REAL,
    Frame,
    align_phase,
    p_norm,
)
from .scheme import (
    INCONCLUSIVE,
    RETRIEVABLE,
    LsccScheme,
    ValidationReport,
    induce_graph,
    is_phase_retrievable,
    scheme_from_json,
    scheme_to_json,
    validate_edge_domination,
    validate_exhaustion,
    validate_local_phase_retrieval,
    validate_scheme,
)
from .harness import (
    ExperimentSpec,
    derive_rng,
    fuzz_bounds,
    inequality_suite,
)
from .shiftinv import (
    DecayProfile,
    GeneratorModel,
    build_shiftinv_scheme,
    sigma_based_constants,
    decay_cheeger_study,
)
from .stability import (
    StabilityReport,
    bound,
    complex_constant,
    empirical_worst_ratio,
    prefactor,
    real_constant,
    signal_bound,
    stability_report,
)
from .toy import toy_scheme
from .windowed import (
    AdversarialPair,
    WindowedConfig,
    adversarial_pair,
    build_windowed_scheme,
    lower_bound_constants,
    scaling_sweep,
    window_membership,
)

__version__ = "0.1.0"
