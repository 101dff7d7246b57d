"""Completely discrete backward schemes for vector-valued terminal-value
stochastic systems with high-order spatial operators, plus the verification
harness around them: convergence-rate studies and Malliavin-derivative
representation diagnostics on analytically solvable instances."""

from .analysis import (
    ConvergenceFit,
    ErrorReport,
    IdentityReport,
    MalliavinLattice,
    MalliavinSystem,
    build_malliavin_lattices,
    build_malliavin_system,
    check_representation_identity,
    compare_algorithms,
    convergence_study,
    discrete_error,
    increment_regularity,
    reference_step_residual,
    solve_malliavin_system,
)
from .errors import (
    BspdeError,
    CapacityError,
    ConfigError,
    DivergenceError,
    FixedPointDivergenceError,
    InvalidDomainError,
    InvalidPartitionError,
    OperatorEvaluationError,
    OrderTooHighError,
    ReferenceRequiredError,
)
from .grid import (
    NormWeights,
    Partition,
    build_partition,
    cinf_truncated_norm,
    ck_norm,
    difference_stack_arrays,
    enumerate_multi_indices,
    multi_index_key,
    refine_partition,
)
from .model import (
    ProblemSpec,
    builtin_problem,
    evaluate_diffusion_driver,
    evaluate_driver,
    operator_jacobians,
)
from .solver import (
    SolutionLattice,
    SolverConfig,
    export_lattice_csv,
    solve,
    terminal_stage,
)
from .stochastics import (
    BrownianPaths,
    EstimatorSpec,
    simulate_increments,
)

__version__ = "0.1.0"
