"""Certified dynamics for a delayed reaction-diffusion equation on the line.

The package integrates the equation

    du/dt = Laplacian(u) - mu*u + sigma*u(x, t - tau) + f(u(x, t - tau)) + g(x)

with the method of steps on a large periodic box, computes the explicit
a-priori constants (absorbing radius, energy bounds), locates the roots of
the characteristic equation to split the linear flow, measures the
squeezing of trajectory differences against the analytic bounds, and turns
the pieces into computable Hausdorff/fractal dimension certificates for the
attractor.
"""

from .model import (
    ConfigError,
    ForcingSpec,
    Grid,
    NonlinearitySpec,
    ProblemParameters,
    RunOptions,
    evaluate_forcing,
    evaluate_nonlinearity,
    parse_config,
    serialize_config,
)
from .semigroup import (
    SemigroupStepper,
    apply_semigroup,
    field_norm,
    gradient_norm,
    semigroup_decay_check,
)
from .solver import (
    DivergenceError,
    constant_history,
    far_field_mass,
    history_from_function,
    integrate,
    segment_at,
    segment_norm,
)
from .estimates import (
    EstimateSet,
    absorbing_time,
    compute_estimates,
    verify_absorption,
    verify_energy_integral,
    verify_far_field,
)
from .spectrum import (
    ModeRoots,
    SpectralData,
    characteristic_roots,
    dichotomy_constant,
    dirichlet_eigenvalues,
    linear_delay_evolve,
    spectral_partition,
)
from .squeezing import (
    ProjectionSet,
    analytic_bounds,
    make_projections,
    measure_contraction,
    project_P,
    project_Q,
    project_R,
)
from .dimension import (
    DimensionCertificate,
    covering_bound,
    covering_bruteforce,
    eta,
    fractal_bound,
    hausdorff_bound,
    optimize_certificate,
    zeta,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DimensionCertificate",
    "DivergenceError",
    "EstimateSet",
    "ForcingSpec",
    "Grid",
    "ModeRoots",
    "NonlinearitySpec",
    "ProblemParameters",
    "ProjectionSet",
    "RunOptions",
    "SemigroupStepper",
    "SpectralData",
    "absorbing_time",
    "analytic_bounds",
    "apply_semigroup",
    "characteristic_roots",
    "compute_estimates",
    "constant_history",
    "covering_bound",
    "covering_bruteforce",
    "dichotomy_constant",
    "dirichlet_eigenvalues",
    "eta",
    "evaluate_forcing",
    "evaluate_nonlinearity",
    "far_field_mass",
    "field_norm",
    "fractal_bound",
    "gradient_norm",
    "hausdorff_bound",
    "history_from_function",
    "integrate",
    "linear_delay_evolve",
    "make_projections",
    "measure_contraction",
    "optimize_certificate",
    "parse_config",
    "project_P",
    "project_Q",
    "project_R",
    "segment_at",
    "segment_norm",
    "semigroup_decay_check",
    "serialize_config",
    "spectral_partition",
    "verify_absorption",
    "verify_energy_integral",
    "verify_far_field",
    "zeta",
]
