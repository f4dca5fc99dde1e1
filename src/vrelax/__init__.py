"""Relaxation and stimulated-transition operators for degenerate V-type atoms.

The package is organized bottom-up:

* :mod:`vrelax.halfint` / :mod:`vrelax.angular` -- exact angular-momentum
  algebra (Clebsch-Gordan, 6j/Racah W, rank-1 rotation functions);
* :mod:`vrelax.environment` -- photon environments and the K(sigma, sigma')
  polarization-overlap matrices;
* :mod:`vrelax.operators` -- rate-coefficient assembly (fine and hyperfine)
  and the relaxation / stimulated superoperators;
* :mod:`vrelax.dynamics` -- master-equation propagation and steady states;
* :mod:`vrelax.cli` -- the ``vrelax`` command-line front end.
"""

from .errors import (
    AngularDomainError,
    ConfigError,
    ConvergenceError,
    DegenerateSteadyStateError,
    DistributionDomainError,
    NumericalAbortError,
    QuadratureOrderError,
    RateSetContractError,
    SchemeError,
    VrelaxError,
)
from .halfint import HalfInt, half, projections, triangle_range
from .angular import (
    clebsch_gordan,
    momentum_cap,
    racah_w,
    set_momentum_cap,
    wigner_6j,
    wigner_D1,
    wigner_d1,
)
from .environment import (
    AngularDistribution,
    KMatrix,
    ModeDensityModifier,
    k_spontaneous,
    k_stimulated,
    quadrature_selfcheck,
)
from .operators import (
    Basis,
    BasisState,
    HyperfineScheme,
    InterferenceReport,
    InterferenceSweep,
    LevelScheme,
    RateSet,
    Superoperator,
    build_relaxation_superop,
    build_stimulated_superop,
    hyperfine_mixing,
    interference_report,
    interference_sweep,
    rates_fine,
    rates_hyperfine,
    rates_injected,
    rates_stimulated,
)
from .dynamics import (
    AtomicHamiltonian,
    Trajectory,
    build_hamiltonian,
    propagate,
    steady_state,
    validate_density_matrix,
)
from .config import (
    ScenarioConfig,
    load_config,
    parse_config,
    preset_config,
    preset_names,
    serialize_config,
)

__version__ = "0.1.0"

__all__ = [
    "AngularDomainError",
    "ConfigError",
    "ConvergenceError",
    "DegenerateSteadyStateError",
    "DistributionDomainError",
    "NumericalAbortError",
    "QuadratureOrderError",
    "RateSetContractError",
    "SchemeError",
    "VrelaxError",
    "HalfInt",
    "half",
    "projections",
    "triangle_range",
    "clebsch_gordan",
    "momentum_cap",
    "racah_w",
    "set_momentum_cap",
    "wigner_6j",
    "wigner_D1",
    "wigner_d1",
    "AngularDistribution",
    "KMatrix",
    "ModeDensityModifier",
    "k_spontaneous",
    "k_stimulated",
    "quadrature_selfcheck",
    "Basis",
    "BasisState",
    "HyperfineScheme",
    "InterferenceReport",
    "InterferenceSweep",
    "LevelScheme",
    "RateSet",
    "Superoperator",
    "build_relaxation_superop",
    "build_stimulated_superop",
    "hyperfine_mixing",
    "interference_report",
    "interference_sweep",
    "rates_fine",
    "rates_hyperfine",
    "rates_injected",
    "rates_stimulated",
    "AtomicHamiltonian",
    "Trajectory",
    "build_hamiltonian",
    "propagate",
    "steady_state",
    "validate_density_matrix",
    "ScenarioConfig",
    "load_config",
    "parse_config",
    "preset_config",
    "preset_names",
    "serialize_config",
    "__version__",
]
