"""Exception taxonomy.

Four families, matching how callers should react:

* domain errors (bad quantum numbers, bad angles, bad table points) are
  ``ValueError`` subclasses and mean the inputs are malformed;
* contract violations (a rate set a builder cannot take) mean a caller
  combined objects the assembly functions never pair;
* numerical aborts are raised mid-propagation when the state stops being a
  density matrix;
* config errors cover everything wrong with an INI file or preset name and
  map to CLI exit code 2.
"""

from __future__ import annotations


class VrelaxError(Exception):
    """Base class for every error this package raises deliberately."""


class AngularDomainError(VrelaxError, ValueError):
    """Malformed quantum numbers or polarization indices."""


class DistributionDomainError(VrelaxError, ValueError):
    """Bad angular-distribution input: negative occupation, bad grid, bad CSV."""


class QuadratureOrderError(VrelaxError, ValueError):
    """Quadrature order below the supported minimum."""


class SchemeError(VrelaxError, ValueError):
    """Level scheme that is not a radiatively coupled V-type system."""


class RateSetContractError(VrelaxError):
    """A rate set does not fit the operation it was handed to: a spontaneous
    or hyperfine set given to the stimulated builder, a hyperfine scheme given
    to a fine-only rate builder, or a table name a rate set does not have."""


class NumericalAbortError(VrelaxError):
    """Propagation left the physical state space beyond tolerance.

    Carries the time and the offending monitor value.
    """

    def __init__(self, message: str, *, time: float, value: float) -> None:
        super().__init__(message)
        self.time = time
        self.value = value


class ConvergenceError(VrelaxError):
    """The steady-state solve found no null vector of the generator, or only
    a traceless one, or one that fails the fixed-point residual check."""


class DegenerateSteadyStateError(VrelaxError):
    """The generator has more than one steady state.

    ``dimension`` is the numerically determined null-space dimension.
    ``dark_ground``, when known, is the part of it that lies wholly in the
    ground-ground (d-d) sector: the stationary states of the dark ground
    manifold, which nothing pumps out of.
    """

    def __init__(self, dimension: int, *, dark_ground: int | None = None) -> None:
        dark = (
            f", of which {dark_ground} lie wholly in the dark ground manifold (d-d)"
            if dark_ground is not None
            else ""
        )
        super().__init__(
            f"steady state is not unique: generator null space has dimension "
            f"{dimension}{dark}; pick an initial state and propagate instead"
        )
        self.dimension = dimension
        self.dark_ground = dark_ground


class ConfigError(VrelaxError):
    """Anything wrong with a configuration file, preset, or CLI option set."""
