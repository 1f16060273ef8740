"""Exception types shared across the package, and its one rule for
tolerances.

The CLI maps these onto exit codes: configuration problems exit 2,
numerical failures exit 3, violated mathematical invariants exit 4.
"""

import math


class CurveError(ValueError):
    """Invalid curve geometry (irregular, self-intersecting, degenerate)."""


class ConfigError(ValueError):
    """Invalid user input or configuration."""


class NumericsError(RuntimeError):
    """A numerical procedure failed or refused (solver breakdown,
    under-resolved grid, ill-conditioned linear system)."""


class InvariantError(RuntimeError):
    """A mathematical invariant that should hold was violated."""


def check_tolerance(name: str, value: float) -> None:
    """Refuse a tolerance that is not finite and positive: nan and inf
    would switch off the check it sets, and zero or less would refuse
    every result."""
    if not 0.0 < value < math.inf:
        raise ConfigError(f"tolerance {name} must be finite and positive, got {value!r}")
