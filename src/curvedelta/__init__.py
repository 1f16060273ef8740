"""Spectral theory of a delta-interaction supported on a closed curve in R^3.

Numerical core: the regularized boundary operator of the curve is
discretized on an equispaced arc-length grid, its log-singular part carried
exactly by the circle operator's trigonometric diagonalization.  On top of
that sit bound-state root finding, negative-eigenvalue counting with
interval bounds, the isoperimetric comparison against the equal-length
circle, the perturbed Green function, and the unitary scattering block.

Every dense product, factorization and spectrum goes through scipy's linear
algebra and none through numpy's: the two libraries ship separate OpenBLAS
builds, each with its own thread pool, and a threaded call into one runs
slower while the other's idle pool still spins.
"""

from .assembly import boundary_matrix, circle_mode_eigenvalues
from .curves import (ArcGrid, Curve, circle_chord, circle_deviation,
                     curve_from_json_dict, curve_to_json_dict, make_circle,
                     make_ellipse, make_grid, reparametrize_arclength, scale_to_length)
from .errors import ConfigError, CurveError, InvariantError, NumericsError
from .kernels import green_kernel, scattering_kernel, smoothing_kernel
from .resolvent import (correction_singular_values, fit_decay_slope,
                        layer_singular_values, perturbed_green)
from .scattering import ScatteringBlock, scattering_block, scattering_layer_matrix
from .spectral import (BoundState, CountReport, asymptotic_count_bounds,
                       count_bound_states, eigen, find_bound_states,
                       isoperimetric_compare)

__all__ = [
    "ArcGrid", "BoundState", "ConfigError", "CountReport", "Curve",
    "CurveError", "InvariantError", "NumericsError",
    "ScatteringBlock", "asymptotic_count_bounds", "boundary_matrix",
    "circle_chord",
    "circle_deviation", "circle_mode_eigenvalues",
    "correction_singular_values", "count_bound_states",
    "curve_from_json_dict", "curve_to_json_dict", "eigen",
    "find_bound_states", "fit_decay_slope", "green_kernel",
    "isoperimetric_compare", "layer_singular_values", "make_circle",
    "make_ellipse", "make_grid", "perturbed_green",
    "reparametrize_arclength", "scale_to_length", "scattering_block",
    "scattering_kernel", "scattering_layer_matrix", "smoothing_kernel",
]

__version__ = "0.1.0"
