"""Spectral theory of a delta-interaction supported on a closed curve in R^3.

Numerical core: the regularized boundary operator of the curve is
discretized on an equispaced arc-length grid, its log-singular part carried
exactly by the circle operator's trigonometric diagonalization.  On top of
that sit bound-state root finding, negative-eigenvalue counting with
interval bounds, the isoperimetric comparison against the equal-length
circle, the perturbed Green function, and the unitary scattering block.
"""

from .assembly import (boundary_matrix, circle_mode_eigenvalues,
                       circle_operator_matrix, comparison_matrix, smoothing_matrix)
from .curves import (ArcGrid, Curve, chord_mean_inequality, circle_chord,
                     circle_deviation, curve_from_json_dict, curve_to_json_dict,
                     make_circle, make_ellipse, make_grid, reparametrize_arclength,
                     scale_to_length)
from .errors import ConfigError, CurveError, InvariantError, NumericsError
from .kernels import green_kernel, scattering_kernel, smoothing_kernel
from .resolvent import (BoxGrid, correction_singular_values, fit_decay_slope,
                        layer_singular_values, make_box, perturbed_green)
from .scattering import (ScatteringBlock, choose_reference_energy,
                         scattering_block, scattering_layer_matrix)
from .spectral import (BoundState, CountReport, EigenSystem,
                       asymptotic_count_bounds, count_bound_states, eigen,
                       find_bound_states, isoperimetric_compare)

__all__ = [
    "ArcGrid", "BoundState", "BoxGrid", "ConfigError", "CountReport", "Curve",
    "CurveError", "EigenSystem", "InvariantError", "NumericsError",
    "ScatteringBlock", "asymptotic_count_bounds", "boundary_matrix",
    "choose_reference_energy", "chord_mean_inequality", "circle_chord",
    "circle_deviation", "circle_mode_eigenvalues", "circle_operator_matrix",
    "comparison_matrix", "correction_singular_values", "count_bound_states",
    "curve_from_json_dict", "curve_to_json_dict", "eigen",
    "find_bound_states", "fit_decay_slope", "green_kernel",
    "isoperimetric_compare", "layer_singular_values", "make_box", "make_circle",
    "make_ellipse", "make_grid", "perturbed_green",
    "reparametrize_arclength", "scale_to_length", "scattering_block",
    "scattering_kernel", "scattering_layer_matrix", "smoothing_kernel",
    "smoothing_matrix",
]

__version__ = "0.1.0"
