"""Off-curve probes: the perturbed Green function, and the singular-value
decay of the layer map and of the resolvent correction.

The layer map Gamma c = sum_j sqrt(w) G_lam(., p_j) c_j takes grid values
to L^2(R^3); the resolvent correction K = Gamma (alpha - B)^{-1} Gamma^T
is the operator whose kernel `perturbed_green` adds to the free one.  Both
spectra come exactly from one N x N matrix, without sampling R^3: since
(-Delta - lam)^{-2} = d/dlam (-Delta - lam)^{-1}, X = Gamma^T Gamma has the
bounded kernel `kernels.green_derivative_kernel` on the curve chords.  A
box lattice (`make_box`) only compresses these operators, which can lower
their singular values and never raise them; the probe does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import boundary_derivative
from .curves import ArcGrid, _kept, _pairwise_distances, _row_blocks
from .errors import ConfigError, NumericsError
from .kernels import green_kernel
from .spectral import _ldl, _ldl_solve, _operator

SPECTRUM_MARGIN = 1e-8  # required distance of alpha from the spectrum of B(lam)
FIT_WINDOW = (8, 48)    # first and last index k of the singular-value decay fit


@dataclass(frozen=True, eq=False)
class BoxGrid:
    """Uniform lattice of cell centers in a cube, minus a tube around the
    curve.  Boxes compare and hash by identity."""

    lo: float
    hi: float
    n: int
    points: np.ndarray        # (P, 3) retained cell centers
    cell_volume: float
    exclusion_radius: float
    n_excluded: int


def make_box(grid: ArcGrid, n: int = 24,
             bounds: tuple[float, float] | None = None,
             lam: float = -1.0,
             exclusion_radius: float | None = None) -> BoxGrid:
    """Sample the box on an n^3 lattice of cell centers.

    The default bounds enclose the curve with a margin 2/sqrt(-lam) on
    every side.  Points closer to the curve than the exclusion radius
    (default twice the lattice spacing) are dropped and counted.  Each
    point's distance to the curve is the minimum over one row block of the
    lattice-by-node distance table at a time.
    """
    if bounds is None:
        if lam >= 0:
            raise ConfigError("box probes need lam < 0")
        pts = grid.curve.point_at_arclength(np.linspace(0.0, grid.length, 512, endpoint=False))
        lo, hi = float(pts.min() - 2.0 / np.sqrt(-lam)), float(pts.max() + 2.0 / np.sqrt(-lam))
    else:
        lo, hi = float(bounds[0]), float(bounds[1])
    if hi <= lo or n < 2:
        raise ConfigError("invalid box bounds or resolution")
    spacing = (hi - lo) / n
    excl = 2.0 * spacing if exclusion_radius is None else float(exclusion_radius)
    if excl <= 0:
        raise ConfigError("exclusion radius must be positive")
    axis = lo + (np.arange(n) + 0.5) * spacing
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    dists = np.empty(len(pts))
    for rows in _row_blocks(len(pts), 8 * grid.n):       # float64 distance rows
        dists[rows] = _pairwise_distances(pts[rows], grid.points).min(axis=1)
    keep = dists > excl
    return BoxGrid(lo=lo, hi=hi, n=n, points=pts[keep],
                   cell_volume=spacing ** 3, exclusion_radius=excl,
                   n_excluded=int(np.sum(~keep)))


def _resolvent_system(grid: ArcGrid, lam: float, alpha: float) -> np.ndarray:
    """alpha I - B(lam), the system of the resolvent correction, from one
    assembly of B(lam).

    Refuses when `spectral._Operator.clear_of` does not clear alpha by
    SPECTRUM_MARGIN from the spectrum of B(lam), that is when lam is at or
    near a bound-state energy; on a circle grid it reads the FFT spectrum.
    """
    op = _operator(lam, grid)
    if not op.clear_of(alpha, SPECTRUM_MARGIN):
        raise NumericsError(f"alpha within SPECTRUM_MARGIN = {SPECTRUM_MARGIN:g} of the "
                            "boundary spectrum; lam is at or near a bound-state energy")
    system = -op.matrix
    system[np.diag_indices(grid.n)] += alpha
    return system


def perturbed_green(grid: ArcGrid, lam: float, alpha: float, x, y) -> float:
    """Green function of the interaction operator at energy lam < 0.

    Free kernel plus the discrete resolvent correction

        sum_ij w G(x, p_i) [(alpha - B)^{-1}]_ij G(p_j, y),

    carrying one net quadrature weight so the node sum realizes the double
    layer integral.  Raises when alpha sits within margin of the spectrum
    of the boundary operator (lam at or near a bound-state energy).
    """
    if lam >= 0:
        raise ConfigError("perturbed_green needs lam < 0")
    x = np.asarray(x, dtype=float).reshape(3)
    y = np.asarray(y, dtype=float).reshape(3)
    if not np.all(np.isfinite([x, y])) or np.array_equal(x, y):
        raise ConfigError("x and y must be two distinct finite points")
    # alpha - B is exactly symmetric: its transpose is itself, Fortran-ordered
    factors, pivots, _ = _ldl(_resolvent_system(grid, lam, alpha).T)
    gx, gy = green_kernel(lam, _pairwise_distances(np.stack([x, y]), grid.points))
    correction = grid.weight * float(gx @ _ldl_solve(factors, pivots, gy))
    return float(green_kernel(lam, np.linalg.norm(x - y))) + correction


def _gram_matrix(grid: ArcGrid, lam: float) -> np.ndarray:
    """X = Gamma^T Gamma, the search's B'(lam) (`boundary_derivative`),
    kept on the grid under lam and read-only: both singular-value probes of
    one energy read one build.  The eigensolves copy it (no overwrite_b)."""
    return _kept(grid, "layer_gram", lam, lambda: boundary_derivative(lam, grid))


def layer_singular_values(grid: ArcGrid, lam: float) -> np.ndarray:
    """Singular values of the layer map, nonincreasing: sqrt(eig X), with
    X = Gamma^T Gamma, `boundary_derivative`."""
    gram = _gram_matrix(grid, lam)
    vals = scipy.linalg.eigh(gram, eigvals_only=True, driver="evd")[::-1]
    if vals[-1] <= 0:
        raise NumericsError("Gram matrix of the layer map is not positive definite")
    return np.sqrt(vals)


def correction_singular_values(grid: ArcGrid, lam: float, alpha: float) -> np.ndarray:
    """Singular values of the resolvent correction K, nonincreasing.

    With X = L L^T, Gamma = U L^T for an isometry U, so the singular values
    of K are the absolute eigenvalues of L^T (alpha - B)^{-1} L, the
    reciprocals of those of L^{-1} (alpha - B) L^{-T}: one generalized
    symmetric-definite eigensolve of (alpha - B, X), which also factors X.
    """
    gram = _gram_matrix(grid, lam)
    system = _resolvent_system(grid, lam, alpha)
    try:
        theta = scipy.linalg.eigh(system, gram, eigvals_only=True, driver="gvd")
    except scipy.linalg.LinAlgError as exc:
        raise NumericsError("Gram matrix of the layer map is not positive definite") from exc
    return np.sort(1.0 / np.abs(theta))[::-1]


def fit_decay_slope(values: np.ndarray) -> float:
    """Least-squares slope of log s_k against log k over k in FIT_WINDOW.

    The two-parameter line is fitted in closed form,
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2, with no BLAS or
    LAPACK call.
    The window is not scale-free: with kappa L and alpha it sets the slope.
    """
    k_lo, k_hi = FIT_WINDOW
    values = np.asarray(values, dtype=float)
    if len(values) < k_hi:
        raise ConfigError("not enough singular values for the fit window")
    k = np.arange(k_lo, k_hi + 1)
    vals = values[k - 1]
    if np.any(vals <= 0):
        raise NumericsError("nonpositive singular values inside the fit window")
    x, y = np.log(k), np.log(vals)
    x -= np.mean(x)
    return float(np.sum(x * (y - np.mean(y))) / np.sum(x * x))
