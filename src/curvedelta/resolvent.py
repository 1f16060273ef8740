"""Off-curve probes: layer potentials, the perturbed Green function, and the
singular-value decay of the resolvent correction compressed to a box.

The ambient operator lives on L^2(R^3); the probe truncates to a box
enclosing the curve with a margin of several decay lengths (the kernel
falls off like e^{-sqrt(-lam) r}) and excludes a thin tube around the
curve so all sampled kernels stay bounded.  The box/tube compression is a
Galerkin restriction of the true operator, so measured decay certifies
upper-envelope behavior only; the summaries record this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import boundary_matrix
from .curves import ArcGrid, Curve, _pairwise_distances
from .errors import ConfigError, NumericsError
from .kernels import green_kernel
from .spectral import eigen

ENTRY_CAP = 20_000_000  # box points x curve nodes memory guard


@dataclass(frozen=True)
class BoxGrid:
    """Uniform lattice of cell centers in a cube, minus a tube around the curve."""

    lo: float
    hi: float
    n: int
    points: np.ndarray        # (P, 3) retained cell centers
    cell_volume: float
    exclusion_radius: float
    n_excluded: int

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / self.n


def default_box_bounds(curve: Curve, lam: float) -> tuple[float, float]:
    """Cube enclosing the curve with margin 2/sqrt(-lam) on every side."""
    if lam >= 0:
        raise ConfigError("box probes need lam < 0")
    s = np.linspace(0.0, curve.total_length, 512, endpoint=False)
    pts = curve.point_at_arclength(s)
    margin = 2.0 / np.sqrt(-lam)
    return float(pts.min() - margin), float(pts.max() + margin)


def make_box(curve: Curve, grid: ArcGrid, n: int = 24,
             bounds: tuple[float, float] | None = None,
             lam: float = -1.0,
             exclusion_radius: float | None = None) -> BoxGrid:
    """Sample the box on an n^3 lattice of cell centers.

    Points closer to the curve than the exclusion radius (default twice the
    lattice spacing) are dropped and counted.
    """
    if bounds is None:
        lo, hi = default_box_bounds(curve, lam)
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
    dists = _distance_to_curve(pts, grid)
    keep = dists > excl
    return BoxGrid(lo=lo, hi=hi, n=n, points=pts[keep],
                   cell_volume=spacing ** 3, exclusion_radius=excl,
                   n_excluded=int(np.sum(~keep)))


def _distance_to_curve(pts: np.ndarray, grid: ArcGrid) -> np.ndarray:
    out = np.empty(len(pts))
    block = max(1, ENTRY_CAP // max(1, grid.n))
    for start in range(0, len(pts), block):
        d = _pairwise_distances(pts[start:start + block], grid.points)
        out[start:start + block] = d.min(axis=1)
    return out


def single_layer_potential(curve: Curve, grid: ArcGrid, lam: float,
                           coefficients, x) -> float:
    """Potential of the density `coefficients` at an off-curve point x.

    Trapezoid quadrature of the resolvent kernel against the node values;
    the point must keep a distance of at least twice the grid spacing from
    the curve so the kernel stays resolved.
    """
    if lam >= 0:
        raise ConfigError("single_layer_potential needs lam < 0")
    x = np.asarray(x, dtype=float).reshape(3)
    dists = np.linalg.norm(grid.points - x, axis=1)
    if dists.min() <= 2.0 * grid.weight:
        raise ConfigError("evaluation point too close to the curve")
    coefficients = np.asarray(coefficients, dtype=float)
    return float(grid.weight * np.sum(coefficients * green_kernel(lam, dists)))


def perturbed_green(curve: Curve, grid: ArcGrid, lam: float, alpha: float,
                    x, y) -> float:
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
    if np.array_equal(x, y):
        raise ConfigError("x and y must differ")
    bmat = boundary_matrix(curve, lam, grid)
    spec = eigen(bmat, vectors=False)
    margin = np.min(np.abs(spec.values - alpha))
    if margin < 1e-8:
        raise NumericsError(f"alpha within {margin:.2e} of the boundary spectrum; "
                            "lam is at or near a bound-state energy")
    gx = green_kernel(lam, np.linalg.norm(grid.points - x, axis=1))
    gy = green_kernel(lam, np.linalg.norm(grid.points - y, axis=1))
    system = alpha * np.eye(grid.n) - bmat
    correction = grid.weight * float(gx @ np.linalg.solve(system, gy))
    return float(green_kernel(lam, np.linalg.norm(x - y))) + correction


def _layer_factor(grid: ArcGrid, box: BoxGrid, lam: float) -> np.ndarray:
    """Semi-discrete layer map: rows are box cells, columns curve nodes."""
    n_entries = len(box.points) * grid.n
    if n_entries > ENTRY_CAP:
        raise NumericsError(f"box x curve product {n_entries} exceeds the "
                            f"memory guard {ENTRY_CAP}")
    dists = _pairwise_distances(box.points, grid.points)
    return np.sqrt(box.cell_volume) * grid.weight * green_kernel(lam, dists)


def layer_singular_values(curve: Curve, grid: ArcGrid, box: BoxGrid,
                          lam: float) -> np.ndarray:
    """Singular values of the box-compressed layer map itself."""
    if lam >= 0:
        raise ConfigError("probe needs lam < 0")
    return scipy.linalg.svdvals(_layer_factor(grid, box, lam))


def correction_singular_values(curve: Curve, grid: ArcGrid, box: BoxGrid,
                               lam: float, alpha: float) -> np.ndarray:
    """Singular values of the box-compressed resolvent correction.

    The correction K = G (alpha - B)^{-1} G^T has rank at most the number of
    curve nodes; its singular values equal those of R A R^T with G = Q R,
    which avoids forming the box-by-box matrix.
    """
    if lam >= 0:
        raise ConfigError("probe needs lam < 0")
    g = _layer_factor(grid, box, lam)
    bmat = boundary_matrix(curve, lam, grid)
    spec = eigen(bmat, vectors=False)
    if np.min(np.abs(spec.values - alpha)) < 1e-8:
        raise NumericsError("alpha too close to the boundary spectrum")
    r = np.linalg.qr(g, mode="r")
    system = alpha * np.eye(grid.n) - bmat
    core = r @ np.linalg.solve(system, r.T)
    return scipy.linalg.svdvals(core)


def fit_decay_slope(values: np.ndarray, k_lo: int = 8, k_hi: int = 48) -> float:
    """Least-squares slope of log s_k against log k over k in [k_lo, k_hi].

    The window excludes the preasymptotic head and the truncation floor.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < k_hi:
        raise ConfigError("not enough singular values for the fit window")
    k = np.arange(k_lo, k_hi + 1)
    vals = values[k - 1]
    if np.any(vals <= 0):
        raise NumericsError("nonpositive singular values inside the fit window")
    slope = np.polyfit(np.log(k), np.log(vals), 1)[0]
    return float(slope)
