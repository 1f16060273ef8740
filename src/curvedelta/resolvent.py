"""Off-curve probes: the perturbed Green function, and the singular-value
decay of the layer map and of the resolvent correction compressed to a box.

The ambient operator lives on L^2(R^3); the probe truncates to a box
enclosing the curve with a margin of several decay lengths (the kernel
falls off like e^{-sqrt(-lam) r}) and excludes a thin tube around the
curve so all sampled kernels stay bounded.  The box/tube compression is a
Galerkin restriction of the true operator, so measured decay certifies
upper-envelope behavior only; the summaries record this.

Every dense product, factorization and spectrum here goes through numpy's
linear algebra and none through scipy's: the two libraries ship separate
OpenBLAS builds, each with its own thread pool, and a threaded call into
one runs slower while the other's idle pool still spins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import boundary_matrix
from .curves import (ArcGrid, _blockwise, _pairwise_distances, _read_only,
                     _row_blocks)
from .errors import ConfigError, NumericsError
from .kernels import green_kernel

ENTRY_CAP = 20_000_000  # box points x curve nodes memory guard
SPECTRUM_MARGIN = 1e-8  # required distance of alpha from the spectrum of B(lam)


@dataclass(frozen=True)
class BoxGrid:
    """Uniform lattice of cell centers in a cube, minus a tube around the curve.

    The R factor of the last layer map probed on the box is kept on it
    (`_layer_r`).
    """

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


def _default_box_bounds(grid: ArcGrid, lam: float) -> tuple[float, float]:
    """Cube enclosing the curve with margin 2/sqrt(-lam) on every side."""
    if lam >= 0:
        raise ConfigError("box probes need lam < 0")
    curve = grid.curve
    s = np.linspace(0.0, curve.total_length, 512, endpoint=False)
    pts = curve.point_at_arclength(s)
    margin = 2.0 / np.sqrt(-lam)
    return float(pts.min() - margin), float(pts.max() + margin)


def make_box(grid: ArcGrid, n: int = 24,
             bounds: tuple[float, float] | None = None,
             lam: float = -1.0,
             exclusion_radius: float | None = None) -> BoxGrid:
    """Sample the box on an n^3 lattice of cell centers.

    Points closer to the curve than the exclusion radius (default twice the
    lattice spacing) are dropped and counted.  Each point's distance to the
    curve is the minimum over one row block of the lattice-by-node distance
    table at a time.
    """
    if bounds is None:
        lo, hi = _default_box_bounds(grid, lam)
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
    """alpha I - B(lam), the system of the resolvent correction.

    Refuses when alpha lies within SPECTRUM_MARGIN of the spectrum of
    B(lam), that is when lam is at or near a bound-state energy.
    """
    bmat = boundary_matrix(lam, grid)
    margin = np.min(np.abs(np.linalg.eigvalsh(bmat) - alpha))
    if margin < SPECTRUM_MARGIN:
        raise NumericsError(f"alpha within {margin:.2e} of the boundary spectrum; "
                            "lam is at or near a bound-state energy")
    return alpha * np.eye(grid.n) - bmat


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
    if np.array_equal(x, y):
        raise ConfigError("x and y must differ")
    system = _resolvent_system(grid, lam, alpha)
    gx, gy = green_kernel(lam, _pairwise_distances(np.stack([x, y]), grid.points))
    correction = grid.weight * float(gx @ np.linalg.solve(system, gy))
    return float(green_kernel(lam, np.linalg.norm(x - y))) + correction


def _layer_factor(grid: ArcGrid, box: BoxGrid, lam: float) -> np.ndarray:
    """Semi-discrete layer map: rows are box cells, columns curve nodes;
    built a row block at a time."""
    scale = np.sqrt(box.cell_volume) * grid.weight
    return _blockwise(len(box.points), grid.n, lambda rows, cols: scale * green_kernel(
        lam, _pairwise_distances(box.points[rows], grid.points[cols])))


def _layer_r(grid: ArcGrid, box: BoxGrid, lam: float) -> np.ndarray:
    """R of the layer map G = Q R, read-only.

    Both probe spectra come from R: G has the singular values of R, and the
    correction compresses through R.  So G is built and factored once per
    probe: R is kept on the box for the last grid object and lam asked for.
    The memory guard is checked first, so a box that a fresh build would
    refuse is refused on a memo hit too.
    """
    n_entries = len(box.points) * grid.n
    if n_entries > ENTRY_CAP:
        raise NumericsError(f"box x curve product {n_entries} exceeds the "
                            f"memory guard {ENTRY_CAP}")
    memo = box.__dict__.get("_layer_r")
    if memo is None or memo[0] is not grid or memo[1] != lam:
        r = _read_only(np.linalg.qr(_layer_factor(grid, box, lam), mode="r"))
        # kept where cached_property keeps its values; the dataclass is frozen
        memo = box.__dict__["_layer_r"] = (grid, lam, r)
    return memo[2]


def layer_singular_values(grid: ArcGrid, box: BoxGrid, lam: float) -> np.ndarray:
    """Singular values of the box-compressed layer map itself, computed
    from its R factor."""
    if lam >= 0:
        raise ConfigError("probe needs lam < 0")
    return np.linalg.svd(_layer_r(grid, box, lam), compute_uv=False)


def correction_singular_values(grid: ArcGrid, box: BoxGrid, lam: float,
                               alpha: float) -> np.ndarray:
    """Singular values of the box-compressed resolvent correction.

    The correction K = G (alpha - B)^{-1} G^T has rank at most the number of
    curve nodes; its singular values equal those of R A R^T with G = Q R,
    which avoids forming the box-by-box matrix.
    """
    if lam >= 0:
        raise ConfigError("probe needs lam < 0")
    r = _layer_r(grid, box, lam)
    system = _resolvent_system(grid, lam, alpha)
    core = r @ np.linalg.solve(system, r.T)
    return np.linalg.svd(core, compute_uv=False)


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
