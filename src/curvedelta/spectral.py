"""Eigenvalue machinery: spectra, bound states, counting, interval bounds.

Bound states of the curve operator at coupling alpha are located through
the equivalence "lam is an eigenvalue of the interaction operator iff alpha
is an eigenvalue of the boundary operator at energy lam": each eigenvalue
branch nu_k(lam) is continuous and strictly increasing in lam and tends to
-infinity, so nu_k(lam) = alpha has exactly one root whenever nu_k(0) > alpha.
Counting at alpha therefore reduces to counting eigenvalues of the
energy-zero operator above alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from .assembly import (boundary_matrix, circle_boundary_modes, circle_mode_eigenvalues,
                       comparison_matrix)
from .curves import ArcGrid, _kept, _read_only, make_circle, make_grid
from .errors import ConfigError, InvariantError, NumericsError

ROOT_TOL = 1e-10
MONOTONE_TOL = 1e-10
# Brent's method stops once the bracket is below xtol + rtol * |root|
BRENT_XTOL = 1e-14
BRENT_RTOL = 4.0 * np.finfo(float).eps
ENDPOINT_TOL = 1e-12
MAX_FLOOR_DOUBLINGS = 60
MAX_CIRCLE_LEVELS = 10 ** 7

# paper-precision Euler-Mascheroni constant used in the asymptotic count
EULER_GAMMA = 0.577216


def trusted_count(n: int) -> int:
    """Number of leading eigenvalues trusted on an n-node grid, n // 4."""
    return n // 4


def eigen(mat: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, nonincreasing."""
    try:
        vals = scipy.linalg.eigh(mat, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericsError(f"eigensolver failed: {exc}") from exc
    return vals[::-1]


def eigenvalue_at(mat: np.ndarray, k: int) -> float:
    """k-th largest eigenvalue (1-based) without the full decomposition."""
    n = mat.shape[0]
    if not 1 <= k <= n:
        raise ConfigError("eigenvalue index out of range")
    idx = n - k
    vals = scipy.linalg.eigh(mat, eigvals_only=True,
                             subset_by_index=[idx, idx], driver="evr")
    return float(vals[0])


@dataclass(frozen=True)
class BoundState:
    """One negative eigenvalue of the interaction operator.

    `coefficients` holds the discrete eigenfunction of the boundary operator
    at the root energy (unit Euclidean norm on the grid); `residual` is
    |nu_k(energy) - alpha|.
    """

    index: int
    energy: float
    alpha: float
    coefficients: np.ndarray
    residual: float


class _Operator:
    """B(lam) on one grid, the one place that assembles or reads it.

    On a circle grid B(lam) is a symmetric circulant: its eigenvalues come
    from `circle_boundary_modes`, each wavenumber 1 to N/2 - 1 listed twice,
    and its eigenvectors are the unit-norm real Fourier modes, cos before
    sin within a pair; no matrix is formed for them.  On any other grid
    B(lam) is assembled on first use and read by dense symmetric
    eigensolves.  `matrix` is that one assembly, read-only, on any grid.
    """

    def __init__(self, lam: float, grid: ArcGrid):
        self.lam = lam
        self.grid = grid
        self._waves = None
        if grid.curve.is_circle:
            n = grid.n
            modes = circle_boundary_modes(lam, grid)
            waves = np.concatenate([[0], np.repeat(np.arange(1, n // 2), 2), [n // 2]])
            # stable, so the two entries of a pair stay adjacent, cos first
            self._waves = waves[np.argsort(-modes[waves], kind="stable")]
            self._values = modes[self._waves]

    @cached_property
    def matrix(self) -> np.ndarray:
        return _read_only(boundary_matrix(self.lam, self.grid))

    def spectrum(self) -> np.ndarray:
        """All eigenvalues, nonincreasing, without eigenvectors."""
        if self._waves is None:
            return eigen(self.matrix)
        return self._values

    def clear_of(self, x: float, margin: float) -> bool:
        """Whether x is farther than margin from the spectrum: the one margin rule."""
        return bool(np.min(np.abs(self.spectrum() - x)) > margin)

    def branch_value(self, k: int) -> float:
        """nu_k(lam), the k-th largest eigenvalue: the one evaluation point of
        the eigenvalue branches that the floor and the root search sample."""
        if self._waves is None:
            return eigenvalue_at(self.matrix, k)
        return float(self._values[k - 1])

    def eigenpair(self, k: int) -> tuple[float, np.ndarray]:
        """The k-th largest eigenvalue and a unit eigenvector for it; on a
        dense grid one subset solve whose value is bitwise `branch_value(k)`."""
        n = self.grid.n
        if self._waves is None:
            vals, vecs = scipy.linalg.eigh(self.matrix, subset_by_index=[n - k, n - k],
                                           driver="evr")
            return float(vals[0]), vecs[:, 0]
        m = self._waves[k - 1]
        phase = 2.0 * np.pi * m * np.arange(n) / n
        if m == 0 or 2 * m == n:
            vector = np.cos(phase) / math.sqrt(n)
        elif k == 1 or self._waves[k - 2] != m:
            vector = np.cos(phase) * math.sqrt(2.0 / n)
        else:
            vector = np.sin(phase) * math.sqrt(2.0 / n)
        return self._values[k - 1], vector


def boundary_spectrum(lam: float, grid: ArcGrid) -> np.ndarray:
    """Eigenvalues of B(lam) on the grid, nonincreasing, without eigenvectors."""
    return _Operator(lam, grid).spectrum()


def _top_eigenvalue_floor(grid: ArcGrid, alpha: float) -> _Operator:
    """B(lam) at an energy where even the top eigenvalue branch is below
    alpha."""
    lam = -1.0
    for _ in range(MAX_FLOOR_DOUBLINGS):
        op = _Operator(lam, grid)
        if op.branch_value(1) < alpha:
            return op
        lam *= 2.0
    raise NumericsError("could not find an energy floor below alpha "
                        f"after {MAX_FLOOR_DOUBLINGS} doublings")


def _zero_energy_count(grid: ArcGrid, alpha: float) -> tuple[np.ndarray, int]:
    """Energy-zero spectrum and its count above alpha; refuses at n/4.

    The spectrum does not depend on alpha, so it is computed once per grid
    and kept on it: counting and root finding at any number of couplings
    share one assembly and eigensolve.
    """
    if alpha == 0 or math.isnan(alpha):
        raise ConfigError("coupling alpha must be a nonzero number")
    spec = _kept(grid, "zero_energy_spectrum", None, lambda: boundary_spectrum(0.0, grid))
    trusted = trusted_count(grid.n)
    count = int(np.sum(spec[:trusted] > alpha))
    if count >= trusted:
        raise NumericsError("count reaches the trusted range n/4; refusing to "
                            "undercount - refine the grid")
    return spec, count


def _branch_root(grid: ArcGrid, alpha: float, k: int, floor: _Operator,
                 zero_value: float) -> _Operator:
    """B at the root of nu_k(lam) = alpha, by Brent's method on [floor, 0].

    Every branch value is checked against the nearest samples on both sides
    (Brent's method takes far fewer samples than bisection, so the check
    sees fewer points).
    """
    samples = {floor.lam: floor.branch_value(k) - alpha, 0.0: zero_value - alpha}
    if samples[floor.lam] >= 0 or samples[0.0] <= 0:
        raise NumericsError(f"root bracket invalid for mode {k}")
    # the latest operator on each side of the root; Brent's method returns
    # one of its two bracket ends, almost always one of these
    latest = {}

    def g(lam: float) -> float:
        if lam not in samples:
            op = _Operator(lam, grid)
            value = op.branch_value(k) - alpha
            below = samples[max(x for x in samples if x < lam)]
            above = samples[min(x for x in samples if x > lam)]
            if not below - MONOTONE_TOL <= value <= above + MONOTONE_TOL:
                raise NumericsError(f"monotonicity violated inside bracket for mode {k}")
            samples[lam] = value
            latest[value > 0] = op
        return samples[lam]

    root, result = brentq(g, floor.lam, 0.0, xtol=BRENT_XTOL, rtol=BRENT_RTOL,
                          full_output=True, disp=False)
    if not result.converged:
        raise NumericsError(f"Brent's method did not converge for mode {k}: {result.flag}")
    return next((op for op in latest.values() if op.lam == root), None) or _Operator(root, grid)


def find_bound_states(grid: ArcGrid, alpha: float,
                      max_states: int | None = None,
                      root_tol: float = ROOT_TOL) -> list[BoundState]:
    """All bound states at coupling alpha, sorted by energy.

    For each k with nu_k(0) > alpha the unique root of nu_k(lam) = alpha is
    found by Brent's method on [floor, 0], where even the top branch is
    below alpha at the floor.  Monotonicity of the branch makes the bracket
    safe, and every root is re-verified by an eigensolve at the root.  A branch
    whose value at the previous root equals the previous branch's exactly,
    as the two branches of a circle's degenerate pair do, has that root too
    (each branch is strictly increasing), so a pair is solved once and its
    two states share one energy.
    """
    zero_spec, n_roots = _zero_energy_count(grid, alpha)
    if max_states is not None:
        n_roots = min(n_roots, max_states)
    if n_roots == 0:
        return []

    floor = _top_eigenvalue_floor(grid, alpha)
    states = []
    at_root = None
    for k in range(1, n_roots + 1):
        if at_root is None or at_root.branch_value(k) != value:
            at_root = _branch_root(grid, alpha, k, floor, zero_spec[k - 1])
        value, vector = at_root.eigenpair(k)
        residual = abs(value - alpha)
        if residual >= root_tol:
            raise NumericsError(f"root left residual {residual:.2e} for mode {k}")
        states.append(BoundState(index=k, energy=at_root.lam, alpha=alpha,
                                 coefficients=vector, residual=residual))
    return sorted(states, key=lambda st: st.energy)


# -- counting ---------------------------------------------------------------


def _circle_levels(radius: float, floor: float) -> np.ndarray:
    """The equal-length circle's energy-zero levels [nu_0, nu_1, nu_2, ...]
    from `circle_mode_eigenvalues`, long enough that the last is <= floor.

    nu_0 = ln(4R)/(2 pi) is the constant mode's and nu_r the r-th pair's.
    """
    pairs = 1024
    while True:
        nu0, nu_pairs = circle_mode_eigenvalues(radius, pairs)
        if nu_pairs[-1] <= floor:
            return np.concatenate([[nu0], nu_pairs])
        if pairs >= MAX_CIRCLE_LEVELS:
            raise NumericsError("interval index out of tractable range")
        pairs = min(2 * pairs, MAX_CIRCLE_LEVELS)


def _interval_index(x: float, levels: np.ndarray) -> int:
    """Index r >= -1 of the interval [levels[r+1], levels[r]) containing x,
    with levels[-1] read as +infinity: x >= nu_0 maps to r = -1.  `levels`
    must reach down to x."""
    return int(np.count_nonzero(levels > x)) - 1


def asymptotic_count_bounds(radius: float, alpha: float,
                            deviation: float = 0.0) -> tuple[float, float]:
    """Explicit lower/upper bounds on the number of negative eigenvalues.

    Valid for alpha + deviation < ln(4R)/(2 pi) - 1/pi:

        lower = 2R c^{-1} e^{-2 pi alpha - gamma} - 1 - 4 (e^{1/92} - 1)
        upper = 2R c e^{-2 pi alpha - gamma} + 1,   c = e^{2 pi deviation},

    with gamma the Euler-Mascheroni constant.
    """
    _, (nu1,) = circle_mode_eigenvalues(radius, 1)
    if not alpha + deviation < nu1:
        raise ConfigError("asymptotic bounds need alpha + deviation below "
                          "ln(4R)/(2 pi) - 1/pi")
    c = math.exp(2.0 * np.pi * deviation)
    base = 2.0 * radius * math.exp(-2.0 * np.pi * alpha - EULER_GAMMA)
    lower = base / c - 1.0 - 4.0 * (math.exp(1.0 / 92.0) - 1.0)
    upper = base * c + 1.0
    return lower, upper


@dataclass(frozen=True)
class CountReport:
    """Negative-eigenvalue count with its interval sandwich."""

    alpha: float
    count: int
    deviation: float          # ||D_0||_F, the shift from the circle's operator
    radius: float             # comparison circle radius L/(2 pi)
    r_index: int              # interval index of alpha + deviation
    l_index: int              # interval index of alpha - deviation
    lower: int                # 2 r + 1
    upper: int                # 2 l + 1 (meaningful when count can be nonzero)
    asym_lower: float | None  # explicit bounds when applicable
    asym_upper: float | None
    endpoint_flag: bool       # alpha +- deviation within 1e-12 of an endpoint
    vanishes: bool            # alpha - deviation at or above the threshold


def count_bound_states(grid: ArcGrid, alpha: float) -> CountReport:
    """Count negative eigenvalues at coupling alpha and check the sandwich.

    The count equals the number of eigenvalues of the energy-zero boundary
    operator above alpha (within the trusted range n/4; the call refuses
    rather than undercounting when the count reaches that range).  For a
    circle the result is cross-checked against the closed-form 2r + 1.

    The sandwich shifts alpha by s = ||D_0||_F of the energy-zero comparison
    matrix: B(0) is the circle's operator plus D_0, so by Weyl's inequality
    each eigenvalue of B(0) is within ||D_0||_2 <= s of the circle's.  s
    depends on the grid alone and is kept on it.  The intervals, the
    endpoint flag, the circle check and the asymptotic precondition all
    read one table of the circle's levels.
    """
    _, count = _zero_energy_count(grid, alpha)

    def shift() -> float:
        d0 = comparison_matrix(0.0, grid).ravel()
        # scipy's BLAS, as every eigensolve here: numpy's would wake a second pool
        return math.sqrt(scipy.linalg.get_blas_funcs("dot", (d0,))(d0, d0))

    deviation = _kept(grid, "comparison_norm", None, shift)
    radius = grid.length / (2.0 * np.pi)
    levels = _circle_levels(radius, alpha - deviation)
    r_index = _interval_index(alpha + deviation, levels)
    l_index = _interval_index(alpha - deviation, levels)
    lower = 2 * r_index + 1
    upper = 2 * l_index + 1

    vanishes = l_index == -1
    if vanishes:
        if count != 0:
            raise InvariantError(
                f"count {count} nonzero although alpha - deviation >= ln(4R)/(2 pi)")
    else:
        if not lower <= count <= upper:
            raise InvariantError(
                f"count {count} escapes the sandwich [{lower}, {upper}] "
                f"(deviation {deviation:.3e})")

    if grid.curve.is_circle:
        expected = max(0, 2 * _interval_index(alpha, levels) + 1)
        if count != expected:
            raise InvariantError(
                f"circle count {count} differs from closed form {expected}")

    endpoint_flag = False
    for x, r in ((alpha + deviation, r_index), (alpha - deviation, l_index)):
        right = levels[r] if r >= 0 else math.inf
        if min(abs(x - levels[r + 1]), abs(x - right)) < ENDPOINT_TOL:
            endpoint_flag = True

    asym_lower = asym_upper = None
    if alpha + deviation < levels[1]:
        asym_lower, asym_upper = asymptotic_count_bounds(radius, alpha, deviation)

    return CountReport(alpha=alpha, count=count, deviation=deviation,
                       radius=radius, r_index=r_index, l_index=l_index,
                       lower=lower, upper=upper, asym_lower=asym_lower,
                       asym_upper=asym_upper, endpoint_flag=endpoint_flag,
                       vanishes=vanishes)


def isoperimetric_compare(grid: ArcGrid, alpha: float) -> tuple[float, float, float]:
    """Principal bound-state energies of the grid's curve and the
    equal-length circle.

    Returns (energy_curve, energy_circle, gap) with gap = circle - curve;
    the circle uniquely maximizes the principal eigenvalue among closed
    curves of fixed length, so a positive gap is expected for any
    non-circular input.  A circle grid is its own equal-length circle: its
    principal state is computed once and the gap is exactly zero (a circle
    rebuilt from the length L = N h can differ from the input by an ulp).
    """
    radius = grid.length / (2.0 * np.pi)
    if alpha >= circle_mode_eigenvalues(radius, 0)[0]:
        raise ConfigError("alpha too large: neither operator has bound states")
    curve_states = find_bound_states(grid, alpha, max_states=1)
    if grid.curve.is_circle:
        circle_states = curve_states
    else:
        circle_grid = make_grid(make_circle(radius), grid.n)
        circle_states = find_bound_states(circle_grid, alpha, max_states=1)
    if not curve_states or not circle_states:
        raise NumericsError("no bound state found for the comparison")
    lam_curve = curve_states[0].energy
    lam_circle = circle_states[0].energy
    return lam_curve, lam_circle, lam_circle - lam_curve
