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

from .assembly import boundary_matrix, circle_boundary_modes, odd_harmonic_sums
from .curves import ArcGrid, circle_deviation, make_circle, make_grid
from .errors import ConfigError, InvariantError, NumericsError

ROOT_TOL = 1e-10
MONOTONE_TOL = 1e-10
# Brent's method stops once the bracket is below xtol + rtol * |root|
BRENT_XTOL = 1e-14
BRENT_RTOL = 4.0 * np.finfo(float).eps
ENDPOINT_TOL = 1e-12
MAX_FLOOR_DOUBLINGS = 60

# paper-precision Euler-Mascheroni constant used in the asymptotic count
EULER_GAMMA = 0.577216


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in nonincreasing order with matching eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray | None
    trusted_count: int


def eigen(mat: np.ndarray, vectors: bool = True) -> EigenSystem:
    """Full symmetric eigendecomposition, sorted nonincreasingly."""
    try:
        if vectors:
            vals, vecs = scipy.linalg.eigh(mat)
        else:
            vals = scipy.linalg.eigh(mat, eigvals_only=True)
            vecs = None
    except scipy.linalg.LinAlgError as exc:
        raise NumericsError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    if vecs is not None:
        vecs = vecs[:, order]
    return EigenSystem(values=vals, vectors=vecs, trusted_count=mat.shape[0] // 4)


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
    """B(lam) on one grid, as the eigenvalue code reads it.

    The one place that chooses how.  On a circle grid B(lam) is a symmetric
    circulant: its eigenvalues come from `circle_boundary_modes`, each
    wavenumber 1 to N/2 - 1 listed twice, and its eigenvectors are the
    unit-norm real Fourier modes, cos before sin within a pair; no matrix is
    formed.  On any other grid B(lam) is assembled on first use and read by
    dense symmetric eigensolves.
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
    def _matrix(self) -> np.ndarray:
        return boundary_matrix(self.lam, self.grid)

    @cached_property
    def _system(self) -> EigenSystem:
        return eigen(self._matrix)

    def spectrum(self) -> EigenSystem:
        """All eigenvalues, nonincreasing, without eigenvectors."""
        if self._waves is None:
            return eigen(self._matrix, vectors=False)
        return EigenSystem(values=self._values, vectors=None,
                           trusted_count=self.grid.n // 4)

    def branch_value(self, k: int) -> float:
        """nu_k(lam), the k-th largest eigenvalue: the one evaluation point of
        the eigenvalue branches that the floor and the root search sample."""
        if self._waves is None:
            return eigenvalue_at(self._matrix, k)
        return float(self._values[k - 1])

    def eigenpair(self, k: int) -> tuple[float, np.ndarray]:
        """The k-th largest eigenvalue and a unit eigenvector for it."""
        if self._waves is None:
            return self._system.values[k - 1], self._system.vectors[:, k - 1]
        n = self.grid.n
        m = self._waves[k - 1]
        phase = 2.0 * np.pi * m * np.arange(n) / n
        if m == 0 or 2 * m == n:
            vector = np.cos(phase) / math.sqrt(n)
        elif k == 1 or self._waves[k - 2] != m:
            vector = np.cos(phase) * math.sqrt(2.0 / n)
        else:
            vector = np.sin(phase) * math.sqrt(2.0 / n)
        return self._values[k - 1], vector


def boundary_spectrum(lam: float, grid: ArcGrid) -> EigenSystem:
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


def _zero_energy_spectrum(grid: ArcGrid) -> EigenSystem:
    """Eigenvalues of B(0) on the grid, read-only."""
    spec = boundary_spectrum(0.0, grid)
    spec.values.flags.writeable = False
    return spec


def _zero_energy_count(grid: ArcGrid, alpha: float) -> tuple[EigenSystem, int]:
    """Energy-zero spectrum and its count above alpha; refuses at n/4.

    The spectrum does not depend on alpha, so it is computed once per grid
    and kept on it: counting and root finding at any number of couplings
    share one assembly and eigensolve.
    """
    if alpha == 0:
        raise ConfigError("coupling alpha must be nonzero")
    spec = grid.zero_energy_spectrum(_zero_energy_spectrum)
    count = int(np.sum(spec.values[:spec.trusted_count] > alpha))
    if count >= spec.trusted_count:
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
    safe, and every root is re-verified against a full eigensolve.  A branch
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
        if at_root is None or at_root.eigenpair(k)[0] != at_root.eigenpair(k - 1)[0]:
            at_root = _branch_root(grid, alpha, k, floor, zero_spec.values[k - 1])
        value, vector = at_root.eigenpair(k)
        residual = abs(value - alpha)
        if residual >= root_tol:
            raise NumericsError(f"root left residual {residual:.2e} for mode {k}")
        states.append(BoundState(index=k, energy=at_root.lam, alpha=alpha,
                                 coefficients=vector, residual=residual))
    return sorted(states, key=lambda st: st.energy)


# -- counting ---------------------------------------------------------------


def _count_threshold(radius: float) -> float:
    return math.log(4.0 * radius) / (2.0 * np.pi)


def _interval_index(x: float, radius: float) -> int:
    """Index r >= -1 of the half-open partition interval containing x.

    The intervals are bounded by ln(4R)/(2 pi) minus (1/pi) times the
    partial sums of 1/(2j-1); each interval is closed on the left and open
    on the right, and x >= ln(4R)/(2 pi) maps to r = -1.  Partial sums are
    accumulated in extended precision; the half-open comparison happens on
    the float64 endpoint values.
    """
    t0 = _count_threshold(radius)
    if x >= t0:
        return -1
    block = 1024
    count = 0
    carry = np.longdouble(0.0)
    j0 = 1
    while True:
        j = np.arange(j0, j0 + block, dtype=np.longdouble)
        sums = carry + np.cumsum(1.0 / (2.0 * j - 1.0))
        endpoints = t0 - np.asarray(sums, dtype=float) / np.pi
        above = int(np.sum(endpoints > x))
        count += above
        if above < block:
            return count
        carry = sums[-1]
        j0 += block
        if j0 > 10 ** 7:
            raise NumericsError("interval index out of tractable range")


def _interval_endpoints(r: int, radius: float) -> tuple[float, float]:
    """Left and right endpoints of interval r (right = +inf for r = -1)."""
    t0 = _count_threshold(radius)
    if r == -1:
        return t0, math.inf
    sums = odd_harmonic_sums(r + 1)
    left = t0 - float(sums[r]) / np.pi
    right = t0 - (float(sums[r - 1]) / np.pi if r >= 1 else 0.0)
    return left, right


def asymptotic_count_bounds(radius: float, alpha: float,
                            deviation: float = 0.0) -> tuple[float, float]:
    """Explicit lower/upper bounds on the number of negative eigenvalues.

    Valid for alpha + deviation < ln(4R)/(2 pi) - 1/pi:

        lower = 2R c^{-1} e^{-2 pi alpha - gamma} - 1 - 4 (e^{1/92} - 1)
        upper = 2R c e^{-2 pi alpha - gamma} + 1,   c = e^{2 pi deviation},

    with gamma the Euler-Mascheroni constant.
    """
    if not alpha + deviation < _count_threshold(radius) - 1.0 / np.pi:
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
    deviation: float          # computed kernel deviation from the circle
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
    """
    _, count = _zero_energy_count(grid, alpha)

    deviation = circle_deviation(grid)
    radius = grid.length / (2.0 * np.pi)
    t0 = _count_threshold(radius)
    r_index = _interval_index(alpha + deviation, radius)
    l_index = _interval_index(alpha - deviation, radius)
    lower = 2 * r_index + 1
    upper = 2 * l_index + 1

    vanishes = alpha - deviation >= t0
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
        expected = 0 if alpha >= t0 else 2 * _interval_index(alpha, radius) + 1
        if count != expected:
            raise InvariantError(
                f"circle count {count} differs from closed form {expected}")

    endpoint_flag = False
    for x in (alpha + deviation, alpha - deviation):
        left, right = _interval_endpoints(_interval_index(x, radius), radius)
        if min(abs(x - left), abs(x - right)) < ENDPOINT_TOL:
            endpoint_flag = True

    asym_lower = asym_upper = None
    if alpha + deviation < t0 - 1.0 / np.pi:
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
    if alpha >= _count_threshold(radius):
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
