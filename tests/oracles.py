"""Reference implementations the tests compare the library against.

Each one evaluates a quantity by a route independent of the library's
assembly: adaptive quadrature, pointwise kernels and chords, the dense
trigonometric basis, node sums of the layer potential, or the full
(P, N, 3) broadcasts and n x n masks that the library's distance tables
avoid.  `accumulated_distances` is the library's earlier chord formula,
which its call of scipy's cdist must equal bit for bit.  The scattering
references repeat the dense linear algebra the library's factor of Im N
and its factorizations replace: a full eigendecomposition of the
tabulated Im N, a full SVD for the condition number, and a separate
solve of the complex system N + B_eta - alpha with all of Im N, where
the library factors its real part.  `dense_scattering_block` is the
library's dense path taken on any grid, the circle's included, where the
library reads the circle's Fourier modes instead, and
`ring_channel_eigenvalues` the continuum values of those modes from the
addition theorem.  Both sides of the chord-average inequality are the library's
earlier helper, which only the tests called.  The correction reference is the library's earlier
Cholesky, symmetric-solve and gemm route to the probe's correction
spectrum, which one generalized eigensolve replaces.  The box probe is
the library's first route to the probe spectra: the layer map sampled on
a box lattice, its QR and two SVDs.  It compresses the operators the
library measures exactly, so its singular values are lower bounds.  The
full-table references (`*_full`) are the
library's earlier one-pass builds of B(lam), the comparison matrix and the
box's distance minimum, and a one-pass build of the probe's Gram matrix;
the library fills each table a row block at a time and must match them bit
for bit.  The scattering kernel and layer matrix references are the
library's earlier complex-exponential builds; the real part of the
library's cos and exp build must match theirs within a few ulps, and the
imaginary part is the table its factor of Im N must reproduce.
`odd_harmonic_sums_full` is the one-expression build of the circle's
partial sums, which the library now forms in one buffer.  The Brent
reference is the library's earlier bound-state search: derivative-free
Brent steps on each eigenvalue branch, every sample an assembly and a
subset eigensolve, which the Newton search on the closed-form B'(lam)
replaces.  The shifted-table guard is the self-intersection guard's
earlier full table of the far pairs, whose decision the k-d tree guard
must repeat.  The unit-speed reference is the curve check's stencil on
nodes from `np.linspace`, its four points inverted by four separate
calls, and `NormFormulaCurve` keeps the earlier velocity and speed
formulas.  `arc_table_length` evaluates the arc-length table's own series
at a parameter, by numpy's Chebyshev evaluation, so the table's
inversion can be checked against the series it inverts.  None of
them is
used by the library itself; neither is the eigenvalue-clustering helper
nor the seeded-curve draw, which repeats the benchmark's.
"""

import cmath
import math

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.chebyshev import chebval
from scipy.integrate import quad
from scipy.linalg import toeplitz
from scipy.optimize import brentq
from scipy.spatial.distance import cdist

from curvedelta import (ArcGrid, ConfigError, Curve, CurveError,
                        NumericsError, ScatteringBlock, boundary_matrix,
                        circle_chord, circle_mode_eigenvalues, green_kernel,
                        reparametrize_arclength, scale_to_length)
from curvedelta.assembly import (boundary_derivative, circle_boundary_modes,
                                 circle_derivative_modes, circle_operator_matrix,
                                 smoothing_matrix)
from curvedelta.curves import SELF_INTERSECTION_TOL, _pairwise_distances, _panel_count
from curvedelta.kernels import _SERIES_CUTOFF, green_derivative_kernel
from curvedelta.resolvent import BoxGrid, _resolvent_system
from curvedelta.scattering import (CONDITION_LIMIT, RANK_TOL, _DenseSystem,
                                   _scattering_matrix, _widened)
from curvedelta.spectral import eigenvalue_at

PAIRING_TOL = 1e-9


def circle_top_eigenvalue(lam: float, radius: float) -> float:
    """Largest eigenvalue of the circle's boundary operator at energy lam <= 0.

    Equals

        int_0^{pi/2} (e^{-sqrt(-lam) 2R sin s} - 1) / (2 pi sin s) ds
            + ln(4R) / (2 pi),

    evaluated with adaptive Gauss-Kronrod quadrature to absolute tolerance
    1e-12; the integrand extends continuously by -sqrt(-lam) R / pi at s = 0.
    The eigenfunction is the constant function; the value decreases to
    -infinity as lam -> -infinity.
    """
    if lam > 0:
        raise ConfigError("circle_top_eigenvalue requires lam <= 0")
    if radius <= 0:
        raise ConfigError("radius must be positive")
    const = math.log(4.0 * radius) / (2.0 * np.pi)
    if lam == 0:
        return const
    a = math.sqrt(-lam)

    def integrand(s):
        if s == 0.0:
            return -a * radius / np.pi
        return np.expm1(-a * 2.0 * radius * np.sin(s)) / (2.0 * np.pi * np.sin(s))

    val, _ = quad(integrand, 0.0, np.pi / 2.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val + const


def chord(curve: Curve, s, t):
    """Euclidean distance |sigma(s) - sigma(t)| at arc lengths s, t."""
    ps = curve.point_at_arclength(s)
    pt = curve.point_at_arclength(t)
    return np.linalg.norm(ps - pt, axis=-1)


def comparison_kernel(curve: Curve, lam: float, s: float, t: float) -> float:
    """Difference of resolvent kernels between curve chords and circle chords.

    G_lam(|sigma(s) - sigma(t)|) - G_lam(|tau(s) - tau(t)|), where tau is the
    arc-length circle of the same length; 0 on the diagonal, where both
    chords agree to second order.
    """
    if lam > 0:
        raise ConfigError("comparison_kernel requires lam <= 0")
    L = curve.total_length
    ds = abs(float(s) - float(t)) % L
    ds = min(ds, L - ds)
    if ds == 0.0:
        return 0.0
    c_curve = float(chord(curve, s, t))
    c_circ = float(circle_chord(L, ds))
    return float(green_kernel(lam, c_curve) - green_kernel(lam, c_circ))


def single_layer_potential(grid: ArcGrid, lam: float, coefficients, x) -> float:
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


def circle_operator_reference(radius: float, n: int) -> np.ndarray:
    """Circle operator at energy zero built as F diag(nu) F^T.

    The columns of F are the orthonormal discrete trigonometric basis on the
    equispaced n-node grid: the constant, the cos/sin pair at each
    wavenumber k < n/2, and the unpaired alternating mode.  O(n^3).
    """
    nu0, nu_pairs = circle_mode_eigenvalues(radius, n // 2)
    j = np.arange(n)
    cols = [np.full(n, 1.0 / math.sqrt(n))]
    values = [nu0]
    for k in range(1, n // 2):
        ang = 2.0 * np.pi * k * j / n
        cols.append(math.sqrt(2.0 / n) * np.cos(ang))
        cols.append(math.sqrt(2.0 / n) * np.sin(ang))
        values.extend([nu_pairs[k - 1]] * 2)
    cols.append(((-1.0) ** j) / math.sqrt(n))
    values.append(nu_pairs[n // 2 - 1])
    basis = np.stack(cols, axis=1)
    mat = (basis * np.asarray(values)) @ basis.T
    return 0.5 * (mat + mat.T)


def multiplicity_groups(values, tol: float = PAIRING_TOL) -> list[tuple[int, int]]:
    """(start index, size) of clusters of sorted eigenvalues within tol."""
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or abs(values[i] - values[start]) > tol:
            groups.append((start, i - start))
            start = i
    return groups


def broadcast_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """(P, N) distances between the rows of a and b through the full
    (P, N, 3) broadcast difference."""
    b = a if b is None else b
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)


def accumulated_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """(P, N) distances between the rows of a and b, the library's earlier
    formula: dx^2 + dy^2 + dz^2 accumulated into one (P, N) array a
    coordinate at a time, in the order of the broadcast sum."""
    b = a if b is None else b
    out = np.subtract.outer(a[:, 0], b[:, 0])
    out *= out
    d = np.empty_like(out)
    for c in range(1, a.shape[1]):
        np.subtract.outer(a[:, c], b[:, c], out=d)
        d *= d
        out += d
    return np.sqrt(out, out=out)


def self_intersection_reference(curve: Curve) -> None:
    """The n x n self-intersection guard: raises CurveError when two of 1024
    equispaced nodes with float-rounded arc separation ds > L/64 lie within
    SELF_INTERSECTION_TOL * L of each other.  The distance table is the
    whole n x n one, where the guard reads windows of coordinate
    differences."""
    n = 1024
    L = curve.total_length
    s = np.arange(n) * L / n
    pts = curve.point_at_arclength(s)
    dist = cdist(pts, pts)
    ds = np.abs(s[:, None] - s[None, :])
    ds = np.minimum(ds, L - ds)
    far = ds > L / 64.0
    if dist[far].min() <= SELF_INTERSECTION_TOL * L:
        raise CurveError("curve self-intersects (or nearly touches itself)")


def shifted_table_guard(points: np.ndarray, length: float) -> None:
    """The self-intersection guard's earlier full table: raises CurveError
    when the points of two of the 1024 guard nodes at cyclic index shift
    n/64 <= k <= n/2 lie within SELF_INTERSECTION_TOL * L of each other.
    Row k - n/64 of the table holds the squared distances at shift k,
    summed one coordinate at a time, (0 + dx^2) + dy^2 + dz^2; the guard
    re-checks its k-d tree's candidates in that arithmetic."""
    n = 1024
    shifts = slice(n // 64, n // 2 + 1)
    sq = np.zeros((shifts.stop - shifts.start, n))
    d = np.empty_like(sq)
    for x in points.T:
        np.subtract(sliding_window_view(np.concatenate([x, x]), n)[shifts], x, out=d)
        d *= d
        sq += d
    if np.sqrt(sq.min()) <= SELF_INTERSECTION_TOL * length:
        raise CurveError("curve self-intersects (or nearly touches itself)")


def unit_speed_deviation_reference(curve: Curve) -> float:
    """The unit-speed check's max | |sigma'| - 1 |, with each of its four
    stencil points inverted by its own call: the 4th-order central
    difference of `point_at_arclength` at s +- h and s +- 2h,
    h = 1e-3 L / (2 pi), on 4 * panels nodes s from `np.linspace`.  The
    library inverts the four points in one call, at nodes i L / n."""
    L = curve.total_length
    n_check = 4 * _panel_count(curve)
    s = np.linspace(0.0, L, n_check, endpoint=False)
    hs = 1e-3 * L / (2.0 * np.pi)
    p1 = curve.point_at_arclength(s + hs)
    m1 = curve.point_at_arclength(s - hs)
    p2 = curve.point_at_arclength(s + 2 * hs)
    m2 = curve.point_at_arclength(s - 2 * hs)
    tangent = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * hs)
    return float(np.abs(np.linalg.norm(tangent, axis=-1) - 1.0).max())


def arc_table_length(table, t: np.ndarray) -> np.ndarray:
    """Arc length from parameter 0 to t in [0, T] on an arc-length table's
    own series: the cumulative length at the left edge of t's panel plus
    the panel's length series at t, evaluated by `chebval`."""
    u = np.asarray(t, dtype=float) / table.width
    i = np.clip(np.floor(u).astype(int), 0, len(table.cum) - 2)
    return table.cum[i] + chebval(2.0 * (u - i) - 1.0, table.length_series[:, i], tensor=False)


class NormFormulaCurve(Curve):
    """A Curve whose harmonics, velocity and speed take the library's
    earlier formulas: the rotation recurrence of the harmonics from the
    angle 2 pi t / T in one expression, each mode a new array, the velocity
    as the sum of two products of new arrays, and the speed as
    np.linalg.norm.  The library forms them in place; both must agree bit
    for bit."""

    def _harmonics(self, t):
        theta = 2.0 * np.pi * np.asarray(t, dtype=float) / self.period
        cos, sin = [np.cos(theta)], [np.sin(theta)]
        for _ in self._modes[1:]:
            cos, sin = (cos + [cos[-1] * cos[0] - sin[-1] * sin[0]],
                        sin + [sin[-1] * cos[0] + cos[-1] * sin[0]])
        return np.stack(cos, axis=-1), np.stack(sin, axis=-1)

    def velocity(self, t):
        cos, sin = self._harmonics(t)
        om = 2.0 * np.pi * self._modes / self.period
        return (-sin * om) @ self.cos_coeff + (cos * om) @ self.sin_coeff

    def speed(self, t):
        return np.linalg.norm(self.velocity(t), axis=-1)


def chord_difference_reference(grid: ArcGrid, kernel) -> np.ndarray:
    """kernel(curve chord) - kernel(circle chord), the kernel evaluated on
    the gathered off-diagonal chords and scattered back."""
    n = grid.n
    off = ~np.eye(n, dtype=bool)
    out = np.zeros((n, n))
    out[off] = kernel(grid.chords[off])
    circle_row = np.zeros(n)
    circle_row[1:] = kernel(grid.circle_chord_row[1:])
    out -= toeplitz(circle_row)
    return out


def chord_mean_inequality(grid: ArcGrid, u: float):
    """Both sides of the chord-average comparison at arc shift u.

    lhs = integral over one period of |sigma(s+u) - sigma(s)| ds,
    rhs = (L^2/pi) sin(pi u / L).  Equality holds exactly for circles;
    any other closed curve of the same length satisfies lhs < rhs.
    """
    L = grid.length
    if not (0.0 < u < L):
        raise ConfigError("shift u must lie strictly inside (0, L)")
    shifted = grid.curve.point_at_arclength(grid.nodes + u)
    lhs = grid.weight * float(np.sum(np.linalg.norm(shifted - grid.points, axis=-1)))
    rhs = (L ** 2 / np.pi) * np.sin(np.pi * u / L)
    return lhs, rhs


def scattering_block_reference(grid: ArcGrid, lam: float, alpha: float, eta: float,
                               rank_tol: float = RANK_TOL) -> ScatteringBlock:
    """The scattering block at lam > 0 from the complex layer matrix
    (`scattering_layer_matrix_full`), a full `eigh` of Im N with all N
    vectors, the 2-norm condition number (a full complex SVD) and a
    separate `scipy.linalg.solve` of the complex system N + B_eta - alpha
    with all of Im N, on the channels above rank_tol times the top one.

    `condition` holds kappa_2.  scipy's solve recognizes the exactly complex
    symmetric system and factors it with ?sytrf at the optimal workspace.
    """
    n_mat = scattering_layer_matrix_full(grid, lam, eta)
    vals, vecs = scipy.linalg.eigh(n_mat.imag)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    retained = int(np.sum(vals > rank_tol * vals[0]))
    system = scattering_system_reference(grid, lam, alpha, eta)
    condition = float(np.linalg.cond(system))
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise NumericsError(f"condition {condition:.2e} at lam={lam:g}")
    half = vecs[:, :retained] * np.sqrt(vals[:retained])
    solved = scipy.linalg.solve(system, half.astype(complex))
    block = np.eye(retained, dtype=complex) - 2j * (half.T @ solved)
    defect = float(np.linalg.norm(block.conj().T @ block - np.eye(retained), 2))
    return ScatteringBlock(lam=lam, alpha=alpha, retained_dim=retained,
                           matrix=block, unitarity_defect=defect,
                           channel_eigenvalues=vals.copy(),
                           min_channel_eigenvalue=float(vals[-1]), condition=condition)


def dense_scattering_block(grid: ArcGrid, lam: float, alpha: float,
                           rank_tol: float = RANK_TOL) -> ScatteringBlock:
    """The scattering block at lam > 0 by the library's dense path on any
    grid: the N x N table A_r and its LDL^T, the factor H of Im N and the
    channels of H^T H, under the library's condition and widening rules."""
    system = _DenseSystem(grid, lam, alpha)
    vals = system.channel_eigenvalues
    block, condition = _scattering_matrix(system, lam)
    matrix, defect = _widened(block, int(np.sum(vals > rank_tol * vals[0])), lam, condition)
    return ScatteringBlock(lam=lam, alpha=alpha, retained_dim=len(matrix), matrix=matrix,
                           unitarity_defect=defect, channel_eigenvalues=vals,
                           min_channel_eigenvalue=0.0, condition=condition)


def ring_channel_eigenvalues(radius: float, lam: float, waves) -> np.ndarray:
    """The eigenvalues of the continuum operator of sin(k r)/(4 pi r) on the
    circle of radius R, k = sqrt(lam), on e^{i m phi} for each m in
    `waves`: by the addition theorem sin(k|x - y|)/(4 pi |x - y|) =
    k sum_lm j_l(k|x|) j_l(k|y|) Y_lm(x^) conj(Y_lm(y^)), so on the
    equator 2 pi R k sum_{l >= |m|} |Y_lm(pi/2, 0)|^2 j_l(kR)^2, summed to
    l = |m| + kR + 60, where j_l(kR)^2 is far below eps.  Imported here:
    `sph_harm_y` is new in scipy 1.15, and no other oracle needs it."""
    from scipy.special import spherical_jn, sph_harm_y

    k = math.sqrt(lam)
    values = []
    for m in np.abs(np.asarray(waves)):
        degrees = np.arange(m, m + int(k * radius) + 61)
        harmonics = np.abs(sph_harm_y(degrees, m, 0.5 * np.pi, 0.0)) ** 2
        values.append(2.0 * np.pi * radius * k
                      * math.fsum(harmonics * spherical_jn(degrees, k * radius) ** 2))
    return np.array(values)


def scattering_system_reference(grid: ArcGrid, lam: float, alpha: float,
                                eta: float) -> np.ndarray:
    """The complex system N + B_eta - alpha as one out-of-place expression
    of the complex layer matrix, B(eta), an identity matrix and its
    multiple."""
    return (scattering_layer_matrix_full(grid, lam, eta) + boundary_matrix(eta, grid)
            - alpha * np.eye(grid.n))


def scattering_condition_reference(grid: ArcGrid, lam: float, alpha: float,
                                   eta: float) -> float:
    """LAPACK's 1-norm condition estimate of the complex system
    N + B_eta - alpha: ?sycon on one complex ?sytrf factorization of the
    out-of-place system, at the optimal workspace."""
    system = scattering_system_reference(grid, lam, alpha, eta)
    sytrf, sytrf_lwork, sycon = scipy.linalg.get_lapack_funcs(
        ("sytrf", "sytrf_lwork", "sycon"), (system,))
    factors, pivots, _ = sytrf(system, lwork=int(sytrf_lwork(grid.n)[0].real))
    rcond, _ = sycon(factors, pivots, np.linalg.norm(system, 1))
    return 1.0 / float(rcond)


def circle_probe_singular_values(grid: ArcGrid, lam: float,
                                 alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The probe's singular values on the grid's equal-length circle, in
    closed form and nonincreasing: per wavenumber m (each 1 <= m < N/2
    twice) sqrt(x_m) for the layer map and x_m/|alpha - b_m| for the
    correction, with b_m and x_m the mode values of B(lam) and B'(lam)."""
    b = circle_boundary_modes(lam, grid)
    x = circle_derivative_modes(lam, grid)
    twice = np.ones(len(x), dtype=int)
    twice[1:-1] = 2
    x, b = np.repeat(x, twice), np.repeat(b, twice)
    return np.sort(np.sqrt(x))[::-1], np.sort(x / np.abs(alpha - b))[::-1]


def box_layer_map(grid: ArcGrid, box: BoxGrid, lam: float) -> np.ndarray:
    """The probe's layer map sampled on the box: rows are box cells x,
    columns curve nodes p_j, entries sqrt(cell volume) sqrt(w) G_lam(x, p_j),
    from cdist distances."""
    return np.sqrt(box.cell_volume * grid.weight) * green_kernel(
        lam, cdist(box.points, grid.points))


def box_probe_singular_values(grid: ArcGrid, box: BoxGrid, lam: float,
                              alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(layer, correction) singular values of the probe compressed to the
    box: svdvals(G) of `box_layer_map`, and svdvals(R (alpha - B)^{-1} R^T)
    with G = Q R."""
    g = box_layer_map(grid, box, lam)
    r = np.linalg.qr(g, mode="r")
    system = alpha * np.eye(grid.n) - boundary_matrix(lam, grid)
    return scipy.linalg.svdvals(g), scipy.linalg.svdvals(r @ np.linalg.solve(system, r.T))


def correction_singular_values_reference(grid: ArcGrid, lam: float,
                                         alpha: float) -> np.ndarray:
    """The correction's singular values by the library's earlier route:
    X = L L^T (Cholesky), one symmetric solve of (alpha - B) Y = L, the core
    L^T Y by BLAS gemm, and the |eigenvalues| of the core, nonincreasing."""
    low = scipy.linalg.cholesky(boundary_derivative(lam, grid), lower=True)
    solved = scipy.linalg.solve(_resolvent_system(grid, lam, alpha), low, assume_a="sym")
    core = scipy.linalg.get_blas_funcs("gemm", (low,))(1.0, low, solved, trans_a=1)
    return np.sort(np.abs(scipy.linalg.eigh(core, eigvals_only=True, driver="evd")))[::-1]


def green_square_integral(lam: float, d: float) -> float:
    """int G_lam(x, p) G_lam(x, q) dx over R^3 for |p - q| = d, by adaptive
    quadrature in cylindrical coordinates (rho, z) about the axis through p
    and q, with p and q at z = -d/2 and d/2: the integrand is even in z and
    the angle gives 2 pi, so the integral is 4 pi times the z >= 0 half,
    split at the singular point z = d/2."""
    a = math.sqrt(-lam)

    def g(r):
        return math.exp(-a * r) / (4.0 * math.pi * r)

    def slab(z):
        inner = lambda rho: rho * g(math.hypot(rho, z + d / 2.0)) * g(math.hypot(rho, z - d / 2.0))
        return quad(inner, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    halves = [quad(slab, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)[0]
              for lo, hi in ((0.0, d / 2.0), (d / 2.0, np.inf))]
    return 4.0 * math.pi * sum(halves)


def kink_increment(slope, w: float):
    """The Euler-Maclaurin increment w^2 slope / 6 a trapezoid table adds
    to its diagonal for a kernel with a symmetric corner of one-sided slope
    `slope` at chord 0, in the library's order of operations."""
    return w * w * slope / 6.0


def comparison_matrix_full(lam: float, grid: ArcGrid, kernel=None) -> np.ndarray:
    """The comparison matrix of `kernel`, G_lam by default, from the whole
    chord table in one pass."""
    if grid.is_circle:
        return np.zeros((grid.n, grid.n))
    w = grid.weight
    kernel = kernel or (lambda r: green_kernel(lam, r))
    mat = w * chord_difference_reference(grid, kernel)
    kappa_circle = 2.0 * np.pi / grid.length
    slopes = (grid.curvatures ** 2 - kappa_circle ** 2) / (96.0 * np.pi)
    mat[np.diag_indices_from(mat)] = kink_increment(slopes, w)
    return mat


def boundary_matrix_full(lam: float, grid: ArcGrid) -> np.ndarray:
    """B(lam) as the difference of the full circle operator and smoothing
    matrices, plus the full comparison matrix."""
    mat = circle_operator_matrix(grid) - smoothing_matrix(lam, grid)
    if not grid.is_circle:
        mat += comparison_matrix_full(lam, grid)
    return mat


def spectral_sqrt(lam) -> complex:
    """sqrt(lam) with Im >= 0; boundary values on [0, inf) from above."""
    w = cmath.sqrt(lam)
    if w.imag < 0.0:
        w = -w
    return w


def reference_scattering_kernel(lam, eta: float, r):
    """The library's earlier real scattering kernel, the real part of
    (e^{i sqrt(lam) r} - e^{i sqrt(eta) r}) / (4 pi r) for a reference
    eta < 0, from real cos and exp, with a 3-term series where
    (|sqrt(lam)| + sqrt(-eta)) r is below the cutoff, and its limit
    Re(i sqrt(lam)) + sqrt(-eta), over 4 pi, at r = 0."""
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    kx = 1j * spectral_sqrt(lam)
    ky = -math.sqrt(-eta)
    small = (abs(kx) - ky) * r < _SERIES_CUTOFF
    re = np.exp(kx.real * r) if kx.real else np.ones_like(r)
    scratch = np.empty_like(r)
    if kx.imag:
        re *= np.cos(np.multiply(kx.imag, r, out=scratch), out=scratch)
    re -= np.exp(np.multiply(ky, r, out=scratch), out=scratch)
    np.copyto(scratch, r)
    scratch[small] = 1.0
    scratch *= 4.0 * np.pi
    re /= scratch
    xs, ys = kx * r[small], ky * r[small]
    series = (kx - ky) * (1.0 + (xs + ys) / 2.0 + (xs * xs + xs * ys + ys * ys) / 6.0)
    series /= 4.0 * np.pi
    re[small] = series.real
    return re[0] if scalar else re


def reference_scattering_system(grid: ArcGrid, lam: float, eta: float) -> np.ndarray:
    """The library's earlier scattering table Re N + B(eta) = A_r + alpha:
    the trapezoid matrix of `reference_scattering_kernel` on the whole chord
    table, with the kink correction of slope (eta - lam)/(8 pi) on its
    diagonal, plus B(eta)."""
    w = grid.weight
    table = w * reference_scattering_kernel(lam, eta, _pairwise_distances(grid.points))
    table[np.diag_indices(grid.n)] += kink_increment((eta - lam) / (8.0 * np.pi), w)
    table += boundary_matrix(eta, grid)
    return table


def scattering_kernel_full(lam, eta: float, r):
    """The scattering kernel with its r -> 0 series evaluated at every entry
    and selected by np.where."""
    r = np.asarray(r, dtype=float)
    kx = 1j * spectral_sqrt(lam)
    ky = complex(-math.sqrt(-eta))
    small = (abs(kx) + abs(ky)) * r < _SERIES_CUTOFF
    safe_r = np.where(small, 1.0, r)
    x = kx * r
    y = ky * r
    series = (kx - ky) * (1.0 + (x + y) / 2.0 + (x * x + x * y + y * y) / 6.0)
    out = np.where(small, series / (4.0 * np.pi),
                   (np.exp(x) - np.exp(y)) / (4.0 * np.pi * safe_r))
    lamc = complex(lam)
    if lamc.imag == 0.0 and lamc.real < 0.0:
        out = out.real
    return out if out.ndim else out[()]


def scattering_layer_matrix_full(grid: ArcGrid, lam, eta: float) -> np.ndarray:
    """The scattering layer matrix from the whole chord table in one pass."""
    w = grid.weight
    mat = w * scattering_kernel_full(lam, eta, grid.chords)
    slope = (eta - complex(lam).real) / (8.0 * np.pi)
    mat[np.diag_indices_from(mat)] += kink_increment(slope, w)
    return mat


def odd_harmonic_sums_full(count: int) -> np.ndarray:
    """Partial sums of 1/(2j-1), j = 1..count, from one extended-precision
    expression and its temporaries."""
    j = np.arange(1, count + 1, dtype=np.longdouble)
    return np.asarray(np.cumsum(1.0 / (2.0 * j - 1.0)), dtype=float)


def gram_matrix_full(grid: ArcGrid, lam: float) -> np.ndarray:
    """The probe's Gram matrix from the whole chord table in one pass."""
    w = grid.weight
    mat = green_derivative_kernel(lam, grid.chords)
    mat *= w
    mat[np.diag_indices_from(mat)] += kink_increment(-1.0 / (8.0 * np.pi), w)
    return mat


def box_points_full(grid: ArcGrid, box: BoxGrid) -> tuple[np.ndarray, int]:
    """(retained points, excluded count) of `box`'s lattice, from the minimum
    over the whole lattice-to-node distance table."""
    axis = box.lo + (np.arange(box.n) + 0.5) * ((box.hi - box.lo) / box.n)
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    keep = _pairwise_distances(pts, grid.points).min(axis=1) > box.exclusion_radius
    return pts[keep], int(np.sum(~keep))


def fourier_mode_curve(coefficients) -> Curve:
    """The unit circle plus the given 12 mode-2/3 coefficients (cos block,
    then sin block), scaled to length 2 pi; not arc-length parametrized."""
    cos = np.zeros((3, 3))
    sin = np.zeros((3, 3))
    cos[0, 0] = sin[0, 1] = 1.0
    cos[1:] += np.reshape(coefficients[:6], (2, 3))
    sin[1:] += np.reshape(coefficients[6:], (2, 3))
    return scale_to_length(Curve(np.zeros(3), cos, sin, 2.0 * math.pi), 2.0 * math.pi)


def seeded_draws(seed: int, count: int | None = None):
    """Successive draws from default_rng(seed), `count` of them or without
    end, not arc-length parametrized: mode-2/3 coefficients from
    N(0, 0.12^2), the 6 cos ones first.  This is the draw rule of the
    benchmark's seeded curves (`perfbench/workloads.fourier_curve`)."""
    rng = np.random.default_rng(seed)
    drawn = 0
    while count is None or drawn < count:
        cos = 0.12 * rng.standard_normal(6)
        sin = 0.12 * rng.standard_normal(6)
        drawn += 1
        yield fourier_mode_curve(np.concatenate([cos, sin]))


def seeded_fourier_curve(seed: int) -> Curve:
    """The first of `seeded_draws(seed)` that `reparametrize_arclength`
    accepts, arc-length parametrized.  These are the seeded curves of the
    benchmark; seed 7 gives its count-sandwich curve."""
    for raw in seeded_draws(seed):
        try:
            return reparametrize_arclength(raw)
        except CurveError:
            continue


def brent_bound_state_energies(grid: ArcGrid, alpha: float, count: int) -> list[float]:
    """Energies of the first `count` bound states, by mode index: Brent's
    method on nu_k(lam) - alpha over [floor, 0] to 1e-14 + 4 eps |lam|, the
    floor the first of -1, -2, -4, ... where the top branch is below alpha."""
    def gap(lam, k):
        return eigenvalue_at(boundary_matrix(lam, grid), k) - alpha

    floor = -1.0
    while gap(floor, 1) >= 0:
        floor *= 2.0
    return [brentq(gap, floor, 0.0, args=(k,), xtol=1e-14, rtol=4.0 * np.finfo(float).eps)
            for k in range(1, count + 1)]
