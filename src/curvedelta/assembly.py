"""Dense matrices discretizing the boundary operator on an arc-length grid.

The log-singular part of the operator is never quadrated: it is carried by
the circle operator at energy zero, assembled exactly from its closed-form
mode eigenvalues.  On the equispaced grid that operator is a symmetric
circulant, as is the smoothing matrix, so each is built from one length-N
row and expanded by index (Toeplitz) gather.  The remaining comparison
kernel is bounded; it is evaluated on the curve chords, minus the circulant
circle term, and discretized with the periodic trapezoid rule.  Every part
is exactly symmetric by construction.  This module alone knows how the
parts depend on the energy: the smoothing row and comparison kernel decay
at lam <= 0 and are the real parts of the outgoing ones above, so one
build gives Re B(lam + i0) at every real lam, B(lam) at lam <= 0 and the
scattering table above zero (`_circulant_plus_comparison`).  `boundary_matrix`,
`comparison_matrix` and `boundary_derivative` (the probe kernel's matrix) fill
their output a row block of about 1 MB at a time
(`curves._blockwise`), each block evaluated from the diagonal on and
completed from the transposed rows above, so no second N x N array is
allocated and the kernels run on half the table; `circle_operator_matrix`
and `smoothing_matrix` are the full circulants of the two rows, which the
assembly itself does not form.

Chord functions of a smooth closed curve behave like |u| near the diagonal,
so a plain trapezoid rule on those kernels carries an O(h^2) Euler-Maclaurin
defect from the derivative jump across the diagonal.  Every table's
diagonal is w times its kernel's limit at chord 0 plus h^2 * (kink slope)/6
(`_trapezoid_diagonal`, the one rule), which removes the h^2 term
identically and leaves O(h^4) errors.  An energy past the one resolution
rule, sqrt(-lam) h > 6, is refused (`_resolved`).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import toeplitz

from .curves import ArcGrid, _block_diagonal, _blockwise, _kept, _toeplitz_block
from .errors import ConfigError, NumericsError
from .kernels import (green_derivative_kernel, green_kernel, scattering_kernel,
                      smoothing_kernel)


def _trapezoid_diagonal(w: float, limit, slope):
    """Diagonal of the trapezoid table w * kernel(chord) of a kernel with
    the value `limit` and a symmetric corner of one-sided slope `slope` at
    chord 0 (scalars, or arrays by node): w * limit plus w^2 * slope / 6.

    The trapezoid sum of a periodic integrand with such a corner
    underestimates the integral by h^2 * slope / 6; adding that amount to
    the diagonal entry restores O(h^4) accuracy for every Fourier mode at
    once.  The one statement of the increment.
    """
    return limit * w + w * w * slope / 6.0


def odd_harmonic_sums(count: int) -> np.ndarray:
    """Partial sums of 1/(2j-1) for j = 1..count, accumulated in extended
    precision (80-bit on x86) before rounding to float64.

    Every step runs in place in one extended-precision buffer, so the peak
    is that buffer plus the float64 result.
    """
    terms = np.arange(1, count + 1, dtype=np.longdouble)
    terms *= 2.0
    terms -= 1.0
    np.reciprocal(terms, out=terms)
    np.cumsum(terms, out=terms)
    return terms.astype(float)


def circle_mode_eigenvalues(radius: float, pair_count: int) -> tuple[float, np.ndarray]:
    """Constant-mode eigenvalue and the pair eigenvalues of the circle
    operator at energy zero.

    Returns (nu_const, nu_pair) with nu_const = ln(4R)/(2 pi) and
    nu_pair[k-1] = ln(4R)/(2 pi) - (1/pi) sum_{j<=k} 1/(2j-1); the k-th pair
    belongs to the doubly degenerate modes cos(k s/R), sin(k s/R).
    """
    nu0 = math.log(4.0 * radius) / (2.0 * np.pi)
    return nu0, nu0 - odd_harmonic_sums(pair_count) / np.pi


def circle_operator_matrix(grid: ArcGrid) -> np.ndarray:
    """Boundary operator of the equal-length circle at energy zero, assembled
    exactly.

    The operator of the circle of radius R = L/(2 pi) is diagonalized by
    the discrete Fourier modes of the equispaced grid: the constant mode
    carries ln(4R)/(2 pi), wavenumbers k and N - k carry the closed-form
    pair eigenvalue of min(k, N - k), and the top alternating mode is
    unpaired for even N.  The inverse real FFT
    of those N/2 + 1 eigenvalues is the first row of the symmetric
    circulant, expanded to the full matrix by Toeplitz gather.
    """
    return toeplitz(np.fft.irfft(_circle_modes(grid), grid.n))


def _circle_modes(grid: ArcGrid) -> np.ndarray:
    """Eigenvalues of the equal-length circle's operator at energy zero on
    the grid, by wavenumber 0, 1, ..., N/2 (wavenumbers k and N - k share
    one value), computed once per grid and kept on it."""
    if grid.n % 2 != 0:
        raise ConfigError("circle operator needs an even grid size")
    return _kept(grid, "circle_modes", None, lambda: np.hstack(
        circle_mode_eigenvalues(grid.length / (2.0 * np.pi), grid.n // 2)))


def _circle_waves(n: int, values: np.ndarray | None = None
                  ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The wavenumber of each real Fourier mode of an N-node grid, in the
    order 0, 1, 1, 2, 2, ..., N/2 - 1, N/2 - 1, N/2: each wavenumber
    1 <= m < N/2 is a cos/sin pair, cos first.  Given `values` by
    wavenumber, the modes stably sorted by value, nonincreasing, so a pair
    stays adjacent and cos first, and their values."""
    waves = np.concatenate([[0], np.repeat(np.arange(1, n // 2), 2), [n // 2]])
    if values is None:
        return waves
    waves = waves[np.argsort(-values[waves], kind="stable")]
    return waves, values[waves]


def _resolved(lam: float, w: float) -> None:
    """Refuse an energy the grid of spacing w = h cannot resolve, where the
    smoothing row's increment w^2 (lam/(8 pi))/6 falls below minus half its
    diagonal's analytic part w sqrt(-lam)/(4 pi), i.e. sqrt(-lam) h > 6:
    the one resolution rule, which every path to B(lam) and B'(lam) reads
    before any kernel runs.  (The N = 256 circle's top eigenvalue is off
    quadrature by 2.0e-5 at sqrt(-lam) h = 0.78, 4.6e-2 at 5.96.)"""
    a = math.sqrt(max(-lam, 0.0))
    if _trapezoid_diagonal(w, 0.0, lam / (8.0 * np.pi)) < -0.5 * (w * a / (4.0 * np.pi)):
        raise NumericsError(f"lam={lam:g} is unresolved on the grid: sqrt(-lam) h = "
                            f"{w * a:.3g} > 6 - refine the grid")


def smoothing_row(lam: float, grid: ArcGrid) -> np.ndarray:
    """First row of the smoothing matrix, the symmetric circulant of the
    smoothing kernel on the chords rho of the circle of radius R = L/(2 pi).

    At lam <= 0 entries w * (1 - e^{-sqrt(-lam) rho})/(4 pi rho); above zero
    the real part of their outgoing continuation, (2w) sin^2(k rho/2)/(4 pi
    rho), k = sqrt(lam); on the diagonal the limit sqrt(max(-lam, 0))/(4 pi)
    and slope lam/(8 pi).  Every path to Re B(lam + i0), dense or circulant,
    reads this row, so it refuses a non-finite or unresolved lam before any
    kernel runs.
    """
    if not math.isfinite(lam):
        raise ConfigError(f"smoothing row: non-finite energy lam={lam:g}")
    w = grid.weight
    _resolved(lam, w)
    if lam > 0:
        rho = grid.circle_chord_row[1:]
        half = np.sin(0.5 * math.sqrt(lam) * rho)
        row = np.empty(grid.n)
        row[1:] = (2.0 * w) * half * half / (4.0 * np.pi * rho)
    else:
        row = w * smoothing_kernel(lam, grid.circle_chord_row)
    row[0] = _trapezoid_diagonal(w, math.sqrt(max(-lam, 0.0)) / (4.0 * np.pi),
                                 lam / (8.0 * np.pi))
    return row


def _derivative_diagonal(lam: float, w: float) -> float:
    """The diagonal of B'(lam), a = sqrt(-lam): `green_derivative_kernel`'s
    limit 1/(8 pi a) at chord 0 and slope -1/(8 pi).  Both builders of
    B'(lam) compute it before the kernel, so it refuses for them a lam that
    is not finite and negative, or that the grid cannot resolve."""
    if not math.isfinite(lam):
        raise ConfigError(f"B'(lam): non-finite energy lam={lam:g}")
    if not lam < 0:
        raise ConfigError(f"B'(lam) requires lam < 0, got lam={lam:g}")
    _resolved(lam, w)
    return _trapezoid_diagonal(w, 1.0 / (8.0 * np.pi * math.sqrt(-lam)), -1.0 / (8.0 * np.pi))


def boundary_derivative(lam: float, grid: ArcGrid,
                        out: np.ndarray | None = None) -> np.ndarray:
    """B'(lam) = dB/dlam at lam < 0, in closed form.

    Off the diagonal w e^{-kappa r}/(8 pi kappa) on the curve chords r,
    kappa = sqrt(-lam); on it `_derivative_diagonal`, the analytic limit
    plus the kink correction.  This is the Gram matrix X = Gamma^T Gamma
    of the layer map, which the probe reads too.  A Gram matrix, so
    positive definite (the table up to sqrt(-lam) h = 5.97, where its
    diagonal nears 0): every eigenvalue branch of B increases in lam.
    Built in `out` when given, a row block at a time; a non-finite or
    unresolved lam is refused before the kernel runs.
    """
    w = grid.weight
    diagonal = _derivative_diagonal(lam, w)

    def block(rows, cols, dest):
        chords = grid.chord_block(rows, cols, dest)
        values = green_derivative_kernel(lam, chords, out=chords)
        values *= w
        return values

    mat = _blockwise(grid.n, block, out)
    mat[np.diag_indices(grid.n)] = diagonal
    return mat


def circle_derivative_modes(lam: float, grid: ArcGrid) -> np.ndarray:
    """Eigenvalues of B'(lam) on a circle grid, by wavenumber 0, 1, ..., N/2.

    B'(lam) of the circle is the symmetric circulant of the `boundary_derivative`
    entries on the circle chord row, so its eigenvalues are the real FFT of
    that row, exactly the slopes of the circle's branches.  A non-finite
    or unresolved lam is refused before the kernel runs.
    """
    w = grid.weight
    diagonal = _derivative_diagonal(lam, w)
    row = w * green_derivative_kernel(lam, grid.circle_chord_row)
    row[0] = diagonal
    return np.fft.rfft(row).real


def smoothing_matrix(lam: float, grid: ArcGrid) -> np.ndarray:
    """Trapezoid matrix of the smoothing kernel: the circulant spanned by
    `smoothing_row`."""
    return toeplitz(smoothing_row(lam, grid))


def circle_boundary_modes(lam: float, grid: ArcGrid, what: str = "boundary") -> np.ndarray:
    """Eigenvalues of Re B(lam + i0) on a circle grid, by wavenumber 0, 1,
    ..., N/2, refused as the `what` table where not finite.

    On the circle it is the symmetric circulant of the energy-zero mode
    values minus the smoothing row, so its eigenvalues are those mode values
    minus the real FFT of that row, and no N x N matrix is formed.
    Wavenumbers 1 to N/2 - 1 are the doubly degenerate cos/sin pairs.
    """
    return _finite(_circle_modes(grid) - np.fft.rfft(smoothing_row(lam, grid)).real,
                   f"{what} lam={lam:g}")


def circle_boundary_row(lam: float, grid: ArcGrid) -> np.ndarray:
    """First row of the circle part of Re B(lam + i0), the symmetric
    circulant of the equal-length circle's operator: the inverse real FFT
    of the energy-zero mode values minus the smoothing row."""
    return np.fft.irfft(_circle_modes(grid), grid.n) - smoothing_row(lam, grid)


def _comparison_block(lam: float, grid: ArcGrid, rows: slice, cols: slice,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Rows `rows` and columns `cols` of the comparison matrix of
    Re B(lam + i0), built in `out` where `chord_difference` can: zeros on a
    circle grid, which is its own equal-length circle.  The kernel is
    `green_kernel` at lam <= 0 and `scattering_kernel` above, bitwise equal
    at 0.  The diagonal is the curvature kink, limit 0, the same for every
    kernel 1/(4 pi r) + c_0 + c_1 r + O(r^2) of the chords."""
    if grid.is_circle:
        return np.zeros((rows.stop - rows.start, cols.stop - cols.start))
    kernel = green_kernel if lam <= 0 else scattering_kernel
    w = grid.weight
    block = grid.chord_difference(lambda r: kernel(lam, r, out=r), rows, cols, out)
    block *= w
    kappa_circle = 2.0 * np.pi / grid.length
    diag = _block_diagonal(rows, cols)
    slopes = (grid.curvatures[rows][diag[0]] ** 2 - kappa_circle ** 2) / (96.0 * np.pi)
    block[diag] = _trapezoid_diagonal(w, 0.0, slopes)
    return block


def comparison_matrix(lam: float, grid: ArcGrid) -> np.ndarray:
    """Trapezoid matrix of the curve-vs-circle kernel difference.

    Off-diagonal entries w * [G_lam(curve chord) - G_lam(circle chord)];
    zero diagonal up to the curvature kink correction: the kernel behaves
    like (kappa(s)^2 - kappa_circle^2) |u| / (96 pi) near the diagonal.
    Identically zero when the curve is the circle itself.  Built a row
    block at a time.
    """
    if not lam <= 0:
        raise ConfigError(f"comparison_matrix requires lam <= 0, got lam={lam:g}")
    return _blockwise(grid.n, lambda rows, cols, dest: _comparison_block(lam, grid, rows,
                                                                          cols, dest))


def _circulant_plus_comparison(lam: float, grid: ArcGrid, what: str,
                               out: np.ndarray | None = None) -> np.ndarray:
    """Re B(lam + i0): the symmetric Toeplitz matrix of `circle_boundary_row`
    plus the comparison matrix, refused as the `what` table where not finite.

    Each block of the output is the block of comparison entries, zeros on
    a circle grid, plus that row gathered; every entry is the sum the
    full-matrix build forms, so the result is bitwise the same, and as
    exactly symmetric as that build.  Built in `out` when given, each block
    in its place.
    """
    circle_row = circle_boundary_row(lam, grid)

    def block(rows, cols, dest):
        values = _comparison_block(lam, grid, rows, cols, dest)
        values += _toeplitz_block(circle_row, rows, cols)
        return values

    return _finite(_blockwise(grid.n, block, out), f"{what} lam={lam:g}")


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """`values`, refused as `what` where an entry is not finite: the one
    finiteness check of a table or of its circle modes."""
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{what}: non-finite matrix entries")
    return values


def boundary_matrix(lam: float, grid: ArcGrid, out: np.ndarray | None = None) -> np.ndarray:
    """Regularized boundary operator of the grid's curve at energy lam <= 0.

    Assembled from the exact algebra: comparison part plus the circle
    operator at the same energy, the latter split into its energy-zero
    diagonalization minus the smoothing matrix.  Both curve and circle are
    sampled at the same arc-length values, so the arc-length identification
    between them is the identity on grid indices.  The circle part is the
    circulant of one row, `circle_boundary_row`, and the sum is built a
    row block at a time (`_circulant_plus_comparison`), in `out` when given.
    """
    if not lam <= 0:
        raise ConfigError(f"B(lam) requires lam <= 0, got lam={lam:g}")
    return _circulant_plus_comparison(lam, grid, "boundary", out)
