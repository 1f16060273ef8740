"""Dense matrices discretizing the boundary operator on an arc-length grid.

The log-singular part of the operator is never quadrated: it is carried by
the circle operator at energy zero, assembled exactly from its closed-form
mode eigenvalues.  On the equispaced grid that operator is a symmetric
circulant, as is the smoothing matrix, so each is built from one length-N
row and expanded by index (Toeplitz) gather.  The remaining comparison
kernel is bounded; it is evaluated on the curve chords, minus the circulant
circle term, and discretized with the periodic trapezoid rule.  Every part
is exactly symmetric by construction.  `boundary_matrix`,
`comparison_matrix` and `kernel_matrix` (the scattering and probe kernels'
matrices) fill their output a row block of about 1 MB at a time
(`curves._blockwise`), each block evaluated from the diagonal on and
completed from the transposed rows above, so no second N x N array is
allocated and the kernels run on half the table; `circle_operator_matrix`
and `smoothing_matrix` are the full circulants of the two rows, which the
assembly itself does not form.

Chord functions of a smooth closed curve behave like |u| near the diagonal,
so a plain trapezoid rule on those kernels carries an O(h^2) Euler-Maclaurin
defect from the derivative jump across the diagonal.  Each assembled matrix
therefore adds h^2 * (kink slope)/6 to its diagonal, which removes the h^2
term identically and leaves O(h^4) errors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import toeplitz

from .curves import ArcGrid, _block_diagonal, _blockwise, _toeplitz_block
from .errors import ConfigError
from .kernels import green_derivative_kernel, green_kernel, smoothing_kernel


def kink_correction(slope, weight: float):
    """Diagonal increment cancelling the O(h^2) trapezoid defect.

    For a periodic integrand with a symmetric corner of one-sided slope
    `slope` at the diagonal, the trapezoid sum underestimates the integral
    by h^2 * slope / 6; adding that amount to the diagonal entry restores
    O(h^4) accuracy for every Fourier mode at once.
    """
    return weight * weight * slope / 6.0


def kernel_matrix(grid: ArcGrid, kernel, slope) -> np.ndarray:
    """Trapezoid matrix w * kernel(chord) of a kernel of the curve chords,
    with the kink correction of one-sided slope `slope` on its diagonal.

    `kernel` maps an array of chords elementwise and takes its analytic
    limit at chord 0.  Built a row block at a time, exactly symmetric.
    """
    w = grid.weight
    corr = kink_correction(slope, w)

    def block(rows, cols):
        out = np.asarray(kernel(grid.chord_block(rows, cols)))
        out *= w
        out[_block_diagonal(rows, cols)] += corr
        return out

    return _blockwise(grid.n, block)


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
    one value)."""
    n = grid.n
    if n % 2 != 0:
        raise ConfigError("circle operator needs an even grid size")
    nu0, nu_pairs = circle_mode_eigenvalues(grid.length / (2.0 * np.pi), n // 2)
    return np.concatenate([[nu0], nu_pairs])


def smoothing_row(lam: float, grid: ArcGrid) -> np.ndarray:
    """First row of the smoothing matrix, the symmetric circulant of the
    smoothing kernel on the chords of the circle of radius R = L/(2 pi).

    Entries w * (1 - e^{-sqrt(-lam) chord})/(4 pi chord); the diagonal takes
    the analytic limit w sqrt(-lam)/(4 pi) plus the capped kink correction
    of `_smoothing_kink`.  Every path to B(lam), dense or circulant, reads
    this row, and refuses here.
    """
    if lam > 0:
        raise ConfigError(f"B(lam) requires lam <= 0, got lam={lam:g}")
    w = grid.weight
    row = w * smoothing_kernel(lam, grid.circle_chord_row)
    row[0] += max(*_smoothing_kink(lam, w))
    return row


def _smoothing_kink(lam: float, w: float) -> tuple[float, float]:
    """The kink correction of the smoothing row's diagonal and its cap.

    The correction has slope -lam/(8 pi) (the kernel's radial derivative at
    zero chord).  It must stay subordinate to the analytic diagonal
    w sqrt(-lam)/(4 pi): beyond sqrt(-lam) ~ 1/h the kernel's boundary layer
    is unresolved and an uncapped correction would flip the diagonal's
    sign, so the row adds the larger of the two, and the cap is active
    where w sqrt(-lam) > 6.
    """
    slope = lam / (8.0 * np.pi)        # m'(0) = -a^2/(8 pi), a^2 = -lam
    diag_limit = w * math.sqrt(-lam) / (4.0 * np.pi)
    return kink_correction(slope, w), -0.5 * diag_limit


def _capped_derivative_diagonal(lam: float, w: float) -> float | None:
    """The diagonal of B'(lam) where the smoothing row's cap is active, the
    derivative w/(16 pi sqrt(-lam)) of the capped entry; None elsewhere."""
    corr, cap = _smoothing_kink(lam, w)
    return w / (16.0 * np.pi * math.sqrt(-lam)) if corr < cap else None


def boundary_derivative(lam: float, grid: ArcGrid, capped: bool = True) -> np.ndarray:
    """B'(lam) = dB/dlam at lam < 0, in closed form.

    Off the diagonal w e^{-kappa r}/(8 pi kappa) on the curve chords r,
    kappa = sqrt(-lam); on it w/(8 pi kappa) - w^2/(48 pi), the analytic
    limit plus the kink correction of the kernel's slope -1/(8 pi).  This
    is the Gram matrix X = Gamma^T Gamma of the layer map, which the probe
    reads with `capped=False`.  Where the smoothing row's cap is active
    (w kappa > 6) B(lam)'s diagonal is the capped entry, and with `capped`
    the diagonal is its derivative w/(16 pi kappa).  A Gram matrix, so
    positive definite: every eigenvalue branch of B increases in lam.
    """
    mat = kernel_matrix(grid, lambda r: green_derivative_kernel(lam, r), -1.0 / (8.0 * np.pi))
    diag = _capped_derivative_diagonal(lam, grid.weight) if capped else None
    if diag is not None:
        mat[np.diag_indices(grid.n)] = diag
    return mat


def circle_derivative_modes(lam: float, grid: ArcGrid) -> np.ndarray:
    """Eigenvalues of B'(lam) on a circle grid, by wavenumber 0, 1, ..., N/2.

    B'(lam) of the circle is the symmetric circulant of the `boundary_derivative`
    entries on the circle chord row, so its eigenvalues are the real FFT of
    that row, exactly the slopes of the circle's branches.
    """
    w = grid.weight
    row = w * green_derivative_kernel(lam, grid.circle_chord_row)
    diag = _capped_derivative_diagonal(lam, w)
    row[0] = diag if diag is not None else row[0] + kink_correction(-1.0 / (8.0 * np.pi), w)
    return np.fft.rfft(row).real


def smoothing_matrix(lam: float, grid: ArcGrid) -> np.ndarray:
    """Trapezoid matrix of the smoothing kernel: the circulant spanned by
    `smoothing_row`."""
    return toeplitz(smoothing_row(lam, grid))


def circle_boundary_modes(lam: float, grid: ArcGrid) -> np.ndarray:
    """Eigenvalues of B(lam) on a circle grid, by wavenumber 0, 1, ..., N/2.

    On the circle B(lam) is the symmetric circulant of the energy-zero mode
    values minus the smoothing row, so its eigenvalues are those mode values
    minus the real FFT of that row, and no N x N matrix is formed.
    Wavenumbers 1 to N/2 - 1 are the doubly degenerate cos/sin pairs.
    """
    modes = _circle_modes(grid) - np.fft.rfft(smoothing_row(lam, grid)).real
    if not np.all(np.isfinite(modes)):
        raise ConfigError(f"boundary lam={lam:g}: non-finite matrix entries")
    return modes


def circle_boundary_row(lam: float, grid: ArcGrid) -> np.ndarray:
    """First row of the circle part of B(lam), the symmetric circulant of
    the equal-length circle's operator: the inverse real FFT of the
    energy-zero mode values minus the smoothing row."""
    return np.fft.irfft(_circle_modes(grid), grid.n) - smoothing_row(lam, grid)


def _comparison_block(lam: float, grid: ArcGrid, rows: slice, cols: slice) -> np.ndarray:
    """Rows `rows` and columns `cols` of the comparison matrix: zeros on a
    circle grid, which is its own equal-length circle."""
    if grid.curve.is_circle:
        return np.zeros((rows.stop - rows.start, cols.stop - cols.start))
    w = grid.weight
    block = grid.chord_difference(lambda r: green_kernel(lam, r), rows, cols)
    block *= w
    kappa_circle = 2.0 * np.pi / grid.length
    diag = _block_diagonal(rows, cols)
    slopes = (grid.curvatures[rows][diag[0]] ** 2 - kappa_circle ** 2) / (96.0 * np.pi)
    block[diag] = kink_correction(slopes, w)
    return block


def comparison_matrix(lam: float, grid: ArcGrid) -> np.ndarray:
    """Trapezoid matrix of the curve-vs-circle kernel difference.

    Off-diagonal entries w * [G_lam(curve chord) - G_lam(circle chord)];
    zero diagonal up to the curvature kink correction: the kernel behaves
    like (kappa(s)^2 - kappa_circle^2) |u| / (96 pi) near the diagonal.
    Identically zero when the curve is the circle itself.  Built a row
    block at a time.
    """
    if lam > 0:
        raise ConfigError("comparison_matrix requires lam <= 0")
    return _blockwise(grid.n, lambda rows, cols: _comparison_block(lam, grid, rows, cols))


def boundary_matrix(lam: float, grid: ArcGrid) -> np.ndarray:
    """Regularized boundary operator of the grid's curve at energy lam <= 0.

    Assembled from the exact algebra: comparison part plus the circle
    operator at the same energy, the latter split into its energy-zero
    diagonalization minus the smoothing matrix.  Both curve and circle are
    sampled at the same arc-length values, so the arc-length identification
    between them is the identity on grid indices.

    The circle part is the symmetric Toeplitz matrix of one row,
    `circle_boundary_row`.  Each block of the output is the block of
    comparison entries, zeros on a circle grid, plus that row gathered;
    every entry is the sum the full-matrix build forms, so the result is
    bitwise the same, and as exactly symmetric as that build.
    """
    circle_row = circle_boundary_row(lam, grid)

    def block(rows, cols):
        out = _comparison_block(lam, grid, rows, cols)
        out += _toeplitz_block(circle_row, rows, cols)
        return out

    mat = _blockwise(grid.n, block)
    if not np.all(np.isfinite(mat)):
        raise ConfigError(f"boundary lam={lam:g}: non-finite matrix entries")
    return mat
