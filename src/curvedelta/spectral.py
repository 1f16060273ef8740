"""Eigenvalue machinery: spectra, bound states, counting, interval bounds.

Bound states of the curve operator at coupling alpha are located through
the equivalence "lam is an eigenvalue of the interaction operator iff alpha
is an eigenvalue of the boundary operator at energy lam": each eigenvalue
branch nu_k(lam) is continuous and strictly increasing in lam and tends to
-infinity, so nu_k(lam) = alpha has exactly one root whenever nu_k(0) > alpha.
Counting at alpha therefore reduces to counting eigenvalues of the
energy-zero operator above alpha.

Each root is found by safeguarded Newton steps on the branch, whose slope
dnu_k/dlam = v_k^T B'(lam) v_k comes from the closed-form B'(lam).  The
side of the root an energy lies on is read from the inertia of
B(lam) - alpha, the number of its eigenvalues above alpha, which one LDL^T
factorization gives without an eigensolve.

Only the top n/4 eigenvalues of B(lam) on an n-node grid are trusted, and
`boundary_spectrum` returns just those.  On a grid other than a circle
they come from a compression of B into the grid's orthonormal real Fourier
basis, in which the circle part of B is diagonal, with the values
Lambda of `circle_boundary_modes`: on the constant and cos ks, sin ks for
k <= K = n // 4 (size 2K + 1), T = F_K^T B F_K = Lambda_K + F_K^T D_lam F_K,
and the coupling C = F_perp^T B F_K = F_perp^T D_lam F_K to the discarded
modes.  Both come from two real FFT passes over full rows of the
comparison part D_lam, evaluated a row block at a time, so B itself is not
assembled; one eigenvalues-only solve of a leading block of T then
replaces the dense one.  The result is certified.  Cauchy interlacing puts
each nu_j(T) at or below nu_j(B).  The discarded block F_perp^T B F_perp
is the circle's discarded modes plus a compression of D_lam, so by Weyl's
inequality its spectrum lies below mu = (largest discarded circle mode) +
||D_lam||_F.  Where eta = nu_{n/4}(T) - mu > 0, the quadratic eigenvalue
bound for Hermitian block matrices (C.-K. Li and R.-C. Li, Linear Algebra
Appl. 395, 2005; R. Mathias, SIAM J. Matrix Anal. Appl. 19, 1998) gives
nu_j(B) <= nu_j(T) + ||C||_F^2 / eta for every trusted j.  The leading
block on the wavenumbers k <= 3n/16 is tried first, as a compression of
its own: its coupling is its rows of C plus its rows of T outside it, and
its mu the largest circle mode past 3n/16 plus ||D_lam||_F.  Then the
whole T is tried.  Where neither certifies (eta > 0 and a bound at most
COMPRESSION_TOL), the spectrum comes from the dense eigensolve of B, the
one step that assembles it.  Since T is the circle's kept modes plus
F_K^T D_lam F_K, of norm at most ||D_lam||_F, eta is at most the (n/4)-th
kept circle mode less the largest discarded one; where even that eta
cannot pass, that block is not solved at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math
from typing import NamedTuple
import weakref

import numpy as np
import scipy.linalg

from .assembly import (_circle_waves, _comparison_block, _green, boundary_derivative,
                       boundary_matrix, circle_boundary_modes, circle_derivative_modes,
                       circle_mode_eigenvalues)
from .curves import ArcGrid, _kept, _read_only, _row_blocks, make_circle, make_grid
from .errors import ConfigError, InvariantError, NumericsError, check_tolerance

EPS = np.finfo(float).eps
ROOT_TOL = 1e-10
MONOTONE_TOL = 1e-10
# the root search stops once its step is below xtol + rtol * |lam|
ROOT_XTOL = 1e-14
ROOT_RTOL = 4.0 * EPS
MAX_ROOT_STEPS = 100
# inverse iteration stops once the Rayleigh residual is below INVERSE_TOL
# times ||B||_1, and gives way to a subset eigensolve after INVERSE_STEPS
INVERSE_TOL = 1e-9
INVERSE_STEPS = 32
ENDPOINT_TOL = 1e-12
MAX_CIRCLE_LEVELS = 10 ** 7
# the largest certified bound a compressed spectrum is returned with; above
# it, or without a gap, the next block or the dense eigensolve decides.  At
# N = 1024 and lam = 0 the bound of the whole T is 9e-13 to 2.2e-9 on
# seeded curves (28 of 30 below 1e-9) and 4.5e-12 on the 2:1 ellipse, and
# that of its leading block 7.2e-11 there, where the dense and compressed
# spectra agree within 5e-15.
COMPRESSION_TOL = 1e-9

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


def _fourier_coefficients(rows: np.ndarray, kept: int,
                          rest: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of each row in the grid's orthonormal real Fourier
    basis on the wavenumbers k <= kept: the constant's, then those of
    cos ks and -sin ks for k = 1..kept; and, written to `rest` when it is
    given, each row's sum of squares of all the others.

    One real FFT per row: with z = rfft(row), the constant's coefficient
    is z_0 / sqrt(n), those of cos ks and -sin ks are sqrt(2/n) Re z_k and
    sqrt(2/n) Im z_k, and that of the alternating mode is z_{n/2} / sqrt(n).
    The sums of squares avoid numpy's BLAS, whose thread pool would compete
    with scipy's for the cores.
    """
    n = rows.shape[1]
    # Re z_0, Im z_0 = 0, Re z_1, Im z_1, ..., Re z_{n/2}, Im z_{n/2} = 0
    z = np.fft.rfft(rows).view(float)
    out = z[:, 1:2 * kept + 2] * math.sqrt(2.0 / n)
    out[:, 0] = z[:, 0] / math.sqrt(n)
    if rest is not None:
        dropped, alternating = z[:, 2 * kept + 2:n], z[:, n]
        rest[...] = (2.0 * np.einsum("ij,ij->i", dropped, dropped)
                     + alternating * alternating) / n
    return out


def _kept_waves(kept: int) -> np.ndarray:
    """The wavenumber of each basis vector on the wavenumbers k <= kept, in
    `_fourier_coefficients`' order: 0, 1, 1, 2, 2, ..., kept, kept."""
    return np.concatenate([[0], np.repeat(np.arange(1, kept + 1), 2)])


def _fourier_compression(lam: float, grid: ArcGrid,
                         kept: int) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """T = Lambda_K + F_K^T D F_K on the wavenumbers k <= kept, the sums of
    squares of the columns of the coupling C = F_perp^T B F_K, one per row
    of T, ||D||_F, from full rows of the comparison part D = D_lam, and the
    circle modes of `circle_boundary_modes`; B itself is never formed.

    The circle part of B is diagonal in the real Fourier basis, with the
    values of `circle_boundary_modes`: it adds Lambda_K to T's diagonal and
    nothing to C.  The first pass evaluates D a row block at a time,
    refuses non-finite entries as `boundary_matrix` does, adds the block to
    ||D||_F^2 and transforms its rows into (D F_K)^T; the second transforms
    the rows of that table into F_K^T D F_K and the sums of squares of
    C's columns.  No complex table larger than one block is formed.
    """
    # refuses lam > 0 as every path to B(lam) does
    modes = circle_boundary_modes(lam, grid)
    n = grid.n
    size = 2 * kept + 1
    row_bytes = 16 * (n // 2 + 1)
    half = np.empty((size, n))
    comparison_sq = 0.0
    for rows in _row_blocks(n, row_bytes):
        d = _comparison_block(_green(lam), grid, rows, slice(0, n))
        square = float(np.einsum("ij,ij->", d, d))
        # a sum of finite squares is finite unless it overflows
        if not math.isfinite(square) and not np.all(np.isfinite(d)):
            raise ConfigError(f"boundary lam={lam:g}: non-finite matrix entries")
        comparison_sq += square
        half[:, rows] = _fourier_coefficients(d, kept).T
    block = np.empty((size, size))
    rests = np.empty(size)
    for rows in _row_blocks(size, row_bytes):
        block[rows] = _fourier_coefficients(half[rows], kept, rests[rows])
    block[np.diag_indices(size)] += modes[_kept_waves(kept)]
    return block, rests, math.sqrt(comparison_sq), modes


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


class _Workspace:
    """The N x N buffers of one bound-state search: B(lam), B'(lam) and the
    copy of B that ?sytrf overwrites, three views of one allocation.

    The search builds an operator at each energy it visits, and each one
    assembles and factors in these buffers, so a search allocates them
    once.  Arrays of that size allocated and freed at every energy are
    handed back to the system whenever the allocator trims its heap, and
    each is faulted in afresh.  An operator built on the workspace takes
    it over; the one before must not be read again, and refuses to be.
    The workspace refers to its owner weakly: an operator holds its
    workspace, and a reference back would make a cycle that keeps the
    buffers until the cyclic garbage collector runs.
    """

    def __init__(self, n: int):
        self.matrix, self.derivative, self.factor = np.empty((3, n, n))
        self.owner = None         # weak reference to the operator that took it over


class _Operator:
    """B(lam) on one grid, the one place that assembles or reads it.

    B(lam) is assembled on first use, and `matrix` is that one assembly,
    read-only; only the inertias, the solves and the dense fallback of
    `_top` read it.  Its trusted top n/4 eigenvalues, `_top[0]`, come from
    the certified real-Fourier compression of the module docstring, which
    reads full rows of the comparison part and never B, or from the dense
    eigensolve where the certificate fails.  Its inertia comes from one
    Bunch-Kaufman LDL^T factorization of B - x (LAPACK ?sytrf), whose
    factors are kept for inverse iteration, started from `guess`; an
    eigenpair it cannot certify comes from the one subset eigensolve of
    `settle`, and the eigenpairs found are kept.  B, B' and the copy
    that ?sytrf factors are new arrays, or the buffers of the `work` it
    takes over.  `_CircleOperator` supplies what a circle grid knows;
    `_operator` picks the class.
    """

    def __init__(self, lam: float, grid: ArcGrid, guess: np.ndarray | None = None,
                 work: _Workspace | None = None):
        self.lam = lam
        self.grid = grid
        self._guess = guess
        self._factors = None      # (x, above(x), LDL^T factors) of the latest shift
        self._pairs = {}          # k -> (nu_k, v_k, whether from an eigensolve)
        self._work = work
        if work is not None:
            work.owner = weakref.ref(self)

    def _current(self) -> None:
        """Refuse an operator whose workspace a later one took over."""
        if self._work is not None and self._work.owner() is not self:
            raise InvariantError(f"operator at lam={self.lam:g} read after a later one "
                                 "took over its workspace")

    def _buffer(self, name: str) -> np.ndarray | None:
        """The workspace's `name` buffer, writable, or None without one."""
        self._current()
        if self._work is None:
            return None
        buffer = getattr(self._work, name)
        buffer.flags.writeable = True
        return buffer

    @property
    def matrix(self) -> np.ndarray:
        self._current()
        return self._assembly

    @cached_property
    def _assembly(self) -> np.ndarray:
        return _read_only(boundary_matrix(self.lam, self.grid, out=self._buffer("matrix")))

    @cached_property
    def _derivative(self) -> np.ndarray:
        return boundary_derivative(self.lam, self.grid, out=self._buffer("derivative"))

    @cached_property
    def _scale(self) -> float:
        """||B||_1."""
        return float(scipy.linalg.norm(self.matrix, 1, check_finite=False))

    @cached_property
    def _rounding(self) -> float:
        """sqrt(n) eps ||B||, the width within which a count or a side is not
        trusted."""
        return math.sqrt(self.grid.n) * EPS * self._scale

    @cached_property
    def _top(self) -> tuple[np.ndarray, float, float, float]:
        """The top n/4 eigenvalues, the certified bound on how far each
        lies below the eigenvalue of B(lam), and from the compression's
        sweep ||D||_F and max |Lambda| + ||D||_F >= ||B||_2.  The bound is
        the compression's ||C||_F^2 / eta where that is at most
        COMPRESSION_TOL, tried on the leading wavenumbers k <= 3n/16 of T
        and then on all of T; else the dense eigensolve, with bound 0,
        which alone assembles B."""
        n = self.grid.n
        trusted = trusted_count(n)
        block, rests, comparison, modes = _fourier_compression(self.lam, self.grid, n // 4)
        norm = float(np.max(np.abs(modes))) + comparison
        # both leading blocks span 2 kept + 1 >= n/4 modes
        for kept in (3 * n // 16, n // 4):
            size = 2 * kept + 1
            # the leading block's coupling: its rows' part of C, and the
            # rest of its rows of T
            outside = block[:size, size:]
            coupling_sq = float(np.sum(rests[:size]) + np.einsum("ij,ij->", outside, outside))
            discarded = float(np.max(modes[kept + 1:]))
            # F_K diagonalizes the circle part, and ||F_K^T D F_K|| <= ||D||_F,
            # so eta is at most the (n/4)-th kept circle mode less the largest
            # discarded one: where that cannot pass, the block is not solved
            reach = np.sort(modes[_kept_waves(kept)])[-trusted] - discarded
            if reach > 0 and coupling_sq <= COMPRESSION_TOL * reach:
                values = eigen(block[:size, :size])[:trusted]
                gap = values[-1] - (discarded + comparison)
                if gap > 0 and coupling_sq / gap <= COMPRESSION_TOL:
                    return values, coupling_sq / gap, comparison, norm
        return self._dense_top(), 0.0, comparison, norm

    def _dense_top(self) -> np.ndarray:
        """The top n/4 eigenvalues of the dense eigensolve of B(lam)."""
        return eigen(self.matrix)[:trusted_count(self.grid.n)]

    def _inertia(self, x: float) -> tuple[int, bool, tuple | None]:
        """The number of eigenvalues above x, whether x is one exactly, and
        the LDL^T factors of B - x when it is not.

        Bunch-Kaufman's 2 x 2 pivot blocks each hold one positive and one
        negative eigenvalue, so by Sylvester's law of inertia the count is
        the positive 1 x 1 pivots plus one per 2 x 2 block.  Factors that
        `above` kept are dropped first: on a workspace these are overwritten.
        """
        n = self.grid.n
        self._factors = None
        copy = self._buffer("factor")
        if copy is None:
            copy = self.matrix.copy()
        else:
            np.copyto(copy, self.matrix)
        # B is exactly symmetric, so the transpose of its copy is B in Fortran order
        shifted = copy.T
        shifted[np.diag_indices(n)] -= x
        sytrf, sytrf_lwork = scipy.linalg.get_lapack_funcs(("sytrf", "sytrf_lwork"), (shifted,))
        lwork = int(sytrf_lwork(n)[0])
        ldu, ipiv, info = sytrf(shifted, lwork=lwork, overwrite_a=True)
        single = ipiv > 0
        count = int(np.count_nonzero(np.diagonal(ldu)[single] > 0))
        count += int(np.count_nonzero(~single)) // 2
        return count, info > 0, (ldu, ipiv) if info == 0 else None

    def above(self, x: float) -> int:
        """Number of eigenvalues of B(lam) greater than x.  The factors of
        B - x, if any, are kept, so that inverse iteration with shift x can
        find the branch nearest x."""
        count, _, factors = self._inertia(x)
        self._factors = (x, count, factors)
        return count

    def clear_of(self, x: float, margin: float) -> bool:
        """Whether x is farther than margin from the spectrum: the one margin
        rule.  Read from two inertias: no eigenvalue lies within the margin
        when as many lie above x - margin as above x + margin and neither
        shift is an eigenvalue exactly.  The margin is widened by the
        rounding width, so a distance equal to it is refused."""
        reach = margin + self._rounding
        below, exact_below, _ = self._inertia(x - reach)
        above, exact_above, _ = self._inertia(x + reach)
        return below == above and not exact_below and not exact_above

    def _inverse_iteration(self, k: int) -> tuple[float, np.ndarray] | None:
        """nu_k and v_k by inverse iteration with the kept factors of B - x,
        or None where they are not certified.

        With above(x) = k - 1, nu_k is the nearest eigenvalue to x below it,
        and with above(x) = k the nearest above it; the iteration converges
        to the eigenvalue nearest x, and its Rayleigh quotient certifies
        nu_k once it lies on nu_k's side of x by more than its residual.
        Each step reads the Rayleigh quotient and residual of the new
        iterate u = y/|y|, y = (B - x)^{-1} v, from (B - x) u = v/|y|.
        """
        self._current()
        if self._factors is None or self._factors[2] is None or \
                self._factors[1] not in (k - 1, k):
            return None
        x, count, (ldu, ipiv) = self._factors
        sytrs = scipy.linalg.get_lapack_funcs("sytrs", (ldu,))
        v = np.ones(self.grid.n) if self._guess is None else self._guess
        v = v / np.linalg.norm(v)
        tol = INVERSE_TOL * self._scale
        for _ in range(INVERSE_STEPS):
            y, _ = sytrs(ldu, ipiv, v)
            size = np.linalg.norm(y)
            y /= size
            c = float(y @ v)
            value = x + c / size
            residual = float(np.linalg.norm(v - c * y)) / size
            v = y
            if residual <= tol:
                break
        else:
            return None
        side = value - x if count == k else x - value
        return (value, v) if side > residual + self._rounding else None

    def _exact(self, k: int) -> bool:
        """Whether the kept k-th eigenpair is from an eigensolve."""
        return self._pairs.get(k, (None, None, False))[2]

    def _pair(self, k: int) -> tuple[float, np.ndarray, bool]:
        """The kept k-th eigenpair, found by inverse iteration or else by
        `settle(k)`."""
        if k not in self._pairs:
            found = self._inverse_iteration(k)
            if found is None:
                self.settle(k)
            else:
                self._pairs[k] = (*found, False)
        return self._pairs[k]

    def settle(self, k: int) -> None:
        """Make the k-th and the (k+1)-th eigenpairs exact, from the one
        subset eigensolve (LAPACK ?syevr): at a root, the verified eigenpair
        and the next branch's start."""
        n = self.grid.n
        last = min(k + 1, n)
        if not all(self._exact(j) for j in range(k, last + 1)):
            vals, vecs = scipy.linalg.eigh(self.matrix, subset_by_index=[n - last, n - k],
                                           driver="evr")
            for j in range(k, last + 1):
                self._pairs[j] = (float(vals[last - j]), vecs[:, last - j], True)

    def branch_value(self, k: int) -> float:
        """nu_k(lam), the k-th largest eigenvalue: the one evaluation point of
        the eigenvalue branches that the root search samples."""
        return self._pair(k)[0]

    def vector(self, k: int) -> np.ndarray:
        """The unit eigenvector `branch_value(k)` was read with."""
        return self._pair(k)[1]

    def _slope(self, k: int) -> float:
        self._current()
        v = self.vector(k)
        # B' is exactly symmetric: its transpose is B' in Fortran order
        symv = scipy.linalg.get_blas_funcs("symv", (self._derivative,))
        return float(v @ symv(1.0, self._derivative.T, v))

    def slope(self, k: int) -> float:
        """dnu_k/dlam = v_k^T B'(lam) v_k; B' is a Gram matrix, so a slope
        that is not positive refuses."""
        value = self._slope(k)
        if not value > 0:
            raise NumericsError(f"monotonicity violated: mode {k} has slope {value:.3e} "
                                f"at lam={self.lam:g}")
        return value


class _CircleOperator(_Operator):
    """B(lam) on a circle grid, a symmetric circulant whose eigenpairs are
    known: its eigenvalues come from `circle_boundary_modes`, each
    wavenumber 1 to N/2 - 1 listed twice, its branch slopes from
    `circle_derivative_modes`, and its eigenvectors are the unit-norm real
    Fourier modes, cos before sin within a pair.  No pair is solved for."""

    def __init__(self, lam: float, grid: ArcGrid, guess: np.ndarray | None = None,
                 work: _Workspace | None = None):
        super().__init__(lam, grid, guess, work)
        modes = circle_boundary_modes(lam, grid)
        waves = _circle_waves(grid.n)
        # stable, so the two entries of a pair stay adjacent, cos first
        self._waves = waves[np.argsort(-modes[waves], kind="stable")]
        self._values = modes[self._waves]

    @cached_property
    def _scale(self) -> float:
        return float(np.max(np.abs(self._values)))     # the spectral radius

    @cached_property
    def _top(self) -> tuple[np.ndarray, float, float, float]:
        return self._values[:trusted_count(self.grid.n)], 0.0, 0.0, self._scale

    def _inertia(self, x: float) -> tuple[int, bool, None]:
        return int(np.count_nonzero(self._values > x)), bool(np.any(self._values == x)), None

    def _exact(self, k: int) -> bool:
        return True

    def _pair(self, k: int) -> tuple[float, np.ndarray, bool]:
        """The k-th mode value and its Fourier vector."""
        n = self.grid.n
        m = self._waves[k - 1]
        phase = 2.0 * np.pi * m * np.arange(n) / n
        if m == 0 or 2 * m == n:
            vector = np.cos(phase) / math.sqrt(n)
        elif k == 1 or self._waves[k - 2] != m:
            vector = np.cos(phase) * math.sqrt(2.0 / n)
        else:
            vector = np.sin(phase) * math.sqrt(2.0 / n)
        return float(self._values[k - 1]), vector, True

    def _slope(self, k: int) -> float:
        """The FFT of the circulant B' row at the branch's wavenumber."""
        return float(circle_derivative_modes(self.lam, self.grid)[self._waves[k - 1]])


def _operator(lam: float, grid: ArcGrid, guess: np.ndarray | None = None,
              work: _Workspace | None = None) -> _Operator:
    """B(lam): the circle's known eigenpairs on a circle grid, else dense."""
    return (_CircleOperator if grid.curve.is_circle else _Operator)(lam, grid, guess, work)


def boundary_spectrum(lam: float, grid: ArcGrid) -> np.ndarray:
    """The trusted top n/4 eigenvalues of B(lam) on the grid, nonincreasing,
    without eigenvectors, each within `_Operator._top`'s bound below its own."""
    return _operator(lam, grid)._top[0]


class _Point(NamedTuple):
    """Branch k of B at one energy: nu_k(lam), its slope and its vector."""

    lam: float
    value: float
    slope: float
    vector: np.ndarray


def _point(op: _Operator, k: int) -> _Point:
    return _Point(op.lam, op.branch_value(k), op.slope(k), op.vector(k))


def _refuse_side(k: int, gap: float, above: bool) -> None:
    """Refuse a branch value nu_k - alpha = gap that contradicts the side
    of alpha the inertia (or the order of the branches) puts nu_k on,
    above it when `above`: a strictly increasing branch crosses alpha once,
    so its value and the count agree on every energy."""
    if (gap <= -MONOTONE_TOL) if above else (gap >= MONOTONE_TOL):
        raise NumericsError(f"monotonicity violated inside bracket for mode {k}: "
                            f"nu - alpha = {gap:.3e} against the inertia")


def _predicted_floor(grid: ArcGrid, alpha: float, zero_value: float) -> float:
    """The energy at which the equal-length circle's top branch mu_1,
    shifted to the grid's nu_1(0) = zero_value at energy zero, reaches
    alpha: the root of mu_1(lam) + s = alpha, s = zero_value - mu_1(0),
    that `_branch_root` finds on the equal-length circle's grid, open below
    from lam = -1.  The circle grid's operators read their known Fourier
    modes, so the search does no N x N work.
    """
    top = float(np.max(circle_boundary_modes(0.0, grid)))
    circle = make_grid(make_circle(grid.length / (2.0 * np.pi)), grid.n)
    # s = 0 on a circle grid, whose nu_1(0) is mu_1(0)
    return _branch_root(circle, alpha - (zero_value - top), 1, None, top, None).lam


def _zero_energy_count(grid: ArcGrid, alpha: float) -> tuple[np.ndarray, int, float]:
    """Top n/4 of the energy-zero spectrum, its count above alpha and
    ||D_0||_F of the sweep that computed it (0 on a circle); refuses at n/4.

    The spectrum does not depend on alpha, so it is computed once per grid
    and kept on it: counting and root finding at any number of couplings
    share one sweep and eigensolve.  A compressed value lies within its
    bound below the eigenvalue, so a count read from it can differ from the
    dense one only where alpha is within that bound plus the rounding
    width of a value, sqrt(n) eps (max |Lambda| + ||D_0||_F), read from the
    sweep without assembling B(0); there the dense spectrum, also kept on
    the grid, decides the count, the n/4 refusal included.
    """
    if alpha == 0 or math.isnan(alpha):
        raise ConfigError("coupling alpha must be a nonzero number")

    def top():
        values, bound, comparison, norm = _operator(0.0, grid)._top
        reach = bound + math.sqrt(grid.n) * EPS * norm if bound > 0 else 0.0
        return _read_only(values), reach, comparison

    spec, reach, comparison = _kept(grid, "zero_energy_spectrum", None, top)
    if reach > 0 and np.any(np.abs(spec - alpha) <= reach):
        spec = _kept(grid, "zero_energy_dense", None, lambda: _operator(0.0, grid)._dense_top())
    trusted = trusted_count(grid.n)
    count = int(np.sum(spec > alpha))
    if count >= trusted:
        raise NumericsError("count reaches the trusted range n/4; refusing to "
                            "undercount - refine the grid")
    return spec, count, comparison


def _newton_target(point: _Point, alpha: float) -> float:
    """The Newton step from the point for nu_k(lam) = alpha, taken in
    kappa = sqrt(-lam), where dnu/dkappa = -2 kappa dnu/dlam; +inf where
    it leaves kappa > 0."""
    kappa = math.sqrt(-point.lam)
    step = kappa + (point.value - alpha) / (2.0 * kappa * point.slope)
    return -step * step if step > 0 else math.inf


def _bisect(lo: float, hi: float) -> float:
    """The energy at the kappa midpoint of the bracket (lo, hi)."""
    return -(0.5 * (math.sqrt(-lo) + math.sqrt(-hi))) ** 2


def _branch_root(grid: ArcGrid, alpha: float, k: int, lower: _Point | None,
                 zero_value: float, work: _Workspace | None,
                 start: float = -1.0) -> _Operator:
    """B at the root of nu_k(lam) = alpha in (lower.lam, 0], by safeguarded
    Newton steps in kappa from the lower point; without one, as for the top
    branch, in (-inf, 0] from the energy `start`.

    Each step assembles B, counts its eigenvalues above alpha, which puts
    the energy on one side of the root, and reads nu_k and v_k: by inverse
    iteration with the factors of that count where it is k - 1 or k, by a
    subset eigensolve elsewhere.  Where the quadratic convergence of the
    last two values, g^3 / g_prev^2, puts the next one within the rounding
    width, that step is expected to be the last: it skips the count and
    reads the subset eigensolve the root needs anyway.  Every branch value
    is checked against the count and against the bracket's ends, the
    nearest samples on both sides.  A step that leaves the bracket bisects
    it instead; open below, it has none to bisect until a sample lies
    below the root, and needs none: from a sample above it the Newton step
    moves down.  The search stops once the step is below ROOT_XTOL +
    ROOT_RTOL |lam|, or once nu_k is within eps ||B||_1 of alpha, at the
    operator of its last energy, which can be the first.  Every operator
    is built on `work`, so each step supersedes the last.
    """
    lo, hi = -math.inf, 0.0
    lo_gap, hi_gap = -math.inf, zero_value - alpha
    if hi_gap <= 0:
        raise NumericsError(f"root bracket invalid for mode {k}")
    target, guess = start, None
    if lower is not None:
        lo, lo_gap = lower.lam, lower.value - alpha
        _refuse_side(k, lo_gap, above=False)
        target, guess = _newton_target(lower, alpha), lower.vector
    previous, last = lo_gap, False
    for _ in range(MAX_ROOT_STEPS):
        if not lo < target < hi:
            target = _bisect(lo, hi)
        op = _operator(target, grid, guess, work)
        if last:
            op.settle(k)
        else:
            count = op.above(alpha)
        point = _point(op, k)
        gap = point.value - alpha
        if not last:
            _refuse_side(k, gap, above=count >= k)
        # the target lies strictly inside (lo, hi), every earlier sample outside
        if not lo_gap - MONOTONE_TOL <= gap <= hi_gap + MONOTONE_TOL:
            raise NumericsError(f"monotonicity violated inside bracket for mode {k}")
        if gap > 0:
            hi, hi_gap = target, gap
        else:
            lo, lo_gap = target, gap
        guess = point.vector
        step = _newton_target(point, alpha)
        tol = ROOT_XTOL + ROOT_RTOL * abs(target)
        # within eps ||B|| of alpha, nu_k is alpha to working precision and
        # the step measures rounding
        if abs(step - target) < tol or hi - lo < tol or abs(gap) <= EPS * op._scale:
            op.settle(k)
            return op
        last = math.isfinite(previous) and abs(gap) ** 3 <= op._rounding * previous ** 2
        previous = gap
        target = step
    raise NumericsError(f"root search did not converge for mode {k} "
                        f"in {MAX_ROOT_STEPS} steps")


def find_bound_states(grid: ArcGrid, alpha: float,
                      max_states: int | None = None,
                      root_tol: float = ROOT_TOL) -> list[BoundState]:
    """All bound states at coupling alpha, sorted by energy.

    For each k with nu_k(0) > alpha the unique root of nu_k(lam) = alpha is
    found by `_branch_root`: for k = 1 open below, from the equal-length
    circle's root shifted to the grid's nu_1(0) (`_predicted_floor`), and
    for later k from the previous root: nu_k <= nu_{k-1} = alpha there, so
    the roots increase with k.  Every root is re-verified by an eigensolve
    at the root, to a residual below root_tol.  A branch whose value at
    the previous root equals the previous branch's exactly, as the two
    branches of a circle's degenerate pair do, has that root too (each
    branch is strictly increasing), so a pair is solved once and its two
    states share one energy.  The operators of every root search are built
    on one `_Workspace`, and the root's operator is read only until the
    next search starts.
    """
    if max_states is not None and max_states < 0:
        raise ConfigError(f"max_states must be nonnegative, got {max_states}")
    check_tolerance("root_tol", root_tol)
    zero_spec, n_roots, _ = _zero_energy_count(grid, alpha)
    if max_states is not None:
        n_roots = min(n_roots, max_states)
    if n_roots == 0:
        return []

    work = _Workspace(grid.n)
    start = _predicted_floor(grid, alpha, zero_spec[0])
    states = []
    at_root = lower = None
    for k in range(1, n_roots + 1):
        if at_root is None or at_root.branch_value(k) != value:
            if at_root is not None:
                lower = _point(at_root, k)
            at_root = _branch_root(grid, alpha, k, lower, zero_spec[k - 1], work, start)
        at_root.settle(k)
        value, vector = at_root.branch_value(k), at_root.vector(k)
        residual = float(abs(value - alpha))
        if residual >= root_tol:
            raise NumericsError(f"root left residual {residual:.2e} for mode {k}")
        # the root's lam is a numpy scalar on some paths
        states.append(BoundState(index=k, energy=float(at_root.lam), alpha=alpha,
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
    is summed by the sweep of the energy-zero spectrum, kept with it on the
    grid, and is 0 on a circle.  The intervals, the endpoint flag, the
    circle check and the asymptotic precondition all read one table of the
    circle's levels.
    """
    _, count, deviation = _zero_energy_count(grid, alpha)
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
