"""Scattering matrix block on the channel space spanned by Im N.

For energies lam >= 0 the boundary operator B(lam + i0) has the outgoing
kernel e^{i sqrt(lam) r}/(4 pi r) where B(lam) below zero has the decaying
one.  The paper writes its imaginary part through N(lam), the layer
operator of the kernel difference from a reference energy eta < 0, as
N + B_eta = B(lam + i0): Im N is positive semidefinite and of rapidly
decaying rank, and the nontrivial scattering block acts on its retained
range as

    S' = I - 2i sqrt(Im N) (B(lam + i0) - alpha)^{-1} sqrt(Im N),

unitary on that subspace away from exceptional energies.  No reference
energy enters: the real part Re B(lam + i0) is tabulated as B(lam) is
(`scattering_layer_matrix`), and Im N = H H^T for the map H of the grid
onto spherical waves.  With A_r = Re B(lam + i0) - alpha real symmetric,
the Woodbury identity gives

    H^T (A_r + i H H^T)^{-1} H = M (I + iM)^{-1},   M = H^T A_r^{-1} H,

so one real LDL^T of A_r and one p x p complex symmetric solve give S' on
the p channels of H (`_channel_space`), a Cayley transform of the real
symmetric M.  The retained block is its leading part, widened along the
channels until it is unitary to UNITARITY_TOL: its defect is the flux it
loses to the channels left out.

On a circle grid the paper's explicit S' is a scalar per Fourier mode.
A_r and Im N are symmetric circulants there, with eigenvalues a_m and c_m
by wavenumber m from two real FFTs, so the channels are the real Fourier
modes (each 1 <= m < N/2 a cos/sin pair) with eigenvalues c_m, and
S' = diag((a_m - i c_m)/(a_m + i c_m)) on them (`_CircleSystem`): no
N x N array is formed or factored.  Its `condition` is then the exact
1-norm condition, read from the modes, where elsewhere it is LAPACK's
estimate.  Both paths keep one condition rule (`_scattering_matrix`) and
one widening rule (`_widened`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import (_circle_modes, _circle_waves, _circulant_plus_comparison, _finite,
                       kink_correction)
from .curves import ArcGrid
from .errors import ConfigError, NumericsError, check_tolerance
from .kernels import scattering_kernel

RANK_TOL = 1e-10          # relative cutoff defining the retained channel space
# Flags lam at or near the exceptional set.  It bounds the block's
# `condition`, the 1-norm condition for A_r times that for I + iM (LAPACK's
# estimates, exact on the circle); on the circle and the 2:1 ellipse at
# lam in {0.5, 1, 2} (N = 256 and 1024, alpha = -0.5) the product reads
# 2.1-4.7 times the 2-norm condition number of B(lam + i0) - alpha, and
# 0.98-1.36 times the 1-norm estimate of that complex system, well within
# the decade this limit allows.
CONDITION_LIMIT = 1e12
UNITARITY_TOL = 1e-6      # largest unitarity defect of a returned block


def scattering_layer_matrix(grid: ArcGrid, lam) -> np.ndarray:
    """Re B(lam + i0) at lam >= 0, real symmetric, built as B(lam) is and a
    row block at a time (`assembly._circulant_plus_comparison`): the
    equal-length circle's energy-zero circulant, minus the circulant of
    `_outgoing_smoothing_row`, plus the comparison matrix of
    `scattering_kernel` with the curvature kink on its diagonal.  The
    imaginary part Im N, the trapezoid matrix of sin(sqrt(lam) r)/(4 pi r),
    is never tabulated: the block reads it through its factor."""
    if not lam >= 0:
        raise ConfigError(f"scattering table requires lam >= 0, got lam={lam:g}")
    circle_row = np.fft.irfft(_circle_modes(grid), grid.n) - _outgoing_smoothing_row(lam, grid)
    return _circulant_plus_comparison(grid, circle_row, lambda r: scattering_kernel(lam, r, out=r),
                                      f"scattering lam={lam:g}")


def _outgoing_smoothing_row(lam: float, grid: ArcGrid) -> np.ndarray:
    """First row of the circulant of the smoothing kernel continued to
    lam + i0, in its real part: w Re (1 - e^{ik rho})/(4 pi rho) =
    w 2 sin^2(k rho/2)/(4 pi rho) on the equal-length circle's chords rho,
    k = sqrt(lam).  The diagonal is the limit 0 plus the kink correction of
    the kernel's slope k^2/(8 pi), w^2 lam/(48 pi)."""
    rho = grid.circle_chord_row[1:]
    half = np.sin(0.5 * math.sqrt(lam) * rho)
    row = np.empty(grid.n)
    row[0] = kink_correction(lam / (8.0 * np.pi), grid.weight)
    row[1:] = (2.0 * grid.weight) * half * half / (4.0 * np.pi * rho)
    return row


def choose_reference_energy(candidates) -> float:
    """The first candidate eta, after every one is checked negative (nan is
    refused too).  Nothing in the package calls it: the scattering system
    is B(lam + i0) - alpha and has no reference energy (module docstring).
    It stays only because the benchmark's layer tracer,
    `perfbench/tracer.py`, wraps it by name."""
    candidates = list(candidates)
    if not candidates:
        raise ConfigError("empty candidate list for the reference energy")
    if not all(eta < 0 for eta in candidates):
        raise ConfigError("reference energy candidates must be negative")
    return float(candidates[0])


@dataclass(frozen=True)
class ScatteringBlock:
    """Unitary block of the scattering matrix on the retained channel space."""

    lam: float
    alpha: float
    retained_dim: int             # g, widened past rank_tol where needed
    matrix: np.ndarray            # (g, g) complex
    unitarity_defect: float       # || S'* S' - I ||_2 on the retained space,
                                  # below UNITARITY_TOL
    channel_eigenvalues: np.ndarray  # the p eigenvalues of H^T H above eps
                                     # theta_1, nonincreasing (none at lam = 0);
                                     # the modes c_m on a circle grid
    min_channel_eigenvalue: float  # 0: Im N = H H^T is positive semidefinite
    condition: float              # 1-norm conditions of A_r and I + iM,
                                  # multiplied; that of A_r + i H H^T where
                                  # it is factored (0 if g = 0).  LAPACK's
                                  # estimates, exact on a circle grid


def _degree(x: float, bound: float) -> int:
    """Smallest L with sum_{l > L} (2l + 1) x^{2l} / ((2l + 1)!!)^2 <= bound,
    which bounds sum_{l > L} (2l + 1) j_l(y)^2 for y <= x.  Summed in logs,
    past l = x (where each term is below a quarter of the one before) until
    the terms fall below eps times the bound, which no term of an infinite
    x does: a non-finite x is refused."""
    if not math.isfinite(x):
        raise ConfigError(f"harmonic degree needs a finite argument, got {x:g}")
    logs = [0.0]
    while len(logs) <= x + 1 or logs[-1] > math.log(np.finfo(float).eps * bound):
        l = len(logs) - 1
        logs.append(logs[-1] + 2.0 * math.log(x) - math.log((2 * l + 1) * (2 * l + 3)))
    tails = np.logaddexp.accumulate(logs[::-1])[::-1]   # log of the sum over l' >= l
    return int(np.argmax(tails[1:] <= math.log(bound)))


def _layer_factor(grid: ArcGrid, lam: float) -> np.ndarray:
    """H with Im N = H H^T at lam > 0, N x q and Fortran-ordered.  About the
    centroid of the nodes, the addition theorem (Abramowitz-Stegun 10.1.45)
    gives sin(k|x - y|)/(4 pi |x - y|) = k sum_lm j_l(k|x|) j_l(k|y|)
    Y_lm(x^) Y_lm(y^) for k = sqrt(lam) and real orthonormal harmonics, so
    H_{i, lm} = sqrt(w k) j_l(k|x_i|) Y_lm(x^_i), over the q = (L + 1)^2 of
    degree l <= L = `_degree`.  Y_lm is sqrt(2) Re or Im of ((x + iy)/|x|)^m
    times the normalized P_l^m / sin^m by its recurrence in l."""
    k = math.sqrt(lam)
    x = grid.points - grid.points.mean(axis=0)
    rho = np.sqrt(np.einsum("ij,ij->i", x, x))
    kr, degree = k * rho, _degree(k * rho.max(), np.finfo(float).eps / grid.n)
    # sqrt(w k) j_l(k rho): the ratios j_l / j_{l-1} by the downward continued
    # fraction kr / (2l + 1 - kr r_{l+1}) (stable, no division by rho), their
    # running products scaled to sum_l (2l + 1) j_l^2 = 1 and signed so that
    # j_degree > 0, as it is below its first zero, which lies past every kr
    radial = np.empty((degree + 1, grid.n))
    ratio, norm = kr / (2 * degree + 3), np.full(grid.n, 2 * degree + 1.0)
    for l in range(degree, 0, -1):
        radial[l] = ratio = kr / (2 * l + 1 - kr * ratio)
        norm = (2 * l - 1) + ratio * ratio * norm
    flips = np.count_nonzero(radial[1:] < 0, axis=0) % 2
    radial[0] = (1.0 - 2.0 * flips) * np.sqrt(grid.weight * k / norm)
    np.cumprod(radial, axis=0, out=radial)
    x /= np.maximum(rho, np.finfo(float).tiny)[:, None]   # the centroid maps to 0
    rows, power, sectoral = [], np.ones(grid.n, dtype=complex), 1.0 / math.sqrt(4.0 * np.pi)
    for m in range(degree + 1):
        if m:
            power *= x[:, 0] + 1j * x[:, 1]
            sectoral *= math.sqrt((2 * m + 1) / (2 * m))
        azimuthal = [math.sqrt(2.0) * power.real, math.sqrt(2.0) * power.imag] if m else [1.0]
        before, legendre = 0.0, sectoral
        for l in range(m, degree + 1):
            if l > m:
                before, legendre = legendre, math.sqrt((4 * l * l - 1) / (l * l - m * m)) * (
                    x[:, 2] * legendre
                    - math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1)) * before)
            rows += [radial[l] * legendre * part for part in azimuthal]
    return np.array(rows).T


def _channel_space(factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues theta of H^T H above eps theta_1, nonincreasing, and
    the channels H V, columns of squared norm theta, each signed by its first
    entry of at least half the largest magnitude: the largest itself ties
    between mirror nodes of a symmetric curve, where rounding picks a sign."""
    gemm = scipy.linalg.get_blas_funcs("gemm", (factor,))
    theta, v = scipy.linalg.eigh(gemm(1.0, factor, factor, trans_a=1),
                                 overwrite_a=True, check_finite=False)
    p = int(np.sum(theta > np.finfo(float).eps * theta[-1]))
    theta, half = theta[:-p - 1:-1], gemm(1.0, factor, v[:, :-p - 1:-1])
    mags = np.abs(half)
    leads = np.argmax(mags >= 0.5 * mags.max(axis=0), axis=0)
    half *= np.sign(half[leads, np.arange(p)])
    return theta, half


def _factor(system: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Bunch-Kaufman LDL^T factors and pivots of a real or complex symmetric
    system, Fortran-ordered and factored in place, and LAPACK's 1-norm
    estimate of its condition number (inf at an exact zero pivot)."""
    sytrf, sytrf_lwork, sycon, lange = scipy.linalg.get_lapack_funcs(
        ("sytrf", "sytrf_lwork", "sycon", "lange"), (system,))
    lwork = int(sytrf_lwork(len(system))[0].real)
    anorm = lange("1", system)      # without the N x N temporary of np.abs
    factors, pivots, info = sytrf(system, lwork=lwork, overwrite_a=True)
    if info > 0:
        return factors, pivots, np.inf
    rcond, _ = sycon(factors, pivots, anorm)
    return factors, pivots, 1.0 / float(rcond) if rcond > 0 else np.inf


def _solve(factors: np.ndarray, pivots: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution of the `_factor`ed system for the columns of rhs."""
    sytrs = scipy.linalg.get_lapack_funcs("sytrs", (factors,))
    return sytrs(factors, pivots, rhs.astype(factors.dtype, copy=False))[0]


def _compression(factors: np.ndarray, pivots: np.ndarray, half: np.ndarray) -> np.ndarray:
    """half^T A^{-1} half for the `_factor`ed system A."""
    half = half.astype(factors.dtype, copy=False)
    gemm = scipy.linalg.get_blas_funcs("gemm", (half,))
    return gemm(1.0, half, _solve(factors, pivots, half), trans_a=1)


class _DenseSystem:
    """B(lam + i0) - alpha on any grid: the N x N table A_r, factored by
    LDL^T, and the channels of the factor H of Im N (module docstring)."""

    def __init__(self, grid: ArcGrid, lam: float, alpha: float):
        self.grid, self.lam, self.alpha = grid, lam, alpha
        self.factor = _layer_factor(grid, lam)
        self.channel_eigenvalues, self.half = _channel_space(self.factor)

    def _table(self) -> np.ndarray:
        system = scattering_layer_matrix(self.grid, self.lam)     # A_r, in place
        system[np.diag_indices(self.grid.n)] -= self.alpha
        return system

    def real(self) -> float:
        """The condition estimate of A_r, factored."""
        # symmetric, so its transpose is the same matrix in Fortran order
        self.factors, self.pivots, condition = _factor(self._table().T)
        return condition

    def cayley(self):
        """The condition estimate of I + iM, factored, and M (I + iM)^{-1}."""
        core = _compression(self.factors, self.pivots, self.half)
        core += core.T
        core *= 0.5                 # M, exactly symmetric
        cayley = 1j * core
        cayley[np.diag_indices(len(core))] += 1.0
        factors, pivots, condition = _factor(cayley)
        return condition, lambda: _solve(factors, pivots, core)

    def whole(self):
        """The condition estimate of A_r + i H H^T, factored in place of A_r,
        and H^T (A_r + i H H^T)^{-1} H."""
        self.factors = None
        system = 1j * scipy.linalg.blas.dgemm(1.0, self.factor, self.factor, trans_b=1)
        system += scattering_layer_matrix(self.grid, self.lam)
        system[np.diag_indices(self.grid.n)] -= self.alpha
        factors, pivots, condition = _factor(system.T)
        return condition, lambda: _compression(factors, pivots, self.half)


class _CircleSystem:
    """B(lam + i0) - alpha on a circle grid, where A_r and Im N are
    symmetric circulants with the real Fourier modes as eigenvectors: by
    wavenumber m their eigenvalues are a_m and c_m (`_circle_modes_at`), so
    S' is diagonal, s_m = (a_m - i c_m)/(a_m + i c_m), each wavenumber
    1 <= m < N/2 a cos/sin pair of channels.  The channels are sorted by
    c_m, nonincreasing, and cut at eps c_max as `_channel_space` cuts, and
    each condition is the exact 1-norm one, read from the modes."""

    def __init__(self, grid: ArcGrid, lam: float, alpha: float):
        self.n = grid.n
        real, self.im = _circle_modes_at(grid, lam)
        self.re = real - alpha
        waves = _circle_waves(grid.n)
        # stable, so the two entries of a pair stay adjacent
        waves = waves[np.argsort(-self.im[waves], kind="stable")]
        values = self.im[waves]
        self.waves = waves[:int(np.sum(values > np.finfo(float).eps * values[0]))]
        self.channel_eigenvalues = self.im[self.waves]

    def real(self) -> float:
        """The condition of A_r."""
        return _circulant_condition(self.re, self.n)

    def cayley(self):
        """The condition of the diagonal I + iM, M = diag(c_m/a_m) on the
        channels, and the channels' c/(a + ic)."""
        shifted = np.abs(1.0 + 1j * (self.channel_eigenvalues / self.re[self.waves]))
        return float(shifted.max() / shifted.min()), self._coupled

    def whole(self):
        """The condition of the circulant A_r + i Im N, modes a_m + i c_m,
        and the channels' c/(a + ic)."""
        return _circulant_condition(self.re + 1j * self.im, self.n), self._coupled

    def _coupled(self) -> np.ndarray:
        c = self.channel_eigenvalues
        return np.diag(c / (self.re[self.waves] + 1j * c))


def _circle_modes_at(grid: ArcGrid, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of Re B(lam + i0) and of Im N on a circle grid at
    lam > 0, by wavenumber 0, 1, ..., N/2, from two real FFTs: the
    energy-zero modes minus those of `_outgoing_smoothing_row`, refused
    where not finite as the table is, and the modes of the trapezoid row of
    w sin(k rho)/(4 pi rho) on the circle chords, w k/(4 pi) at rho = 0,
    which, even in rho, needs no kink correction."""
    real = _finite(_circle_modes(grid) - np.fft.rfft(_outgoing_smoothing_row(lam, grid)).real,
                   f"scattering lam={lam:g}")
    k, rho = math.sqrt(lam), grid.circle_chord_row[1:]
    row = np.empty(grid.n)
    row[0] = k
    row[1:] = np.sin(k * rho) / rho
    row *= grid.weight / (4.0 * np.pi)
    return real, np.fft.rfft(row).real


def _circulant_condition(modes: np.ndarray, n: int) -> float:
    """The 1-norm condition number of the N x N symmetric circulant with
    these eigenvalues, real or complex, by wavenumber 0, 1, ..., N/2: the
    1-norm of a circulant is the sum of its first row's magnitudes, and
    its inverse is the circulant of the reciprocal modes.  inf at an exact
    zero mode, and at a mode that is not finite (a nan alpha), as LAPACK's
    factorization reports for the dense table."""
    if not np.all(np.isfinite(modes) & (modes != 0)):
        return np.inf

    def norm(values):
        return np.sum(np.abs(np.fft.irfft(values.real, n) + 1j * np.fft.irfft(values.imag, n)))

    return float(norm(modes) * norm(1.0 / modes))


def _scattering_matrix(system, lam: float) -> tuple[np.ndarray, float]:
    """S' on all p channels of `system` and its condition.  The real path
    takes the condition of A_r and, where it is within CONDITION_LIMIT,
    multiplies in that of I + iM.  Where that product is past the limit
    (or not a number: at a pole of M, say), A_r + i H H^T is factored
    instead, and refused if past the limit itself."""
    condition = system.real()
    if condition <= CONDITION_LIMIT:
        cayley_condition, coupled = system.cayley()
        condition *= cayley_condition
    if not condition <= CONDITION_LIMIT:
        # the real path cannot vouch for the system: factor it whole
        condition, coupled = system.whole()
        if not condition <= CONDITION_LIMIT:
            kind = "exactly" if condition == np.inf else "numerically"
            raise NumericsError(
                f"system B(lam + i0) - alpha is {kind} singular at lam={lam:g} "
                f"(condition {condition:.2e}); energy near the exceptional set")
    block = -2j * coupled()
    block[np.diag_indices(len(block))] += 1.0
    return block, condition


def _widened(block: np.ndarray, retained: int, lam: float,
             condition: float) -> tuple[np.ndarray, float]:
    """The leading g x g part of S' and its unitarity defect, for the first
    g from `retained` on with a defect below UNITARITY_TOL; refused where
    even all p channels leave a larger one."""
    p = len(block)
    zgemm = scipy.linalg.get_blas_funcs("gemm", (block,))
    for g in range(retained, p + 1):
        gram = zgemm(1.0, block[:g, :g], block[:g, :g], trans_a=2)
        gram[np.diag_indices(g)] -= 1.0
        defect = float(scipy.linalg.svdvals(gram, check_finite=False)[0])
        if defect < UNITARITY_TOL:
            return block[:g, :g].copy(), defect
    raise NumericsError(
        f"scattering block at lam={lam:g} not unitary even on all {p} "
        f"channels (defect {defect:.2e}, condition {condition:.2e}); it cannot "
        "be widened until unitary")


def scattering_block(grid: ArcGrid, lam: float, alpha: float,
                     rank_tol: float = RANK_TOL) -> ScatteringBlock:
    """Assemble S'(lam) at a finite energy lam >= 0 and coupling alpha.

    On a circle grid S' is diagonal on the Fourier channels
    (`_CircleSystem`); elsewhere it comes, on all p channels of
    `_channel_space`, from one real LDL^T of A_r = Re B(lam + i0) - alpha
    and the p x p Cayley solve of the module docstring (`_DenseSystem`).
    Both follow one condition rule (`_scattering_matrix`).  The retained
    block is its leading g x g part: g starts at the count of channel
    eigenvalues above rank_tol times the top one and grows along them
    until the block's unitarity defect is below UNITARITY_TOL, or the
    block is refused (`_widened`).
    """
    if not 0 <= lam < math.inf:
        raise ConfigError(f"scattering block is defined for finite lam >= 0, got lam={lam:g}")
    check_tolerance("rank_tol", rank_tol)
    # at lam = 0 Im N vanishes and no channel is open: no table is built
    system = ((_CircleSystem if grid.curve.is_circle else _DenseSystem)(grid, lam, alpha)
              if lam > 0 else None)
    vals = system.channel_eigenvalues if lam > 0 else np.zeros(0)
    retained = int(np.sum(vals > rank_tol * vals[0])) if len(vals) else 0
    if retained == 0:
        return ScatteringBlock(lam=lam, alpha=alpha, retained_dim=0,
                               matrix=np.zeros((0, 0), dtype=complex), unitarity_defect=0.0,
                               channel_eigenvalues=vals, min_channel_eigenvalue=0.0,
                               condition=0.0)
    block, condition = _scattering_matrix(system, lam)
    matrix, defect = _widened(block, retained, lam, condition)
    return ScatteringBlock(lam=lam, alpha=alpha, retained_dim=len(matrix), matrix=matrix,
                           unitarity_defect=defect, channel_eigenvalues=vals,
                           min_channel_eigenvalue=0.0, condition=condition)
