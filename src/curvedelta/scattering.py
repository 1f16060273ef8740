"""Scattering matrix block on the channel space spanned by Im N.

For energies lam >= 0 the operator N(lam + i0) with kernel

    (e^{i sqrt(lam) r} - e^{i sqrt(eta) r}) / (4 pi r),   eta < 0 fixed,

is assembled on the grid.  Its imaginary part is positive semidefinite and
of rapidly decaying rank; the nontrivial scattering block acts on the
retained range of Im N as

    S' = I - 2i sqrt(Im N) (N + B_eta - alpha)^{-1} sqrt(Im N),

with B_eta the real boundary operator at the reference energy.  S' is
unitary on that subspace away from exceptional energies.  The retained
range comes from a certified Gaussian sketch of Im N (`_channel_space`),
not from a full eigendecomposition: the numerical rank of Im N is set by
sqrt(lam) times the curve's diameter, not by N.

The system is never factored in complex arithmetic unless it must be.
With Im N = H H^T on the p sketch channels and A_r = Re N + B_eta - alpha
real symmetric, the Woodbury identity gives

    H^T (A_r + i H H^T)^{-1} H = M (I + iM)^{-1},   M = H^T A_r^{-1} H,

so one real LDL^T of A_r and one p x p complex symmetric solve give S' on
all p channels, a Cayley transform of the real symmetric M.  The retained
block is its leading part, widened along the Ritz values until it is
unitary to UNITARITY_TOL: its defect is the flux it loses to the channels
left out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import kernel_matrix
from .curves import ArcGrid, _kept
from .errors import ConfigError, NumericsError
from .kernels import scattering_kernel
from .spectral import _Operator, _operator

RANK_TOL = 1e-10          # relative cutoff defining the retained channel space
# Flags lam at or near the exceptional set.  It bounds the block's
# `condition`, LAPACK's 1-norm estimate for A_r times that for I + iM; on
# the circle and the 2:1 ellipse at lam in {0.5, 1, 2} (N = 256 and 1024)
# the product reads 2.1-4.7 times the 2-norm condition number of
# N + B_eta - alpha, and 0.98-1.36 times the 1-norm estimate of that
# complex system, well within the decade this limit allows.
CONDITION_LIMIT = 1e12
UNITARITY_TOL = 1e-6      # largest unitarity defect of a returned block
ETA_MARGIN = 1e-6         # required spectral distance of alpha from B_eta
SKETCH_WIDTH = 48         # start width of the channel sketch; doubled as needed
PSD_SHIFT = 1e-11         # Im N + delta I, delta = PSD_SHIFT x mean diagonal,
                          # must have a Cholesky factorization


def scattering_layer_matrix(grid: ArcGrid, lam, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid matrices Re N and Im N of the scattering kernel: two real
    symmetric tables, built in one row-blocked pass over the chords.

    The diagonal takes the analytic kernel limit plus the kink correction
    with slope (eta - lam)/(8 pi); the correction is real, so Im N is
    exactly the positive semidefinite trapezoid matrix of
    sin(sqrt(lam) r)/(4 pi r) for lam >= 0.
    """
    if eta >= 0:
        raise ConfigError("reference energy eta must be negative")
    slope = (eta - complex(lam).real) / (8.0 * np.pi)
    re, im = kernel_matrix(grid, lambda r: scattering_kernel(lam, eta, r), slope, tables=2)
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ConfigError(f"scattering lam={lam} eta={eta:g}: non-finite matrix entries")
    return re, im


def _reference_boundary(grid: ArcGrid, eta: float) -> _Operator:
    """B(eta), kept on the grid under eta: the choice of eta and every block
    of a run at that eta share one operator, so one assembly."""
    return _kept(grid, "reference_boundary", eta, lambda: _operator(eta, grid))


def choose_reference_energy(grid: ArcGrid, alpha: float, candidates) -> float:
    """First candidate eta < 0 (all checked before any B(eta) is built) whose
    boundary operator keeps alpha farther than the margin from its spectrum."""
    candidates = list(candidates)
    if not candidates:
        raise ConfigError("empty candidate list for the reference energy")
    if any(eta >= 0 for eta in candidates):
        raise ConfigError("reference energy candidates must be negative")
    for eta in candidates:
        if _reference_boundary(grid, eta).clear_of(alpha, ETA_MARGIN):
            return float(eta)
    raise NumericsError("no candidate reference energy keeps alpha away from "
                        "the spectrum")


@dataclass(frozen=True)
class ScatteringBlock:
    """Unitary block of the scattering matrix on the retained channel space."""

    lam: float
    eta: float
    alpha: float
    retained_dim: int             # g, widened past rank_tol where needed
    matrix: np.ndarray            # (g, g) complex
    unitarity_defect: float       # || S'* S' - I ||_2 on the retained space,
                                  # below UNITARITY_TOL
    channel_eigenvalues: np.ndarray  # Ritz values of Im N on the sketch,
                                     # nonincreasing (empty at lam = 0)
    min_channel_eigenvalue: float  # -delta, a certified lower bound on the
                                   # spectrum of Im N (0 at lam = 0)
    condition: float              # LAPACK 1-norm condition estimates of
                                  # A_r and I + iM, multiplied; that of
                                  # N + B_eta - alpha where the complex
                                  # system is factored (0 if g = 0)


def _channel_space(im: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Ritz values of Im N, nonincreasing, their channel vectors (columns),
    and the certified lower bound -delta on the spectrum of Im N.

    `im` is Im N, Fortran-ordered; it is overwritten.  A Gaussian sketch
    Q = qr(Im N Omega) of width p gives T = Q^T Im N Q and its Ritz pairs.
    With Im N >= -delta I certified (below), the compression of Im N to
    range(Q)-perp has top eigenvalue at most its trace plus (N - p) delta,
    and its coupling to range(Q) is at most ||Im N Q - Q T||_F; by Weyl's
    inequality no eigenvalue of Im N above the cutoff rank_tol * theta_1 is
    missed once those add up to less than the cutoff.  Otherwise p doubles,
    up to p = N, where Q is a full basis.
    """
    n = im.shape[0]
    gemm, nrm2 = scipy.linalg.get_blas_funcs(("gemm", "nrm2"), (im,))
    trace = float(np.trace(im))
    delta = PSD_SHIFT * trace / n
    width = min(SKETCH_WIDTH, n)
    while True:
        # drawn (p, N) and transposed, so the sketch is Fortran-ordered for gemm
        omega = np.random.default_rng(0).standard_normal((width, n)).T
        q = scipy.linalg.qr(gemm(1.0, im, omega), mode="economic", overwrite_a=True,
                            check_finite=False)[0]
        im_q = gemm(1.0, im, q)
        t = gemm(1.0, q, im_q, trans_a=1)
        theta, u = scipy.linalg.eigh(t, check_finite=False)
        theta, u = theta[::-1], u[:, ::-1]
        coupling = nrm2(gemm(-1.0, q, t, beta=1.0, c=im_q, overwrite_c=True).ravel("F"))
        uncaptured = trace - float(np.sum(theta)) + (n - width) * delta
        if width == n or uncaptured + coupling < rank_tol * theta[0]:
            break
        width = min(2 * width, n)
    im[np.diag_indices(n)] += delta
    try:
        scipy.linalg.cholesky(im, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericsError(
            f"Im N is not positive semidefinite: Im N + {delta:.2e} I has no "
            "Cholesky factorization") from exc
    vecs = gemm(1.0, q, u)
    # sign fixed by the first entry of at least half the largest magnitude,
    # not by LAPACK's choice; the largest entry itself ties between mirror
    # nodes of a symmetric curve, where rounding would pick the sign
    mags = np.abs(vecs)
    leads = np.argmax(mags >= 0.5 * mags.max(axis=0), axis=0)
    vecs *= np.sign(vecs[leads, np.arange(width)])
    return theta, vecs, -delta


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


def scattering_block(grid: ArcGrid, lam: float, alpha: float, eta: float,
                     rank_tol: float = RANK_TOL) -> ScatteringBlock:
    """Assemble S'(lam) at energy lam >= 0, coupling alpha, reference eta.

    H holds the p Ritz vectors of the certified sketch of Im N
    (`_channel_space`), each scaled by the square root of its Ritz value
    (clipped at 0).  S' on all p channels comes from one real LDL^T of A_r
    and the p x p Cayley solve of the module docstring.  The retained block
    is its leading g x g part: g starts at the count of Ritz values above
    rank_tol times the top one and grows along them until the block's
    unitarity defect is below UNITARITY_TOL, or the block is refused.
    Where A_r or I + iM is singular or the product of their condition
    estimates is past CONDITION_LIMIT (at a pole of M, say), the complex
    system N + B_eta - alpha is factored instead, with all of Im N, and
    refused if it is past that limit itself.  B(eta) is assembled once per
    grid and eta (`_reference_boundary`).
    """
    if lam < 0:
        raise ConfigError("scattering block is defined for lam >= 0")
    re, im = scattering_layer_matrix(grid, lam, eta)
    # at lam = 0 Im N vanishes and no channel is open; im.T is Im N in
    # Fortran order, and the sketch overwrites it
    vals, vecs, floor = _channel_space(im.T, rank_tol) if im.any() else (np.zeros(0), None, 0.0)
    del im
    retained = int(np.sum(vals > rank_tol * vals[0])) if len(vals) and vals[0] > 0 else 0
    if retained == 0:
        return ScatteringBlock(lam=lam, eta=eta, alpha=alpha, retained_dim=0,
                               matrix=np.zeros((0, 0), dtype=complex),
                               unitarity_defect=0.0,
                               channel_eigenvalues=vals,
                               min_channel_eigenvalue=floor,
                               condition=0.0)

    p = len(vals)
    # the sketch's Ritz values can fall below 0 by rounding
    half = vecs * np.sqrt(np.maximum(vals, 0.0))
    boundary = _reference_boundary(grid, eta).matrix
    system = re                     # A_r = Re N + B_eta - alpha, in place
    system += boundary
    system[np.diag_indices(grid.n)] -= alpha
    # symmetric, so its transpose is the same matrix in Fortran order
    factors, pivots, condition = _factor(system.T)
    if condition <= CONDITION_LIMIT:
        core = _compression(factors, pivots, half)
        core += core.T
        core *= 0.5                 # M, exactly symmetric
        cayley = 1j * core
        cayley[np.diag_indices(p)] += 1.0
        cayley_factors, cayley_pivots, cayley_condition = _factor(cayley)
        condition *= cayley_condition
        if condition <= CONDITION_LIMIT:
            coupled = _solve(cayley_factors, cayley_pivots, core)   # M (I + iM)^{-1}
    if not condition <= CONDITION_LIMIT:
        # the real path cannot vouch for the system: factor it whole
        del re, system, factors
        re, im = scattering_layer_matrix(grid, lam, eta)
        system = 1j * im
        system += re
        system += boundary
        del re, im
        system[np.diag_indices(grid.n)] -= alpha
        factors, pivots, condition = _factor(system.T)
        if not condition <= CONDITION_LIMIT:
            kind = "exactly" if condition == np.inf else "numerically"
            raise NumericsError(
                f"system N + B - alpha is {kind} singular at lam={lam:g} "
                f"(condition {condition:.2e}); energy near the exceptional set")
        coupled = _compression(factors, pivots, half)

    block = -2j * coupled           # S' on all p sketch channels
    block[np.diag_indices(p)] += 1.0
    zgemm = scipy.linalg.get_blas_funcs("gemm", (block,))
    for g in range(retained, p + 1):
        gram = zgemm(1.0, block[:g, :g], block[:g, :g], trans_a=2)
        gram[np.diag_indices(g)] -= 1.0
        defect = float(scipy.linalg.svdvals(gram, check_finite=False)[0])
        if defect < UNITARITY_TOL:
            break
    else:
        raise NumericsError(
            f"scattering block at lam={lam:g} not unitary even on all {p} sketch "
            f"channels (defect {defect:.2e}, condition {condition:.2e}); it cannot "
            "be widened until unitary")
    return ScatteringBlock(lam=lam, eta=eta, alpha=alpha, retained_dim=g,
                           matrix=block[:g, :g].copy(), unitarity_defect=defect,
                           channel_eigenvalues=vals,
                           min_channel_eigenvalue=floor,
                           condition=condition)
