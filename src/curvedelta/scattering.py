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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import kernel_matrix
from .curves import ArcGrid, _kept
from .errors import ConfigError, NumericsError
from .kernels import _real_energy, scattering_kernel
from .spectral import _Operator

RANK_TOL = 1e-10          # relative cutoff defining the retained channel space
# Flags lam at or near the exceptional set.  It bounds LAPACK's 1-norm
# estimate of the condition number; on the circle and the 2:1 ellipse at
# lam in {0.5, 1, 2} (N = 256 and 1024) the estimate reads 2.1-3.5 times
# the 2-norm condition number, well within the decade this limit allows.
CONDITION_LIMIT = 1e12
ETA_MARGIN = 1e-6         # required spectral distance of alpha from B_eta
SKETCH_WIDTH = 48         # start width of the channel sketch; doubled as needed
PSD_SHIFT = 1e-11         # Im N + delta I, delta = PSD_SHIFT x mean diagonal,
                          # must have a Cholesky factorization


def scattering_layer_matrix(grid: ArcGrid, lam, eta: float) -> np.ndarray:
    """Trapezoid matrix of the scattering kernel; complex symmetric for lam > 0.

    The diagonal takes the analytic kernel limit plus the kink correction
    with slope (eta - lam)/(8 pi); the correction is real, so the imaginary
    part of the matrix is exactly the positive semidefinite trapezoid matrix
    of sin(sqrt(lam) r)/(4 pi r).  Built a row block at a time.
    """
    if eta >= 0:
        raise ConfigError("reference energy eta must be negative")
    slope = (eta - complex(lam).real) / (8.0 * np.pi)
    mat = kernel_matrix(grid, lambda r: scattering_kernel(lam, eta, r), slope,
                        float if _real_energy(lam) else complex)
    if not np.all(np.isfinite(mat)):
        raise ConfigError(f"scattering lam={lam} eta={eta:g}: non-finite matrix entries")
    return mat


def _reference_boundary(grid: ArcGrid, eta: float) -> _Operator:
    """B(eta), kept on the grid under eta: the choice of eta and every block
    of a run at that eta share one operator, so one assembly."""
    return _kept(grid, "reference_boundary", eta, lambda: _Operator(eta, grid))


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
    retained_dim: int
    matrix: np.ndarray            # (g, g) complex
    unitarity_defect: float       # || S'* S' - I ||_2 on the retained space
    channel_eigenvalues: np.ndarray  # Ritz values of Im N on the sketch,
                                     # nonincreasing (empty at lam = 0)
    min_channel_eigenvalue: float  # -delta, a certified lower bound on the
                                   # spectrum of Im N (0 at lam = 0)
    condition: float              # LAPACK 1-norm estimate of the condition
                                  # number of N + B_eta - alpha (0 if g = 0)


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
    # sign fixed by the largest-magnitude entry, not by LAPACK's choice
    peaks = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(width)]
    vecs *= np.sign(peaks)
    return theta, vecs, -delta


def scattering_block(grid: ArcGrid, lam: float, alpha: float, eta: float,
                     rank_tol: float = RANK_TOL) -> ScatteringBlock:
    """Assemble S'(lam) at energy lam >= 0, coupling alpha, reference eta.

    The channel space is the span of the Ritz vectors of Im N with Ritz
    values above rank_tol times the top one, from a certified sketch
    (`_channel_space`).  B(eta) is assembled once per grid and eta
    (`_reference_boundary`).
    """
    if lam < 0:
        raise ConfigError("scattering block is defined for lam >= 0")
    n_mat = scattering_layer_matrix(grid, lam, eta)
    im = np.asfortranarray(n_mat.imag)
    # at lam = 0 Im N vanishes and no channel is open
    vals, vecs, floor = _channel_space(im, rank_tol) if im.any() else (np.zeros(0), None, 0.0)
    del im
    retained = int(np.sum(vals > rank_tol * vals[0])) if len(vals) and vals[0] > 0 else 0
    if retained == 0:
        return ScatteringBlock(lam=lam, eta=eta, alpha=alpha, retained_dim=0,
                               matrix=np.zeros((0, 0), dtype=complex),
                               unitarity_defect=0.0,
                               channel_eigenvalues=vals,
                               min_channel_eigenvalue=floor,
                               condition=0.0)

    system = n_mat                  # N + B_eta - alpha, in the layer matrix's storage
    system += _reference_boundary(grid, eta).matrix
    system[np.diag_indices(grid.n)] -= alpha
    sytrf, sytrf_lwork, sycon, sytrs = scipy.linalg.get_lapack_funcs(
        ("sytrf", "sytrf_lwork", "sycon", "sytrs"), (system,))
    # the system is exactly complex symmetric: one Bunch-Kaufman LDL^T
    # factorization gives both the condition estimate and the solve, and
    # its transpose is the same matrix in Fortran order, factored in place
    lwork = int(sytrf_lwork(grid.n)[0].real)
    anorm = np.linalg.norm(system, 1)
    factors, pivots, info = sytrf(system.T, lwork=lwork, overwrite_a=True)
    if info > 0:
        raise NumericsError(
            f"system N + B - alpha is exactly singular at lam={lam:g} "
            f"(zero pivot {info}); energy on the exceptional set")
    rcond, _ = sycon(factors, pivots, anorm)
    condition = 1.0 / float(rcond) if rcond > 0 else np.inf
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise NumericsError(
            f"system N + B - alpha is numerically singular at lam={lam:g} "
            f"(condition {condition:.2e}); energy near the exceptional set")

    # columns are sqrt(Im N) modes
    half = (vecs[:, :retained] * np.sqrt(vals[:retained])).astype(complex)
    solved, _ = sytrs(factors, pivots, half)
    zgemm = scipy.linalg.get_blas_funcs("gemm", (half,))
    block = np.eye(retained, dtype=complex) - 2j * zgemm(1.0, half, solved, trans_a=1)
    gram = zgemm(1.0, block, block, trans_a=2)
    gram[np.diag_indices(retained)] -= 1.0
    defect = float(scipy.linalg.svdvals(gram, check_finite=False)[0])
    return ScatteringBlock(lam=lam, eta=eta, alpha=alpha, retained_dim=retained,
                           matrix=block, unitarity_defect=defect,
                           channel_eigenvalues=vals,
                           min_channel_eigenvalue=floor,
                           condition=condition)
