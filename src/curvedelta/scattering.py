"""Scattering matrix block on the channel space spanned by Im N.

For energies lam >= 0 the operator N(lam + i0) with kernel

    (e^{i sqrt(lam) r} - e^{i sqrt(eta) r}) / (4 pi r),   eta < 0 fixed,

is assembled on the grid.  Its imaginary part is positive semidefinite and
of rapidly decaying rank; the nontrivial scattering block acts on the
retained range of Im N as

    S' = I - 2i sqrt(Im N) (N + B_eta - alpha)^{-1} sqrt(Im N),

with B_eta the real boundary operator at the reference energy.  S' is
unitary on that subspace away from exceptional energies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import boundary_matrix, kink_correction
from .curves import ArcGrid, _block_diagonal, _blockwise
from .errors import ConfigError, NumericsError
from .kernels import _real_energy, scattering_kernel
from .spectral import boundary_spectrum

RANK_TOL = 1e-10          # relative cutoff defining the retained channel space
# Flags lam at or near the exceptional set.  It bounds LAPACK's 1-norm
# estimate of the condition number; on the circle and the 2:1 ellipse at
# lam in {0.5, 1, 2} (N = 256 and 1024) the estimate reads 2.1-3.5 times
# the 2-norm condition number, well within the decade this limit allows.
CONDITION_LIMIT = 1e12
ETA_MARGIN = 1e-6         # required spectral distance of alpha from B_eta


def scattering_layer_matrix(grid: ArcGrid, lam, eta: float) -> np.ndarray:
    """Trapezoid matrix of the scattering kernel; complex symmetric for lam > 0.

    The diagonal takes the analytic kernel limit plus the kink correction
    with slope (eta - lam)/(8 pi); the correction is real, so the imaginary
    part of the matrix is exactly the positive semidefinite trapezoid matrix
    of sin(sqrt(lam) r)/(4 pi r).  Built a row block at a time.
    """
    if eta >= 0:
        raise ConfigError("reference energy eta must be negative")
    w = grid.weight
    lamc = complex(lam)
    slope = (eta - lamc.real) / (8.0 * np.pi)
    corr = kink_correction(slope, w)

    def block(rows, cols):
        out = scattering_kernel(lam, eta, grid.chord_block(rows, cols))
        out *= w
        out[_block_diagonal(rows, cols)] += corr
        return out

    mat = _blockwise(grid.n, grid.n, block, float if _real_energy(lam) else complex,
                     symmetric=True)
    if not np.all(np.isfinite(mat)):
        raise ConfigError(f"scattering lam={lam} eta={eta:g}: non-finite matrix entries")
    return mat


def choose_reference_energy(grid: ArcGrid, alpha: float, candidates) -> float:
    """First candidate eta < 0 whose boundary operator keeps alpha at a
    spectral distance above the invertibility margin."""
    candidates = list(candidates)
    if not candidates:
        raise ConfigError("empty candidate list for the reference energy")
    for eta in candidates:
        if eta >= 0:
            raise ConfigError("reference energy candidates must be negative")
        spec = boundary_spectrum(eta, grid)
        if np.min(np.abs(spec.values - alpha)) > ETA_MARGIN:
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
    channel_eigenvalues: np.ndarray  # eigenvalues of Im N, nonincreasing
    min_channel_eigenvalue: float
    condition: float              # LAPACK 1-norm estimate of the condition
                                  # number of N + B_eta - alpha (0 if g = 0)


def scattering_block(grid: ArcGrid, lam: float, alpha: float, eta: float,
                     rank_tol: float = RANK_TOL) -> ScatteringBlock:
    """Assemble S'(lam) at energy lam >= 0, coupling alpha, reference eta."""
    if lam < 0:
        raise ConfigError("scattering block is defined for lam >= 0")
    n_mat = scattering_layer_matrix(grid, lam, eta)
    b_mat = boundary_matrix(eta, grid)

    vals, vecs = scipy.linalg.eigh(n_mat.imag)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    top = vals[0] if len(vals) else 0.0
    if top <= 0.0:
        retained = 0
    else:
        retained = int(np.sum(vals > rank_tol * top))
    channel_vals = vals.copy()
    min_channel = float(vals[-1]) if len(vals) else 0.0

    if retained == 0:
        return ScatteringBlock(lam=lam, eta=eta, alpha=alpha, retained_dim=0,
                               matrix=np.zeros((0, 0), dtype=complex),
                               unitarity_defect=0.0,
                               channel_eigenvalues=channel_vals,
                               min_channel_eigenvalue=min_channel,
                               condition=0.0)

    system = n_mat + b_mat - alpha * np.eye(grid.n)
    sytrf, sytrf_lwork, sycon, sytrs = scipy.linalg.get_lapack_funcs(
        ("sytrf", "sytrf_lwork", "sycon", "sytrs"), (system,))
    # the system is exactly complex symmetric: one Bunch-Kaufman LDL^T
    # factorization gives both the condition estimate and the solve
    lwork = int(sytrf_lwork(grid.n)[0].real)
    factors, pivots, info = sytrf(system, lwork=lwork)
    if info > 0:
        raise NumericsError(
            f"system N + B - alpha is exactly singular at lam={lam:g} "
            f"(zero pivot {info}); energy on the exceptional set")
    rcond, _ = sycon(factors, pivots, np.linalg.norm(system, 1))
    condition = 1.0 / float(rcond) if rcond > 0 else np.inf
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise NumericsError(
            f"system N + B - alpha is numerically singular at lam={lam:g} "
            f"(condition {condition:.2e}); energy near the exceptional set")

    sqrt_vals = np.sqrt(vals[:retained])
    half = vecs[:, :retained] * sqrt_vals     # columns are sqrt(Im N) modes
    solved, _ = sytrs(factors, pivots, half.astype(complex))
    block = np.eye(retained, dtype=complex) - 2j * (half.T @ solved)
    defect = float(np.linalg.norm(block.conj().T @ block - np.eye(retained), 2))
    return ScatteringBlock(lam=lam, eta=eta, alpha=alpha, retained_dim=retained,
                           matrix=block, unitarity_defect=defect,
                           channel_eigenvalues=channel_vals,
                           min_channel_eigenvalue=min_channel,
                           condition=condition)
