"""Scattering matrix block on the channel space spanned by Im N.

For energies lam >= 0 the operator N(lam + i0) with kernel

    (e^{i sqrt(lam) r} - e^{i sqrt(eta) r}) / (4 pi r),   eta < 0 fixed,

acts on the grid.  Its imaginary part is positive semidefinite and of
rapidly decaying rank; the nontrivial scattering block acts on the
retained range of Im N as

    S' = I - 2i sqrt(Im N) (N + B_eta - alpha)^{-1} sqrt(Im N),

with B_eta the real boundary operator at the reference energy, unitary on
that subspace away from exceptional energies.  N(lam) + B_eta is
B(lam + i0), so the system does not depend on eta: where the smoothing
row's cap is off (w sqrt(-eta) <= 6) eta moves only its rounding, and
`choose_reference_energy` takes the first candidate without reading the
spectrum of B_eta.  Only Re N is tabulated, and
Im N = H H^T for the map H of the grid onto spherical waves.  With
A_r = Re N + B_eta - alpha real symmetric, the Woodbury identity gives

    H^T (A_r + i H H^T)^{-1} H = M (I + iM)^{-1},   M = H^T A_r^{-1} H,

so one real LDL^T of A_r and one p x p complex symmetric solve give S' on
the p channels of H (`_channel_space`), a Cayley transform of the real
symmetric M.  The retained block is its leading part, widened along the
channels until it is unitary to UNITARITY_TOL: its defect is the flux it
loses to the channels left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import kernel_matrix
from .curves import ArcGrid, _kept
from .errors import ConfigError, NumericsError
from .kernels import scattering_kernel
from .spectral import _operator

RANK_TOL = 1e-10          # relative cutoff defining the retained channel space
# Flags lam at or near the exceptional set.  It bounds the block's
# `condition`, LAPACK's 1-norm estimate for A_r times that for I + iM; on
# the circle and the 2:1 ellipse at lam in {0.5, 1, 2} (N = 256 and 1024)
# the product reads 2.1-4.7 times the 2-norm condition number of
# N + B_eta - alpha, and 0.98-1.36 times the 1-norm estimate of that
# complex system, well within the decade this limit allows.
CONDITION_LIMIT = 1e12
UNITARITY_TOL = 1e-6      # largest unitarity defect of a returned block


def scattering_layer_matrix(grid: ArcGrid, lam, eta: float) -> np.ndarray:
    """Trapezoid matrix Re N of the scattering kernel, real symmetric, built
    a row block at a time.  The diagonal takes the analytic kernel limit
    plus the kink correction of slope (eta - lam)/(8 pi), which is real, so
    Im N is exactly the trapezoid matrix of sin(sqrt(lam) r)/(4 pi r) for
    lam >= 0, which the block reads through its factor."""
    if not eta < 0:
        raise ConfigError("reference energy eta must be negative")
    slope = (eta - complex(lam).real) / (8.0 * np.pi)
    re = kernel_matrix(grid, lambda r: scattering_kernel(lam, eta, r), slope)
    if not np.isfinite(re).all():
        raise ConfigError(f"scattering lam={lam} eta={eta:g}: non-finite matrix entries")
    return re


def _reference_boundary(grid: ArcGrid, eta: float) -> np.ndarray:
    """The read-only matrix of B(eta), kept on the grid under eta, so every
    block of a run at that eta shares one assembly."""
    return _kept(grid, "reference_boundary", eta, lambda: _operator(eta, grid).matrix)


def choose_reference_energy(candidates) -> float:
    """The first candidate eta, after every one is checked negative (nan is
    refused too).  The scattering system does not depend on eta (module
    docstring), so no B(eta) is built to choose it."""
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
    eta: float
    alpha: float
    retained_dim: int             # g, widened past rank_tol where needed
    matrix: np.ndarray            # (g, g) complex
    unitarity_defect: float       # || S'* S' - I ||_2 on the retained space,
                                  # below UNITARITY_TOL
    channel_eigenvalues: np.ndarray  # the p eigenvalues of H^T H above eps
                                     # theta_1, nonincreasing (none at lam = 0)
    min_channel_eigenvalue: float  # 0: Im N = H H^T is positive semidefinite
    condition: float              # LAPACK 1-norm condition estimates of
                                  # A_r and I + iM, multiplied; that of
                                  # A_r + i H H^T where it is factored (0 if g = 0)


def _degree(x: float, bound: float) -> int:
    """Smallest L with sum_{l > L} (2l + 1) x^{2l} / ((2l + 1)!!)^2 <= bound,
    which bounds sum_{l > L} (2l + 1) j_l(y)^2 for y <= x.  Summed in logs,
    past l = x (where each term is below a quarter of the one before) until
    the terms fall below eps times the bound."""
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


def scattering_block(grid: ArcGrid, lam: float, alpha: float, eta: float,
                     rank_tol: float = RANK_TOL) -> ScatteringBlock:
    """Assemble S'(lam) at energy lam >= 0, coupling alpha, reference eta.

    S' on all p channels of `_channel_space` comes from one real LDL^T of
    A_r and the p x p Cayley solve of the module docstring.  The retained
    block is its leading g x g part: g starts at the count of channel
    eigenvalues above rank_tol times the top one and grows along them until
    the block's unitarity defect is below UNITARITY_TOL, or the block is
    refused.  Where A_r or I + iM is singular or the product of their
    condition estimates is past CONDITION_LIMIT (at a pole of M, say),
    A_r + i H H^T is factored instead, and refused if past that limit
    itself.  B(eta) is assembled once per grid and eta.
    """
    if lam < 0:
        raise ConfigError("scattering block is defined for lam >= 0")
    if not eta < 0:
        raise ConfigError("reference energy eta must be negative")
    # at lam = 0 Im N vanishes and no channel is open: no table is built
    factor = _layer_factor(grid, lam) if lam > 0 else None
    vals, half = _channel_space(factor) if lam > 0 else (np.zeros(0), None)
    retained = int(np.sum(vals > rank_tol * vals[0])) if len(vals) else 0
    if retained == 0:
        return ScatteringBlock(lam=lam, eta=eta, alpha=alpha, retained_dim=0,
                               matrix=np.zeros((0, 0), dtype=complex), unitarity_defect=0.0,
                               channel_eigenvalues=vals, min_channel_eigenvalue=0.0,
                               condition=0.0)

    p = len(vals)
    boundary = _reference_boundary(grid, eta)   # built before Re N: a lower peak
    re = scattering_layer_matrix(grid, lam, eta)
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
        system = 1j * scipy.linalg.blas.dgemm(1.0, factor, factor, trans_b=1)
        system += scattering_layer_matrix(grid, lam, eta)
        system += boundary
        system[np.diag_indices(grid.n)] -= alpha
        factors, pivots, condition = _factor(system.T)
        if not condition <= CONDITION_LIMIT:
            kind = "exactly" if condition == np.inf else "numerically"
            raise NumericsError(
                f"system N + B - alpha is {kind} singular at lam={lam:g} "
                f"(condition {condition:.2e}); energy near the exceptional set")
        coupled = _compression(factors, pivots, half)

    block = -2j * coupled           # S' on all p channels
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
            f"scattering block at lam={lam:g} not unitary even on all {p} "
            f"channels (defect {defect:.2e}, condition {condition:.2e}); it cannot "
            "be widened until unitary")
    return ScatteringBlock(lam=lam, eta=eta, alpha=alpha, retained_dim=g,
                           matrix=block[:g, :g].copy(), unitarity_defect=defect,
                           channel_eigenvalues=vals, min_channel_eigenvalue=0.0,
                           condition=condition)
