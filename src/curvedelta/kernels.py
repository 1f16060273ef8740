"""Pointwise integral kernels.

All kernels derive from the free-space resolvent kernel e^{i sqrt(lam) r}/(4 pi r)
with the square root taken on the branch with nonnegative imaginary part;
values on the positive real axis are the boundary values from above, so
sqrt(lam + i0) is real positive for lam >= 0 and i sqrt(lam) = -sqrt(-lam)
for lam < 0.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConfigError

# switch to a 3-term Taylor expansion once |exponent| * r drops below this,
# to avoid cancellation in differences of exponentials
_SERIES_CUTOFF = 1e-6


def _spectral_sqrt(lam) -> complex:
    """sqrt(lam) with Im >= 0; boundary values on [0, inf) from above."""
    w = cmath.sqrt(lam)
    if w.imag < 0.0:
        w = -w
    return w


def green_kernel(lam, r):
    """Free resolvent kernel e^{-sqrt(-lam) r} / (4 pi r) at real lam <= 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ConfigError("green_kernel requires r > 0")
    if lam > 0:
        raise ConfigError("green_kernel requires lam <= 0")
    out = np.exp(-math.sqrt(-lam) * r) / (4.0 * np.pi * r)
    return float(out) if out.ndim == 0 else out


def smoothing_kernel(lam, r):
    """(1 - e^{-sqrt(-lam) r}) / (4 pi r), extended by sqrt(-lam)/(4 pi) at r = 0.

    Bounded by sqrt(-lam)/(4 pi) everywhere; identically zero for lam = 0.
    """
    if lam > 0:
        raise ConfigError("smoothing_kernel requires lam <= 0")
    r = np.asarray(r, dtype=float)
    a = math.sqrt(-lam)
    x = a * r
    small = x < _SERIES_CUTOFF
    safe_r = np.where(small, 1.0, r)
    out = np.where(
        small,
        a * (1.0 - x / 2.0 + x * x / 6.0) / (4.0 * np.pi),
        -np.expm1(-x) / (4.0 * np.pi * safe_r),
    )
    return float(out) if out.ndim == 0 else out


def scattering_kernel(lam, eta: float, r):
    """(e^{i sqrt(lam) r} - e^{i sqrt(eta) r}) / (4 pi r) for a reference eta < 0.

    Extended by (i sqrt(lam) + sqrt(-eta)) / (4 pi) at r = 0.  Real for real
    lam < 0; for lam >= 0 the imaginary part is sin(sqrt(lam) r)/(4 pi r).
    """
    if eta >= 0:
        raise ConfigError("scattering_kernel requires eta < 0")
    r = np.asarray(r, dtype=float)
    kx = 1j * _spectral_sqrt(lam)             # exponent slope for lam
    ky = complex(-math.sqrt(-eta))            # exponent slope for eta
    scale = abs(kx) + abs(ky)
    small = scale * r < _SERIES_CUTOFF
    safe_r = np.where(small, 1.0, r)
    # both exponentials through the complex path so equal slopes cancel exactly
    x = kx * r
    y = ky * r
    series = (kx - ky) * (1.0 + (x + y) / 2.0 + (x * x + x * y + y * y) / 6.0)
    out = np.where(
        small,
        series / (4.0 * np.pi),
        (np.exp(x) - np.exp(y)) / (4.0 * np.pi * safe_r),
    )
    lamc = complex(lam)
    if lamc.imag == 0.0 and lamc.real < 0.0:
        out = out.real
    return out if out.ndim else out[()]
