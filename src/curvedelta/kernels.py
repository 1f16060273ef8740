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


def green_derivative_kernel(lam, r):
    """e^{-sqrt(-lam) r}/(8 pi sqrt(-lam)) at real lam < 0, bounded at r = 0:
    d/dlam of `green_kernel`, so the kernel of (-Delta - lam)^{-2},
    int G_lam(x, p) G_lam(x, q) dx over R^3 at r = |p - q|."""
    if not lam < 0:
        raise ConfigError("green_derivative_kernel requires lam < 0")
    a = math.sqrt(-lam)
    out = np.exp(-a * np.asarray(r, dtype=float)) / (8.0 * np.pi * a)
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
    """Real and imaginary parts of (e^{i sqrt(lam) r} - e^{i sqrt(eta) r}) / (4 pi r)
    for a reference eta < 0, as two real arrays (floats for a 0-d r).

    With i sqrt(lam) = -b + i k, the first exponential is
    e^{-b r} (cos kr + i sin kr), so both parts come from real cos, sin and
    exp; a factor that is 1 (b = 0 or k = 0) is not evaluated, so equal
    slopes cancel exactly.  Extended by (i sqrt(lam) + sqrt(-eta)) / (4 pi)
    at r = 0.  The imaginary part is zero for real lam <= 0 and
    sin(sqrt(lam) r)/(4 pi r) for lam >= 0.
    """
    if eta >= 0:
        raise ConfigError("scattering_kernel requires eta < 0")
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    kx = 1j * _spectral_sqrt(lam)             # exponent slope for lam
    ky = -math.sqrt(-eta)                     # exponent slope for eta
    small = (abs(kx) - ky) * r < _SERIES_CUTOFF
    denom = 4.0 * np.pi * np.where(small, 1.0, r)
    re = np.exp(kx.real * r) if kx.real else np.ones_like(r)
    if kx.imag:
        im = np.sin(kx.imag * r)
        im *= re
        re *= np.cos(kx.imag * r)
    else:
        im = np.zeros_like(r)
    re -= np.exp(ky * r)
    re /= denom
    im /= denom
    # the series only where it is selected: the diagonal of a chord table
    xs, ys = kx * r[small], ky * r[small]
    series = (kx - ky) * (1.0 + (xs + ys) / 2.0 + (xs * xs + xs * ys + ys * ys) / 6.0)
    series /= 4.0 * np.pi
    re[small], im[small] = series.real, series.imag
    return (re[0], im[0]) if scalar else (re, im)
