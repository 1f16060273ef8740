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


def green_kernel(lam, r, out=None):
    """Free resolvent kernel e^{-sqrt(-lam) r} / (4 pi r) at real lam <= 0,
    written into `out` when given, which may be `r` itself."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ConfigError("green_kernel requires r > 0")
    if lam > 0:
        raise ConfigError("green_kernel requires lam <= 0")
    decay = np.multiply(-math.sqrt(-lam), r, out=np.empty_like(r))
    np.exp(decay, out=decay)
    out = np.multiply(4.0 * np.pi, r, out=np.empty_like(r) if out is None else out)
    np.divide(decay, out, out=out)
    return float(out) if out.ndim == 0 else out


def green_derivative_kernel(lam, r, out=None):
    """e^{-sqrt(-lam) r}/(8 pi sqrt(-lam)) at real lam < 0, bounded at r = 0:
    d/dlam of `green_kernel`, so the kernel of (-Delta - lam)^{-2},
    int G_lam(x, p) G_lam(x, q) dx over R^3 at r = |p - q|.  Written into
    `out` when given, which may be `r` itself."""
    if not lam < 0:
        raise ConfigError("green_derivative_kernel requires lam < 0")
    a = math.sqrt(-lam)
    r = np.asarray(r, dtype=float)
    out = np.multiply(-a, r, out=np.empty_like(r) if out is None else out)
    np.exp(out, out=out)
    out /= 8.0 * np.pi * a
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
    """Real part of (e^{i sqrt(lam) r} - e^{i sqrt(eta) r}) / (4 pi r) for a
    reference eta < 0, a real array (a float for a 0-d r).

    With i sqrt(lam) = -b + i k, the first exponential is
    e^{-b r} (cos kr + i sin kr), so the real part comes from real cos and
    exp; a factor that is 1 (b = 0 or k = 0) is not evaluated, so equal
    slopes cancel exactly.  Extended by Re(i sqrt(lam)) + sqrt(-eta), over
    4 pi, at r = 0.  The imaginary part, sin(sqrt(lam) r)/(4 pi r) for
    lam >= 0, is never tabulated: the scattering block reads it through the
    factor of its matrix.
    """
    if not eta < 0:
        raise ConfigError("scattering_kernel requires eta < 0")
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    kx = 1j * _spectral_sqrt(lam)             # exponent slope for lam
    ky = -math.sqrt(-eta)                     # exponent slope for eta
    small = (abs(kx) - ky) * r < _SERIES_CUTOFF
    re = np.exp(kx.real * r) if kx.real else np.ones_like(r)
    scratch = np.empty_like(r)      # holds each factor in turn: a table
    if kx.imag:                     # block's build keeps three blocks alive
        re *= np.cos(np.multiply(kx.imag, r, out=scratch), out=scratch)
    re -= np.exp(np.multiply(ky, r, out=scratch), out=scratch)
    np.copyto(scratch, r)
    scratch[small] = 1.0
    scratch *= 4.0 * np.pi
    re /= scratch
    # the series only where it is selected: the diagonal of a chord table
    xs, ys = kx * r[small], ky * r[small]
    series = (kx - ky) * (1.0 + (xs + ys) / 2.0 + (xs * xs + xs * ys + ys * ys) / 6.0)
    series /= 4.0 * np.pi
    re[small] = series.real
    return re[0] if scalar else re
