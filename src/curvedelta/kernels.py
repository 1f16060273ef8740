"""Pointwise integral kernels.

All kernels derive from the free-space resolvent kernel e^{i sqrt(lam) r}/(4 pi r).
Below zero it is the decaying e^{-sqrt(-lam) r}/(4 pi r); on [0, inf) the
scattering tables read its real part cos(sqrt(lam) r)/(4 pi r), the
boundary value from above, and its imaginary part only through the
scattering block's factor.  Each kernel refuses an energy outside its
half-line, nan included.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

# switch to a 3-term Taylor expansion once sqrt(-lam) * r drops below this,
# to avoid cancellation in 1 - e^{-sqrt(-lam) r}
_SERIES_CUTOFF = 1e-6


def green_kernel(lam, r, out=None):
    """Free resolvent kernel e^{-sqrt(-lam) r} / (4 pi r) at real lam <= 0,
    written into `out` when given, which may be `r` itself."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ConfigError("green_kernel requires r > 0")
    if not lam <= 0:
        raise ConfigError(f"green_kernel requires lam <= 0, got lam={lam:g}")
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
    if not lam <= 0:
        raise ConfigError(f"smoothing_kernel requires lam <= 0, got lam={lam:g}")
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


def scattering_kernel(lam, r, out=None):
    """Real part cos(sqrt(lam) r) / (4 pi r) of the outgoing resolvent kernel
    at real lam >= 0, written into `out` when given, which may be `r`
    itself.  At lam = 0 it is `green_kernel`'s 1/(4 pi r), bit for bit."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ConfigError("scattering_kernel requires r > 0")
    if not lam >= 0:
        raise ConfigError(f"scattering_kernel requires lam >= 0, got lam={lam:g}")
    wave = np.multiply(math.sqrt(lam), r, out=np.empty_like(r))
    np.cos(wave, out=wave)
    out = np.multiply(4.0 * np.pi, r, out=np.empty_like(r) if out is None else out)
    np.divide(wave, out, out=out)
    return float(out) if out.ndim == 0 else out
