"""Per-query correctness checks on the files a CLI query wrote.

The oracles and tolerances are those pinned by tests/test_acceptance.py;
the closed forms are re-derived here rather than imported from the
library, so a change to the library cannot change its own oracle.
Each check returns the number of results the query produced and raises
CheckError when an output is wrong.
"""

from __future__ import annotations

import csv
import json
import math
import os

import mpmath
import numpy as np
from scipy.integrate import quad

CLOSED_FORM_TOL = 1e-6        # criterion 1
QUADRATURE_TOL = 1e-7         # criterion 2
ROOT_TOL = 1e-10              # CLI default root_tol
UNITARITY_TOL = 1e-6          # criterion 10
PSD_REL_TOL = 1e-10           # criterion 10
SLOPE_CORRECTION_MAX = -1.8   # criterion 12
SLOPE_LAYER_MAX = -0.9        # criterion 12
MONOTONE_MODES = (1, 2, 5, 10)  # criterion 8
RADIUS = 1.0                  # all workload curves have length 2 pi


class CheckError(Exception):
    """An output of a successful query failed its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def circle_closed_form(radius: float, count: int) -> np.ndarray:
    """Largest `count` eigenvalues of the circle operator at energy zero."""
    nu0 = math.log(4.0 * radius) / (2.0 * math.pi)
    values, partial, j = [nu0], 0.0, 1
    while len(values) < count:
        partial += 1.0 / (2 * j - 1)
        values += [nu0 - partial / math.pi] * 2
        j += 1
    return np.asarray(values[:count])


def circle_top_eigenvalue(lam: float, radius: float) -> float:
    """Quadrature oracle for the top circle eigenvalue at energy lam <= 0."""
    const = math.log(4.0 * radius) / (2.0 * math.pi)
    if lam == 0:
        return const
    a = math.sqrt(-lam)

    def integrand(s):
        if s == 0.0:
            return -a * radius / math.pi
        return math.expm1(-a * 2.0 * radius * math.sin(s)) / (2.0 * math.pi * math.sin(s))

    val, _ = quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val + const


def circle_count(alpha: float, radius: float = RADIUS) -> int:
    """Closed-form circle count 2r + 1 from 50-digit partial sums."""
    mpmath.mp.dps = 50
    t0 = mpmath.log(4 * mpmath.mpf(radius)) / (2 * mpmath.pi)
    if alpha >= t0:
        return 0
    target = (t0 - mpmath.mpf(alpha)) * mpmath.pi
    total, r = mpmath.mpf(0), 0
    while True:
        total += mpmath.mpf(1) / (2 * r + 1)
        if total >= target:
            return 2 * r + 1
        r += 1


def check_spectrum(out: str, is_circle: bool, n: int, lams: list[float]) -> int:
    trusted = n // 4
    spectra = {}
    for i, lam in enumerate(lams):
        rows = _rows(os.path.join(out, f"spectrum_{i}.csv"))
        _require([int(r["k"]) for r in rows] == list(range(1, trusted + 1)),
                 f"spectrum lam={lam:g}: expected modes 1..{trusted}")
        nu = np.array([float(r["nu"]) for r in rows])
        spectra[lam] = nu
        if is_circle and lam == 0.0:
            err = float(np.max(np.abs(nu - circle_closed_form(RADIUS, trusted))))
            _require(err < CLOSED_FORM_TOL, f"circle closed form off by {err:.2e}")
        elif is_circle:
            err = abs(nu[0] - circle_top_eigenvalue(lam, RADIUS))
            _require(err < QUADRATURE_TOL,
                     f"circle top eigenvalue at lam={lam:g} off quadrature by {err:.2e}")
    ordered = sorted(spectra)
    for k in MONOTONE_MODES:
        branch = [spectra[lam][k - 1] for lam in ordered]
        _require(all(b > a for a, b in zip(branch, branch[1:])),
                 f"eigenvalue branch {k} not strictly increasing in lambda")
    return len(lams)


def check_bound_states(out: str, is_circle: bool, alpha: float) -> int:
    states = _rows(os.path.join(out, "bound_states.csv"))
    (count_row,) = _rows(os.path.join(out, "counts.csv"))
    count = int(count_row["count"])
    _require(len(states) == count, f"{len(states)} states for count {count}")
    _require(int(count_row["lower"]) <= count <= int(count_row["upper"]),
             "count outside its sandwich")
    if is_circle:
        expected = circle_count(alpha)
        _require(count == expected, f"circle count {count}, closed form {expected}")
    for st in states:
        _require(float(st["residual"]) < ROOT_TOL,
                 f"state {st['k']} residual {st['residual']} >= root_tol")
        _require(float(st["energy"]) < 0.0, f"state {st['k']} energy not negative")
    return count


def check_isoperimetric(out: str, alpha: float) -> int:
    (row,) = _rows(os.path.join(out, "isoperimetric.csv"))
    gap = float(row["gap"])
    _require(gap > 0.0, f"isoperimetric gap {gap:.3e} not positive")
    err = abs(circle_top_eigenvalue(float(row["energy_circle"]), RADIUS) - alpha)
    _require(err < QUADRATURE_TOL, f"circle principal root off quadrature by {err:.2e}")
    return 2                  # the curve's and the circle's principal states


def check_scattering(out: str, n: int, lams: list[float]) -> int:
    rows = _rows(os.path.join(out, "scattering.csv"))
    _require([float(r["lam"]) for r in rows] == lams, "scattering energies differ")
    weight = 2.0 * math.pi * RADIUS / n
    for r in rows:
        lam = float(r["lam"])
        _require(int(r["retained_dim"]) >= 1, f"empty channel space at lam={lam:g}")
        defect = float(r["unitarity_defect"])
        _require(defect < UNITARITY_TOL, f"unitarity defect {defect:.2e} at lam={lam:g}")
        # the top eigenvalue of Im N is at least its mean diagonal w sqrt(lam)/(4 pi),
        # so this is no looser than min >= -1e-10 * top
        floor = -PSD_REL_TOL * weight * math.sqrt(lam) / (4.0 * math.pi)
        _require(float(r["min_channel_eigenvalue"]) >= floor,
                 f"Im N not positive semidefinite at lam={lam:g}")
    return len(rows)


def check_probe(out: str) -> int:
    with open(os.path.join(out, "probe_summary.json")) as fh:
        summary = json.load(fh)
    _require(summary["slope_correction"] <= SLOPE_CORRECTION_MAX,
             f"correction slope {summary['slope_correction']:.2f}")
    _require(summary["slope_layer"] <= SLOPE_LAYER_MAX,
             f"layer slope {summary['slope_layer']:.2f}")
    return 1
