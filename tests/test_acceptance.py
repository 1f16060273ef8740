"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import os
import time

import mpmath
import numpy as np
import pytest

from curvedelta import (asymptotic_count_bounds, boundary_matrix,
                        choose_reference_energy,
                        circle_deviation, circle_mode_eigenvalues,
                        correction_singular_values,
                        count_bound_states, eigen, find_bound_states,
                        fit_decay_slope, green_kernel, isoperimetric_compare,
                        layer_singular_values, make_circle, make_grid,
                        perturbed_green, scattering_block)
from curvedelta.cli import main as cli_main
from oracles import chord_mean_inequality, circle_top_eigenvalue

LN4_OVER_2PI = math.log(4.0) / (2.0 * math.pi)


def _report(num: int, ok: bool, desc: str, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def closed_form_circle_count(alpha: float, radius: float = 1.0) -> int:
    """Independent oracle: count from the interval partition, evaluated with
    50-digit partial sums."""
    mpmath.mp.dps = 50
    t0 = mpmath.log(4 * mpmath.mpf(radius)) / (2 * mpmath.pi)
    if alpha >= t0:
        return 0
    target = (t0 - mpmath.mpf(alpha)) * mpmath.pi
    total = mpmath.mpf(0)
    r = 0
    j = 1
    while True:
        total += mpmath.mpf(1) / (2 * j - 1)
        if total >= target:
            return 2 * r + 1
        r += 1
        j += 1
        if j > 10 ** 6:
            raise RuntimeError("count oracle out of range")


@pytest.fixture(scope="module")
def circle_grids(circle):
    return {n: make_grid(circle, n) for n in (256, 1024, 2048)}


@pytest.fixture(scope="module")
def ellipse_grids(ellipse):
    return {n: make_grid(ellipse, n) for n in (256, 512)}


@pytest.fixture(scope="module")
def found_states(circle_grids, ellipse_grids):
    """Bound states located during the counting criteria (4 and 5)."""
    runs = []
    g_c = circle_grids[256]
    for alpha, cap in ((0.2, None), (0.1, None), (-0.05, None), (-0.2, None),
                       (-0.5, 5)):
        states = find_bound_states(g_c, alpha, max_states=cap)
        runs.append((g_c, alpha, states))
    g_e = ellipse_grids[256]
    for alpha, cap in ((-0.3, None), (-0.6, 10)):
        states = find_bound_states(g_e, alpha, max_states=cap)
        runs.append((g_e, alpha, states))
    return runs


def test_criterion_01_circle_eigenvalue_oracle(circle_grids):
    start = time.monotonic()
    spec = eigen(boundary_matrix(0.0, circle_grids[256]))
    elapsed = time.monotonic() - start
    nu0, pairs = circle_mode_eigenvalues(1.0, 10)
    closed = [nu0]
    for k in range(1, 11):
        closed.extend([pairs[k - 1]] * 2)
    err = float(np.max(np.abs(spec[:20] - np.asarray(closed[:20]))))
    _report(1, err < 1e-6 and elapsed < 10.0,
            "circle eigenvalues match the closed form (N=256, 20 largest)",
            f"max err {err:.2e}, {elapsed:.2f}s")


def test_criterion_02_top_eigenvalue_is_quadrature_constant(circle_grids):
    worst = 0.0
    for lam in (-0.25, -1.0, -4.0, -16.0):
        spec = eigen(boundary_matrix(lam, circle_grids[256]))
        worst = max(worst, abs(spec[0] - circle_top_eigenvalue(lam, 1.0)))
    _report(2, worst < 1e-7,
            "top eigenvalue matches adaptive quadrature at four energies",
            f"max dev {worst:.2e}")


def test_criterion_03_log_asymptotics(circle_grids):
    spec = eigen(boundary_matrix(0.0, circle_grids[1024]))
    ks = np.arange(32, 129)
    slope = float(np.polyfit(np.log(ks), spec[ks - 1], 1)[0])
    target = -1.0 / (2.0 * math.pi)
    rel = abs(slope - target) / abs(target)
    _report(3, rel < 0.03, "eigenvalue log-slope matches -1/(2 pi) within 3%",
            f"slope {slope:.6f}, rel dev {rel:.3%}")


def test_criterion_04_circle_counting_exact(circle_grids):
    ok = True
    details = []
    for alpha in (0.2, 0.1, -0.05, -0.2, -0.5, -0.8):
        report = count_bound_states(circle_grids[1024], alpha)
        expected = closed_form_circle_count(alpha)
        details.append(f"{alpha:g}:{report.count}={expected}")
        ok = ok and report.count == expected
    _report(4, ok, "circle counts equal the closed form exactly",
            " ".join(details))


def test_criterion_05_ellipse_counting_sandwich(ellipse_grids):
    ok = True
    details = []
    for alpha in (-0.3, -0.6):
        report = count_bound_states(ellipse_grids[256], alpha)
        details.append(f"{alpha:g}: {report.lower}<={report.count}<={report.upper}")
        ok = ok and report.lower <= report.count <= report.upper
    _report(5, ok, "ellipse counts satisfy the interval sandwich", " ".join(details))


def test_criterion_06_asymptotic_count_sandwich(circle_grids):
    ok = True
    details = []
    elapsed_largest = 0.0
    for alpha in (-0.3, -0.5, -0.8):
        start = time.monotonic()
        report = count_bound_states(circle_grids[2048], alpha)
        elapsed = time.monotonic() - start
        if alpha == -0.8:
            elapsed_largest = elapsed
        lower, upper = asymptotic_count_bounds(1.0, alpha, 0.0)
        ok = ok and lower < report.count < upper
        details.append(f"{alpha:g}: {lower:.2f}<{report.count}<{upper:.2f}")
    ok = ok and elapsed_largest < 60.0
    _report(6, ok, "counts lie strictly inside the explicit bounds (N=2048)",
            " ".join(details) + f"; largest case {elapsed_largest:.1f}s")


def test_criterion_07_birman_schwinger_residual(found_states):
    worst = 0.0
    total = 0
    for grid, alpha, states in found_states:
        for st in states:
            spec = eigen(boundary_matrix(st.energy, grid))
            worst = max(worst, float(np.min(np.abs(spec - alpha))))
            total += 1
    _report(7, total > 0 and worst < 1e-8,
            "all located bound states satisfy the spectral residual bound",
            f"{total} states, worst dist {worst:.2e}")


def test_criterion_08_monotonicity_suite(circle_grids, ellipse_grids):
    lams = (-16.0, -4.0, -1.0, -0.25, 0.0)
    ok = True
    for grid in (circle_grids[256], ellipse_grids[256]):
        spectra = [eigen(boundary_matrix(lam, grid))
                   for lam in lams]
        for k in (1, 2, 5, 10):
            seq = [s[k - 1] for s in spectra]
            ok = ok and all(b > a for a, b in zip(seq, seq[1:]))
    _report(8, ok, "eigenvalue branches strictly increase in the energy")


def test_criterion_09_isoperimetric(ellipse, ellipse_grids):
    alpha = -0.5
    gaps = {}
    for n in (256, 512):
        _, _, gaps[n] = isoperimetric_compare(ellipse_grids[n], alpha)
    shift = abs(gaps[512] - gaps[256])
    ok = gaps[256] > 0 and gaps[512] > 0 and gaps[512] > 10.0 * shift
    L = ellipse.total_length
    chord_ok = True
    for u in (L / 8.0, L / 4.0, L / 2.0):
        lhs, rhs = chord_mean_inequality(ellipse_grids[512], u)
        chord_ok = chord_ok and lhs < rhs
    _report(9, ok and chord_ok,
            "circle maximizes the principal eigenvalue; chord inequality holds",
            f"gap {gaps[512]:.6f}, shift {shift:.2e}")


def test_criterion_10_scattering_unitarity(circle_grids):
    grid = circle_grids[256]
    alpha = -0.5
    eta = choose_reference_energy([-1.0, -4.0, -16.0])
    ok = True
    details = []
    for lam in (0.5, 1.0, 2.0):
        blk = scattering_block(grid, lam, alpha, eta)
        top = blk.channel_eigenvalues[0]
        ok = (ok and blk.unitarity_defect < 1e-6
              and blk.min_channel_eigenvalue >= -1e-10 * top)
        details.append(f"lam={lam:g}: defect {blk.unitarity_defect:.1e}")
    _report(10, ok, "scattering block unitary on the retained subspace",
            " ".join(details))


def test_criterion_11_green_symmetry(circle_grids):
    x = np.array([1.9, 0.4, 0.7])
    y = np.array([-0.3, -2.1, 0.2])
    gxy = perturbed_green(circle_grids[256], -2.0, -0.5, x, y)
    gyx = perturbed_green(circle_grids[256], -2.0, -0.5, y, x)
    rel = abs(gxy - gyx) / abs(gxy)
    _report(11, rel < 1e-10, "perturbed Green function symmetric in its arguments",
            f"rel asym {rel:.2e}")


def test_criterion_12_singular_value_probe(circle_grids):
    grid = circle_grids[256]
    s_corr = correction_singular_values(grid, -1.0, -0.5)
    s_layer = layer_singular_values(grid, -1.0)
    slope_corr = fit_decay_slope(s_corr)
    slope_layer = fit_decay_slope(s_layer)
    _report(12, slope_corr <= -1.8 and slope_layer <= -0.9,
            "resolvent correction and layer map decay fast enough",
            f"slopes {slope_corr:.2f} / {slope_layer:.2f}")


def test_criterion_13_circle_deviation(circle_grids, ellipse_grids):
    d_circle = circle_deviation(circle_grids[256])
    d256 = circle_deviation(ellipse_grids[256])
    d512 = circle_deviation(ellipse_grids[512])
    stable = abs(d256 - d512) < 5e-4 * abs(d512)
    _report(13, d_circle < 1e-12 and d256 > 0 and stable,
            "kernel deviation: zero for the circle, grid-stable for the ellipse",
            f"circle {d_circle:.1e}, ellipse {d512:.8e}")


def test_criterion_14_cli_determinism(tmp_path):
    curve_file = tmp_path / "circle.json"
    curve_file.write_text(json.dumps({"kind": "circle", "radius": 1.0}))
    args = ["bound-states", "--curve", str(curve_file), "--n", "64",
            "--alpha", "0.1,-0.2"]
    outs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        assert cli_main(args + ["--out", str(out)]) == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("bound_states.csv", "counts.csv"))
    _report(14, identical, "identical CLI runs produce byte-identical tables")
