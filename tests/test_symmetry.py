"""Exact symmetry laws of the discretized boundary operator, checked on
random regular Fourier curves.

A rigid motion leaves every chord, hence every eigenvalue, unchanged; a
homothety sigma -> c sigma maps the operator at energy lam to the one at
c^2 lam, shifted by ln c / (2 pi) through the log-singular circle part.
Both laws hold exactly for the discretization, so the bound is roundoff.
The laws are checked on the dense eigensolve at N = 64, and the rigid-motion
and orientation laws also on the compressed spectrum at N = 1024.
"""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from curvedelta import (Curve, CurveError, boundary_matrix, eigen, make_grid,
                        reparametrize_arclength, spectral)
from oracles import fourier_mode_curve

N = 64
LAMS = (0.0, -1.0)
TOL = 1e-12

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)

mode_coefficients = st.lists(st.floats(-0.1, 0.1), min_size=12, max_size=12)
angles = st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 3)
translations = st.tuples(*[st.floats(-2.0, 2.0)] * 3)


def _arclength(raw: Curve) -> Curve:
    try:
        return reparametrize_arclength(raw)
    except CurveError:
        reject()


def _rotation(a: float, b: float, c: float) -> np.ndarray:
    def about(axis, t):
        i, j = [k for k in range(3) if k != axis]
        r = np.eye(3)
        r[i, i] = r[j, j] = math.cos(t)
        r[i, j], r[j, i] = -math.sin(t), math.sin(t)
        return r
    return about(2, a) @ about(1, b) @ about(2, c)


def _top_values(curve: Curve, lam: float) -> np.ndarray:
    return eigen(boundary_matrix(lam, make_grid(curve, N)))[:N // 4]


@SETTINGS
@given(mode_coefficients, angles, translations)
def test_rigid_motion_invariance(coefficients, euler, shift):
    raw = fourier_mode_curve(coefficients)
    rot = _rotation(*euler)
    moved = Curve(a0=rot @ raw.a0 + np.asarray(shift), cos_coeff=raw.cos_coeff @ rot.T,
                  sin_coeff=raw.sin_coeff @ rot.T, period=raw.period)
    curve, moved = _arclength(raw), _arclength(moved)
    assert np.max(np.abs(make_grid(moved, N).chords - make_grid(curve, N).chords)) <= TOL
    for lam in LAMS:
        assert np.max(np.abs(_top_values(moved, lam) - _top_values(curve, lam))) <= TOL


@SETTINGS
@given(mode_coefficients, st.floats(0.5, 2.0))
def test_scaling_law(coefficients, c):
    raw = fourier_mode_curve(coefficients)
    scaled = Curve(a0=c * raw.a0, cos_coeff=c * raw.cos_coeff, sin_coeff=c * raw.sin_coeff,
                   period=c * raw.period)
    curve, scaled = _arclength(raw), _arclength(scaled)
    for lam in LAMS:
        expected = _top_values(curve, c * c * lam) + math.log(c) / (2.0 * math.pi)
        assert np.max(np.abs(_top_values(scaled, lam) - expected)) <= TOL


@SETTINGS
@given(mode_coefficients)
def test_orientation_reversal(coefficients):
    # sigma(-t): the grid runs through the same nodes backwards
    raw = fourier_mode_curve(coefficients)
    reversed_ = Curve(a0=raw.a0, cos_coeff=raw.cos_coeff, sin_coeff=-raw.sin_coeff,
                      period=raw.period)
    curve, reversed_ = _arclength(raw), _arclength(reversed_)
    for lam in LAMS:
        assert np.max(np.abs(_top_values(reversed_, lam) - _top_values(curve, lam))) <= TOL


@SETTINGS
@given(mode_coefficients, st.integers(1, N - 1))
def test_start_point_shift(coefficients, k):
    # sigma(t + t0) with t0 the parameter k grid steps along: the grid's
    # nodes are the same, numbered from node k
    raw = fourier_mode_curve(coefficients)
    curve = _arclength(raw)
    t0 = float(curve.param_at_arclength(k * curve.total_length / N))
    phase = 2.0 * math.pi * np.arange(1, raw.cos_coeff.shape[0] + 1)[:, None] * t0 / raw.period
    c, s = np.cos(phase), np.sin(phase)
    shifted = _arclength(Curve(a0=raw.a0, cos_coeff=c * raw.cos_coeff + s * raw.sin_coeff,
                               sin_coeff=c * raw.sin_coeff - s * raw.cos_coeff,
                               period=raw.period))
    for lam in LAMS:
        assert np.max(np.abs(_top_values(shifted, lam) - _top_values(curve, lam))) <= TOL


# Two fixed curves at N = 1024, where `boundary_spectrum` reads the top n/4
# from the certified Fourier compression rather than the dense eigensolve.
PRODUCTION_N = 1024
FIXED_COEFFICIENTS = (
    [0.08, -0.05, 0.03, 0.06, -0.02, 0.04, -0.07, 0.02, 0.05, -0.03, 0.06, -0.04],
    [-0.04, 0.09, -0.06, 0.02, 0.05, -0.03, 0.03, -0.08, 0.01, 0.07, -0.05, 0.02],
)


def _production_values(curve: Curve, lam: float) -> np.ndarray:
    # what `boundary_spectrum` returns, with a nonzero bound: the compressed path
    op = spectral._Operator(lam, make_grid(curve, PRODUCTION_N))
    assert op._top[1] > 0.0
    return op.spectrum()


@pytest.mark.parametrize("coefficients", FIXED_COEFFICIENTS, ids=["first", "second"])
def test_rigid_motion_invariance_of_the_compressed_spectrum(coefficients):
    raw = fourier_mode_curve(coefficients)
    rot = _rotation(0.7, 2.1, -1.3)
    moved = Curve(a0=rot @ raw.a0 + np.array([0.4, -1.1, 0.9]),
                  cos_coeff=raw.cos_coeff @ rot.T, sin_coeff=raw.sin_coeff @ rot.T,
                  period=raw.period)
    curve, moved = reparametrize_arclength(raw), reparametrize_arclength(moved)
    for lam in LAMS:
        assert np.max(np.abs(_production_values(moved, lam)
                             - _production_values(curve, lam))) <= TOL


@pytest.mark.parametrize("coefficients", FIXED_COEFFICIENTS, ids=["first", "second"])
def test_orientation_reversal_of_the_compressed_spectrum(coefficients):
    raw = fourier_mode_curve(coefficients)
    reversed_ = Curve(a0=raw.a0, cos_coeff=raw.cos_coeff, sin_coeff=-raw.sin_coeff,
                      period=raw.period)
    curve, reversed_ = reparametrize_arclength(raw), reparametrize_arclength(reversed_)
    for lam in LAMS:
        assert np.max(np.abs(_production_values(reversed_, lam)
                             - _production_values(curve, lam))) <= TOL
