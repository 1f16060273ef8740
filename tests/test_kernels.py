import math
import types

import mpmath
import numpy as np
import pytest

from curvedelta import (ConfigError, circle_chord, green_kernel, make_circle,
                        scattering_kernel, smoothing_kernel)
from curvedelta.kernels import green_derivative_kernel
from curvedelta.scattering import _layer_factor
from oracles import (chord, circle_top_eigenvalue, comparison_kernel, green_square_integral,
                     spectral_sqrt)


class TestSpectralSqrt:
    # the branch of the earlier complex kernels, which the references keep
    def test_negative_axis(self):
        w = spectral_sqrt(-4.0)
        assert w == pytest.approx(2.0j, abs=1e-15)

    def test_positive_axis_from_above(self):
        assert spectral_sqrt(9.0) == pytest.approx(3.0, abs=1e-15)

    def test_lower_half_plane_maps_up(self):
        w = spectral_sqrt(1.0 - 1.0j)
        assert w.imag >= 0.0
        assert w * w == pytest.approx(1.0 - 1.0j, abs=1e-14)


class TestGreenKernel:
    def test_negative_energy_closed_form(self):
        val = green_kernel(-1.0, 1.0)
        assert val == pytest.approx(math.exp(-1.0) / (4.0 * math.pi), abs=1e-16)

    def test_zero_energy(self):
        assert green_kernel(0.0, 1.0) == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-16)

    def test_decay_on_negative_axis(self):
        r = np.linspace(0.2, 5.0, 50)
        val = green_kernel(-2.0, r)
        assert np.all(np.imag(val) == 0.0) if np.iscomplexobj(val) else True
        assert np.all(np.diff(val) < 0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ConfigError):
            green_kernel(-1.0, 0.0)

    def test_rejects_positive_energy(self):
        with pytest.raises(ConfigError):
            green_kernel(4.0, 1.0)

    def test_rejects_nan_energy(self):
        # nan is not <= 0 either; a plain lam > 0 test let it through
        with pytest.raises(ConfigError, match="lam <= 0"):
            green_kernel(float("nan"), np.array([0.5, 1.0]))


class TestGreenDerivativeKernel:
    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    @pytest.mark.parametrize("d", [0.25, 1.0, 2.5])
    def test_square_of_the_resolvent(self, kappa, d):
        # int G(x, p) G(x, q) dx = e^{-kappa d}/(8 pi kappa), by quadrature
        # (measured: within 1.2e-16 relative)
        expected = green_square_integral(-kappa ** 2, d)
        assert green_derivative_kernel(-kappa ** 2, d) == pytest.approx(expected, rel=1e-10)

    def test_energy_derivative_of_green_kernel(self):
        r = np.array([0.1, 1.0, 3.0])
        step = 1e-5
        diff = (green_kernel(-2.0 + step, r) - green_kernel(-2.0 - step, r)) / (2.0 * step)
        assert np.allclose(green_derivative_kernel(-2.0, r), diff, rtol=1e-9, atol=0.0)

    def test_bounded_at_origin(self):
        assert green_derivative_kernel(-4.0, 0.0) == 1.0 / (16.0 * math.pi)

    @pytest.mark.parametrize("lam", [0.0, 1.0, float("nan")])
    def test_rejects_nonnegative_energy(self, lam):
        with pytest.raises(ConfigError):
            green_derivative_kernel(lam, 1.0)


class TestCircleTopEigenvalue:
    def test_zero_energy_constant(self):
        for radius in (0.5, 1.0, 3.0):
            expected = math.log(4.0 * radius) / (2.0 * math.pi)
            assert circle_top_eigenvalue(0.0, radius) == pytest.approx(expected, abs=1e-15)

    def test_against_independent_quadrature(self):
        # same formula, independent integrator at high precision
        mpmath.mp.dps = 30
        a = mpmath.mpf(1)

        def f(s):
            if s == 0:
                return -a / mpmath.pi
            return mpmath.expm1(-2 * a * mpmath.sin(s)) / (2 * mpmath.pi * mpmath.sin(s))

        oracle = mpmath.quad(f, [0, mpmath.pi / 2]) + mpmath.log(4) / (2 * mpmath.pi)
        val = circle_top_eigenvalue(-1.0, 1.0)
        assert val == pytest.approx(float(oracle), abs=1e-11)

    def test_below_zero_energy_value(self):
        assert circle_top_eigenvalue(-1.0, 1.0) < math.log(4.0) / (2.0 * math.pi)

    def test_monotone_decrease(self):
        vals = [circle_top_eigenvalue(lam, 1.0) for lam in (0.0, -1.0, -100.0)]
        assert vals[2] < vals[1] < vals[0]

    def test_rejects_positive_energy(self):
        with pytest.raises(ConfigError):
            circle_top_eigenvalue(1.0, 1.0)


class TestSmoothingKernel:
    def test_limit_at_origin(self):
        assert smoothing_kernel(-1.0, 0.0) == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-16)

    def test_bounded_by_sqrt(self):
        r = np.concatenate([[0.0], np.geomspace(1e-9, 10.0, 200)])
        for lam in (-0.25, -1.0, -16.0):
            vals = smoothing_kernel(lam, r)
            assert np.all(vals >= 0.0)
            assert np.all(vals <= math.sqrt(-lam) / (4.0 * math.pi) + 1e-15)

    def test_zero_energy_vanishes(self):
        r = np.linspace(0.0, 5.0, 20)
        assert np.all(smoothing_kernel(0.0, r) == 0.0)

    def test_continuity_near_origin(self):
        val = smoothing_kernel(-1.0, 1e-8)
        assert abs(val - 1.0 / (4.0 * math.pi)) < 1e-7

    @pytest.mark.parametrize("lam", [1.0, float("nan")])
    def test_rejects_positive_and_nan_energy(self, lam):
        with pytest.raises(ConfigError, match="lam <= 0"):
            smoothing_kernel(lam, np.array([0.0, 0.5]))


class TestComparisonKernel:
    def test_circle_vanishes(self):
        c = make_circle(1.0)
        for s, t in ((0.0, 1.0), (2.0, 5.5), (0.3, 3.44)):
            assert abs(comparison_kernel(c, -1.0, s, t)) < 1e-12

    def test_diagonal_zero(self, ellipse):
        assert comparison_kernel(ellipse, -1.0, 1.7, 1.7) == 0.0

    def test_ellipse_zero_energy_value(self, ellipse):
        s, t = 1.0, 1.0 + math.pi / 2.0
        c_curve = chord(ellipse, s, t)
        c_circ = circle_chord(ellipse.total_length, math.pi / 2.0)
        expected = (1.0 / c_curve - 1.0 / c_circ) / (4.0 * math.pi)
        assert comparison_kernel(ellipse, 0.0, s, t) == pytest.approx(expected, abs=1e-15)


class TestScatteringKernel:
    def test_equal_energies_vanish(self):
        # at lam = 0 the outgoing and the decaying kernels are both
        # 1/(4 pi r): their difference vanishes, bit for bit
        r = np.linspace(0.1, 4.0, 30)
        assert not (scattering_kernel(0.0, r) - green_kernel(0.0, r)).any()

    def test_real_part_identity(self):
        # Re kernel at lam + i0 is cos(sqrt(lam) r)/(4 pi r)
        r = np.geomspace(1e-3, 4.0, 50)
        for lam in (0.5, 1.0, 2.0):
            expected = np.cos(math.sqrt(lam) * r) / (4.0 * np.pi * r)
            assert np.max(np.abs(scattering_kernel(lam, r) - expected) / expected) < 1e-14

    def test_imaginary_part_identity(self):
        # Im kernel at lam + i0 is sin(sqrt(lam) r)/(4 pi r); the layer
        # reads it as H H^T, so the pair of nodes at +-r/2 along an axis
        # gets it from the factor built at unit weight
        r = np.geomspace(1e-3, 4.0, 50)
        half = 0.5 * r[:, None] * np.eye(3)[np.arange(50) % 3]
        points = np.stack([half, -half], axis=1).reshape(-1, 3)
        nodes = types.SimpleNamespace(points=points, weight=1.0, n=len(points))
        for lam in (0.5, 1.0, 2.0):
            factor = _layer_factor(nodes, lam)
            im = np.einsum("ij,ij->i", factor[0::2], factor[1::2])
            expected = np.sin(math.sqrt(lam) * r) / (4.0 * np.pi * r)
            assert np.max(np.abs(im - expected)) < 1e-14

    def test_small_chords_match_oracle(self):
        # no series branch is needed: cos(kr)/(4 pi r) has no cancellation,
        # and down to chords of 1e-9 it is within 2 ulps of a 40-digit value
        with mpmath.workdps(40):
            for r in (1e-9, 4.9e-7, 1.1e-6, 0.3):
                rm = mpmath.mpf(r)
                oracle = float(mpmath.cos(rm) / (4 * mpmath.pi * rm))
                assert abs(scattering_kernel(1.0, r) - oracle) <= 2.0 * math.ulp(oracle)

    def test_written_in_place(self):
        r = np.array([0.5, 1.0, 2.0])
        expected = scattering_kernel(2.0, r)
        assert scattering_kernel(2.0, r, out=r) is r
        assert np.array_equal(r, expected)

    @pytest.mark.parametrize("lam", [-1.0, float("nan")])
    def test_rejects_negative_and_nan_energy(self, lam):
        with pytest.raises(ConfigError, match="lam >= 0"):
            scattering_kernel(lam, 1.0)

    def test_rejects_nonpositive_chord(self):
        with pytest.raises(ConfigError, match="r > 0"):
            scattering_kernel(1.0, np.array([0.5, 0.0]))
