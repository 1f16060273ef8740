import math

import numpy as np
import pytest

from curvedelta import (ConfigError, boundary_matrix, circle_deviation,
                        circle_mode_eigenvalues, circle_operator_matrix,
                        comparison_matrix, eigen, make_circle,
                        make_grid, scattering_layer_matrix, smoothing_matrix)
from curvedelta.assembly import (_capped_derivative_diagonal, boundary_derivative,
                                 circle_derivative_modes, odd_harmonic_sums)
from curvedelta.resolvent import _gram_matrix
from curvedelta.spectral import eigenvalue_at
from oracles import circle_operator_reference, circle_top_eigenvalue, odd_harmonic_sums_full

LN4_OVER_2PI = math.log(4.0) / (2.0 * math.pi)


def test_odd_harmonic_sums():
    sums = odd_harmonic_sums(4)
    assert sums[0] == 1.0
    assert sums[1] == pytest.approx(1.0 + 1.0 / 3.0, abs=1e-16)
    assert sums[3] == pytest.approx(1.0 + 1.0 / 3.0 + 0.2 + 1.0 / 7.0, abs=1e-15)


@pytest.mark.parametrize("count", [1, 1024, 262_144, 10 ** 6])
def test_odd_harmonic_sums_match_one_expression(count):
    # the in-place buffer runs the expression's operations in its order
    assert np.array_equal(odd_harmonic_sums(count), odd_harmonic_sums_full(count))


class TestCircleOperator:
    def test_top_eigenvalue(self, circle_grid):
        spec = eigen(circle_operator_matrix(circle_grid))
        assert spec[0] == pytest.approx(LN4_OVER_2PI, abs=1e-12)

    def test_first_pair_degenerate(self, circle_grid):
        spec = eigen(circle_operator_matrix(circle_grid))
        expected = LN4_OVER_2PI - 1.0 / math.pi
        assert spec[1] == pytest.approx(expected, abs=1e-12)
        assert spec[2] == pytest.approx(expected, abs=1e-12)

    def test_top_seven_match_closed_form(self, circle_grid):
        spec = eigen(circle_operator_matrix(circle_grid))
        nu0, pairs = circle_mode_eigenvalues(1.0, 4)
        closed = [nu0, pairs[0], pairs[0], pairs[1], pairs[1], pairs[2], pairs[2]]
        assert np.max(np.abs(spec[:7] - closed)) < 1e-8

    def test_constant_vector_is_eigenvector(self, circle_grid):
        mat = circle_operator_matrix(circle_grid)
        ones = np.ones(circle_grid.n)
        assert np.max(np.abs(mat @ ones - LN4_OVER_2PI * ones)) < 1e-12

    @pytest.mark.parametrize("n", [256, 1024])
    def test_circulant_build_matches_trig_basis(self, circle, n):
        mat = circle_operator_matrix(make_grid(circle, n))
        assert np.max(np.abs(mat - circle_operator_reference(1.0, n))) < 1e-13
        assert np.array_equal(mat, mat.T)

    def test_odd_grid_rejected(self, circle):
        with pytest.raises(ConfigError):
            make_grid(circle, 255)


class TestSmoothingMatrix:
    def test_zero_energy_is_zero_matrix(self, circle_grid):
        mat = smoothing_matrix(0.0, circle_grid)
        assert np.all(mat == 0.0)

    def test_entry_bounds(self, circle_grid):
        lam = -1.0
        mat = smoothing_matrix(lam, circle_grid)
        cap = circle_grid.weight * math.sqrt(-lam) / (4.0 * math.pi)
        assert np.all(mat >= -1e-15)
        assert np.all(mat <= cap * (1.0 + 1e-12))

    def test_row_sums_grid_stable(self, circle):
        # row sums approximate the kernel integral over the circle
        sums = []
        for n in (256, 512):
            g = make_grid(circle, n)
            mat = smoothing_matrix(-1.0, g)
            sums.append(mat.sum(axis=1).mean())
        assert abs(sums[0] - sums[1]) < 1e-8

    def test_deep_energy_diagonal_stays_nonnegative(self, circle_grid):
        # the diagonal correction must not flip the sign of the diagonal
        # when the kernel's boundary layer falls below the grid resolution
        for lam in (-1e6, -1e12):
            mat = smoothing_matrix(lam, circle_grid)
            assert mat.diagonal().min() >= 0.0


class TestComparisonMatrix:
    def test_circle_gives_exact_zeros(self, circle_grid):
        mat = comparison_matrix(-1.0, circle_grid)
        assert np.all(mat == 0.0)

    def test_norm_bounded_by_deviation_root(self, ellipse_grid):
        # Hilbert-Schmidt bound: ||D_lam||_2 <= sqrt(deviation) for every lam,
        # since the kernel difference only shrinks as lam decreases
        dev = circle_deviation(ellipse_grid)
        for lam in (0.0, -1.0, -10.0, -100.0):
            nrm = np.linalg.norm(comparison_matrix(lam, ellipse_grid), 2)
            assert nrm <= math.sqrt(dev) * 1.05

    def test_norm_decreases_with_energy(self, ellipse_grid):
        norms = [np.linalg.norm(comparison_matrix(lam, ellipse_grid), 2)
                 for lam in (0.0, -1.0, -10.0, -100.0)]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(norms, norms[1:]))


class TestBoundaryMatrix:
    def test_circle_zero_energy_equals_circle_operator(self, circle_grid):
        b = boundary_matrix(0.0, circle_grid)
        b0 = circle_operator_matrix(circle_grid)
        assert np.array_equal(b, b0)

    def test_circle_decomposition_consistency(self, circle_grid):
        b = boundary_matrix(-1.0, circle_grid)
        parts = (circle_operator_matrix(circle_grid)
                 - smoothing_matrix(-1.0, circle_grid))
        assert np.max(np.abs(b - parts)) <= 1e-14

    def test_exact_symmetry(self, ellipse_grid, circle_grid):
        for mat in (boundary_matrix(-1.0, ellipse_grid),
                    boundary_matrix(-2.5, circle_grid),
                    *scattering_layer_matrix(ellipse_grid, 1.0, -1.0)):
            assert np.array_equal(mat, mat.T)

    def test_top_eigenvalue_matches_quadrature(self, circle_grid):
        nu1 = eigenvalue_at(boundary_matrix(-1.0, circle_grid), 1)
        assert abs(nu1 - circle_top_eigenvalue(-1.0, 1.0)) < 1e-7

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_eigenvalue_grid_convergence(self, circle, lam):
        tops = []
        for n in (256, 512):
            g = make_grid(circle, n)
            spec = eigen(boundary_matrix(lam, g))
            tops.append(spec[:20])
        assert np.max(np.abs(tops[0] - tops[1])) < 1e-6

    def test_minmax_sandwich_against_circle(self, ellipse_grid):
        # Weyl: adding the comparison part moves eigenvalues at most its norm
        spec = eigen(boundary_matrix(0.0, ellipse_grid))
        circle_spec = eigen(circle_operator_matrix(ellipse_grid))
        shift = np.linalg.norm(comparison_matrix(0.0, ellipse_grid), 2)
        trusted = ellipse_grid.n // 4
        diffs = np.abs(spec[:trusted] - circle_spec[:trusted])
        assert np.max(diffs) <= shift * (1.0 + 1e-10)

    def test_rejects_positive_energy(self, circle_grid):
        with pytest.raises(ConfigError):
            boundary_matrix(0.5, circle_grid)


class TestBoundaryDerivative:
    """B'(lam) in closed form: the probe's Gram matrix, with the derivative
    of the smoothing row's capped diagonal where the cap is active."""

    @pytest.mark.parametrize("lam, capped", [(-3.0, False), (-1e5, True)])
    def test_matches_central_differences(self, ellipse_grid, lam, capped):
        # the fourth-order central difference of B in lam, step 1e-3 |lam|
        # (measured: 1.0e-11 and 7.3e-14 of max |B'|); w kappa = 7.7 > 6 at
        # lam = -1e5 puts the cap in force on the diagonal
        assert (_capped_derivative_diagonal(lam, ellipse_grid.weight) is not None) == capped
        step = 1e-3 * abs(lam)

        def b(d):
            return boundary_matrix(lam + d, ellipse_grid)

        diff = (8.0 * (b(step) - b(-step)) - (b(2 * step) - b(-2 * step))) / (12.0 * step)
        exact = boundary_derivative(lam, ellipse_grid)
        assert np.max(np.abs(diff - exact)) <= 1e-10 * np.max(np.abs(exact))

    @pytest.mark.parametrize("lam", [-3.0, -1e5])
    def test_gram_matrix_is_the_uncapped_build(self, ellipse_grid, lam):
        gram = _gram_matrix(ellipse_grid, lam)
        assert np.array_equal(boundary_derivative(lam, ellipse_grid, capped=False), gram)
        exact = boundary_derivative(lam, ellipse_grid)
        off = ~np.eye(ellipse_grid.n, dtype=bool)
        assert np.array_equal(exact[off], gram[off])
        assert np.array_equal(np.diag(exact), np.diag(gram)) == (lam == -3.0)

    @pytest.mark.parametrize("lam", [-3.0, -1e5])
    def test_circle_modes_are_the_dense_spectrum(self, circle_grid, lam):
        # wavenumbers 1 to N/2 - 1 carry the cos/sin pairs
        n = circle_grid.n
        modes = circle_derivative_modes(lam, circle_grid)
        dense = eigen(boundary_derivative(lam, circle_grid))
        listed = np.sort(np.concatenate([modes, modes[1:n // 2]]))[::-1]
        assert np.max(np.abs(listed - dense)) <= 1e-14 * dense[0]
        assert dense[-1] > 0


def test_operator_matrix_finite_guard(circle_grid):
    with pytest.raises(ConfigError):
        boundary_matrix(float("nan"), circle_grid)


def test_grid_chords_shared_read_only(ellipse_grid):
    chords = ellipse_grid.chords
    before = chords.copy()
    comparison_matrix(-1.0, ellipse_grid)
    scattering_layer_matrix(ellipse_grid, 1.0, -1.0)
    assert ellipse_grid.chords is chords
    assert np.array_equal(chords, before)
    with pytest.raises(ValueError):
        chords[0, 1] = 0.0
