import math

import numpy as np
import pytest

import curvedelta.resolvent as resolvent_mod
from curvedelta import (ConfigError, NumericsError, boundary_matrix,
                        correction_singular_values, find_bound_states, fit_decay_slope,
                        green_kernel, layer_singular_values, make_grid, perturbed_green)
from curvedelta.assembly import boundary_derivative
from curvedelta.resolvent import make_box
from oracles import (box_layer_map, box_probe_singular_values,
                     correction_singular_values_reference, single_layer_potential)


@pytest.fixture(scope="module")
def default_box(circle_grid):
    return make_box(circle_grid, n=24, bounds=(-3.0, 3.0), lam=-1.0)


class TestBoxGrid:
    def test_default_bounds_margin(self, circle_grid):
        box = make_box(circle_grid, n=8, lam=-1.0)
        assert box.lo == pytest.approx(-3.0, abs=1e-6)
        assert box.hi == pytest.approx(3.0, abs=1e-6)

    def test_exclusion(self, circle_grid, default_box):
        dists = np.linalg.norm(
            default_box.points[:, None, :] - circle_grid.points[None, :, :], axis=2)
        assert dists.min(axis=1).min() > default_box.exclusion_radius
        assert default_box.n_excluded > 0


class TestSingleLayerPotential:
    def test_zero_density(self, circle_grid):
        x = np.array([0.0, 0.0, 2.0])
        assert single_layer_potential(circle_grid, -1.0,
                                      np.zeros(circle_grid.n), x) == 0.0

    def test_axis_symmetry_oracle(self, circle, circle_grid):
        # on the symmetry axis every chord equals sqrt(1 + z^2), so the
        # integral collapses to L * kernel
        z = 1.5
        x = np.array([0.0, 0.0, z])
        val = single_layer_potential(circle_grid, -1.0,
                                     np.ones(circle_grid.n), x)
        expected = circle.total_length * green_kernel(-1.0, math.hypot(1.0, z))
        assert val == pytest.approx(expected, rel=1e-14)

    def test_linearity(self, circle_grid):
        rng = np.random.default_rng(7)
        h = rng.standard_normal(circle_grid.n)
        x = np.array([0.4, -0.3, 1.9])
        v1 = single_layer_potential(circle_grid, -1.0, h, x)
        v2 = single_layer_potential(circle_grid, -1.0, 2.0 * h, x)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_rejects_point_near_curve(self, circle_grid):
        with pytest.raises(ConfigError):
            single_layer_potential(circle_grid, -1.0,
                                   np.ones(circle_grid.n), np.array([1.0, 0.0, 1e-3]))

    def test_probe_layer_map_rows(self, ellipse_grid):
        # row x of the box reference's layer map, applied to a density, is
        # sqrt(cell volume / w) times the node-sum layer potential at x: the
        # map carries sqrt(w) per node, as the layer map of the exact probe
        box = make_box(ellipse_grid, n=8, lam=-1.0)
        g = box_layer_map(ellipse_grid, box, -1.0)
        h = np.random.default_rng(3).standard_normal(ellipse_grid.n)
        scale = math.sqrt(box.cell_volume / ellipse_grid.weight)
        expected = [scale * single_layer_potential(ellipse_grid, -1.0, h, x)
                    for x in box.points]
        assert np.max(np.abs(g @ h - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestPerturbedGreen:
    X = np.array([1.7, 0.3, 0.4])
    Y = np.array([-0.2, -1.9, 0.6])

    def test_symmetry(self, circle_grid):
        gxy = perturbed_green(circle_grid, -2.0, -0.5, self.X, self.Y)
        gyx = perturbed_green(circle_grid, -2.0, -0.5, self.Y, self.X)
        assert abs(gxy - gyx) / abs(gxy) < 1e-10

    def test_weak_interaction_limit(self, circle_grid):
        gfree = green_kernel(-2.0, np.linalg.norm(self.X - self.Y))
        val = perturbed_green(circle_grid, -2.0, 1e6, self.X, self.Y)
        assert abs(val - gfree) <= 1e-4 * abs(gfree)

    def test_pole_growth_near_bound_state(self, circle_grid):
        state = find_bound_states(circle_grid, 0.1)[0]
        gfree = lambda lam: green_kernel(lam, np.linalg.norm(self.X - self.Y))
        corrections = []
        for step in (0.03, 0.01, 0.003):
            lam = state.energy + step
            val = perturbed_green(circle_grid, lam, 0.1, self.X, self.Y)
            corrections.append(abs(val - gfree(lam)))
        assert corrections[0] < corrections[1] < corrections[2]

    def test_rejects_energy_on_bound_state(self, circle_grid):
        state = find_bound_states(circle_grid, 0.1)[0]
        with pytest.raises(NumericsError):
            perturbed_green(circle_grid, state.energy, 0.1, self.X, self.Y)

    def test_correction_falls_off_with_coupling(self, circle_grid):
        # the interaction decouples like 1/alpha
        gfree = green_kernel(-2.0, np.linalg.norm(self.X - self.Y))
        corr = [abs(perturbed_green(circle_grid, -2.0, alpha,
                                    self.X, self.Y) - gfree)
                for alpha in (1e4, 1e5, 1e6)]
        for a, b in zip(corr, corr[1:]):
            assert a / b == pytest.approx(10.0, rel=0.05)


class TestSingularValues:
    def test_nonincreasing(self, circle_grid):
        for s in (correction_singular_values(circle_grid, -1.0, -0.5),
                  layer_singular_values(circle_grid, -1.0)):
            assert len(s) == circle_grid.n
            assert np.all(np.diff(s) <= 1e-18)

    def test_correction_decay_slope(self, circle_grid):
        s = correction_singular_values(circle_grid, -1.0, -0.5)
        assert fit_decay_slope(s) <= -1.8

    def test_layer_decay_slope(self, circle_grid):
        s = layer_singular_values(circle_grid, -1.0)
        assert fit_decay_slope(s) <= -0.9

    @pytest.mark.parametrize("curve_name", ["circle", "ellipse"])
    def test_slopes_converge_in_n(self, request, curve_name):
        # the exact probe discretizes the operators themselves, so the
        # fitted slopes settle as the grid is refined (measured: 2e-4)
        curve = request.getfixturevalue(curve_name)
        slopes = []
        for n in (256, 512):
            grid = make_grid(curve, n)
            slopes.append((fit_decay_slope(correction_singular_values(grid, -1.0, -0.5)),
                           fit_decay_slope(layer_singular_values(grid, -1.0))))
        assert np.max(np.abs(np.subtract(*slopes))) <= 1e-3

    def test_gram_matrix_is_the_energy_derivative(self, ellipse):
        # X = Gamma^T Gamma is dB/dlam: off the diagonal w dG/dlam on the
        # curve chords, on it w/(8 pi kappa) - w^2/(48 pi) (the smoothing
        # row's cap is inactive here); central differences of B in lam
        # (measured: 2.0e-13 off the diagonal, 5.2e-13 on it)
        grid = make_grid(ellipse, 256)
        step = 1e-4
        diff = (boundary_matrix(-3.0 + step, grid) - boundary_matrix(-3.0 - step, grid)) / (2 * step)
        gap = np.abs(diff - boundary_derivative(-3.0, grid, capped=False))
        off = ~np.eye(grid.n, dtype=bool)
        assert np.max(gap[off]) <= 1e-12
        assert np.max(np.diag(gap)) <= 2e-12

    def test_box_refinement_stability(self, circle_grid):
        # refine the reference's lattice while holding the excluded tube fixed
        tops = []
        for n in (16, 24):
            box = make_box(circle_grid, n=n, bounds=(-3.0, 3.0),
                           exclusion_radius=1.0)
            _, s = box_probe_singular_values(circle_grid, box, -1.0, -0.5)
            tops.append(s[:5])
        assert np.max(np.abs(tops[1] - tops[0]) / tops[1]) < 0.05

    def test_box_reference_is_a_lower_bound(self, circle_grid, default_box):
        # a box compresses the layer map and the correction, so its singular
        # values lie below the exact ones (measured: at most 0.66 and 0.15 of
        # them for k <= 200)
        layer = layer_singular_values(circle_grid, -1.0)
        corr = correction_singular_values(circle_grid, -1.0, -0.5)
        box_layer, box_corr = box_probe_singular_values(circle_grid, default_box, -1.0, -0.5)
        assert np.all(box_layer[:200] < layer[:200])
        assert np.all(box_corr[:200] < corr[:200])

    def test_layer_values_match_numpy_eigvalsh(self, circle_grid, ellipse_grid):
        # the layer values are scipy's eigh with LAPACK's ?syevd, which gives
        # numpy's eigvalsh of X bit for bit (a mismatch names a differing
        # LAPACK build in the numpy and scipy wheels)
        for grid in (circle_grid, ellipse_grid):
            gram = boundary_derivative(-1.0, grid, capped=False)
            assert np.array_equal(layer_singular_values(grid, -1.0),
                                  np.sqrt(np.linalg.eigvalsh(gram)[::-1]))

    @pytest.mark.parametrize("grid_name", ["circle_grid", "ellipse_grid"])
    def test_correction_matches_cholesky_reference(self, request, grid_name):
        # one generalized eigensolve of (alpha - B, X) against the Cholesky,
        # symmetric solve and gemm it replaces (measured: 3.9e-12 at most)
        grid = request.getfixturevalue(grid_name)
        exact = correction_singular_values(grid, -1.0, -0.5)[:48]
        ref = correction_singular_values_reference(grid, -1.0, -0.5)[:48]
        assert np.max(np.abs(exact - ref) / ref) <= 1e-10

    def test_box_reprobed_at_other_grid_or_energy(self, circle_grid, ellipse_grid):
        # one coarse box stays a lower bound on other curves and energies
        # (measured: at most 0.70 and 0.19 of the exact values for k <= 200)
        box = make_box(circle_grid, n=10, bounds=(-3.0, 3.0), exclusion_radius=0.5)
        for grid, lam in [(circle_grid, -1.0), (ellipse_grid, -1.0), (circle_grid, -2.0)]:
            box_layer, box_corr = box_probe_singular_values(grid, box, lam, -0.5)
            assert np.all(box_layer[:200] < layer_singular_values(grid, lam)[:200])
            assert np.all(box_corr[:200] < correction_singular_values(grid, lam, -0.5)[:200])

    def test_indefinite_gram_refused(self, circle_grid, monkeypatch):
        def shifted(lam, grid, capped=True):
            gram = boundary_derivative(lam, grid, capped)
            return gram - 2.0 * np.linalg.eigvalsh(gram)[0] * np.eye(grid.n)

        monkeypatch.setattr(resolvent_mod, "boundary_derivative", shifted)
        # a fresh grid: the shared one may keep an X built before the patch
        grid = make_grid(circle_grid.curve, circle_grid.n)
        with pytest.raises(NumericsError, match="not positive definite"):
            layer_singular_values(grid, -1.0)
        with pytest.raises(NumericsError, match="not positive definite"):
            correction_singular_values(grid, -1.0, -0.5)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_nonnegative_energy_refused(self, circle_grid, lam):
        with pytest.raises(ConfigError, match="lam < 0"):
            layer_singular_values(circle_grid, lam)
        with pytest.raises(ConfigError, match="lam < 0"):
            correction_singular_values(circle_grid, lam, -0.5)

    def test_fit_window_guard(self):
        with pytest.raises(ConfigError):
            fit_decay_slope(np.ones(10))

    def test_fit_reads_the_window(self, monkeypatch):
        # s_k = k^-2 on k = 2..4 and flat elsewhere: only the window's slope shows
        values = np.array([1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0, 1.0, 1.0])
        monkeypatch.setattr(resolvent_mod, "FIT_WINDOW", (2, 4))
        assert fit_decay_slope(values) == pytest.approx(-2.0, abs=1e-12)
