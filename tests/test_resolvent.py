import math

import numpy as np
import pytest
import scipy.linalg

import curvedelta.resolvent as resolvent_mod
from curvedelta import (ConfigError, NumericsError, correction_singular_values,
                        find_bound_states, fit_decay_slope, green_kernel,
                        layer_singular_values, make_box, make_grid,
                        perturbed_green)
from oracles import probe_singular_values_reference, single_layer_potential


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
        # row x of the probe's layer map, applied to a density, is sqrt(cell
        # volume) times the node-sum layer potential at x
        box = make_box(ellipse_grid, n=8, lam=-1.0)
        g = resolvent_mod._layer_factor(ellipse_grid, box, -1.0)
        h = np.random.default_rng(3).standard_normal(ellipse_grid.n)
        expected = [math.sqrt(box.cell_volume) * single_layer_potential(ellipse_grid, -1.0, h, x)
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
    def test_nonincreasing(self, circle_grid, default_box):
        s = correction_singular_values(circle_grid, default_box, -1.0, -0.5)
        assert np.all(np.diff(s) <= 1e-18)

    def test_correction_decay_slope(self, circle_grid, default_box):
        s = correction_singular_values(circle_grid, default_box, -1.0, -0.5)
        assert fit_decay_slope(s) <= -1.8

    def test_layer_decay_slope(self, circle_grid, default_box):
        s = layer_singular_values(circle_grid, default_box, -1.0)
        assert fit_decay_slope(s) <= -0.9

    def test_box_refinement_stability(self, circle_grid):
        # refine the lattice while holding the excluded tube fixed
        tops = []
        for n in (16, 24):
            box = make_box(circle_grid, n=n, bounds=(-3.0, 3.0),
                           exclusion_radius=1.0)
            s = correction_singular_values(circle_grid, box, -1.0, -0.5)
            tops.append(s[:5])
        assert np.max(np.abs(tops[1] - tops[0]) / tops[1]) < 0.05

    def test_matches_layer_map_reference(self, circle_grid, default_box):
        # the R factor carries the singular values of G itself
        layer = layer_singular_values(circle_grid, default_box, -1.0)
        corr = correction_singular_values(circle_grid, default_box, -1.0, -0.5)
        ref_layer, ref_corr = probe_singular_values_reference(
            circle_grid, default_box, -1.0, -0.5)
        assert np.max(np.abs(layer - ref_layer)) <= 1e-13 * ref_layer[0]
        assert abs(fit_decay_slope(layer) - fit_decay_slope(ref_layer)) <= 1e-9
        assert abs(fit_decay_slope(corr) - fit_decay_slope(ref_corr)) <= 1e-9

    def test_numpy_singular_values_match_scipy(self, circle_grid, default_box):
        # the probe takes its singular values from numpy to stay in numpy's
        # BLAS pool; on the probe's R and its compressed core numpy's gesdd
        # gives scipy's svdvals bit for bit (a mismatch names a differing
        # LAPACK build in the numpy and scipy wheels)
        r = resolvent_mod._layer_r(circle_grid, default_box, -1.0)
        core = r @ np.linalg.solve(resolvent_mod._resolvent_system(circle_grid, -1.0, -0.5), r.T)
        for mat in (r, core):
            assert np.array_equal(np.linalg.svd(mat, compute_uv=False),
                                  scipy.linalg.svdvals(mat))

    def test_box_reprobed_at_other_grid_or_energy(self, circle_grid, ellipse_grid):
        # the R kept on a box serves only the grid object and lam it came from
        box = make_box(circle_grid, n=10, bounds=(-3.0, 3.0), exclusion_radius=0.5)
        for grid, lam in [(circle_grid, -1.0), (ellipse_grid, -1.0),
                          (circle_grid, -2.0), (circle_grid, -1.0)]:
            layer = layer_singular_values(grid, box, lam)
            ref_layer, _ = probe_singular_values_reference(grid, box, lam, -0.5)
            assert np.max(np.abs(layer - ref_layer)) <= 1e-13 * ref_layer[0]

    def test_memory_guard(self, circle_grid, default_box, monkeypatch):
        monkeypatch.setattr(resolvent_mod, "ENTRY_CAP", 1000)
        with pytest.raises(NumericsError):
            layer_singular_values(circle_grid, default_box, -1.0)

    def test_fit_window_guard(self):
        with pytest.raises(ConfigError):
            fit_decay_slope(np.ones(10))
