import itertools
import json
import types

import mpmath
import numpy as np
import pytest
import scipy.linalg

import curvedelta.scattering as scattering_mod
import curvedelta.spectral as spectral_mod
from curvedelta import curves, curve_to_json_dict
from curvedelta.cli import main
from curvedelta import (ArcGrid, ConfigError, NumericsError, boundary_matrix,
                        choose_reference_energy, eigen, make_grid,
                        scattering_block, scattering_layer_matrix)
from oracles import (scattering_block_reference, scattering_condition_reference,
                     scattering_layer_matrix_full, seeded_fourier_curve)

SEEDS = (1, 7, 23, 101, 202)


@pytest.fixture
def factored(monkeypatch):
    """Copies of the matrices every ?sytrf obtained from
    scipy.linalg.get_lapack_funcs is called on, in call order."""
    calls = []
    real_funcs = scipy.linalg.get_lapack_funcs

    def recording(sytrf):
        def call(a, **kwargs):
            calls.append(a.copy())
            return sytrf(a, **kwargs)
        return call

    def get_lapack_funcs(names, arrays=()):
        funcs = real_funcs(names, arrays)
        if isinstance(names, str):
            return funcs
        return tuple(recording(f) if name == "sytrf" else f for name, f in zip(names, funcs))

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", get_lapack_funcs)
    return calls


class TestLayerMatrix:
    def test_equal_energies_zero(self, circle_grid):
        assert not scattering_layer_matrix(circle_grid, -1.0, -1.0).any()

    def test_negative_energy_real_symmetric(self, circle_grid):
        re = scattering_layer_matrix(circle_grid, -2.0, -1.0)
        assert re.dtype == np.float64
        assert np.array_equal(re, re.T)

    def test_imaginary_part_entrywise(self, circle_grid):
        # Im entries are w sin(r_ij)/(4 pi r_ij) with w/(4 pi) on the
        # diagonal; the block reads them as H H^T
        factor = scattering_mod._layer_factor(circle_grid, 1.0)
        im = factor @ factor.T
        pts = circle_grid.points
        w = circle_grid.weight
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        off = ~np.eye(circle_grid.n, dtype=bool)
        expected = np.empty_like(dists)
        expected[off] = w * np.sin(dists[off]) / (4.0 * np.pi * dists[off])
        expected[~off] = w / (4.0 * np.pi)
        assert np.max(np.abs(im - expected)) < 1e-13

    def test_rejects_nonnegative_reference(self, circle_grid):
        # nan is not negative either
        for eta in (0.5, float("nan")):
            with pytest.raises(ConfigError):
                scattering_layer_matrix(circle_grid, 1.0, eta)


class TestLayerFactor:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("name", ["circle", "ellipse", *(f"seed{seed}" for seed in SEEDS)])
    def test_factor_matches_imaginary_part(self, request, name, lam):
        # H H^T against the trapezoid Im N of the complex layer matrix:
        # the degree truncates below eps, and rounding reaches 2.2e-15
        curve = (seeded_fourier_curve(int(name[4:])) if name.startswith("seed")
                 else request.getfixturevalue(name))
        grid = make_grid(curve, 256)
        factor = scattering_mod._layer_factor(grid, lam)
        im = scattering_layer_matrix_full(grid, lam, -1.0).imag
        assert np.max(np.abs(factor @ factor.T - im)) <= 1e-13 * np.max(np.abs(im))

    def test_factor_at_the_centroid_and_the_zeros_of_j0(self):
        # at k = 1, a node on the centroid (where no direction exists), nodes
        # at the first two zeros of j_0 and the first of j_1 (poles of the
        # ratios j_1/j_0 and j_2/j_1), and mirror images that keep the
        # centroid at the origin: H H^T is still w sin(r) / (4 pi r)
        axes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                         [0.6, -0.8, 0.0]])
        radii = np.array([np.pi, 2.0 * np.pi, 4.493409457909064, 0.3])
        half_set = radii[:, None] * axes
        points = np.concatenate([np.zeros((1, 3)), half_set, -half_set])
        nodes = types.SimpleNamespace(points=points, weight=0.25, n=len(points))
        factor = scattering_mod._layer_factor(nodes, 1.0)
        r = np.linalg.norm(points[:, None] - points[None], axis=-1)
        expected = 0.25 * np.sinc(r / np.pi) / (4.0 * np.pi)
        assert np.max(np.abs(factor @ factor.T - expected)) <= 1e-13 * np.max(expected)

    @pytest.mark.parametrize("x", [1e-3, 0.7, 1.83, 5.0, 30.0])
    def test_degree_is_the_smallest_bounding_one(self, x):
        # sum_{l > L} (2l + 1) x^{2l} / ((2l + 1)!!)^2 in 40-digit
        # arithmetic: at most the bound at L, above it at L - 1
        bound = np.finfo(float).eps / 1024

        def tail(degree):
            with mpmath.workdps(40):
                xm = mpmath.mpf(x)
                return sum((2 * l + 1) * xm ** (2 * l) / mpmath.fac2(2 * l + 1) ** 2
                           for l in range(degree + 1, degree + 400))

        degree = scattering_mod._degree(x, bound)
        assert degree > x
        assert tail(degree) <= bound < tail(degree - 1)

    def test_more_waves_than_nodes(self, ellipse_grid):
        # at lam = 64 the factor has more columns than the grid has nodes;
        # it is still a factor of Im N, and the block matches the reference
        # to the bars of test_matches_condition_and_solve_reference
        assert scattering_mod._layer_factor(ellipse_grid, 64.0).shape[1] > ellipse_grid.n
        blk = scattering_block(ellipse_grid, 64.0, -0.5, -1.0)
        ref = scattering_block_reference(ellipse_grid, 64.0, -0.5, -1.0)
        g = blk.retained_dim
        assert g == ref.retained_dim > 0
        top = ref.channel_eigenvalues[0]
        assert np.max(np.abs(blk.channel_eigenvalues[:g] - ref.channel_eigenvalues[:g])) <= 1e-14 * top
        assert abs(blk.unitarity_defect - ref.unitarity_defect) <= 1e-14
        phases = [np.sort(np.angle(scipy.linalg.eigvals(b.matrix))) for b in (blk, ref)]
        assert np.max(np.abs(phases[0] - phases[1])) <= 1e-12


class TestChooseReferenceEnergy:
    def test_default_candidates(self):
        assert choose_reference_energy([-1.0, -4.0, -16.0]) == -1.0
        assert choose_reference_energy([-4.0, -1.0]) == -4.0

    def test_far_coupling_takes_first(self, circle_grid):
        # a coupling far below the spectrum of B(eta) takes the first
        # candidate too, and its block is the one the second would give
        eta = choose_reference_energy([-1.0, -4.0])
        assert eta == -1.0
        b1 = scattering_block(circle_grid, 1.0, -50.0, eta)
        b4 = scattering_block(circle_grid, 1.0, -50.0, -4.0)
        assert b1.retained_dim == b4.retained_dim > 0
        assert np.max(np.abs(b1.matrix - b4.matrix)) <= 1e-13

    def test_empty_candidates(self):
        with pytest.raises(ConfigError):
            choose_reference_energy([])

    @pytest.mark.parametrize("candidates", [[-1.0, 5.0], [5.0, -1.0], [-1.0, -4.0, 0.0],
                                            [-1.0, float("nan")]])
    def test_every_candidate_checked_before_assembly(self, candidates):
        # a candidate that is not negative, nan included, is refused
        # wherever it stands in the list
        with pytest.raises(ConfigError, match="must be negative"):
            choose_reference_energy(candidates)

    def test_reads_no_boundary_operator(self, monkeypatch):
        # the scattering system does not depend on eta: the choice builds no
        # B(eta) and takes no inertia of it
        calls = []
        monkeypatch.setattr(spectral_mod, "boundary_matrix",
                            lambda *args, **kwargs: calls.append("matrix"))
        monkeypatch.setattr(spectral_mod._Operator, "_inertia",
                            lambda *args: calls.append("inertia"))
        assert choose_reference_energy([-1.0, -4.0, -16.0]) == -1.0
        assert calls == []

    def test_alpha_on_reference_spectrum_takes_first(self, circle_grid, ellipse_grid):
        # alpha exactly on the 5th or 21st eigenvalue of B(-1) is no
        # obstacle: the blocks at eta = -1 and eta = -4 agree to rounding
        assert choose_reference_energy([-1.0]) == -1.0
        for grid in (circle_grid, ellipse_grid):
            spec = eigen(boundary_matrix(-1.0, grid))
            for alpha, lam in itertools.product(spec[[4, 20]], (0.5, 1.0, 2.0)):
                b1 = scattering_block(grid, lam, float(alpha), -1.0)
                b4 = scattering_block(grid, lam, float(alpha), -4.0)
                assert b1.retained_dim == b4.retained_dim > 0
                assert np.max(np.abs(b1.matrix - b4.matrix)) <= 1e-13


class TestScatteringBlock:
    def test_threshold_energy_empty_block(self, circle_grid):
        blk = scattering_block(circle_grid, 0.0, -0.5, -1.0)
        assert blk.retained_dim == 0
        assert blk.matrix.shape == (0, 0)
        assert blk.min_channel_eigenvalue == 0.0

    def test_threshold_energy_builds_no_table(self, circle, monkeypatch):
        # at lam = 0 no channel is open: neither Re N nor B(eta) is built,
        # but eta is still checked; a fresh grid, since B(eta) is kept on it
        grid = make_grid(circle, 64)
        calls = []
        monkeypatch.setattr(scattering_mod, "scattering_layer_matrix",
                            lambda *args: calls.append("layer"))
        monkeypatch.setattr(spectral_mod, "boundary_matrix",
                            lambda *args, **kwargs: calls.append("matrix"))
        assert scattering_block(grid, 0.0, -0.5, -1.0).retained_dim == 0
        assert calls == []
        with pytest.raises(ConfigError, match="must be negative"):
            scattering_block(grid, 0.0, -0.5, float("nan"))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_unitarity(self, circle_grid, lam):
        blk = scattering_block(circle_grid, lam, -0.5, -1.0)
        assert blk.retained_dim > 0
        assert blk.unitarity_defect < 1e-6

    def test_channel_psd(self, circle_grid):
        blk = scattering_block(circle_grid, 1.0, -0.5, -1.0)
        top = blk.channel_eigenvalues[0]
        assert blk.min_channel_eigenvalue >= -1e-10 * top

    def test_channel_trace_tail(self, circle_grid):
        # finite-dimensional echo of trace-class decay of Im N: the channel
        # eigenvalues capture all of its trace but a sliver
        blk = scattering_block(circle_grid, 1.0, -0.5, -1.0)
        trace = np.trace(scattering_layer_matrix_full(circle_grid, 1.0, -1.0).imag)
        assert trace - blk.channel_eigenvalues.sum() < 1e-8 * trace

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_min_channel_eigenvalue_is_the_certified_shift(self, ellipse_grid, lam):
        # Im N = H H^T is positive semidefinite with no shift, and with fewer
        # columns than nodes H H^T is singular: 0 is its least eigenvalue
        blk = scattering_block(ellipse_grid, lam, -0.5, -1.0)
        factor = scattering_mod._layer_factor(ellipse_grid, lam)
        assert factor.shape[1] < ellipse_grid.n
        assert blk.min_channel_eigenvalue == 0.0
        assert blk.min_channel_eigenvalue < blk.channel_eigenvalues[-1]

    def test_channel_signs_and_determinism(self, ellipse_grid):
        factor = scattering_mod._layer_factor(ellipse_grid, 1.0)
        _, half = scattering_mod._channel_space(factor)
        # the first entry of at least half the largest magnitude is positive
        mags = np.abs(half)
        leads = np.argmax(mags >= 0.5 * mags.max(axis=0), axis=0)
        assert np.all(half[leads, np.arange(half.shape[1])] > 0)
        b1 = scattering_block(ellipse_grid, 1.0, -0.5, -1.0)
        b2 = scattering_block(ellipse_grid, 1.0, -0.5, -1.0)
        assert np.array_equal(b1.matrix, b2.matrix)
        assert np.array_equal(b1.channel_eigenvalues, b2.channel_eigenvalues)
        assert b1.unitarity_defect == b2.unitarity_defect

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_channel_signs_survive_rounding(self, ellipse_grid, lam):
        # mirror nodes of the ellipse tie for each channel's largest entry;
        # moving every grid coordinate by one ulp (about 1e-16 relative)
        # must not flip a channel's sign
        blk = scattering_block(ellipse_grid, lam, -0.5, -1.0)
        up = np.random.default_rng(1).random(ellipse_grid.points.shape) < 0.5
        points = np.nextafter(ellipse_grid.points, np.where(up, np.inf, -np.inf))
        moved_grid = ArcGrid(curve=ellipse_grid.curve, nodes=ellipse_grid.nodes,
                             weight=ellipse_grid.weight, points=points,
                             curvatures=ellipse_grid.curvatures)
        moved = scattering_block(moved_grid, lam, -0.5, -1.0)
        assert moved.retained_dim == blk.retained_dim
        assert np.max(np.abs(moved.matrix - blk.matrix)) <= 1e-9

    def test_reference_boundary_assembled_once(self, ellipse, monkeypatch):
        # the blocks of a run at one eta share one read-only B(eta)
        grid = make_grid(ellipse, 128)
        built = []
        real_matrix = spectral_mod.boundary_matrix

        def matrix(lam, grid, out=None):
            built.append(lam)
            return real_matrix(lam, grid, out)

        monkeypatch.setattr(spectral_mod, "boundary_matrix", matrix)
        for lam in (0.5, 1.0, 2.0):
            scattering_block(grid, lam, -0.5, -1.0)
        assert built == [-1.0]
        scattering_block(grid, 1.0, -0.5, -4.0)
        assert built == [-1.0, -4.0]
        assert not curves._kept(grid, "reference_boundary", -4.0, None).flags.writeable

    def test_one_reference_assembly_per_run(self, ellipse, tmp_path, monkeypatch):
        # the choice of eta builds nothing and the blocks share one kept
        # B(eta), so a scattering run on a dense grid assembles it once
        built = []
        real_matrix = spectral_mod.boundary_matrix

        def matrix(lam, grid, out=None):
            built.append(lam)
            return real_matrix(lam, grid, out)

        monkeypatch.setattr(spectral_mod, "boundary_matrix", matrix)
        curve = tmp_path / "ellipse.json"
        curve.write_text(json.dumps(curve_to_json_dict(ellipse)))
        assert main(["scattering", "--curve", str(curve), "--n", "128", "--alpha=-0.5",
                     "--lambda", "0.5,1,2", "--out", str(tmp_path)]) == 0
        assert built == [-1.0]

    def test_reference_energy_independence(self, circle_grid, ellipse_grid):
        for grid in (circle_grid, ellipse_grid):
            b1 = scattering_block(grid, 1.0, -0.5, -1.0)
            b2 = scattering_block(grid, 1.0, -0.5, -4.0)
            assert b1.retained_dim == b2.retained_dim
            assert np.max(np.abs(b1.matrix - b2.matrix)) <= 1e-13

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    @pytest.mark.parametrize("name", ["circle", "ellipse", "seed7"])
    def test_system_independent_of_reference_energy(self, request, name, lam):
        # N(lam) + B(eta) is B(lam + i0): A_r = Re N + B(eta) - alpha agrees
        # across eta within 4 ulps of its largest entry, since the smoothing
        # row's cap is off for every eta here (w sqrt(16) <= 6)
        curve = seeded_fourier_curve(7) if name == "seed7" else request.getfixturevalue(name)
        grid = make_grid(curve, 256)
        systems = [scattering_layer_matrix(grid, lam, eta)
                   + scattering_mod._reference_boundary(grid, eta) - (-0.5) * np.eye(grid.n)
                   for eta in (-1.0, -4.0, -16.0)]
        bar = 4.0 * np.spacing(np.max(np.abs(systems[0])))
        for system in systems[1:]:
            assert np.max(np.abs(system - systems[0])) <= bar

    def test_weak_interaction_limit(self, circle_grid):
        blk = scattering_block(circle_grid, 1.0, 1e6, -1.0)
        dev = np.linalg.norm(blk.matrix - np.eye(blk.retained_dim), 2)
        assert dev < 1e-4

    def test_ellipse_unitarity(self, ellipse_grid):
        eta = choose_reference_energy([-1.0, -4.0, -16.0])
        blk = scattering_block(ellipse_grid, 1.0, -0.5, eta)
        assert blk.unitarity_defect < 1e-6

    def test_refuses_where_widening_cannot_reach_unitarity(self, circle_grid, monkeypatch):
        monkeypatch.setattr(scattering_mod, "UNITARITY_TOL", 0.0)
        with pytest.raises(NumericsError, match="cannot be widened until unitary"):
            scattering_block(circle_grid, 1.0, -0.5, -1.0)

    def test_negative_energy_rejected(self, circle_grid):
        with pytest.raises(ConfigError):
            scattering_block(circle_grid, -1.0, -0.5, -1.0)

    def test_refuses_above_condition_limit(self, circle_grid, monkeypatch):
        monkeypatch.setattr(scattering_mod, "CONDITION_LIMIT", 1.0)
        with pytest.raises(NumericsError, match="numerically singular"):
            scattering_block(circle_grid, 1.0, -0.5, -1.0)

    def test_refuses_exact_zero_pivot(self, circle_grid, monkeypatch):
        # N = i diag(1, 0, ..., 0), B = 0, alpha = 0: one retained channel,
        # a zero real part, whose zero pivot sends the block to the complex
        # system, and that system is exactly singular too; a fresh grid,
        # since B(eta) is kept on the grid
        grid = make_grid(circle_grid.curve, circle_grid.n)
        n = grid.n
        factor = np.zeros((n, 1))
        factor[0, 0] = 1.0
        monkeypatch.setattr(scattering_mod, "_layer_factor", lambda grid, lam: factor)
        monkeypatch.setattr(scattering_mod, "scattering_layer_matrix",
                            lambda grid, lam, eta: np.zeros((n, n)))
        monkeypatch.setattr(spectral_mod, "boundary_matrix",
                            lambda lam, grid, out=None: np.zeros((n, n)))
        with pytest.raises(NumericsError, match="exactly singular"):
            scattering_block(grid, 1.0, 0.0, -1.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("grid_name", ["circle_grid", "ellipse_grid"])
    def test_matches_condition_and_solve_reference(self, request, grid_name, lam):
        # the factor's channel space, one real LDL^T of A_r = Re N + B - alpha
        # and the p x p Cayley solve against a full eigh of Im N, an SVD and
        # a separate solve of the complex system: the same channels, the
        # same scattering phases and defect up to roundoff, and a condition
        # (the product of the estimates for A_r and I + iM) within a factor
        # 2 of the complex system's ?sycon estimate and within
        # [1, 10] x kappa_2 here
        grid = request.getfixturevalue(grid_name)
        blk = scattering_block(grid, lam, -0.5, -1.0)
        ref = scattering_block_reference(grid, lam, -0.5, -1.0)
        g = blk.retained_dim
        assert g == ref.retained_dim > 0
        estimate = scattering_condition_reference(grid, lam, -0.5, -1.0)
        assert 0.5 <= blk.condition / estimate <= 2.0
        assert 1.0 <= blk.condition / ref.condition <= 10.0
        top = ref.channel_eigenvalues[0]
        assert np.max(np.abs(blk.channel_eigenvalues[:g] - ref.channel_eigenvalues[:g])) <= 1e-14 * top
        assert abs(blk.unitarity_defect - ref.unitarity_defect) <= 1e-14
        phases = [np.sort(np.angle(scipy.linalg.eigvals(b.matrix))) for b in (blk, ref)]
        assert np.max(np.abs(phases[0] - phases[1])) <= 1e-12

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_system_formed_in_place_bitwise(self, ellipse_grid, lam, factored):
        # A_r = Re N + B_eta - alpha built in the layer tables' storage is
        # the out-of-place sum, bit for bit, and the only N x N factorization
        scattering_block(ellipse_grid, lam, -0.3, -1.0)
        re = scattering_layer_matrix(ellipse_grid, lam, -1.0)
        ref = re + boundary_matrix(-1.0, ellipse_grid) - (-0.3) * np.eye(ellipse_grid.n)
        full = [a for a in factored if a.shape == ref.shape]
        assert len(full) == 1
        assert full[0].dtype == ref.dtype == np.float64
        assert np.array_equal(full[0], ref)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_no_complex_system_factored(self, ellipse_grid, lam, factored):
        # one real N x N ?sytrf and one complex one of I + iM, p x p
        blk = scattering_block(ellipse_grid, lam, -0.5, -1.0)
        p = len(blk.channel_eigenvalues)
        assert [(a.dtype, a.shape) for a in factored] == [
            (np.float64, (ellipse_grid.n,) * 2), (np.complex128, (p, p))]

    def test_complex_fallback_at_a_pole(self, ellipse_grid, factored):
        # alpha on an eigenvalue of Re N + B_eta whose eigenvector couples
        # to the open channels: A_r is singular to rounding (a pole of M)
        # and N + B_eta - alpha is not, so the block factors the complex
        # system and matches the reference
        lam = 1.0
        re = scattering_layer_matrix(ellipse_grid, lam, -1.0)
        im = scattering_layer_matrix_full(ellipse_grid, lam, -1.0).imag
        vals, vecs = scipy.linalg.eigh(re + boundary_matrix(-1.0, ellipse_grid))
        coupling = np.einsum("ij,ik,kj->j", vecs, im, vecs)
        alpha = float(vals[np.argmax(coupling)])
        blk = scattering_block(ellipse_grid, lam, alpha, -1.0)
        ref = scattering_block_reference(ellipse_grid, lam, alpha, -1.0)
        assert [a.dtype for a in factored] == [np.float64, np.complex128]
        assert factored[1].shape == (ellipse_grid.n,) * 2
        assert blk.retained_dim == ref.retained_dim
        assert blk.condition == pytest.approx(
            scattering_condition_reference(ellipse_grid, lam, alpha, -1.0), rel=1e-6)
        assert abs(blk.unitarity_defect - ref.unitarity_defect) <= 1e-14
        phases = [np.sort(np.angle(scipy.linalg.eigvals(b.matrix))) for b in (blk, ref)]
        assert np.max(np.abs(phases[0] - phases[1])) <= 1e-12

    def test_widens_until_unitary(self, seed10_curve):
        # at lam = 0.5 on this curve the 17 channels above rank_tol leak
        # 2.7e-6 of the flux; the block grows along the channel eigenvalues until
        # its defect is below the tolerance, and stops at the first such g
        grid = make_grid(seed10_curve, 1024)
        blk = scattering_block(grid, 0.5, -0.5, -1.0)
        vals, g = blk.channel_eigenvalues, blk.retained_dim
        assert int(np.sum(vals > scattering_mod.RANK_TOL * vals[0])) == 17 < g <= len(vals)
        assert blk.unitarity_defect < scattering_mod.UNITARITY_TOL
        # started at g - 1 channels, the block still grows to g
        start = np.sqrt(vals[g - 2] * vals[g - 1]) / vals[0]
        assert scattering_block(grid, 0.5, -0.5, -1.0, rank_tol=start).retained_dim == g

