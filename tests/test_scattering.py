import itertools
import json
import os
import pathlib
import subprocess
import sys
import types

import mpmath
import numpy as np
import pytest
import scipy.linalg

import curvedelta
import curvedelta.cli as cli_mod
import curvedelta.scattering as scattering_mod
import curvedelta.spectral as spectral_mod
from curvedelta import curve_to_json_dict
from curvedelta.cli import main
from curvedelta import (ArcGrid, ConfigError, NumericsError, boundary_matrix,
                        eigen, make_ellipse, make_grid, reparametrize_arclength,
                        scattering_block, scattering_layer_matrix)
from curvedelta.scattering import choose_reference_energy
from oracles import (dense_scattering_block, reference_scattering_system,
                     ring_channel_eigenvalues, scattering_block_reference,
                     scattering_condition_reference, scattering_layer_matrix_full,
                     seeded_fourier_curve)

SEEDS = (1, 7, 23, 101, 202)

# refuses an infinite energy on the N = 64 circle or 2:1 ellipse named by
# argv[1], first in `scattering_block`, then in `_degree` itself; its
# address space is capped at 1 GiB, since the unbounded loop this guards
# against grows a list by about 90 MB/s
INFINITE_ENERGY_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from curvedelta import ConfigError, make_circle, make_ellipse, make_grid, reparametrize_arclength
from curvedelta.scattering import _degree, scattering_block
curve = make_circle(1.0) if sys.argv[1] == "circle" else reparametrize_arclength(make_ellipse(2.0, 1.0))
grid = make_grid(curve, 64)
for refuse in (lambda: scattering_block(grid, float("inf"), -0.5),
               lambda: _degree(float("inf"), 1e-18)):
    try:
        refuse()
    except ConfigError as exc:
        print(exc)
    else:
        sys.exit("not refused")
"""


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


@pytest.fixture
def boundary_assemblies(monkeypatch):
    """The energies of every boundary_matrix call, through any module that
    holds the function."""
    built = []
    real = curvedelta.assembly.boundary_matrix

    def matrix(lam, grid, out=None):
        built.append(lam)
        return real(lam, grid, out)

    for module in (curvedelta, curvedelta.assembly, spectral_mod):
        monkeypatch.setattr(module, "boundary_matrix", matrix)
    return built


def _eta_block(grid, lam, alpha, eta):
    """The block the earlier system Re N + B(eta) - alpha gives through the
    library's dense factorization, on a circle grid too: the scattering
    block at reference energy eta."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scattering_mod, "scattering_layer_matrix",
                   lambda grid, lam: reference_scattering_system(grid, lam, eta))
        return dense_scattering_block(grid, lam, alpha)


class TestLayerMatrix:
    def test_equal_energies_zero(self, circle_grid, ellipse_grid):
        # at lam = 0 the outgoing and the decaying kernels are both
        # 1/(4 pi r), so Re B(0 + i0) - B(0) is zero, bit for bit
        for grid in (circle_grid, ellipse_grid):
            assert not (scattering_layer_matrix(grid, 0.0) - boundary_matrix(0.0, grid)).any()

    def test_real_symmetric(self, ellipse_grid):
        re = scattering_layer_matrix(ellipse_grid, 2.0)
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

    def test_rejects_negative_and_nan_energy(self, circle_grid):
        for lam in (-1.0, float("nan")):
            with pytest.raises(ConfigError, match="lam >= 0"):
                scattering_layer_matrix(circle_grid, lam)


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
        blk = scattering_block(ellipse_grid, 64.0, -0.5)
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
        # candidate too, and the block, which reads no eta, is the one the
        # earlier system gives at either candidate
        assert choose_reference_energy([-1.0, -4.0]) == -1.0
        blk = scattering_block(circle_grid, 1.0, -50.0)
        for eta in (-1.0, -4.0):
            ref = _eta_block(circle_grid, 1.0, -50.0, eta)
            assert blk.retained_dim == ref.retained_dim > 0
            assert np.max(np.abs(blk.matrix - ref.matrix)) <= 1e-13

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
        # obstacle: the block agrees to rounding with the ones the earlier
        # system gives at eta = -1 and eta = -4
        assert choose_reference_energy([-1.0]) == -1.0
        for grid in (circle_grid, ellipse_grid):
            spec = eigen(boundary_matrix(-1.0, grid))
            for alpha, lam in itertools.product(spec[[4, 20]], (0.5, 1.0, 2.0)):
                blk = scattering_block(grid, lam, float(alpha))
                for eta in (-1.0, -4.0):
                    ref = _eta_block(grid, lam, float(alpha), eta)
                    assert blk.retained_dim == ref.retained_dim > 0
                    assert np.max(np.abs(blk.matrix - ref.matrix)) <= 1e-13


class TestScatteringBlock:
    def test_threshold_energy_empty_block(self, circle_grid):
        blk = scattering_block(circle_grid, 0.0, -0.5)
        assert blk.retained_dim == 0
        assert blk.matrix.shape == (0, 0)
        assert blk.min_channel_eigenvalue == 0.0

    def test_threshold_energy_builds_no_table(self, circle_grid, monkeypatch,
                                              boundary_assemblies):
        # at lam = 0 no channel is open: no table is built
        calls = []
        monkeypatch.setattr(scattering_mod, "scattering_layer_matrix",
                            lambda *args: calls.append("layer"))
        assert scattering_block(circle_grid, 0.0, -0.5).retained_dim == 0
        assert calls == boundary_assemblies == []

    def test_nan_energy_refused(self, circle_grid):
        # nan is neither below zero nor at or above it: every entry point
        # refuses it, where a plain lam < 0 test once let it through
        with pytest.raises(ConfigError, match="lam >= 0"):
            scattering_block(circle_grid, float("nan"), -0.5)

    @pytest.mark.parametrize("rank_tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerance_not_finite_and_positive_refused(self, rank_tol):
        # as the command line refuses it: with rank_tol = nan no channel
        # passed the cut, and the N = 128 2:1 ellipse at lam = 1 returned an
        # empty block with 19 open channels
        grid = make_grid(reparametrize_arclength(make_ellipse(2.0, 1.0)), 128)
        with pytest.raises(ConfigError, match="tolerance rank_tol must be finite and positive"):
            scattering_block(grid, 1.0, -0.5, rank_tol=rank_tol)

    @pytest.mark.parametrize("curve", ["ellipse", "circle"])
    def test_infinite_energy_refused(self, curve):
        # `_degree` once looped without end at an infinite argument, so an
        # infinite energy hung every non-circle grid; a separate process
        # with a timeout fails instead of hanging the suite
        paths = [str(pathlib.Path(curvedelta.__file__).parents[1])]
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       paths + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", INFINITE_ENERGY_CHILD, curve], env=env,
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "scattering block is defined for finite lam >= 0, got lam=inf",
            "harmonic degree needs a finite argument, got inf"]

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_unitarity(self, circle_grid, lam):
        blk = scattering_block(circle_grid, lam, -0.5)
        assert blk.retained_dim > 0
        assert blk.unitarity_defect < 1e-6

    def test_channel_psd(self, circle_grid):
        blk = scattering_block(circle_grid, 1.0, -0.5)
        top = blk.channel_eigenvalues[0]
        assert blk.min_channel_eigenvalue >= -1e-10 * top

    def test_channel_trace_tail(self, circle_grid):
        # finite-dimensional echo of trace-class decay of Im N: the channel
        # eigenvalues capture all of its trace but a sliver
        blk = scattering_block(circle_grid, 1.0, -0.5)
        trace = np.trace(scattering_layer_matrix_full(circle_grid, 1.0, -1.0).imag)
        assert trace - blk.channel_eigenvalues.sum() < 1e-8 * trace

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_min_channel_eigenvalue_is_the_certified_shift(self, ellipse_grid, lam):
        # Im N = H H^T is positive semidefinite with no shift, and with fewer
        # columns than nodes H H^T is singular: 0 is its least eigenvalue
        blk = scattering_block(ellipse_grid, lam, -0.5)
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
        b1 = scattering_block(ellipse_grid, 1.0, -0.5)
        b2 = scattering_block(ellipse_grid, 1.0, -0.5)
        assert np.array_equal(b1.matrix, b2.matrix)
        assert np.array_equal(b1.channel_eigenvalues, b2.channel_eigenvalues)
        assert b1.unitarity_defect == b2.unitarity_defect

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_channel_signs_survive_rounding(self, ellipse_grid, lam):
        # mirror nodes of the ellipse tie for each channel's largest entry;
        # moving every grid coordinate by one ulp (about 1e-16 relative)
        # must not flip a channel's sign
        blk = scattering_block(ellipse_grid, lam, -0.5)
        up = np.random.default_rng(1).random(ellipse_grid.points.shape) < 0.5
        points = np.nextafter(ellipse_grid.points, np.where(up, np.inf, -np.inf))
        moved_grid = ArcGrid(curve=ellipse_grid.curve, nodes=ellipse_grid.nodes,
                             weight=ellipse_grid.weight, points=points,
                             curvatures=ellipse_grid.curvatures)
        moved = scattering_block(moved_grid, lam, -0.5)
        assert moved.retained_dim == blk.retained_dim
        assert np.max(np.abs(moved.matrix - blk.matrix)) <= 1e-9

    def test_assembles_no_boundary_matrix(self, ellipse, boundary_assemblies):
        # Re B(lam + i0) is built whole: no B(eta) is assembled or kept
        grid = make_grid(ellipse, 128)
        for lam in (0.5, 1.0, 2.0):
            scattering_block(grid, lam, -0.5)
        assert boundary_assemblies == []
        assert "reference_boundary" not in grid.__dict__

    def test_run_assembles_no_boundary_matrix(self, ellipse, tmp_path, monkeypatch,
                                              boundary_assemblies):
        # nor does a scattering run of the command line, which reads no eta
        grids = []
        real_grid = cli_mod.make_grid
        monkeypatch.setattr(cli_mod, "make_grid",
                            lambda curve, n: grids.append(real_grid(curve, n)) or grids[-1])
        curve = tmp_path / "ellipse.json"
        curve.write_text(json.dumps(curve_to_json_dict(ellipse)))
        assert main(["scattering", "--curve", str(curve), "--n", "128", "--alpha=-0.5",
                     "--lambda", "0.5,1,2", "--out", str(tmp_path)]) == 0
        assert boundary_assemblies == []
        assert len(grids) == 1 and "reference_boundary" not in grids[0].__dict__

    def test_reference_energy_independence(self, circle_grid, ellipse_grid):
        # the block agrees with the ones the earlier system Re N + B(eta)
        # gives at eta = -1 and -4
        for grid in (circle_grid, ellipse_grid):
            blk = scattering_block(grid, 1.0, -0.5)
            for eta in (-1.0, -4.0):
                ref = _eta_block(grid, 1.0, -0.5, eta)
                assert blk.retained_dim == ref.retained_dim
                assert np.max(np.abs(blk.matrix - ref.matrix)) <= 1e-13

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("name", ["circle", "ellipse", "seed7"])
    def test_system_independent_of_reference_energy(self, request, name, lam):
        # N(lam) + B(eta) is B(lam + i0): the table Re B(lam + i0) agrees
        # with the earlier Re N + B(eta) at every eta within 4 ulps of its
        # largest entry, since the smoothing row's cap is off for every eta
        # here (w sqrt(16) <= 6); 1 ulp was seen
        curve = seeded_fourier_curve(7) if name == "seed7" else request.getfixturevalue(name)
        for n in (256, 1024):
            grid = make_grid(curve, n)
            table = scattering_layer_matrix(grid, lam)
            bar = 4.0 * np.spacing(np.max(np.abs(table)))
            for eta in (-1.0, -4.0, -16.0):
                assert np.max(np.abs(table - reference_scattering_system(grid, lam, eta))) <= bar

    def test_weak_interaction_limit(self, circle_grid):
        blk = scattering_block(circle_grid, 1.0, 1e6)
        dev = np.linalg.norm(blk.matrix - np.eye(blk.retained_dim), 2)
        assert dev < 1e-4

    def test_ellipse_unitarity(self, ellipse_grid):
        blk = scattering_block(ellipse_grid, 1.0, -0.5)
        assert blk.unitarity_defect < 1e-6

    def test_refuses_where_widening_cannot_reach_unitarity(self, ellipse_grid, monkeypatch):
        monkeypatch.setattr(scattering_mod, "UNITARITY_TOL", 0.0)
        with pytest.raises(NumericsError, match="cannot be widened until unitary"):
            scattering_block(ellipse_grid, 1.0, -0.5)

    def test_negative_energy_rejected(self, circle_grid):
        with pytest.raises(ConfigError):
            scattering_block(circle_grid, -1.0, -0.5)

    def test_refuses_above_condition_limit(self, ellipse_grid, monkeypatch):
        monkeypatch.setattr(scattering_mod, "CONDITION_LIMIT", 1.0)
        with pytest.raises(NumericsError, match="numerically singular"):
            scattering_block(ellipse_grid, 1.0, -0.5)

    def test_refuses_exact_zero_pivot(self, ellipse_grid, monkeypatch):
        # Im B = diag(1, 0, ..., 0), Re B = 0, alpha = 0: one retained
        # channel, a zero real part, whose zero pivot sends the block to the
        # complex system, and that system is exactly singular too
        n = ellipse_grid.n
        factor = np.zeros((n, 1))
        factor[0, 0] = 1.0
        monkeypatch.setattr(scattering_mod, "_layer_factor", lambda grid, lam: factor)
        monkeypatch.setattr(scattering_mod, "scattering_layer_matrix",
                            lambda grid, lam: np.zeros((n, n)))
        with pytest.raises(NumericsError, match="exactly singular"):
            scattering_block(ellipse_grid, 1.0, 0.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("grid_name", ["circle_grid", "ellipse_grid"])
    def test_matches_condition_and_solve_reference(self, request, grid_name, lam):
        # the factor's channel space, one real LDL^T of A_r = Re B - alpha
        # and the p x p Cayley solve against a full eigh of Im N, an SVD and
        # a separate solve of the complex system: the same channels, the
        # same scattering phases and defect up to roundoff, and a condition
        # (the product of the estimates for A_r and I + iM) within a factor
        # 2 of the complex system's ?sycon estimate and within
        # [1, 10] x kappa_2 here
        grid = request.getfixturevalue(grid_name)
        blk = scattering_block(grid, lam, -0.5)
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
        # A_r = Re B(lam + i0) - alpha built in the table's storage is the
        # out-of-place difference, bit for bit, and the only N x N
        # factorization
        scattering_block(ellipse_grid, lam, -0.3)
        ref = scattering_layer_matrix(ellipse_grid, lam) - (-0.3) * np.eye(ellipse_grid.n)
        full = [a for a in factored if a.shape == ref.shape]
        assert len(full) == 1
        assert full[0].dtype == ref.dtype == np.float64
        assert np.array_equal(full[0], ref)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_no_complex_system_factored(self, ellipse_grid, lam, factored):
        # one real N x N ?sytrf and one complex one of I + iM, p x p
        blk = scattering_block(ellipse_grid, lam, -0.5)
        p = len(blk.channel_eigenvalues)
        assert [(a.dtype, a.shape) for a in factored] == [
            (np.float64, (ellipse_grid.n,) * 2), (np.complex128, (p, p))]

    def test_complex_fallback_at_a_pole(self, ellipse_grid, factored):
        # alpha on an eigenvalue of Re B(lam + i0) whose eigenvector couples
        # to the open channels: A_r is singular to rounding (a pole of M)
        # and B(lam + i0) - alpha is not, so the block factors the complex
        # system and matches the reference
        lam = 1.0
        im = scattering_layer_matrix_full(ellipse_grid, lam, -1.0).imag
        vals, vecs = scipy.linalg.eigh(scattering_layer_matrix(ellipse_grid, lam))
        coupling = np.einsum("ij,ik,kj->j", vecs, im, vecs)
        alpha = float(vals[np.argmax(coupling)])
        blk = scattering_block(ellipse_grid, lam, alpha)
        ref = scattering_block_reference(ellipse_grid, lam, alpha, -1.0)
        assert [a.dtype for a in factored] == [np.float64, np.complex128]
        assert factored[1].shape == (ellipse_grid.n,) * 2
        assert blk.retained_dim == ref.retained_dim
        assert blk.condition == pytest.approx(
            scattering_condition_reference(ellipse_grid, lam, alpha, -1.0), rel=1e-6)
        # both defects are rounding, so each is held to 8 p eps for the
        # block's p = 17 channels (3.0e-14): the reference read 3.2e-15 at
        # one BLAS thread and 4.8e-15 at two (at most 1.3 p eps, and 3.2 p eps
        # in an earlier build), the block 1.1e-15 to 1.3e-15
        bar = 8.0 * len(blk.channel_eigenvalues) * np.finfo(float).eps
        assert blk.unitarity_defect <= bar and ref.unitarity_defect <= bar
        # the pole's eigenvalue s = -1 can read angle +pi in one block and
        # -pi in the other (it does at one BLAS thread), which moves it to
        # the other end of the sorted phases: they are compared modulo 2 pi,
        # over the cyclic shifts of one list
        phases = [np.sort(np.angle(scipy.linalg.eigvals(b.matrix))) for b in (blk, ref)]
        apart = [np.max(np.abs(np.angle(np.exp(1j * (phases[0] - np.roll(phases[1], shift))))))
                 for shift in range(len(phases[1]))]
        assert min(apart) <= 1e-12

    def test_widens_until_unitary(self, seed10_curve):
        # at lam = 0.5 on this curve the 17 channels above rank_tol leak
        # 2.7e-6 of the flux; the block grows along the channel eigenvalues until
        # its defect is below the tolerance, and stops at the first such g
        grid = make_grid(seed10_curve, 1024)
        blk = scattering_block(grid, 0.5, -0.5)
        vals, g = blk.channel_eigenvalues, blk.retained_dim
        assert int(np.sum(vals > scattering_mod.RANK_TOL * vals[0])) == 17 < g <= len(vals)
        assert blk.unitarity_defect < scattering_mod.UNITARITY_TOL
        # started at g - 1 channels, the block still grows to g
        start = np.sqrt(vals[g - 2] * vals[g - 1]) / vals[0]
        assert scattering_block(grid, 0.5, -0.5, rank_tol=start).retained_dim == g



class TestCircleBlock:
    """On a circle grid A_r and Im N are circulants and S' is diagonal on the
    Fourier channels, s_m = (a_m - i c_m)/(a_m + i c_m)."""

    @pytest.mark.parametrize("n, lam", [(256, 1.0), (256, 16.0), (1024, 2.0)])
    def test_channel_modes_match_the_ring_series(self, circle, n, lam):
        # c_m against the continuum ring's 2 pi R k sum_l |Y_lm(pi/2, 0)|^2
        # j_l(kR)^2, an answer that does not come from the method: the
        # trapezoid rule on the entire kernel aliases only wavenumbers
        # m +- N.  At most 4.6e-16 of max c was seen for m < 12; the bar
        # leaves a margin of 20
        grid = make_grid(circle, n)
        modes = scattering_mod._circle_modes_at(grid, lam)[1]
        ring = ring_channel_eigenvalues(grid.length / (2.0 * np.pi), lam, range(12))
        assert np.max(np.abs(modes[:12] - ring)) <= 1e-14 * np.max(modes)

    @pytest.mark.parametrize("alpha", [-0.3, -0.5])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_matches_the_dense_path(self, circle, n, lam, alpha):
        # the same channels (eigenvalues within 8.1e-15 of the top one were
        # seen), the same g, the same scattering phases (within 5.8e-15) and
        # the same condition (the dense path's LAPACK estimate agreed with
        # the exact one to 5 digits); the condition is within the 0.5-2x band
        # of the complex system's estimate at alpha = -0.5, as on the dense
        # path, which at alpha = -0.3, lam = 2 reads 2.9-3.0x it on both
        grid = make_grid(circle, n)
        blk = scattering_block(grid, lam, alpha)
        ref = dense_scattering_block(grid, lam, alpha)
        g = blk.retained_dim
        assert g == ref.retained_dim > 0
        top = ref.channel_eigenvalues[0]
        assert np.max(np.abs(blk.channel_eigenvalues[:g] - ref.channel_eigenvalues[:g])) <= 1e-14 * top
        phases = [np.sort(np.angle(scipy.linalg.eigvals(b.matrix))) for b in (blk, ref)]
        assert np.max(np.abs(phases[0] - phases[1])) <= 1e-13
        assert blk.condition == pytest.approx(ref.condition, rel=1e-3)
        if alpha == -0.5:
            estimate = scattering_condition_reference(grid, lam, alpha, -1.0)
            assert 0.5 <= blk.condition / estimate <= 2.0
        # diagonal, and unitary to rounding
        assert not (blk.matrix - np.diag(np.diag(blk.matrix))).any()
        assert blk.unitarity_defect <= 4.0 * np.finfo(float).eps

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_builds_no_table_and_factors_nothing(self, circle_grid, monkeypatch, factored, lam):
        # the circle block reads the modes alone: no N x N table, no ?sytrf
        def refused(*args):
            raise AssertionError("the circle block built a table")

        monkeypatch.setattr(scattering_mod, "scattering_layer_matrix", refused)
        monkeypatch.setattr(scattering_mod, "_layer_factor", refused)
        assert scattering_block(circle_grid, lam, -0.5).retained_dim > 0
        assert factored == []

    def test_complex_fallback_at_a_pole(self, circle_grid, factored):
        # alpha exactly on a mode value a_m of Re B(lam + i0) whose c_m is
        # open: A_r is exactly singular, so the block takes the circulant
        # A_r + i Im N, whose condition is exact, and s_m = -1
        lam = 1.0
        real, im = scattering_mod._circle_modes_at(circle_grid, lam)
        alpha = float(real[1])
        blk = scattering_block(circle_grid, lam, alpha)
        assert factored == []
        modes = real - alpha + 1j * im
        assert blk.condition == scattering_mod._circulant_condition(modes, circle_grid.n)
        assert blk.retained_dim > 2
        assert np.sum(np.isclose(np.diag(blk.matrix), -1.0, rtol=0.0, atol=1e-15)) == 2

    def test_refuses_exact_zero_mode(self, circle_grid, monkeypatch):
        # Re B = 0, Im N with one mode c_0 = 1, alpha = 0: one retained
        # channel, an exactly singular A_r, and the complex circulant has
        # an exact zero mode too
        zeros = np.zeros(circle_grid.n // 2 + 1)
        im = zeros.copy()
        im[0] = 1.0
        monkeypatch.setattr(scattering_mod, "_circle_modes_at", lambda grid, lam: (zeros, im))
        with pytest.raises(NumericsError, match="exactly singular"):
            scattering_block(circle_grid, 1.0, 0.0)

    def test_refuses_above_condition_limit(self, circle_grid, monkeypatch):
        monkeypatch.setattr(scattering_mod, "CONDITION_LIMIT", 1.0)
        with pytest.raises(NumericsError, match="numerically singular"):
            scattering_block(circle_grid, 1.0, -0.5)

    def test_refuses_where_widening_cannot_reach_unitarity(self, circle_grid, monkeypatch):
        monkeypatch.setattr(scattering_mod, "UNITARITY_TOL", 0.0)
        with pytest.raises(NumericsError, match="cannot be widened until unitary"):
            scattering_block(circle_grid, 1.0, -0.5)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_coupling_refused_on_both_paths(self, circle_grid, ellipse_grid, alpha):
        # LAPACK's factorization of the dense table reports the non-finite
        # pivot as a singular one, and the circle reads such modes as an
        # infinite condition: one refusal, with no RuntimeWarning
        for grid in (circle_grid, ellipse_grid):
            with pytest.raises(NumericsError, match="exactly singular"):
                scattering_block(grid, 1.0, alpha)

    def test_refuses_non_finite_modes(self, circle_grid, monkeypatch):
        # the table's finiteness refusal, read on the modes
        monkeypatch.setattr(scattering_mod, "_outgoing_smoothing_row",
                            lambda lam, grid: np.full(grid.n, np.nan))
        with pytest.raises(ConfigError, match="scattering lam=1: non-finite"):
            scattering_block(circle_grid, 1.0, -0.5)
