import json

import numpy as np
import pytest
import scipy.linalg

import curvedelta.scattering as scattering_mod
import curvedelta.spectral as spectral_mod
from curvedelta import curves, curve_to_json_dict
from curvedelta.cli import main
from curvedelta import (ConfigError, NumericsError, boundary_matrix,
                        choose_reference_energy, eigen, make_grid,
                        scattering_block, scattering_layer_matrix)
from oracles import scattering_block_reference, scattering_condition_reference


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
        re, im = scattering_layer_matrix(circle_grid, -1.0, -1.0)
        assert np.max(np.abs(re)) == np.max(np.abs(im)) == 0.0

    def test_negative_energy_real_symmetric(self, circle_grid):
        re, im = scattering_layer_matrix(circle_grid, -2.0, -1.0)
        assert not np.iscomplexobj(re) and not im.any()
        assert np.array_equal(re, re.T)

    def test_imaginary_part_entrywise(self, circle_grid):
        # Im entries are w sin(r_ij)/(4 pi r_ij) with w/(4 pi) on the diagonal
        _, im = scattering_layer_matrix(circle_grid, 1.0, -1.0)
        pts = circle_grid.points
        w = circle_grid.weight
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        off = ~np.eye(circle_grid.n, dtype=bool)
        expected = np.empty_like(dists)
        expected[off] = w * np.sin(dists[off]) / (4.0 * np.pi * dists[off])
        expected[~off] = w / (4.0 * np.pi)
        assert np.max(np.abs(im - expected)) < 1e-13

    def test_rejects_nonnegative_reference(self, circle_grid):
        with pytest.raises(ConfigError):
            scattering_layer_matrix(circle_grid, 1.0, 0.5)


class TestChooseReferenceEnergy:
    def test_default_candidates(self, circle_grid):
        eta = choose_reference_energy(circle_grid, -0.5, [-1.0, -4.0, -16.0])
        assert eta == -1.0

    def test_far_coupling_takes_first(self, circle_grid):
        assert choose_reference_energy(circle_grid, -50.0, [-1.0, -4.0]) == -1.0

    def test_empty_candidates(self, circle_grid):
        with pytest.raises(ConfigError):
            choose_reference_energy(circle_grid, -0.5, [])

    @pytest.mark.parametrize("candidates", [[-1.0, 5.0], [5.0, -1.0], [-1.0, -4.0, 0.0]])
    def test_every_candidate_checked_before_assembly(self, ellipse, candidates,
                                                     monkeypatch):
        # a non-negative candidate is refused wherever it stands in the
        # list, and before any B(eta) is built
        built = []
        monkeypatch.setattr(spectral_mod, "boundary_matrix",
                            lambda lam, grid: built.append(lam))
        with pytest.raises(ConfigError, match="must be negative"):
            choose_reference_energy(make_grid(ellipse, 64), -0.5, candidates)
        assert built == []

    def test_all_candidates_fail(self, circle_grid):
        spec = eigen(boundary_matrix(-1.0, circle_grid))
        alpha = float(spec[4])   # sits exactly on the spectrum at eta=-1
        with pytest.raises(NumericsError):
            choose_reference_energy(circle_grid, alpha, [-1.0])


class TestScatteringBlock:
    def test_threshold_energy_empty_block(self, circle_grid):
        blk = scattering_block(circle_grid, 0.0, -0.5, -1.0)
        assert blk.retained_dim == 0
        assert blk.matrix.shape == (0, 0)

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
        # finite-dimensional echo of trace-class decay of Im N: the Ritz
        # values capture all of its trace but a sliver
        blk = scattering_block(circle_grid, 1.0, -0.5, -1.0)
        trace = np.trace(scattering_layer_matrix(circle_grid, 1.0, -1.0)[1])
        assert trace - blk.channel_eigenvalues.sum() < 1e-8 * trace

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_min_channel_eigenvalue_is_the_certified_shift(self, ellipse_grid, lam):
        blk = scattering_block(ellipse_grid, lam, -0.5, -1.0)
        im = scattering_layer_matrix(ellipse_grid, lam, -1.0)[1]
        assert blk.min_channel_eigenvalue == -scattering_mod.PSD_SHIFT * np.trace(im) / ellipse_grid.n
        assert blk.min_channel_eigenvalue <= scipy.linalg.eigvalsh(im)[0]

    def test_refuses_non_psd_channel_matrix(self, ellipse_grid, non_psd_channels):
        with pytest.raises(NumericsError, match="not positive semidefinite"):
            scattering_block(ellipse_grid, 1.0, -0.5, -1.0)

    def test_narrow_sketch_widens(self, ellipse_grid, monkeypatch):
        # 13 channels do not fit a 4-column sketch: the certificate fails
        # until the width has doubled past them
        monkeypatch.setattr(scattering_mod, "SKETCH_WIDTH", 4)
        blk = scattering_block(ellipse_grid, 1.0, -0.5, -1.0)
        ref = scattering_block_reference(ellipse_grid, 1.0, -0.5, -1.0)
        assert len(blk.channel_eigenvalues) > 4
        assert blk.retained_dim == ref.retained_dim == 13

    def test_channel_signs_and_determinism(self, ellipse_grid):
        im = np.asfortranarray(scattering_layer_matrix(ellipse_grid, 1.0, -1.0)[1])
        _, vecs, _ = scattering_mod._channel_space(im, scattering_mod.RANK_TOL)
        # the first entry of at least half the largest magnitude is positive
        mags = np.abs(vecs)
        leads = np.argmax(mags >= 0.5 * mags.max(axis=0), axis=0)
        assert np.all(vecs[leads, np.arange(vecs.shape[1])] > 0)
        b1 = scattering_block(ellipse_grid, 1.0, -0.5, -1.0)
        b2 = scattering_block(ellipse_grid, 1.0, -0.5, -1.0)
        assert np.array_equal(b1.matrix, b2.matrix)
        assert np.array_equal(b1.channel_eigenvalues, b2.channel_eigenvalues)
        assert b1.unitarity_defect == b2.unitarity_defect

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_channel_signs_survive_rounding(self, ellipse_grid, lam, monkeypatch):
        # mirror nodes of the ellipse tie for each channel's largest entry;
        # a relative perturbation of about 1e-16 in Im N must not flip a
        # channel's sign (it moved entries by up to 6.2e-3 under the
        # largest-entry rule)
        blk = scattering_block(ellipse_grid, lam, -0.5, -1.0)
        real_matrix = scattering_mod.scattering_layer_matrix

        def perturbed(grid, lam, eta):
            re, im = real_matrix(grid, lam, eta)
            noise = np.random.default_rng(1).standard_normal(im.shape)
            noise += noise.T
            return re, im + 1e-16 * np.abs(im) * noise

        monkeypatch.setattr(scattering_mod, "scattering_layer_matrix", perturbed)
        moved = scattering_block(ellipse_grid, lam, -0.5, -1.0)
        assert moved.retained_dim == blk.retained_dim
        assert np.max(np.abs(moved.matrix - blk.matrix)) <= 1e-9

    def test_reference_boundary_assembled_once(self, ellipse, monkeypatch):
        # the blocks of a run at one eta share one read-only B(eta)
        grid = make_grid(ellipse, 128)
        built = []
        real_matrix = spectral_mod.boundary_matrix

        def matrix(lam, grid):
            built.append(lam)
            return real_matrix(lam, grid)

        monkeypatch.setattr(spectral_mod, "boundary_matrix", matrix)
        for lam in (0.5, 1.0, 2.0):
            scattering_block(grid, lam, -0.5, -1.0)
        assert built == [-1.0]
        scattering_block(grid, 1.0, -0.5, -4.0)
        assert built == [-1.0, -4.0]
        assert not curves._kept(grid, "reference_boundary", -4.0, None).matrix.flags.writeable

    def test_one_reference_assembly_per_run(self, ellipse, tmp_path, monkeypatch):
        # the choice of eta reads its spectrum off the B(eta) the blocks
        # reuse, so a scattering run on a dense grid assembles B(eta) once
        built = []
        real_matrix = spectral_mod.boundary_matrix

        def matrix(lam, grid):
            built.append(lam)
            return real_matrix(lam, grid)

        monkeypatch.setattr(spectral_mod, "boundary_matrix", matrix)
        curve = tmp_path / "ellipse.json"
        curve.write_text(json.dumps(curve_to_json_dict(ellipse)))
        assert main(["scattering", "--curve", str(curve), "--n", "128", "--alpha=-0.5",
                     "--lambda", "0.5,1,2", "--out", str(tmp_path)]) == 0
        assert built == [-1.0]

    def test_reference_energy_independence(self, circle_grid):
        b1 = scattering_block(circle_grid, 1.0, -0.5, -1.0)
        b2 = scattering_block(circle_grid, 1.0, -0.5, -4.0)
        assert b1.retained_dim == b2.retained_dim
        assert np.linalg.norm(b1.matrix - b2.matrix, 2) < 1e-5

    def test_weak_interaction_limit(self, circle_grid):
        blk = scattering_block(circle_grid, 1.0, 1e6, -1.0)
        dev = np.linalg.norm(blk.matrix - np.eye(blk.retained_dim), 2)
        assert dev < 1e-4

    def test_ellipse_unitarity(self, ellipse_grid):
        eta = choose_reference_energy(ellipse_grid, -0.5, [-1.0, -4.0, -16.0])
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
        im = np.zeros((n, n))
        im[0, 0] = 1.0
        monkeypatch.setattr(scattering_mod, "scattering_layer_matrix",
                            lambda grid, lam, eta: (np.zeros((n, n)), im.copy()))
        monkeypatch.setattr(spectral_mod, "boundary_matrix",
                            lambda lam, grid: np.zeros((n, n)))
        with pytest.raises(NumericsError, match="exactly singular"):
            scattering_block(grid, 1.0, 0.0, -1.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("grid_name", ["circle_grid", "ellipse_grid"])
    def test_matches_condition_and_solve_reference(self, request, grid_name, lam):
        # the sketched channel space, one real LDL^T of A_r = Re N + B - alpha
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
        re, _ = scattering_layer_matrix(ellipse_grid, lam, -1.0)
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
        re, im = scattering_layer_matrix(ellipse_grid, lam, -1.0)
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
        # 2.7e-6 of the flux; the block grows along the Ritz values until
        # its defect is below the tolerance, and stops at the first such g
        grid = make_grid(seed10_curve, 1024)
        blk = scattering_block(grid, 0.5, -0.5, -1.0)
        vals, g = blk.channel_eigenvalues, blk.retained_dim
        assert int(np.sum(vals > scattering_mod.RANK_TOL * vals[0])) == 17 < g <= len(vals)
        assert blk.unitarity_defect < scattering_mod.UNITARITY_TOL
        # started at g - 1 channels, the block still grows to g
        start = np.sqrt(vals[g - 2] * vals[g - 1]) / vals[0]
        assert scattering_block(grid, 0.5, -0.5, -1.0, rank_tol=start).retained_dim == g

