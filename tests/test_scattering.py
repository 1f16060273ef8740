import numpy as np
import pytest
import scipy.linalg

import curvedelta.scattering as scattering_mod
from curvedelta import (ConfigError, NumericsError, boundary_matrix,
                        choose_reference_energy, eigen, make_grid,
                        scattering_block, scattering_layer_matrix)
from oracles import (scattering_block_reference, scattering_condition_reference,
                     scattering_system_reference)


class TestLayerMatrix:
    def test_equal_energies_zero(self, circle_grid):
        mat = scattering_layer_matrix(circle_grid, -1.0, -1.0)
        assert np.max(np.abs(mat)) == 0.0

    def test_negative_energy_real_symmetric(self, circle_grid):
        mat = scattering_layer_matrix(circle_grid, -2.0, -1.0)
        assert not np.iscomplexobj(mat)
        assert np.array_equal(mat, mat.T)

    def test_imaginary_part_entrywise(self, circle_grid):
        # Im entries are w sin(r_ij)/(4 pi r_ij) with w/(4 pi) on the diagonal
        mat = scattering_layer_matrix(circle_grid, 1.0, -1.0)
        pts = circle_grid.points
        w = circle_grid.weight
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        off = ~np.eye(circle_grid.n, dtype=bool)
        expected = np.empty_like(dists)
        expected[off] = w * np.sin(dists[off]) / (4.0 * np.pi * dists[off])
        expected[~off] = w / (4.0 * np.pi)
        assert np.max(np.abs(mat.imag - expected)) < 1e-13

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

    def test_all_candidates_fail(self, circle_grid):
        spec = eigen(boundary_matrix(-1.0, circle_grid))
        alpha = float(spec.values[4])   # sits exactly on the spectrum at eta=-1
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
        trace = np.trace(scattering_layer_matrix(circle_grid, 1.0, -1.0).imag)
        assert trace - blk.channel_eigenvalues.sum() < 1e-8 * trace

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_min_channel_eigenvalue_is_the_certified_shift(self, ellipse_grid, lam):
        blk = scattering_block(ellipse_grid, lam, -0.5, -1.0)
        im = scattering_layer_matrix(ellipse_grid, lam, -1.0).imag
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
        im = np.asfortranarray(scattering_layer_matrix(ellipse_grid, 1.0, -1.0).imag)
        _, vecs, _ = scattering_mod._channel_space(im, scattering_mod.RANK_TOL)
        peaks = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
        assert np.all(peaks > 0)
        b1 = scattering_block(ellipse_grid, 1.0, -0.5, -1.0)
        b2 = scattering_block(ellipse_grid, 1.0, -0.5, -1.0)
        assert np.array_equal(b1.matrix, b2.matrix)
        assert np.array_equal(b1.channel_eigenvalues, b2.channel_eigenvalues)
        assert b1.unitarity_defect == b2.unitarity_defect

    def test_reference_boundary_assembled_once(self, ellipse, monkeypatch):
        # the blocks of a run at one eta share one read-only B(eta)
        grid = make_grid(ellipse, 128)
        built = []
        real_matrix = scattering_mod.boundary_matrix

        def matrix(lam, grid):
            built.append(lam)
            return real_matrix(lam, grid)

        monkeypatch.setattr(scattering_mod, "boundary_matrix", matrix)
        for lam in (0.5, 1.0, 2.0):
            scattering_block(grid, lam, -0.5, -1.0)
        assert built == [-1.0]
        scattering_block(grid, 1.0, -0.5, -4.0)
        assert built == [-1.0, -4.0]
        assert not grid.reference_boundary(-4.0, matrix).flags.writeable

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

    def test_negative_energy_rejected(self, circle_grid):
        with pytest.raises(ConfigError):
            scattering_block(circle_grid, -1.0, -0.5, -1.0)

    def test_refuses_above_condition_limit(self, circle_grid, monkeypatch):
        monkeypatch.setattr(scattering_mod, "CONDITION_LIMIT", 1.0)
        with pytest.raises(NumericsError, match="numerically singular"):
            scattering_block(circle_grid, 1.0, -0.5, -1.0)

    def test_refuses_exact_zero_pivot(self, circle_grid, monkeypatch):
        # N = i diag(1, 0, ..., 0), B = 0, alpha = 0: one retained channel
        # and an exactly singular system; a fresh grid, since B(eta) is
        # kept on the grid
        grid = make_grid(circle_grid.curve, circle_grid.n)
        n = grid.n
        n_mat = np.zeros((n, n), dtype=complex)
        n_mat[0, 0] = 1j
        monkeypatch.setattr(scattering_mod, "scattering_layer_matrix",
                            lambda grid, lam, eta: n_mat.copy())
        monkeypatch.setattr(scattering_mod, "boundary_matrix",
                            lambda lam, grid: np.zeros((n, n)))
        with pytest.raises(NumericsError, match="exactly singular"):
            scattering_block(grid, 1.0, 0.0, -1.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("grid_name", ["circle_grid", "ellipse_grid"])
    def test_matches_condition_and_solve_reference(self, request, grid_name, lam):
        # the sketched channel space and one LDL^T factorization against a
        # full eigh of Im N, an SVD and a separate solve: the same channels,
        # the same scattering phases and defect up to roundoff, and the
        # condition estimate of one ?sytrf of the same system, within
        # [1, 10] x kappa_2 here
        grid = request.getfixturevalue(grid_name)
        blk = scattering_block(grid, lam, -0.5, -1.0)
        ref = scattering_block_reference(grid, lam, -0.5, -1.0)
        g = blk.retained_dim
        assert g == ref.retained_dim > 0
        assert blk.condition == scattering_condition_reference(grid, lam, -0.5, -1.0)
        assert 1.0 <= blk.condition / ref.condition <= 10.0
        top = ref.channel_eigenvalues[0]
        assert np.max(np.abs(blk.channel_eigenvalues[:g] - ref.channel_eigenvalues[:g])) <= 1e-14 * top
        assert abs(blk.unitarity_defect - ref.unitarity_defect) <= 1e-14
        phases = [np.sort(np.angle(scipy.linalg.eigvals(b.matrix))) for b in (blk, ref)]
        assert np.max(np.abs(phases[0] - phases[1])) <= 1e-12

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_system_formed_in_place_bitwise(self, ellipse_grid, lam, monkeypatch):
        # N + B_eta - alpha built in the layer matrix's storage is the
        # out-of-place sum, bit for bit
        factored = []
        real_funcs = scipy.linalg.get_lapack_funcs

        def get_lapack_funcs(names, arrays):
            sytrf, *rest = real_funcs(names, arrays)

            def recording_sytrf(a, **kwargs):
                factored.append(a.copy())
                return sytrf(a, **kwargs)
            return (recording_sytrf, *rest)

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", get_lapack_funcs)
        scattering_block(ellipse_grid, lam, -0.3, -1.0)
        ref = scattering_system_reference(ellipse_grid, lam, -0.3, -1.0)
        assert len(factored) == 1
        assert factored[0].dtype == ref.dtype
        assert np.array_equal(factored[0], ref)
