import gc
import itertools
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, reject, settings
from hypothesis import strategies

from curvedelta import assembly, curves, spectral
from curvedelta import (ConfigError, CurveError, InvariantError, NumericsError,
                        asymptotic_count_bounds, boundary_matrix,
                        circle_mode_eigenvalues, count_bound_states, eigen,
                        find_bound_states,
                        isoperimetric_compare, make_circle,
                        make_grid, reparametrize_arclength, scattering_layer_matrix)
from curvedelta.assembly import comparison_matrix
from curvedelta.spectral import (ROOT_TOL, _circle_levels, _interval_index,
                                 boundary_spectrum, eigenvalue_at)
from oracles import (brent_bound_state_energies, circle_top_eigenvalue, fourier_mode_curve,
                     multiplicity_groups, seeded_fourier_curve)

LN4_OVER_2PI = math.log(4.0) / (2.0 * math.pi)
SANDWICH_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True,
                             database=None)


def predicted_floor(grid, alpha):
    """The floor search's first energy: the shifted equal-length circle's
    root, from the grid's kept energy-zero spectrum."""
    return spectral._predicted_floor(grid, alpha, spectral._zero_energy_count(grid, alpha)[0][0])


def mark_predictions(monkeypatch) -> list:
    """Patch `spectral._predicted_floor` to mark its calls: the list it
    returns is nonempty exactly while a prediction's search runs."""
    inside, real = [], spectral._predicted_floor

    def marked(*args):
        inside.append(True)
        try:
            return real(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(spectral, "_predicted_floor", marked)
    return inside


class TestEigen:
    def test_ordering_contract(self):
        spec = eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(spec, [3.0, 2.0, 1.0])

    def test_zero_matrix(self):
        spec = eigen(np.zeros((16, 16)))
        assert np.all(spec == 0.0)

    def test_residuals_and_norms(self, ellipse_grid, defect_grid):
        # a dense grid's settled eigenpair, the one a bound state reports,
        # comes from the operator's one subset solve
        for grid in (ellipse_grid, defect_grid):
            op = spectral._operator(-1.0, grid)
            mat = boundary_matrix(-1.0, grid)
            scale = np.linalg.norm(mat, 2)
            for k in range(1, grid.n // 4 + 1):
                op.settle(k)
                nu, v = op.branch_value(k), op.vector(k)
                resid = np.linalg.norm(mat @ v - nu * v)
                assert resid < 1e-9 * scale
                assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_multiplicity_pairs_on_circle(self, circle_grid):
        spec = eigen(boundary_matrix(0.0, circle_grid))
        groups = multiplicity_groups(spec)
        assert groups[0] == (0, 1)          # constant mode is simple
        assert groups[1] == (1, 2)          # first pair doubly degenerate
        assert groups[2] == (3, 2)

    def test_eigenvalue_at_matches_full(self, circle_grid):
        mat = boundary_matrix(-1.0, circle_grid)
        spec = eigen(mat)
        for k in (1, 2, 7):
            assert eigenvalue_at(mat, k) == pytest.approx(spec[k - 1], abs=1e-12)


class TestEigenvalueCurve:
    def test_top_branch_is_quadrature_constant(self, circle_grid):
        for lam in (0.0, -1.0, -4.0, -16.0):
            nu = eigenvalue_at(boundary_matrix(lam, circle_grid), 1)
            assert abs(nu - circle_top_eigenvalue(lam, 1.0)) < 1e-7

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_strict_monotonicity(self, ellipse_grid, k):
        nus = [eigenvalue_at(boundary_matrix(lam, ellipse_grid), k)
               for lam in (-100.0, -1.0, 0.0)]
        assert nus[0] < nus[1] < nus[2]


class TestBoundStates:
    def test_supercritical_coupling_empty(self, circle_grid):
        assert find_bound_states(circle_grid, LN4_OVER_2PI + 1e-3) == []
        assert find_bound_states(circle_grid, 0.5) == []

    def test_single_state_in_first_interval(self, circle_grid):
        states = find_bound_states(circle_grid, 0.1)
        assert len(states) == 1
        assert states[0].energy < 0.0

    def test_birman_schwinger_residual(self, circle_grid):
        for st in find_bound_states(circle_grid, 0.1):
            spec = eigen(boundary_matrix(st.energy, circle_grid))
            assert np.min(np.abs(spec - st.alpha)) < 1e-8

    def test_degenerate_pair_energies_coincide(self, circle_grid):
        states = find_bound_states(circle_grid, -0.2)
        assert len(states) == 3
        # modes 2 and 3 are the doubly degenerate pair
        assert abs(states[1].energy - states[2].energy) < 1e-8
        report = count_bound_states(circle_grid, -0.2)
        assert report.count == len(states)

    def test_states_sorted_by_energy(self, circle_grid):
        energies = [st.energy for st in find_bound_states(circle_grid, -0.2)]
        assert energies == sorted(energies)

    @pytest.mark.parametrize("grid_name", ["circle_grid", "ellipse_grid"])
    def test_energies_are_python_floats(self, request, grid_name):
        # the root's lam is a numpy scalar on some paths: 4 of the 5 ellipse
        # states at this coupling came back as np.float64
        states = find_bound_states(request.getfixturevalue(grid_name), -0.23)
        assert len(states) > 1
        assert all(type(st.energy) is float and type(st.residual) is float
                   for st in states)

    def test_workspace_changes_no_bit(self, monkeypatch):
        # the search hands one set of buffers from each operator to the
        # next; with new arrays at every energy each bit is the same
        grid = make_grid(seeded_fourier_curve(7), 128)
        shared = [(st.energy, st.residual, st.coefficients)
                  for alpha in (-0.05, -0.23) for st in find_bound_states(grid, alpha)]
        real_operator = spectral._operator
        monkeypatch.setattr(spectral, "_operator",
                            lambda lam, grid, guess=None, previous=None:
                            real_operator(lam, grid, guess))
        fresh = [(st.energy, st.residual, st.coefficients)
                 for alpha in (-0.05, -0.23) for st in find_bound_states(grid, alpha)]
        assert len(shared) == len(fresh) > 3
        for (energy, residual, vector), (energy_f, residual_f, vector_f) in zip(shared, fresh):
            assert energy == energy_f and residual == residual_f
            assert np.array_equal(vector, vector_f)

    def test_superseded_operator_refuses(self, ellipse_grid):
        # an operator built from a previous one takes over its buffers, so
        # the one before cannot read its matrix, factors or B' any more,
        # nor the dense spectrum of the matrix it assembled, nor hand its
        # buffers over a second time
        first = spectral._operator(-1.0, ellipse_grid)
        first.above(0.0)
        first.slope(1)
        matrix = first.matrix
        second = spectral._operator(-2.0, ellipse_grid, previous=first)
        second.above(0.0)
        assert np.shares_memory(second.matrix, matrix)
        for read in (lambda: first.slope(1), lambda: first.above(0.0),
                     lambda: first.branch_value(7), lambda: first.settle(5),
                     lambda: first.matrix, lambda: first._dense_top(),
                     lambda: spectral._operator(-3.0, ellipse_grid, previous=first)):
            with pytest.raises(InvariantError, match="took over its buffers"):
                read()

    def test_negative_max_states_rejected(self, circle_grid):
        # a cap below zero would list no state while the count holds them all
        with pytest.raises(ConfigError, match="max_states must be nonnegative"):
            find_bound_states(circle_grid, -0.2, max_states=-1)
        assert find_bound_states(circle_grid, -0.2, max_states=0) == []

    @pytest.mark.parametrize("root_tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_not_finite_and_positive_refused(self, circle_grid, root_tol):
        # as the command line refuses it: root_tol = nan switched the
        # residual check off, and -1 refused every root as a NumericsError
        with pytest.raises(ConfigError, match="tolerance root_tol must be finite and positive"):
            find_bound_states(circle_grid, -0.2, root_tol=root_tol)

    def test_zero_coupling_rejected(self, circle_grid):
        with pytest.raises(ConfigError):
            find_bound_states(circle_grid, 0.0)

    def test_no_energy_assembled_twice(self, ellipse, monkeypatch):
        # within one coupling, counting and root finding share the grid's
        # energy-zero spectrum and every search starts from its previous
        # root's matrix; B(0) is assembled once for all couplings, and each
        # coupling's first negative energy is its predicted floor
        grid = make_grid(ellipse, 128)
        energies = []
        real_matrix = spectral.boundary_matrix

        def matrix(lam, grid, out=None):
            energies[-1].append(lam)
            return real_matrix(lam, grid, out)

        monkeypatch.setattr(spectral, "boundary_matrix", matrix)
        for alpha in (0.1, -0.05, -0.15, -0.23):
            energies.append([])
            report = count_bound_states(grid, alpha)
            states = find_bound_states(grid, alpha)
            assert len(states) == report.count > 0
            assert len(energies[-1]) == len(set(energies[-1]))
            negative = [lam for lam in energies[-1] if lam < 0]
            assert negative[0] == predicted_floor(grid, alpha)
        assert sum(lams.count(0.0) for lams in energies) == 1

    @pytest.mark.parametrize("curve", ["circle", "ellipse", 7, 101])
    def test_results_do_not_depend_on_earlier_couplings(self, curve, request):
        # the energy floors tried for one coupling were kept on the grid and
        # started the next coupling's search, which moved its roots in the
        # last bits
        curve = (seeded_fourier_curve(curve) if isinstance(curve, int)
                 else request.getfixturevalue(curve))
        alphas = (0.1, -0.05, -0.15, -0.23)

        def solve(grid, alpha):
            return ([st.energy for st in find_bound_states(grid, alpha)],
                    isoperimetric_compare(grid, alpha))

        fresh = {alpha: solve(make_grid(curve, 128), alpha) for alpha in alphas}
        for first, second in itertools.permutations(alphas, 2):
            grid = make_grid(curve, 128)
            solve(grid, first)
            assert solve(grid, second) == fresh[second], (first, second)

    @pytest.mark.parametrize("grid", ["circle_grid", "ellipse_grid"])
    def test_refuses_non_monotone_branch(self, grid, humped_branches, request):
        with pytest.raises(NumericsError, match="monotonicity violated"):
            find_bound_states(request.getfixturevalue(grid), 0.1)

    def test_refuses_unconverged_root(self, circle_grid, monkeypatch):
        # one step is never enough: the search runs out of steps and refuses
        monkeypatch.setattr(spectral, "MAX_ROOT_STEPS", 1)
        with pytest.raises(NumericsError, match="did not converge"):
            find_bound_states(circle_grid, 0.1)

    def test_dense_roots_read_one_eigenpair(self, ellipse_grid, monkeypatch):
        # the only eigenvectors a dense grid computes are single eigenpairs
        # at the roots: no full eigendecomposition of B(lam)
        full_with_vectors = []
        real_eigh = scipy.linalg.eigh

        def eigh(a, *args, **kwargs):
            if not kwargs.get("eigvals_only") and kwargs.get("subset_by_index") is None:
                full_with_vectors.append(a.shape)
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        states = find_bound_states(ellipse_grid, -0.23)
        assert len(states) == 5 and full_with_vectors == []
        for st in states:
            assert st.residual < ROOT_TOL
            assert st.coefficients.shape == (ellipse_grid.n,)


class TestPredictedFloor:
    """The principal search starts at the root of the equal-length circle's
    top branch, shifted to the grid's nu_1(0), found by the same search on
    the circle's grid, and runs open below from there."""

    @staticmethod
    def record_assemblies(monkeypatch) -> list:
        assembled = []
        real_matrix = spectral.boundary_matrix

        def matrix(lam, grid, out=None):
            assembled.append(lam)
            return real_matrix(lam, grid, out)

        monkeypatch.setattr(spectral, "boundary_matrix", matrix)
        return assembled

    @pytest.mark.parametrize("alpha", [0.1, -0.05, -0.15, -0.23, -0.3])
    def test_circle_prediction_is_the_root(self, circle_grid, alpha):
        # on a circle grid the shift is zero and the branch is the grid's own
        root = find_bound_states(circle_grid, alpha, max_states=1)[0].energy
        assert abs(predicted_floor(circle_grid, alpha) - root) <= 1e-10 * abs(root)

    @pytest.mark.parametrize("grid_name", ["ellipse_grid", "defect_grid", "circle_grid"])
    def test_prediction_reads_the_kept_modes(self, grid_name, request, monkeypatch):
        # mu_1(0) is the top kept energy-zero circle mode, bitwise the top of
        # circle_boundary_modes(0), since B(0) has no smoothing: the
        # prediction is the one computed from that top, and it evaluates no
        # mode of its own grid afresh (a circle grid's search reads its own)
        grid = request.getfixturevalue(grid_name)
        real_modes = spectral.circle_boundary_modes
        fresh = []

        def modes(lam, on):
            fresh.append(on is grid)
            return real_modes(lam, on)

        for alpha in (0.1, -0.05, -0.15, -0.23, -0.3):
            zero = spectral._zero_energy_count(grid, alpha)[0][0]
            top = float(np.max(real_modes(0.0, grid)))
            expected = spectral._branch_root(grid.equal_length_circle(), alpha - (zero - top),
                                             1, None, top, None).lam
            monkeypatch.setattr(spectral, "circle_boundary_modes", modes)
            assert spectral._predicted_floor(grid, alpha, zero) == expected
            monkeypatch.setattr(spectral, "circle_boundary_modes", real_modes)
        assert not any(fresh) or grid.is_circle

    @pytest.mark.parametrize("n", [256, 1024])
    def test_circle_principal_search_builds_one_operator(self, circle, n, monkeypatch):
        # the prediction is the root the circle grid's own search stops at,
        # so the principal search stops at its first sample.  The
        # prediction's search runs on the grid too, a circle grid being its
        # own equal-length circle, and is not counted
        grid = make_grid(circle, n)
        built = []
        real_operator = spectral._operator
        predicting = mark_predictions(monkeypatch)

        def operator(lam, on, guess=None, previous=None):
            if on is grid and not predicting:
                built.append(lam)
            return real_operator(lam, on, guess, previous)

        monkeypatch.setattr(spectral, "_operator", operator)
        for alpha in (0.1, -0.05, -0.15, -0.23, -0.3):
            # the kept energy-zero spectrum builds B(0) once
            predicted = predicted_floor(grid, alpha)
            built.clear()
            root = find_bound_states(grid, alpha, max_states=1)[0].energy
            assert built == [predicted] == [root], alpha

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("curve", ["ellipse", 7, 101])
    def test_one_operator_at_or_below_the_root(self, curve, n, request, monkeypatch):
        # the search's first operator, and so its first assembly, is the
        # prediction, at or below the root
        curve = (seeded_fourier_curve(curve) if isinstance(curve, int)
                 else request.getfixturevalue(curve))
        grid = make_grid(curve, n)
        assembled = self.record_assemblies(monkeypatch)
        for alpha in (0.1, -0.05, -0.15, -0.23):
            predicted = predicted_floor(grid, alpha)
            assembled.clear()
            root = find_bound_states(grid, alpha, max_states=1)[0].energy
            assert assembled[0] == predicted <= root

    @pytest.mark.parametrize("alpha", [-0.15, -0.23])
    def test_start_above_the_root(self, ellipse, alpha, monkeypatch):
        # from a start above the root the Newton step moves down, so the
        # search needs no doubling; the roots do not depend on the start
        grid = make_grid(ellipse, 128)
        start = predicted_floor(grid, alpha) / 4
        reference = [st.energy for st in find_bound_states(grid, alpha)]
        assert reference[0] < start
        monkeypatch.setattr(spectral, "_predicted_floor", lambda *args: start)
        assembled = self.record_assemblies(monkeypatch)
        energies = [st.energy for st in find_bound_states(grid, alpha)]
        assert len(energies) == len(reference) == count_bound_states(grid, alpha).count
        for energy, expected in zip(energies, reference):
            assert abs(energy - expected) <= 1e-12 * abs(expected)
        assert assembled[0] == start and 2.0 * start not in assembled


class TestNewtonRoots:
    """The Newton search on the closed-form B'(lam) against Brent's method,
    and the inertia that brackets every root."""

    CURVES = {"ellipse": None, "seed-7": 7, "seed-101": 101, "seed-202": 202, "seed-303": 303}

    @pytest.fixture(scope="class", params=list(CURVES))
    def grid(self, request, ellipse):
        seed = self.CURVES[request.param]
        return make_grid(ellipse if seed is None else seeded_fourier_curve(seed), 256)

    @pytest.mark.parametrize("alpha", [0.1, -0.05, -0.15, -0.23])
    def test_roots_match_brent(self, grid, alpha):
        # measured: 5.4e-14 relative at most
        states = sorted(find_bound_states(grid, alpha), key=lambda st: st.index)
        assert states and [st.index for st in states] == list(range(1, len(states) + 1))
        reference = brent_bound_state_energies(grid, alpha, len(states))
        for st, energy in zip(states, reference):
            assert abs(st.energy - energy) <= 1e-12 * abs(energy)
            assert st.residual < ROOT_TOL

    @pytest.mark.parametrize("alpha", [0.1, -0.23])
    def test_inertia_brackets_every_root(self, grid, alpha):
        # just below the k-th root k - 1 eigenvalues of B lie above alpha,
        # just above it at least k
        for st in find_bound_states(grid, alpha):
            step = 1e-8 * abs(st.energy)
            assert spectral._operator(st.energy - step, grid).above(alpha) == st.index - 1
            assert spectral._operator(st.energy + step, grid).above(alpha) >= st.index


class TestInertia:
    """above(x): the count of eigenvalues of B(lam) above x, from one LDL^T
    factorization on a dense grid and from the FFT values on a circle."""

    @pytest.mark.parametrize("curve_name", ["circle", "ellipse"])
    @pytest.mark.parametrize("lam", [0.0, -1.0, -30.0])
    def test_matches_dense_counts(self, request, curve_name, lam):
        grid = make_grid(request.getfixturevalue(curve_name), 128)
        dense = eigen(boundary_matrix(lam, grid))
        op = spectral._operator(lam, grid)
        # in the gaps between the top 40 eigenvalues (a circle's pairs have
        # none), and outside the spectrum
        gaps = dense[:40] - dense[1:41] > 1e-9
        middles = 0.5 * (dense[:40] + dense[1:41])[gaps]
        for x in (*middles, dense[0] + 1.0, dense[-1] - 1.0, -0.23, 0.1):
            assert op.above(x) == int(np.sum(dense > x))


class TestCircleFFT:
    """On a circle grid every eigenvalue comes from the real FFT of the
    smoothing row, and every eigenvector is a real Fourier mode."""

    @pytest.mark.parametrize("n", [256, 1024, 2048])
    def test_spectrum_matches_dense(self, circle, n):
        grid = make_grid(circle, n)
        for lam in (0.0, -1.0, -4.0, -16.0, -600.0):
            op = spectral._operator(lam, grid)
            dense = eigen(boundary_matrix(lam, grid))
            # every mode value, which the inertia reads, and the trusted top
            # n/4 of them, which the spectrum returns
            assert np.max(np.abs(op._values - dense)) < 1e-13
            assert np.array_equal(boundary_spectrum(lam, grid), op._values[:n // 4])

    @pytest.mark.parametrize("alpha", [0.1, -0.15, -0.23])
    def test_bound_states_against_dense_operator(self, circle_grid, alpha):
        states = find_bound_states(circle_grid, alpha)
        assert len(states) == count_bound_states(circle_grid, alpha).count
        for st in states:
            mat = boundary_matrix(st.energy, circle_grid)
            dense = eigen(mat)
            assert abs(dense[st.index - 1] - alpha) < ROOT_TOL
            v = st.coefficients
            assert np.linalg.norm(mat @ v - alpha * v) < 1e-10

    def test_pairs_solved_once(self, circle_grid, monkeypatch):
        searches = []
        real_root = spectral._branch_root
        predicting = mark_predictions(monkeypatch)

        def branch_root(grid, alpha, k, *args):
            # the prediction's search, on the grid itself (its own
            # equal-length circle), is not one of the query's root searches
            if grid is circle_grid and not predicting:
                searches.append(k)
            return real_root(grid, alpha, k, *args)

        monkeypatch.setattr(spectral, "_branch_root", branch_root)
        states = find_bound_states(circle_grid, -0.23)
        assert [st.index for st in states] == [1, 2, 3, 4, 5]
        assert searches == [1, 2, 4]
        for first, second in ((states[1], states[2]), (states[3], states[4])):
            assert first.energy == second.energy
            # cos then sin of one wavenumber: orthonormal within the pair
            gram = np.array([[a @ b for b in (first.coefficients, second.coefficients)]
                             for a in (first.coefficients, second.coefficients)])
            assert np.max(np.abs(gram - np.eye(2))) < 1e-13
        assert np.allclose(states[0].coefficients, 1.0 / math.sqrt(circle_grid.n))

    @pytest.mark.parametrize("n", [64, 256])
    def test_slopes_match_the_dense_operator(self, circle, n):
        # the dense operator on a circle grid is the circle's own reference:
        # v^T B' v of its eigenvectors against the FFT of the circulant B'
        # row (measured: 1.3e-15 relative at most); B' has no zero-energy
        # limit, so at lam = 0 both refuse alike
        grid = make_grid(circle, n)
        for lam in (0.0, -1.0, -4.0):
            known, dense = spectral._operator(lam, grid), spectral._Operator(lam, grid)
            assert type(known) is spectral._CircleOperator and type(dense) is spectral._Operator
            if lam == 0.0:
                for op in (known, dense):
                    with pytest.raises(ConfigError, match="requires lam < 0"):
                        op.slope(1)
                continue
            for k in range(1, n // 4 + 1):
                assert dense.slope(k) == pytest.approx(known.slope(k), rel=1e-12, abs=0)

    def test_closed_form_at_zero_energy(self, circle_grid):
        nu0, pairs = circle_mode_eigenvalues(1.0, 4)
        closed = [nu0, pairs[0], pairs[0], pairs[1], pairs[1], pairs[2], pairs[2]]
        assert np.array_equal(boundary_spectrum(0.0, circle_grid)[:7], closed)

    @pytest.mark.parametrize("grid", ["circle_grid", "ellipse_grid"])
    def test_positive_energy_refused_with_one_message(self, grid, request):
        # the circulant path and the dense one refuse alike
        with pytest.raises(ConfigError, match=r"^B\(lam\) requires lam <= 0, got lam=0.5$"):
            boundary_spectrum(0.5, request.getfixturevalue(grid))


class TestClearOf:
    """The one spectral-margin rule: x is clear of B(lam)'s spectrum by more
    than m, read as `_operator` reads the spectrum (the FFT on a circle)."""

    @pytest.mark.parametrize("curve_name", ["circle", "ellipse"])
    @pytest.mark.parametrize("margin", [1e-8, 1e-6, 1e-3])
    def test_matches_dense_distance(self, request, curve_name, margin):
        # on the circle the dense reference is the assembled matrix, so the
        # FFT answer is checked against it
        grid = make_grid(request.getfixturevalue(curve_name), 64)
        op = spectral._operator(-1.0, grid)
        dense = eigen(boundary_matrix(-1.0, grid))
        for k in (1, 2, 7, 16):
            nu = op._top[0][k - 1]
            for step, clear in ((-2.0, True), (-0.5, False), (0.5, False), (2.0, True)):
                x = nu + step * margin
                assert op.clear_of(x, margin) == (np.min(np.abs(dense - x)) > margin) == clear

    def test_distance_equal_to_margin_is_refused(self, ellipse_grid):
        # the distance to the full spectrum, of which _top holds the top n/4
        # only
        op = spectral._operator(-1.0, ellipse_grid)
        distance = np.min(np.abs(eigen(op.matrix) + 0.5))
        assert op.clear_of(-0.5, 0.5 * distance)
        assert not op.clear_of(-0.5, distance)


class TestFourierCompression:
    """The top n/4 of a dense grid's spectrum from the certified real-Fourier
    compression, against the dense eigensolve it replaces."""

    LAMS = (0.0, -1.0, -4.0, -16.0)

    @pytest.mark.parametrize("curve_name, n", [
        ("ellipse", 1024), ("seed 7", 1024), ("seed 101", 1024),
        ("ellipse", 2048), ("seed 7", 2048), ("ellipse", 1026),
    ])
    def test_bound_covers_the_dense_error(self, request, curve_name, n):
        curve = (request.getfixturevalue(curve_name) if curve_name == "ellipse"
                 else seeded_fourier_curve(int(curve_name.split()[1])))
        grid = make_grid(curve, n)
        for lam in self.LAMS:
            op = spectral._operator(lam, grid)
            values, bound, _, _ = op._top
            # a certified spectrum never assembles B
            assert "_assembly" not in op.__dict__
            dense = eigen(op.matrix)[:n // 4]
            assert 0.0 < bound <= spectral.COMPRESSION_TOL
            assert np.max(np.abs(values - dense)) <= bound
            assert np.array_equal(boundary_spectrum(lam, grid), values)

    def test_zero_tolerance_forces_the_dense_solve(self, ellipse, monkeypatch):
        grid = make_grid(ellipse, 1024)
        assert spectral._operator(0.0, grid)._top[1] > 0.0
        monkeypatch.setattr(spectral, "COMPRESSION_TOL", 0.0)
        op = spectral._operator(0.0, grid)
        assert op._top[1] == 0.0
        assert np.array_equal(op._top[0], eigen(op.matrix)[:256])

    @staticmethod
    def _certifies(op) -> bool:
        """Whether the compression certificate passes on the leading
        wavenumbers k <= 3n/16 or on all k <= n/4, from the eigenvalues of
        T without the pre-check."""
        n, lam, grid = op.grid.n, op.lam, op.grid
        block, rests, comparison, modes = spectral._fourier_compression(lam, grid, n // 4)
        for kept in (3 * n // 16, n // 4):
            size = 2 * kept + 1
            coupling_sq = np.sum(rests[:size]) + np.sum(block[:size, size:] ** 2)
            gap = eigen(block[:size, :size])[n // 4 - 1] - (np.max(modes[kept + 1:]) + comparison)
            if gap > 0 and coupling_sq / gap <= spectral.COMPRESSION_TOL:
                return True
        return False

    @pytest.mark.parametrize("n", [256, 1024])
    def test_pre_check_keeps_every_certified_grid(self, ellipse, n):
        # the bound on eta skips the solve of T only where the certificate
        # fails: the compression serves exactly the grids that certify
        curves = [ellipse] + [seeded_fourier_curve(seed) for seed in (1, 2, 3, 5)]
        certified = 0
        for curve in curves:
            grid = make_grid(curve, n)
            for lam in (0.0, -1.0, -4.0):
                op = spectral._operator(lam, grid)
                certifies = self._certifies(op)
                certified += certifies
                assert (op._top[1] > 0.0) == certifies
        assert certified >= (6 if n == 256 else 15)

    def test_grid_the_pre_check_rejects_solves_no_T(self, monkeypatch):
        # at N = 256 the coupling of the seed-5 curve, 3.5e-9, exceeds
        # COMPRESSION_TOL times the largest gap the kept circle modes allow
        grid = make_grid(seeded_fourier_curve(5), 256)
        op = spectral._operator(-1.0, grid)
        assert not self._certifies(op)
        sizes = []
        real_eigen = spectral.eigen

        def recording_eigen(mat):
            sizes.append(len(mat))
            return real_eigen(mat)

        monkeypatch.setattr(spectral, "eigen", recording_eigen)
        assert op._top[1] == 0.0
        assert sizes == [256]

    def test_leading_block_is_tried_first(self, monkeypatch):
        # at N = 2048 the leading 769 x 769 block of T certifies, so the
        # 1025 x 1025 one is not solved, and B is never assembled
        grid = make_grid(seeded_fourier_curve(7), 2048)
        sizes = []
        real_eigen = spectral.eigen

        def recording_eigen(mat):
            sizes.append(len(mat))
            return real_eigen(mat)

        monkeypatch.setattr(spectral, "eigen", recording_eigen)
        op = spectral._operator(0.0, grid)
        assert op._top[1] > 0.0
        assert sizes == [2 * (3 * 2048 // 16) + 1]
        assert "_assembly" not in op.__dict__

    @pytest.mark.parametrize("n", [256, 258])
    def test_kept_modes_on_a_circle(self, circle, n):
        # on a circle B is diagonal in the real Fourier basis: T holds the
        # constant and the pairs k <= n // 4, which for n = 2 (mod 4) are
        # n/2 modes, and the alternating mode is among the discarded ones
        grid = make_grid(circle, n)
        kept = n // 4
        modes = spectral.circle_boundary_modes(-1.0, grid)
        block, rests, comparison, kept_modes = spectral._fourier_compression(-1.0, grid, kept)
        assert np.array_equal(kept_modes, modes)
        assert block.shape == (2 * kept + 1,) * 2 and rests.shape == (2 * kept + 1,)
        assert (n % 4 == 2) == (len(block) == n // 2)
        expected = np.diag(modes[np.concatenate([[0], np.repeat(np.arange(1, kept + 1), 2)])])
        assert np.array_equal(block, expected)
        assert np.all(rests == 0.0) and comparison == 0.0

    def test_comparison_norm_is_the_assembled_one(self, ellipse_grid):
        _, _, comparison, _ = spectral._fourier_compression(-1.0, ellipse_grid,
                                                            ellipse_grid.n // 4)
        assert comparison == pytest.approx(
            np.linalg.norm(comparison_matrix(-1.0, ellipse_grid)), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -4.0])
    def test_blocks_are_the_dense_basis_compression(self, ellipse_grid, lam):
        # T = F_K^T B F_K and each row's coupling ||F_perp^T B F_k||^2, with
        # B assembled and F the dense orthonormal real Fourier basis; the
        # leading block's coupling adds its rows of T outside it
        n = ellipse_grid.n
        phase = 2.0 * np.pi * np.outer(np.arange(n), np.arange(n // 2 + 1)) / n
        cols = [np.full(n, 1.0 / math.sqrt(n))]
        for k in range(1, n // 2):
            cols += [math.sqrt(2.0 / n) * np.cos(phase[:, k]),
                     -math.sqrt(2.0 / n) * np.sin(phase[:, k])]
        cols.append(np.cos(phase[:, n // 2]) / math.sqrt(n))
        basis = np.stack(cols, axis=1)
        dense = basis.T @ boundary_matrix(lam, ellipse_grid) @ basis
        block, rests, _, _ = spectral._fourier_compression(lam, ellipse_grid, n // 4)
        size = len(block)
        assert np.max(np.abs(block - dense[:size, :size])) < 1e-13
        coupled = np.sum(dense[size:, :size] ** 2, axis=0)
        # the rows coupled least are within the rounding of the dense product
        assert np.allclose(rests, coupled, rtol=1e-9, atol=1e-9 * np.max(coupled))
        lead = 2 * (3 * n // 16) + 1
        coupling = np.sum(rests[:lead]) + np.sum(block[:lead, lead:] ** 2)
        assert coupling == pytest.approx(np.sum(dense[lead:, :lead] ** 2), rel=1e-9)

    def test_non_finite_entries_refuse_without_assembly(self, ellipse_grid, monkeypatch):
        # the sweep refuses as boundary_matrix does, so the exit code stays
        # 2: nan at the energy check, which every path to B(lam) reads
        monkeypatch.setattr(spectral, "boundary_matrix", None)
        with pytest.raises(ConfigError, match="lam <= 0, got lam=nan"):
            boundary_spectrum(math.nan, ellipse_grid)

    def test_non_finite_comparison_refuses_as_boundary_matrix_does(self, ellipse,
                                                                   monkeypatch):
        # a nan comparison entry makes the sweep's sum of squares non-finite,
        # and the sweep refuses through assembly._finite, with the error of
        # boundary_matrix on the same entries
        grid = make_grid(ellipse, 1024)
        real_green = assembly.green_kernel

        def green_with_nan(lam, r, out=None):
            values = real_green(lam, r, out=out)
            values.flat[1] = math.nan
            return values

        monkeypatch.setattr(assembly, "green_kernel", green_with_nan)
        monkeypatch.setattr(spectral, "boundary_matrix", None)
        with pytest.raises(ConfigError) as swept:
            boundary_spectrum(-1.0, grid)
        with pytest.raises(ConfigError) as assembled:
            boundary_matrix(-1.0, grid)
        assert str(swept.value) == str(assembled.value)
        assert str(swept.value) == "boundary lam=-1: non-finite matrix entries"


class TestCompressedCounts:
    """A count read from a compressed energy-zero spectrum is the dense
    one: where alpha is within a value's bound and rounding width, the
    dense spectrum decides, the n/4 refusal included."""

    @pytest.fixture(scope="class")
    def reference(self, ellipse):
        grid = make_grid(ellipse, 1024)
        op = spectral._operator(0.0, grid)
        values, bound, _, norm = op._top
        assert bound > 0.0
        return (values.copy(), bound + math.sqrt(grid.n) * spectral.EPS * norm,
                eigen(op.matrix)[:256])

    @staticmethod
    def _dense_count(dense, alpha):
        count = int(np.sum(dense > alpha))
        return None if count >= len(dense) else count

    @staticmethod
    def _count(grid, alpha):
        try:
            return spectral._zero_energy_count(grid, alpha)[1]
        except NumericsError:
            return None

    def test_clear_couplings_read_the_compression(self, ellipse, reference, monkeypatch):
        values, reach, dense = reference
        grid = make_grid(ellipse, 1024)
        solved = []
        real_eigh = scipy.linalg.eigh

        def eigh(a, *args, **kwargs):
            solved.append(len(a))
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        gaps = np.flatnonzero(values[:-1] - values[1:] > 4.0 * reach)[:20]
        for alpha in 0.5 * (values[gaps] + values[gaps + 1]):
            assert self._count(grid, alpha) == self._dense_count(dense, alpha)
        # the leading wavenumbers k <= 3n/16 of T certify
        assert solved == [385]

    def test_couplings_within_reach_read_the_dense_spectrum(self, ellipse, reference):
        values, reach, dense = reference
        grid = make_grid(ellipse, 1024)
        for j in (0, 1, 100, 254, 255):
            for alpha in (values[j] - reach, values[j], values[j] + 0.5 * reach,
                          values[j] + reach):
                assert self._count(grid, alpha) == self._dense_count(dense, alpha)
        # inside the reach: at alpha = values[0] + reach itself, the rounding
        # of that sum decides the side
        assert np.array_equal(spectral._zero_energy_count(grid, values[0] + 0.5 * reach)[0],
                              dense)


class TestIntervalIndex:
    # the unit circle's levels down to -1.5: 8193 of them
    LEVELS = _circle_levels(1.0, -1.5)

    def test_threshold_maps_to_minus_one(self):
        assert _interval_index(LN4_OVER_2PI, self.LEVELS) == -1
        assert _interval_index(10.0, self.LEVELS) == -1

    def test_left_endpoint_belongs_to_interval(self):
        x = LN4_OVER_2PI - 1.0 / math.pi
        assert _interval_index(x, self.LEVELS) == 0

    def test_monotone_in_argument(self):
        xs = np.linspace(LN4_OVER_2PI - 1e-9, -1.2, 200)
        rs = [_interval_index(float(x), self.LEVELS) for x in xs]
        assert all(b >= a for a, b in zip(rs, rs[1:]))
        assert rs[0] == 0
        assert rs[-1] > 100

    def test_levels_are_the_circle_modes(self):
        nu0, pairs = circle_mode_eigenvalues(1.0, 8192)
        assert np.array_equal(self.LEVELS, np.concatenate([[nu0], pairs]))
        # 1024 pairs, doubled while the last level is above the floor
        assert self.LEVELS[4096] > -1.5 >= self.LEVELS[-1]

    def test_every_level_and_its_neighbours_inside_their_interval(self):
        # the index and the endpoints read one table, so the sums agree to
        # the last bit even where two summation orders would not (m >= 1713)
        bounds = np.concatenate([[math.inf], self.LEVELS])
        for level in self.LEVELS[:4097]:
            for x in (np.nextafter(level, -math.inf), level, np.nextafter(level, math.inf)):
                r = _interval_index(float(x), self.LEVELS)
                assert bounds[r + 2] <= x < bounds[r + 1]


class TestAsymptoticBounds:
    def test_circle_instantiation(self):
        lower, upper = asymptotic_count_bounds(1.0, -0.5)
        base = 2.0 * math.exp(math.pi - np.euler_gamma)
        assert lower == pytest.approx(base - 1.0 - 4.0 * (math.exp(1.0 / 92.0) - 1.0), abs=1e-12)
        assert upper == pytest.approx(base + 1.0, abs=1e-12)

    def test_precondition_boundary_rejected(self):
        edge = LN4_OVER_2PI - 1.0 / math.pi
        with pytest.raises(ConfigError):
            asymptotic_count_bounds(1.0, edge, 0.0)

    def test_counts_inside_bounds(self, circle_grid):
        for alpha in (-0.3, -0.5):
            report = count_bound_states(circle_grid, alpha)
            lower, upper = asymptotic_count_bounds(1.0, alpha)
            assert lower < report.count < upper


class TestCounting:
    def test_circle_small_count(self, circle_grid):
        assert count_bound_states(circle_grid, 0.1).count == 1

    def test_circle_count_odd(self, circle_grid):
        report = count_bound_states(circle_grid, -0.5)
        assert report.count % 2 == 1
        assert report.count == 2 * report.r_index + 1   # circle: deviation ~ 0

    @pytest.mark.parametrize("shift, flagged", [(0.0, True), (1e-13, True), (1e-9, False)])
    def test_endpoint_flag_at_a_circle_level(self, circle_grid, shift, flagged):
        # the level nu_2 ends the circle's interval of count 3; alpha within
        # ENDPOINT_TOL of it is flagged
        alpha = float(circle_mode_eigenvalues(1.0, 2)[1][1]) + shift
        report = count_bound_states(circle_grid, alpha)
        assert (report.count, report.endpoint_flag) == (3, flagged)

    def test_ellipse_above_threshold_vanishes(self, ellipse_grid):
        report = count_bound_states(ellipse_grid, 0.3)
        assert report.vanishes and report.count == 0
        # 0.25 - ||D_0||_F lies below ln(4R)/(2 pi): no claim to vanish there
        report = count_bound_states(ellipse_grid, 0.25)
        assert not report.vanishes and report.count == 0
        assert report.lower <= 0 <= report.upper

    @pytest.mark.parametrize("alpha, message", [
        (0.1, r"count 3 escapes the sandwich \[1, 1\]"),
        (0.3, "count 2 nonzero although"),
    ])
    def test_wrong_circle_count_escapes_the_sandwich(self, circle_grid, monkeypatch,
                                                      alpha, message):
        # on a circle grid the deviation is exactly 0, so the sandwich is the
        # closed form 2r + 1 (or a vanishing count) and refuses a wrong count
        # by itself
        real_count = spectral._zero_energy_count

        def miscount(grid, alpha):
            spec, count, deviation = real_count(grid, alpha)
            return spec, count + 2, deviation

        monkeypatch.setattr(spectral, "_zero_energy_count", miscount)
        with pytest.raises(InvariantError, match=message):
            count_bound_states(circle_grid, alpha)

    @pytest.mark.parametrize("grid_name", ["ellipse_grid", "defect_grid"])
    def test_sandwich_holds_where_it_once_escaped(self, request, grid_name):
        # shifted by the squared HS distance d, both counts escaped [3, 3]
        grid = request.getfixturevalue(grid_name)
        report = count_bound_states(grid, -0.2)
        assert report.deviation == spectral._fourier_compression(0.0, grid, grid.n // 4)[2]
        assert (report.lower, report.count, report.upper) == (3, 4, 5)
        assert len(find_bound_states(grid, -0.2)) == 4

    def test_shift_assembled_once_per_grid(self, ellipse, monkeypatch):
        # s = ||D_0||_F depends on the grid alone: counts at any number of
        # couplings read it from the one energy-zero sweep, and root
        # searches never sweep
        grid = make_grid(ellipse, 256)
        swept = []
        real_sweep = spectral._fourier_compression

        def sweep(lam, grid, kept):
            swept.append(lam)
            return real_sweep(lam, grid, kept)

        monkeypatch.setattr(spectral, "_fourier_compression", sweep)
        shifts = {count_bound_states(grid, alpha).deviation for alpha in (-0.1, -0.2, -0.3)}
        find_bound_states(grid, -0.1)
        isoperimetric_compare(grid, -0.1)
        assert swept == [0.0]
        assert shifts == {real_sweep(0.0, grid, grid.n // 4)[2]}

    @pytest.mark.parametrize("curve_name", ["ellipse", "seed 1"])
    def test_certified_count_assembles_nothing_at_zero(self, request, curve_name, monkeypatch):
        # where the energy-zero sweep certifies (N = 512 here; at N = 256 it
        # falls back to the dense B(0)), counts and root searches read its
        # spectrum and shift: neither B(0) nor D_0 is assembled
        curve = (request.getfixturevalue(curve_name) if curve_name == "ellipse"
                 else seeded_fourier_curve(1))
        grid = make_grid(curve, 512)
        assert spectral._operator(0.0, grid)._top[1] > 0.0
        built = []
        for module, name in ((spectral, "boundary_matrix"), (assembly, "comparison_matrix")):
            real = getattr(module, name)

            def matrix(lam, grid, *args, real=real, name=name, **kwargs):
                built.append((name, lam))
                return real(lam, grid, *args, **kwargs)

            monkeypatch.setattr(module, name, matrix)
        for alpha in (-0.1, -0.2):
            assert len(find_bound_states(grid, alpha)) == count_bound_states(grid, alpha).count
        assert built and all(lam != 0.0 for _, lam in built)

    def test_circle_shift_is_zero(self, circle_grid):
        report = count_bound_states(circle_grid, -0.2)
        assert report.deviation == 0.0
        assert report.lower == report.count == report.upper

    @SANDWICH_SETTINGS
    @given(coefficients=strategies.lists(strategies.floats(-0.15, 0.15), min_size=12,
                                        max_size=12),
           alphas=strategies.lists(strategies.floats(-0.3, 0.4), min_size=2, max_size=5))
    def test_sandwich_property(self, coefficients, alphas):
        try:
            curve = reparametrize_arclength(fourier_mode_curve(coefficients))
        except CurveError:
            reject()
        grid = make_grid(curve, 128)
        counts = []
        for alpha in sorted(alphas):
            if alpha == 0.0:
                continue
            report = count_bound_states(grid, alpha)
            if report.vanishes:     # upper = 2 l + 1 = -1 carries no claim
                assert report.count == 0
            else:
                assert report.lower <= report.count <= report.upper
            counts.append(report.count)
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_ellipse_sandwich(self, ellipse_grid):
        for alpha in (-0.3, -0.6):
            report = count_bound_states(ellipse_grid, alpha)
            assert report.lower <= report.count <= report.upper

    @pytest.mark.parametrize("solve", [count_bound_states, find_bound_states],
                             ids=lambda solve: solve.__name__)
    def test_refuses_when_count_hits_trusted_range(self, circle, solve):
        tiny = make_grid(circle, 16)
        with pytest.raises(NumericsError):
            solve(tiny, -0.5)

    def test_zero_coupling_rejected(self, circle_grid):
        with pytest.raises(ConfigError):
            count_bound_states(circle_grid, 0.0)

    def test_nan_coupling_rejected(self, circle_grid):
        # no level is <= nan, so the circle's level table could not end
        with pytest.raises(ConfigError, match="nonzero number"):
            count_bound_states(circle_grid, math.nan)


class TestIsoperimetric:
    def test_ellipse_gap_positive(self, ellipse_grid):
        lam_curve, lam_circle, gap = isoperimetric_compare(ellipse_grid, -0.5)
        assert lam_curve < lam_circle < 0.0
        assert gap > 0.0

    def test_circle_against_itself(self, circle_grid):
        # a circle grid is its own equal-length circle
        _, _, gap = isoperimetric_compare(circle_grid, -0.5)
        assert gap == 0.0

    def test_supercritical_coupling_rejected(self, ellipse_grid):
        with pytest.raises(ConfigError):
            isoperimetric_compare(ellipse_grid, LN4_OVER_2PI + 0.1)

    def test_refusal_names_the_circle(self, ellipse_grid):
        # between the circle's nu_1(0) = ln(4R)/(2 pi) = 0.22064 and the
        # ellipse's 0.23881 the curve has one shallow state and the circle
        # none, so the refusal is the circle's alone
        alpha = 0.2297
        assert LN4_OVER_2PI < alpha < spectral._zero_energy_count(ellipse_grid, alpha)[0][0]
        with pytest.raises(ConfigError, match="^alpha too large: the equal-length circle has "
                                              "no bound state$"):
            isoperimetric_compare(ellipse_grid, alpha)
        (state,) = find_bound_states(ellipse_grid, alpha)
        assert -1e-3 < state.energy < 0.0 and state.residual < ROOT_TOL


class TestEqualLengthCircle:
    """A grid's equal-length circle is built once and kept on it, a circle
    grid being its own, and each grid computes its energy-zero circle modes
    once."""

    ALPHAS = (0.1, -0.05, -0.15, -0.23)

    def queries(self, grid):
        for alpha in self.ALPHAS:
            find_bound_states(grid, alpha)
            isoperimetric_compare(grid, alpha)

    @pytest.mark.parametrize("curve_name, circles", [("ellipse", 1), ("circle", 0)])
    def test_one_circle_grid_per_grid(self, curve_name, circles, request, monkeypatch):
        grid = make_grid(request.getfixturevalue(curve_name), 128)
        built = []
        real_grid = curves.ArcGrid

        def arc_grid(**fields):
            made = real_grid(**fields)
            built.append(made.is_circle)
            return made

        monkeypatch.setattr(curves, "ArcGrid", arc_grid)
        self.queries(grid)
        assert built == [True] * circles
        assert (grid.equal_length_circle() is grid) == (circles == 0)

    @pytest.mark.parametrize("curve_name, grids", [("ellipse", 2), ("circle", 1)])
    def test_circle_modes_once_per_grid(self, curve_name, grids, request, monkeypatch):
        # over every energy of the root searches, the prediction's and the
        # comparison's, and of the scattering table
        grid = make_grid(request.getfixturevalue(curve_name), 128)
        calls = []
        real_modes = assembly.circle_mode_eigenvalues

        def modes(radius, pair_count):
            calls.append(radius)
            return real_modes(radius, pair_count)

        monkeypatch.setattr(assembly, "circle_mode_eigenvalues", modes)
        self.queries(grid)
        for lam in (0.5, 1.0, 2.0):
            scattering_layer_matrix(grid, lam)
        assert len(calls) == grids

    @pytest.mark.parametrize("curve_name", ["ellipse", "circle"])
    def test_kept_circle_grid_makes_no_cycle(self, curve_name, request):
        # the circle grid kept on a grid refers to nothing of it, and a
        # circle grid is not kept on itself, so a deleted grid dies with its
        # last reference, the kept circle grid with it
        grid = make_grid(request.getfixturevalue(curve_name), 64)
        isoperimetric_compare(grid, -0.15)
        refs = [weakref.ref(grid), weakref.ref(grid.equal_length_circle())]
        gc.disable()
        try:
            del grid
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


def test_resolvent_correction_surrogate_decay(circle_grid):
    # 1/(alpha - nu_1(-1)) falls off like 1/alpha for large alpha
    nu1 = eigenvalue_at(boundary_matrix(-1.0, circle_grid), 1)
    vals = [1.0 / (alpha - nu1) for alpha in (10.0, 100.0, 1000.0)]
    for a, b in zip(vals, vals[1:]):
        assert a / b == pytest.approx(10.0, rel=0.2)
