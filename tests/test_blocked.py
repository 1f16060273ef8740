"""Row-blocked builds of the chord-kernel tables.

Every table the library builds a row block at a time must equal, bit for
bit, a one-pass build, on grids smaller than one block, on grids whose
last block is ragged, and at the benchmark's sizes: the ones kept in
`oracles` (the `*_full` references), and for the scattering table
Re B(lam + i0) the library's kernel on the whole chord table.  The real
table of B(lam + i0), that one at lam >= 0 and B(lam) below, and its
kernel must also lie within a few ulps of the earlier complex-exponential
builds of N(lam) + B(eta) kept in `oracles`.  Memory tests pin the point of
blocking: the peak traced allocation of a build stays near the size of its
output.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import toeplitz

import curvedelta.curves as curves_mod
from curvedelta import spectral
from curvedelta import (ArcGrid, ConfigError, Curve, NumericsError, boundary_matrix,
                        circle_deviation, correction_singular_values, green_kernel,
                        layer_singular_values, make_grid, perturbed_green,
                        reparametrize_arclength, scale_to_length, scattering_kernel,
                        scattering_layer_matrix)
from curvedelta.assembly import (_circle_modes, boundary_derivative, circle_derivative_modes,
                                 comparison_matrix, smoothing_row)
from curvedelta.curves import _ArcTable, _row_blocks
from curvedelta.resolvent import make_box
from curvedelta.spectral import _circle_levels
from oracles import (box_points_full, boundary_matrix_full,
                     chord_difference_reference, comparison_matrix_full,
                     gram_matrix_full, scattering_kernel_full,
                     scattering_layer_matrix_full)

# 24 kB blocks: 30 rows of a float64 table at N = 100 and 12 at N = 250,
# so both grids end in a ragged block; N = 16 stays within one block
SMALL_BLOCK_BYTES = 24 * 1024
LAMBDAS = (0.0, -1.0, -4.0, -16.0, -600.0)
# sqrt(600) h = 9.6 > 6 on a 16-node grid of length 2 pi: past the
# resolution rule, so B(lam) and B'(lam) refuse it (1.5 and 0.62 at N = 100
# and 250)
UNRESOLVED = (16, -600.0)
SCATTERING_LAMBDAS = (0.0, 0.5, 1.0, 2.0)
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def wobble():
    """A non-planar curve with modes 1-3, length 2 pi, arc-length
    parametrized."""
    cos = [[1.0, 0.0, 0.0], [0.12, -0.05, 0.08], [0.0, 0.06, -0.04]]
    sin = [[0.0, 1.0, 0.0], [0.03, 0.1, -0.07], [-0.05, 0.0, 0.06]]
    raw = Curve(np.zeros(3), cos, sin, 2.0 * np.pi)
    return reparametrize_arclength(scale_to_length(raw, 2.0 * np.pi))


@pytest.fixture(scope="module")
def curves(circle, ellipse, wobble):
    return {"circle": circle, "ellipse": ellipse, "wobble": wobble}


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(curves_mod, "BLOCK_BYTES", SMALL_BLOCK_BYTES)


def test_row_blocks_cover_rows_with_a_ragged_tail():
    assert _row_blocks(250, 8 * 250) == [slice(0, 250)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves_mod, "BLOCK_BYTES", SMALL_BLOCK_BYTES)
        blocks = _row_blocks(250, 8 * 250)
        assert [b.stop - b.start for b in blocks] == [12] * 20 + [10]
        assert blocks[0].start == 0 and blocks[-1].stop == 250
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert len(_row_blocks(16, 8 * 16)) == 1
        # a row wider than a block still makes progress, one row at a time
        assert len(_row_blocks(3, 10 * SMALL_BLOCK_BYTES)) == 3


@pytest.mark.parametrize("n", [16, 100, 250])
@pytest.mark.parametrize("name", ["circle", "ellipse", "wobble"])
def test_boundary_and_comparison_bitwise_small_grids(curves, name, n, small_blocks):
    grid = make_grid(curves[name], n)
    for lam in LAMBDAS:
        assert np.array_equal(comparison_matrix(lam, grid), comparison_matrix_full(lam, grid))
        if (n, lam) == UNRESOLVED:
            with pytest.raises(NumericsError, match="refine the grid"):
                boundary_matrix(lam, grid)
            continue
        assert np.array_equal(boundary_matrix(lam, grid), boundary_matrix_full(lam, grid))


@pytest.mark.parametrize("n", [256, 1024, 2048])
def test_boundary_bitwise_benchmark_sizes(wobble, n):
    grid = make_grid(wobble, n)
    for lam in (0.0, -4.0):
        assert np.array_equal(boundary_matrix(lam, grid), boundary_matrix_full(lam, grid))


def _scattering_layer_one_pass(grid, lam):
    """Re B(lam + i0) from the library's kernel on the whole chord table in
    one pass: the circle circulant gathered whole, plus the comparison
    entries of the full chord tables."""
    circle_row = np.fft.irfft(_circle_modes(grid), grid.n) - smoothing_row(lam, grid)
    table = toeplitz(circle_row)
    if not grid.is_circle:
        table += comparison_matrix_full(lam, grid, lambda r: scattering_kernel(lam, r))
    return table


def _real_kernel(lam, r):
    """The kernel of Re B(lam + i0): outgoing at lam >= 0, decaying below."""
    return scattering_kernel(lam, r) if lam >= 0 else green_kernel(lam, r)


def _real_table(grid, lam):
    """Re B(lam + i0): the scattering table at lam >= 0, B(lam) below."""
    return scattering_layer_matrix(grid, lam) if lam >= 0 else boundary_matrix(lam, grid)


def _assert_ulp_close(re, ref, r, scale=1.0):
    """Re of `ref` within 4 ulps of scale/(4 pi r), the size of each
    exponential term of the scattering kernel (scale/(4 pi) at r = 0)."""
    bound = 4.0 * EPS * scale / (4.0 * np.pi * np.where(r > 0.0, r, 1.0))
    assert np.all(np.abs(re - np.real(ref)) <= bound)


@pytest.mark.parametrize("n", [16, 100, 250])
@pytest.mark.parametrize("name", ["circle", "ellipse", "wobble"])
def test_scattering_layer_bitwise_small_grids(curves, name, n, small_blocks):
    grid = make_grid(curves[name], n)
    for lam in SCATTERING_LAMBDAS:
        re = scattering_layer_matrix(grid, lam)
        assert re.dtype == np.float64
        assert np.array_equal(re, _scattering_layer_one_pass(grid, lam))


@pytest.mark.parametrize("n", [256, 1024])
def test_scattering_layer_bitwise_benchmark_sizes(ellipse, n):
    grid = make_grid(ellipse, n)
    for lam in SCATTERING_LAMBDAS:
        assert np.array_equal(scattering_layer_matrix(grid, lam),
                              _scattering_layer_one_pass(grid, lam))


@pytest.mark.parametrize("n", [100, 1024])
@pytest.mark.parametrize("lam", [-4.0, -0.25, 0.0, 0.5, 2.0])
def test_scattering_layer_matches_complex_build(ellipse, lam, n):
    # the real table of B(lam + i0), by the circle circulant and real cos or
    # exp, against Re N(lam) + B(-1) of the complex exponentials of the
    # earlier build: within 4 ulps of the table's largest entry, which is
    # where the circulant part is rounded (1 ulp was seen)
    grid = make_grid(ellipse, n)
    table = _real_table(grid, lam)
    ref = scattering_layer_matrix_full(grid, lam, -1.0).real + boundary_matrix(-1.0, grid)
    assert np.max(np.abs(table - ref)) <= 4.0 * np.spacing(np.max(np.abs(table)))


@pytest.mark.parametrize("lam", [-4.0, -1.0, -0.25, 0.0, 0.5, 2.0])
def test_scattering_kernel_bitwise(lam):
    # series-range and ordinary chords, in one array and one at a time: a
    # 0-d chord gets the floats the same chord gets in an array, for the
    # kernel of Re B(lam + i0) at every energy
    r = np.array([[1e-9, 3e-7], [1e-3, 0.5], [2.0, 7.0]])
    re = _real_kernel(lam, r)
    assert re.shape == r.shape
    for x, expected in zip(r.ravel(), re.ravel()):
        value = _real_kernel(lam, x)
        assert type(value) is float
        assert value == expected


@pytest.mark.parametrize("lam", [-4.0, -1.0, -0.25, 0.0, 0.5, 2.0])
def test_scattering_kernel_matches_complex_build(lam):
    # the kernel of Re B(lam + i0) less G_{-1} is the earlier kernel of
    # N(lam) at eta = -1: on the series range, its edge and chords up to 10,
    # in one array and as 0-d chords, within 4 ulps of 1/(4 pi r) of the
    # complex exponentials
    r = np.concatenate([[1e-9, 3e-7, 1e-6], np.geomspace(1e-6, 10.0, 2001)])
    _assert_ulp_close(_real_kernel(lam, r) - green_kernel(-1.0, r),
                      scattering_kernel_full(lam, -1.0, r), r)
    for x in (1e-9, 0.7):
        _assert_ulp_close(_real_kernel(lam, x) - green_kernel(-1.0, x),
                          scattering_kernel_full(lam, -1.0, x), np.float64(x))


@pytest.mark.parametrize("n", [16, 100, 250])
def test_chord_difference_rows_and_deviation(ellipse, n, small_blocks):
    grid = make_grid(ellipse, n)
    kernel = lambda r: green_kernel(-1.0, r)
    full = chord_difference_reference(grid, kernel)
    for rows in _row_blocks(n, 8 * n):
        assert np.array_equal(grid.chord_difference(kernel, rows), full[rows])
        # from the diagonal on, as a symmetric table is filled, and a column
        # range that holds no diagonal entry of some blocks
        for cols in (slice(rows.start, n), slice(n // 2, n)):
            assert np.array_equal(grid.chord_difference(kernel, rows, cols), full[rows, cols])
            assert np.array_equal(grid.chord_block(rows, cols), grid.chords[rows, cols])
    integrand = chord_difference_reference(grid, lambda r: 1.0 / (4.0 * np.pi * r))
    assert circle_deviation(grid) == float(grid.weight ** 2 * np.sum(integrand ** 2))


# the layer map's table is its Gram matrix X, N x N on the grid
@pytest.mark.parametrize("n", [16, 100, 256])
def test_box_and_layer_map_bitwise(ellipse, n, small_blocks):
    grid = make_grid(ellipse, n)
    box = make_box(grid, n=12, lam=-1.0)
    points, excluded = box_points_full(grid, box)
    assert np.array_equal(box.points, points) and box.n_excluded == excluded
    for lam in (-1.0, -4.0, -600.0):
        if (n, lam) == UNRESOLVED:
            with pytest.raises(NumericsError, match="refine the grid"):
                boundary_derivative(lam, grid)
            continue
        assert np.array_equal(boundary_derivative(lam, grid),
                              gram_matrix_full(grid, lam))


def test_box_and_layer_map_bitwise_default_blocks(ellipse_grid):
    box = make_box(ellipse_grid, n=24, lam=-1.0)
    points, excluded = box_points_full(ellipse_grid, box)
    assert np.array_equal(box.points, points) and box.n_excluded == excluded
    assert np.array_equal(boundary_derivative(-1.0, ellipse_grid),
                          gram_matrix_full(ellipse_grid, -1.0))


def test_chord_table_kept_only_when_it_fits_one_block(ellipse):
    # a one-block grid keeps its chords for the many assemblies of a root
    # search; a larger grid never holds the N x N table
    small, large = make_grid(ellipse, 256), make_grid(ellipse, 1024)
    boundary_matrix(-1.0, small)
    scattering_layer_matrix(large, 1.0)
    boundary_matrix(-1.0, large)
    assert ("_kept", "chords") in small.__dict__
    assert ("_kept", "chords") not in large.__dict__


# -- refusals survive blocking ----------------------------------------------


def _with_repeated_node(grid: ArcGrid, i: int, j: int) -> ArcGrid:
    points = grid.points.copy()
    points[j] = points[i]
    return ArcGrid(curve=grid.curve, nodes=grid.nodes, weight=grid.weight,
                   points=points, curvatures=grid.curvatures)


def test_zero_chord_in_last_block_refused(ellipse, small_blocks):
    # nodes 3 and 247 coincide: the zero chord lies in the ragged last block
    grid = _with_repeated_node(make_grid(ellipse, 250), 3, 247)
    with pytest.raises(ConfigError, match="r > 0"):
        comparison_matrix(-1.0, grid)
    with pytest.raises(ConfigError, match="r > 0"):
        boundary_matrix(-1.0, grid)


def test_non_finite_energy_refused(ellipse, small_blocks):
    # nan is refused before any table is built, inf by the finite check
    grid = make_grid(ellipse, 100)
    with pytest.raises(ConfigError, match="lam >= 0"):
        scattering_layer_matrix(grid, float("nan"))
    with pytest.raises(ConfigError, match="lam <= 0"):
        boundary_matrix(float("nan"), grid)
    with pytest.raises(ConfigError, match="non-finite"):
        scattering_layer_matrix(grid, float("inf"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", [
    lambda grid: boundary_matrix(-math.inf, grid),
    lambda grid: scattering_layer_matrix(grid, math.inf),
    lambda grid: spectral.boundary_spectrum(-math.inf, grid),
    lambda grid: layer_singular_values(grid, -math.inf),
    lambda grid: correction_singular_values(grid, -math.inf, -0.5),
    lambda grid: perturbed_green(grid, -math.inf, -0.5, [5.0, 0.0, 0.0], [0.0, 5.0, 0.0]),
    lambda grid: boundary_derivative(-math.inf, grid),
    lambda grid: circle_derivative_modes(-math.inf, grid),
    lambda grid: circle_derivative_modes(math.nan, grid),
], ids=["boundary_matrix", "scattering_layer_matrix", "boundary_spectrum",
        "layer_singular_values", "correction_singular_values", "perturbed_green",
        "boundary_derivative", "circle_derivative_modes", "circle_derivative_modes nan"])
@pytest.mark.parametrize("name", ["ellipse", "circle"])
def test_infinite_energy_refused_before_any_kernel(curves, name, call):
    # the smoothing row, which every path to Re B(lam + i0) reads, and
    # B'(lam)'s diagonal, which its dense build and the circle's modes
    # compute first, refuse an infinite energy before a kernel meets inf * 0
    with pytest.raises(ConfigError, match="non-finite energy"):
        call(make_grid(curves[name], 64))


def test_green_kernel_refuses_nonpositive_chords():
    with pytest.raises(ConfigError):
        green_kernel(-1.0, np.array([[0.5, 1.0], [0.0, 2.0]]))
    with pytest.raises(ConfigError):
        green_kernel(-1.0, -0.5)


# -- memory -----------------------------------------------------------------


def _peak_bytes(build):
    """(result, peak traced bytes allocated while `build()` ran)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_boundary_matrix_peak_memory(ellipse):
    grid = make_grid(ellipse, 2048)
    grid.circle_chord_row
    mat, peak = _peak_bytes(lambda: boundary_matrix(-1.0, grid))
    assert peak <= 1.5 * mat.nbytes


def test_certified_spectrum_peak_memory(ellipse):
    # the compression reads full rows of the comparison part a block at a
    # time and never forms B: its table (D F_K)^T and T take 0.75 x 8N^2,
    # and the peak was 0.82 x 8N^2 (1.82 x 8N^2 when B was assembled)
    n = 2048
    grid = make_grid(ellipse, n)
    grid.circle_chord_row
    op = spectral._operator(0.0, grid)
    _, peak = _peak_bytes(lambda: op._top[0])
    assert op._top[1] > 0.0 and "_assembly" not in op.__dict__
    assert peak <= 1.0 * 8 * n * n


def test_scattering_layer_matrix_peak_memory(ellipse):
    grid = make_grid(ellipse, 1024)
    re, peak = _peak_bytes(lambda: scattering_layer_matrix(grid, 1.0))
    assert peak <= 1.5 * re.nbytes


def test_layer_map_peak_memory(ellipse):
    # the layer map's Gram matrix X on a grid larger than one block
    grid = make_grid(ellipse, 1024)
    gram, peak = _peak_bytes(lambda: boundary_derivative(-1.0, grid))
    assert peak <= 1.5 * gram.nbytes


def test_make_box_peak_memory(ellipse_grid):
    n = 24
    _, peak = _peak_bytes(lambda: make_box(ellipse_grid, n=n, lam=-1.0))
    assert peak <= 0.5 * (n ** 3) * ellipse_grid.n * 8


def test_circle_level_table_peak_memory():
    # the partial sums run in one extended-precision buffer: 7.3 MB for a
    # table of 2^18 + 1 levels, where one expression's temporaries took 13.6 MB
    levels, peak = _peak_bytes(lambda: _circle_levels(1.0, -2.0))
    assert len(levels) == 2 ** 18 + 1
    assert peak <= 8e6


# -- grid construction --------------------------------------------------------


def test_make_grid_reads_the_arc_table_once(ellipse, monkeypatch):
    # each grid inverts its own nodes in one call of the table
    calls = []
    real = _ArcTable.param_at

    def param_at(table, s):
        calls.append(len(s))
        return real(table, s)

    monkeypatch.setattr(_ArcTable, "param_at", param_at)
    grids = [make_grid(ellipse, n) for n in (128, 2048)]
    assert calls == [128, 2048]
    monkeypatch.undo()
    for grid in grids:
        t = ellipse.param_at_arclength(grid.nodes)
        assert np.array_equal(grid.points, ellipse.point_at_arclength(grid.nodes))
        assert np.array_equal(grid.curvatures, ellipse.curvature(t))
