"""Closed curves in R^3 and their arc-length geometry.

A curve is a truncated Fourier series

    sigma(t) = a0 + sum_{m=1}^{M} cos(2 pi m t / T) c_m + sin(2 pi m t / T) s_m,

which is closed and smooth by construction.  All spectral computations
downstream work on the unit-speed (arc-length) parametrization, obtained
here by numerically inverting the arc-length function.  The key geometric
quantities are chord lengths |sigma(s) - sigma(t)|, the curvature along the
curve, and the L^2 deviation of the curve's Coulomb kernel from that of the
circle of equal length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import ConfigError, CurveError, check_tolerance

# Threshold for the self-intersection guard: points at least L/64 apart in
# arc length must stay more than this fraction of L apart in space.
SELF_INTERSECTION_TOL = 1e-9
# Nodes of the self-intersection guard, equispaced in arc length.
_GUARD_NODES = 1024
# Gauss-Legendre rules of table panels and short arcs (2 points for the
# second step of `_params_past`), and the largest relative error of the
# series start that `_params_past` takes: on the 400 draws of the first 40 of
# seeds 1-10 of the benchmark's curves, two Newton steps from a start within
# it left at most 5.4e-14 relative error, from starts off by 1e-4 to 1e-3 up
# to 6.6e-12.
_PANEL_GAUSS = leggauss(10)
_SHORT_GAUSS = leggauss(4)
_PAIR_GAUSS = leggauss(2)
_SHORT_START_TOL = 1e-4
# Largest accepted deviation of the reparametrized speed from 1.
REPARAM_TOL = 1e-8
# Nodes per chunk of the curve checks: the arc table and the stencil are
# evaluated on this many nodes at a time, so that the largest temporary of
# a three-mode curve (16 points per node in `_params_past`) stays below
# 128 KB, the size above which glibc's allocator maps fresh pages by default.
_CHECK_NODES = 256


class _ArcTable:
    """Monotone map between arc length s in [0, L] and curve parameter t.

    Cumulative lengths are accumulated with composite Gauss quadrature of
    |sigma'| on fine panels; inversion starts from the linear interpolant
    of the table (np.interp, which clamps to [0, T]) and takes four Newton
    steps on the exact quadrature, so parameter values are recovered
    essentially to machine precision.  The first step measures the arc from
    the panel's edge, each later one adds the arc just moved on the short
    rule: 26 speed evaluations per point.  So the curve checks of
    `reparametrize_arclength` invert their nodes once and reach points a
    short arc away by `_params_past`, and keep the parameters of the
    guard's nodes as `guard_params`, which `make_grid` reads.  The table is
    arrays and numbers: its curve, which holds it, is passed to each lookup.
    """

    def __init__(self, curve: "Curve", panels: int):
        self._edges = np.linspace(0.0, curve.period, panels + 1)
        x, w = _PANEL_GAUSS
        mid = 0.5 * (self._edges[1:] + self._edges[:-1])
        half = 0.5 * np.diff(self._edges)
        tq = mid[:, None] + half[:, None] * x[None, :]
        speeds = curve.speed(tq.ravel()).reshape(tq.shape)
        panel_len = half * (speeds @ w)
        self.cum = np.concatenate([[0.0], np.cumsum(panel_len)])
        # a length that overflows, or a speed that vanishes on a whole panel,
        # leaves no table to invert
        if not (np.all(np.isfinite(self.cum)) and np.all(panel_len > 0)):
            raise CurveError("arc-length table is not finite and increasing")
        self.total_length = float(self.cum[-1])
        # parameters of the nodes `_guard_arclengths(L)`, once inverted
        self.guard_params: np.ndarray | None = None

    def length_at(self, curve: "Curve", t: np.ndarray) -> np.ndarray:
        """Arc length along `curve` from parameter 0 to t (t in [0, T])."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self._edges, t, side="right") - 1, 0,
                      len(self._edges) - 2)
        lo = self._edges[idx]
        return self.cum[idx] + _arc(curve, lo, t - lo, _PANEL_GAUSS)

    def param_at(self, curve: "Curve", s: np.ndarray) -> np.ndarray:
        """Parameter t of `curve` with arc length s, for s in [0, L] (vectorized)."""
        s = np.asarray(s, dtype=float)
        t = np.interp(s, self.cum, self._edges)
        length = self.length_at(curve, t)
        for _ in range(3):
            new = np.clip(t + (s - length) / curve.speed(t), 0.0, curve.period)
            length = length + _arc(curve, t, new - t, _SHORT_GAUSS)
            t = new
        return np.clip(t + (s - length) / curve.speed(t), 0.0, curve.period)


def _arc(curve: "Curve", t: np.ndarray, step: np.ndarray, rule) -> np.ndarray:
    """Arc length of `curve` from t to t + step on one Gauss `rule` panel."""
    x, w = rule
    half = 0.5 * step
    tq = (t + half)[..., None] + half[..., None] * x
    return half * (curve.speed(tq.reshape(-1)).reshape(tq.shape) @ w)


class Curve:
    """Closed C^infinity curve given by truncated Fourier coefficients."""

    def __init__(self, a0, cos_coeff, sin_coeff, period,
                 is_circle: bool = False, radius: float | None = None):
        self.a0 = np.asarray(a0, dtype=float).reshape(3)
        self.cos_coeff = np.atleast_2d(np.asarray(cos_coeff, dtype=float))
        self.sin_coeff = np.atleast_2d(np.asarray(sin_coeff, dtype=float))
        if self.cos_coeff.shape != self.sin_coeff.shape or self.cos_coeff.shape[1] != 3:
            raise CurveError("cosine and sine coefficient arrays must both be (M, 3)")
        if not (np.isfinite(self.a0).all() and np.isfinite(self.cos_coeff).all()
                and np.isfinite(self.sin_coeff).all()):
            raise CurveError("curve coefficients must be finite")
        if not (np.isfinite(period) and period > 0):
            raise CurveError("period must be finite and positive")
        self.period = float(period)
        # sigma - a0, sigma' and sigma'' are at most size, d1 = w size and
        # d2 = w d1 per component (w the top angular frequency); the geometry
        # forms products of four (speed^4, |sigma' x sigma''|^2) and cdist sums
        # three squared chord components (2 size)^2, so a curve where those
        # could overflow is refused in Python floats, which overflow silently
        modes = self.cos_coeff.shape[0]
        w = 2.0 * np.pi * modes / self.period
        size = 2.0 * modes * float(max(np.max(np.abs(self.cos_coeff)),
                                       np.max(np.abs(self.sin_coeff))))
        d1 = w * size
        d2 = w * d1
        if not d1 * d1 * max(d1, d2) * max(d1, d2) < 1e300:
            raise CurveError("curve derivatives overflow: period too short "
                             "for the coefficients' size")
        if not 16.0 * size * size < np.finfo(float).max:
            raise CurveError("curve chords overflow: coefficients too large")
        self._modes = np.arange(1, modes + 1, dtype=float)
        self.is_circle = bool(is_circle)
        self.radius = radius
        self._table: _ArcTable | None = None
        # a circle built by make_circle is unit-speed natively
        self.unit_speed = bool(is_circle)

    # -- evaluation in the native parameter -------------------------------

    def _harmonics(self, t):
        """(cos m theta, sin m theta) for m = 1..M, theta = 2 pi t / T, each
        (..., M): one cosine and one sine of theta, then the rotation
        recurrence; for M = 1 bitwise np.cos and np.sin of theta."""
        theta = np.asarray(t, dtype=float) * (2.0 * np.pi) / self.period
        cos = np.empty(np.shape(theta) + self._modes.shape)
        sin = np.empty_like(cos)
        c, s = np.cos(theta, out=cos[..., 0]), np.sin(theta, out=sin[..., 0])
        for m in range(1, len(self._modes)):
            np.subtract(cos[..., m - 1] * c, sin[..., m - 1] * s, out=cos[..., m])
            np.add(sin[..., m - 1] * c, cos[..., m - 1] * s, out=sin[..., m])
        return cos, sin

    def point(self, t):
        """Position sigma(t); t scalar or array, returns (..., 3)."""
        cos, sin = self._harmonics(t)
        return self.a0 + cos @ self.cos_coeff + sin @ self.sin_coeff

    def velocity(self, t):
        return self._velocity(*self._harmonics(t))

    def _velocity(self, cos, sin):
        om = 2.0 * np.pi * self._modes / self.period
        return (sin * -om) @ self.cos_coeff + (cos * om) @ self.sin_coeff

    def _acceleration(self, cos, sin):
        om2 = (2.0 * np.pi * self._modes / self.period) ** 2
        return (-cos * om2) @ self.cos_coeff + (-sin * om2) @ self.sin_coeff

    def speed(self, t):
        # sqrt(sum v^2) summed left to right, as np.linalg.norm(v, axis=-1)
        # sums a row of three, bit for bit, without its strided reduction
        v = self.velocity(t)
        v *= v
        return np.sqrt((v[..., 0] + v[..., 1]) + v[..., 2])

    def curvature(self, t):
        """|sigma' x sigma''| / |sigma'|^3, the curvature of the trace."""
        harmonics = self._harmonics(t)
        v, a = self._velocity(*harmonics), self._acceleration(*harmonics)
        cross = np.cross(v, a)
        return np.linalg.norm(cross, axis=-1) / np.linalg.norm(v, axis=-1) ** 3

    # -- arc-length parametrization ---------------------------------------

    @property
    def total_length(self) -> float:
        if self.unit_speed and self._table is None:
            return self.period
        if self._table is None:
            raise CurveError("curve has no arc-length table; call reparametrize_arclength")
        return self._table.total_length

    def param_at_arclength(self, s):
        s = np.mod(np.asarray(s, dtype=float), self.total_length)
        if self.unit_speed and self._table is None:
            return s
        return self._table.param_at(self, s)

    def point_at_arclength(self, s):
        return self.point(self.param_at_arclength(s))


def make_circle(radius: float) -> Curve:
    """Planar circle of the given radius, natively unit-speed.

    sigma(t) = (R cos(t/R), R sin(t/R), 0) with period 2 pi R.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise CurveError("circle radius must be finite and positive")
    return Curve(
        a0=np.zeros(3),
        cos_coeff=[[radius, 0.0, 0.0]],
        sin_coeff=[[0.0, radius, 0.0]],
        period=2.0 * np.pi * radius,
        is_circle=True,
        radius=float(radius),
    )


def make_ellipse(a: float, b: float) -> Curve:
    """Planar ellipse (a cos t, b sin t, 0), not yet arc-length parametrized."""
    if a <= 0 or b <= 0:
        raise CurveError("ellipse semi-axes must be positive")
    return Curve(
        a0=np.zeros(3),
        cos_coeff=[[a, 0.0, 0.0]],
        sin_coeff=[[0.0, b, 0.0]],
        period=2.0 * np.pi,
    )


def scale_to_length(curve: Curve, target_length: float) -> Curve:
    """Rescale a curve homothetically so its total length equals the target.

    The parameter domain scales along with the coefficients, so a natively
    unit-speed input stays unit-speed.
    """
    if target_length <= 0:
        raise ConfigError("target length must be positive")
    table = _ArcTable(curve, panels=_panel_count(curve))
    factor = target_length / table.total_length
    return Curve(
        a0=curve.a0 * factor,
        cos_coeff=curve.cos_coeff * factor,
        sin_coeff=curve.sin_coeff * factor,
        period=curve.period * factor,
        is_circle=curve.is_circle,
        radius=None if curve.radius is None else curve.radius * factor,
    )


def _panel_count(curve: Curve) -> int:
    return max(256, 16 * curve.cos_coeff.shape[0])


def reparametrize_arclength(curve: Curve, tol: float = REPARAM_TOL) -> Curve:
    """Attach an arc-length table and validate the unit-speed property.

    Raises CurveError on irregular (vanishing velocity) or self-intersecting
    input.  The returned curve answers point_at_arclength queries through the
    table; for a natively unit-speed curve the input is returned unchanged.

    The checks invert the arc-length table once, at the 1024 nodes
    s_i = i L / 1024.  The self-intersection guard reads the points there
    (`_check_self_intersection`, a k-d tree query), and the unit-speed
    stencil takes them as its centres: its four points s_i +- h, s_i +- 2h
    are short Newton solves from each node (`_params_past`), not four more
    inversions; only near a point where the speed almost vanishes does the
    table invert them.  A curve with more than 16 modes has more stencil
    centres (4 per arc-table panel), inverted separately.  The inversion,
    the points and the stencil run on _CHECK_NODES nodes at a time, so no
    temporary of a load is large enough to be mapped afresh by the
    allocator; the maximum over the chunks is the stencil's maximum.
    """
    check_tolerance("reparam_tol", tol)
    tfine = np.linspace(0.0, curve.period, 4096, endpoint=False)
    speeds = curve.speed(tfine)
    if speeds.min() <= 1e-10 * speeds.max():
        raise CurveError("curve is not regular: |sigma'| vanishes on the parameter grid")

    if curve.unit_speed and curve._table is None and np.abs(speeds - 1.0).max() < tol:
        L = curve.total_length
        _check_self_intersection(curve.point_at_arclength(_guard_arclengths(L)), L)
        return curve

    out = Curve(curve.a0, curve.cos_coeff, curve.sin_coeff, curve.period,
                is_circle=curve.is_circle, radius=curve.radius)
    table = out._table = _ArcTable(out, panels=_panel_count(out))
    out.unit_speed = True

    L = table.total_length
    s_check = _guard_arclengths(L)
    t_check = table.guard_params = _by_chunks(out.param_at_arclength, s_check)
    _check_self_intersection(_by_chunks(out.point, t_check), L)

    n_check = 4 * _panel_count(out)
    if n_check != _GUARD_NODES:
        s_check = np.arange(n_check) * L / n_check
        t_check = _by_chunks(out.param_at_arclength, s_check)
    dev = max(_unit_speed_deviation(out, s, t)
              for s, t in zip(_chunks(s_check), _chunks(t_check)))
    if dev >= tol:
        raise CurveError(f"unit-speed check failed: max | |sigma'| - 1 | = {dev:.3e}")
    return out


def _chunks(x: np.ndarray) -> list[np.ndarray]:
    """Consecutive slices of `x` of _CHECK_NODES entries (the last may be
    shorter)."""
    return [x[i:i + _CHECK_NODES] for i in range(0, len(x), _CHECK_NODES)]


def _by_chunks(evaluate, x: np.ndarray) -> np.ndarray:
    """`evaluate(x)` for a pointwise `evaluate`, computed on `_chunks(x)`
    and concatenated.  Each value takes the operations of the one call;
    only a BLAS product (`@`) could round differently in a batch of another
    size, and on 560 seeded curves none did."""
    return np.concatenate([evaluate(part) for part in _chunks(x)])


def _guard_arclengths(length: float) -> np.ndarray:
    """The guard's nodes s_i = i L / _GUARD_NODES."""
    return np.arange(_GUARD_NODES) * length / _GUARD_NODES


def _params_past(curve: Curve, s: np.ndarray, t: np.ndarray, offsets) -> np.ndarray:
    """(len(offsets), len(s)) parameters at arc lengths s + ds, one row per
    offset ds (small, either sign), given the parameters t of the arc
    lengths s on a curve with an arc-length table.

    Each starts from the second-order inverse of the arc-length series at t,

        t + ds / |sigma'| - ds^2 (sigma' . sigma'') / (2 |sigma'|^4),

    and takes two Newton steps: the first measures the arc from t on one
    4-point Gauss panel, the second adds the arc the first moved on a 2-point
    one.  sigma is periodic, so a parameter outside [0, T]
    needs no wrap.  Where the start was off by more than _SHORT_START_TOL
    relative, near a point where the speed almost vanishes, the two steps
    may stop short, and the table inverts s + ds instead.
    """
    harmonics = curve._harmonics(t)
    v = curve._velocity(*harmonics)
    speed = np.sqrt(np.add.reduce(v * v, axis=-1))
    slope = np.add.reduce(v * curve._acceleration(*harmonics), axis=-1)
    ds = np.asarray(offsets, dtype=float)[:, None]
    start = ds / speed - ds * ds * slope / (2.0 * speed ** 4)
    length = _arc(curve, t, start, _SHORT_GAUSS)
    step = start + (ds - length) / curve.speed((t + start).reshape(-1)).reshape(start.shape)
    length += _arc(curve, t + start, step - start, _PAIR_GAUSS)
    step += (ds - length) / curve.speed((t + step).reshape(-1)).reshape(step.shape)
    out = t + step
    rough = np.abs(step - start) > _SHORT_START_TOL * np.abs(step)
    if rough.any():
        out[rough] = curve.param_at_arclength((s + ds)[rough])
    return out


def _unit_speed_deviation(curve: Curve, s: np.ndarray, t: np.ndarray) -> float:
    """max | |sigma'| - 1 | over the arc lengths s at parameters t, from the
    4th-order central difference of the position at s +- h and s +- 2h,
    h = 1e-3 L / (2 pi).  The four points are solved to about 1e-16
    relative, so the stencil noise stays near 1e-12."""
    hs = 1e-3 * curve.total_length / (2.0 * np.pi)
    p1, m1, p2, m2 = curve.point(_params_past(curve, s, t, (hs, -hs, 2 * hs, -2 * hs)))
    tangent = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * hs)
    return float(np.abs(np.linalg.norm(tangent, axis=-1) - 1.0).max())


def _check_self_intersection(points: np.ndarray, length: float) -> None:
    """Reject a curve whose far-apart points come within SELF_INTERSECTION_TOL * L.

    `points` are the curve's points at the _GUARD_NODES arc lengths of
    `_guard_arclengths(length)`.  On these n = 1024 nodes the far set is
    every pair at cyclic index shift k >= n/64, so every pair at arc
    separation >= L/64.  This is a superset of the float-rounded
    `ds > L/64` set of a full n x n comparison, which misses some pairs at
    exactly L/64.

    A k-d tree (scipy's cKDTree) lists the candidate pairs, those within
    twice the limit, in O(n log n) and with no n x n table.  Each far
    candidate is then re-checked in the arithmetic of a full table,
    sqrt((dx^2 + dy^2) + dz^2) <= SELF_INTERSECTION_TOL * L, so the
    decision is that table's.  The factor 2 leaves the tree's own
    rounding far inside the candidate radius; where squared components
    underflow, the tree's sums of squares underflow with the table's
    (`tests/test_curves.py` checks tiny and huge curves).
    """
    n = _GUARD_NODES
    limit = SELF_INTERSECTION_TOL * length
    pairs = cKDTree(points).query_pairs(2.0 * limit, output_type="ndarray")
    i, j = pairs.T
    far = np.minimum(j - i, n - (j - i)) >= n // 64
    d = points[j[far]] - points[i[far]]
    d *= d
    if np.any(np.sqrt((d[:, 0] + d[:, 1]) + d[:, 2]) <= limit):
        raise CurveError("curve self-intersects (or nearly touches itself)")


def _pairwise_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """(P, N) Euclidean distances between the rows of `a` (P, 3) and `b`
    (N, 3); `b` defaults to `a`, and the result is then exactly symmetric
    with an exactly zero diagonal.

    The one place that computes pairwise distances, by scipy's `cdist`,
    which sums dx^2 + dy^2 + dz^2 in that order for each pair: bitwise the
    sum of a (P, N, 3) broadcast difference, without that temporary.
    """
    return cdist(a, a if b is None else b)


# Bytes of one row block of a kernel table: 1 MB, so that a block and the
# few block-sized temporaries of a kernel evaluation stay within a core's
# L2 cache.
BLOCK_BYTES = 1 << 20


def _row_blocks(rows: int, row_bytes: int) -> list[slice]:
    """Consecutive row slices covering a table of `rows` rows of `row_bytes`
    bytes each, each slice about BLOCK_BYTES (at least one row); the last
    may be shorter."""
    step = max(1, BLOCK_BYTES // max(1, row_bytes))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _blockwise(n: int, block, out: np.ndarray | None = None) -> np.ndarray:
    """Symmetric (n, n) float table filled a row block at a time, in `out`
    when given: the entries in the rows r of a block of `_row_blocks` and
    the columns c are `block(r, c, dest)`, where `dest` is the view of the
    table they fill, and entry (i, j) is bitwise equal to (j, i).

    A block may be computed in `dest` itself and return it, which spares
    its copy; any other array it returns is copied in.  Each block is
    evaluated from its diagonal on (c starts at r.start) and written before
    the next one, so no temporary larger than a few blocks is alive beside
    the table; its columns left of the diagonal are copied from the rows
    above, transposed, one block-by-block tile at a time, so each tile's
    reads and writes stay in cache.
    """
    out = np.empty((n, n)) if out is None else out
    blocks = _row_blocks(n, n * out.itemsize)
    for i, r in enumerate(blocks):
        dest = out[r, r.start:]
        values = block(r, slice(r.start, n), dest)
        if values is not dest:
            dest[...] = values
        for q in blocks[:i]:
            out[r, q] = out[q, r].T
    return out


def _block_diagonal(rows: slice, cols: slice) -> tuple[np.ndarray, np.ndarray]:
    """Index, within the block of table rows `rows` and columns `cols`, of
    the entries (i, i) it holds."""
    i = np.arange(max(rows.start, cols.start), min(rows.stop, cols.stop))
    return i - rows.start, i - cols.start


def _toeplitz_block(row: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Rows `rows` and columns `cols` of the symmetric Toeplitz matrix
    toeplitz(row), entry (i, j) = row[|i - j|], as a read-only strided view
    of one length-2N-1 vector (the gather scipy's toeplitz makes for the
    whole matrix)."""
    n = len(row)
    windows = sliding_window_view(np.concatenate([row[:0:-1], row]), cols.stop - cols.start)
    return windows[n - rows.stop + cols.start:n - rows.start + cols.start][::-1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _kept(owner, name: str, key, build):
    """`build()`, kept on `owner` as its `name` result for `key`.

    The one place a computed result is kept on a grid.  A kept result is a
    function of its owner and key alone, never of the calls that came
    before it, so keeping it changes no number.  Each name holds
    one entry: a call with the key of that entry returns the kept result, a
    call with another key builds and replaces it.  Keys compare with ==,
    and grids by identity.  An array result is kept read-only, since every
    later caller shares it.  A kept result is arrays and numbers, never an
    object that refers back to its owner: that would make a cycle, and the
    owner's arrays would outlive their last user until the cyclic garbage
    collector ran.
    """
    # kept where cached_property keeps its values; the dataclasses are frozen
    entry = owner.__dict__.get(name)
    if entry is None or entry[0] != key:
        value = build()
        if isinstance(value, np.ndarray):
            _read_only(value)
        entry = owner.__dict__[name] = (key, value)
    return entry[1]


# -- arc-length grids ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ArcGrid:
    """Equispaced arc-length nodes with the uniform trapezoid weight.

    The one handle on the discretized curve: every operator of the curve is
    computed from a grid, and `curve` is the curve it samples.  Also the one
    source of the chord geometry: the row of chords of the equal-length
    circle is computed on first use and shared, read-only, by every
    assembly on this grid, and the curve chords are handed out a row block
    at a time (`chord_block`), so an assembly on a grid larger than one
    block never holds a second N x N table beside its output.  It holds
    only geometry: the operator results computed once per grid are kept on
    it through `_kept` by the modules that compute them.  Grids compare
    and hash by identity.
    """

    curve: Curve
    nodes: np.ndarray       # (N,) arc-length values s_j = (j-1) L / N
    weight: float           # L / N
    points: np.ndarray      # (N, 3) positions on the curve
    curvatures: np.ndarray  # (N,) curvature at the nodes

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def length(self) -> float:
        return self.n * self.weight

    @cached_property
    def chords(self) -> np.ndarray:
        """(N, N) curve chords |sigma(s_i) - sigma(s_j)|, zero on the
        diagonal, kept read-only after the first call.  The assemblies read
        it through `chord_block`, and only when it fits in one block."""
        return _read_only(_pairwise_distances(self.points))

    @cached_property
    def circle_chord_row(self) -> np.ndarray:
        """(N,) chords of the equal-length circle at arc separations
        min(k, N - k) h: the first row of the circulant circle chord matrix."""
        k = np.arange(self.n)
        return _read_only(circle_chord(self.length, np.minimum(k, self.n - k) * self.weight))

    def chord_block(self, rows: slice, cols: slice,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Rows `rows` and columns `cols` of the curve chord table, bitwise
        equal to that block of `chords`: copied into `out` when given and
        the table is kept, and else a new array.

        A table that fits in one block (N <= 362) is computed once and kept:
        it costs no more memory than one block, and a root search assembles
        dozens of times on one grid.  A larger table is computed block by
        block from the points, because keeping it would double the memory of
        every assembly on the grid.
        """
        if 8 * self.n * self.n > BLOCK_BYTES:
            return _pairwise_distances(self.points[rows], self.points[cols])
        if out is None:
            return self.chords[rows, cols].copy()
        np.copyto(out, self.chords[rows, cols])
        return out

    def chord_difference(self, kernel, rows: slice = slice(None),
                         cols: slice = slice(None),
                         out: np.ndarray | None = None) -> np.ndarray:
        """kernel(curve chord) - kernel(circle chord) for the node pairs in
        rows `rows` and columns `cols` (all of them by default).

        `kernel` maps an array of positive chords elementwise, and may
        return its result in that array.  Kept chords are laid out in `out`
        when given (`chord_block`), so a kernel that works in place builds
        the block there; otherwise the block is a new array.  The diagonal,
        where both chords vanish, is zero: the kernel sees a placeholder
        chord 1 there, and the entry is overwritten.  The circle term is
        the circulant spanned by one row, so the kernel is evaluated on N
        circle chords.
        """
        rows = slice(*rows.indices(self.n))
        cols = slice(*cols.indices(self.n))
        chords = self.chord_block(rows, cols, out)
        diag = _block_diagonal(rows, cols)
        chords[diag] = 1.0
        out = kernel(chords)
        circle_row = np.zeros(self.n)
        circle_row[1:] = kernel(self.circle_chord_row[1:].copy())
        out -= _toeplitz_block(circle_row, rows, cols)
        out[diag] = 0.0
        return out


def make_grid(curve: Curve, n: int) -> ArcGrid:
    """Build the N-node discretization backbone (N even, N >= 16).

    A node whose arc length equals one of the guard's nodes bit for bit
    takes the parameter `reparametrize_arclength` inverted there (every
    node when N divides 1024, every other one at N = 2048); the table
    inverts only the others.
    """
    if n % 2 != 0 or n < 16:
        raise ConfigError("grid size must be even and at least 16")
    if not curve.unit_speed:
        raise CurveError("grid requires a unit-speed curve; call reparametrize_arclength")
    L = curve.total_length
    s = np.arange(n) * (L / n)
    table = curve._table
    if table is None or table.guard_params is None:
        t = curve.param_at_arclength(s)
    else:
        guard = _guard_arclengths(L)
        i = np.minimum(np.searchsorted(guard, s), _GUARD_NODES - 1)
        hit = guard[i] == s
        t = table.guard_params[i]
        if not hit.all():
            t[~hit] = curve.param_at_arclength(s[~hit])
    return ArcGrid(
        curve=curve,
        nodes=s,
        weight=L / n,
        points=curve.point(t),
        curvatures=curve.curvature(t),
    )


# -- geometric quantities --------------------------------------------------


def circle_chord(length: float, ds):
    """Chord of the circle of circumference `length` at arc separation ds."""
    R = length / (2.0 * np.pi)
    return 2.0 * R * np.abs(np.sin(np.pi * np.asarray(ds, dtype=float) / length))


def circle_deviation(grid: ArcGrid) -> float:
    """Squared L^2 distance between the curve's Coulomb kernel and the circle's.

    Double integral over [0, L]^2 of

        | 1/(4 pi |sigma(t) - sigma(s)|) - 1/(4 pi |tau(t) - tau(s)|) |^2,

    where tau parametrizes the circle of equal length.  Evaluated by the
    tensor periodic trapezoid rule; the integrand extends continuously by 0
    on the diagonal (both chords agree to second order for a C^2 curve), so
    the diagonal entries are set to 0.  Zero for a circle, positive and
    rigid-motion invariant otherwise.
    """
    integrand = _blockwise(grid.n, lambda rows, cols, dest: grid.chord_difference(
        lambda r: 1.0 / (4.0 * np.pi * r), rows, cols, dest))
    integrand *= integrand
    # one sum over the whole table: a blockwise sum would round differently
    return float(grid.weight ** 2 * np.sum(integrand))


def curve_to_json_dict(curve: Curve) -> dict:
    """Serializable description matching the CLI curve schema."""
    if curve.is_circle:
        return {"kind": "circle", "radius": curve.radius}
    return {
        "kind": "fourier",
        "a0": curve.a0.tolist(),
        "cos": curve.cos_coeff.tolist(),
        "sin": curve.sin_coeff.tolist(),
        "period": curve.period,
    }


def curve_from_json_dict(spec: dict, reparam_tol: float = REPARAM_TOL) -> Curve:
    """Build (and arc-length parametrize) a curve from its JSON description.

    A missing field, or one that is not a number or an array of the right
    shape, is a ConfigError."""
    try:
        kind = spec["kind"]
        if kind == "circle":
            return make_circle(float(spec["radius"]))
        if kind != "fourier":
            raise ConfigError(f"unknown curve kind {kind!r}")
        raw = Curve(
            a0=spec.get("a0", [0.0, 0.0, 0.0]),
            cos_coeff=spec["cos"],
            sin_coeff=spec["sin"],
            period=float(spec.get("period", 2.0 * np.pi)),
        )
    except CurveError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed curve description: {exc}") from exc
    return reparametrize_arclength(raw, tol=reparam_tol)
