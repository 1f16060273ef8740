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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.chebyshev import chebint, chebval, chebvander
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import ConfigError, CurveError, check_tolerance

# Threshold for the self-intersection guard: points at least L/64 apart in
# arc length must stay more than this fraction of L apart in space.
SELF_INTERSECTION_TOL = 1e-9
# Nodes of the self-intersection guard, equispaced in arc length.
_GUARD_NODES = 1024
# Largest accepted deviation of the reparametrized speed from 1.
REPARAM_TOL = 1e-8
# Chebyshev nodes per arc-table panel, the roots x_k = cos(pi (k + 1/2) / K)
# of T_K, and the matrix that takes a panel's speeds there to the
# coefficients of its Chebyshev series (T_0 .. T_{K-1} are orthogonal on
# these nodes).
_CHEB_NODES = 12
_CHEB_X = np.cos(np.pi * (np.arange(_CHEB_NODES) + 0.5) / _CHEB_NODES)
_CHEB_COEFFS = chebvander(_CHEB_X, _CHEB_NODES - 1) * (2.0 / _CHEB_NODES)
_CHEB_COEFFS[:, 0] *= 0.5
# Newton steps of an inversion from the linear start within its panel: on
# the 400 pinned seeded draws three left up to 284 eps L on the table's
# series, four reach rounding (1.3 eps L).
_NEWTON_STEPS = 4


class _ArcTable:
    """Monotone map between arc length s in [0, L] and curve parameter t.

    The parameter period is cut into equal panels, and on each the speed
    |sigma'| is sampled once, at the _CHEB_NODES Chebyshev nodes, and
    replaced by its Chebyshev series in the panel variable x in [-1, 1]
    (`speed_series`).  The series' exact antiderivative from the panel's
    left edge is the arc length within the panel (`length_series`), and its
    values at the right edges sum to the cumulative lengths `cum`.
    `param_at` inverts that arc length on whole arrays: the one inversion of
    the package, for the curve checks' nodes and stencil points and for
    every grid's nodes.  The table is arrays and numbers, and holds no curve.
    """

    def __init__(self, curve: "Curve", panels: int):
        self.width = curve.period / panels
        t = (np.arange(panels)[:, None] + 0.5 * (1.0 + _CHEB_X)) * self.width
        coeffs = curve.speed(t) @ _CHEB_COEFFS
        # t = edge + (1 + x) width / 2, so ds/dx = speed * width / 2
        lengths = chebint(coeffs, lbnd=-1.0, scl=0.5 * self.width, axis=1)
        panel_len = lengths.sum(axis=1)     # T_k(1) = 1
        # summed in extended precision, so each cumulative length is
        # rounded once: a double sum drifts by a few eps L over 256 panels
        self.cum = np.zeros(panels + 1)
        self.cum[1:] = np.cumsum(panel_len, dtype=np.longdouble)
        # a length that overflows, or a speed that vanishes on a whole panel,
        # leaves no table to invert
        if not (np.all(np.isfinite(self.cum)) and np.all(panel_len > 0)):
            raise CurveError("arc-length table is not finite and increasing")
        self.total_length = float(self.cum[-1])
        # one row per coefficient, each gathered whole by `param_at`
        self.speed_series = np.ascontiguousarray(coeffs.T)
        self.length_series = np.ascontiguousarray(lengths.T)

    def param_at(self, s: np.ndarray) -> np.ndarray:
        """Parameter t with arc length s on the table, for s in [0, L] (any shape).

        From the linear start within the panel of s, _NEWTON_STEPS Newton
        steps on the panel's series, each kept in the panel, leave the
        table's arc length at t within a few eps L of s.
        """
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(self.cum, s, side="right") - 1, 0, len(self.cum) - 2)
        rest = s - self.cum[i]
        x = 2.0 * rest / (self.cum[i + 1] - self.cum[i]) - 1.0
        speed, length = self.speed_series[:, i], self.length_series[:, i]
        for _ in range(_NEWTON_STEPS):
            step = (chebval(x, length, tensor=False) - rest) / (
                (0.5 * self.width) * chebval(x, speed, tensor=False))
            x = np.clip(x - step, -1.0, 1.0)
        return (i + 0.5 * (1.0 + x)) * self.width


class Curve:
    """Closed C^infinity curve given by truncated Fourier coefficients."""

    def __init__(self, a0, cos_coeff, sin_coeff, period, radius: float | None = None):
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
        self.radius = radius
        self._table: _ArcTable | None = None
        # make_circle's circle, the one curve with a radius, is unit-speed natively
        self.unit_speed = radius is not None

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
        return self._table.param_at(s)

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
        radius=None if curve.radius is None else curve.radius * factor,
    )


def _panel_count(curve: Curve) -> int:
    return max(256, 16 * curve.cos_coeff.shape[0])


def reparametrize_arclength(curve: Curve, tol: float = REPARAM_TOL) -> Curve:
    """Attach an arc-length table and validate the unit-speed property.

    Raises CurveError on irregular (vanishing velocity) or self-intersecting
    input.  The returned curve answers point_at_arclength queries through the
    table; for a natively unit-speed curve the input is returned unchanged.

    The self-intersection guard reads the points at the 1024 nodes
    s_i = i L / 1024 (`_check_self_intersection`, a k-d tree query), and
    the unit-speed check is a fourth-order stencil at s_i +- h, s_i +- 2h
    on 4 nodes per arc-table panel (the same 1024 nodes up to 16 modes).
    The table inverts every one of these points: the guard's nodes in one
    call, and each of the stencil's four offsets in one call, so that no
    temporary of a three-mode load is large enough for the allocator to
    map fresh pages for it.
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

    out = Curve(curve.a0, curve.cos_coeff, curve.sin_coeff, curve.period, radius=curve.radius)
    out._table = _ArcTable(out, panels=_panel_count(out))
    out.unit_speed = True

    L = out.total_length
    _check_self_intersection(out.point_at_arclength(_guard_arclengths(L)), L)
    dev = _unit_speed_deviation(out, 4 * _panel_count(out))
    if dev >= tol:
        raise CurveError(f"unit-speed check failed: max | |sigma'| - 1 | = {dev:.3e}")
    return out


def _guard_arclengths(length: float) -> np.ndarray:
    """The guard's nodes s_i = i L / _GUARD_NODES."""
    return np.arange(_GUARD_NODES) * length / _GUARD_NODES


def _unit_speed_deviation(curve: Curve, n: int) -> float:
    """max | |sigma'| - 1 | at the n arc lengths s_i = i L / n, from the
    4th-order central difference of the position at s +- h and s +- 2h,
    h = 1e-3 L / (2 pi).  The table inverts the points to a few eps L on
    its series, so the stencil noise stays near 1e-12."""
    L = curve.total_length
    hs = 1e-3 * L / (2.0 * np.pi)
    s = np.arange(n) * L / n
    p1, m1, p2, m2 = (curve.point_at_arclength(s + ds) for ds in (hs, -hs, 2 * hs, -2 * hs))
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


# Largest chord deviation from the equal-length circle, in eps (L + max
# |coordinate|), of a circle grid (`ArcGrid.is_circle`): circles centred 0 to
# 1e5 radii from the origin read <= 1.86, a 1e-7 mode-2 bump >= 4.8e3.
CIRCLE_TOL = 64.0

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
    later caller shares it.  A kept result is arrays and numbers, or a grid
    of another curve, never an object that refers back to its owner: that
    would make a cycle, and the owner's arrays would outlive their last
    user until the cyclic garbage collector ran.
    """
    # kept in the instance __dict__ (the dataclasses are frozen), under a key
    # that no attribute name equals, so it hides no method
    entry = owner.__dict__.get(("_kept", name))
    if entry is None or entry[0] != key:
        value = build()
        if isinstance(value, np.ndarray):
            _read_only(value)
        entry = owner.__dict__[("_kept", name)] = (key, value)
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
    only geometry, the equal-length circle's grid included: the operator
    results computed once per grid are kept on it through `_kept` by the
    modules that compute them.  Grids compare and hash by identity.
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

    @property
    def chords(self) -> np.ndarray:
        """(N, N) curve chords |sigma(s_i) - sigma(s_j)|, zero on the
        diagonal, kept read-only after the first call.  The assemblies read
        it through `chord_block`, and only when it fits in one block."""
        return _kept(self, "chords", None, lambda: _pairwise_distances(self.points))

    @property
    def circle_chord_row(self) -> np.ndarray:
        """(N,) chords of the equal-length circle at arc separations
        min(k, N - k) h, kept read-only: the first row of the circle chord circulant."""
        return _kept(self, "circle_chord_row", None, lambda: circle_chord(
            self.length, np.minimum(k := np.arange(self.n), self.n - k) * self.weight))

    @property
    def is_circle(self) -> bool:
        """Whether every chord is within CIRCLE_TOL eps (L + max |coordinate|)
        of the equal-length circle's, the identity every circle path assumes
        (chords round with their points' size): decided once per grid from
        the first row, where a non-circle stops, then a row block at a time."""
        def decide() -> bool:
            bound = CIRCLE_TOL * np.finfo(float).eps * (self.length + np.max(np.abs(self.points)))
            return all(np.max(np.abs(d := self.chord_difference(lambda r: r, rows), out=d)) <= bound
                       for rows in [slice(0, 1), *_row_blocks(self.n, 8 * self.n)])

        return _kept(self, "is_circle", None, decide)

    def equal_length_circle(self) -> ArcGrid:
        """The N-node grid of the equal-length circle: this one on a circle, else kept."""
        if self.is_circle:
            return self
        return _kept(self, "circle_grid", None,
                     lambda: make_grid(make_circle(self.length / (2.0 * np.pi)), self.n))

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
    """Build the N-node discretization backbone (N even, N >= 16)."""
    if n % 2 != 0 or n < 16:
        raise ConfigError("grid size must be even and at least 16")
    if not curve.unit_speed:
        raise CurveError("grid requires a unit-speed curve; call reparametrize_arclength")
    L = curve.total_length
    s = np.arange(n) * (L / n)
    t = curve.param_at_arclength(s)
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
    if curve.radius is not None:
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
