"""Constructive planar domains and the grid machinery built on them.

A domain is a CSG tree of primitives (disc, half-plane, axis rectangle,
graph strip) clipped to a rectangular window, with one mesh h and one
raster at it.  Every "for all z in the domain" quantifier in this package
is discharged on that grid.  Distance-type answers carry an error of at
most h*sqrt(2) for features at least h wide; membership is sampled at the nodes only, so a thinner
part of the domain or of its complement is invisible to the raster and
the bound does not hold there.

The certify chain works on grid indices and builds no distance field.
Each stage takes what the one before returned: condition X the domain,
the lattice the certificate, which holds the domain and so its raster, and
the weight report (`weights.lattice_weight_report`) the lattice.
Every distance question is a threshold test or a nearest-node query,
answered exactly, in the distance transform's own float formula, by a
column pass and a row pass in numpy (`_near`, `_nearest`).  Each pass
does only the work its answer reads.  Condition X keeps the admissible
nodes as a bit mask, and its M test runs the row pass only on a block
where some domain node has no admissible node near enough in its own
column; the lattice finds the witnesses of the few nodes it needs.  The
lattice makes the chain's one covering pass (`_cover`), which only
checks coverage: a node is covered by its rint point when that point is
listed, so only the nodes without a listed rint point form a distance.
Complex coordinates appear only for the lattice points, their witnesses
and those nodes.

No grid-sized array outlives the pass that reads it.  A node's
membership depends on that node alone and every row of a row pass is
independent of the others, so the raster build and the grid passes
stream in blocks of `_LINES` raster lines: their temporaries have the
size of one block, and only their outputs span the grid.  A primitive
that depends on one coordinate alone (a constant strip, a rectangle's
two tests in x and two in y) is evaluated along that axis and broadcast.
A column pass (`_ColumnPass`) reads its mask a block of rows at a time:
it keeps, at each block boundary, the nearest mask row above and below
in each column (1/16 B a node in int16, the type on grids of fewer than
10 923 rows), from which a block's rows follow.  So the raster holds 1 B
a node plus the tables of its inside column pass (`Raster.inside_pass`,
built once and read by condition X, the lattice and `clearance`), and
the certificate under 0.2 B, its admissible nodes packed 8 to a byte
plus their tables; a point query (`clearance`, `largest_disc_at`,
`build_lattice`) computes a column pass at its query rows alone.

Unbounded domains are handled by the finite window plus an explicitly
declared translation symmetry; nothing outside the window is ever
inferred.  Each certificate object records how its window was treated.

Graph strips are numpy natural cubic splines (`EtaFunc`).  MeshError and
SolverError live here beside the other error classes, so that a command
that never builds the discrete operator (certify, scenario) need not
import it to name them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Optional

import numpy as np

__all__ = [
    "DomainSpecError",
    "QueryError",
    "ConfigurationError",
    "MeshError",
    "SolverError",
    "LatticeVerificationError",
    "Disc",
    "HalfPlane",
    "Rect",
    "Strip",
    "Union",
    "Intersection",
    "Complement",
    "plane",
    "PlanarDomain",
    "ConditionXCertificate",
    "LatticeWitnessSet",
    "contains",
    "largest_disc_at",
    "clearance",
    "condition_x",
    "build_lattice",
    "domain_to_dict",
    "domain_from_dict",
    "load_domain",
]


class DomainSpecError(ValueError):
    """Malformed domain description."""


class QueryError(ValueError):
    """Query outside the contract of the domain (point not in window, ...)."""


class ConfigurationError(RuntimeError):
    """Window or mesh cannot support the requested computation."""


class MeshError(ValueError):
    """Grid too coarse or too empty for the requested computation."""


class SolverError(RuntimeError):
    """Eigensolver failed to converge; carries diagnostics."""


class LatticeVerificationError(RuntimeError):
    """A lattice witness set failed one of its re-verified clauses."""


# ---------------------------------------------------------------------------
# CSG primitives
# ---------------------------------------------------------------------------


def _finite(what: str, *values) -> None:
    """Reject non-finite parameters: NaN fails every comparison, so it
    would pass a primitive's own checks and empty that part of the domain."""
    if not all(map(math.isfinite, values)):
        raise DomainSpecError(f"{what} must be finite")


class EtaFunc:
    """Boundary graph for a strip: a constant, or the natural cubic spline
    through samples (x_i, y_i).

    The spline has zero second derivative at both end knots and extends
    past them by its end pieces.  Its coefficients and values are bit for
    bit those of SciPy's `CubicSpline(x, y, bc_type="natural")`: the knot
    slopes s solve SciPy's tridiagonal system by the elimination of LAPACK
    dgtsv (partial pivoting with row interchanges, then a back solve with
    the fill of the second superdiagonal), one knot at a time in Python
    floats, since each step needs the last; each piece is SciPy's Hermite
    cubic in s = x - x_i, summed in SciPy's order.
    """

    def __init__(self, spec: dict):
        if "const" in spec:
            self.spec = {"const": float(spec["const"])}
            _finite("eta constant", self.spec["const"])
            self.x_range = (-math.inf, math.inf)
        elif "x" in spec and "y" in spec:
            xs = [float(v) for v in spec["x"]]
            ys = [float(v) for v in spec["y"]]
            if len(xs) != len(ys) or len(xs) < 2:
                raise DomainSpecError("eta samples need matching x/y arrays of length >= 2")
            _finite("eta samples", *xs, *ys)
            ax = np.asarray(xs)
            if np.any(np.diff(ax) <= 0):
                raise DomainSpecError("eta sample x values must be strictly increasing")
            self.spec = {"x": xs, "y": ys}
            self._knots = ax
            self._coef = _natural_spline(ax, np.asarray(ys))
            self.x_range = (xs[0], xs[-1])
        else:
            raise DomainSpecError(f"eta spec must have 'const' or 'x'/'y', got {sorted(spec)}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if "const" in self.spec:
            return np.full_like(x, self.spec["const"])
        # the piece x_i <= x < x_(i+1), closed at the last knot; the end
        # pieces extend beyond the knots
        knots = self._knots
        i = np.searchsorted(knots[1:-1], x, "right")
        s = x - knots[i]
        c0, c1, c2, c3 = self._coef[:, i]
        return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)

    def covers(self, x0: float, x1: float) -> bool:
        return self.x_range[0] <= x0 and x1 <= self.x_range[1]


def _natural_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(4, n - 1) coefficients of the natural cubic spline through (x, y):
    row k multiplies s**(3 - k) on each piece, as SciPy's `PPoly.c`."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # SciPy's system for the knot slopes, as its three diagonals
    d = np.empty(len(x))
    b = np.empty(len(x))
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d[0], b[0] = 2 * dx[0], 3 * (y[1] - y[0])
    d[-1], b[-1] = 2 * dx[-1], 3 * (y[-1] - y[-2])
    upper = np.concatenate((dx[:1], dx[:-1]))
    lower = np.concatenate((dx[1:], dx[-1:]))
    s = np.array(_dgtsv(lower.tolist(), d.tolist(), upper.tolist(), b.tolist()))
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _dgtsv(dl: list, d: list, du: list, b: list) -> list:
    """Solution of the tridiagonal system with subdiagonal dl, diagonal d
    and superdiagonal du, by LAPACK dgtsv's steps in the same float
    operations (the lists are overwritten).  The system must be
    nonsingular, of order 2 or more."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:  # interchange rows i and i + 1; dl[i] keeps the fill
            fact = d[i] / dl[i]
            d[i], temp = dl[i], d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


@dataclass(frozen=True)
class Disc:
    cx: float
    cy: float
    r: float

    def __post_init__(self):
        _finite("disc centre and radius", self.cx, self.cy, self.r)
        if self.r < 0:
            raise DomainSpecError(f"disc radius must be >= 0, got {self.r}")

    def member(self, x, y):
        return (x - self.cx) ** 2 + (y - self.cy) ** 2 < self.r**2


@dataclass(frozen=True)
class HalfPlane:
    """Open half-plane Re(a*z + b) < 0."""

    a: complex
    b: complex

    def __post_init__(self):
        _finite("half-plane coefficients", self.a.real, self.a.imag, self.b.real, self.b.imag)
        if self.a == 0:
            raise DomainSpecError("half-plane coefficient a must be nonzero")

    def member(self, x, y):
        return self.a.real * x - self.a.imag * y + self.b.real < 0


@dataclass(frozen=True)
class Rect:
    """Open axis rectangle x0 < x < x1, y0 < y < y1.  `member` makes its
    two tests in x and its two in y apart, so that on a column of x values
    against a row of y values only the one & between them spans the grid."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        _finite("rectangle bounds", self.x0, self.x1, self.y0, self.y1)
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise DomainSpecError("rectangle bounds must satisfy x0 < x1 and y0 < y1")

    def member(self, x, y):
        return ((x > self.x0) & (x < self.x1)) & ((y > self.y0) & (y < self.y1))


@dataclass(frozen=True, eq=False)
class Strip:
    """Graph strip eta_lo(x) < y < eta_hi(x).  With both bounds constant
    `member` compares y alone and has y's shape, which the CSG operators
    and the raster broadcast against x."""

    eta_lo: EtaFunc
    eta_hi: EtaFunc

    @classmethod
    def constant(cls, lo: float, hi: float) -> "Strip":
        return cls(EtaFunc({"const": lo}), EtaFunc({"const": hi}))

    @property
    def is_constant(self) -> bool:
        return "const" in self.eta_lo.spec and "const" in self.eta_hi.spec

    def member(self, x, y):
        if self.is_constant:
            y = np.asarray(y)
            return (y > self.eta_lo.spec["const"]) & (y < self.eta_hi.spec["const"])
        return (y > self.eta_lo(x)) & (y < self.eta_hi(x))


@dataclass(frozen=True, eq=False)
class Union:
    children: tuple

    def member(self, x, y):
        if not self.children:
            return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape, dtype=bool)
        return reduce(np.logical_or, (c.member(x, y) for c in self.children))


@dataclass(frozen=True, eq=False)
class Intersection:
    children: tuple

    def member(self, x, y):
        if not self.children:
            return np.ones(np.broadcast(np.asarray(x), np.asarray(y)).shape, dtype=bool)
        return reduce(np.logical_and, (c.member(x, y) for c in self.children))


@dataclass(frozen=True, eq=False)
class Complement:
    child: object

    def member(self, x, y):
        return ~np.asarray(self.child.member(x, y))


def plane():
    """The whole plane (complement of the empty union)."""
    return Complement(Union(()))


# ---------------------------------------------------------------------------
# Domain with window, mesh and raster
# ---------------------------------------------------------------------------


class Raster:
    """Grid of membership values at the domain's mesh, 1 B a node: the
    one grid that lives as long as its domain, with the column pass of its
    inside nodes (`inside_pass`, 1/16 B a node), built when first read."""

    def __init__(self, domain: "PlanarDomain"):
        self.h = domain.mesh
        self.xs = domain.columns()
        self.ys = _grid_axis(domain.window[2], domain.window[3], self.h)
        # a block of _LINES columns at a time: its x values as a column
        # against the y values as a row, so that a primitive that depends
        # on x alone (a graph strip's eta) is evaluated once per column, one
        # that depends on y alone (a constant strip) gives a single row for
        # the block, and the temporaries run along y
        self.inside = np.empty((len(self.ys), len(self.xs)), dtype=bool)
        for cols in _line_blocks(len(self.xs)):
            self.inside[:, cols] = domain.tree.member(self.xs[cols, None], self.ys[None, :]).T

    @cached_property
    def inside_pass(self) -> "_ColumnPass":
        """The column pass of the inside nodes, which condition X's delta
        test, the lattice and `clearance` read."""
        return _ColumnPass(self.inside)

    def nearest_index(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) of the node nearest each point z, clipped to the
        grid; z is a point or an array of points."""
        z = np.asarray(z)
        ix = np.clip(np.rint((z.real - self.xs[0]) / self.h), 0, len(self.xs) - 1)
        iy = np.clip(np.rint((z.imag - self.ys[0]) / self.h), 0, len(self.ys) - 1)
        return iy.astype(np.intp), ix.astype(np.intp)

    def node_z(self, iy, ix):
        return self.xs[ix] + 1j * self.ys[iy]


# ---------------------------------------------------------------------------
# Distance tests on the grid
#
# The distance between nodes is the distance transform's own float formula
# sqrt((dy h)^2 + (dx h)^2), which is monotone in |dy| and in |dx|.  So a
# column pass (the nearest mask node in each column) followed by a row pass
# answers a threshold or nearest-node question exactly, in the column-then-
# row order of the Maurer-Qi-Raghavan transform (IEEE PAMI 25, 2003).
# Each row of the row pass is decided on its own, and the column pass at a
# block of rows follows from the block and the nearest mask rows beyond
# it, so both run over blocks of _LINES rows at a time.
# ---------------------------------------------------------------------------

# raster lines per block of a streamed grid pass
_LINES = 64


def _line_blocks(n: int):
    """Slices of at most _LINES consecutive lines covering range(n)."""
    return (slice(i, min(i + _LINES, n)) for i in range(0, n, _LINES))


def _edt_distance(h: float, dy, dx):
    """Length of the node offset (dy, dx), by the distance transform's own
    float formula sqrt((dy h)^2 + (dx h)^2)."""
    dy = np.asarray(dy) * h
    dx = np.asarray(dx) * h
    return np.sqrt(dy * dy + dx * dx)


class _ColumnPass:
    """The column pass of a mask, built a block of rows at a time.

    `rows(blk)` gives, for every node of the rows `blk`, the row of the
    nearest mask node in its column, ties to the lower row.  In a column
    without mask nodes the row lies at least ny rows away from every node
    (-2 ny or 3 ny).  Every value lies in [-2 ny, 3 ny], so the rows are
    int16 while 3 ny < 2^15 and int32 above (`dtype`).

    No pass is stored.  The mask is read a block at a time: a bool grid,
    its complement (`invert`), or, given `nx`, a grid packed 8 nodes to a
    byte along x (`np.packbits(mask, axis=1)`).  At each boundary of the
    blocks of _LINES rows the pass keeps the nearest mask row above and
    below it in each column, 2 x ny/_LINES x nx values, from which a
    block's rows follow by a running max and min within the block."""

    def __init__(self, mask: np.ndarray, invert: bool = False, nx: Optional[int] = None):
        ny = mask.shape[0]
        self.mask, self.invert, self.packed = mask, invert, nx is not None
        self.shape = (ny, mask.shape[1] if nx is None else nx)
        self.dtype = np.dtype(np.int16 if 3 * ny < 2**15 else np.int32)
        self.lines = _LINES
        # per column, up[b]: the last mask row above row b * _LINES, and
        # down[b]: the first at or below it
        n = -(-ny // _LINES) + 1
        self._up = np.full((n, self.shape[1]), -2 * ny, dtype=self.dtype)
        self._down = np.full((n, self.shape[1]), 3 * ny, dtype=self.dtype)
        for b, blk in enumerate(_line_blocks(ny)):
            m = self._mask(blk)
            hit = m.any(axis=0)
            last = blk.stop - 1 - m[::-1].argmax(axis=0)
            self._up[b + 1] = np.where(hit, last, self._up[b])
            self._down[b] = np.where(hit, blk.start + m.argmax(axis=0), 3 * ny)
        for b in range(n - 2, -1, -1):
            np.minimum(self._down[b], self._down[b + 1], out=self._down[b])

    def _mask(self, blk: slice) -> np.ndarray:
        if self.packed:
            return np.unpackbits(self.mask[blk], axis=1, count=self.shape[1]).view(bool)
        return ~self.mask[blk] if self.invert else self.mask[blk]

    def rows(self, blk: slice) -> np.ndarray:
        """The column pass at the rows `blk`, a nonempty slice of
        consecutive rows; the blocks of _LINES rows that hold them are
        computed."""
        ny = self.shape[0]
        a, b, _ = blk.indices(ny)
        s, e = a - a % self.lines, min(b + -b % self.lines, ny)
        m = self._mask(slice(s, e))
        rows = np.arange(s, e, dtype=self.dtype)[:, None]
        # a mask node's row, else the sentinel, as m * (row - sentinel) +
        # sentinel (several times faster than np.where); the nearest mask
        # rows beyond the block enter at its ends
        lo, hi = -2 * ny, 3 * ny
        up = np.multiply(m, rows - lo, dtype=self.dtype)
        up += self.dtype.type(lo)
        np.maximum(up[0], self._up[s // self.lines], out=up[0])
        down = np.multiply(m, rows - hi, dtype=self.dtype)
        down += self.dtype.type(hi)
        np.minimum(down[-1], self._down[-(-e // self.lines)], out=down[-1])
        up, down = _running(np.maximum, up), _running(np.minimum, down, backward=True)
        return np.where(rows - up <= down - rows, up, down)[a - s : b - s]


def _running(op, a: np.ndarray, backward: bool = False) -> np.ndarray:
    """The running `op` (np.maximum or np.minimum) of the rows of a, down
    them or, `backward`, up them; a is overwritten.

    By doubling, in ceil(log2(len(a))) whole-array steps between two
    buffers: after the step of span d each row holds the extreme of the 2d
    rows ending (backward: starting) at it.  Along axis 0 of a C-ordered
    array numpy's accumulate is several times slower, and a row at a time
    twice as slow on a block of 64 rows."""
    b = np.empty_like(a)
    d = 1
    while d < len(a):
        if backward:
            b[-d:] = a[-d:]
            op(a[:-d], a[d:], out=b[:-d])
        else:
            b[:d] = a[:d]
            op(a[d:], a[:-d], out=b[d:])
        a, b, d = b, a, 2 * d
    return a


def _reach(h: float, radius: float, strict: bool, ny: int, nx: int) -> np.ndarray:
    """The reach table of a distance test on a grid of ny rows and nx
    columns: for each row offset v below ny, the largest column offset
    below nx whose node offset (v, dx) lies at distance below `radius` (at
    most `radius` when not strict), -1 when none; then -1 for the offset
    ny, which the column pass gives columns without mask nodes."""
    v = np.arange(ny, dtype=np.int32)
    reach = np.sqrt(np.maximum((radius / h) ** 2 - v.astype(float) ** 2, 0.0))
    reach = np.minimum(np.floor(reach), nx - 1).astype(np.int32)

    def passes(dx):
        d = _edt_distance(h, v, dx)
        return d < radius if strict else d <= radius

    # the float estimate is off by at most a node or two: settle it exactly
    while (grow := (reach < nx - 1) & passes(reach + 1)).any():
        reach += grow
    while (shrink := (reach >= 0) & ~passes(reach)).any():
        reach -= shrink
    return np.append(reach, np.int32(-1))


def _column_reach(reach: np.ndarray) -> int:
    """The largest row offset a `_reach` table admits at column offset 0
    (-1 when none): a node that far from a mask node in its own column, or
    nearer, passes the test."""
    return int(np.count_nonzero(reach[:-1] >= 0)) - 1


def _near_rows(rows: np.ndarray, reach: np.ndarray, blk) -> np.ndarray:
    """The rows `blk` (a slice or an index array) of `_near`, given the
    mask's column pass at those rows (`_ColumnPass.rows`) and the test's
    `_reach` table.

    A node is near when some column c reaches it: a running max of
    c + reach and a running min of c - reach along each row decide that."""
    ny, nx = len(reach) - 1, rows.shape[1]
    v = np.arange(ny, dtype=np.int32)[blk, None]
    c = np.arange(nx, dtype=np.int32)
    # one work array holds the row offsets, then c + reach, then c - reach:
    # a block leaves few temporaries behind, so few fresh pages to fault in
    work = np.subtract(rows, v, dtype=np.int32)
    np.minimum(np.abs(work, out=work), ny, out=work)
    span = reach[work]
    np.maximum.accumulate(np.add(c, span, out=work), axis=1, out=work)
    near = work >= c
    back = np.subtract(c, span, out=work)[:, ::-1]
    np.minimum.accumulate(back, axis=1, out=back)
    near |= work <= c
    return near


def _near(cp: _ColumnPass, h: float, radius: float, strict: bool) -> np.ndarray:
    """Nodes with a mask node at distance below `radius` (at most `radius`
    when not strict), given the mask's column pass, a block of _LINES rows
    at a time."""
    ny, nx = cp.shape
    reach = _reach(h, radius, strict, ny, nx)
    near = np.empty((ny, nx), dtype=bool)
    for blk in _line_blocks(ny):
        near[blk] = _near_rows(cp.rows(blk), reach, blk)
    return near


def _nearest(cp: _ColumnPass, h: float, iy, ix) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of the mask node nearest each node (iy, ix), given the
    mask's column pass; the mask must have a node.

    Nearest means the least squared distance (dy h)^2 + (dx h)^2, ties to
    the smaller column and, within a column, to the lower row: the choice
    of the distance transform's column-then-row order.  Column offsets 0,
    +-1, +-2, ... are scanned along the query's row, so the column pass is
    built at the query rows alone, and a query drops out once the offset
    alone is farther than its best node."""
    ny, nx = cp.shape
    iy = np.asarray(iy, dtype=np.intp)
    ix = np.asarray(ix, dtype=np.intp)
    # the column pass at the query rows, in row order (a flag over the
    # rows, as np.unique would import numpy.ma)
    wanted = np.zeros(ny, dtype=bool)
    wanted[iy] = True
    part = np.empty((np.count_nonzero(wanted), nx), dtype=cp.dtype)
    j = 0
    for blk in _line_blocks(ny):
        if (n := np.count_nonzero(wanted[blk])):
            part[j : j + n] = cp.rows(blk)[wanted[blk]]
            j += n
    flat = part.ravel()
    out_y, out_x = np.empty_like(iy), np.empty_like(ix)
    # the open queries: their index, node, flat index in `part` and best so far
    slot = np.cumsum(wanted) - 1
    q, y, x, at = np.arange(iy.size), iy, ix, slot[iy] * nx + ix
    by, bx = flat[at], x
    d = (by - y) * h
    best = np.where(np.abs(by - y) < ny, d * d, np.inf)
    for k in range(1, nx):
        # every square a product, as in _edt_distance: a Python float's
        # ** 2 may round a last bit apart and break a tie the wrong way
        kh2 = (k * h) * (k * h)
        done = best < kh2
        if done.any():
            out_y[q[done]], out_x[q[done]] = by[done], bx[done]
            q, y, x, at, by, bx, best = (a[~done] for a in (q, y, x, at, by, bx, best))
        if not q.size:
            break
        for s in (-k, k):
            c = x + s
            r = flat.take(at + s, mode="clip")
            ok = (c >= 0) & (c < nx) & (np.abs(r - y) < ny)
            d = (r - y) * h
            key = np.where(ok, d * d + kh2, np.inf)
            better = (key < best) | ((key == best) & (c < bx))
            best = np.where(better, key, best)
            by, bx = np.where(better, r, by), np.where(better, c, bx)
    out_y[q], out_x[q] = by, bx
    return out_y, out_x


def _grid_axis(lo: float, hi: float, h: float) -> np.ndarray:
    """Node coordinates lo, lo + h, ... up to hi (a step short by under
    1e-9 h still counts)."""
    n = int(math.floor((hi - lo) / h + 1e-9)) + 1
    return lo + h * np.arange(n)


def _collect_strips(tree):
    if isinstance(tree, Strip):
        yield tree
    elif isinstance(tree, (Union, Intersection)):
        for c in tree.children:
            yield from _collect_strips(c)
    elif isinstance(tree, Complement):
        yield from _collect_strips(tree.child)


@dataclass(frozen=True, eq=False)
class PlanarDomain:
    """CSG tree clipped to a window, with its mesh and its one raster.

    A mesh of 0 (the default) is window/512.  The domain is frozen, so its
    raster, built when first read, cannot go stale; another mesh is another
    domain.  `symmetry="translation_x"` declares that the domain extends
    outside the window by horizontal translation; condition-X verdicts use
    it to accept window-edge points whose search discs would otherwise be
    clipped.
    """

    tree: object
    window: tuple[float, float, float, float]
    mesh: float = 0.0
    symmetry: str = "none"

    def __post_init__(self):
        x0, x1, y0, y1 = (float(v) for v in self.window)
        _finite("window bounds", x0, x1, y0, y1)
        if x0 >= x1 or y0 >= y1:
            raise DomainSpecError("window must satisfy x0 < x1 and y0 < y1")
        mesh = float(self.mesh) or max(x1 - x0, y1 - y0) / 512.0
        if not (math.isfinite(mesh) and mesh > 0):
            raise DomainSpecError(f"mesh must be finite and > 0 (0 for window/512), got {mesh}")
        object.__setattr__(self, "window", (x0, x1, y0, y1))
        object.__setattr__(self, "mesh", mesh)
        if self.symmetry not in ("none", "translation_x"):
            raise DomainSpecError(f"unknown symmetry {self.symmetry!r}")

    def in_window(self, z: complex) -> bool:
        x0, x1, y0, y1 = self.window
        return x0 <= z.real <= x1 and y0 <= z.imag <= y1

    def member(self, z: complex) -> bool:
        """Exact CSG membership, no window check."""
        return bool(self.tree.member(np.asarray(z.real), np.asarray(z.imag)))

    def columns(self) -> np.ndarray:
        """x coordinates of the raster columns, after checking that every
        strip's eta is defined across the window and keeps eta_lo < eta_hi
        there.  Gives a strip's eta on the raster columns without building
        the raster."""
        x0, x1 = self.window[:2]
        xs = _grid_axis(x0, x1, self.mesh)
        for strip in _collect_strips(self.tree):
            for eta in (strip.eta_lo, strip.eta_hi):
                if not eta.covers(x0, x1):
                    raise DomainSpecError(
                        "strip eta samples do not cover the window x-range "
                        f"[{x0}, {x1}]"
                    )
            if np.any(strip.eta_lo(xs) >= strip.eta_hi(xs)):
                raise DomainSpecError("strip requires eta_lo(x) < eta_hi(x) on the window")
        return xs

    @cached_property
    def raster(self) -> Raster:
        """The raster at the domain's mesh, built when first read."""
        return Raster(self)


# ---------------------------------------------------------------------------
# Point queries
# ---------------------------------------------------------------------------


def contains(dom: PlanarDomain, z: complex) -> bool:
    """Exact CSG-tree membership for a point of the window."""
    if not dom.in_window(z):
        raise QueryError(f"{z} lies outside the window {dom.window}")
    return dom.member(z)


def largest_disc_at(dom: PlanarDomain, z: complex, cap: float) -> float:
    """Radius of the largest disc around z inside the domain, capped at cap.

    Exact for a tree consisting of one disc, half-plane, rectangle or
    constant-band strip; otherwise the distance from z to the rasterized
    complement (error <= h*sqrt(2)).  The window clips what the grid can
    see: with no complement nodes in reach the answer is the cap.
    """
    if cap <= 0:
        raise QueryError(f"cap must be positive, got {cap}")
    if not contains(dom, z):
        raise QueryError(f"{z} is not in the domain")
    t = dom.tree
    if isinstance(t, Disc):
        return min(cap, t.r - math.hypot(z.real - t.cx, z.imag - t.cy))
    if isinstance(t, HalfPlane):
        val = t.a.real * z.real - t.a.imag * z.imag + t.b.real
        return min(cap, -val / abs(t.a))
    if isinstance(t, Rect):
        return min(cap, z.real - t.x0, t.x1 - z.real, z.imag - t.y0, t.y1 - z.imag)
    if isinstance(t, Strip) and t.is_constant:
        lo = t.eta_lo.spec["const"]
        hi = t.eta_hi.spec["const"]
        return min(cap, z.imag - lo, hi - z.imag)
    r = dom.raster
    if r.inside.all():
        return cap
    iy, ix = r.nearest_index(z)
    oy, ox = _nearest(_ColumnPass(r.inside, invert=True), r.h, [iy], [ix])
    d = float(_edt_distance(r.h, oy[0] - iy, ox[0] - ix))
    snap = abs(z - r.node_z(iy, ix))
    return min(cap, max(0.0, d - snap))


def clearance(dom: PlanarDomain, z):
    """Grid distance from z to the rasterized domain closure (0 if inside).

    z is a point, answered as a float, or an array of points, answered as
    an array by one nearest-node scan, against the raster's inside column
    pass (`Raster.inside_pass`) at the query rows.  Error <= h*sqrt(2);
    distances are measured against the window content.
    """
    z = np.asarray(z, dtype=complex)
    away = ~np.asarray(dom.tree.member(z.real, z.imag))
    out = np.zeros(z.shape)
    if away.any():
        r = dom.raster
        if not r.inside.any():
            out[away] = math.inf
        else:
            iy, ix = r.nearest_index(z[away])
            ty, tx = _nearest(r.inside_pass, r.h, iy, ix)
            # |z - node| as a complex scalar's abs takes it; np.abs of a
            # complex array may round differently
            d = z[away] - r.node_z(ty, tx)
            out[away] = np.hypot(d.real, d.imag)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Condition X
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ConditionXCertificate:
    """Grid verdict for the exterior-witness condition at parameters (M, delta).

    For every domain node z the search disc of radius M was scanned for a
    node outside the domain whose clearance exceeds delta (an admissible
    node).  The verdict lives on grid indices of `raster`, the raster of
    `domain`:

    - `admissible` is the `_ColumnPass` of the admissible nodes, or None
      when no node is admissible or the condition fails; its mask, packed
      8 nodes to a byte, and its block tables (about 0.19 B a node) are
      all the certificate keeps of the grid;
    - `witness_of(iy, ix)` gives the (row, column) of the nearest admissible
      node, with the distance transform's tie-breaking: the witness of a
      witnessed node, one closer than M.  Witnesses are found only when
      asked for.

    When the condition fails no witness is kept, and `failure_points` holds
    up to 10 000 failing nodes as complex coordinates.  `witnessed` (the
    boolean grid of the domain nodes that found a witness), `sample_points`
    and `witness_points` (the witnessed nodes and their witnesses as
    complex coordinates) are computed when read, by another pass over the
    grid.
    `accepted_by_symmetry` flags nodes whose search disc left the window
    and that were accepted by the domain's declared translation symmetry
    rather than by an explicit witness.

    `build_lattice` reads the witnesses it needs and keeps neither the
    certificate nor the domain, so once the lattice is built the
    certificate and its grid can be dropped.
    """

    holds: bool
    M: float
    delta: float
    domain: PlanarDomain = field(repr=False)
    admissible: Optional[_ColumnPass] = field(repr=False)
    failure_points: np.ndarray
    failure_count: int
    unprovable_count: int
    accepted_by_symmetry: bool
    notes: list

    @property
    def raster(self) -> Raster:
        return self.domain.raster

    def witness_of(self, iy, ix) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) of the admissible node nearest each node (iy, ix)."""
        return _nearest(self.admissible, self.raster.h, iy, ix)

    @property
    def witnessed(self) -> np.ndarray:
        """The domain nodes with an admissible node closer than M."""
        r = self.raster
        if self.admissible is None:
            return np.zeros_like(r.inside)
        witnessed = _near(self.admissible, r.h, self.M, strict=True)
        witnessed &= r.inside
        return witnessed

    @property
    def sample_points(self) -> np.ndarray:
        """The witnessed nodes as complex coordinates, in row-major order."""
        iy, ix = np.nonzero(self.witnessed)
        return self.raster.xs[ix] + 1j * self.raster.ys[iy]

    @property
    def witness_points(self) -> np.ndarray:
        """The witness of each of `sample_points`, as complex coordinates."""
        if self.admissible is None:
            return np.array([], dtype=complex)
        wy, wx = self.witness_of(*np.nonzero(self.witnessed))
        return self.raster.xs[wx] + 1j * self.raster.ys[wy]


_FAILURE_SAMPLE_CAP = 10_000


def _fit_slices(r: Raster, window, M: float) -> tuple[slice, slice]:
    """Rows and columns of the nodes whose search disc of radius M fits the
    window: x0 + M <= x <= x1 - M and likewise in y."""
    x0, x1, y0, y1 = window
    rows = slice(np.searchsorted(r.ys, y0 + M, "left"), np.searchsorted(r.ys, y1 - M, "right"))
    cols = slice(np.searchsorted(r.xs, x0 + M, "left"), np.searchsorted(r.xs, x1 - M, "right"))
    return rows, cols


def _admissible_rows(r: Raster, delta: float) -> Optional[_ColumnPass]:
    """The column pass of the admissible nodes (outside the domain, with no
    domain node within delta), or None when there is none.

    The delta test runs a block of _LINES rows at a time on the raster's
    inside column pass at those rows, and each block's admissible nodes are
    packed 8 to a byte into the pass's mask (ny x ceil(nx / 8) bytes): no
    grid of more than 1 bit a node is formed.  A block with no node
    outside the domain admits none and is skipped, and a domain that fills
    its window reads no pass and builds none.  Within a block the row pass
    runs only on the rows holding an outside node whose nearest domain node
    in its own column lies more rows away than the test admits at column
    offset 0 (vmax): every other outside node has that domain node within
    delta, so a row without such a node admits none."""
    inside = r.inside
    if inside.all():
        return None
    ny, nx = inside.shape
    reach = _reach(r.h, delta, False, ny, nx)
    vmax = _column_reach(reach)
    bits = np.zeros((ny, -(-nx // 8)), dtype=np.uint8)
    found = False
    for blk in _line_blocks(ny):
        ins = inside[blk]
        if ins.all():  # no node outside the domain to admit
            continue
        rows = r.inside_pass.rows(blk)
        v = np.arange(blk.start, blk.stop, dtype=rows.dtype)[:, None]
        sel = np.flatnonzero(((np.abs(rows - v) > vmax) & ~ins).any(axis=1))
        if not sel.size:
            continue
        # rebound, so the block's pass is freed before the row pass
        rows = rows[sel]
        admissible = _near_rows(rows, reach, blk.start + sel)
        np.logical_not(np.logical_or(admissible, ins[sel], out=admissible), out=admissible)
        if admissible.any():
            bits[blk.start + sel] = np.packbits(admissible, axis=1)
            found = True
    return _ColumnPass(bits, nx=nx) if found else None


def condition_x(dom: PlanarDomain, M: float, delta: float) -> ConditionXCertificate:
    """Decide the exterior-witness condition on the rasterization grid.

    Soundness of the grid quantifiers requires h < delta/4; coarser meshes
    are rejected.  The h*sqrt(2) distance bound holds only for features at
    least h wide: membership is sampled at the nodes, so a thinner part of
    the domain or of its complement is invisible to the raster.  A node
    with a clipped search disc and no witness is a configuration error
    unless the domain declares a translation symmetry (then it is accepted
    by declaration and counted in unprovable_count).  Failure points are
    nodes whose full search disc fits the window yet contains no admissible
    node: those falsify the condition at grid resolution regardless of
    clipping elsewhere.

    Two exact distance tests do the work, each a column pass and a row pass
    (`_near`), both a block of _LINES rows at a time: the admissible nodes
    are the nodes outside the domain with no domain node within delta
    (`_admissible_rows`), and the witnessed nodes are the domain nodes with
    an admissible node closer than M (each block counted and dropped).  No
    distance field and no byte mask of the grid is built; the certificate
    keeps the admissible nodes as a bit mask with its column-pass tables
    (`_ColumnPass`), from which `witness_of` finds the witness of any node
    on demand.  The delta test reads the raster's inside column pass
    (`Raster.inside_pass`).  The M test runs its row pass only on a block
    where some domain node's nearest admissible node in its own column
    lies more rows away than the test admits at column offset 0: every
    other node is witnessed by that node, so such a block has no miss.
    """
    if M <= 0 or delta <= 0:
        raise ValueError(f"M and delta must be positive, got M={M}, delta={delta}")
    r = dom.raster
    if r.h >= delta / 4:
        raise ConfigurationError(
            f"mesh {r.h} too coarse for delta={delta}; need h < delta/4 "
            "for sound grid verification"
        )
    notes = [
        "grid-resolution verdict: quantifiers over the domain are sampled at "
        f"mesh {r.h}; distances carry error <= h*sqrt(2)",
        "the condition is certified on the window only; behaviour outside "
        "the window follows the declared symmetry, never inference",
    ]
    inside = r.inside
    empty = np.array([], dtype=complex)
    if not inside.any():
        return ConditionXCertificate(True, M, delta, dom, None, empty, 0, 0, False, notes)

    admissible = _admissible_rows(r, delta)
    ny, nx = inside.shape
    if admissible is not None:
        reach = _reach(r.h, M, True, ny, nx)
        vmax = _column_reach(reach)
    # the domain nodes lacking a witness, a block of rows at a time: all of
    # them counted, those with a full search disc (the fit slices) counted
    # apart, and the first of these in row-major order kept up to the cap
    rows, cols = _fit_slices(r, dom.window, M)
    n_miss = n_fail = 0
    pts, left = [], _FAILURE_SAMPLE_CAP
    for blk in _line_blocks(ny):
        miss = inside[blk].copy()
        if admissible is not None:
            adm = admissible.rows(blk)
            # the row offset of each node's nearest admissible node in its
            # column (at least ny in a column without one): a block whose
            # domain nodes all lie within vmax rows of theirs has no miss
            off = adm - np.arange(blk.start, blk.stop, dtype=adm.dtype)[:, None]
            if not ((np.abs(off, out=off) > vmax) & miss).any():
                continue
            miss &= ~_near_rows(adm, reach, blk)
        n_miss += int(np.count_nonzero(miss))
        fit_rows = slice(max(rows.start - blk.start, 0), max(rows.stop - blk.start, 0))
        fit = miss[fit_rows, cols]
        n_fit = int(np.count_nonzero(fit))
        n_fail += n_fit
        if n_fit and left:
            iy, ix = np.nonzero(fit)
            iy, ix = iy[:left], ix[:left]
            pts.append(r.xs[cols][ix] + 1j * r.ys[blk][fit_rows][iy])
            left -= len(iy)
    n_unprov = n_miss - n_fail

    if n_fail:  # no witness is kept
        return ConditionXCertificate(
            False, M, delta, dom, None, np.concatenate(pts), n_fail, n_unprov, False, notes
        )

    accepted = False
    if n_unprov:
        if dom.symmetry == "none":
            raise ConfigurationError(
                f"{n_unprov} sampled domain nodes have search discs leaving the "
                "window and no witness inside it; enlarge the window or declare "
                "a symmetry (the search disc is never silently truncated)"
            )
        accepted = True
        notes.append(
            f"{n_unprov} window-edge nodes accepted by declared symmetry "
            f"{dom.symmetry!r}"
        )

    return ConditionXCertificate(
        True, M, delta, dom, admissible, empty, 0, n_unprov, accepted, notes,
    )


# ---------------------------------------------------------------------------
# Lattice witness structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LatticeWitnessSet:
    """Lattice points w on (M Z)^2 meeting the domain, each with an exterior
    witness w* of clearance > delta and |w - w*| <= 2M, whose discs of
    radius M cover every inside node.  So every inside node z lies within
    3M of the witness of its covering point, which B = 4/(3M)^6 assumes."""

    M: float
    delta: float
    points: np.ndarray
    witnesses: np.ndarray

    def __len__(self):
        return len(self.points)


def _distance_to_outside(r: Raster, w: complex, reach: float) -> float:
    """Distance from the point w to the nearest node outside the domain,
    searched among the nodes within `reach` of w in each coordinate (inf
    when there is none there).  Exact whenever that distance is below
    `reach`, since every node that near lies in the box."""
    x, y = w.real, w.imag
    rows = slice(np.searchsorted(r.ys, y - reach), np.searchsorted(r.ys, y + reach, "right"))
    cols = slice(np.searchsorted(r.xs, x - reach), np.searchsorted(r.xs, x + reach, "right"))
    oy, ox = np.nonzero(~r.inside[rows, cols])
    if not oy.size:
        return math.inf
    return float(np.min(np.abs(w - (r.xs[cols][ox] + 1j * r.ys[rows][oy]))))


def _cover(r: Raster, M: float, points: np.ndarray):
    """The inside nodes z that no point w of `points` covers, np.abs(z - w)
    < M, a block of _LINES rows at a time: yields each block's uncovered
    nodes, in row-major order, when it has any.  The points lie on
    (M Z)^2, each within M of an inside node.

    Only the 3 x 3 points around a node's rint point (l, k) = (rint(x/M),
    rint(y/M)) can lie within M of it.  The rint point lies within
    M/sqrt(2) of the node, even on a bisector of the lattice, so a node
    whose rint point is listed is covered, by a margin far above rounding,
    and forms no distance.  Every other node is slow, and scans its 3 x 3
    points."""
    xl, yk = np.rint(r.xs / M), np.rint(r.ys / M)
    # point (l, k) at index[l - l0, k - k0], -1 when not listed; the grid
    # holds the 3 x 3 points around every node's rint point
    l0, k0 = int(xl.min()) - 1, int(yk.min()) - 1
    index = np.full((int(xl.max()) - l0 + 2, int(yk.max()) - k0 + 2), -1, dtype=np.int32)
    pl, pk = np.rint(points.real / M).astype(int), np.rint(points.imag / M).astype(int)
    index[pl - l0, pk - k0] = np.arange(len(points))
    pts = np.append(points, complex(math.inf))  # index -1: a point covering nothing
    col_l, row_k = (xl - l0).astype(np.int32), (yk - k0).astype(np.int32)
    ny, nx = r.inside.shape
    # the cells along x: runs of the columns of one l, from column start[j],
    # width[j] wide, with l - l0 = cell_l[j]
    start = np.flatnonzero(np.diff(col_l, prepend=-1))
    width, cell_l = np.diff(start, append=nx), col_l[start]
    # the 3 x 3 point offsets of a slow node's scan
    dl, dk = np.repeat([-1, 0, 1], 3)[:, None], np.tile([-1, 0, 1], 3)[:, None]
    for blk in _line_blocks(ny):
        # the inside nodes whose rint point is not listed
        slow = np.repeat(index[cell_l[None, :], row_k[blk, None]] < 0, width, axis=1)
        slow &= r.inside[blk]
        # the slow nodes in row-major order (by the flat index: a 2-d
        # np.nonzero costs several times more)
        iy, ix = np.divmod(np.flatnonzero(slow), nx)
        iy += blk.start
        z = r.xs[ix] + 1j * r.ys[iy]
        d = np.abs(z - pts[index[col_l[ix] + dl, row_k[iy] + dk]])
        z = z[~(d < M).any(axis=0)]
        if z.size:
            yield z


def build_lattice(cert: ConditionXCertificate) -> LatticeWitnessSet:
    """Construct the lattice witness set of a condition-X certificate, at
    its M and delta on its domain, and re-verify all its clauses.

    The whole (l, k) lattice is handled as arrays.  Each lattice point w
    takes as its witness the condition-X witness (`witness_of`) of the
    domain node z nearest to w's nearest grid node n (z = n when n lies in
    the domain); w is kept when |w - z| < M (1 - 1e-12) and z has a
    witness: its nearest admissible node lies closer than M by the float
    distance of condition X's strict test, which `_nearest` minimises.
    The relative margin drops a point whose z lies M away up to rounding:
    its disc touches the domain only at its rim and may hold no exterior
    node (clause (a)).  Dropping a point can only make clause (b) fail,
    never pass a bad set.  The nearest-node queries against the domain
    read the raster's inside column pass (`Raster.inside_pass`) at their
    query rows alone.
    Clauses re-verified before returning:

    (a) the search disc meets the complement: some node outside the domain
        lies closer than M to w.  The witness w* is such a node, so
        |w - w*| < M settles it; only where it does not are the nodes
        outside the domain within M of w searched.  With symmetry "none"
        the domain is its window content, so everything beyond the window
        is complement too: a w closer than M to the outside of the window
        (distance 0 when w lies beyond it) passes.
    (b) every inside node is covered, by one pass (`_cover`) that forms
        a distance only for the nodes without a listed rint point; every
        other node is covered by its rint point.  The first uncovered node
        with a full search disc, in row-major order, violates clause (b);
        failing that, the first uncovered node (an edge node a declared
        symmetry was trusted to cover) violates the coverage clause the
        weight needs;
    (c) witnesses clear delta (the distance from the witness node to its
        nearest domain node) and |w - w*| <= 2M.
    """
    if not cert.holds:
        raise ConfigurationError(
            "condition X does not hold at these parameters; no lattice exists"
        )
    dom, M, delta, r = cert.domain, cert.M, cert.delta, cert.raster
    x0, x1, y0, y1 = dom.window
    w = witnesses = np.array([], dtype=complex)
    if cert.admissible is not None:  # else no witness, so no point
        ls, ks = np.meshgrid(
            np.arange(math.floor((x0 - M) / M), math.ceil((x1 + M) / M) + 1),
            np.arange(math.floor((y0 - M) / M), math.ceil((y1 + M) / M) + 1),
            indexing="ij",
        )
        w = np.empty(ls.size, dtype=complex)
        w.real, w.imag = ls.ravel() * M, ks.ravel() * M

        # n: the node nearest w; z: the domain node nearest n
        ziy, zix = r.nearest_index(w)
        out = ~r.inside[ziy, zix]
        ziy[out], zix[out] = _nearest(r.inside_pass, r.h, ziy[out], zix[out])
        # the search disc meets the sampled domain
        keep = np.abs(w - (r.xs[zix] + 1j * r.ys[ziy])) < M * (1 - 1e-12)
        w, ziy, zix = w[keep], ziy[keep], zix[keep]
        # and z has a witness: its nearest admissible node lies closer than
        # M by condition X's own test (edge nodes accepted by symmetry have
        # none)
        wy, wx = cert.witness_of(ziy, zix)
        keep = _edt_distance(r.h, wy - ziy, wx - zix) < M
        w, wy, wx = w[keep], wy[keep], wx[keep]
        witnesses = r.xs[wx] + 1j * r.ys[wy]

        # clause (a): complement reachable inside the search disc
        d_out = np.abs(w - witnesses)
        if dom.symmetry == "none":
            # beyond the window lies complement: cap by the distance to it
            edge = np.minimum.reduce([w.real - x0, x1 - w.real, w.imag - y0, y1 - w.imag])
            d_out = np.minimum(d_out, np.maximum(edge, 0.0))
        for j in np.flatnonzero(d_out >= M):
            d_out[j] = _distance_to_outside(r, complex(w[j]), M)
        if (d_out >= M).any():
            bad = complex(w[np.argmax(d_out >= M)])
            raise LatticeVerificationError(
                f"clause (a) violated at w={bad}: no exterior node within {M}"
            )

        # clause (c)(i): witness clearance, measured on the grid
        cy, cx = _nearest(r.inside_pass, r.h, wy, wx)
        clear = _edt_distance(r.h, cy - wy, cx - wx)
        if (clear <= delta).any():
            j = int(np.argmax(clear <= delta))
            raise LatticeVerificationError(
                f"clause (c)(i) violated at w={complex(w[j])}: witness "
                f"{complex(witnesses[j])} has clearance {clear[j]} <= {delta}"
            )
        # clause (c)(ii): containment of the search disc in the 3M witness disc
        gap = np.abs(w - witnesses)
        if gap.size and float(gap.max()) > 2 * M + 1e-12:
            bad = complex(w[int(np.argmax(gap))])
            raise LatticeVerificationError(
                f"clause (c)(ii) violated at w={bad}: |w - w*| = {gap.max()} > 2M"
            )

    # clause (b)
    stray = None
    for z in _cover(r, M, w):
        fit = (z.real >= x0 + M) & (z.real <= x1 - M)
        fit &= (z.imag >= y0 + M) & (z.imag <= y1 - M)
        if fit.any():
            raise LatticeVerificationError(
                f"clause (b) violated: sampled node {z[np.argmax(fit)]} "
                "is not covered by any lattice disc"
            )
        if stray is None:
            stray = z[0]
    if stray is not None:
        raise LatticeVerificationError(f"coverage clause violated at sampled node {stray}")
    return LatticeWitnessSet(M, delta, w, witnesses)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def _tree_to_dict(node) -> dict:
    if isinstance(node, Disc):
        return {"prim": "disc", "params": {"center": [node.cx, node.cy], "radius": node.r}}
    if isinstance(node, HalfPlane):
        return {
            "prim": "halfplane",
            "params": {"a": [node.a.real, node.a.imag], "b": [node.b.real, node.b.imag]},
        }
    if isinstance(node, Rect):
        return {
            "prim": "rect",
            "params": {"x0": node.x0, "x1": node.x1, "y0": node.y0, "y1": node.y1},
        }
    if isinstance(node, Strip):
        return {
            "prim": "strip",
            "params": {"eta_lo": node.eta_lo.spec, "eta_hi": node.eta_hi.spec},
        }
    if isinstance(node, Union):
        return {"op": "union", "children": [_tree_to_dict(c) for c in node.children]}
    if isinstance(node, Intersection):
        return {"op": "intersect", "children": [_tree_to_dict(c) for c in node.children]}
    if isinstance(node, Complement):
        return {"op": "complement", "children": [_tree_to_dict(node.child)]}
    raise DomainSpecError(f"{type(node).__name__} nodes are not serializable")


def _tree_from_dict(d: dict):
    if not isinstance(d, dict):
        raise DomainSpecError(f"tree node must be an object, got {type(d).__name__}")
    if "op" in d:
        op = d["op"]
        children = d.get("children", [])
        if op == "union":
            return Union(tuple(_tree_from_dict(c) for c in children))
        if op == "intersect":
            return Intersection(tuple(_tree_from_dict(c) for c in children))
        if op == "complement":
            if len(children) != 1:
                raise DomainSpecError("complement takes exactly one child")
            return Complement(_tree_from_dict(children[0]))
        raise DomainSpecError(f"unknown op {op!r}")
    if "prim" in d:
        prim = d["prim"]
        params = d.get("params", {})
        try:
            if prim == "disc":
                cx, cy = params["center"]
                return Disc(float(cx), float(cy), float(params["radius"]))
            if prim == "halfplane":
                ar, ai = params["a"]
                br, bi = params["b"]
                return HalfPlane(complex(ar, ai), complex(br, bi))
            if prim == "rect":
                return Rect(
                    float(params["x0"]), float(params["x1"]),
                    float(params["y0"]), float(params["y1"]),
                )
            if prim == "strip":
                return Strip(EtaFunc(params["eta_lo"]), EtaFunc(params["eta_hi"]))
        except KeyError as exc:
            raise DomainSpecError(f"{prim} params missing {exc}") from None
        raise DomainSpecError(f"unknown primitive {prim!r}")
    raise DomainSpecError("tree node needs an 'op' or 'prim' key")


def domain_to_dict(dom: PlanarDomain) -> dict:
    x0, x1, y0, y1 = dom.window
    out = {
        "window": {"x0": x0, "x1": x1, "y0": y0, "y1": y1},
        "mesh": dom.mesh,
        "tree": _tree_to_dict(dom.tree),
    }
    if dom.symmetry != "none":
        out["symmetry"] = dom.symmetry
    return out


def domain_from_dict(d: dict) -> PlanarDomain:
    try:
        w = d["window"]
        window = (float(w["x0"]), float(w["x1"]), float(w["y0"]), float(w["y1"]))
        tree = _tree_from_dict(d["tree"])
        mesh = float(d.get("mesh", 0.0))
    except (KeyError, TypeError) as exc:
        raise DomainSpecError(f"invalid domain document: {exc}") from None
    symmetry = d.get("symmetry", "none")
    return PlanarDomain(tree, window, mesh, symmetry)


def load_domain(path) -> PlanarDomain:
    with open(path, "r", encoding="utf-8") as fh:
        return domain_from_dict(json.load(fh))

