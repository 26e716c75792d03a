"""Weight functions and closed-range certificate constants.

Every certificate takes the bounded-weight route: a weight phi with
0 <= phi <= A and complex Hessian phi_{z zbar} >= B gives the explicit
constant C = e^A sqrt(2 / B) in the lower bound ||u|| <= C ||dbar u||.

The lattice series weight turns a witness set into explicit (A, B); the
strip weight realizes the quadratic band construction; the composite weight
glues the two with a cutoff for domains that fail the exterior-witness
condition but carry strip structure away from a central column.

`lattice_weight_report` reports a certified lattice by the closed forms
of `weight_constants`: A and B, and so C, depend on M and delta alone,
and the lattice's clauses (b) and (c) are what make them hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .geometry import LatticeWitnessSet, PlanarDomain

__all__ = [
    "weight_constants",
    "StripWeightFamily",
    "PointSeriesWeight",
    "CutoffProfile",
    "certify_composite",
    "CompositeCertification",
    "WeightCertificate",
    "certificate",
    "lattice_weight_report",
]

# Cells of the lattice annulus decomposition: at most (2g+7)^2 witnesses in
# the closed square of index g, at least (2g-7)^2 in the one of index g-1
# once g >= 4, so an annulus holds at most 56g witnesses and the series
# tail behaves like sum 56/(gM)^4 * g.
_A_TAIL_TERMS = 4096


def _tail_inv_cubes(start: int, terms: int = _A_TAIL_TERMS) -> float:
    """Rigorous upper bound for sum_{g >= start} g^-3: a long partial sum
    plus the integral comparison tail 1/(2 G^2)."""
    gs = np.arange(start, start + terms, dtype=float)
    partial = float(np.sum(gs**-3))
    G = start + terms - 1
    return partial + 1.0 / (2.0 * G * G)


def weight_constants(M: float, delta: float) -> tuple[float, float]:
    """Explicit (A, B) for the lattice series weight at parameters (M, delta).

    B = 4/(3M)^6 bounds the complex Hessian from below; A bounds the weight
    itself: 49 delta^-4 for the closest cell plus the annulus-counted tail,
    with the infinite part of the sum bounded above by integral comparison.
    """
    if M <= 0 or delta <= 0:
        raise ValueError(f"M and delta must be positive, got M={M}, delta={delta}")
    B = 4.0 / (3.0 * M) ** 6
    near = sum((2 * g + 7) ** 2 / g**4 for g in range(1, 4))
    A = 49.0 * delta**-4 + (near + 56.0 * _tail_inv_cubes(4)) / M**4
    return A, B


# 2^13 pairwise terms per chunk bound the temporaries below 1 MB: 0.46 MB
# in _phi_many, 0.72 MB in _tile_bounds (its float64 box offsets and
# distances), under the bit-packed certificate's 1.2 B a node; a row sum
# does not depend on the chunk
_BLOCK = 1 << 13


def _phi_many(ws: np.ndarray, zs: np.ndarray, power: float, scale: float) -> np.ndarray:
    out = np.zeros(zs.shape, dtype=float)
    # each row sum is independent of the block size
    chunk = max(1, _BLOCK // max(len(ws), 1))
    for i in range(0, len(zs), chunk):
        d = np.abs(zs[i : i + chunk, None] - ws[None, :])
        out[i : i + chunk] = scale * np.sum(d**power, axis=1)
    return out


# _grid_extreme bounds phi on square tiles of _TILE x _TILE raster nodes
_TILE = 16
# relative slack on tile-to-witness distances: ~1e7 times the float
# rounding of a distance, a power and a sum of terms
_BOUND_SLACK = 1e-9
# tiles evaluated first, in the order of their bounds, for a first value
_SEED_TILES = 4


def _tile_bounds(ws, xlo, xhi, ylo, yhi, power, scale, largest):
    """Per tile box, an upper (largest) or lower bound of
    scale * sum |z - w|^power over the nodes z of the box, power < 0:
    each term at the box's nearest (largest) or farthest point from w."""
    out = np.empty(len(xlo))
    chunk = max(1, _BLOCK // max(len(ws), 1))
    wx, wy = ws.real[None, :], ws.imag[None, :]
    for i in range(0, len(xlo), chunk):
        sl = slice(i, i + chunk)
        bx0, bx1 = xlo[sl, None] - wx, xhi[sl, None] - wx
        by0, by1 = ylo[sl, None] - wy, yhi[sl, None] - wy
        if largest:
            dx = np.maximum(np.maximum(bx0, -bx1), 0.0)
            dy = np.maximum(np.maximum(by0, -by1), 0.0)
            d = np.hypot(dx, dy) * (1.0 - _BOUND_SLACK)
        else:
            dx = np.maximum(np.abs(bx0), np.abs(bx1))
            dy = np.maximum(np.abs(by0), np.abs(by1))
            d = np.hypot(dx, dy) * (1.0 + _BOUND_SLACK)
        with np.errstate(divide="ignore", over="ignore"):
            out[sl] = scale * np.sum(d**power, axis=1)
    return out


def _grid_extreme(ws, xs, ys, mask, power, scale, largest) -> float:
    """np.max (largest) or np.min of _phi_many(ws, zs, power, scale) over
    the nodes zs = xs[ix] + 1j ys[iy] where mask[iy, ix] holds, for
    power < 0, with phi evaluated only on the tiles where the extreme can
    lie.  The mask may be a view of a block of raster columns, with xs
    the axis of those columns.

    The mask is cut into _TILE x _TILE raster tiles.  A tile's bound
    takes each term at the distance from its witness to the nearest (for a
    max) or farthest (for a min) point of the box around the tile's nodes,
    shrunk or grown by the relative _BOUND_SLACK, so no node of the tile
    can reach or pass the bound even after float rounding.  phi is
    evaluated on the _SEED_TILES best-bounded tiles, then once more on
    every other tile whose bound reaches that value; the rest cannot hold
    the extreme.  Node coordinates are formed per evaluated tile only.  A
    _phi_many row sum does not depend on the other rows of its call, so
    the result is the full-grid extreme bit for bit.  Raises ValueError
    when the mask holds no node.
    """
    ny, nx = mask.shape
    ntx, nty = -(-nx // _TILE), -(-ny // _TILE)
    # which rows (row_any[ty, i, tx]) and which columns (col_any[ty, tx, j])
    # of each tile hold a mask node, reduced from the mask itself over the
    # tile's columns and rows; only these 1/_TILE-size results are padded
    row_any = np.zeros((nty * _TILE, ntx), dtype=bool)
    row_any[:ny] = np.logical_or.reduceat(mask, np.arange(0, nx, _TILE), axis=1)
    row_any = row_any.reshape(nty, _TILE, ntx)
    col_any = np.zeros((nty, ntx * _TILE), dtype=bool)
    col_any[:, :nx] = np.logical_or.reduceat(mask, np.arange(0, ny, _TILE), axis=0)
    col_any = col_any.reshape(nty, ntx, _TILE)
    tiles = np.flatnonzero(col_any.any(axis=2))
    ty, tx = tiles // ntx, tiles % ntx
    # the box of each tile's own nodes: its first and last occupied row
    # and column, so a tile that meets the domain in a corner is bounded
    # by that corner alone
    rows = row_any[ty, :, tx]
    cols = col_any[ty, tx, :]
    y0 = ty * _TILE + np.argmax(rows, axis=1)
    y1 = ty * _TILE + _TILE - 1 - np.argmax(rows[:, ::-1], axis=1)
    x0 = tx * _TILE + np.argmax(cols, axis=1)
    x1 = tx * _TILE + _TILE - 1 - np.argmax(cols[:, ::-1], axis=1)
    bound = _tile_bounds(ws, xs[x0], xs[x1], ys[y0], ys[y1], power, scale, largest)
    order = np.argsort(-bound if largest else bound, kind="stable")
    extreme = np.max if largest else np.min

    def evaluate(which):
        # the (tile, row, column) nodes of these tiles, tile by tile in
        # row-major order; the part of an edge tile beyond the grid is off
        iy = ty[which, None, None] * _TILE + np.arange(_TILE)[:, None]
        ix = tx[which, None, None] * _TILE + np.arange(_TILE)
        on = mask[np.minimum(iy, ny - 1), np.minimum(ix, nx - 1)] & (iy < ny) & (ix < nx)
        k, i, j = np.nonzero(on)
        zs = xs[ix[k, 0, j]] + 1j * ys[iy[k, i, 0]]
        return extreme(_phi_many(ws, zs, power, scale))

    best = evaluate(order[:_SEED_TILES])
    rest = order[_SEED_TILES:]
    live = rest[bound[rest] >= best] if largest else rest[bound[rest] <= best]
    if len(live):
        best = extreme([best, evaluate(live)])
    return float(best)


# ---------------------------------------------------------------------------
# Strip weights
# ---------------------------------------------------------------------------


def _smoothstep(t):
    """C-infinity step from exp(-1/t): 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.zeros(t.shape)
    out[hi] = 1.0
    tm = t[mid]
    with np.errstate(over="ignore"):
        e1 = np.exp(-1.0 / tm)
        e2 = np.exp(-1.0 / (1.0 - tm))
        out[mid] = e1 / (e1 + e2)
    return out if out.shape else float(out)


class StripWeightFamily:
    """Sum of band weights over a strictly increasing height sequence.

    Band j lives between cs[j] and cs[j+1] and is quadratic from
    quad_from[j] upward.  The value depends on the height only; outside
    [cs[0], cs[-1]] it vanishes.  `value` and `zzbar` take a 1-d array of
    heights, so a caller evaluates them once per raster row.
    """

    def __init__(self, cs: Sequence[float], quad_from: Optional[Sequence[float]] = None):
        cs = [float(c) for c in cs]
        if len(cs) < 2 or any(a >= b for a, b in zip(cs, cs[1:])):
            raise ValueError("need a strictly increasing sequence of at least 2 heights")
        self.cs = cs
        if quad_from is None:
            quad_from = [0.5 * (a + b) for a, b in zip(cs, cs[1:])]
        quad_from = [float(q) for q in quad_from]
        if len(quad_from) != len(cs) - 1:
            raise ValueError("need one quad_from per band")
        for a, q, b in zip(cs, quad_from, cs[1:]):
            if not (a < q < b):
                raise ValueError(f"quad_from {q} outside band ({a}, {b})")
        self.quad_from = quad_from
        self.max_gap = max(b - a for a, b in zip(cs, cs[1:]))
        self.sup_value = self.max_gap**2

    def _band_index(self, y):
        idx = np.searchsorted(np.asarray(self.cs), y, side="right") - 1
        return np.clip(idx, 0, len(self.cs) - 2)

    def value(self, y: np.ndarray) -> np.ndarray:
        """The weight at the 1-d array of heights y."""
        j = self._band_index(y)
        lo = np.asarray(self.cs)[j]
        hi = np.asarray(self.cs)[j + 1]
        qf = np.asarray(self.quad_from)[j]
        t = (y - lo) / (qf - lo)
        out = (y - hi) ** 2 * _smoothstep(t)
        out[(y < self.cs[0]) | (y > self.cs[-1])] = 0.0
        return out

    def zzbar(self, y: np.ndarray) -> np.ndarray:
        """Its complex Hessian at the 1-d array of heights y: 1/2 where the
        band is quadratic, the second difference of `value` elsewhere."""
        d = 1e-4 * self.max_gap
        out = (self.value(y + d) - 2 * self.value(y) + self.value(y - d)) / (d * d) / 4.0
        j = self._band_index(y)
        quad = (y >= np.asarray(self.quad_from)[j]) & (y <= np.asarray(self.cs)[j + 1])
        out[quad] = 0.5
        return out

    @cached_property
    def sup_dy(self) -> float:
        """Sup of |d phi / dy|, sampled densely on each band; read only by
        the composite's cross-term bound without a transition region."""
        sup = 0.0
        for a, b in zip(self.cs, self.cs[1:]):
            ys = np.linspace(a, b, 4097)
            sup = max(sup, float(np.max(np.abs(np.gradient(self.value(ys), ys)))))
        return 1.05 * sup  # dense-sampling bound, inflated


@dataclass(eq=False)
class PointSeriesWeight:
    """Series weight over an explicitly listed witness set (no lattice).

    Used for the composite construction, where witnesses are placed by hand
    in the transition bands.  `certify_composite` bounds its value and
    Hessian, exact finite sums, over the raster (`_grid_extreme`).
    """

    witnesses: np.ndarray

    def __post_init__(self):
        self.witnesses = np.asarray(self.witnesses, dtype=complex)
        if len(self.witnesses) == 0:
            raise ValueError("need at least one witness point")


# ---------------------------------------------------------------------------
# Composite weight (strip part glued to a lattice part by a cutoff)
# ---------------------------------------------------------------------------


# CutoffProfile samples its derivatives at _CUTOFF_SAMPLES points, a block
# of _CUTOFF_BLOCK of them at a time
_CUTOFF_SAMPLES = 1 << 16
_CUTOFF_BLOCK = 1 << 12


def _gradient_part(f, x, first: bool, last: bool) -> tuple:
    """np.gradient(f, x) of a whole array, bit for bit, at the points of its
    slice f, x that the slice determines, and those points: the slice's
    interior, by np.gradient's non-uniform second-order formula, and an end
    of the slice that is an end of the array (first, last), by the
    first-order formula."""
    dx = np.diff(x)
    dx1, dx2 = dx[:-1], dx[1:]
    a = -(dx2) / (dx1 * (dx1 + dx2))
    b = (dx2 - dx1) / (dx1 * dx2)
    c = dx1 / (dx2 * (dx1 + dx2))
    parts = [a * f[:-2] + b * f[1:-1] + c * f[2:]]
    if first:
        parts.insert(0, (f[1:2] - f[:1]) / dx[:1])
    if last:
        parts.append((f[-1:] - f[-2:-1]) / dx[-1:])
    return np.concatenate(parts), x[0 if first else 1 : len(x) if last else -1]


class CutoffProfile:
    """Smoothstep in |Re z|: identically 0 for |x| <= lo, 1 for |x| >= hi.

    Derivative sups are dense-sampling estimates inflated by 5%; they feed
    the cross-term bound of the composite certificate.  The samples'
    np.gradient and its np.gradient are taken a block at a time, each block
    with a halo of two samples on either side, so the sups are those of
    the whole arrays, bit for bit, without holding them.
    """

    def __init__(self, lo: float = 2.0, hi: float = 3.0):
        if not lo < hi:
            raise ValueError("cutoff needs lo < hi")
        self.lo = float(lo)
        self.hi = float(hi)
        xs = np.linspace(lo - 0.05, hi + 0.05, _CUTOFF_SAMPLES)
        sup_d1 = sup_d2 = 0.0
        for s in range(0, len(xs), _CUTOFF_BLOCK):
            i0, i1 = max(s - 2, 0), min(s + _CUTOFF_BLOCK + 2, len(xs))
            first, last = i0 == 0, i1 == len(xs)
            d1, x1 = _gradient_part(self.value(xs[i0:i1]), xs[i0:i1], first, last)
            d2, _ = _gradient_part(d1, x1, first, last)
            sup_d1 = max(sup_d1, float(np.max(np.abs(d1))))
            sup_d2 = max(sup_d2, float(np.max(np.abs(d2))))
        self.sup_d1 = 1.05 * sup_d1
        self.sup_d2 = 1.05 * sup_d2

    def value(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        return _smoothstep((x - self.lo) / (self.hi - self.lo))


def _cross_term_bound(chi: CutoffProfile, phi_strip: StripWeightFamily) -> float:
    # |(chi phi)_{z zbar} - chi phi_{z zbar}| <= |chi'| |phi_y| / 2 + |chi''| phi / 4
    return chi.sup_d1 * phi_strip.sup_dy / 2.0 + chi.sup_d2 * phi_strip.sup_value / 4.0


@dataclass(frozen=True)
class CompositeCertification:
    certified: bool
    K: float
    B_prime: float
    A_bound: float
    crossbound: float
    b: float
    regions: dict


def _runs(flags: np.ndarray) -> list:
    """The runs of consecutive True entries of a 1-d boolean array, as
    slices."""
    edges = np.flatnonzero(np.diff(flags, prepend=False, append=False))
    return [slice(a, b) for a, b in zip(edges[::2], edges[1::2])]


def certify_composite(
    dom: PlanarDomain,
    chi: CutoffProfile,
    phi_strip: StripWeightFamily,
    phi_lattice: PointSeriesWeight,
    K: Optional[float] = None,
) -> CompositeCertification:
    """Certify psi = chi*phi_strip + K*phi_lattice over the rasterized domain.

    b is the grid minimum of the lattice part's Hessian on |Re z| <= chi.hi;
    all regional bounds are re-measured on the grid rather than assumed.
    Each field is evaluated on the raster axis it depends on, and no
    grid-sized mask is formed.  The inner, transition and outer regions
    are sets of columns, decided from |x| per column and counted from
    column sums of the inside mask.  The strip weight depends on the
    height alone, so its Hessian, its y-difference and its max are taken
    once per row that holds an inside node in those columns, found one
    run of consecutive columns at a time.  b and the grid max of
    phi_lattice (for A) come from `_grid_extreme` on the inside mask (for
    b its view of the central columns |x| <= chi.hi), which forms node
    coordinates only on the tiles it evaluates: each sum
    is evaluated only on the raster tiles whose bound, from the tile box's
    farthest (for b) or nearest (for the max) distance to each witness,
    can reach the extreme, which is the full-grid min or max bit for bit.
    When K is omitted a doubling search starts at K = 1 and gives up past
    2^64 (reported as an uncertified outcome).
    """
    r = dom.raster
    ax = np.abs(r.xs)
    inner = ax <= chi.lo
    trans = (ax > chi.lo) & (ax < chi.hi)
    outer = ax >= chi.hi
    per_column = np.count_nonzero(r.inside, axis=0)
    regions = {
        "inner": int(per_column[inner].sum()),
        "transition": int(per_column[trans].sum()),
        "outer": int(per_column[outer].sum()),
    }

    def heights(columns):
        # the heights of the rows that hold an inside node in these columns,
        # one run of consecutive columns at a time
        rows = np.zeros(len(r.ys), dtype=bool)
        for run in _runs(columns):
            rows |= r.inside[:, run].any(axis=1)
        return r.ys[rows]

    ws = phi_lattice.witnesses
    b = 0.0
    if regions["inner"] or regions["transition"]:
        # |x| <= chi.hi is one run of columns, so its mask is a view
        (run,) = _runs(ax <= chi.hi)
        b = _grid_extreme(ws, r.xs[run], r.ys, r.inside[:, run], -6.0, 4.0, False)
    lattice_max = _grid_extreme(ws, r.xs, r.ys, r.inside, -4.0, 1.0, True)
    # strip Hessian and gradient re-measured where the certificate relies
    # on them: on the composite domain the transition and outer regions lie
    # inside the strips, where the weight is exactly quadratic, so these
    # grid sups stay tame even when far-away collars are steep
    s_outer = float(np.min(phi_strip.zzbar(heights(outer)))) if regions["outer"] else 0.5
    if regions["transition"]:
        yt = heights(trans)
        s_trans = float(np.min(phi_strip.zzbar(yt)))
        d = r.h
        dy = np.abs(phi_strip.value(yt + d) - phi_strip.value(yt - d)) / (2 * d)
        sup_dy_trans = 1.05 * float(np.max(dy))
        phi_max_trans = float(np.max(phi_strip.value(yt)))
        cross = chi.sup_d1 * sup_dy_trans / 2.0 + chi.sup_d2 * phi_max_trans / 4.0
    else:
        s_trans = 0.0
        cross = _cross_term_bound(chi, phi_strip)

    def bound_for(Kv: float) -> float:
        parts = []
        if regions["outer"]:
            parts.append(s_outer)
        if regions["inner"]:
            parts.append(Kv * b)
        if regions["transition"]:
            parts.append(Kv * b - cross + chi.value(chi.lo) * min(0.0, s_trans))
        return min(parts) if parts else 0.0

    def outcome(Kv: float) -> CompositeCertification:
        B_prime = bound_for(Kv)
        return CompositeCertification(
            bool(B_prime > 0), Kv, B_prime, phi_strip.sup_value + Kv * lattice_max,
            cross, b, regions,
        )

    if K is not None:
        return outcome(K)
    Kv = 1.0
    while Kv <= 2.0**64:
        if bound_for(Kv) > 0:
            return outcome(Kv)
        Kv *= 2.0
    return outcome(Kv / 2.0)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightCertificate:
    """Closed-range constant C of a bounded weight, with its log10."""

    C: float
    log10_C: float
    kind = "bounded"  # the route's name in reports; not a field


def certificate(A: float, B: float) -> WeightCertificate:
    """C = e^A sqrt(2/B) for a weight bounded by A with Hessian bound B.

    A may be huge, so the log10 value is always carried alongside; C is
    inf when e^A overflows.
    """
    A, B = float(A), float(B)
    if B <= 0:
        raise ValueError(f"certificate constant B must be positive, got {B}")
    if A < 0:
        raise ValueError(f"bound A must be nonnegative, got {A}")
    log10C = A / math.log(10.0) + 0.5 * math.log10(2.0 / B)
    try:
        C = math.exp(A) * math.sqrt(2.0 / B)
    except OverflowError:
        C = math.inf
    return WeightCertificate(C, log10C)


def lattice_weight_report(lat: LatticeWitnessSet) -> dict:
    """The weight-report payload of a certified lattice: A and B are
    `weight_constants` at the lattice's M and delta, C their certificate.
    Raises ValueError when the lattice is empty, which a lattice that
    passed its coverage clause is only when the domain has no inside node.
    """
    if len(lat) == 0:
        raise ValueError("domain has no rasterized nodes")
    A, B = weight_constants(lat.M, lat.delta)
    cert = certificate(A, B)
    return {
        "M": lat.M,
        "delta": lat.delta,
        "A": A,
        "B": B,
        "C": cert.C if math.isfinite(cert.C) else None,
        "log10_C": cert.log10_C,
        "kind": cert.kind,
    }
