"""Hypothesis strategies and test data shared by the test modules."""

import math

import numpy as np
from hypothesis import strategies as st

from dbar_range import geometry
from dbar_range.geometry import Complement, Disc, HalfPlane, Intersection, Rect, Union
from oracles import constant_strip


@st.composite
def primitives(draw, kinds=("disc", "rect", "halfplane")):
    """A primitive of one of `kinds`; "strip" is a constant strip."""
    c = st.floats(-2.5, 2.5)
    kind = draw(st.sampled_from(kinds))
    if kind == "disc":
        return Disc(draw(c), draw(c), draw(st.floats(0.2, 2.5)))
    if kind == "rect":
        x0, y0 = draw(c), draw(c)
        return Rect(x0, x0 + draw(st.floats(0.2, 4.0)), y0, y0 + draw(st.floats(0.2, 4.0)))
    if kind == "strip":
        lo = draw(c)
        return constant_strip(lo, lo + draw(st.floats(0.05, 3.0)))
    theta = draw(st.floats(0.0, 2 * math.pi))
    return HalfPlane(complex(math.cos(theta), math.sin(theta)), complex(draw(c), 0.0))


@st.composite
def csg_trees(draw, depth=2, kinds=("disc", "rect", "halfplane")):
    if depth == 0 or draw(st.booleans()):
        return draw(primitives(kinds))
    op = draw(st.sampled_from([Union, Intersection, Complement]))
    if op is Complement:
        return Complement(draw(csg_trees(depth - 1, kinds)))
    return op(tuple(draw(st.lists(csg_trees(depth - 1, kinds), min_size=1, max_size=3))))


def radial_bump(z, center: complex = 0j, radius: float = 1.0):
    """exp(-1/(1 - |w|^2)) for w = (z - center)/radius, 0 outside.

    Values within 1e-3 of the support circle are dropped (they are below
    exp(-500)); this avoids overflow in the inner quotient at a bounded,
    documented cost.
    """
    w2 = np.abs((np.asarray(z, dtype=complex) - center) / radius) ** 2
    g = 1.0 - w2
    safe = g > 1e-3
    out = np.zeros(np.shape(w2))
    with np.errstate(over="ignore"):
        out[safe] = np.exp(-1.0 / g[safe])
    return out


def column_rows(mask):
    """The whole-grid column pass of a mask, the oracle of
    `geometry._ColumnPass`: for every node the row of the nearest mask
    node in its column, ties to the lower row; -2 ny or 3 ny in a column
    without mask nodes.  int16 while 3 ny < 2^15, int32 above."""
    ny, nx = mask.shape
    dtype = np.int16 if 3 * ny < 2**15 else np.int32
    rows = np.arange(ny, dtype=dtype)[:, None]
    up = np.maximum.accumulate(np.where(mask, rows, dtype(-2 * ny)), axis=0)
    down = np.minimum.accumulate(np.where(mask, rows, dtype(3 * ny))[::-1], axis=0)[::-1]
    return np.where(rows - up <= down - rows, up, down)


def pass_rows(cp):
    """The rows of a `geometry._ColumnPass`, a block of _LINES rows at a
    time, stacked into the whole grid."""
    return np.concatenate([cp.rows(blk) for blk in geometry._line_blocks(cp.shape[0])])


def drop_witnesses(cert, iy, ix):
    """Take the witness from the certificate's nodes (iy, ix): its
    `witness_of` answers them with a node half the grid height away, which
    lies at least M away.  Disjoint calls accumulate."""
    ny, nx = cert.raster.inside.shape
    assert (ny // 2) * cert.raster.h >= cert.M
    gone = np.asarray(iy) * nx + np.asarray(ix)
    witness_of = cert.witness_of

    def without(qy, qx):
        wy, wx = witness_of(qy, qx)
        far = np.isin(np.asarray(qy) * nx + np.asarray(qx), gone)
        return np.where(far, (np.asarray(qy) + ny // 2) % ny, wy), wx

    cert.witness_of = without
