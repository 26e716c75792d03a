import json
import math
import re
import weakref
from dataclasses import FrozenInstanceError, dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.interpolate import CubicSpline

from dbar_range import geometry, scenarios
from dbar_range.geometry import (
    Complement,
    ConditionXCertificate,
    ConfigurationError,
    Disc,
    DomainSpecError,
    EtaFunc,
    HalfPlane,
    Intersection,
    LatticeVerificationError,
    PlanarDomain,
    QueryError,
    Rect,
    Strip,
    Union,
    build_lattice,
    clearance,
    condition_x,
    contains,
    domain_from_dict,
    domain_to_dict,
    largest_disc_at,
    load_domain,
    plane,
)
from dbar_range.geometry import _ColumnPass, _edt_distance, _fit_slices, _near, _nearest
from strategies import column_rows, csg_trees, drop_witnesses, pass_rows

ROOT = Path(__file__).resolve().parent.parent
DOMAINS = sorted((ROOT / "domains").glob("*.json"))


def unit_disc(mesh=1 / 64):
    return PlanarDomain(Disc(0, 0, 1.0), (-2, 2, -2, 2), mesh)


def gallery(
    heights,
    window,
    mesh,
    symmetry="translation_x",
):
    """Union of constant horizontal bands given as (lo, hi) pairs."""
    strips = tuple(Strip.constant(lo, hi) for lo, hi in heights)
    return PlanarDomain(Union(strips), window, mesh, symmetry)


def uniform_gallery(y_max=8.0, window_pad=0.0, mesh=0.02):
    """Bands (j - .75, j - .25) for integer j: height 1/2, gaps 1/2."""
    jmax = int(y_max)
    heights = [(j - 0.75, j - 0.25) for j in range(-jmax + 1, jmax + 1)]
    w = y_max + window_pad
    return gallery(heights, (-w, w, -w, w), mesh)


class TestContains:
    def test_primitives(self):
        d = unit_disc()
        assert contains(d, 0j) is True
        assert contains(d, 2 + 0j) is False
        strip = PlanarDomain(Strip.constant(0, 1), (-2, 2, -2, 2), 0.05)
        assert contains(strip, 0.5j) is True
        assert contains(strip, -0.5j) is False

    def test_outside_window_rejected(self):
        with pytest.raises(QueryError):
            contains(unit_disc(), 5 + 0j)

    def test_matches_dense_sampling_oracle(self):
        # independent membership oracle: evaluate each primitive directly
        rng = np.random.default_rng(1234)
        tree = Union(
            (
                Intersection((Disc(0, 0, 1.5), Complement(Disc(0.5, 0, 0.5)))),
                Rect(-1.8, -1.2, -1.8, 1.8),
                Strip.constant(1.6, 1.9),
            )
        )
        dom = PlanarDomain(tree, (-2, 2, -2, 2), 0.05)
        pts = rng.uniform(-2, 2, size=(10_000, 2))

        def oracle(x, y):
            in_disc = x * x + y * y < 1.5**2 and not (
                (x - 0.5) ** 2 + y * y < 0.5**2
            )
            in_rect = -1.8 < x < -1.2 and -1.8 < y < 1.8
            in_strip = 1.6 < y < 1.9
            return in_disc or in_rect or in_strip

        for x, y in pts:
            assert contains(dom, complex(x, y)) == oracle(x, y)

    def test_rasterization_matches_membership_at_nodes(self):
        dom = unit_disc(mesh=0.1)
        r = dom.raster
        for iy in range(0, len(r.ys), 7):
            for ix in range(0, len(r.xs), 7):
                z = r.node_z(iy, ix)
                assert bool(r.inside[iy, ix]) == dom.member(z)


@dataclass(frozen=True)
class LeftOf:
    """Half-plane x < x0 whose member never looks at y."""

    x0: float

    def member(self, x, y):
        return x < self.x0


class _Built(Exception):
    pass


def omega_s_domain(monkeypatch, mesh):
    """The spline-strip domain exactly as the omega_s scenario builds it."""
    built = []

    def grab(dom, *args, **kwargs):
        built.append(dom)
        raise _Built

    monkeypatch.setattr(scenarios, "condition_x", grab)
    with pytest.raises(_Built):
        scenarios.omega_s_scenario(mesh=mesh)
    return built[0]


def meshgrid_inside(dom, r):
    """Membership on the full 2-D node grid: the reference for the raster."""
    return dom.tree.member(*np.meshgrid(r.xs, r.ys))


class TestRasterFields:
    @pytest.mark.parametrize("path", DOMAINS, ids=[p.stem for p in DOMAINS])
    def test_inside_matches_meshgrid_membership(self, path):
        dom = load_domain(path)
        r = dom.raster
        assert r.inside.dtype == bool and r.inside.shape == (len(r.ys), len(r.xs))
        assert np.array_equal(r.inside, meshgrid_inside(dom, r))

    def test_spline_strips_match_meshgrid_membership(self, monkeypatch):
        dom = omega_s_domain(monkeypatch, mesh=0.03)
        r = dom.raster
        assert np.array_equal(r.inside, meshgrid_inside(dom, r))

    def test_member_ignoring_y_fills_every_row(self):
        for tree in (LeftOf(0.3), Intersection((LeftOf(0.3), Disc(0, 0, 1.0)))):
            dom = PlanarDomain(tree, (-2, 2, -1.5, 1.5), 0.05)
            r = dom.raster
            assert r.inside.shape == (len(r.ys), len(r.xs)) and r.inside.flags.writeable
            assert np.array_equal(r.inside, meshgrid_inside(dom, r))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        kinds=st.sampled_from([("disc", "rect", "halfplane", "strip"), ("strip",), ("rect",)]),
        data=st.data(),
        h=st.sampled_from([0.05, 1 / 16, 0.07]),
    )
    def test_inside_is_the_meshgrid_membership(self, kinds, data, h):
        # trees of constant strips alone or rectangles alone are separable:
        # their member gives a row of y values against a column of x values
        tree = data.draw(csg_trees(kinds=kinds))
        dom = PlanarDomain(tree, (-3.0, 3.05, -2.5, 2.5), h)
        r = dom.raster
        assert r.inside.dtype == bool and r.inside.shape == (len(r.ys), len(r.xs))
        assert np.array_equal(r.inside, meshgrid_inside(dom, r))

    def test_constant_strip_member_has_the_shape_of_y(self):
        strip = Strip.constant(-0.5, 0.25)
        y = np.linspace(-1, 1, 9)
        got = strip.member(np.zeros((4, 1)), y[None, :])
        assert got.shape == (1, 9) and np.array_equal(got[0], (y > -0.5) & (y < 0.25))
        assert strip.member(np.zeros(3), 0.0).shape == ()
        assert Rect(-1, 1, -1, 1).member(np.zeros((4, 1)), y[None, :]).shape == (4, 9)

    @pytest.mark.parametrize("path", DOMAINS, ids=[p.stem for p in DOMAINS])
    def test_columns_are_the_raster_xs(self, path):
        dom = load_domain(path)
        assert np.array_equal(dom.columns(), dom.raster.xs)
        fine = replace(dom, mesh=0.013)
        assert np.array_equal(fine.columns(), fine.raster.xs)

    def test_columns_check_strips_as_the_raster_does(self, monkeypatch):
        dom = omega_s_domain(monkeypatch, mesh=0.03)
        assert np.array_equal(dom.columns(), dom.raster.xs)
        short = Strip(EtaFunc({"x": [-1.0, 1.0], "y": [0.0, 0.0]}), EtaFunc({"const": 1.0}))
        crossed = Strip(EtaFunc({"const": 1.0}), EtaFunc({"const": 0.0}))
        for strip, msg in ((short, "do not cover"), (crossed, "eta_lo(x) < eta_hi(x)")):
            dom = PlanarDomain(Union((Disc(0, 0, 1.0), strip)), (-2, 2, -2, 2), 0.05)
            for build in (dom.columns, lambda: dom.raster):
                with pytest.raises(DomainSpecError, match=re.escape(msg)):
                    build()


class TestGridDistances:
    """`_near` and `_nearest` against scipy's distance transform, whose
    float formula and column-then-row tie-breaking they reproduce."""

    @pytest.mark.parametrize("path", DOMAINS, ids=[p.stem for p in DOMAINS])
    def test_near_and_nearest_match_the_transform(self, path):
        r = load_domain(path).raster
        iy, ix = np.indices(r.inside.shape).reshape(2, -1)
        for mask, rows in ((r.inside, _ColumnPass(r.inside)),
                           (~r.inside, _ColumnPass(r.inside, invert=True))):
            if not mask.any():
                continue
            dist, idx = ndimage.distance_transform_edt(~mask, sampling=r.h, return_indices=True)
            for radius in (r.h, 2 * r.h, 0.1, 2.0):
                assert np.array_equal(_near(rows, r.h, radius, strict=True), dist < radius)
                assert np.array_equal(_near(rows, r.h, radius, strict=False), dist <= radius)
            assert np.array_equal(_nearest(rows, r.h, iy, ix), idx.reshape(2, -1))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        tree=csg_trees(),
        h=st.floats(0.02, 0.08),
        delta=st.floats(0.01, 0.6),
        M=st.floats(0.05, 3.0),
    )
    def test_condition_x_tests_equal_the_transform_thresholds(self, tree, h, delta, M):
        r = PlanarDomain(tree, (-3.0, 3.0, -2.5, 3.5), h).raster
        assume(r.inside.any())
        dist_in = ndimage.distance_transform_edt(~r.inside, sampling=h)
        for strict in (True, False):
            got = _near(_ColumnPass(r.inside), h, delta, strict)
            assert np.array_equal(got, dist_in < delta if strict else dist_in <= delta)
        admissible = ~r.inside & (dist_in > delta)
        assume(admissible.any())
        dist_adm = ndimage.distance_transform_edt(~admissible, sampling=h)
        for strict in (True, False):
            got = _near(_ColumnPass(admissible), h, M, strict)
            assert np.array_equal(got, dist_adm < M if strict else dist_adm <= M)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.tuples(st.integers(1, 30), st.integers(1, 30)),
        density=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
        h=st.floats(0.003, 0.2),
    )
    def test_nearest_is_the_brute_force_choice(self, shape, density, seed, h):
        mask = np.random.default_rng(seed).random(shape) < density
        assume(mask.any())
        iy, ix = np.indices(shape).reshape(2, -1)
        got = np.array(_nearest(_ColumnPass(mask), h, iy, ix))
        # least (dy h)^2 + (dx h)^2, ties to the smaller column, then row
        my, mx = np.nonzero(mask)
        order = np.lexsort((my, mx))
        my, mx = my[order], mx[order]
        dy, dx = (my - iy[:, None]) * h, (mx - ix[:, None]) * h
        pick = np.argmin(dy * dy + dx * dx, axis=1)
        assert np.array_equal(got, [my[pick], mx[pick]])
        # scipy's transform: never nearer, and the same node wherever the
        # nearest integer offset is unique
        dist, idx = ndimage.distance_transform_edt(~mask, sampling=h, return_indices=True)
        assert (_edt_distance(h, got[0] - iy, got[1] - ix) <= dist.ravel()).all()
        length = (my - iy[:, None]) ** 2 + (mx - ix[:, None]) ** 2
        unique = (length == length.min(axis=1, keepdims=True)).sum(axis=1) == 1
        assert np.array_equal(got[:, unique], idx.reshape(2, -1)[:, unique])

    def test_witness_points_are_the_transform_indices(self):
        dom = load_domain(ROOT / "domains" / "uniform_gallery.json")
        cert = condition_x(dom, M=2.0, delta=0.1)
        r = cert.raster
        admissible = ~r.inside & (ndimage.distance_transform_edt(~r.inside, sampling=r.h) > 0.1)
        _, idx = ndimage.distance_transform_edt(~admissible, sampling=r.h, return_indices=True)
        wy, wx = idx[:, cert.witnessed]
        assert len(wy) > 100_000
        assert np.array_equal(cert.witness_points, r.xs[wx] + 1j * r.ys[wy])


def condition_x_oracle(dom, M, delta, cap):
    """Condition X by whole-grid passes: the admissible mask, its column
    pass and the witnessed grid built whole, then counted.  Returns the
    admissible column pass (None without admissible nodes), the failure
    and unprovable counts and the first `cap` failing nodes."""
    r = dom.raster
    admissible = ~(_near(_ColumnPass(r.inside), r.h, delta, strict=False) | r.inside)
    adm_rows, witnessed = None, np.zeros_like(r.inside)
    if admissible.any():
        adm_rows = column_rows(admissible)
        witnessed = _near(_ColumnPass(admissible), r.h, M, strict=True) & r.inside
    miss = r.inside & ~witnessed
    rows, cols = _fit_slices(r, dom.window, M)
    iy, ix = np.nonzero(miss[rows, cols])
    n_fail = len(iy)
    pts = r.xs[cols][ix[:cap]] + 1j * r.ys[rows][iy[:cap]]
    return adm_rows, n_fail, int(miss.sum()) - n_fail, pts


class TestStreamedPasses:
    """Condition X streams its delta test and its M test in row blocks,
    the first packing the admissible nodes into a bit mask, the second
    counted and dropped; the lattice tests a witness by the distance to
    the nearest admissible node.  Each equals the whole-grid computation."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        tree=csg_trees(),
        h=st.floats(0.02, 0.08),
        k=st.integers(5, 16),
        off=st.sampled_from([0, -1, 1, 0.5]),
        M=st.floats(0.05, 3.0),
        lines=st.sampled_from([3, geometry._LINES]),
        cap=st.sampled_from([7, 10_000]),
    )
    def test_condition_x_equals_the_whole_grid_oracle(self, tree, h, k, off, M, lines, cap):
        # delta/h an integer, a float step either side of it, or midway
        delta = k * h
        if off == 0.5:
            delta += 0.5 * h
        elif off:
            delta = math.nextafter(delta, off * math.inf)
        dom = PlanarDomain(tree, (-3.0, 3.0, -2.5, 3.5), h, "translation_x")
        r = dom.raster
        assume(r.inside.any())
        adm_rows, n_fail, n_unprov, pts = condition_x_oracle(dom, M, delta, cap)
        with mock.patch.object(geometry, "_LINES", lines), \
                mock.patch.object(geometry, "_FAILURE_SAMPLE_CAP", cap):
            got_rows = geometry._admissible_rows(r, delta)
            cert = condition_x(dom, M, delta)

        def same(cp, rows):
            if cp is None or rows is None:
                return cp is rows
            return cp.dtype == rows.dtype and np.array_equal(pass_rows(cp), rows)

        assert same(got_rows, adm_rows)
        assert (cert.failure_count, cert.holds) == (n_fail, n_fail == 0)
        assert cert.unprovable_count == n_unprov
        assert np.array_equal(cert.failure_points, pts if n_fail else [])
        # a failing certificate keeps no grid
        assert same(cert.admissible, adm_rows if cert.holds else None)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.tuples(st.integers(1, 30), st.integers(1, 30)),
        density=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
        h=st.floats(0.003, 0.2),
        offset=st.tuples(st.integers(0, 12), st.integers(0, 12)),
        off=st.sampled_from([0, -1, 1]),
    )
    def test_lattice_witness_test_equals_the_near_test(self, shape, density, seed, h,
                                                       offset, off):
        # build_lattice takes a node as witnessed when its nearest
        # admissible node lies closer than M: _near's strict test there,
        # for M at a node distance or a float step either side of one
        mask = np.random.default_rng(seed).random(shape) < density
        assume(mask.any())
        M = float(_edt_distance(h, *offset))
        if off or not M:
            M = math.nextafter(M, math.inf if off >= 0 else -math.inf)
        assume(M > 0)
        rows = _ColumnPass(mask)
        iy, ix = np.indices(shape).reshape(2, -1)
        wy, wx = _nearest(rows, h, iy, ix)
        got = _edt_distance(h, wy - iy, wx - ix) < M
        assert np.array_equal(got, _near(rows, h, M, strict=True)[iy, ix])


class TestLineBlocks:
    """The grid passes stream in blocks of `geometry._LINES` lines; any
    block size gives the whole-grid results.  The grids here are 101 rows
    by 122 columns, a multiple of no block size tried."""

    @staticmethod
    def banded(extra=()):
        # bands (j - 1/4, j + 1/4): the lattice rows of M = 1 run along them
        strips = tuple(Strip.constant(j - 0.25, j + 0.25) for j in range(-3, 4))
        return PlanarDomain(Union(strips + extra), (-3.0, 3.05, -2.5, 2.5), 0.05, "translation_x")

    @staticmethod
    def mixed():
        # a spline strip less a disc, or a rectangle, or a half-plane
        spline = Strip(EtaFunc({"x": [-3.5, -1.0, 0.5, 3.5], "y": [-2.0, -1.2, -1.6, -0.5]}),
                       EtaFunc({"const": 1.0}))
        tree = Union((Intersection((spline, Complement(Disc(0.3, 0.1, 0.8)))),
                      Rect(1.0, 2.5, 1.2, 2.2), HalfPlane(-1 + 0j, 2.6 + 0j)))
        return PlanarDomain(tree, (-3.0, 3.05, -2.5, 2.5), 0.05)

    @staticmethod
    def passes(mask):
        rows = _ColumnPass(mask)
        return [pass_rows(rows)] + [_near(rows, 0.05, radius, strict)
                         for radius in (0.05, 0.3, 2.0) for strict in (True, False)]

    @staticmethod
    def chain(dom, M, delta):
        cert = condition_x(dom, M, delta)
        out = [cert.holds, cert.failure_count, cert.unprovable_count,
               cert.accepted_by_symmetry, cert.notes, cert.witnessed, cert.failure_points]
        if cert.holds:
            lat = build_lattice(cert)
            out += [pass_rows(cert.admissible), lat.points, lat.witnesses]
        return out

    @pytest.mark.parametrize("lines", [1, 3, 7])
    def test_passes_equal_the_default_block(self, lines, monkeypatch):
        rng = np.random.default_rng(5)
        masks = [self.banded().raster.inside, rng.random((101, 122)) < 0.02]
        assert masks[0].shape == (101, 122) and not masks[1].any(axis=0).all()
        # a band domain that holds condition X and one that fails it
        cases = [(self.banded(), 1.0, 0.22), (self.banded((Rect(-1, 1, -1, 1),)), 0.5, 0.22)]
        want = [self.passes(m) for m in masks] + [self.chain(*case) for case in cases]
        assert want[2][0] and not want[3][0]
        monkeypatch.setattr(geometry, "_LINES", lines)
        got = [self.passes(m) for m in masks] + [self.chain(*case) for case in cases]
        for g, w in zip(got, want):
            assert len(g) == len(w)
            for a, b in zip(g, w):
                assert np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("lines", [1, 3, 7])
    def test_raster_equals_the_default_block(self, lines, monkeypatch):
        r = self.mixed().raster
        want = r.inside
        assert want.shape == (101, 122) and 0 < want.sum() < want.size
        whole = self.mixed().tree.member(r.xs[None, :], r.ys[:, None])
        assert np.array_equal(want, whole)
        monkeypatch.setattr(geometry, "_LINES", lines)
        got = self.mixed().raster.inside
        assert got.dtype == bool and np.array_equal(got, want)

    def test_raster_evaluates_eta_once_per_column(self, monkeypatch):
        # each bound of a strip sees every column twice: in the check of
        # PlanarDomain.columns and in the raster
        seen = []
        call = EtaFunc.__call__

        def counting(eta, x):
            seen.append(np.size(x))
            return call(eta, x)

        monkeypatch.setattr(EtaFunc, "__call__", counting)
        for dom in (self.mixed(), self.banded(), scenarios.omega_s_composite(mesh=0.05)[0]):
            seen.clear()
            r = dom.raster
            strips = len(list(geometry._collect_strips(dom.tree)))
            assert strips and sum(seen) <= 4 * len(r.xs) * strips

    @pytest.mark.parametrize("ny, dtype", [(10_922, np.int16), (10_923, np.int32)])
    def test_column_rows_take_the_narrowest_type(self, ny, dtype):
        # int16 while every value, -2 ny to 3 ny, fits it; column 1 has no
        # mask node, so its values reach both ends
        mask = np.zeros((ny, 2), dtype=bool)
        mask[np.random.default_rng(ny).choice(ny, 12, replace=False), 0] = True
        cp = _ColumnPass(mask)
        got = pass_rows(cp)
        # the int32 reference: the whole-grid column pass
        rows = np.arange(ny, dtype=np.int32)[:, None]
        up = np.maximum.accumulate(np.where(mask, rows, np.int32(-2 * ny)), axis=0)
        down = np.minimum.accumulate(np.where(mask, rows, np.int32(3 * ny))[::-1], axis=0)[::-1]
        want = np.where(rows - up <= down - rows, up, down)
        assert cp.dtype == got.dtype == dtype
        assert want.dtype == np.int32 and np.array_equal(got, want)
        assert got.min() == -2 * ny and got.max() == 3 * ny
        # column 0: the nearest mask row, ties to the lower one
        hits = np.flatnonzero(mask[:, 0])
        nearest = hits[np.argmin(np.abs(hits - rows), axis=1)]
        assert np.array_equal(got[:, 0], nearest)

    def test_clause_b_names_the_first_uncovered_node(self, monkeypatch):
        # taking the witness from the nodes of the lattice points 0 and 1
        # drops both points, which leaves the nodes around 1/2 uncovered
        dom, M, delta = self.banded(), 1.0, 0.22
        cert = condition_x(dom, M, delta)
        r = cert.raster
        points = build_lattice(cert).points
        # z: the domain node nearest the node nearest each point
        ziy, zix = r.nearest_index(points)
        out = ~r.inside[ziy, zix]
        ziy[out], zix[out] = _nearest(_ColumnPass(r.inside), r.h, ziy[out], zix[out])
        dropped = np.isin(points, [0j, 1 + 0j])
        assert dropped.sum() == 2
        drop_witnesses(cert, ziy[dropped], zix[dropped])
        kept = points[~dropped]
        # the oracle: every fit node against every kept point, row-major
        rows, cols = _fit_slices(r, dom.window, M)
        iy, ix = np.nonzero(r.inside[rows, cols])
        zs = r.xs[cols][ix] + 1j * r.ys[rows][iy]
        covered = (np.abs(zs[:, None] - kept) < M).any(1)
        miss = np.argmin(covered)
        assert not covered[miss] and iy[miss] > 0
        want = f"clause (b) violated: sampled node {zs[miss]} is not covered by any lattice disc"
        for lines in (geometry._LINES, 1):
            monkeypatch.setattr(geometry, "_LINES", lines)
            with pytest.raises(LatticeVerificationError) as err:
                build_lattice(cert)
            assert str(err.value) == want


class TestColumnPass:
    """`_ColumnPass` stores no pass: it reads its mask (a bool grid, its
    complement or the grid packed 8 nodes to a byte) a block of rows at a
    time.  Every block, and the threshold and nearest-node queries read
    through it, equal the whole-grid oracle `column_rows` and a brute
    force over all node pairs."""

    @staticmethod
    def passes(mask):
        return (_ColumnPass(mask), _ColumnPass(~mask, invert=True),
                _ColumnPass(np.packbits(mask, axis=1), nx=mask.shape[1]))

    @staticmethod
    def check(mask, h, radius, lines, span):
        ny, nx = mask.shape
        want = column_rows(mask)
        iy, ix = np.indices(mask.shape).reshape(2, -1)
        # brute force over all (node, mask node) pairs, the mask nodes in
        # column-major order so that argmin takes the smaller column, then
        # the lower row, on a tie
        my, mx = np.nonzero(mask.T)[::-1]
        dy, dx = (my - iy[:, None]) * h, (mx - ix[:, None]) * h
        square = dy * dy + dx * dx
        d = np.sqrt(square)
        near = {strict: ((d < radius) if strict else (d <= radius)).any(axis=1).reshape(ny, nx)
                for strict in (True, False)}
        with mock.patch.object(geometry, "_LINES", lines):
            for cp in TestColumnPass.passes(mask):
                assert cp.shape == (ny, nx) and cp.dtype == want.dtype
                for blk in geometry._line_blocks(ny):
                    rows = cp.rows(blk)
                    assert rows.dtype == want.dtype and np.array_equal(rows, want[blk])
                assert np.array_equal(cp.rows(span), want[span])
                for strict in (True, False):
                    assert np.array_equal(_near(cp, h, radius, strict), near[strict])
                if not mask.any():
                    continue
                # queries in every row, as witness_points makes them
                pick = np.argmin(square, axis=1)
                assert np.array_equal(_nearest(cp, h, iy, ix), [my[pick], mx[pick]])
                oy, ox = _nearest(cp, h, [], [])
                assert oy.size == ox.size == 0

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        ny=st.sampled_from([1, 7, 8, 9, 64, 65]),
        nx=st.integers(1, 21),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        lines=st.sampled_from([1, 3, 64]),
        h=st.floats(0.003, 0.2),
        radius=st.floats(0.0, 1.5),
        span=st.tuples(st.integers(0, 64), st.integers(1, 65)),
    )
    def test_every_block_and_query_equals_the_oracle(self, ny, nx, density, seed, lines, h,
                                                      radius, span):
        mask = np.random.default_rng(seed).random((ny, nx)) < density
        # any nonempty run of rows, not only a block
        start = min(span[0], ny - 1)
        self.check(mask, h, radius, lines, slice(start, start + span[1]))

    @pytest.mark.parametrize("nx", [1, 9])
    @pytest.mark.parametrize("lines", [3, 64])
    def test_tall_grids_take_int32(self, nx, lines):
        # 3 ny >= 2^15: the int32 path, on a narrow grid
        ny = 10_923
        mask = np.zeros((ny, nx), dtype=bool)
        rng = np.random.default_rng(nx)
        mask[rng.choice(ny, 8, replace=False), rng.integers(0, nx, 8)] = True
        assert column_rows(mask).dtype == np.int32
        self.check(mask, 0.01, 0.05, lines, slice(5_000, 5_200))

    def test_a_domain_filling_its_window_builds_no_pass(self, monkeypatch):
        built = []
        init = _ColumnPass.__init__

        def counting(cp, *args, **kwargs):
            built.append(cp)
            init(cp, *args, **kwargs)

        monkeypatch.setattr(_ColumnPass, "__init__", counting)
        cert = condition_x(load_domain(ROOT / "domains" / "whole_plane.json"), M=2.0, delta=0.1)
        assert not cert.holds and cert.admissible is None and not built
        # the counter sees the inside pass and the admissible one elsewhere
        dom = unit_disc()
        cert = condition_x(dom, M=1.5, delta=0.1)
        assert cert.holds and len(built) == 2
        assert built[0] is dom.raster.inside_pass and built[1] is cert.admissible
        # the raster keeps its inside pass: another certificate builds only
        # its admissible pass, and the lattice and clearance build none
        cert = condition_x(dom, M=1.5, delta=0.1)
        build_lattice(cert)
        clearance(dom, np.array([1.5 + 0.5j, 0.3j, -1.9 - 1.9j]))
        assert len(built) == 3 and built[2] is cert.admissible

    @staticmethod
    def delta_pass_rows(r, delta):
        """The rows the delta test runs its row pass on, from the whole-grid
        column pass of `inside`: those holding an outside node whose
        nearest domain node in its column lies more rows away than the
        farthest row offset within delta at column offset 0."""
        ny = len(r.ys)
        vmax = np.count_nonzero(_edt_distance(r.h, np.arange(ny), 0) <= delta) - 1
        off = np.abs(column_rows(r.inside) - np.arange(ny)[:, None])
        return np.flatnonzero(((off > vmax) & ~r.inside).any(axis=1))

    @staticmethod
    def counting_near_rows(monkeypatch):
        """Record the `blk` of every `_near_rows` call."""
        seen = []
        near_rows = geometry._near_rows

        def counting(rows, reach, blk):
            seen.append(blk)
            return near_rows(rows, reach, blk)

        monkeypatch.setattr(geometry, "_near_rows", counting)
        return seen

    def test_delta_test_skips_blocks_without_an_outside_node(self, monkeypatch):
        # the half-plane y < 0.3 fills the lower rows of the window: only
        # the rows above it hold an outside node, and of those only the
        # rows more than delta above it run the delta test's row pass
        dom = PlanarDomain(HalfPlane(-1j, -0.3 + 0j), (-2, 2, -2, 2), 0.02)
        r = dom.raster
        outside_rows = np.flatnonzero(~r.inside.all(axis=1))
        want = self.delta_pass_rows(r, 0.1)
        assert 0 < len(want) < len(outside_rows) < len(r.ys)
        assert np.isin(want, outside_rows).all()
        seen = self.counting_near_rows(monkeypatch)
        admissible = geometry._admissible_rows(r, 0.1)
        # one call per block of rows, each on the rows of one block
        assert all(len(np.unique(blk // geometry._LINES)) == 1 for blk in seen)
        assert np.array_equal(np.concatenate(seen), want)
        want = ~(_near(_ColumnPass(r.inside), r.h, 0.1, strict=False) | r.inside)
        assert np.array_equal(pass_rows(admissible), column_rows(want))

    def test_m_test_runs_no_row_pass_on_the_gallery(self, monkeypatch):
        # every domain node of the gallery has an admissible node closer
        # than M in its own column, so only the delta test runs a row pass,
        # on the rows with an outside node farther than delta from the
        # domain in its column
        seen = self.counting_near_rows(monkeypatch)
        dom = load_domain(ROOT / "domains" / "uniform_gallery.json")
        r = dom.raster
        assert r.h == 0.02
        cert = condition_x(dom, M=2.0, delta=0.1)
        assert cert.holds and seen
        assert all(isinstance(blk, np.ndarray) for blk in seen)
        assert np.array_equal(np.concatenate(seen), self.delta_pass_rows(r, 0.1))
        # the control: on the unit disc at M = 0.5 the centre's column has
        # no admissible node within M, so the M test runs its row pass
        # there, a block of rows at a time
        seen.clear()
        dom = unit_disc()
        cert = condition_x(dom, M=0.5, delta=0.1)
        n = sum(isinstance(blk, np.ndarray) for blk in seen)
        assert not cert.holds and 0 < n < len(seen)
        assert np.array_equal(np.concatenate(seen[:n]), self.delta_pass_rows(dom.raster, 0.1))
        assert all(isinstance(blk, slice) for blk in seen[n:])


class TestLargestDisc:
    def test_exact_primitives(self):
        assert largest_disc_at(unit_disc(), 0j, cap=2.0) == 1.0
        strip = PlanarDomain(Strip.constant(0, 1), (-2, 2, -2, 2), 0.05)
        assert largest_disc_at(strip, 0.5j, cap=2.0) == 0.5
        rect = PlanarDomain(Rect(0, 2, 0, 1), (-1, 3, -1, 2), 0.05)
        assert largest_disc_at(rect, 1 + 0.5j, cap=3.0) == 0.5
        hp = PlanarDomain(HalfPlane(1 + 0j, 0j), (-3, 3, -3, 3), 0.05)
        assert largest_disc_at(hp, -1 + 0j, cap=5.0) == pytest.approx(1.0)

    def test_union_with_far_component(self):
        # brute-force radial sampling oracle on the composite tree
        R = 1.2
        tree = Union((Disc(0, 0, R), Disc(3, 0, 0.3)))
        dom = PlanarDomain(tree, (-4, 4, -4, 4), 0.02)
        got = largest_disc_at(dom, 0j, cap=3.0)

        radii = np.linspace(0.01, 3.0, 800)
        angles = np.linspace(0, 2 * math.pi, 256, endpoint=False)
        oracle = 3.0
        for r in radii:
            zs = r * np.exp(1j * angles)
            if not all(dom.member(z) for z in zs):
                oracle = r
                break
        assert got == pytest.approx(oracle, abs=0.05)
        assert got == pytest.approx(R, abs=0.05)

    def test_monotone_under_shrinking(self):
        big = PlanarDomain(Disc(0, 0, 1.5), (-2, 2, -2, 2), 0.02)
        small = PlanarDomain(
            Intersection((Disc(0, 0, 1.5), Rect(-1, 1, -2, 2))),
            (-2, 2, -2, 2),
            0.02,
        )
        for z in (0j, 0.3 + 0.2j, -0.5j):
            assert largest_disc_at(small, z, cap=3.0) <= largest_disc_at(
                big, z, cap=3.0
            ) + 1e-12

    def test_not_inside_rejected(self):
        with pytest.raises(QueryError):
            largest_disc_at(unit_disc(), 1.5 + 0j, cap=1.0)


class TestClearance:
    def test_outside_point(self):
        d = PlanarDomain(Disc(0, 0, 1.0), (-4, 4, -4, 4), 0.02)
        got = clearance(d, 3 + 0j)
        assert got == pytest.approx(2.0, abs=0.02 * math.sqrt(2))

    def test_inside_is_zero(self):
        assert clearance(unit_disc(), 0.2 + 0.1j) == 0.0

    def test_gap_midpoint(self):
        g = 0.5
        dom = gallery([(-1.0, -g / 2), (g / 2, 1.0)], (-2, 2, -2, 2), 0.01,
                      symmetry="none")
        got = clearance(dom, 0j)
        assert got == pytest.approx(g / 2, abs=0.01 * math.sqrt(2))

    def test_points_at_once_equal_one_at_a_time(self):
        g = 0.5
        dom = gallery([(-1.0, -g / 2), (g / 2, 1.0)], (-2, 2, -2, 2), 0.01,
                      symmetry="none")
        zs = np.array([0j, 0.3 + 0.1j, -1.7 + 0.5j, 0.5 - 0.1j, 2.5 + 2.5j])
        one = [clearance(dom, complex(z)) for z in zs]
        assert all(type(v) is float for v in one)
        assert one[2] == 0.0 and one[0] > 0
        assert np.array_equal(clearance(dom, zs), one)


@st.composite
def spline_samples(draw):
    """Knots and values for a natural spline.  Steps of 2**k, k in -8..8,
    are uneven enough that the tridiagonal solve interchanges rows wherever
    a step exceeds twice the one before."""
    n = draw(st.integers(2, 100))
    steps = draw(st.lists(st.tuples(st.integers(-8, 8), st.floats(1.0, 2.0)),
                          min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-50.0, 50.0)) + np.cumsum([0.0] + [2.0**k * f for k, f in steps])
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    return x, y


class TestEtaSpline:
    @settings(max_examples=200, deadline=None)
    @given(spline_samples())
    # steps 1, 4, 16, ...: a row interchange at every row
    @example((np.cumsum([0.0] + [4.0**k for k in range(12)]), np.sin(np.arange(13.0))))
    @example((np.array([0.0, 1.0]), np.array([1.0, -2.0])))
    def test_equals_scipy_natural_spline(self, samples):
        x, y = samples
        eta = EtaFunc({"x": x.tolist(), "y": y.tolist()})
        want = CubicSpline(x, y, bc_type="natural")
        q = np.concatenate((
            x, (x[:-1] + x[1:]) / 2, x[:-1] + 0.1 * np.diff(x),
            [x[0] - 1.0, np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf), x[-1] + 3.0],
        ))
        assert np.array_equal(eta._coef, want.c)
        assert np.array_equal(eta(q), want(q))

    def test_rejects_non_finite_samples(self):
        for xs, ys in (([0.0, 1.0], [0.0, math.nan]), ([0.0, math.inf], [0.0, 1.0])):
            with pytest.raises(DomainSpecError):
                EtaFunc({"x": xs, "y": ys})


class TestConditionX:
    def test_uniform_gallery_holds(self):
        dom = uniform_gallery(y_max=6.0, mesh=0.02)
        cert = condition_x(dom, M=2.0, delta=0.1)
        assert cert.holds
        assert cert.failure_count == 0
        # every witness clears delta
        for z, w in zip(cert.sample_points[:50], cert.witness_points[:50]):
            assert clearance(dom, complex(w)) > 0.1
        # on the index grids: each witnessed domain node has an admissible
        # witness node closer than M
        r = cert.raster
        assert not (cert.witnessed & ~r.inside).any()
        iy, ix = np.nonzero(cert.witnessed)
        wy, wx = cert.witness_of(iy, ix)
        assert not r.inside[wy, wx].any()
        assert (ndimage.distance_transform_edt(~r.inside, sampling=r.h)[wy, wx] > 0.1).all()
        assert (np.hypot(wy - iy, wx - ix) * r.h < 2.0).all()

    def test_full_plane_fails(self):
        dom = PlanarDomain(plane(), (-4, 4, -4, 4), 0.01)
        cert = condition_x(dom, M=1.0, delta=0.05)
        assert not cert.holds
        assert cert.failure_count > 0
        assert len(cert.failure_points) > 0

    @pytest.mark.parametrize(
        "case, lines, cap, over_cap",
        [("whole_plane", 64, 10_000, True), ("disc", 64, 10_000, False),
         ("disc", 3, 10_000, False), ("disc", 3, 100, True)],
    )
    def test_failure_points_are_the_first_failing_nodes(
        self, case, lines, cap, over_cap, monkeypatch
    ):
        # the blocked scan stops at the cap and keeps the one-shot sample:
        # the first failing nodes of the fit slice in row-major order
        if case == "whole_plane":
            dom, M, delta = load_domain(ROOT / "domains" / "whole_plane.json"), 2.0, 0.1
        else:  # about 2 000 failing nodes around the centre, the rest witnessed
            dom, M, delta = PlanarDomain(Disc(0, 0, 1.5), (-2.5, 2.5, -2.5, 2.5), 0.02), 1.0, 0.1
        monkeypatch.setattr(geometry, "_LINES", lines)
        monkeypatch.setattr(geometry, "_FAILURE_SAMPLE_CAP", cap)
        cert = condition_x(dom, M, delta)
        r = dom.raster
        admissible = ~(_near(_ColumnPass(r.inside), r.h, delta, strict=False) | r.inside)
        witnessed = r.inside & (
            _near(_ColumnPass(admissible), r.h, M, strict=True) if admissible.any()
            else False
        )
        rows, cols = _fit_slices(r, dom.window, M)
        iy, ix = np.nonzero(r.inside[rows, cols] & ~witnessed[rows, cols])
        assert not cert.holds and cert.failure_count == len(iy)
        iy, ix = iy[:cap], ix[:cap]
        expect = r.xs[cols][ix] + 1j * r.ys[rows][iy]
        assert (cert.failure_count > cap) == over_cap
        assert np.array_equal(cert.failure_points, expect)

    def test_shrinking_gaps_fail_on_large_window(self):
        # gaps ~ 1/|j| around integer heights: high strips see no clearance
        heights = []
        for j in range(-15, 16):
            g_lo = 0.5 / max(abs(j), 1)
            g_hi = 0.5 / max(abs(j + 1), 1)
            heights.append((j + g_lo / 2, j + 1 - g_hi / 2))
        dom = gallery(heights, (-16, 16, -16, 16), 0.0124)
        cert = condition_x(dom, M=2.0, delta=0.05)
        assert not cert.holds
        # failures concentrate at large |Im z|
        assert np.abs(np.asarray(cert.failure_points).imag).min() > 5

    def test_mesh_too_coarse_rejected(self):
        dom = uniform_gallery(y_max=4.0, mesh=0.1)
        with pytest.raises(ConfigurationError):
            condition_x(dom, M=2.0, delta=0.1)

    def flared_strip(self, symmetry):
        # strip widening toward the window x-edges: interior nodes reach the
        # complement vertically, edge nodes cannot (within the window)
        from dbar_range.geometry import EtaFunc

        xs = [-4.0, -3.0, -2.0, 0.0, 2.0, 3.0, 4.0]
        ys = [4.0, 2.75, 1.5, 1.5, 1.5, 2.75, 4.0]
        hi = EtaFunc({"x": xs, "y": ys})
        lo = EtaFunc({"x": xs, "y": [-v for v in ys]})
        return PlanarDomain(Strip(lo, hi), (-4, 4, -4, 4), 0.02, symmetry)

    def test_window_too_small_without_symmetry(self):
        with pytest.raises(ConfigurationError):
            condition_x(self.flared_strip("none"), M=2.0, delta=0.1)

    def test_symmetry_declaration_accepts_edge_nodes(self):
        cert = condition_x(self.flared_strip("translation_x"), M=2.0, delta=0.1)
        assert cert.holds
        assert cert.accepted_by_symmetry
        assert cert.unprovable_count > 0

    def test_monotone_in_parameters(self):
        dom = uniform_gallery(y_max=5.0, mesh=0.008)
        base = condition_x(dom, M=2.0, delta=0.08)
        assert base.holds
        assert condition_x(dom, M=2.5, delta=0.08).holds
        assert condition_x(dom, M=2.0, delta=0.04).holds

    def test_holds_implies_no_large_discs(self):
        dom = uniform_gallery(y_max=5.0, mesh=0.015)
        M = 2.0
        cert = condition_x(dom, M=M, delta=0.08)
        assert cert.holds
        rng = np.random.default_rng(5)
        pick = rng.choice(len(cert.sample_points), size=100, replace=False)
        for z in cert.sample_points[pick]:
            assert largest_disc_at(dom, complex(z), cap=M + dom.mesh) <= M

    def test_empty_domain_vacuously_holds(self):
        dom = PlanarDomain(Union(()), (-2, 2, -2, 2), 0.01)
        cert = condition_x(dom, M=1.0, delta=0.05)
        assert cert.holds
        assert len(cert.sample_points) == 0


class TestBuildLattice:
    def test_small_disc(self):
        # Omega = D(0, 0.4): lattice (Z)^2 points with discs meeting it
        dom = PlanarDomain(Disc(0, 0, 0.4), (-3, 3, -3, 3), 0.02)
        lat = build_lattice(condition_x(dom, M=1.0, delta=0.1))  # h=0.02 < 0.025
        pts = set(lat.points.tolist())
        assert 0j in pts
        # enumerate the 3x3 neighborhood: only points whose open unit disc
        # meets D(0, 0.4) qualify; corners at distance sqrt(2) > 1.4 don't
        for w in pts:
            assert abs(w) < 1.0 + 0.4
        for z, w in zip(lat.points, lat.witnesses):
            assert abs(z - w) <= 2 * 1.0 + 1e-9

    def test_empty_domain(self):
        dom = PlanarDomain(Union(()), (-2, 2, -2, 2), 0.01)
        lat = build_lattice(condition_x(dom, M=1.0, delta=0.05))
        assert len(lat) == 0

    def test_lattice_is_empty_exactly_without_inside_nodes(self):
        # the witnessed path and the early return of a domain with no node
        for dom, points in (
            (PlanarDomain(Disc(0, 0, 0.4), (-3, 3, -3, 3), 0.02), True),
            (PlanarDomain(Union(()), (-2, 2, -2, 2), 0.01), False),
        ):
            cert = condition_x(dom, M=1.0, delta=0.1)
            assert (len(build_lattice(cert)) > 0) == points == dom.raster.inside.any()
        assert cert.admissible is None

    def test_lattice_does_not_keep_its_certificate(self):
        # a command can drop the certificate's grids before weighing the lattice
        cert = condition_x(uniform_gallery(y_max=4.0), M=2.0, delta=0.1)
        ref = weakref.ref(cert)
        lat = build_lattice(cert)
        del cert
        assert ref() is None
        assert len(lat) > 0

    def test_gallery_coverage(self):
        # clause (b) oracle: every sampled core node within M of a lattice pt
        dom = uniform_gallery(y_max=5.0, mesh=0.015)
        M = 2.0
        lat = build_lattice(condition_x(dom, M=M, delta=0.08))
        r = dom.raster
        iy, ix = np.nonzero(r.inside)
        xs, ys = r.xs[ix], r.ys[iy]
        x0, x1, y0, y1 = dom.window
        core = (xs >= x0 + M) & (xs <= x1 - M) & (ys >= y0 + M) & (ys <= y1 - M)
        zs = xs[core] + 1j * ys[core]
        rng = np.random.default_rng(11)
        sample = rng.choice(len(zs), size=min(500, len(zs)), replace=False)
        for z in zs[sample]:
            assert np.min(np.abs(lat.points - z)) < M

    def test_witness_clearance_and_reach(self):
        dom = uniform_gallery(y_max=5.0, mesh=0.015)
        lat = build_lattice(condition_x(dom, M=2.0, delta=0.08))
        for w, ws in zip(lat.points, lat.witnesses):
            assert clearance(dom, ws) > 0.08
            assert abs(w - ws) <= 4.0 + 1e-9

    def test_requires_condition_x(self):
        dom = PlanarDomain(plane(), (-4, 4, -4, 4), 0.01)
        with pytest.raises(ConfigurationError):
            build_lattice(condition_x(dom, M=1.0, delta=0.05))


class TestOneMesh:
    def test_domain_is_frozen_with_one_raster(self):
        dom = unit_disc()
        with pytest.raises(FrozenInstanceError):
            dom.mesh = 0.01
        assert dom.raster is dom.raster and dom.raster.h == dom.mesh == 1 / 64
        coarse = replace(dom, mesh=0.1)
        assert coarse.raster is not dom.raster and coarse.raster.h == 0.1

    def test_condition_x_certificate_carries_its_domain(self):
        dom = uniform_gallery(y_max=4.0, mesh=0.02)
        cert = condition_x(dom, M=2.0, delta=0.1)
        assert cert.domain is dom and cert.raster is dom.raster
        lat = build_lattice(cert)
        assert (lat.M, lat.delta) == (2.0, 0.1) and len(lat) > 0

    @pytest.mark.parametrize("mesh", [0.0, None])
    def test_no_mesh_is_window_over_512(self, mesh):
        doc = {"window": {"x0": -2, "x1": 2, "y0": -1, "y1": 1},
               "tree": {"prim": "disc", "params": {"center": [0, 0], "radius": 1}}}
        if mesh is not None:
            doc["mesh"] = mesh
        assert domain_from_dict(doc).mesh == 4 / 512

    @pytest.mark.parametrize(
        "window, mesh",
        [((-2, 2, -2, 2), -0.05), ((-2, 2, -2, 2), math.nan), ((-2, 2, -2, 2), math.inf),
         # window/512 overflows
         ((-1e308, 1e308, -2, 2), 0.0)],
    )
    def test_bad_mesh_rejected(self, window, mesh):
        with pytest.raises(DomainSpecError, match="mesh must be finite and > 0"):
            PlanarDomain(Disc(0, 0, 1.0), window, mesh)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_non_finite_window_rejected(self, bound):
        with pytest.raises(DomainSpecError, match="window bounds must be finite"):
            PlanarDomain(Disc(0, 0, 1.0), (-2, bound, -2, 2), 0.05)


@pytest.mark.parametrize(
    "prim, params, what",
    [
        ("disc", {"center": [math.nan, 0], "radius": 1}, "disc centre and radius"),
        ("disc", {"center": [0, 0], "radius": math.nan}, "disc centre and radius"),
        ("rect", {"x0": -1, "x1": 1, "y0": math.nan, "y1": 1}, "rectangle bounds"),
        ("halfplane", {"a": [1, math.nan], "b": [0, 0]}, "half-plane coefficients"),
        ("halfplane", {"a": [1, 0], "b": [math.nan, 0]}, "half-plane coefficients"),
        ("strip", {"eta_lo": {"const": math.nan}, "eta_hi": {"const": 1}}, "eta constant"),
    ],
)
def test_primitive_rejects_nan(prim, params, what):
    # NaN fails every comparison, so a primitive's own checks let it through
    # and that part of the domain disappears
    doc = {"window": {"x0": -2, "x1": 2, "y0": -2, "y1": 2}, "mesh": 0.05,
           "tree": {"prim": prim, "params": params}}
    with pytest.raises(DomainSpecError, match=f"^{re.escape(what)} must be finite$"):
        domain_from_dict(json.loads(json.dumps(doc)))


class TestJsonRoundTrip:
    def doc(self):
        return {
            "window": {"x0": -8.0, "x1": 8.0, "y0": -8.0, "y1": 8.0},
            "mesh": 0.03125,
            "symmetry": "translation_x",
            "tree": {
                "op": "union",
                "children": [
                    {"prim": "disc", "params": {"center": [0.5, -0.25], "radius": 1.75}},
                    {"prim": "halfplane", "params": {"a": [1.0, 0.5], "b": [-0.125, 0.0]}},
                    {"prim": "rect", "params": {"x0": -3.0, "x1": -1.0, "y0": 0.0, "y1": 2.0}},
                    {
                        "op": "complement",
                        "children": [
                            {
                                "prim": "strip",
                                "params": {
                                    "eta_lo": {"const": -6.5},
                                    "eta_hi": {
                                        "x": [-8.0, -4.0, 0.0, 4.0, 8.0],
                                        "y": [-6.0, -5.5, -6.25, -5.75, -6.0],
                                    },
                                },
                            }
                        ],
                    },
                ],
            },
        }

    def test_lossless_round_trip(self):
        doc = self.doc()
        dom = domain_from_dict(doc)
        back = domain_to_dict(dom)
        assert back == doc
        # and through actual JSON text
        again = domain_to_dict(domain_from_dict(json.loads(json.dumps(back))))
        assert again == doc

    def test_rejects_garbage(self):
        with pytest.raises(DomainSpecError):
            domain_from_dict({"tree": {"prim": "blob", "params": {}}, "window": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}})
        with pytest.raises(DomainSpecError):
            domain_from_dict({"window": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}})
        with pytest.raises(DomainSpecError):
            domain_from_dict(
                {
                    "window": {"x0": 0, "x1": 1, "y0": 2, "y1": 1},
                    "tree": {"prim": "disc", "params": {"center": [0, 0], "radius": 1}},
                }
            )

    def test_strip_requires_order(self):
        dom = PlanarDomain(Strip.constant(1.0, 0.5), (-1, 1, -1, 1), 0.05)
        with pytest.raises(DomainSpecError):
            dom.raster

    def test_strip_samples_must_cover_window(self):
        strip = Strip(
            __import__("dbar_range.geometry", fromlist=["EtaFunc"]).EtaFunc(
                {"x": [-1.0, 1.0], "y": [0.0, 0.0]}
            ),
            __import__("dbar_range.geometry", fromlist=["EtaFunc"]).EtaFunc(
                {"const": 1.0}
            ),
        )
        dom = PlanarDomain(strip, (-4, 4, -4, 4), 0.05)
        with pytest.raises(DomainSpecError):
            dom.raster
