import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from dbar_range import geometry, scenarios, weights
from dbar_range.geometry import (
    ConfigurationError,
    Disc,
    LatticeVerificationError,
    LatticeWitnessSet,
    PlanarDomain,
    Rect,
    Union,
    build_lattice,
    condition_x,
)
from dbar_range.weights import (
    CompositeCertification,
    CutoffProfile,
    PointSeriesWeight,
    StripWeightFamily,
    certificate,
    certify_composite,
    lattice_weight_report,
    weight_constants,
)
from oracles import (
    composite_weight,
    constant_strip,
    load_domain,
    plane,
    sample_points,
    series_value,
    series_zzbar,
    strip_weight,
)
from strategies import csg_trees, drop_witnesses

ROOT = Path(__file__).resolve().parent.parent


def series_A_oracle(M, delta):
    """Independent closed form via zeta(3)."""
    tail = float(mpmath.zeta(3) - 1 - mpmath.mpf(1) / 8 - mpmath.mpf(1) / 27)
    near = sum((2 * g + 7) ** 2 / g**4 for g in range(1, 4))
    return 49.0 * delta**-4 + (near + 56.0 * tail) / M**4


def make_gallery(mesh=0.045):
    strips = tuple(
        constant_strip(j - 0.75, j - 0.25) for j in range(-5, 7)
    )
    return PlanarDomain(Union(strips), (-6, 6, -6, 6), mesh, "translation_x")


class TestWeightConstants:
    def test_B_exact(self):
        A, B = weight_constants(1.0, 1.0)
        assert B == 4.0 / 729.0

    def test_A_matches_series_oracle(self):
        for M, delta in [(1.0, 1.0), (2.0, 0.3), (0.5, 0.1)]:
            A, _ = weight_constants(M, delta)
            oracle = series_A_oracle(M, delta)
            assert abs(A - oracle) < 1e-6
            assert A >= oracle  # rigorous upper bound

    def test_A_reference_value(self):
        # 49 + 81 + 121/16 + 169/81 + 56*(zeta(3) - 1 - 1/8 - 1/27)
        A, _ = weight_constants(1.0, 1.0)
        assert A == pytest.approx(141.8902, abs=2e-4)

    def test_B_scaling(self):
        _, B1 = weight_constants(1.3, 0.4)
        _, B2 = weight_constants(2.6, 0.4)
        assert B2 == pytest.approx(B1 / 64.0, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            weight_constants(0.0, 1.0)
        with pytest.raises(ValueError):
            weight_constants(1.0, -1.0)


def cover_oracle(r, M, points):
    """(z, cover) of every inside node in row-major order: each node against
    every point, in point order, keeping a point only when np.abs puts it
    within M and strictly nearer than the best so far."""
    iy, ix = np.nonzero(r.inside)
    zs = r.xs[ix] + 1j * r.ys[iy]
    best = np.full(len(zs), np.inf)
    cover = np.full(len(zs), -1)
    for j, p in enumerate(points):
        d = np.abs(zs - p)
        better = (d < M) & (d < best)
        best[better] = d[better]
        cover[better] = j
    return zs, cover


def uncovered(r, M, points):
    """The nodes the covering pass yields, all its blocks joined."""
    return np.concatenate([np.array([], dtype=complex), *geometry._cover(r, M, points)])


def thinned(points, M):
    """The points without their three columns l = -1, 0, 1: the nodes with
    |x| < M then lie M or more from every point, with their rint point
    unlisted."""
    return points[np.abs(points.real) > 1.5 * M]


def fast_nodes(zs, M, points):
    """The nodes zs that the covering pass covers without a distance: their
    rint point (rint(x/M), rint(y/M)) is listed among `points`.  Returns
    that mask and the index of each node's rint point in `points`, -1 when
    not listed."""
    listed = {(round(p.real / M), round(p.imag / M)): j for j, p in enumerate(points)}
    l, k = np.rint(zs.real / M).astype(int), np.rint(zs.imag / M).astype(int)
    rint = np.array([listed.get(lk, -1) for lk in zip(l.tolist(), k.tolist())])
    return rint >= 0, rint


def binary_gallery():
    # nodes k/32 apart, all exact, so with M = 1 every node at x or y = 1/2
    # mod 1 lies on a bisector of the lattice and ties exactly
    return replace(make_gallery(), mesh=1 / 32)


def miscovered_rect():
    # this rect wrongly declares translation_x: edge nodes accepted by the
    # symmetry lie beyond the reach of every lattice point
    rect = Rect(-2.5, 0.8339, 0.0, 4.0)
    dom = PlanarDomain(rect, (-1.9446, 2.0554, -2.0, 2.3056), 0.03, "translation_x")
    return condition_x(dom, 1.450574808902904, 0.18370715135139506)


class TestSeriesWeight:
    def test_single_witness_closed_form(self):
        phi = PointSeriesWeight(np.array([0j]))
        assert series_value(phi, 1.0 + 0j) == 1.0
        assert series_zzbar(phi, 1.0 + 0j) == 4.0

    def test_zzbar_matches_finite_differences(self):
        # oracle: Laplacian/4 of |z - w|^-4 equals 4 |z - w|^-6
        w = PointSeriesWeight(np.array([0j]))

        def phi(z):
            return series_value(w, z)

        z = 1.3 + 0.4j
        h = 1e-4
        lap = (
            phi(z + h) + phi(z - h) + phi(z + 1j * h) + phi(z - 1j * h) - 4 * phi(z)
        ) / h**2
        zzbar = series_zzbar(w, z)
        assert lap / 4.0 == pytest.approx(4.0 * abs(z) ** -6, rel=1e-6)
        assert zzbar <= lap / 4.0 * (1 + 1e-6)

    def test_empty_witness_set_errors(self):
        # the plane fills its window, so no node is admissible and no point
        # is kept; every node is an edge node accepted by the symmetry, and
        # the first one is the first left uncovered
        dom = PlanarDomain(plane(), (-1.0, 1.0, -1.0, 1.0), 0.05, "translation_x")
        cert = condition_x(dom, M=1.5, delta=0.3)
        assert cert.holds and cert.admissible is None
        with pytest.raises(LatticeVerificationError) as err:
            build_lattice(cert)
        assert str(err.value) == f"coverage clause violated at sampled node {-1.0 - 1.0j}"

    def test_uncovered_point_errors(self):
        # without the points of its two lowest rows the lattice leaves the
        # lowest strip uncovered: those nodes come first in row-major order
        # but lie within M of the window's edge; without 0 and i too it
        # leaves nodes near i/2 uncovered, and clause (b) names the first
        cert = condition_x(make_gallery(), M=1.0, delta=0.2)
        r, M = cert.raster, cert.M
        points = build_lattice(cert).points
        # z: the domain node nearest the node nearest each point
        ziy, zix = r.nearest_index(points)
        out = ~r.inside[ziy, zix]
        ziy[out], zix[out] = geometry._nearest(
            geometry._ColumnPass(r.inside), r.h, ziy[out], zix[out]
        )
        for drop, clause in ((points.imag <= -5, "coverage clause"),
                             (np.isin(points, [0j, 1j]), "clause (b)")):
            drop_witnesses(cert, ziy[drop], zix[drop])
            with mock.patch.object(geometry, "_cover", wraps=geometry._cover) as cover_pass:
                with pytest.raises(LatticeVerificationError) as err:
                    build_lattice(cert)
            assert str(err.value).startswith(f"{clause} violated")
        zs, cover = cover_oracle(r, M, cover_pass.call_args.args[2])
        x0, x1, y0, y1 = cert.domain.window
        fit = (zs.real >= x0 + M) & (zs.real <= x1 - M) & (zs.imag >= y0 + M) & (zs.imag <= y1 - M)
        first, first_fit = np.argmax(cover < 0), np.argmax((cover < 0) & fit)
        assert first < first_fit and abs(zs[first_fit] - 0.5j) < 0.5
        assert str(err.value) == (f"clause (b) violated: sampled node {zs[first_fit]} "
                                  "is not covered by any lattice disc")

    def test_empty_raster_has_no_weight(self):
        dom = PlanarDomain(Union(()), (-2, 2, -2, 2), 0.01)
        lat = build_lattice(condition_x(dom, M=1.0, delta=0.05))
        assert len(lat) == 0
        with pytest.raises(ValueError, match="^domain has no rasterized nodes$"):
            lattice_weight_report(lat)

    def test_cover_matches_scan_over_all_nodes(self):
        # real lattices, each with nodes on the bisectors of the lattice that
        # two points cover exactly as near (x = odd integers on the shipped
        # gallery at M = 2)
        for dom, M, delta in [
            (binary_gallery(), 1.0, 0.2),
            (load_domain(ROOT / "domains" / "uniform_gallery.json"), 2.0, 0.1),
            (make_gallery(), 0.6, 0.2),
        ]:
            self.check_cover(dom, M, delta)

    @staticmethod
    def check_cover(dom, M, delta):
        lat = build_lattice(condition_x(dom, M, delta))
        r = dom.raster
        zs, cover = cover_oracle(r, M, lat.points)
        assert cover.min() >= 0
        # the fast nodes: their listed rint point lies within M/sqrt(2) of
        # each, on the bisectors too, so it covers them
        fast, rint = fast_nodes(zs, M, lat.points)
        assert fast.any()
        assert np.all(np.abs(zs[fast] - lat.points[rint[fast]]) <= M / math.sqrt(2) * (1 + 1e-12))
        # most nodes form no distance
        assert (~fast).sum() < len(zs) / 2
        # the pass yields the oracle's uncovered nodes, in row-major order:
        # none of the lattice's, and those of it thinned, where some slow
        # nodes are covered and some are not
        assert uncovered(r, M, lat.points).size == 0
        points = thinned(lat.points, M)
        zs, cover = cover_oracle(r, M, points)
        slow = ~fast_nodes(zs, M, points)[0]
        assert (slow & (cover >= 0)).any() and (cover < 0).any()
        assert np.array_equal(uncovered(r, M, points), zs[cover < 0])

    @pytest.mark.parametrize("lines", [1, 3, 7])
    def test_stats_equal_the_default_block(self, lines):
        # two lattices of 267 and 385 raster rows: multiples of no block
        # size tried
        doms = [(make_gallery(), 1.0, 0.2), (binary_gallery(), 1.0, 0.2)]

        def run():
            out = []
            for dom, M, delta in doms:
                dom = replace(dom)
                lat = build_lattice(condition_x(dom, M, delta))
                out.append((lat.points.tolist(), lat.witnesses.tolist(),
                            uncovered(dom.raster, M, thinned(lat.points, M)).tolist(),
                            lattice_weight_report(lat)))
            return out

        want = run()
        assert [len(d.raster.ys) for d, _, _ in doms] == [267, 385]
        # on the thinned points the pass yields the oracle's uncovered
        # nodes, in row-major order
        for (dom, M, _), (points, _, nodes, _) in zip(doms, want):
            zs, cover = cover_oracle(dom.raster, M, thinned(np.array(points), M))
            assert nodes and nodes == zs[cover < 0].tolist()
        with mock.patch.object(geometry, "_LINES", lines):
            assert run() == want

    def test_coverage_error_names_the_first_uncovered_node(self):
        cert = miscovered_rect()
        r, M = cert.raster, cert.M
        with mock.patch.object(geometry, "_cover", wraps=geometry._cover) as cover_pass:
            with pytest.raises(LatticeVerificationError):
                build_lattice(cert)
        # the oracle: every inside node against every kept point, row-major
        zs, cover = cover_oracle(r, M, cover_pass.call_args.args[2])
        miss = int(np.argmax(cover < 0))
        assert cover[miss] < 0 and zs[miss].imag > r.ys[0]
        # no miss has a full search disc, so none violates clause (b)
        x0, x1, y0, y1 = cert.domain.window
        z = zs[cover < 0]
        assert not np.any((z.real >= x0 + M) & (z.real <= x1 - M)
                          & (z.imag >= y0 + M) & (z.imag <= y1 - M))
        for lines in (geometry._LINES, 1):
            with mock.patch.object(geometry, "_LINES", lines):
                with pytest.raises(LatticeVerificationError) as err:
                    build_lattice(cert)
            assert str(err.value) == f"coverage clause violated at sampled node {zs[miss]}"

    def test_tail_contract(self):
        # enlarging the truncation moves phi by at most the tail beyond
        # gamma annuli, 56/M^4 * 1/(2 gamma^2), on which A's tail rests;
        # phi_gamma sums |z - w*|^-4 over the witnesses within gamma
        # annuli (sup-norm, in units of M) of the lattice point covering z
        dom = make_gallery()
        lat = build_lattice(condition_x(dom, M=1.0, delta=0.2))
        ws = lat.witnesses

        def truncated(z, gamma):
            d = np.abs(lat.points - z)
            assert d.min() < lat.M
            w0 = lat.points[int(np.argmin(d))]
            linf = np.maximum(np.abs(ws.real - w0.real), np.abs(ws.imag - w0.imag))
            keep = np.ceil(linf / lat.M - 1e-12) <= gamma
            return float(np.sum(np.abs(ws[keep] - z) ** -4.0))

        rng = np.random.default_rng(3)
        zs = lat.points[rng.choice(len(lat.points), 5, replace=False)]
        for g in (1, 2, 4):
            tail = 56.0 / lat.M**4 * (1.0 / (2.0 * g**2))
            for z in zs:
                z = complex(z) + 0.05 + 0.05j
                p_small, p_big = truncated(z, g), truncated(z, g + 1)
                assert 0 <= p_big - p_small <= tail + 1e-12

    def test_gallery_grid_bounds(self):
        # Lemma-style conclusion on the grid: phi <= A over the inside nodes,
        # and 4 |z - w*|^-6 >= B, w* the witness of z's covering point
        dom = make_gallery()
        lat = build_lattice(condition_x(dom, M=1.0, delta=0.2))
        rep = lattice_weight_report(lat)
        r = dom.raster
        zs, cover = cover_oracle(r, lat.M, lat.points)
        assert cover.min() >= 0
        assert float(np.min(4.0 * np.abs(zs - lat.witnesses[cover]) ** -6.0)) >= rep["B"]
        w = PointSeriesWeight(lat.witnesses)

        def phi(z):
            return series_value(w, z)

        assert float(np.max(phi(zs))) <= rep["A"]
        # 5-point Laplacian/4 of the series over all witnesses at the inside
        # nodes: it agrees with the analytic bound direction up to O(h^2)
        h = r.h
        fd = (
            phi(zs + h) + phi(zs - h) + phi(zs + 1j * h) + phi(zs - 1j * h) - 4.0 * phi(zs)
        ) / (4.0 * h * h)
        assert fd.min() >= rep["B"] - 10 * h**2
        # and it is the analytic zzbar to O(h^2): each second difference is
        # off by h^2/12 times a 4th derivative of |z - w|^-4, which is at
        # most 840 |z - w|^-8 (Gegenbauer bound), taken within h of z
        bound = np.empty(len(zs))
        for i in range(0, len(zs), 2000):
            d = np.abs(zs[i : i + 2000, None] - lat.witnesses[None, :])
            bound[i : i + 2000] = 35.0 * h**2 * np.sum((d - h) ** -8.0, axis=1)
        assert np.all(np.abs(fd - series_zzbar(w, zs)) <= bound)

    def test_report_payload(self):
        dom = make_gallery()
        lat = build_lattice(condition_x(dom, M=1.0, delta=0.2))
        rep = lattice_weight_report(lat)
        assert set(rep) == {"M", "delta", "A", "B", "C", "log10_C", "kind"}
        assert (rep["A"], rep["B"]) == weight_constants(1.0, 0.2)
        # e^A overflows, so C is reported as null beside its log10
        cert = certificate(rep["A"], rep["B"])
        assert cert.C == math.inf and rep["C"] is None
        assert (rep["log10_C"], rep["kind"]) == (cert.log10_C, "bounded")


# (power, scale) of the series weight and of its zzbar
SUMS = [(-4.0, 1.0), (-6.0, 4.0)]


def full_extreme(ws, r, iy, ix, power, scale, largest):
    vals = weights._phi_many(ws, r.xs[ix] + 1j * r.ys[iy], power, scale)
    return float(np.max(vals) if largest else np.min(vals))


@st.composite
def witness_sets(draw, r):
    """Witnesses anywhere near the window, on raster lines, on tile edges
    (the first or last node line of a tile), midway between two tiles, and
    on nodes where two such lines meet."""
    tile = weights._TILE

    def coord(axis):
        lo, hi = float(axis[0]), float(axis[-1])
        how = draw(st.sampled_from(["free", "line", "tile_edge", "tile_gap"]))
        if how == "free":
            return draw(st.floats(lo - 1.5, hi + 1.5))
        if how == "line":
            return float(axis[draw(st.integers(0, len(axis) - 1))])
        k = draw(st.integers(0, (len(axis) - 1) // tile))
        i = min(k * tile + draw(st.sampled_from([0, tile - 1])), len(axis) - 1)
        if how == "tile_edge" or i + 1 >= len(axis):
            return float(axis[i])
        return 0.5 * float(axis[i] + axis[i + 1])

    n = draw(st.integers(1, 12))
    return np.array([complex(coord(r.xs), coord(r.ys)) for _ in range(n)])


class TestCoveringPass:
    """`build_lattice`'s covering pass against `cover_oracle`, every inside
    node against every kept point, on random rasters: with nodes on the
    bisectors of the lattice (M/h an even integer, so that the half-integer
    multiples of M are nodes, exactly at h = 2^-k), with lattice points
    dropped, and at several block sizes."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(
        tree=csg_trees(),
        h=st.sampled_from([1 / 16, 1 / 32, 0.05]),
        k=st.integers(4, 25),
        off=st.sampled_from([0.0, 0.0, 0.37]),
        drop=st.sampled_from([0.0, 0.1, 0.5]),
        seed=st.integers(0, 2**32 - 1),
        lines=st.sampled_from([1, 3, 64]),
    )
    def test_uncovered_nodes_and_errors_equal_the_oracle(self, tree, h, k, off, drop, seed,
                                                         lines):
        M = min((2 * k + off) * h, 2.5)
        dom = PlanarDomain(tree, (-3.0, 3.0, -2.5, 3.5), h, "translation_x")
        cert = condition_x(dom, M, 5.5 * h)
        assume(cert.holds)
        r = cert.raster
        x0, x1, y0, y1 = dom.window
        # the domain node z of every lattice point build_lattice tries, and
        # a random share of them without a witness
        ls = np.arange(math.floor((x0 - M) / M), math.ceil((x1 + M) / M) + 1)
        ks = np.arange(math.floor((y0 - M) / M), math.ceil((y1 + M) / M) + 1)
        w = (ls[:, None] * M + 1j * (ks[None, :] * M)).ravel()
        ziy, zix = r.nearest_index(w)
        out = ~r.inside[ziy, zix]
        if r.inside.any():
            ziy[out], zix[out] = geometry._nearest(r.inside_pass, r.h, ziy[out], zix[out])
        gone = np.random.default_rng(seed).random(len(w)) < drop
        drop_witnesses(cert, ziy[gone], zix[gone])
        with mock.patch.object(geometry, "_LINES", lines), \
                mock.patch.object(geometry, "_cover", wraps=geometry._cover) as cover_pass:
            try:
                lat, err = build_lattice(cert), None
            except LatticeVerificationError as exc:
                lat, err = None, str(exc)
        # clauses (a) and (c) are checked before the pass
        assume(cover_pass.called)
        points = cover_pass.call_args.args[2]
        zs, cover = cover_oracle(r, M, points)
        miss = cover < 0
        with mock.patch.object(geometry, "_LINES", lines):
            assert np.array_equal(uncovered(r, M, points), zs[miss])
        fit = miss & (zs.real >= x0 + M) & (zs.real <= x1 - M)
        fit &= (zs.imag >= y0 + M) & (zs.imag <= y1 - M)
        event("clause (b)" if fit.any() else "coverage clause" if miss.any() else "covered")
        if fit.any():
            assert err == (f"clause (b) violated: sampled node {zs[np.argmax(fit)]} "
                           "is not covered by any lattice disc")
        elif miss.any():
            assert err == f"coverage clause violated at sampled node {zs[np.argmax(miss)]}"
        else:
            assert err is None and len(lat) == len(points)


class TestGridExtreme:
    @pytest.mark.parametrize("seeds", [1, weights._SEED_TILES])
    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_equals_full_grid_extreme_exactly(self, seeds, data):
        # the pruned scan must return the very float np.max / np.min of the
        # full-grid sums returns, in both modes and for both sums, however
        # few tiles give the first value
        h = data.draw(st.sampled_from([0.03, 0.05, 0.07]))
        w, hgt = data.draw(st.floats(0.5, 6.0)), data.draw(st.floats(0.5, 6.0))
        x0, y0 = data.draw(st.floats(-3.0, 0.0)), data.draw(st.floats(-3.0, 0.0))
        dom = PlanarDomain(data.draw(csg_trees()), (x0, x0 + w, y0, y0 + hgt), h)
        r = dom.raster
        xs, mask = r.xs, r.inside
        if data.draw(st.booleans()):  # a column of the nodes, as for b
            cut = data.draw(st.floats(0.0, 3.0))
            central = np.abs(r.xs) <= cut
            if data.draw(st.booleans()):
                mask = mask & central
            else:  # the view of those columns, as certify_composite takes it
                assume(central.any())
                (run,) = weights._runs(central)
                xs, mask = r.xs[run], r.inside[:, run]
        iy, ix = np.nonzero(mask)
        assume(len(iy) > 0)
        ws = data.draw(witness_sets(r))
        # a witness on or next to a node gives inf
        with np.errstate(divide="ignore", over="ignore"), \
                mock.patch.object(weights, "_SEED_TILES", seeds):
            for power, scale in SUMS:
                for largest in (True, False):
                    got = weights._grid_extreme(ws, xs, r.ys, mask, power, scale, largest)
                    want = weights._phi_many(ws, xs[ix] + 1j * r.ys[iy], power, scale)
                    assert got == float(np.max(want) if largest else np.min(want))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        corner=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
        size=st.tuples(st.integers(1, 16), st.integers(1, 16)),
        wx=st.one_of(st.integers(-30, 30), st.floats(-30, 30)),
        wy=st.one_of(st.integers(-30, 30), st.floats(-30, 30)),
        h=st.sampled_from([0.01, 0.03, 0.1]),
    )
    def test_tile_bounds_hold_at_every_node(self, corner, size, wx, wy, h):
        # on a full box of nodes the farthest point is a node, and so is the
        # nearest one when the witness sits on a node line or off both
        # ranges: there the bound has only its slack to spare
        xs = h * np.arange(corner[0], corner[0] + size[0])
        ys = h * np.arange(corner[1], corner[1] + size[1])
        ws = np.array([complex(h * wx, h * wy)])
        zs = (xs[None, :] + 1j * ys[:, None]).ravel()
        with np.errstate(divide="ignore", over="ignore"):
            for power, scale in SUMS:
                vals = weights._phi_many(ws, zs, power, scale)
                for largest in (True, False):
                    (bound,) = weights._tile_bounds(
                        ws, xs[:1], xs[-1:], ys[:1], ys[-1:], power, scale, largest
                    )
                    if largest:
                        assert np.all(vals < bound) or np.isinf(bound)
                    else:
                        assert np.all((vals > bound) | (vals == np.inf))

    def test_highest_bound_tile_need_not_hold_the_max(self):
        # tile (0, 0) holds the nodes 15 and 15j, so its box corner 15 + 15j
        # lies next to the witness and it has the highest bound; the max is
        # at the one node 17 of tile (0, 1), whose bound passes the first
        # value by only 0.3 %
        inside = np.zeros((16, 32), dtype=bool)
        inside[0, 15] = inside[15, 0] = inside[0, 17] = True

        class Grid:
            xs = np.arange(32.0)
            ys = np.arange(16.0)

        iy, ix = np.nonzero(inside)
        ws = np.array([16.1 + 16.1j])
        want = full_extreme(ws, Grid, iy, ix, -4.0, 1.0, True)
        assert want == full_extreme(ws, Grid, np.array([0]), np.array([17]), -4.0, 1.0, True)
        assert want < 1.004 * full_extreme(ws, Grid, np.array([0]), np.array([15]), -4.0, 1.0, True)
        with mock.patch.object(weights, "_SEED_TILES", 1):
            assert weights._grid_extreme(ws, Grid.xs, Grid.ys, inside, -4.0, 1.0, True) == want

    def test_max_evaluates_few_nodes_on_the_gallery(self, monkeypatch):
        # the certify max of phi: a few percent of the nodes decide it
        dom = load_domain(ROOT / "domains" / "uniform_gallery.json")
        lat = build_lattice(condition_x(dom, M=2.0, delta=0.1))
        r = dom.raster
        iy, ix = np.nonzero(r.inside)
        want = full_extreme(lat.witnesses, r, iy, ix, -4.0, 1.0, True)
        evaluated = []
        phi_many = weights._phi_many

        def counting(ws, zs, power, scale):
            evaluated.append(len(zs))
            return phi_many(ws, zs, power, scale)

        monkeypatch.setattr(weights, "_phi_many", counting)
        assert weights._grid_extreme(lat.witnesses, r.xs, r.ys, r.inside, -4.0, 1.0, True) == want
        assert sum(evaluated) < 0.05 * len(iy)

    def test_no_nodes_raises(self):
        r = make_gallery().raster
        none = np.zeros_like(r.inside)
        with pytest.raises(ValueError):
            weights._grid_extreme(np.array([5j]), r.xs, r.ys, none, -4.0, 1.0, True)


def loop_lattice(dom, M, delta, cert):
    """The lattice as one Python loop over (l, k) that snaps the complex
    witness pairs back to the grid, takes its nearest domain nodes and
    clearances from scipy's distance transform, decides clause (a) over
    every node outside the domain and, without a declared symmetry, the
    outside of the window, and covers every inside node by `cover_oracle`:
    the oracle of the array version."""
    if not cert.holds:
        raise ConfigurationError("condition X does not hold")
    r = cert.raster
    empty = np.array([], dtype=complex)
    if not r.inside.any():
        return LatticeWitnessSet(M, delta, empty, empty)
    witnessed_z, witness_points = sample_points(cert), cert.witness_points
    sample_row = np.full(r.inside.shape, -1, dtype=np.int32)
    sx = np.clip(np.rint((witnessed_z.real - r.xs[0]) / r.h), 0, len(r.xs) - 1)
    sy = np.clip(np.rint((witnessed_z.imag - r.ys[0]) / r.h), 0, len(r.ys) - 1)
    sample_row[sy.astype(np.intp), sx.astype(np.intp)] = np.arange(len(witnessed_z))
    dist_in, in_idx = ndimage.distance_transform_edt(
        ~r.inside, sampling=r.h, return_indices=True
    )
    oy, ox = np.nonzero(~r.inside)
    outside = r.xs[ox] + 1j * r.ys[oy]

    x0, x1, y0, y1 = dom.window
    lmin, lmax = math.floor((x0 - M) / M), math.ceil((x1 + M) / M)
    kmin, kmax = math.floor((y0 - M) / M), math.ceil((y1 + M) / M)
    points, witnesses = [], []
    for l in range(lmin, lmax + 1):
        for k in range(kmin, kmax + 1):
            w = complex(l * M, k * M)
            niy = int(np.clip(round((w.imag - r.ys[0]) / r.h), 0, len(r.ys) - 1))
            nix = int(np.clip(round((w.real - r.xs[0]) / r.h), 0, len(r.xs) - 1))
            if r.inside[niy, nix]:
                ziy, zix = niy, nix
            else:
                ziy, zix = int(in_idx[0][niy, nix]), int(in_idx[1][niy, nix])
            if abs(w - r.node_z(ziy, zix)) >= M * (1 - 1e-12):
                continue
            row = sample_row[ziy, zix]
            if row < 0:
                continue
            points.append(w)
            witnesses.append(complex(witness_points[row]))
            beyond = min(w.real - x0, x1 - w.real, w.imag - y0, y1 - w.imag) < M
            if not (np.abs(w - outside) < M).any() and not (
                dom.symmetry == "none" and beyond
            ):
                raise LatticeVerificationError(f"clause (a) violated at w={w}")
    points_arr = np.asarray(points, dtype=complex)
    witnesses_arr = np.asarray(witnesses, dtype=complex)
    for w, ws in zip(points_arr, witnesses_arr):
        iy, ix = r.nearest_index(complex(ws))
        if dist_in[iy, ix] <= delta:
            raise LatticeVerificationError(f"clause (c)(i) violated at w={w}")
    gap = np.abs(points_arr - witnesses_arr)
    if gap.size and float(gap.max()) > 2 * M + 1e-12:
        raise LatticeVerificationError("clause (c)(ii) violated")
    zs, cover = cover_oracle(r, M, points_arr)
    miss = zs[cover < 0]
    fits = (miss.real >= x0 + M) & (miss.real <= x1 - M)
    fits &= (miss.imag >= y0 + M) & (miss.imag <= y1 - M)
    if fits.any():
        raise LatticeVerificationError("clause (b) violated")
    if miss.size:
        raise LatticeVerificationError("coverage clause violated")
    return LatticeWitnessSet(M, delta, points_arr, witnesses_arr)


def lattice_outcome(build):
    """The points and witnesses, or the clause a LatticeVerificationError
    names."""
    try:
        lat = build()
    except LatticeVerificationError as exc:
        return ("error", str(exc).split(" violated")[0])
    return ("ok", lat.points.tolist(), lat.witnesses.tolist())


def origin_witness(dom, delta):
    """(|n - n*|, |n*|) for the node n nearest 0 and its nearest admissible
    node n*, or None when n lies outside the domain or no node is
    admissible."""
    r = dom.raster
    n = r.nearest_index(0j)
    admissible = ~r.inside & (ndimage.distance_transform_edt(~r.inside, sampling=r.h) > delta)
    if not r.inside[n] or not admissible.any():
        return None
    dist, idx = ndimage.distance_transform_edt(~admissible, sampling=r.h, return_indices=True)
    return float(dist[n]), abs(r.node_z(idx[0][n], idx[1][n]))


class TestVectorisedLattice:
    def test_box_search_settles_clause_a_at_an_inside_node(self):
        # the node n nearest the lattice point w = 0 lies off it, inside a
        # disc, and M sits between the distances from n and from w to the
        # witness: the witness cannot settle clause (a), the box search must
        dom = PlanarDomain(Disc(0, 0, 1.0), (-3.013, 3.0, -3.007, 3.0), 0.02)
        near, far = origin_witness(dom, 0.1)
        assert near < far
        M = (near + far) / 2
        cert = condition_x(dom, M, 0.1)
        assert cert.holds
        with mock.patch.object(
            geometry, "_distance_to_outside", wraps=geometry._distance_to_outside
        ) as search:
            got = lattice_outcome(lambda: build_lattice(cert))
        assert search.call_count == 1
        assert got[0] == "ok" and 0j in got[1]
        assert got == lattice_outcome(lambda: loop_lattice(dom, M, 0.1, cert))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_equals_the_loop(self, data):
        h = data.draw(st.sampled_from([0.03, 0.045]))
        delta = data.draw(st.floats(4.5 * h, 0.4))
        x0, y0 = data.draw(st.floats(-3.0, -0.5)), data.draw(st.floats(-3.0, -0.5))
        w, hgt = data.draw(st.floats(4.0, 6.5)), data.draw(st.floats(4.0, 6.5))
        symmetry = data.draw(st.sampled_from(["none", "translation_x"]))
        dom = PlanarDomain(data.draw(csg_trees()), (x0, x0 + w, y0, y0 + hgt), h, symmetry)
        at_origin = origin_witness(dom, delta)
        if at_origin is not None and at_origin[0] < at_origin[1] and data.draw(st.booleans()):
            # w = 0 is a lattice point for every M; put M where its witness
            # cannot settle clause (a), so that the box search runs
            M = sum(at_origin) / 2
        else:
            M = data.draw(st.floats(0.3, 2.5))
        try:
            cert = condition_x(dom, M, delta)
        except ConfigurationError:  # a clipped search disc with no symmetry
            assume(False)
        assume(cert.holds)
        assert lattice_outcome(lambda: build_lattice(cert)) == (
            lattice_outcome(lambda: loop_lattice(dom, M, delta, cert))
        )


class TestStripWeight:
    def test_band_edge_value(self):
        v, zz = strip_weight(0.0, 3.0, 3.0j)
        assert v == 0.0 and zz == 0.5

    def test_unit_inside_strip(self):
        v, zz = strip_weight(0.0, 3.0, 2.0j)
        assert v == 1.0 and zz == 0.5

    def test_quadratic_zzbar_matches_fd_oracle(self):
        c_prev, c_j = 0.0, 3.0
        d = 1e-5
        for y in (1.8, 2.2, 2.9):
            vals = [strip_weight(c_prev, c_j, complex(0, y + k * d))[0] for k in (-1, 0, 1)]
            fd = (vals[0] - 2 * vals[1] + vals[2]) / d**2 / 4.0
            assert fd == pytest.approx(0.5, rel=1e-4)

    def test_collar_value_bounded(self):
        c_prev, c_j = 0.0, 2.0
        for y in np.linspace(0, 2, 101):
            v, _ = strip_weight(c_prev, c_j, complex(0, y))
            assert 0.0 <= v <= (c_j - c_prev) ** 2

    def test_outside_band_rejected(self):
        with pytest.raises(ValueError):
            strip_weight(0.0, 1.0, 2.0j)
        with pytest.raises(ValueError):
            strip_weight(1.0, 0.0, 0.5j)

    def test_family_matches_single_band(self):
        fam = StripWeightFamily([0.0, 1.0, 2.0], quad_from=[0.2, 1.2])
        v, zz = strip_weight(1.0, 2.0, 1.7j, quad_from=1.2)
        assert fam.value(np.array([1.7]))[0] == pytest.approx(v)
        assert fam.zzbar(np.array([1.7]))[0] == pytest.approx(zz)
        assert fam.value(np.array([-0.5]))[0] == 0.0

    def test_family_reads_heights_from_real_input(self):
        # the family takes an array of heights: the collar of each band has
        # a negative Hessian, which the single-band oracle gives bit for bit
        fam = StripWeightFamily([0.0, 1.0, 2.0], quad_from=[0.2, 1.2])
        for lo, hi, qf in ((0.0, 1.0, 0.2), (1.0, 2.0, 1.2)):
            ys = np.array([lo + 0.03, lo + 0.1, lo + 0.17])
            want = np.array([strip_weight(lo, hi, complex(0, y), quad_from=qf) for y in ys])
            assert np.array_equal(fam.value(ys), want[:, 0])
            assert np.array_equal(fam.zzbar(ys), want[:, 1])
        assert fam.zzbar(np.array([0.1]))[0] == pytest.approx(-8.75, rel=1e-5)

    def test_family_sup_dy_bounds_the_dense_gradient(self):
        fam = StripWeightFamily([0.0, 1.0, 2.0], quad_from=[0.2, 1.2])
        assert "sup_dy" not in vars(fam)  # sampled when first read
        for lo, hi, qf in ((0.0, 1.0, 0.2), (1.0, 2.0, 1.2)):
            ys = np.linspace(lo, hi, 20001)
            vals = [strip_weight(lo, hi, y, quad_from=qf)[0] for y in ys]
            assert fam.sup_dy >= np.max(np.abs(np.gradient(vals, ys)))
        assert fam.sup_dy > 7.0


class TestPointSeriesWeight:
    def test_zzbar_fd_oracle(self):
        w = PointSeriesWeight(np.array([2.5 + 1j, -2.5 - 0.5j]))

        def phi(z):
            return series_value(w, z)

        z = 0.3 + 0.2j
        h = 1e-4
        lap = (phi(z + h) + phi(z - h) + phi(z + 1j * h) + phi(z - 1j * h) - 4 * phi(z)) / h**2
        assert series_zzbar(w, z) == pytest.approx(lap / 4.0, rel=1e-5)


class TestCutoffProfile:
    @pytest.mark.parametrize(
        "lo, hi", [(2.0, 3.0), (0.0, 1.0), (-1.0, 0.5), (0.3, 0.31), (5.0, 100.0), (1e-3, 2e-3)]
    )
    def test_sups_equal_the_full_array_gradients(self, lo, hi):
        # the blocks with their halos give np.gradient's very values
        chi = CutoffProfile(lo, hi)
        xs = np.linspace(lo - 0.05, hi + 0.05, 1 << 16)
        d1 = np.gradient(chi.value(xs), xs)
        d2 = np.gradient(d1, xs)
        assert chi.sup_d1 == 1.05 * float(np.max(np.abs(d1)))
        assert chi.sup_d2 == 1.05 * float(np.max(np.abs(d2)))

    def test_memory_stays_below_1_5_mb(self):
        # the whole-array gradients held about ten 2^16-float temporaries
        # (5.25 MB); a block of 2^12 samples at a time peaks at 0.87 MB,
        # 0.52 MB of it the samples' abscissae
        tracemalloc.start()
        try:
            CutoffProfile(2.0, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


def toy_composite():
    strips = tuple(constant_strip(j - 0.75, j - 0.25) for j in range(-3, 5))
    tree = Union(strips + (Rect(-2.0, 2.0, -4.0, 4.0),))
    dom = PlanarDomain(tree, (-6, 6, -5, 5), 0.05)
    fam = StripWeightFamily(
        [float(j) for j in range(-5, 6)],
        quad_from=[j - 0.8 for j in range(-4, 6)],
    )
    ys = np.arange(-4, 5, dtype=float)
    wits = np.concatenate([2.5 + 1j * ys, -2.5 + 1j * ys])
    lattice = PointSeriesWeight(wits)
    return dom, CutoffProfile(2.0, 3.0), fam, lattice


def per_node_composite(dom, chi, fam, lattice, K=None):
    """certify_composite as one pass over the inside nodes: every field at
    every node, and b and the lattice max as full-grid extremes."""
    r = dom.raster
    iy, ix = np.nonzero(r.inside)
    zs = r.xs[ix] + 1j * r.ys[iy]
    ax = np.abs(zs.real)
    inner = ax <= chi.lo
    trans = (ax > chi.lo) & (ax < chi.hi)
    outer = ax >= chi.hi
    central = ax <= chi.hi
    b = float(np.min(series_zzbar(lattice, zs[central]))) if central.any() else 0.0
    lattice_max = float(np.max(series_value(lattice, zs)))
    s_outer = float(np.min(fam.zzbar(zs[outer].imag))) if outer.any() else 0.5
    s_trans = float(np.min(fam.zzbar(zs[trans].imag))) if trans.any() else 0.0
    if trans.any():
        yt = zs[trans].imag
        d = r.h
        dy = np.abs(fam.value(yt + d) - fam.value(yt - d)) / (2 * d)
        sup_dy_trans = 1.05 * float(np.max(dy))
        phi_max_trans = float(np.max(fam.value(yt)))
        cross = chi.sup_d1 * sup_dy_trans / 2.0 + chi.sup_d2 * phi_max_trans / 4.0
    else:
        cross = chi.sup_d1 * fam.sup_dy / 2.0 + chi.sup_d2 * fam.sup_value / 4.0

    def bound_for(Kv):
        parts = []
        if outer.any():
            parts.append(s_outer)
        if inner.any():
            parts.append(Kv * b)
        if trans.any():
            parts.append(Kv * b - cross + chi.value(chi.lo) * min(0.0, s_trans))
        return min(parts) if parts else 0.0

    if K is None:
        K = 1.0
        while K <= 2.0**64 and not bound_for(K) > 0:
            K *= 2.0
        if K > 2.0**64:
            K /= 2.0
    regions = {"inner": int(inner.sum()), "transition": int(trans.sum()),
               "outer": int(outer.sum())}
    return {"b": b, "A_bound": fam.sup_value + K * lattice_max, "crossbound": cross,
            "B_prime": bound_for(K), "K": K, "regions": regions}


def collar_composite():
    # the column reaches into the transition band at every height, so
    # transition nodes sit on the collars, where the strip Hessian is
    # negative and its y-difference is steep
    dom, chi, fam, lattice = toy_composite()
    strips = tuple(constant_strip(j - 0.75, j - 0.25) for j in range(-3, 5))
    tree = Union(strips + (Rect(-2.5, 2.5, -4.0, 4.0),))
    return PlanarDomain(tree, dom.window, dom.mesh), chi, fam, lattice


class TestComposite:
    @pytest.mark.parametrize("build", [
        toy_composite,
        collar_composite,
        lambda: scenarios.omega_s_composite(mesh=0.05),
    ], ids=["toy", "collar", "omega_s_spline"])
    @pytest.mark.parametrize("K", [None, 3.0])
    def test_equals_the_per_node_computation(self, build, K):
        dom, chi, fam, lattice = build()
        cert = certify_composite(dom, chi, fam, lattice, K=K)
        want = per_node_composite(dom, chi, fam, lattice, K=K)
        assert want["regions"]["transition"] > 0
        for key, value in want.items():
            assert getattr(cert, key) == value, key

    def test_memory_stays_below_1_9_bytes_per_node_on_omega_s(self):
        # no grid-sized mask: 2.34 B a node with the central columns' mask
        # and fancy-indexed column copies, 1.73 B without them, 0.88 B with
        # blocks of 2^13 pairwise terms (2^15 before)
        dom, chi, fam, lattice = scenarios.omega_s_composite()
        nodes = dom.raster.inside.size
        tracemalloc.start()
        try:
            cert = certify_composite(dom, chi, fam, lattice)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.certified
        assert peak < 1.0 * nodes

    def test_regional_bounds(self):
        dom, chi, fam, lattice = toy_composite()
        cert = certify_composite(dom, chi, fam, lattice)
        assert cert.certified
        assert cert.B_prime > 0
        b = cert.b
        v, low = composite_weight(chi, fam, lattice, cert.K, 4.0 + 0.6j, b)
        assert low >= 0.5
        v, low = composite_weight(chi, fam, lattice, cert.K, 0.5 + 0.6j, b)
        assert low == pytest.approx(cert.K * b)

    def test_b_and_A_are_full_grid_extremes(self):
        # b: min of the lattice zzbar over |Re z| <= chi.hi; A: strip sup
        # plus K times the max of the lattice value, both over every node
        dom, chi, fam, lattice = toy_composite()
        cert = certify_composite(dom, chi, fam, lattice)
        r = dom.raster
        iy, ix = np.nonzero(r.inside)
        zs = r.xs[ix] + 1j * r.ys[iy]
        central = np.abs(zs.real) <= chi.hi
        assert cert.b == float(np.min(series_zzbar(lattice, zs)[central]))
        assert cert.A_bound == fam.sup_value + cert.K * float(np.max(series_value(lattice, zs)))

    def test_small_K_reports_failure(self):
        dom, chi, fam, lattice = toy_composite()
        cert = certify_composite(dom, chi, fam, lattice, K=1e-12)
        assert isinstance(cert, CompositeCertification)
        assert not cert.certified
        assert cert.B_prime <= 0

    def test_doubling_threshold(self):
        # scan K: below the doubling-search answer the bound stays negative
        dom, chi, fam, lattice = toy_composite()
        auto = certify_composite(dom, chi, fam, lattice)
        below = certify_composite(dom, chi, fam, lattice, K=auto.K / 4)
        assert not below.certified


def test_certify_chain_stays_below_32_bytes_per_node():
    # the grid passes stream in line blocks and no column pass is
    # stored, so only the raster and the admissible bit mask span the
    # grid: 10.0 B a node with the admissible and inside column passes
    # stored, 3.78 B without
    dom = load_domain(ROOT / "domains" / "uniform_gallery.json")
    tracemalloc.start()
    try:
        cert = condition_x(dom, M=2.0, delta=0.1)
        lat = build_lattice(cert)
        lattice_weight_report(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes = dom.raster.inside.size
    assert nodes == 361_201
    assert peak < 4.4 * nodes


def test_certify_chain_with_raster_stays_below_6_1_bytes_per_node():
    # from a freshly loaded domain, so that the raster build is traced:
    # no column pass is stored, the admissible nodes are a bit mask, and
    # every temporary has the size of one block; 8.2 B a node with the
    # witnessed grid and the cached inside column pass, 5.56 B with the
    # admissible and inside column passes stored, 2.17 B without
    dom = replace(load_domain(ROOT / "domains" / "uniform_gallery.json"), mesh=0.01)
    tracemalloc.start()
    try:
        cert = condition_x(dom, M=2.0, delta=0.1)
        lat = build_lattice(cert)
        lattice_weight_report(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes = cert.raster.inside.size
    assert nodes == 1_442_401
    assert peak < 2.5 * nodes


def test_raster_and_certificate_hold_at_most_3_bytes_per_node():
    # inside (bool), the admissible nodes packed 8 to a byte and the two
    # int16 tables of their column pass (1/32 B a node each at 64 rows a
    # block); the rest are the raster's axes.  The name keeps the bound
    # of the stored int16 column pass, 3 B a node; it now holds 1.25 B
    cert = condition_x(load_domain(ROOT / "domains" / "uniform_gallery.json"), M=2.0, delta=0.1)
    r, adm = cert.raster, cert.admissible
    ny, nx = r.inside.shape
    assert adm.shape == (ny, nx) and adm.mask.shape == (ny, -(-nx // 8))
    arrays = [v for obj in (r, cert, adm) for v in vars(obj).values()
              if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= 1.25 * r.inside.size + 8 * (ny + nx)


def test_strip_gallery_weight_equals_the_per_node_values():
    # the uniform preset, with the fd Hessian and the max of the strip
    # weight taken at every inside node
    params = scenarios.uniform_gallery_params()
    got = scenarios.strip_gallery(**params)["measured"]["strip_weight"]
    c = params["c"]
    dom, meta = scenarios.gallery_domain(
        c, params["bands"], (-8.0, 8.0, c[0] - 2.0, c[-1] + 2.0), 0.05
    )
    fam = StripWeightFamily(c, [a + 0.9 * meta["lo_margin"] for a in c[:-1]])
    r = dom.raster
    ys = r.ys[np.nonzero(r.inside)[0]]
    vals = fam.value(ys)
    d = r.h
    fd = (fam.value(ys + d) - 2 * vals + fam.value(ys - d)) / (d * d) / 4.0
    assert got == {"fd_min_zzbar": float(np.min(fd)), "phi_max": float(np.max(vals))}


class TestCertificate:
    def test_trivial_identities(self):
        cert = certificate(0.0, 2.0)
        assert cert.C == 1.0 and cert.kind == "bounded"

    def test_formulas_random(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            A, B = rng.uniform(0.1, 10.0, size=2)
            assert certificate(A, B).C == math.exp(A) * math.sqrt(2.0 / B)

    def test_log_scale_for_huge_constants(self):
        A, B = weight_constants(1.0, 1.0)
        cert = certificate(A, B)
        assert cert.log10_C == pytest.approx(
            A / math.log(10) + 0.5 * math.log10(2 / B), rel=1e-12
        )
        # A ~ 141.9 gives log10 C ~ 62.9: finite but astronomically large
        assert 60 < cert.log10_C < 70
        huge = certificate(1e6, 1.0)
        assert huge.C == math.inf and math.isfinite(huge.log10_C)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            certificate(1.0, 0.0)
        with pytest.raises(ValueError):
            certificate(-1.0, 1.0)
