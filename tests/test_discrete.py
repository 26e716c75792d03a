import copy
import math

from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dbar_range import discrete
from dbar_range.discrete import (
    CooMatrix,
    assemble,
    closed_range_constant,
    lanczos,
    least_norm_solve,
    verify_certificate,
)
from dbar_range.geometry import (
    Complement,
    Disc,
    Intersection,
    MeshError,
    PlanarDomain,
    Rect,
    SolverError,
    Union,
)
from oracles import (
    abs2_field,
    constant_field,
    gaussian_decay_field,
    theta_factor,
    twisted_quadrature_check,
)
from strategies import csg_trees, radial_bump


def stalled_lanczos(factor, lap, **kw):
    return None


def disc_grid(radius=1.0, h=1 / 16, pad=1.0):
    w = radius + pad
    dom = PlanarDomain(Disc(0, 0, radius), (-w, w, -w, w), h)
    return assemble(dom)


def square_grid(h=1 / 16):
    dom = PlanarDomain(Rect(0, 1, 0, 1), (-0.5, 1.5, -0.5, 1.5), h)
    return assemble(dom)


def full_stencil(g):
    """Unknowns whose four raster neighbours are inside too, where `op`
    takes centred differences in both directions (exact on quadratics)."""
    inside = np.pad(g.domain.raster.inside, 1)
    core = inside[1:-1, 1:-1]
    full = core & inside[:-2, 1:-1] & inside[2:, 1:-1] & inside[1:-1, :-2] & inside[1:-1, 2:]
    return full[core]


class TestAssemble:
    def test_annihilates_constants_and_holomorphic(self):
        g = square_grid(1 / 8)
        ones = np.ones(g.size, dtype=complex)
        z = g.nodes_z
        for f, name in [(ones, "1"), (z, "z"), (z**2, "z^2")]:
            out = (g.op @ f)[full_stencil(g)]
            assert np.max(np.abs(out)) < 1e-12, name

    def test_zbar_derivative_is_one(self):
        g = square_grid(1 / 8)
        out = g.op @ np.conj(g.nodes_z)
        assert np.allclose(out[full_stencil(g)], 1.0, atol=1e-12)

    def test_unit_square_coarse_interior_count(self):
        # closed unit square on the grid: nodes at 0 and 1 included
        dom = PlanarDomain(Rect(-0.01, 1.01, -0.01, 1.01), (-2, 3, -2, 3), 1 / 4)
        g = assemble(dom)
        # 3x3 fully interior nodes at h = 1/4
        full = full_stencil(g)
        assert int(full.sum()) == 9
        ones = np.ones(g.size, dtype=complex)
        assert np.max(np.abs((g.op @ ones)[full])) == 0.0

    def test_laplacian_is_five_point_stencil(self):
        g = disc_grid(h=1 / 8)
        lap = g.lap.toarray() * g.h**2
        assert np.all(np.diagonal(lap) == 4.0)
        row, col = np.nonzero(lap)
        off = row != col
        assert np.all(lap[row[off], col[off]] == -1.0)
        # off-diagonal entries are exactly the inside grid neighbours
        d = g.nodes_z[row[off]] - g.nodes_z[col[off]]
        assert np.allclose(np.abs(d), g.h, rtol=1e-12)

    def test_mesh_preconditions(self):
        dom = PlanarDomain(Rect(0, 1, 0, 1), (-0.5, 1.5, -0.5, 1.5), 0.2)
        with pytest.raises(MeshError):
            assemble(dom)  # > window/16
        tiny = PlanarDomain(Disc(0, 0, 0.05), (-1, 1, -1, 1), 1 / 16)
        with pytest.raises(MeshError):
            assemble(tiny)  # < 16 interior nodes


THREE_STRIPS = Union(tuple(Rect(-1.8, 1.8, y - 0.2, y + 0.2) for y in (-1.3, 0.0, 1.3)))
ARCH = Union((Rect(-1.2, -0.8, -1.5, 0.9), Rect(0.8, 1.2, -1.5, 0.9), Rect(-1.2, 1.2, 0.9, 1.3)))


def assert_matches_dense(g, seed=0):
    """lambda_1 and solves of the line factor against dense numpy."""
    dense = g.lap.toarray()
    assert g.ground_state[0] == pytest.approx(np.linalg.eigvalsh(dense)[0], rel=1e-10)
    b = np.random.default_rng(seed).normal(size=(g.size, 2))
    ref = np.linalg.solve(dense, b)
    for x, r in ((g.lap_factor.solve(b), ref), (g.lap_factor.solve(b[:, 0]), ref[:, 0])):
        assert x.shape == r.shape
        assert np.linalg.norm(x - r) <= 1e-10 * np.linalg.norm(r)


def on_random_rasters(test):
    """Run `test(self, g)` on 60 derandomized CSG rasters."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(tree=csg_trees(), h=st.sampled_from([0.2, 0.25, 0.3]))
    def run(self, tree, h):
        try:
            g = assemble(PlanarDomain(tree, (-3, 3, -2.5, 3.5), h))
        except MeshError:
            assume(False)
        test(self, g)

    run.__name__ = test.__name__
    return run


class TestLineFactor:
    @on_random_rasters
    def test_matches_dense_on_random_rasters(self, g):
        assert_matches_dense(g)

    @pytest.mark.parametrize(
        "shape, window, h, axis",
        [
            # empty rows between the discs, whose columns overlap
            (Union((Disc(0, -1, 0.5), Disc(0.2, 1, 0.5))), (-2, 2, -2, 2), 1 / 16, 0),
            # rows and columns through the hole split into two runs
            (Intersection((Disc(0, 0, 1), Complement(Disc(0.1, 0, 0.4)))),
             (-1.5, 1.5, -1.5, 1.5), 1 / 16, 0),
            # one node per column
            (Rect(-1.95, 1.95, -0.04, 0.04), (-2, 2, -1, 1), 0.1, 1),
            (Rect(-1.9, 1.9, -0.3, 0.3), (-2, 2, -1, 1), 0.05, 1),
            (Rect(-0.3, 0.3, -1.9, 1.9), (-1, 1, -2, 2), 0.05, 0),
            (THREE_STRIPS, (-2, 2, -2, 2), 1 / 16, 1),
            (ARCH, (-2, 2, -2, 2), 1 / 16, 0),
        ],
        ids=["two_discs", "annulus", "ribbon", "wide_strip", "tall_strip", "three_strips",
             "arch"],
    )
    def test_matches_dense_on_hand_cases(self, shape, window, h, axis):
        g = assemble(PlanarDomain(shape, window, h))
        assert g.lap_factor.axis == axis
        assert_matches_dense(g)

    def test_runs_joined_only_later_keep_own_blocks(self):
        # columns across three strips: three blocks per column, each coupled
        # to the one before it in its strip
        g = assemble(PlanarDomain(THREE_STRIPS, (-2, 2, -2, 2), 1 / 16))
        columns = int(g.domain.raster.inside.any(axis=0).sum())
        sizes = [len(np.arange(g.size)[nodes]) for nodes, _, _ in g.lap_factor.blocks]
        assert len(sizes) == 3 * columns and max(sizes) == 7
        assert all(len(c) == 1 for _, _, c in g.lap_factor.blocks[3:])
        # rows up the arch: the two legs stay apart until the bar, whose
        # first row couples to both
        g = assemble(PlanarDomain(ARCH, (-2, 2, -2, 2), 1 / 16))
        couplings = [len(c) for _, _, c in g.lap_factor.blocks]
        assert couplings.count(2) == 1 and couplings.count(0) == 2

    def test_laplacian_is_twice_real_adj_h_adj(self):
        for h in (1 / 8, 0.1):
            g = disc_grid(h=h)
            adj = g.adj.toarray()
            np.testing.assert_allclose(
                g.lap.toarray(), 2 * (adj.conj().T @ adj).real, rtol=0, atol=1e-12 / h**2
            )

    def test_sigma_equals_scipy_shift_invert(self):
        # scipy stays a test-only oracle: ARPACK shift-invert on a sparse LU
        import scipy.sparse as sp
        from scipy.sparse.linalg import LinearOperator, eigsh, splu

        g = disc_grid(h=1 / 32, pad=0.5)
        lap = sp.csc_matrix(g.lap.toarray())
        inv = LinearOperator(lap.shape, matvec=splu(lap).solve, dtype=float)
        lam = eigsh(lap, k=1, sigma=0.0, OPinv=inv, v0=np.ones(g.size))[0][0]
        assert closed_range_constant(g) == pytest.approx(math.sqrt(lam) / 2, rel=1e-12)


class TestCooMatrix:
    def test_nnz_counts_distinct_entries(self):
        # duplicates are summed; a sum of zero stays an entry, as in CSR
        a = CooMatrix([0, 1, 0, 1, 2], [1, 0, 1, 0, 2], [1.0, 2.0, -1.0, 3.0, 4.0], (3, 4))
        assert a.nnz == 3
        assert np.array_equal(a.toarray(), [[0, 0, 0, 0], [5, 0, 0, 0], [0, 0, 4, 0]])
        assert a.H.shape == (4, 3) and a.H.nnz == 3
        assert np.array_equal(a @ np.arange(4.0), [0.0, 0.0, 8.0])

    def test_disc_operator_entries(self):
        # the traced discrete.nnz of the unit disc at h = 1/16 and 1/32
        for h, nnz in ((1 / 16, 3136), (1 / 32, 12748)):
            g = disc_grid(h=h, pad=0.5)
            assert g.op.nnz == np.count_nonzero(g.op.toarray()) == nnz

    def test_products_match_dense(self):
        g = disc_grid(h=1 / 8)
        rng = np.random.default_rng(5)
        for mat in (g.op, g.adj, g.lap):
            dense = mat.toarray()
            assert np.array_equal(mat.H.toarray(), dense.conj().T)
            x = rng.normal(size=(mat.shape[1], 2)) @ np.array([1, 1j])
            for out, ref in ((mat @ x, dense @ x), (mat @ x.real, dense @ x.real),
                             (mat.H @ (mat @ x), dense.conj().T @ (dense @ x)),
                             (mat.rmatvec(mat @ x), dense.conj().T @ (dense @ x))):
                assert out.shape == ref.shape
                assert np.allclose(out, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


    def test_int32_indices_give_the_int64_products(self):
        # the stored indices take the narrowest type that holds the shape;
        # every product is the one int64 indices give, bit for bit
        g = disc_grid(h=1 / 16)
        rng = np.random.default_rng(7)
        for mat in (g.op, g.adj, g.lap):
            assert mat.rows.dtype == mat.cols.dtype == np.int32
            wide = copy.copy(mat)
            wide.rows, wide.cols = mat.rows.astype(np.int64), mat.cols.astype(np.int64)
            x = rng.normal(size=(mat.shape[1], 2)) @ np.array([1, 1j])
            y = rng.normal(size=(mat.shape[0], 2)) @ np.array([1, 1j])
            assert np.array_equal(mat @ x, wide @ x)
            assert np.array_equal(mat.rmatvec(y), wide.rmatvec(y))
            assert np.array_equal(mat.H.toarray(), wide.H.toarray())
        big = CooMatrix([0, 2**31], [1, 0], [1.0, 2.0], (2**31 + 1, 2))
        assert big.rows.dtype == big.cols.dtype == np.int64
        assert big.rows.tolist() == [0, 2**31] and big.cols.tolist() == [1, 0]


def stencil_oracle(g):
    """`op` entry by entry: per direction, a centred difference where both
    neighbours are inside, else a one-sided one toward the inside
    neighbour, else nothing."""
    inside = np.pad(g.domain.raster.inside, 1)
    index = np.full(inside.shape, -1)
    index[inside] = np.arange(g.size)
    out = np.zeros((g.size, g.size), dtype=complex)
    for (iy, ix), k in np.ndenumerate(index):
        if k < 0:
            continue
        for (dy, dx), coef in (((0, 1), 0.5), ((1, 0), 0.5j)):
            plus, minus = index[iy + dy, ix + dx], index[iy - dy, ix - dx]
            if plus >= 0 and minus >= 0:
                out[k, plus] += coef / (2 * g.h)
                out[k, minus] -= coef / (2 * g.h)
            elif plus >= 0:
                out[k, plus] += coef / g.h
                out[k, k] -= coef / g.h
            elif minus >= 0:
                out[k, k] += coef / g.h
                out[k, minus] -= coef / g.h
    return out


class TestBuiltWhenRead:
    def test_verify_builds_neither_op_nor_a_transposed_adj(self):
        g = disc_grid(h=1 / 8)
        verify_certificate(g, 1.0)
        least_norm_solve(g, g.nodes_z)
        assert "ground_solve" in vars(g)
        assert "op" not in vars(g) and "H" not in vars(g.adj)

    @pytest.mark.parametrize(
        "shape, window, h",
        [
            (Disc(0, 0, 1), (-1.5, 1.5, -1.5, 1.5), 1 / 8),
            (Rect(-1.95, 1.95, -0.04, 0.04), (-2, 2, -1, 1), 0.1),  # one node per column
            (THREE_STRIPS, (-2, 2, -2, 2), 1 / 8),
        ],
        ids=["disc", "ribbon", "three_strips"],
    )
    def test_op_read_later_is_the_stencil(self, shape, window, h):
        g = assemble(PlanarDomain(shape, window, h))
        least_norm_solve(g, g.nodes_z)
        dense = stencil_oracle(g)
        assert g.op is g.op
        assert g.op.nnz == np.count_nonzero(dense)
        assert np.array_equal(g.op.toarray(), dense)

    @on_random_rasters
    def test_residual_from_triplets_is_the_transpose_product(self, g):
        alpha = np.random.default_rng(g.size).normal(size=(g.size, 2)) @ np.array([1, 1j])
        v, rep = least_norm_solve(g, alpha)
        assert "H" not in vars(g.adj)
        via_h = 0.5 * (g.adj.H @ v)
        assert np.array_equal(0.5 * g.adj.rmatvec(v), via_h)
        assert rep.residual == float(np.linalg.norm(via_h - alpha) / np.linalg.norm(alpha))


class TestLeastNormSolve:
    def test_zero_rhs(self):
        g = disc_grid(h=1 / 8)
        v, rep = least_norm_solve(g, np.zeros(g.size, dtype=complex))
        assert np.all(v == 0) and rep.ratio == 0.0

    def test_matches_dense_pseudo_inverse(self):
        # canonical solution = minimum-norm solution of dbar v = alpha with
        # dbar = adj^H / 2, against a dense pinv and a dense Poisson solve
        g = disc_grid(h=1 / 8)
        w = radial_bump(g.nodes_z, 0.2 + 0.1j, 0.5) * (1 + 0.3j)
        alpha = g.op @ w
        v, rep = least_norm_solve(g, alpha)
        dbar = 0.5 * g.adj.H.toarray()
        v_pinv = np.linalg.pinv(dbar) @ alpha
        assert np.linalg.norm(v - v_pinv) <= 1e-9 * np.linalg.norm(v_pinv)
        v_dense = g.adj @ np.linalg.solve(g.lap.toarray(), 4 * alpha)
        assert np.linalg.norm(v - v_dense) <= 1e-9 * np.linalg.norm(v_dense)
        assert rep.residual <= 1e-9 and rep.iterations == 0

    def test_minimality_beats_particular_solution(self):
        # a bump on the triangles solves dbar v = alpha for its own alpha;
        # the canonical solution is no longer, and its norm obeys the
        # energy identity ||v||^2 = <alpha, N alpha>
        g = disc_grid(h=1 / 8)
        w = radial_bump(g.tri_z, -0.1 + 0.2j, 0.6)
        alpha = 0.5 * (g.adj.H @ w)
        v, rep = least_norm_solve(g, alpha)
        tri_norm = g.h / math.sqrt(2)
        assert rep.v_norm <= tri_norm * np.linalg.norm(w) + 1e-12
        assert rep.v_norm == pytest.approx(tri_norm * np.linalg.norm(v), rel=1e-10)
        assert rep.residual <= 1e-9

    def test_orthogonal_to_discrete_kernel(self):
        # explicit kernel audit: dense SVD null space of dbar = adj^H / 2
        g = disc_grid(h=1 / 8)
        alpha = g.op @ radial_bump(g.nodes_z, 0.0j, 0.5)
        v, _ = least_norm_solve(g, alpha)
        u_, s_, _ = np.linalg.svd(g.adj.toarray())
        null = u_[:, int(np.sum(s_ > s_[0] * 1e-12)):]
        assert null.shape[1] == len(g.tri_z) - g.size
        assert np.linalg.norm(null.conj().T @ v) <= 1e-9 * np.linalg.norm(v)

    def test_ratio_bounded_across_bump_centers(self):
        g = disc_grid(h=1 / 8)
        sigma = closed_range_constant(g)
        for c in (0j, 0.3 + 0.3j, -0.5j, 0.6 + 0j):
            alpha = g.op @ radial_bump(g.nodes_z, c, 0.35)
            _, rep = least_norm_solve(g, alpha)
            assert rep.ratio <= 1.0 / sigma * (1 + 1e-9)


class TestClosedRangeConstant:
    def test_dense_equals_pinv_oracle(self):
        # dbar in orthonormal coordinates (weights h^2/2 and h^2) is adj^H/sqrt 2
        g = disc_grid(h=1 / 8)
        sigma = closed_range_constant(g)
        dbar = g.adj.H.toarray() / math.sqrt(2)
        oracle = 1.0 / np.linalg.norm(np.linalg.pinv(dbar), ord=2)
        assert sigma == pytest.approx(oracle, rel=1e-10)

    def test_exact_eigenvalue_square(self):
        # N x N nodes, spacing h, side (N + 1) h: lambda_1 = 8 sin^2(pi/(2N+2))/h^2
        h = 1 / 16
        g = square_grid(h)
        n = math.isqrt(g.size)
        assert n * n == g.size and n == 15
        lam = 8 * math.sin(math.pi / (2 * n + 2)) ** 2 / h**2
        assert g.ground_state[0] == pytest.approx(lam, rel=1e-10)
        assert closed_range_constant(g) == pytest.approx(math.sqrt(lam) / 2, rel=1e-10)

    def test_exact_eigenvalue_ribbon(self):
        # one-node-high ribbon of 39 nodes: a 1-D Dirichlet chain plus the
        # two vertical Dirichlet neighbours, lambda_1 = (2 + 4 sin^2(pi/80))/h^2
        h = 0.1
        dom = PlanarDomain(Rect(-1.95, 1.95, -0.04, 0.04), (-2, 2, -1, 1), h)
        g = assemble(dom)
        assert g.size == 39
        lam = (2 + 4 * math.sin(math.pi / 80) ** 2) / h**2
        assert g.ground_state[0] == pytest.approx(lam, rel=1e-10)
        assert closed_range_constant(g) == pytest.approx(math.sqrt(lam) / 2, rel=1e-10)

    def test_disc_sigma_converges_to_bessel_zero(self):
        # continuum sigma_min on the unit disc is j_{0,1}/2
        ref = 2.404825557695773 / 2
        errs = [
            abs(closed_range_constant(disc_grid(h=h, pad=0.5)) - ref) / ref
            for h in (1 / 16, 1 / 32, 1 / 64)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.01

    def test_disc_scaling_halves_sigma(self):
        # fixed h/R: grids are exact rescalings, sigma scales like 1/R
        sigmas = {}
        for R in (1.0, 2.0):
            g = disc_grid(radius=R, h=R / 16, pad=0.25 * R)
            sigmas[R] = closed_range_constant(g)
        assert sigmas[2.0] / sigmas[1.0] == pytest.approx(0.5, abs=1e-10)

    def test_domain_monotonicity_nested_discs(self):
        # shared window and mesh: nested discs, sigma non-increasing
        h = 0.35
        window = (-8.5, 8.5, -8.5, 8.5)
        values = []
        for R in (1.0, 2.0, 4.0, 8.0):
            dom = PlanarDomain(Disc(0, 0, R), window, h)
            values.append(closed_range_constant(assemble(dom)))
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_eigensolver_failure_states_residual(self, monkeypatch):
        g = disc_grid(h=1 / 8)

        def inaccurate(factor, lap, **kw):
            vec = np.ones(lap.shape[0]) / math.sqrt(lap.shape[0])
            return 1.0, vec, 1, float(np.linalg.norm(lap @ vec - vec))

        monkeypatch.setattr(discrete, "lanczos", inaccurate)
        with pytest.raises(SolverError, match="relative residual"):
            closed_range_constant(g)

        monkeypatch.setattr(discrete, "lanczos", stalled_lanczos)
        with pytest.raises(SolverError, match="no Ritz pair"):
            closed_range_constant(disc_grid(h=1 / 8))

    def test_iteration_cap_stops_lanczos(self, monkeypatch):
        # the real iteration, capped at 2 steps: the last Ritz pair comes
        # back with its step count, and the 1e-8 gate rejects it
        g = disc_grid(h=1 / 8)
        lam, vec, steps, resid = lanczos(g.lap_factor, g.lap, maxiter=2)
        assert steps == 2 and np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)
        assert resid == pytest.approx(np.linalg.norm(g.lap @ vec - lam * vec) / lam, rel=1e-12)
        assert resid > 1e-8
        assert lanczos(g.lap_factor, g.lap)[2] > 2
        monkeypatch.setattr(discrete, "lanczos", partial(lanczos, maxiter=2))
        with pytest.raises(SolverError, match=f"lambda_1 ~ {lam:.6g}, relative residual"):
            closed_range_constant(g)


class TestVerifyCertificate:
    def test_certified_constant_passes(self):
        g = disc_grid(h=1 / 8)
        sigma = closed_range_constant(g)
        rep = verify_certificate(g, 1.0 / sigma)
        assert rep["passed"]
        assert rep["witness_ratio"] <= 1.0 / sigma * (1 + 1e-9)

    def test_eigenvector_witness_attains_constant(self):
        g = disc_grid(h=1 / 16)
        bound = 1.0 / closed_range_constant(g)
        rep = verify_certificate(g, 1.0)
        assert rep["witness_ratio"] == pytest.approx(bound, rel=1e-9)
        assert rep["margin"] == 1.0 * (1 + 1e-6) - rep["witness_ratio"]
        below = verify_certificate(g, bound * (1 - 1e-5))
        assert not below["passed"]

    def test_eigensolver_failure_raises(self, monkeypatch):
        monkeypatch.setattr(discrete, "lanczos", stalled_lanczos)
        with pytest.raises(SolverError, match="no Ritz pair"):
            verify_certificate(disc_grid(h=1 / 8), 1.0)

    def test_tiny_constant_fails(self):
        g = disc_grid(h=1 / 8)
        rep = verify_certificate(g, 1e-9)
        assert not rep["passed"]

    def test_replayable(self):
        a = verify_certificate(disc_grid(h=1 / 8), 1.0)
        b = verify_certificate(disc_grid(h=1 / 8), 1.0)
        assert a == b


def bump_form(center, radius):
    return lambda z: radial_bump(z, center, radius) * (0.7 - 0.2j)


class TestTwistedQuadrature:
    def test_flat_weights_slack_nonnegative_exactly(self):
        g = disc_grid(h=1 / 16)
        slack = twisted_quadrature_check(
            constant_field(0.0), constant_field(1.0), bump_form(0j, 0.5), g
        )
        assert slack >= 0.0

    def test_zero_form(self):
        g = disc_grid(h=1 / 16)
        slack = twisted_quadrature_check(
            constant_field(0.0), constant_field(1.0), lambda z: np.zeros(len(z)), g
        )
        assert slack == 0.0

    def test_gaussian_weight_random_bumps(self):
        g = disc_grid(h=1 / 32)
        rng = np.random.default_rng(13)
        lam = abs2_field(1.0)
        tau = constant_field(1.0)
        for _ in range(20):
            c = (rng.uniform(-0.3, 0.3) + 1j * rng.uniform(-0.3, 0.3))
            r = rng.uniform(0.2, 0.4)
            slack = twisted_quadrature_check(lam, tau, bump_form(c, r), g)
            assert slack >= -50 * g.h**2

    def test_twisted_pair_slack(self):
        g = disc_grid(h=1 / 32)
        alpha = 0.5
        lam = abs2_field(alpha)
        tau = gaussian_decay_field(alpha)
        slack = twisted_quadrature_check(lam, tau, bump_form(0.1 + 0.1j, 0.4), g)
        assert slack >= -50 * g.h**2

    def test_support_near_boundary_rejected(self):
        g = disc_grid(h=1 / 16)
        with pytest.raises(ValueError):
            twisted_quadrature_check(
                constant_field(0.0),
                constant_field(1.0),
                bump_form(0.5 + 0j, 0.6),
                g,
            )

    def test_theta_factor_agrees_with_form_algebra(self):
        # the integrand of the twisted check against the (0,1)-form algebra
        # on C in closed form: for lambda = alpha |z|^2 and
        # tau = exp(-alpha |z|^2),
        # tau lambda_zzbar - tau_zzbar - |tau_z|^2 / tau
        #   = 2 alpha (1 - alpha |z|^2) exp(-alpha |z|^2)
        alpha = 0.5
        lam = abs2_field(alpha)
        tau = gaussian_decay_field(alpha)
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = complex(rng.normal(), rng.normal()) * 0.5
            factor = float(theta_factor(lam, tau, np.array([z]))[0])
            r2 = abs(z) ** 2
            exact = 2 * alpha * (1 - alpha * r2) * math.exp(-alpha * r2)
            assert factor == pytest.approx(exact, rel=1e-12)
