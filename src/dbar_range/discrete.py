"""Discretized Cauchy-Riemann operator on rasterized planar domains.

Two discretizations live on the raster's inside nodes.

`op` maps node values of a function to node values of its dzbar
derivative (du/dx + i du/dy)/2, with centered differences where both
neighbors are inside and one-sided differences toward the boundary.  It
imposes no boundary condition; it serves the twisted quadrature check, and
`DbarGrid` builds it only when first read.

The closed-range constant and the canonical solution go through the
dbar-Neumann operator.  In one variable, box = dbar dbar* on (0,1)-forms is
-(1/4) Laplacian with a Dirichlet condition (Hormander 1965), so the
constant in ||u|| <= C ||dbar u|| is 1/sigma_min with sigma_min =
sqrt(lambda_1)/2, and the canonical solution of dbar v = alpha is
v = dbar* N alpha with N = 4 (-Laplacian_D)^(-1).  Discretely, the
(0,1)-forms are P1 functions on the raster's right-triangle split that
vanish off the inside nodes, `adj` = dbar* = -d/dz maps them to piecewise
constants on the triangles, and `lap` = 2 Re(adj^H adj) is the P1
stiffness matrix over the lumped mass h^2, which is exactly the 5-point
Dirichlet Laplacian.  One block LDL^T factor of `lap` over raster lines
(`LineFactor`) serves both the eigenvalue and every solve.  A constant C
is verified by one solve: the canonical solution for the lambda_1
eigenvector attains 1/sigma_min, so no other data can exceed its ratio.
Node norms use the weight h^2 per node, triangle norms h^2/2 per
triangle.

What is built when: `assemble` builds `adj`, `lap` and its factor, which
is all verify reads; the lambda_1 eigenpair and its canonical solution are
built on first read and kept on the grid.  No step of verify builds `op`
or a transposed copy of `adj`.  The module needs numpy alone, and not
numpy.ma either (see `_distinct`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .geometry import MeshError, PlanarDomain, SolverError, _ColumnPass, _near

__all__ = [
    "CooMatrix",
    "LineFactor",
    "DbarGrid",
    "SolveReport",
    "assemble",
    "lanczos",
    "least_norm_solve",
    "closed_range_constant",
    "verify_certificate",
    "twisted_quadrature_check",
    "WeightField",
    "constant_field",
    "abs2_field",
    "gaussian_decay_field",
    "theta_factor",
]

# Lanczos stops when the relative residual of its Ritz pair reaches
# LANCZOS_TOL, or after LANCZOS_STEPS steps.
LANCZOS_TOL = 1e-10
LANCZOS_STEPS = 100
# verify_certificate passes a constant C when the discrete constant is at
# most C (1 + VERIFY_TOL)
VERIFY_TOL = 1e-6


class CooMatrix:
    """A sparse matrix as sorted (row, col, value) triplets.

    Entries are sorted by row, then column, and duplicates are summed, so
    `nnz` counts distinct entries and `A @ x` adds each row's products in
    column order, as a CSR product does.  `H` is the conjugate transpose.
    `rows` and `cols` are int32 when both dimensions fit it, which takes
    8 of the 32 B of a complex entry.
    """

    def __init__(self, rows, cols, vals, shape: tuple[int, int]):
        self.shape = (int(shape[0]), int(shape[1]))
        key = np.asarray(rows, dtype=np.int64) * self.shape[1] + np.asarray(cols, dtype=np.int64)
        order = np.argsort(key, kind="stable")
        key, vals = key[order], np.asarray(vals)[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        index = np.int32 if max(self.shape) <= np.iinfo(np.int32).max else np.int64
        self.rows, self.cols = (a.astype(index) for a in np.divmod(key[first], self.shape[1]))
        self.vals = np.add.reduceat(vals, first) if len(first) else vals

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @cached_property
    def H(self) -> CooMatrix:
        return CooMatrix(self.cols, self.rows, self.vals.conj(), self.shape[::-1])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out

    def __matmul__(self, x) -> np.ndarray:
        return _scatter(self.rows, self.vals * np.asarray(x)[self.cols], self.shape[0])

    def rmatvec(self, x) -> np.ndarray:
        """A^H x from the stored triplets, without building `H`.

        The entries are sorted by row, so each column's products are summed
        in row order, as `H @ x` sums them: the two agree bit for bit.
        """
        return _scatter(self.cols, self.vals.conj() * np.asarray(x)[self.rows], self.shape[1])


def _scatter(bins, prod, n) -> np.ndarray:
    """Sums of `prod` per bin, each in the order the products come."""
    out = np.bincount(bins, weights=prod.real, minlength=n)
    if np.iscomplexobj(prod):
        out = out + 1j * np.bincount(bins, weights=prod.imag, minlength=n)
    return out


def _distinct(a) -> np.ndarray:
    """The sorted distinct values of `a`.  Plain `np.unique(a)` imports
    numpy.ma (numpy 2.x checks for a masked array), about 1 MB resident."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


class LineFactor:
    """Block LDL^T factor of the 5-point Dirichlet Laplacian over raster lines.

    Ordered line by line, h^2 `lap` is block tridiagonal: the block D_k of
    line k holds 4 on the diagonal and -1 between neighbours on the line,
    and consecutive lines couple through -1 between nodes at the same
    position.  Elimination line by line (George, SIAM J. Numer. Anal. 10,
    1973) keeps the dense inverse of each Schur complement
    S_k = D_k - B_k^T S_{k-1}^{-1} B_k, for O(sum m_k^3) time and
    O(sum m_k^2) memory with m_k inside nodes on line k.  The lines are the
    raster rows or its columns, whichever gives the smaller sum of m_k^3.

    A line may be empty or split into runs.  S_k couples two runs only if
    earlier lines join them, so the runs of a line fall into groups joined
    that way, and each group is one block with its own dense inverse,
    coupled to the blocks of the line before that share its positions.
    Strips cut across thus cost the sum over strips, not the cube of the
    whole line.  `index` maps grid nodes to unknowns (-1 outside).
    """

    def __init__(self, index: np.ndarray, h: float):
        inside = index >= 0
        by_rows = np.sum(inside.sum(axis=1) ** 3) <= np.sum(inside.sum(axis=0) ** 3)
        self.axis = 0 if by_rows else 1
        grid = index if by_rows else index.T
        line, pos = np.nonzero(grid >= 0)
        self.order = grid[line, pos]
        self.scale = h * h
        # per block: (its nodes in line order, the inverse of its Schur
        # complement, couplings [(earlier block, its local nodes p, the local
        # nodes q here at the same positions)])
        self.blocks = []
        starts = np.flatnonzero(np.diff(line, prepend=-1))
        # block and local index of the node at each position of the line before
        no_line = np.full(grid.shape[1], -1)
        above_block, above_local, prev_line = no_line, no_line, -2
        for s, e in zip(starts, np.append(starts[1:], len(line))):
            here = pos[s:e]
            up = above_block[here] if prev_line == line[s] - 1 else no_line[here]
            run = np.cumsum(np.diff(here, prepend=-2) != 1) - 1
            # runs that share an earlier block fall in one group
            group = np.arange(run[-1] + 1)
            for b in _distinct(up[up >= 0]) if run[-1] else ():
                joined = np.isin(group, group[run[up == b]])
                group[joined] = group[joined].min()
            node_group = group[run]
            block, local = no_line.copy(), no_line.copy()
            # each group is labelled by its first run
            for g in np.flatnonzero(group == np.arange(len(group))):
                loc = np.flatnonzero(node_group == g)
                block[here[loc]], local[here[loc]] = len(self.blocks), np.arange(len(loc))
                S = 4.0 * np.eye(len(loc))
                nb = np.flatnonzero(np.diff(here[loc]) == 1)
                S[nb, nb + 1] = S[nb + 1, nb] = -1.0
                couplings = []
                for b in _distinct(up[loc]):
                    if b >= 0:
                        at = here[loc[up[loc] == b]]
                        p, q = above_local[at], local[at]
                        S[np.ix_(q, q)] -= self.blocks[b][1][np.ix_(p, p)]
                        couplings.append((b, p, q))
                nodes = slice(s, e) if len(loc) == e - s else s + loc
                self.blocks.append((nodes, np.linalg.inv(S), couplings))
            above_block, above_local, prev_line = block, local, line[s]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """lap^(-1) b for a real vector or a matrix of column vectors."""
        y = np.asarray(b, dtype=float)[self.order]
        w = []
        for nodes, sinv, couplings in self.blocks:
            z = y[nodes]
            for k, p, q in couplings:
                z[q] += w[k][p]
            w.append(sinv @ z)
        # back substitution; an earlier block couples to at most one later
        # block, the group its line's successor joins it into
        x = np.empty_like(y)
        pending = [None] * len(w)
        for k in reversed(range(len(w))):
            nodes, sinv, couplings = self.blocks[k]
            xk = w[k] if pending[k] is None else w[k] + sinv @ pending[k]
            x[nodes] = xk
            for kb, p, q in couplings:
                pending[kb] = np.zeros_like(w[kb])
                pending[kb][p] = xk[q]
        out = np.empty_like(x)
        out[self.order] = self.scale * x
        return out


def lanczos(factor: LineFactor, lap: CooMatrix, maxiter: int = LANCZOS_STEPS):
    """Lowest eigenpair of `lap` by Lanczos on its inverse `factor.solve`.

    The start vector is all ones and every new Krylov vector is
    orthogonalised twice against all earlier ones.  After each step the
    largest Ritz pair of the inverse gives x, with lambda the Rayleigh
    quotient of `lap` at x.  The iteration stops when the relative residual
    ||lap x - lambda x|| / (lambda ||x||) is at most LANCZOS_TOL, when the
    Krylov space is invariant, or after `maxiter` steps.  Returns (lambda,
    x, steps, residual) with ||x|| = 1 and that relative residual, the last
    pair also when the cap stopped it, or None when no finite Ritz pair was
    formed.

    The Krylov vectors fill the rows of one array of min(maxiter, n) rows
    in place; its rows not yet written take no resident memory.
    """
    n = lap.shape[0]
    steps = min(maxiter, n)
    basis = np.empty((steps, n))
    basis[0] = 1.0 / math.sqrt(n)
    alphas, betas = [], []
    found = None
    for step in range(1, steps + 1):
        q = basis[:step]
        w = factor.solve(q[-1])
        alphas.append(float(q[-1] @ w))
        for _ in range(2):
            w -= q.T @ (q @ w)
        beta = float(np.linalg.norm(w))
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        if not (np.isfinite(tri).all() and math.isfinite(beta)):
            break
        y = np.linalg.eigh(tri)[1][:, -1]
        x = y @ q
        x /= np.linalg.norm(x)
        lx = lap @ x
        lam = float(x @ lx)
        resid = float(np.linalg.norm(lx - lam * x) / abs(lam))
        found = (lam, x, step, resid)
        if resid <= LANCZOS_TOL or beta == 0.0 or step == steps:
            break
        betas.append(beta)
        basis[step] = w / beta
    return found


@dataclass(eq=False)
class DbarGrid:
    """Discrete dbar on the rasterized domain, in both discretizations.

    `assemble` builds what verify reads: `adj` maps (0,1)-forms at the
    nodes to functions on the triangles centred at `tri_z`, `lap` is the
    5-point Dirichlet Laplacian and `lap_factor` its block LDL^T factor over
    raster lines, which costs O(sum m_k^3) time and O(sum m_k^2) memory for
    m_k inside nodes on line k (see `LineFactor`).  The rest is built when
    first read and then kept: `ground_state` and `ground_solve` by verify,
    `op`, which maps node values of a function to node values of the
    (0,1)-form coefficient, only by the twisted check and the tests.
    Nothing here takes a distance transform.
    """

    domain: PlanarDomain
    nodes_z: np.ndarray
    adj: CooMatrix
    tri_z: np.ndarray
    lap: CooMatrix
    lap_factor: LineFactor

    @property
    def h(self) -> float:
        return self.domain.mesh

    @property
    def size(self) -> int:
        return len(self.nodes_z)

    def norm(self, u: np.ndarray) -> float:
        """L^2 norm with midpoint weight h^2 per node."""
        return self.h * float(np.linalg.norm(u))

    @cached_property
    def ground_state(self) -> tuple[float, np.ndarray]:
        """(lambda_1, unit eigenvector) of `lap`, by `lanczos` on the line
        factor.  The start vector is all ones, so the result is
        deterministic; the eigenvector is signed to a positive sum.  A run
        that forms no Ritz pair, or a pair whose relative residual exceeds
        1e-8, raises SolverError stating which, with the residual if any."""
        n = self.size
        found = lanczos(self.lap_factor, self.lap)
        if found is None:
            raise SolverError(
                f"Lanczos formed no Ritz pair on the {n}-node Dirichlet Laplacian "
                "(the factor's solve is not finite), so no residual exists"
            )
        lam, vec, _, resid = found
        if not resid <= 1e-8:
            raise SolverError(
                f"Lanczos did not converge for the {n}-node Dirichlet Laplacian: "
                f"lambda_1 ~ {lam:.6g}, relative residual {resid:.3e} > 1e-08"
            )
        return lam, vec if vec.sum() >= 0 else -vec

    @cached_property
    def ground_solve(self) -> tuple[np.ndarray, SolveReport]:
        """`least_norm_solve` of the `ground_state` eigenvector: the extremal
        field on the triangles and its report, whose ratio is 1/sigma_min.
        `verify_certificate` reads the ratio and `verify --dump-field`
        writes the field, so verify solves once."""
        return least_norm_solve(self, self.ground_state[1])

    @cached_property
    def op(self) -> CooMatrix:
        """Node values of a function to node values of its dzbar derivative.

        Centred differences where both neighbours in a direction are
        inside, one-sided ones toward the boundary.  The stencil never
        reads outside the domain raster: a direction with no inside
        neighbour contributes nothing at that node (degenerate for
        one-node-wide ribbons, documented).
        """
        left, right, down, up = _neighbours(_node_index(self.domain.raster.inside))
        h = self.h
        ids = np.arange(self.size)
        rows, cols, vals = [], [], []

        def add(r_, c_, v_):
            rows.append(r_)
            cols.append(c_)
            vals.append(v_)

        def add_direction(minus, plus, coef):
            both = (minus >= 0) & (plus >= 0)
            add(ids[both], plus[both], np.full(both.sum(), coef / (2 * h)))
            add(ids[both], minus[both], np.full(both.sum(), -coef / (2 * h)))
            fwd = (minus < 0) & (plus >= 0)
            add(ids[fwd], plus[fwd], np.full(fwd.sum(), coef / h))
            add(ids[fwd], ids[fwd], np.full(fwd.sum(), -coef / h))
            bwd = (minus >= 0) & (plus < 0)
            add(ids[bwd], ids[bwd], np.full(bwd.sum(), coef / h))
            add(ids[bwd], minus[bwd], np.full(bwd.sum(), -coef / h))
            # neither neighbor: the direction is degenerate and contributes 0

        add_direction(left, right, 0.5 + 0j)
        add_direction(down, up, 0.5j)
        return CooMatrix(
            np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
            (self.size, self.size),
        )


def _node_index(inside: np.ndarray) -> np.ndarray:
    """Grid of unknown numbers, row-major over the inside nodes, -1 outside."""
    index = np.full(inside.shape, -1, dtype=np.int64)
    index[inside] = np.arange(int(inside.sum()))
    return index


def _neighbours(index: np.ndarray) -> np.ndarray:
    """The unknowns left of, right of, below and above each unknown, as the
    rows of a (4, n) array, -1 where that neighbour is outside."""
    iy, ix = np.nonzero(index >= 0)
    p = np.pad(index, 1, constant_values=-1)
    return np.stack([p[iy + 1, ix], p[iy + 1, ix + 2], p[iy, ix + 1], p[iy + 2, ix + 1]])


def _dbar_adjoint(index: np.ndarray, x0: float, y0: float, h: float):
    """dbar* = -d/dz from P1 (0,1)-forms, zero off the inside nodes, to
    piecewise constants on the right-triangle split of the raster cells.

    Each cell with lower-left node a, neighbours b (right), c (up) and d
    (diagonal) splits into triangles (a, b, c) and (d, c, b).  `index` maps
    grid nodes to unknowns (-1 outside); it is padded by one node so that
    cells beyond the window edge are kept too.  Only triangles touching an
    inside node are kept.  Returns the sparse map and the triangle centroids.
    """
    p = np.pad(index, 1, constant_values=-1)
    a, b, c, d = p[:-1, :-1], p[:-1, 1:], p[1:, :-1], p[1:, 1:]
    # -d/dz f = -(f_x - i f_y)/2 with f_x, f_y the edge differences over h
    halves = (
        (1 / 3, ((a, 1 - 1j), (b, -1), (c, 1j))),
        (2 / 3, ((d, -1 + 1j), (c, 1), (b, -1j))),
    )
    rows, cols, vals, tri_z = [], [], [], []
    n_tri = 0
    for offset, corners in halves:
        ky, kx = np.nonzero(np.stack([node for node, _ in corners]).max(axis=0) >= 0)
        tri = n_tri + np.arange(len(ky))
        n_tri += len(ky)
        tri_z.append(x0 + h * (kx - 1 + offset) + 1j * (y0 + h * (ky - 1 + offset)))
        for node, coef in corners:
            nid = node[ky, kx]
            ok = nid >= 0
            rows.append(tri[ok])
            cols.append(nid[ok])
            vals.append(np.full(int(ok.sum()), coef / (2 * h)))
    adj = CooMatrix(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        (n_tri, int(index.max()) + 1),
    )
    return adj, np.concatenate(tri_z)


def assemble(dom: PlanarDomain) -> DbarGrid:
    """Build `adj` and `lap` at the domain's mesh and factor the Laplacian.

    These are all that verify reads; `DbarGrid.op` is built when first read.
    """
    x0, x1, y0, y1 = dom.window
    h = dom.mesh
    if h > min(x1 - x0, y1 - y0) / 16:
        raise MeshError(f"mesh {h} exceeds window/16")
    r = dom.raster
    n_nodes = int(r.inside.sum())
    if n_nodes < 16:
        raise MeshError(f"only {n_nodes} interior nodes at mesh {h}; need >= 16")

    index = _node_index(r.inside)
    iy, ix = np.nonzero(r.inside)
    nodes_z = r.xs[ix] + 1j * r.ys[iy]
    adj, tri_z = _dbar_adjoint(index, r.xs[0], r.ys[0], h)
    # 2 Re(adj^H adj) is 4 on the diagonal and -1 per inside neighbour, over
    # h^2: the imaginary part of adj^H adj is a Jacobian term that sums to
    # zero exactly over the triangles
    ids = np.arange(n_nodes)
    nbr = _neighbours(index)
    has = nbr >= 0
    lap = CooMatrix(
        np.concatenate([ids, np.broadcast_to(ids, nbr.shape)[has]]),
        np.concatenate([ids, nbr[has]]),
        np.concatenate([np.full(n_nodes, 4.0), np.full(int(has.sum()), -1.0)]) / h**2,
        (n_nodes, n_nodes),
    )
    return DbarGrid(dom, nodes_z, adj, tri_z, lap, LineFactor(index, h))


# ---------------------------------------------------------------------------
# Canonical solution and the closed-range constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveReport:
    alpha_norm: float
    v_norm: float
    ratio: float
    iterations: int
    residual: float


def least_norm_solve(g: DbarGrid, alpha: np.ndarray) -> tuple[np.ndarray, SolveReport]:
    """Canonical solution v = dbar* N alpha of dbar v = alpha.

    N alpha = 4 lap^(-1) alpha comes from the stored line factor (a direct
    solve: `iterations` is 0), and v = adj (N alpha) lives on the
    triangles.  v is the minimum-norm solution: it lies in the range of
    dbar*, orthogonal to the kernel of dbar.  Its norm comes from the
    energy identity ||v||^2 = <alpha, N alpha>, so the ratio ||v||/||alpha||
    never exceeds 1/sigma_min.  `residual` is the relative residual of
    dbar v = alpha, with dbar = adj^H / 2 the adjoint of dbar* in the node
    and triangle norms; adj^H v comes from `adj`'s own triplets
    (`CooMatrix.rmatvec`), so no transposed copy of `adj` is built.
    """
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (g.size,):
        raise ValueError(f"alpha must have shape ({g.size},)")
    a_norm = g.norm(alpha)
    if a_norm == 0.0:
        return np.zeros(len(g.tri_z), dtype=complex), SolveReport(0.0, 0.0, 0.0, 0, 0.0)
    re_im = 4.0 * g.lap_factor.solve(np.column_stack([alpha.real, alpha.imag]))
    n_alpha = re_im[:, 0] + 1j * re_im[:, 1]
    v = g.adj @ n_alpha
    resid = float(np.linalg.norm(0.5 * g.adj.rmatvec(v) - alpha) / np.linalg.norm(alpha))
    v_norm = g.h * math.sqrt(np.vdot(alpha, n_alpha).real)
    return v, SolveReport(a_norm, v_norm, v_norm / a_norm, 0, resid)


def closed_range_constant(g: DbarGrid) -> float:
    """sigma_min = sqrt(lambda_1)/2 of the discrete dbar-Neumann operator.

    Its reciprocal is the discrete closed-range constant: ||v|| <= (1/sigma)
    ||dbar v|| for v orthogonal to the discrete kernel, with equality at
    the canonical solution for the lambda_1 eigenvector.  Under mesh
    refinement it converges to the continuum value (j_{0,1}/2 on the unit
    disc).  Raises SolverError, with the reached residual, when the
    eigensolver fails.
    """
    return math.sqrt(g.ground_state[0]) / 2.0


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------


def verify_certificate(g: DbarGrid, C_cert: float) -> dict:
    """Check ||v|| <= C (1 + VERIFY_TOL) ||alpha|| at the lambda_1 eigenvector.

    The canonical solution for the eigenvector attains the discrete
    constant 1/sigma_min, the largest ratio ||v||/||alpha|| of any alpha,
    so the check passes exactly when C is at least that constant.  An
    eigensolver failure raises SolverError.  A violated check never refutes
    the certified bound: it says C is below the discrete constant at this
    mesh.
    """
    if C_cert <= 0:
        raise ValueError(f"certificate constant must be positive, got {C_cert}")
    witness_ratio = g.ground_solve[1].ratio
    return {
        "C": C_cert,
        "tol": VERIFY_TOL,
        "margin": C_cert * (1 + VERIFY_TOL) - witness_ratio,
        "passed": witness_ratio <= C_cert * (1 + VERIFY_TOL),
        "witness_ratio": witness_ratio,
        "note": (
            "witness_ratio is the ratio of the lambda_1 eigenvector and equals "
            "the discrete constant 1/sigma_min; a violated check says C is "
            "below the discrete constant at this mesh, not a counterexample "
            "to the certified bound"
        ),
    }


# ---------------------------------------------------------------------------
# Twisted estimate by quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightField:
    """Pointwise data of a real C^2 weight on C: value, d/dz, d^2/dz dzbar.

    All three callables are vectorized over complex arrays.
    """

    value: Callable
    dz: Callable
    zzbar: Callable


def constant_field(c: float) -> WeightField:
    return WeightField(
        value=lambda z: np.full(np.shape(z), float(c)),
        dz=lambda z: np.zeros(np.shape(z), dtype=complex),
        zzbar=lambda z: np.zeros(np.shape(z)),
    )


def abs2_field(scale: float = 1.0) -> WeightField:
    """scale * |z|^2: gradient scale*conj(z), Hessian scale."""
    return WeightField(
        value=lambda z: scale * np.abs(z) ** 2,
        dz=lambda z: scale * np.conj(z),
        zzbar=lambda z: np.full(np.shape(z), float(scale)),
    )


def gaussian_decay_field(alpha: float) -> WeightField:
    """exp(-alpha |z|^2) with its exact derivatives."""

    def val(z):
        return np.exp(-alpha * np.abs(z) ** 2)

    return WeightField(
        value=val,
        dz=lambda z: -alpha * np.conj(z) * val(z),
        zzbar=lambda z: val(z) * (alpha**2 * np.abs(z) ** 2 - alpha),
    )


def theta_factor(lam: WeightField, tau: WeightField, z) -> np.ndarray:
    """Twisted curvature factor tau lam_zzbar - tau_zzbar - |tau_z|^2 / tau.

    Times |u|^2 it is the curvature term of the twisted estimate for a
    (0,1)-form u on C.  tau must be positive at every point of z.
    """
    tv = np.asarray(tau.value(z), dtype=float)
    if np.any(tv <= 0):
        raise ValueError("tau must be positive where the twisted term is evaluated")
    return (
        tv * np.asarray(lam.zzbar(z), dtype=float)
        - np.asarray(tau.zzbar(z), dtype=float)
        - np.abs(np.asarray(tau.dz(z), dtype=complex)) ** 2 / tv
    )


def twisted_quadrature_check(
    lam: WeightField,
    tau: WeightField,
    u_fn: Callable,
    g: DbarGrid,
) -> float:
    """Quadrature slack of the twisted lower bound on a test (0,1)-form.

    slack = 2 ||sqrt(tau) adj_lam(u)||_lam^2 - integral of the twisted
    curvature term against |u|^2 e^(-lam).  (In one complex variable the
    dbar of a (0,1)-form vanishes for degree reasons, so the first term of
    the estimate contributes nothing.)  adj_lam = e^lam op^H(e^-lam .) with
    op^H the conjugate transpose of `op`, which realizes the formal adjoint
    -d/dz for interior-supported data.

    The continuum inequality is slack >= 0; quadrature returns
    slack >= -O(h^2) * scale.  Support must stay 2h clear of the boundary
    and tau must be positive on it.
    """
    z = g.nodes_z
    u = np.asarray(u_fn(z), dtype=complex)
    supp = np.abs(u) > 0
    r = g.domain.raster
    near_edge = _near(_ColumnPass(r.inside, invert=True), g.h, 2 * g.h, strict=False)[r.inside]
    if (supp & near_edge).any():
        raise ValueError(
            "test form support reaches within 2h of the boundary; "
            "the formal adjoint identity needs interior support"
        )
    tv = np.asarray(tau.value(z), dtype=float)
    if supp.any() and np.min(tv[supp]) <= 0:
        raise ValueError("tau must be positive on the support of u")
    lv = np.asarray(lam.value(z), dtype=float)
    elam = np.exp(-lv)

    adj = np.exp(lv) * (g.op.H @ (elam * u))
    lhs = 2.0 * g.h**2 * float(np.sum(tv * np.abs(adj) ** 2 * elam))

    theta = np.zeros(z.shape)
    theta[supp] = theta_factor(lam, tau, z[supp])
    rhs = g.h**2 * float(np.sum(theta * np.abs(u) ** 2 * elam))
    return lhs - rhs
