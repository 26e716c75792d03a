"""Discretized Cauchy-Riemann operator on rasterized planar domains.

Two discretizations live on the raster's inside nodes.

`op` maps node values of a function to node values of its dzbar
derivative (du/dx + i du/dy)/2, with centered differences where both
neighbors are inside and one-sided differences toward the boundary.  It
imposes no boundary condition; it builds trial data and the twisted
quadrature check.

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
Dirichlet Laplacian.  One sparse LU factor of `lap` serves both the
eigenvalue and every solve.  Node norms use the weight h^2 per node,
triangle norms h^2/2 per triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, SuperLU, eigsh, splu

from .geometry import MeshError, PlanarDomain, SolverError, _column_rows, _near

__all__ = [
    "DbarGrid",
    "SolveReport",
    "assemble",
    "least_norm_solve",
    "closed_range_constant",
    "verify_certificate",
    "twisted_quadrature_check",
    "WeightField",
    "constant_field",
    "abs2_field",
    "gaussian_decay_field",
    "theta_factor",
    "radial_bump",
]


@dataclass(eq=False)
class DbarGrid:
    """Discrete dbar on the rasterized domain, in both discretizations.

    `op` maps node values of a function to node values of the (0,1)-form
    coefficient.  `full_stencil` flags nodes whose four neighbors are all
    inside (centered differences in both directions, exact on quadratics).
    `adj` maps (0,1)-forms at the nodes to functions on the triangles
    centred at `tri_z`; `lap` is the 5-point Dirichlet Laplacian and
    `lap_lu` its sparse LU factor.  Nothing here takes a distance
    transform.
    """

    domain: PlanarDomain
    h: float
    nodes_z: np.ndarray
    op: sp.csr_matrix
    full_stencil: np.ndarray
    adj: sp.csr_matrix
    tri_z: np.ndarray
    lap: sp.csc_matrix
    lap_lu: SuperLU

    @property
    def size(self) -> int:
        return len(self.nodes_z)

    def norm(self, u: np.ndarray) -> float:
        """L^2 norm with midpoint weight h^2 per node."""
        return self.h * float(np.linalg.norm(u))

    @cached_property
    def ground_state(self) -> tuple[float, np.ndarray]:
        """(lambda_1, unit eigenvector) of `lap`, by shift-invert Lanczos on
        the LU factor.  The start vector is all ones, so the result is
        deterministic; the eigenvector is signed to a positive sum.  A
        non-converged or inaccurate pair raises SolverError with its
        relative residual."""
        n = self.size
        inv = LinearOperator((n, n), matvec=self.lap_lu.solve, dtype=float)
        try:
            lam, vec = eigsh(self.lap, k=1, sigma=0.0, OPinv=inv, v0=np.ones(n))
        except ArpackNoConvergence as exc:
            if len(exc.eigenvalues) == 0:
                raise SolverError(
                    f"eigsh stopped at its iteration limit on the {n}-node Dirichlet "
                    "Laplacian with no Ritz pair converged, so no residual exists"
                ) from None
            lam, vec = exc.eigenvalues, exc.eigenvectors
        lam, vec = float(lam[0]), vec[:, 0]
        resid = float(np.linalg.norm(self.lap @ vec - lam * vec)) / (abs(lam) * np.linalg.norm(vec))
        if not resid <= 1e-8:
            raise SolverError(
                f"eigsh did not converge for the {n}-node Dirichlet Laplacian: "
                f"lambda_1 ~ {lam:.6g}, relative residual {resid:.3e} > 1e-08"
            )
        vec = vec / np.linalg.norm(vec)
        return lam, vec if vec.sum() >= 0 else -vec


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
    adj = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_tri, int(index.max()) + 1),
    )
    return adj, np.concatenate(tri_z)


def assemble(dom: PlanarDomain, h: Optional[float] = None) -> DbarGrid:
    """Build both discrete operators at mesh h and factor the Laplacian.

    The `op` stencil never reads outside the domain raster: a direction
    with no inside neighbor contributes nothing at that node (degenerate
    for one-node-wide ribbons, documented).
    """
    x0, x1, y0, y1 = dom.window
    h = dom.mesh if h is None else float(h)
    if h > min(x1 - x0, y1 - y0) / 16:
        raise MeshError(f"mesh {h} exceeds window/16")
    r = dom.raster(h)
    inside = r.inside
    n_nodes = int(inside.sum())
    if n_nodes < 16:
        raise MeshError(f"only {n_nodes} interior nodes at mesh {h}; need >= 16")

    index = np.full(inside.shape, -1, dtype=np.int64)
    iy, ix = np.nonzero(inside)
    ids = np.arange(n_nodes)
    index[iy, ix] = ids
    nodes_z = r.xs[ix] + 1j * r.ys[iy]

    def neighbor(dy, dx):
        jy, jx = iy + dy, ix + dx
        ok = (jy >= 0) & (jy < inside.shape[0]) & (jx >= 0) & (jx < inside.shape[1])
        nid = np.full(n_nodes, -1, dtype=np.int64)
        nid[ok] = index[jy[ok], jx[ok]]
        return nid

    left, right = neighbor(0, -1), neighbor(0, 1)
    down, up = neighbor(-1, 0), neighbor(1, 0)

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

    op = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes),
        dtype=complex,
    )
    full = (left >= 0) & (right >= 0) & (down >= 0) & (up >= 0)
    adj, tri_z = _dbar_adjoint(index, r.xs[0], r.ys[0], h)
    # 2 Re(adj^H adj): 4 on the diagonal and -1 per inside neighbour, over
    # h^2.  The imaginary part of adj^H adj is a Jacobian term that sums to
    # zero exactly over the triangles.
    re, im = adj.real, adj.imag
    lap = (2.0 * (re.T @ re + im.T @ im)).tocsc()
    lap.eliminate_zeros()
    return DbarGrid(dom, h, nodes_z, op, full, adj, tri_z, lap, splu(lap))


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

    N alpha = 4 lap^(-1) alpha comes from the stored LU factor (a direct
    solve: `iterations` is 0), and v = adj (N alpha) lives on the
    triangles.  v is the minimum-norm solution: it lies in the range of
    dbar*, orthogonal to the kernel of dbar.  Its norm comes from the
    energy identity ||v||^2 = <alpha, N alpha>, so the ratio ||v||/||alpha||
    never exceeds 1/sigma_min.  `residual` is the relative residual of
    dbar v = alpha, with dbar = adj^H / 2 the adjoint of dbar* in the node
    and triangle norms.
    """
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (g.size,):
        raise ValueError(f"alpha must have shape ({g.size},)")
    a_norm = g.norm(alpha)
    if a_norm == 0.0:
        return np.zeros(len(g.tri_z), dtype=complex), SolveReport(0.0, 0.0, 0.0, 0, 0.0)
    re_im = 4.0 * g.lap_lu.solve(np.column_stack([alpha.real, alpha.imag]))
    n_alpha = re_im[:, 0] + 1j * re_im[:, 1]
    v = g.adj @ n_alpha
    resid = float(np.linalg.norm(0.5 * (g.adj.conj().T @ v) - alpha) / np.linalg.norm(alpha))
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
# Certificate verification with random compactly supported data
# ---------------------------------------------------------------------------


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


def verify_certificate(
    g: DbarGrid,
    C_cert: float,
    trials: int,
    seed: int = 0,
    tol: float = 1e-6,
) -> dict:
    """Check ||v|| <= C (1 + tol) ||alpha|| over seeded trials and a witness.

    Each trial alpha is `op` applied to a random bump cocktail; its
    canonical solution gives the ratio ||v||/||alpha||.  The witness is the
    lambda_1 eigenvector, whose ratio attains the discrete constant
    1/sigma_min, so the check passes exactly when C is at least that
    constant.  When the eigensolver fails, `witness_ratio` is None and only
    the trials count.  A violated check never refutes the certified bound:
    it says C is below the discrete constant at this mesh.
    """
    if C_cert <= 0:
        raise ValueError(f"certificate constant must be positive, got {C_cert}")
    rng = np.random.default_rng(seed)
    ratios = []
    produced = 0
    while produced < trials:
        k = int(rng.integers(1, 4))
        w = np.zeros(g.size, dtype=complex)
        for _ in range(k):
            c = g.nodes_z[int(rng.integers(0, g.size))]
            rad = float(rng.uniform(4 * g.h, 20 * g.h))
            amp = complex(rng.normal(), rng.normal())
            w += amp * radial_bump(g.nodes_z, c, rad)
        alpha = g.op @ w
        if g.norm(alpha) < 1e-12:
            continue
        _, rep = least_norm_solve(g, alpha)
        ratios.append(rep.ratio)
        produced += 1
    try:
        witness_ratio = least_norm_solve(g, g.ground_state[1])[1].ratio
    except SolverError:
        witness_ratio = None
    max_ratio = max(ratios + ([] if witness_ratio is None else [witness_ratio]), default=0.0)
    return {
        "trials": trials,
        "seed": seed,
        "C": C_cert,
        "tol": tol,
        "max_ratio": max_ratio,
        "margin": C_cert * (1 + tol) - max_ratio,
        "passed": max_ratio <= C_cert * (1 + tol),
        "ratios": ratios,
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
    r = g.domain.raster(g.h)
    near_edge = _near(_column_rows(~r.inside), g.h, 2 * g.h, strict=False)[r.inside]
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

    adj = np.exp(lv) * (g.op.conj().T @ (elam * u))
    lhs = 2.0 * g.h**2 * float(np.sum(tv * np.abs(adj) ** 2 * elam))

    theta = np.zeros(z.shape)
    theta[supp] = theta_factor(lam, tau, z[supp])
    rhs = g.h**2 * float(np.sum(theta * np.abs(u) ** 2 * elam))
    return lhs - rhs
