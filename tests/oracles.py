"""Reference code that the tests read and no command runs.

The twisted quadrature check of the finite-difference dzbar
(`DbarGrid.op`) with its weight fields, the pointwise strip, series and
composite weights that the grid-wide certificates are checked against,
the domain serializer and file loader, and small domain and certificate
helpers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from dbar_range.discrete import DbarGrid
from dbar_range.geometry import (
    Complement,
    ConditionXCertificate,
    Disc,
    DomainSpecError,
    EtaFunc,
    HalfPlane,
    Intersection,
    PlanarDomain,
    Rect,
    Strip,
    Union,
    _ColumnPass,
    _near,
    domain_from_dict,
)
from dbar_range.weights import (
    CutoffProfile,
    PointSeriesWeight,
    StripWeightFamily,
    _cross_term_bound,
    _phi_many,
    _smoothstep,
)


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
    near_edge = _near(_ColumnPass(~r.inside), g.h, 2 * g.h, strict=False)[r.inside]
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


def strip_weight(
    c_prev: float,
    c_j: float,
    z: complex,
    quad_from: Optional[float] = None,
) -> tuple[float, float]:
    """One band of the strip weight: the squared distance (Im z - c_j)^2 on
    the upper part of the band, switched off smoothly toward c_prev.

    `quad_from` is the height above which the weight is exactly quadratic
    (defaults to the middle of the band); it must sit below the strip the
    band serves so the Hessian value 1/2 is exact on the strip.  On the
    cutoff collar the value stays within [0, (c_j - c_prev)^2] and the
    reported Hessian is the finite-difference value of the documented
    profile  (Im z - c_j)^2 * s((Im z - c_prev)/(quad_from - c_prev))
    with s the exp(-1/t) smoothstep.
    """
    if c_prev >= c_j:
        raise ValueError(f"band requires c_prev < c_j, got {c_prev} >= {c_j}")
    y = z.imag if isinstance(z, complex) else float(z)
    if y < c_prev or y > c_j:
        raise ValueError(f"Im z = {y} outside the band [{c_prev}, {c_j}]")
    if quad_from is None:
        quad_from = 0.5 * (c_prev + c_j)
    if not (c_prev < quad_from < c_j):
        raise ValueError("quad_from must lie strictly inside the band")

    def val(yy):
        t = (yy - c_prev) / (quad_from - c_prev)
        return (yy - c_j) ** 2 * _smoothstep(t)

    if y >= quad_from:
        return float((y - c_j) ** 2), 0.5
    d = 1e-4 * (c_j - c_prev)
    zzbar = (val(y + d) - 2.0 * val(y) + val(y - d)) / (d * d) / 4.0
    return float(val(y)), float(zzbar)


def series_value(phi: PointSeriesWeight, z):
    """The series weight sum |z - w|^-4 over the witnesses w, at a point
    (a float) or an array of points."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = _phi_many(phi.witnesses, z, -4.0, 1.0)
    return float(out[0]) if out.shape == (1,) else out


def series_zzbar(phi: PointSeriesWeight, z):
    """Its complex Hessian, sum 4 |z - w|^-6, at a point or an array of
    points."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = _phi_many(phi.witnesses, z, -6.0, 4.0)
    return float(out[0]) if out.shape == (1,) else out


def composite_weight(
    chi: CutoffProfile,
    phi_strip: StripWeightFamily,
    phi_lattice: PointSeriesWeight,
    K: float,
    z: complex,
    b: float,
) -> tuple[float, float]:
    """Pointwise value and certified Hessian lower bound of
    psi = chi * phi_strip + K * phi_lattice.

    Presumes the composite-domain structure: outside |Re z| > chi.lo the
    domain coincides with the strips (where the strip weight is exactly
    quadratic), and b is a verified lower bound for the lattice part's
    Hessian on |Re z| <= chi.hi.  A nonpositive bound is a reported
    outcome, not an error: it means K is too small.
    """
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    x = z.real
    strip = phi_strip.value(np.array([z.imag]))[0]
    value = float(chi.value(x) * strip + K * series_value(phi_lattice, z))
    if abs(x) >= chi.hi:
        lower = 0.5
    elif abs(x) <= chi.lo:
        lower = K * b
    else:
        lower = K * b - _cross_term_bound(chi, phi_strip)
    return value, lower


def constant_strip(lo: float, hi: float) -> Strip:
    """The strip lo < Im z < hi."""
    return Strip(EtaFunc({"const": lo}), EtaFunc({"const": hi}))


def plane():
    """The whole plane (complement of the empty union)."""
    return Complement(Union(()))


def sample_points(cert: ConditionXCertificate) -> np.ndarray:
    """The certificate's witnessed nodes as complex coordinates, in
    row-major order."""
    iy, ix = np.nonzero(cert.witnessed)
    return cert.raster.xs[ix] + 1j * cert.raster.ys[iy]


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


def load_domain(path) -> PlanarDomain:
    with open(path, "r", encoding="utf-8") as fh:
        return domain_from_dict(json.load(fh))
