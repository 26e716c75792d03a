"""End-to-end example families.

Three reproducible scenario types, each emitting a replayable report:

  * scaling: the dilation family on growing discs whose norm ratio grows
    linearly, witnessing that arbitrarily large discs kill closed range.
  * gallery: horizontal strip galleries; exterior-witness verdicts, the
    lattice series weight, and the quadratic band weight certificate.
  * omega_s / tube: the composite-weight domain and the tube whose fiber
    integration reduces everything to the planar base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    EtaFunc,
    MeshError,
    PlanarDomain,
    Rect,
    Strip,
    Union,
    build_lattice,
    clearance,
    condition_x,
    largest_disc_at,
    plane,
)
from .weights import (
    CutoffProfile,
    PointSeriesWeight,
    StripWeightFamily,
    certificate,
    certify_composite,
    lattice_weight_report,
)

__all__ = [
    "ScenarioError",
    "BumpProfile",
    "ScalingRatio",
    "scaling_ratio",
    "tube_factor",
    "tube_factor_mc",
    "tube_scenario",
    "gallery_domain",
    "uniform_gallery_params",
    "strip_gallery",
    "omega_s_composite",
    "omega_s_scenario",
    "scaling_scenario",
    "run_scenario",
]


class ScenarioError(ValueError):
    """Scenario inputs violate the family's preconditions."""


# ---------------------------------------------------------------------------
# The radial bump and its exact derivative fields
# ---------------------------------------------------------------------------


class BumpProfile:
    """exp(-1/(1 - |z|^2)) on the unit disc, through its closed-form
    derivative fields.

    Values within `_DROP_RING` of the unit circle and beyond are dropped
    (set to 0): inside the circle they are below exp(-500).  The fields
    take g = 1 - |z|^2 as 1.0 at a dropped node, so every quotient in g
    stays finite: a whole block is evaluated with no floating-point warning
    and no gather of the live nodes.  The adjoint here is the formal one
    for compactly supported data, -d/dz, applied to the (0,1)-form with
    this coefficient.
    """

    _DROP_RING = 1e-3

    def _g(self, z):
        """|z|^2, g (1.0 at a dropped node) and the live flags."""
        r2 = np.abs(z) ** 2
        live = r2 < (1.0 - self._DROP_RING) ** 2
        return r2, np.where(live, 1.0 - r2, 1.0), live

    def dbar_star(self, z):
        """-d/dz of the bump: alpha * zbar / g^2."""
        z = np.asarray(z, dtype=complex)
        _, g, live = self._g(z)
        out = np.exp(-1.0 / g) * np.conj(z)
        out /= g**2
        np.copyto(out, 0, where=~live)
        return out

    def dbar_dbar_star(self, z):
        """d/dzbar of dbar_star: alpha (1/g^2 + 2|z|^2/g^3 - |z|^2/g^4)."""
        z = np.asarray(z, dtype=complex)
        r2, g, live = self._g(z)
        val = 1.0 / g**2 + 2.0 * r2 / g**3 - r2 / g**4
        val *= np.exp(-1.0 / g)
        out = np.zeros(g.shape, dtype=complex)
        np.copyto(out.real, val, where=live)
        return out


# values of the integrand per block of `_disc_quadrature_norm` at the most
_QUAD_BLOCK = 2**12


def _disc_quadrature_norm(fn, center: complex, radius: float, h: float) -> float:
    """h times the l2 norm of fn on the grid of mesh h over the square
    bounding the disc: the quadrature of the L2 norm on the disc.

    fn acts value by value, so it is evaluated a block of at most
    `_QUAD_BLOCK` values at a time (whole rows, at least one), and its
    temporaries stay that small whatever the grid.  The grid of values
    itself is kept whole: np.linalg.norm takes its float from one BLAS dot
    over all of it, whose summation order a blocked sum of squares would
    not reproduce."""
    xs = np.arange(center.real - radius, center.real + radius + h / 2, h)
    ys = np.arange(center.imag - radius, center.imag + radius + h / 2, h)
    vals = np.empty((len(ys), len(xs)), dtype=complex)
    step = max(1, _QUAD_BLOCK // len(xs))
    for i in range(0, len(ys), step):
        vals[i : i + step] = fn(xs[None, :] + 1j * ys[i : i + step, None])
    return h * float(np.linalg.norm(vals.ravel()))


# ---------------------------------------------------------------------------
# Scaling counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingRatio:
    j: int
    num: float
    den: float
    ratio: float
    num_direct: float
    den_direct: float
    ratio_direct: float
    rel_gap: float


def scaling_ratio(
    j: int,
    mesh: float = 1 / 16,
    center: complex = 0j,
) -> ScalingRatio:
    """Norm ratio of the dilated test pair at scale j, two ways.

    The analytic path applies the change-of-variables identities to
    unit-disc quadrature values (numerator scale-invariant, denominator
    decaying like 1/j); the direct path integrates the dilated integrands
    on an absolute grid of the same mesh.  Disagreement beyond 1% is a
    mesh error.
    """
    if j < 1:
        raise ScenarioError(f"scale index must be >= 1, got {j}")
    profile = BumpProfile()
    s_num = _disc_quadrature_norm(profile.dbar_star, 0j, 1.0, mesh)
    s_den = _disc_quadrature_norm(profile.dbar_dbar_star, 0j, 1.0, mesh)
    num, den = s_num, s_den / j
    ratio = num / den

    num_direct = _disc_quadrature_norm(
        lambda z: profile.dbar_star((z - center) / j) / j, center, float(j), mesh
    )
    den_direct = _disc_quadrature_norm(
        lambda z: profile.dbar_dbar_star((z - center) / j) / j**2, center, float(j), mesh
    )
    ratio_direct = num_direct / den_direct
    rel_gap = max(abs(num_direct - num) / num, abs(den_direct - den) / den)
    if rel_gap > 0.01:
        raise MeshError(
            f"analytic and direct quadrature disagree by {rel_gap:.2%} at "
            f"scale {j}, mesh {mesh}"
        )
    return ScalingRatio(j, num, den, ratio, num_direct, den_direct, ratio_direct, rel_gap)


def _check_scales(j_values: Sequence[int]) -> None:
    """The scaling and tube param that the quadrature needs: some scale."""
    if not j_values:
        raise ScenarioError("j_values must not be empty")


def scaling_scenario(
    j_values: Sequence[int] = (1, 2, 4, 8, 16),
    mesh: float = 1 / 16,
    center: complex = 0j,
    seed: int = 0,
) -> dict:
    _check_scales(j_values)
    rows = [scaling_ratio(j, mesh, center) for j in j_values]
    s = rows[0].ratio / rows[0].j
    dev = max(abs(r.ratio_direct - s * r.j) / (s * r.j) for r in rows)
    slopes = [r.ratio / r.j for r in rows]
    slope_spread = (max(slopes) - min(slopes)) / s
    checks = [
        {
            "name": "measured ratio fits s*j within 1%",
            "passed": dev < 0.01,
            "detail": {"max_rel_deviation": dev, "slope": s},
        },
        {
            "name": "analytic path exactly linear",
            "passed": slope_spread < 1e-12,
            "detail": {"slope_spread": slope_spread},
        },
        {
            "name": "quadrature paths agree within 1%",
            "passed": all(r.rel_gap <= 0.01 for r in rows),
            "detail": {"max_gap": max(r.rel_gap for r in rows)},
        },
    ]
    return {
        "scenario": "scaling",
        "seed": seed,
        "mesh": mesh,
        "params": {"j_values": list(j_values), "center": [center.real, center.imag]},
        "measured": {
            "slope": s,
            "rows": [
                {
                    "j": r.j,
                    "num": r.num,
                    "den": r.den,
                    "ratio": r.ratio,
                    "ratio_direct": r.ratio_direct,
                    "rel_gap": r.rel_gap,
                }
                for r in rows
            ],
        },
        "checks": checks,
        "notes": [
            "the ratio grows linearly in the dilation scale, so no uniform "
            "lower bound ||u|| <= C ||dbar u|| can hold on a domain "
            "containing arbitrarily large discs"
        ],
    }


# ---------------------------------------------------------------------------
# Tube reduction
# ---------------------------------------------------------------------------


def tube_factor(m: int) -> float:
    """Volume of the unit ball in C^m (real dimension 2m): pi^m / m!."""
    if m < 1:
        raise ScenarioError(f"fiber dimension must be >= 1, got {m}")
    return math.pi**m / math.factorial(m)


# samples per draw of tube_factor_mc at the most; numpy sums up to 128
# values unsplit, so a draw may hold that many
_MC_BLOCK = 1 << 14


def _pairwise_parts(n: int, leaf: int) -> list:
    """The sizes of the parts np.add.reduce sums n contiguous values in, in
    order: numpy's pairwise summation splits n into h = n // 2 - (n // 2) %
    8 and n - h while n exceeds `leaf` (128 in numpy), and sums each part
    left in one piece."""
    if n <= leaf:
        return [n]
    h = n // 2 - (n // 2) % 8
    return _pairwise_parts(h, leaf) + _pairwise_parts(n - h, leaf)


def _pairwise_total(n: int, leaf: int, sums) -> float:
    """The sum of n values as np.add.reduce takes it, from the sums of
    their `_pairwise_parts` (an iterator, in order)."""
    if n <= leaf:
        return next(sums)
    h = n // 2 - (n // 2) % 8
    return _pairwise_total(h, leaf, sums) + _pairwise_total(n - h, leaf, sums)


def tube_factor_mc(m: int, samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte Carlo cross-check of the ball volume, seeded.

    Product of per-slice integrals c_k / c_{k-1} = integral over the unit
    disc of (1 - r^2)^(k-1), each estimated by uniform sampling of the
    bounding square.  Plain hit-or-miss in 2m dimensions would need far
    more than 1e6 samples for a 1% answer at m = 6; the slice product
    keeps every factor's variance small.

    Each slice's mean is np.mean of all its samples, bit for bit, without
    holding them: the samples are drawn part by part from the stream, in
    order, where numpy's pairwise summation splits them with parts of up
    to max(_MC_BLOCK, 128), each part summed by one np.add.reduce in a
    reused buffer and the part sums added as numpy adds them.

    A part is drawn with rng.random into a reused (n, 2) buffer and mapped
    to -1 + 2u in place: rng.uniform(-1, 1) takes the same doubles u and
    computes low + (high - low) u, and 2u is exact, so the samples are its
    very floats.  x^2 + y^2 and then q = 1 - r^2 are formed in place, and
    q > 0 exactly when r^2 < 1, so clipping q at 0 and raising it to the
    power k - 1 gives (1 - r^2)^(k-1) inside the disc and 0 outside, as a
    gather of the inside samples would, with no gather or scatter.  At
    k = 1 the power would turn the clipped zeros into ones, so that slice
    sums a count of the samples inside, which is exact in a float.
    """
    if m < 1:
        raise ScenarioError(f"fiber dimension must be >= 1, got {m}")
    if samples < 1:
        raise ScenarioError(f"mc_samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    leaf = max(_MC_BLOCK, 128)
    parts = _pairwise_parts(samples, leaf)
    xy_buf = np.empty((max(parts), 2))
    q_buf = np.empty(max(parts))
    vol = 1.0
    for k in range(1, m + 1):
        sums = []
        for n in parts:
            xy, q = xy_buf[:n], q_buf[:n]
            rng.random(out=xy)
            xy *= 2.0
            xy -= 1.0
            x, y = xy[:, 0], xy[:, 1]
            np.multiply(x, x, out=q)
            q += np.multiply(y, y, out=y)
            if k == 1:
                sums.append(float(np.count_nonzero(q < 1.0)))
                continue
            np.subtract(1.0, q, out=q)
            np.maximum(q, 0.0, out=q)
            q **= k - 1
            sums.append(float(np.add.reduce(q)))
        vol *= 4.0 * (_pairwise_total(samples, leaf, iter(sums)) / samples)
    return vol


def tube_scenario(
    m: int = 1,
    j_values: Sequence[int] = (1, 2, 4, 8),
    mesh: float = 1 / 16,
    mc_samples: int = 1_000_000,
    seed: int = 0,
) -> dict:
    """Tube over a base with large discs: the fiber volume cancels from the
    test ratio, so the tube inherits the planar growth exactly.  The base
    is the plane on the window [-(jmax + 1), jmax + 1]^2."""
    _check_scales(j_values)
    jmax = max(j_values)
    w = jmax + 1.0
    dom = PlanarDomain(plane(), (-w, w, -w, w), mesh)
    reach = largest_disc_at(dom, 0j, cap=jmax + 1.0)
    if reach < jmax:
        raise ScenarioError(
            f"base domain only admits discs of radius {reach} at 0; "
            f"need {jmax} for the requested scales"
        )
    c_m = tube_factor(m)
    c_mc = tube_factor_mc(m, mc_samples, seed)
    mc_rel = abs(c_mc - c_m) / c_m

    rows = []
    max_ratio_gap = 0.0
    for j in j_values:
        r = scaling_ratio(j, mesh)
        num_tube = math.sqrt(c_m) * r.num
        den_tube = math.sqrt(c_m) * r.den
        ratio_tube = num_tube / den_tube
        gap = abs(ratio_tube - r.ratio) / r.ratio
        max_ratio_gap = max(max_ratio_gap, gap)
        rows.append(
            {"j": j, "ratio_planar": r.ratio, "ratio_tube": ratio_tube, "rel_gap": gap}
        )
    checks = [
        {
            "name": "ball volume closed form vs Monte Carlo within 1%",
            "passed": mc_rel < 0.01,
            "detail": {"closed_form": c_m, "monte_carlo": c_mc, "rel_err": mc_rel},
        },
        {
            "name": "tube ratio equals planar ratio (fiber volume cancels)",
            "passed": max_ratio_gap < 1e-12,
            "detail": {"max_rel_gap": max_ratio_gap},
        },
        {
            "name": "ratio grows linearly in j",
            "passed": all(
                abs(rows[i]["ratio_planar"] / j_values[i] - rows[0]["ratio_planar"] / j_values[0])
                < 1e-9 * rows[0]["ratio_planar"]
                for i in range(len(rows))
            ),
            "detail": {},
        },
    ]
    return {
        "scenario": "tube",
        "seed": seed,
        "mesh": mesh,
        "params": {"m": m, "j_values": list(j_values), "mc_samples": mc_samples},
        "measured": {"c_m": c_m, "c_m_monte_carlo": c_mc, "rows": rows},
        "checks": checks,
        "notes": [
            "in the fiber directions the squared-norm weight is bounded by 1 "
            "with identity complex Hessian, so a bounded-weight certificate "
            "exists at form levels q >= 1 on the tube; recorded as a note, "
            "the higher-dimensional solve is out of scope",
        ],
    }


# ---------------------------------------------------------------------------
# Strip galleries
# ---------------------------------------------------------------------------


def gallery_domain(
    c: Sequence[float],
    bands: Sequence,
    window: tuple,
    mesh: float,
    symmetry: str = "translation_x",
) -> tuple[PlanarDomain, dict]:
    """Union of strips, one per consecutive pair of heights.

    Each band is either [lo, hi] constants or {"eta_lo": .., "eta_hi": ..}
    sampled specs, and must fit strictly inside its height interval.
    Returns the domain plus measured metadata (spacing, minimal gap).
    """
    c = [float(v) for v in c]
    if len(c) < 2 or any(a >= b for a, b in zip(c, c[1:])):
        raise ScenarioError("heights must be strictly increasing, length >= 2")
    if len(bands) != len(c) - 1:
        raise ScenarioError(f"need {len(c) - 1} bands for {len(c)} heights")
    strips = []
    lo_funcs, hi_funcs = [], []
    for (a, b), band in zip(zip(c, c[1:]), bands):
        if isinstance(band, dict):
            lo, hi = EtaFunc(band["eta_lo"]), EtaFunc(band["eta_hi"])
        else:
            lo, hi = EtaFunc({"const": float(band[0])}), EtaFunc({"const": float(band[1])})
        strips.append(Strip(lo, hi))
        lo_funcs.append(lo)
        hi_funcs.append(hi)
    dom = PlanarDomain(Union(tuple(strips)), window, mesh, symmetry)
    xs = dom.columns()
    spacing = max(b - a for a, b in zip(c, c[1:]))
    min_gap = math.inf
    lo_margin = math.inf
    for i, ((a, b), lo, hi) in enumerate(zip(zip(c, c[1:]), lo_funcs, hi_funcs)):
        lov, hiv = lo(xs), hi(xs)
        if np.any(lov <= a) or np.any(hiv >= b):
            raise ScenarioError(
                f"band {i} leaves its height interval ({a}, {b}) somewhere on the window"
            )
        lo_margin = min(lo_margin, float(np.min(lov - a)))
        if i + 1 < len(lo_funcs):
            gap = np.min(lo_funcs[i + 1](xs)) - np.max(hiv)
        else:
            gap = math.inf
        min_gap = min(min_gap, float(gap))
    meta = {"spacing": spacing, "min_gap": min_gap, "lo_margin": lo_margin}
    return dom, meta


def uniform_gallery_params(j_min: int = -5, j_max: int = 6, height: float = 0.5) -> dict:
    """Heights at the integers, constant bands of the given height centered
    between them: the plain periodic gallery."""
    c = [float(j) for j in range(j_min, j_max + 1)]
    pad = (1.0 - height) / 2
    bands = [[a + pad, b - pad] for a, b in zip(c, c[1:])]
    return {"c": c, "bands": bands, "M": 1.0}


def strip_gallery(
    c: Sequence[float],
    bands: Sequence,
    M: float,
    window: Optional[tuple] = None,
    mesh: float = 0.05,
    condition_M: Optional[float] = None,
    condition_delta: Optional[float] = None,
    symmetry: str = "translation_x",
    seed: int = 0,
) -> dict:
    """Full gallery pipeline: exterior-witness verdict, lattice weight when
    available, and the quadratic band weight with its explicit certificate
    (bound M^2, Hessian 1/2).  The band weight's finite-difference Hessian
    and its max are taken per raster row, at the height of each row that
    holds an inside node."""
    c = [float(v) for v in c]
    spacing = max(b - a for a, b in zip(c, c[1:]))
    if spacing > M + 1e-12:
        raise ScenarioError(f"height spacing {spacing} exceeds M = {M}")
    if window is None:
        window = (-8.0, 8.0, c[0] - 2.0, c[-1] + 2.0)
    dom, meta = gallery_domain(c, bands, window, mesh, symmetry)
    Mx = condition_M if condition_M is not None else M + 2.0
    delta = condition_delta if condition_delta is not None else 0.45 * meta["min_gap"]

    cx = condition_x(dom, Mx, delta)
    lattice_report = None
    if cx.holds:
        lat = build_lattice(cx)
        lattice_report = lattice_weight_report(lat)

    quad_from = [a + 0.9 * meta["lo_margin"] for a in c[:-1]]
    fam = StripWeightFamily(c, quad_from)
    r = dom.raster
    ys = r.ys[r.inside.any(axis=1)]
    vals = fam.value(ys)
    d = r.h
    fd = (fam.value(ys + d) - 2 * vals + fam.value(ys - d)) / (d * d) / 4.0
    fd_min = float(np.min(fd))
    phi_max = float(np.max(vals))
    strip_ok = fd_min >= 0.5 - 10 * d * d and phi_max <= M * M + 1e-12
    cert = certificate(M * M, 0.5)

    if strip_ok:
        verdict = "closed range certified (strip weight)"
    elif cx.holds:
        verdict = "closed range certified (lattice weight)"
    else:
        verdict = "undecided by this toolkit"
    notes = list(cx.notes)
    if not cx.holds and strip_ok:
        notes.append(
            "the exterior-witness condition fails here yet the strip weight "
            "still certifies closed range: the condition is sufficient, "
            "not necessary"
        )
    checks = [
        {
            "name": "strip weight Hessian >= 1/2 on the strips (finite differences)",
            "passed": fd_min >= 0.5 - 10 * d * d,
            "detail": {"fd_min": fd_min, "allowance": 10 * d * d},
        },
        {
            "name": "strip weight bounded by M^2",
            "passed": phi_max <= M * M + 1e-12,
            "detail": {"phi_max": phi_max, "M_sq": M * M},
        },
    ]
    return {
        "scenario": "gallery",
        "seed": seed,
        "mesh": mesh,
        "params": {
            "c": c,
            "bands": [list(b) if not isinstance(b, dict) else b for b in bands],
            "M": M,
            "window": list(window),
            "condition_M": Mx,
            "condition_delta": delta,
            "symmetry": symmetry,
        },
        "measured": {
            "spacing": spacing,
            "min_gap": meta["min_gap"],
            "condition_x": {
                "holds": cx.holds,
                "failure_count": cx.failure_count,
                "unprovable_count": cx.unprovable_count,
                "accepted_by_symmetry": cx.accepted_by_symmetry,
            },
            "lattice_weight": lattice_report,
            "strip_weight": {"fd_min_zzbar": fd_min, "phi_max": phi_max},
            "certificate": {
                "kind": cert.kind,
                "A": M * M,
                "B": 0.5,
                "C": cert.C,
                "log10_C": cert.log10_C,
            },
            "verdict": verdict,
        },
        "checks": checks,
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# Composite domain: strips away from a full column
# ---------------------------------------------------------------------------


def omega_s_composite(
    kappa1: float = 0.4,
    j_min: int = -5,
    j_max: int = 6,
    window: tuple = (-10.0, 10.0, -7.0, 8.0),
    mesh: float = 0.012,
) -> tuple:
    """The omega_s domain and the parts of its composite weight:
    (domain, cutoff chi, strip weight family, hand-placed series weight).

    Strips whose gaps stay >= kappa1 near the column but pinch as |Re z|
    grows, glued to the full column |Re z| < 2; the series weight has one
    witness at each height c_j on either side of the column, at |Re z| =
    2.5.
    """
    c = [float(j) for j in range(j_min, j_max + 1)]
    x0, x1, y0, y1 = window
    xs_s = np.linspace(x0, x1, 81)
    gap = kappa1 / (1.0 + np.maximum(0.0, np.abs(xs_s) - 3.0) ** 2)
    bands = []
    for a, b in zip(c, c[1:]):
        lo = {"x": xs_s.tolist(), "y": (a + gap / 2).tolist()}
        hi = {"x": xs_s.tolist(), "y": (b - gap / 2).tolist()}
        bands.append({"eta_lo": lo, "eta_hi": hi})
    strips_dom, meta = gallery_domain(c, bands, window, mesh, symmetry="none")

    tree = Union(tuple(strips_dom.tree.children) + (Rect(-2.0, 2.0, y0, y1),))
    dom = PlanarDomain(tree, window, mesh, "none")

    chi = CutoffProfile(2.0, 3.0)
    quad_from = [a + 0.9 * meta["lo_margin"] for a in c[:-1]]
    fam = StripWeightFamily(c, quad_from)
    wit_y = np.array(c[:-1], dtype=float)
    lattice = PointSeriesWeight(np.concatenate([2.5 + 1j * wit_y, -2.5 + 1j * wit_y]))
    return dom, chi, fam, lattice


def omega_s_scenario(
    kappa1: float = 0.4,
    j_min: int = -5,
    j_max: int = 6,
    window: tuple = (-10.0, 10.0, -7.0, 8.0),
    mesh: float = 0.012,
    condition_M: float = 2.0,
    condition_delta: float = 0.05,
    K: Optional[float] = None,
    seed: int = 0,
) -> dict:
    """`omega_s_composite`'s domain: the gallery fails the exterior-witness
    condition on a wide window, yet the composite weight  chi * (strip
    weight) + K * (hand-placed series weight)  certifies closed range, with
    K found by doubling search.
    """
    dom, chi, fam, lattice = omega_s_composite(kappa1, j_min, j_max, window, mesh)
    cx = condition_x(dom, condition_M, condition_delta)
    wit_clear = float(clearance(dom, lattice.witnesses).min())

    comp = certify_composite(dom, chi, fam, lattice, K=K)
    cert = None
    if comp.certified:
        cert = certificate(comp.A_bound, comp.B_prime)

    checks = [
        {
            "name": "exterior-witness condition fails on this window",
            "passed": not cx.holds,
            "detail": {"failure_count": cx.failure_count},
        },
        {
            "name": "hand-placed witnesses clear the domain",
            "passed": bool(wit_clear > 0),
            "detail": {"min_clearance": wit_clear},
        },
        {
            "name": "composite weight certified",
            "passed": comp.certified,
            "detail": {"K": comp.K, "B_prime": comp.B_prime},
        },
    ]
    return {
        "scenario": "omega_s",
        "seed": seed,
        "mesh": mesh,
        "params": {
            "kappa1": kappa1,
            "j_min": j_min,
            "j_max": j_max,
            "window": list(window),
            "condition_M": condition_M,
            "condition_delta": condition_delta,
            "K": K,
        },
        "measured": {
            "condition_x": {
                "holds": cx.holds,
                "failure_count": cx.failure_count,
            },
            "witness_min_clearance": wit_clear,
            "composite": {
                "certified": comp.certified,
                "K": comp.K,
                "B_prime": comp.B_prime,
                "A_bound": comp.A_bound,
                "crossbound": comp.crossbound,
                "b": comp.b,
                "regions": comp.regions,
            },
            "certificate": None
            if cert is None
            else {
                "kind": cert.kind,
                "C": cert.C if math.isfinite(cert.C) else None,
                "log10_C": cert.log10_C,
            },
        },
        "checks": checks,
        "notes": [
            "gaps pinch far from the column, so no single (M, delta) works "
            "on a wide window; the composite weight still certifies closed "
            "range on the windowed domain",
        ],
    }


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def _ints(values) -> list:
    return [int(j) for j in values]


def _complex_pair(pair) -> complex:
    cr, ci = pair
    return complex(cr, ci)


def _as_given(value):
    return value


def _or_null(convert):
    """`convert`, letting null through: the scenario's default."""
    return lambda value: None if value is None else convert(value)


def _positive(value) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"must be finite and > 0, got {value}")
    return value


# kind -> (scenario function, {param: converter}); a spec param not listed
# is an error, and every listed one is converted before the call
_SCENARIOS = {
    "scaling": (scaling_scenario, {"j_values": _ints, "center": _complex_pair}),
    "tube": (tube_scenario, {"m": int, "mc_samples": int, "j_values": _ints}),
    "gallery": (
        strip_gallery,
        {
            "c": _as_given,
            "bands": _as_given,
            "M": float,
            "window": tuple,
            "condition_M": _or_null(float),
            "condition_delta": _or_null(float),
            "symmetry": _as_given,
        },
    ),
    "omega_s": (
        omega_s_scenario,
        {
            "kappa1": float,
            "j_min": int,
            "j_max": int,
            "window": tuple,
            "condition_M": float,
            "condition_delta": float,
            "K": _or_null(_positive),
        },
    ),
}


def _convert(what: str, convert, value):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"scenario {what}: {exc}") from None


def run_scenario(spec: dict) -> dict:
    """Execute a scenario spec {scenario, params, mesh, seed}; deterministic
    given the spec.  A param the scenario does not take, or a param, seed
    or mesh that does not convert, raises ScenarioError naming its key, as
    does a mesh that is not finite and > 0, for every kind."""
    if not isinstance(spec, dict) or "scenario" not in spec:
        raise ScenarioError("scenario spec needs a 'scenario' key")
    kind = spec["scenario"]
    if not isinstance(kind, str) or kind not in _SCENARIOS:
        raise ScenarioError(f"unknown scenario {kind!r}")
    fn, converters = _SCENARIOS[kind]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError(f"scenario 'params' must be an object, got {params!r}")
    if kind == "gallery" and "preset" in params:
        if params["preset"] != "uniform":
            raise ScenarioError(f"unknown gallery preset {params['preset']!r}")
        params = {**uniform_gallery_params(), **params}

    known = set(converters) | ({"preset"} if kind == "gallery" else set())
    unknown = sorted(set(params) - known)
    if unknown:
        raise ScenarioError(
            f"scenario param {unknown[0]!r}: {kind} takes no such parameter "
            f"(it takes {', '.join(sorted(known))})"
        )
    kw = {"seed": _convert("'seed'", int, spec.get("seed", 0))}
    if spec.get("mesh") is not None:
        kw["mesh"] = _convert("'mesh'", float, spec["mesh"])
        if not (math.isfinite(kw["mesh"]) and kw["mesh"] > 0):
            raise ScenarioError(f"mesh must be finite and > 0, got {kw['mesh']}")
    for key, convert in converters.items():
        if key in params:
            kw[key] = _convert(f"param {key!r}", convert, params[key])
    return fn(**kw)
