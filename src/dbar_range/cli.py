"""Command-line front end.

Subcommands: certify (exterior-witness condition -> lattice -> weight
report), verify (the discrete closed-range constant, from the lowest
Dirichlet eigenpair, checked against a supplied constant), scenario
(replay an example family from a spec file).  Exit codes are stable: 0
certified or passed, 1 usage/configuration error (a lattice that fails its
re-verification and an eigensolver that fails included), 2 condition not
satisfied, 3 verification exceeded the supplied constant, 4 internal
error (any other exception, a MemoryError included: one "error: internal:"
line on stderr, and the traceback too under -v).  The package
needs numpy alone at run time; no command imports scipy, or numpy.random,
which maps OpenSSL's libcrypto through secrets and hmac.

--mesh replaces the "mesh" of the domain file (certify, verify) or of the
scenario spec, so every stage of a command works at that one mesh; a
certify or verify report records the file's own document and --mesh.

DBAR_RANGE_THREADS caps the linear-algebra thread pools (default 1, so
that each config always replays byte for byte); when set it overrides
inherited OMP/OPENBLAS/MKL_NUM_THREADS values.  It must be honored
before numpy loads, which is why the heavy imports live inside the
command handlers.  `main` called in a process that already imported
numpy runs with that process's pools: with more than one thread some
reductions (the scaling scenario's quadrature norms) round differently,
so the report bytes can differ from those of `python -m dbar_range.cli`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path


def _setup_threads():
    """An explicit DBAR_RANGE_THREADS overrides inherited pool sizes; without
    it, pools not already sized get 1 thread."""
    cap = os.environ.get("DBAR_RANGE_THREADS")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if cap is not None:
            os.environ[var] = cap
        else:
            os.environ.setdefault(var, "1")


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, like every other usage or configuration
    error, not with argparse's 2 (which means "condition not satisfied")."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _common(parser, seed_default=0):
    parser.add_argument("--out", default="dbar-range-out", help="output directory")
    parser.add_argument("--seed", type=int, default=seed_default, help="seed recorded in reports")
    parser.add_argument("--mesh", type=_positive_float, default=None, help="mesh override")
    parser.add_argument("-v", "--verbose", action="count", default=0)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="dbar-range",
        description="closed-range certificates and discrete verification "
        "for the Cauchy-Riemann operator on planar domains",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="construct a weight certificate for a domain")
    c.add_argument("--domain", required=True, help="domain JSON file")
    c.add_argument("--M", type=_positive_float, required=True, help="witness search radius")
    c.add_argument("--delta", type=_positive_float, required=True, help="witness clearance")
    _common(c)

    v = sub.add_parser("verify", help="check a constant against the discrete operator")
    v.add_argument("--domain", required=True, help="domain JSON file")
    v.add_argument("--C", type=_positive_float, required=True, help="constant to verify")
    v.add_argument(
        "--dump-field", action="store_true",
        help="CSV of the canonical solution for the lambda_1 eigenvector, one row per triangle",
    )
    _common(v)

    s = sub.add_parser("scenario", help="run a scenario spec file")
    s.add_argument("--spec", required=True, help="scenario JSON file")
    _common(s, seed_default=None)
    return p


def _load_json(path: str):
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"error: {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _domain(doc, mesh):
    """The document's domain, with `mesh` in place of its own when given."""
    from .geometry import domain_from_dict

    if mesh is not None and isinstance(doc, dict):
        doc = {**doc, "mesh": mesh}
    return domain_from_dict(doc)


def cmd_certify(args) -> int:
    from .geometry import build_lattice, condition_x
    from .reporting import stamp, write_report
    from .weights import lattice_weight_report

    config = {
        "command": "certify",
        "domain": _load_json(args.domain),
        "M": args.M,
        "delta": args.delta,
        "mesh": args.mesh,
        "seed": args.seed,
    }
    dom = _domain(config["domain"], args.mesh)
    cx = condition_x(dom, args.M, args.delta)
    report = {
        "command": "certify",
        "M": args.M,
        "delta": args.delta,
        "mesh": dom.mesh,
        "seed": args.seed,
        "condition_x": {
            "holds": cx.holds,
            "failure_count": cx.failure_count,
            "unprovable_count": cx.unprovable_count,
            "accepted_by_symmetry": cx.accepted_by_symmetry,
        },
        "notes": list(cx.notes),
    }
    if not cx.holds:
        report["verdict"] = (
            "undecided by this toolkit: the exterior-witness condition fails "
            "at these parameters (it is sufficient, not necessary)"
        )
        path = write_report(Path(args.out) / "certify_report.json", stamp(report, config))
        print(f"condition not satisfied; report: {path}")
        return 2
    lat = build_lattice(cx)
    weight = lattice_weight_report(lat)
    report["weight"] = weight
    report["verdict"] = "closed range certified on the windowed domain"
    path = write_report(Path(args.out) / "certify_report.json", stamp(report, config))
    print(
        f"certified: log10 C = {weight['log10_C']:.3f} "
        f"(A = {weight['A']:.6g}, B = {weight['B']:.6g}); report: {path}"
    )
    return 0


def cmd_verify(args) -> int:
    """sigma_min and the canonical solution for the lambda_1 eigenvector,
    whose ratio is the discrete constant 1/sigma_min, checked against --C.
    An eigensolver failure raises SolverError (exit 1, no report).  With
    --dump-field verify_field.csv holds that solution, the extremal field,
    per triangle, from the one solve the check made.  --seed is recorded in
    the report and drives nothing."""
    from .discrete import assemble, closed_range_constant, verify_certificate
    from .reporting import stamp, write_csv, write_report

    config = {
        "command": "verify",
        "domain": _load_json(args.domain),
        "C": args.C,
        "mesh": args.mesh,
        "seed": args.seed,
    }
    g = assemble(_domain(config["domain"], args.mesh))
    sigma = closed_range_constant(g)
    rep = verify_certificate(g, args.C)
    report = {
        "command": "verify",
        "mesh": g.h,
        "seed": args.seed,
        "unknowns": g.size,
        "sigma_min": sigma,
        "discrete_constant": 1.0 / sigma,
        "verification": rep,
    }
    path = write_report(Path(args.out) / "verify_report.json", stamp(report, config))
    if args.dump_field:
        v = g.ground_solve[0]  # the solve verify_certificate made
        write_csv(
            Path(args.out) / "verify_field.csv",
            {
                "x": g.tri_z.real,
                "y": g.tri_z.imag,
                "re_u": v.real,
                "im_u": v.imag,
            },
        )
    status = "passed" if rep["passed"] else "EXCEEDED"
    print(
        f"verification {status}: witness ratio {rep['witness_ratio']:.6g} vs "
        f"C = {args.C:.6g}; report: {path}"
    )
    return 0 if rep["passed"] else 3


def cmd_scenario(args) -> int:
    from .reporting import stamp, write_csv, write_report
    from .scenarios import run_scenario

    spec = _load_json(args.spec)
    if isinstance(spec, dict):  # run_scenario refuses any other spec
        if args.mesh is not None:
            spec["mesh"] = args.mesh
        if args.seed is not None:
            spec["seed"] = args.seed
    report = run_scenario(spec)
    name = report["scenario"]
    path = write_report(Path(args.out) / f"scenario_{name}_report.json", stamp(report, spec))
    rows = report.get("measured", {}).get("rows")
    if rows:
        cols = {k: [r[k] for r in rows] for k in rows[0]}
        write_csv(Path(args.out) / f"scenario_{name}_rows.csv", cols)
    ok = all(c["passed"] for c in report.get("checks", []))
    print(f"scenario {name}: {'all checks passed' if ok else 'CHECK FAILED'}; report: {path}")
    return 0 if ok else 3


def main(argv=None) -> int:
    _setup_threads()
    args = build_parser().parse_args(argv)
    # DomainSpecError, QueryError, MeshError and ScenarioError are
    # ValueErrors, so no command imports a module only to name its error
    from .geometry import ConfigurationError, LatticeVerificationError, SolverError

    handlers = {"certify": cmd_certify, "verify": cmd_verify, "scenario": cmd_scenario}
    try:
        return handlers[args.command](args)
    except (OSError, ConfigurationError, LatticeVerificationError, SolverError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        if args.verbose:
            import traceback

            traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
