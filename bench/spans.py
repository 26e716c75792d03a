"""Span recorder for the traced benchmark run, and the layer table it wraps.

The program's source is never edited: the tracer imports the package,
replaces each layer function listed in LAYERS with a recording wrapper
(in every ``dbar_range`` module that holds a reference to it), runs
``dbar_range.cli.main(argv)`` in-process, restores the originals and
writes the spans as JSON.

Run as a script it traces one CLI command:

    PYTHONPATH=src python3 bench/spans.py --spans OUT.json -- ARGV...

Each span records name, start, end, parent and the counts taken from the
wrapped call's arguments and return value.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
import traceback
from pathlib import Path

# Counts whose aggregate over spans is a maximum; every other count is a sum.
MAX_COUNTS = frozenset({"solve_max_residual"})


def _report_bytes(path, args):
    return {"report_bytes": Path(path).stat().st_size}


# (module, attribute path, span name, counter(result, args) -> dict)
LAYERS = (
    ("dbar_range.geometry", "Raster.__init__", "geometry.raster",
     lambda _, a: {"raster_nodes": int(a[0].inside.size)}),
    ("dbar_range.geometry", "condition_x", "geometry.condition_x",
     lambda cx, _: {"witnesses": len(cx.witness_points)}),
    ("dbar_range.geometry", "build_lattice", "geometry.build_lattice",
     lambda lat, _: {"lattice_points": len(lat)}),
    ("dbar_range.geometry", "clearance", "geometry.clearance",
     lambda _r, _a: {"clearance_calls": 1}),
    ("dbar_range.weights", "lattice_weight_report", "weights.lattice_weight_report", None),
    ("dbar_range.weights", "certify_composite", "weights.certify_composite", None),
    ("dbar_range.discrete", "assemble", "discrete.assemble",
     lambda g, _: {"unknowns": int(g.size), "nnz": int(g.op.nnz)}),
    ("dbar_range.discrete", "closed_range_constant", "discrete.sigma_min", None),
    ("dbar_range.discrete", "verify_certificate", "discrete.verify_certificate", None),
    ("dbar_range.discrete", "least_norm_solve", "discrete.solve",
     lambda r, _: {"solves": 1, "lsqr_iters": int(r[1].iterations),
                   "solve_max_residual": float(r[1].residual)}),
    ("dbar_range.scenarios", "run_scenario", "scenarios.run_scenario", None),
    ("dbar_range.reporting", "write_report", "reporting.write_report", _report_bytes),
)


class Recorder:
    """Keeps spans in memory; the open-span stack gives each span its parent."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._clock = clock

    def call(self, name, fn, args=(), kwargs=None, counter=None):
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": self._clock(),
            "end": None,
            "counts": {},
            "error": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = self._clock()
            self._stack.pop()
        if counter is not None:
            span["counts"] = counter(result, args)
        return result

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return wrapper


def _resolve(module, attr):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(recorder: Recorder, layers=LAYERS) -> list:
    """Wrap every layer function wherever a ``dbar_range`` module binds it.

    Returns the (owner, attribute, original) triples that ``restore`` puts
    back.  Modules that import a function by name (``from .geometry import
    condition_x``) hold their own reference, so each one is rebound too.
    """
    patched = []
    for module, attr, name, counter in layers:
        owner, leaf = _resolve(module, attr)
        original = getattr(owner, leaf)
        wrapper = recorder.wrap(name, original, counter)
        holders = [owner]
        if "." not in attr:
            holders += [
                m for key, m in sorted(sys.modules.items())
                if key.startswith("dbar_range") and m is not owner
                and any(v is original for v in vars(m).values())
            ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    patched.append((holder, key, original))
    return patched


def restore(patched: list) -> None:
    for holder, key, original in reversed(patched):
        setattr(holder, key, original)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: inclusive time, self time, call count and counts.

    Inclusive time sums the spans of a name that have no ancestor of the
    same name, so a recursive layer is not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        t = out.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}})
        t["self_s"] += own[s["id"]]
        t["calls"] += 1
        p = s["parent"]
        while p is not None and by_id[p]["name"] != s["name"]:
            p = by_id[p]["parent"]
        if p is None:
            t["s"] += s["end"] - s["start"]
        for key, value in s["counts"].items():
            old = t["counts"].get(key)
            if old is None:
                t["counts"][key] = value
            elif key in MAX_COUNTS:
                t["counts"][key] = max(old, value)
            else:
                t["counts"][key] = old + value
    return out


# ---------------------------------------------------------------------------
# Tracer entry point
# ---------------------------------------------------------------------------


def _import_modules():
    """Import the CLI and every package module it imports lazily."""
    cli = importlib.import_module("dbar_range.cli")
    for module in sorted({m for m, *_ in LAYERS}):
        importlib.import_module(module)
    return cli


def trace_command(argv: list[str]) -> dict:
    recorder = Recorder()
    cli = recorder.call("cli.import", _import_modules)
    patched = install(recorder)
    error = None
    try:
        code = recorder.call("cli.main", cli.main, (argv,))
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            code = exc.code or 0
        else:
            print(exc.code, file=sys.stderr)
            code = 1
    except Exception as exc:
        traceback.print_exc()
        error = type(exc).__name__
        code = 1
    finally:
        restore(patched)
    return {"argv": argv, "exit_code": code, "error": error, "spans": recorder.spans}


def main() -> int:
    p = argparse.ArgumentParser(description="trace one dbar-range CLI command")
    p.add_argument("--spans", required=True, help="JSON file the spans are written to")
    p.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    result = trace_command(argv)
    Path(args.spans).write_text(json.dumps(result), encoding="utf-8")
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
