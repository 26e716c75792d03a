"""Benchmark of the dbar-range CLI: closed loop, one command at a time.

    python3 bench/run.py --workload {certify,verify,scenarios} \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the repository root.  Each command runs as its own
``python -m dbar_range.cli`` child with single-thread BLAS and its own
``--out`` directory.  With ``--trace 0`` the run times passes over the
workload's commands for ``--seconds`` seconds and reports the end-to-end
metrics; with ``--trace 1`` it runs untraced/traced pass pairs, the traced
one through ``bench/spans.py``, and reports the per-layer metrics.  Every
run checks exit codes and report bytes.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Full results,
spans included, go to ``.bench_build/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import spans  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_build"
THREAD_ENV = {
    "DBAR_RANGE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "sigma_rel_err": "ratio",
}
SPAN_NAMES = ("cli.import", "cli.main") + tuple(layer[2] for layer in spans.LAYERS)
COUNTS = {
    "geometry.raster": ("raster_nodes",),
    "geometry.condition_x": ("witnesses",),
    "geometry.build_lattice": ("lattice_points",),
    "geometry.clearance": ("clearance_calls",),
    "discrete.assemble": ("unknowns", "nnz"),
    "discrete.solve": ("solves", "lsqr_iters", "solve_max_residual"),
    "reporting.write_report": ("report_bytes",),
}
COUNT_UNITS = {"solve_max_residual": "1", "report_bytes": "bytes"}


def _per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
    for name, keys in COUNTS.items():
        layer = name.split(".")[0]
        for key in keys:
            units[f"{layer}.{key}"] = COUNT_UNITS.get(key, "count")
    units["geometry.witness_use_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.errors"] = "count"
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple
    expect: int = 0
    seeded: bool = True
    smoke: bool = False


def workloads(root: Path) -> dict[str, list[Command]]:
    gallery = ("certify", "--domain", "domains/uniform_gallery.json", "--M", "2", "--delta", "0.1")
    disc = ("verify", "--domain", "domains/unit_disc.json", "--C", "1")
    return {
        "certify": [
            Command("gallery_h0.02", gallery, smoke=True),
            Command("gallery_h0.01", gallery + ("--mesh", "0.01")),
            Command(
                "whole_plane",
                ("certify", "--domain", "domains/whole_plane.json", "--M", "2", "--delta", "0.1"),
                expect=2,
                smoke=True,
            ),
        ],
        "verify": [
            Command("disc_h0.0625", disc, smoke=True),
            Command("disc_h0.03125", disc + ("--mesh", "0.03125")),
        ],
        # Shipped specs verbatim: their own seeds drive the Monte-Carlo checks.
        "scenarios": [
            Command(p.stem, ("scenario", "--spec", f"scenarios/{p.name}"), seeded=False,
                    smoke=p.stem != "gallery_uniform")
            for p in sorted((root / "scenarios").glob("*.json"))
        ],
    }


def missing_inputs(root: Path, table: dict[str, list[Command]]) -> list[str]:
    """Program and input files the workloads need that are absent."""
    need = {"src/dbar_range/cli.py"}
    for cmd in (c for cmds in table.values() for c in cmds):
        need.update(v for k, v in zip(cmd.argv, cmd.argv[1:]) if k in ("--domain", "--spec"))
    missing = sorted(p for p in need if not (root / p).is_file())
    if not table["scenarios"]:
        missing.append("scenarios/*.json")
    return missing


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float


def run_child(argv, env, stdout_path, stderr_path, timeout=CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion; wall time from spawn to reap, max RSS
    from wait4.  A child past the timeout is killed."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def handler_modules(root: Path) -> list[str]:
    """dbar_range.cli plus every package module it imports, lazily or not."""
    tree = ast.parse((root / "src/dbar_range/cli.py").read_text(encoding="utf-8"))
    mods = {"dbar_range.cli"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            mods.add(f"dbar_range.{node.module}")
    return sorted(mods)


def measure_setup(env, run_dir: Path, repeats: int) -> tuple[list[float], dict]:
    """Time children that import the CLI's modules and exit.  One untimed
    child first fills the bytecode cache."""
    code = (
        "import importlib, json\n"
        f"for m in {handler_modules(ROOT)!r}: importlib.import_module(m)\n"
        "import numpy, scipy, dbar_range\n"
        "print(json.dumps({'package': dbar_range.__file__,"
        " 'numpy': numpy.__version__, 'scipy': scipy.__version__}))\n"
    )
    argv = [sys.executable, "-c", code]
    out, err = run_dir / "setup.out", run_dir / "setup.err"
    times = []
    for i in range(repeats + 1):
        child = run_child(argv, env, out, err)
        if child.code != 0:
            raise RuntimeError(f"import probe exited {child.code}: {_tail(err)}")
        if i:
            times.append(child.wall_s)
    info = json.loads(out.read_text(encoding="utf-8"))
    if not Path(info["package"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"dbar_range imported from {info['package']}, not {ROOT / 'src'}")
    return times, info


def _tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# Passes and checks
# ---------------------------------------------------------------------------


def run_pass(commands, env, pass_dir: Path, cli_seed: int, traced: bool, refs: dict) -> list[dict]:
    """Run every command once.  ``refs`` maps command key -> the report bytes
    of its first run in this set; a later run must reproduce them."""
    results = []
    for cmd in commands:
        out = pass_dir / cmd.key
        out.mkdir(parents=True)
        cli_args = list(cmd.argv) + (["--seed", str(cli_seed)] if cmd.seeded else [])
        cli_args += ["--out", str(out)]
        span_file = out / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "spans.py"), "--spans", str(span_file), "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "dbar_range.cli", *cli_args]
        child = run_child(argv, env, out / "stdout.txt", out / "stderr.txt")
        reports = sorted(out.glob("*_report.json"))
        data = reports[0].read_bytes() if len(reports) == 1 else None
        res = {
            "key": cmd.key,
            "traced": traced,
            "exit_code": child.code,
            "expected": cmd.expect,
            "wall_s": child.wall_s,
            "rss_mb": child.rss_mb,
            "sha256": None if data is None else hashlib.sha256(data).hexdigest(),
            "report": None,
            "problems": [],
            "wrong_output": False,
        }
        if child.code != cmd.expect:
            res["problems"].append(f"exit {child.code}, expected {cmd.expect}: {_tail(out / 'stderr.txt')}")
        if data is None:
            res["problems"].append(f"{len(reports)} report files, expected 1")
        else:
            try:
                res["report"] = json.loads(data)
            except ValueError as exc:
                res["problems"].append(f"report does not parse: {exc}")
                res["wrong_output"] = True
            ref = refs.setdefault(cmd.key, data)
            if data != ref:
                res["problems"].append("report bytes differ from the first run in this set")
                res["wrong_output"] = True
        if traced:
            trace = json.loads(span_file.read_text(encoding="utf-8")) if span_file.is_file() else {}
            res["trace_error"] = trace.get("error")
            res["spans"] = trace.get("spans", [])
        results.append(res)
        shutil.rmtree(out)
    return results


def sigma_reference() -> float:
    """sigma_min of the continuum dbar on the unit disc: j_{0,1} / 2."""
    from scipy.special import jn_zeros

    return float(jn_zeros(0, 1)[0]) / 2.0


def sigma_rel_err(results: list[dict], commands: list[Command], ref: float) -> float:
    """Largest |sigma_min - ref| / ref over the pass's verify commands.  A
    missing report or a null sigma_min counts as 1, and so does a pass with
    no verify command: no sigma_min was delivered."""
    verify = {c.key for c in commands if c.argv[0] == "verify"}
    errs = []
    for r in results:
        if r["key"] in verify:
            sigma = (r["report"] or {}).get("sigma_min")
            errs.append(1.0 if sigma is None else abs(sigma - ref) / ref)
    return max(errs, default=1.0)


def fail_counts(passes: list[list[dict]]) -> tuple[int, int]:
    """(attempted, failed) over every command run in every pass."""
    runs = [r for p in passes for r in p]
    return len(runs), sum(1 for r in runs if r["problems"])


def end_to_end(passes, commands, setup_times) -> dict:
    attempted, failed = fail_counts(passes)
    ref = sigma_reference()
    return {
        "wall_s": statistics.median(sum(r["wall_s"] for r in p) for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p) for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
        "sigma_rel_err": statistics.median(sigma_rel_err(p, commands, ref) for p in passes),
    }


def command_layers(res: dict) -> dict:
    """Per-layer metric values of one traced command."""
    totals = spans.layer_totals(res["spans"])
    out = {}
    for name in SPAN_NAMES:
        t = totals.get(name, {"s": 0.0, "self_s": 0.0, "counts": {}})
        out[f"{name}_s"] = t["s"]
        out[f"{name}_self_s"] = t["self_s"]
    for name, keys in COUNTS.items():
        layer = name.split(".")[0]
        counts = totals.get(name, {}).get("counts", {})
        for key in keys:
            out[f"{layer}.{key}"] = counts.get(key, 0)
    out["trace.errors"] = int(res["trace_error"] is not None)
    return out


def pass_layers(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of one traced pass: sums over its commands, the
    largest residual, and the tracing overhead against the untraced pass.
    Each traced result keeps its own values under "layers"."""
    for r in traced:
        r["layers"] = command_layers(r)
    per_cmd = [r["layers"] for r in traced]
    out = {}
    for name in PER_LAYER:
        values = [c[name] for c in per_cmd if name in c]
        if name.split(".")[-1] in spans.MAX_COUNTS:
            out[name] = max(values, default=0.0)
        elif values:
            out[name] = sum(values)
    wit = out["geometry.witnesses"]
    out["geometry.witness_use_ratio"] = out["geometry.lattice_points"] / wit if wit else 0.0
    out["trace.overhead_s"] = sum(r["wall_s"] for r in traced) - sum(r["wall_s"] for r in untraced)
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def run_info(setup_info: dict) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": setup_info["numpy"],
        "scipy": setup_info["scipy"],
        "threads": THREAD_ENV,
        "commit": commit,
    }


def print_table(passes: list[list[dict]]) -> None:
    keys = [r["key"] for r in passes[0]]
    print(f"# {'command':<18} {'traced':>6} {'exit':>4} {'wall_s':>9} {'rss_mb':>7}  sha256[:16]       status")
    for key in keys:
        for traced in (False, True):
            runs = [r for p in passes for r in p if r["key"] == key and r["traced"] == traced]
            if not runs:
                continue
            wall = statistics.median(r["wall_s"] for r in runs)
            rss = max(r["rss_mb"] for r in runs)
            sha = (runs[0]["sha256"] or "-")[:16]
            bad = [r for r in runs if r["problems"]]
            status = "ok" if not bad else f"FAILED {len(bad)}/{len(runs)}: {bad[0]['problems'][0]}"
            print(f"# {key:<18} {traced!s:>6} {runs[0]['exit_code']:>4} {wall:>9.3f} {rss:>7.1f}  "
                  f"{sha:<17} {status}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("certify", "verify", "scenarios"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0, help="measuring time; at least one pass runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one pass of a reduced command set")
    args = p.parse_args(argv)

    table = workloads(ROOT)
    missing = missing_inputs(ROOT, table)
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    commands = table[args.workload]
    if args.smoke:
        commands = [c for c in commands if c.smoke]
    random.Random(args.seed).shuffle(commands)
    cli_seed = args.seed % 2**32
    seconds = 0.0 if args.smoke else args.seconds
    env = child_env(ROOT)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_times, setup_info = measure_setup(env, run_dir, 0 if args.trace else SETUP_REPEATS)
        refs: dict = {}
        passes, layer_runs = [], []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            n = len(passes)
            untraced = run_pass(commands, env, run_dir / f"p{n}", cli_seed, False, refs)
            passes.append(untraced)
            if args.trace:
                traced = run_pass(commands, env, run_dir / f"t{n}", cli_seed, True, refs)
                passes.append(traced)
                layer_runs.append(pass_layers(untraced, traced))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        names = PER_LAYER
        values = {k: statistics.median(run[k] for run in layer_runs) for k in names}
    else:
        names = END_TO_END
        values = end_to_end(passes, commands, setup_times)
    attempted, failed = fail_counts(passes)
    correct = not any(r["wrong_output"] for p in passes for r in p)
    info = run_info(setup_info)

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(passes)} passes of {len(commands)} commands")
    print(f"# env {json.dumps(info, sort_keys=True)}")
    print_table(passes)
    if args.trace:
        for r in passes[-1]:
            nonzero = ", ".join(f"{k} {v:.4g}" for k, v in r["layers"].items() if v)
            print(f"# layers of {r['key']}: {nonzero}")
    print(f"# fail_ratio {failed / attempted:.6g} ({failed}/{attempted} commands failed)")
    for name, unit in names.items():
        print(f"# {name:<36} {values[name]:>14.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in names.items()},
    }
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    detail = {
        "args": vars(args),
        "info": info,
        "setup_times_s": setup_times,
        "commands": [c.__dict__ for c in commands],
        "passes": [[{k: v for k, v in r.items() if k != "report"} for r in p] for p in passes],
        "per_pass_layers": layer_runs,
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (out_dir / name).write_text(json.dumps(detail, indent=1, default=str), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
