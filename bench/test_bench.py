"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

ROOT = Path(__file__).resolve().parent.parent


def _span(i, parent, name, start, end, **counts):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end,
            "counts": counts, "error": None}


class TestSelfTime:
    def test_children_subtracted(self):
        s = [_span(0, None, "root", 0.0, 10.0), _span(1, 0, "a", 1.0, 4.0), _span(2, 0, "b", 5.0, 6.0)]
        assert spans.self_times(s) == pytest.approx({0: 6.0, 1: 3.0, 2: 1.0})

    def test_overlapping_children_counted_once(self):
        s = [_span(0, None, "root", 0.0, 10.0), _span(1, 0, "a", 1.0, 4.0), _span(2, 0, "b", 3.0, 6.0)]
        assert spans.self_times(s)[0] == pytest.approx(5.0)

    def test_child_clipped_to_parent(self):
        s = [_span(0, None, "root", 0.0, 2.0), _span(1, 0, "a", 1.5, 3.0)]
        assert spans.self_times(s)[0] == pytest.approx(1.5)

    def test_grandchildren_only_reduce_their_parent(self):
        s = [_span(0, None, "root", 0.0, 10.0), _span(1, 0, "a", 2.0, 8.0), _span(2, 1, "b", 3.0, 7.0)]
        assert spans.self_times(s) == pytest.approx({0: 4.0, 1: 2.0, 2: 4.0})

    def test_recorder_parents_and_self_time(self):
        ticks = iter(range(100))
        rec = spans.Recorder(clock=lambda: float(next(ticks)))
        inner = rec.wrap("inner", lambda x: x + 1, counter=lambda r, a: {"n": r})
        assert rec.call("outer", lambda: inner(1) + inner(2)) == 5
        outer, a, b = rec.spans
        assert (a["parent"], b["parent"], outer["parent"]) == (0, 0, None)
        assert (outer["start"], outer["end"]) == (0.0, 5.0)
        totals = spans.layer_totals(rec.spans)
        assert totals["outer"]["self_s"] == pytest.approx(3.0)
        assert totals["inner"] == {"s": 2.0, "self_s": 2.0, "calls": 2, "counts": {"n": 5}}

    def test_recorder_keeps_span_of_raising_call(self):
        rec = spans.Recorder()
        with pytest.raises(KeyError):
            rec.call("boom", lambda: {}["x"])
        assert rec.spans[0]["error"] == "KeyError" and rec.spans[0]["end"] is not None

    def test_same_name_nesting_not_double_counted(self):
        s = [_span(0, None, "f", 0.0, 10.0, k=1), _span(1, 0, "f", 2.0, 4.0, k=2),
             _span(2, None, "g", 10.0, 11.0, solve_max_residual=0.5),
             _span(3, None, "g", 11.0, 12.0, solve_max_residual=0.25)]
        totals = spans.layer_totals(s)
        assert totals["f"]["s"] == pytest.approx(10.0)
        assert totals["f"]["self_s"] == pytest.approx(10.0)
        assert totals["f"]["counts"] == {"k": 3}
        assert totals["g"]["counts"] == {"solve_max_residual": 0.5}


def _result(key, problems=(), sigma=None, report=True):
    return {"key": key, "traced": False, "wall_s": 1.0, "rss_mb": 10.0,
            "report": {"sigma_min": sigma} if report else None,
            "problems": list(problems), "wrong_output": False}


class TestFailRatio:
    def test_counts_every_command_of_every_pass(self):
        pass_ = [_result("gallery"), _result("omega_s", ["exit 1, expected 0"]),
                 _result("scaling"), _result("tube")]
        assert run.fail_counts([pass_, pass_]) == (8, 2)

    def test_ok_ratio_is_complement_of_fail_ratio(self):
        pass_ = [_result("a"), _result("b", ["missing report"]), _result("c"), _result("d")]
        cmds = [run.Command(k, ("certify",)) for k in "abcd"]
        m = run.end_to_end([pass_], cmds, [0.3])
        assert m["ok_ratio"] == pytest.approx(0.75)
        assert m["wall_s"] == pytest.approx(4.0)


class TestSigmaReference:
    def test_reference_is_half_first_bessel_zero(self):
        ref = run.sigma_reference()
        assert ref == pytest.approx(1.2024, abs=5e-5)
        assert ref == pytest.approx(2.404825557695773 / 2, rel=1e-12)

    def test_rel_err_takes_largest_and_null_counts_as_one(self):
        ref = run.sigma_reference()
        cmds = [run.Command("coarse", ("verify",)), run.Command("fine", ("verify",))]
        ok = [_result("coarse", sigma=ref), _result("fine", sigma=ref * 0.5)]
        assert run.sigma_rel_err(ok, cmds, ref) == pytest.approx(0.5)
        assert run.sigma_rel_err([_result("coarse", sigma=ref), _result("fine", sigma=None)], cmds, ref) == 1.0
        assert run.sigma_rel_err([_result("coarse", report=False)], cmds, ref) == 1.0

    def test_workload_without_verify_reports_one(self):
        cmds = [run.Command("g", ("certify",))]
        assert run.sigma_rel_err([_result("g")], cmds, 1.2) == 1.0


class TestDefinition:
    def test_benchmark_json_names_match_emitted_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
        assert [w["name"] for w in spec["workloads"]] == list(run.workloads(ROOT))

    def test_every_shipped_scenario_is_in_the_workload(self):
        keys = [c.key for c in run.workloads(ROOT)["scenarios"]]
        assert keys == sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))

    def test_handler_modules_follow_cli_imports(self):
        mods = run.handler_modules(ROOT)
        assert {"dbar_range.cli", "dbar_range.geometry", "dbar_range.discrete"} <= set(mods)


class TestInstall:
    def test_wraps_every_binding_and_restores(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "src"))
        from dbar_range import geometry, scenarios

        original = geometry.condition_x
        patched = spans.install(spans.Recorder())
        try:
            assert geometry.condition_x is not original
            assert scenarios.condition_x is geometry.condition_x
            assert geometry.Raster.__init__.__wrapped__ is not None
        finally:
            spans.restore(patched)
        assert geometry.condition_x is original and scenarios.condition_x is original
        assert not hasattr(geometry.Raster.__init__, "__wrapped__")


def _bench(args, cwd, timeout=120):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_smoke_traced_scenarios():
    proc = _bench(["--workload", "scenarios", "--smoke", "--trace", "1", "--seed", "5"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 2 * len([c for c in run.workloads(ROOT)["scenarios"] if c.smoke])
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["metrics"]["scenarios.run_scenario_s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(["--workload", "certify", "--seconds", "1"], tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
