import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from dbar_range import cli, discrete, scenarios

ROOT = Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "scenarios").glob("*.json"))


def reports(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*_report.json"))}


@pytest.mark.parametrize("spec", SPECS, ids=[p.stem for p in SPECS])
def test_every_shipped_scenario_runs_and_replays(spec, tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["scenario", "--spec", str(spec), "--out", str(out)]) == 0
        runs.append(reports(out))
    assert len(runs[0]) == 1
    assert runs[0] == runs[1]
    report = json.loads(next(iter(runs[0].values())))
    assert report["checks"] and all(c["passed"] is True for c in report["checks"])


def test_certify_gallery_report_bytes_pinned(tmp_path):
    argv = ["certify", "--domain", str(ROOT / "domains/uniform_gallery.json"),
            "--M", "2", "--delta", "0.1", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    data = (tmp_path / "certify_report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "0ac943fbd0e0790052311f415670095fdb0475da17b47adc276b76779bc55e4a"
    )


def verify(tmp_path, C, *extra):
    argv = ["verify", "--domain", str(ROOT / "domains/unit_disc.json"), "--C", repr(C),
            "--out", str(tmp_path), *extra]
    code = cli.main(argv)
    return code, json.loads((tmp_path / "verify_report.json").read_text())


def test_verify_passes_exactly_above_the_discrete_constant(tmp_path):
    code, rep = verify(tmp_path / "a", 1.0)
    assert code == 0
    const = rep["discrete_constant"]
    assert rep["sigma_min"] == pytest.approx(2.404825557695773 / 2, rel=0.02)
    assert rep["sigma_min_error"] is None
    assert rep["verification"]["max_ratio"] == pytest.approx(const, rel=1e-9)
    assert verify(tmp_path / "b", 1.0)[1] == rep
    assert verify(tmp_path / "c", const)[0] == 0
    assert verify(tmp_path / "d", const * (1 - 1e-5))[0] == 3


def test_verify_reports_eigensolver_failure(tmp_path, monkeypatch):
    def stalled(A, k, **kw):
        raise ArpackNoConvergence("no convergence", np.array([]), np.zeros((A.shape[0], 0)))

    monkeypatch.setattr(discrete, "eigsh", stalled)
    code, rep = verify(tmp_path, 1.0, "--trials", "3")
    assert code == 0
    assert rep["sigma_min"] is None and rep["discrete_constant"] is None
    assert "no Ritz pair" in rep["sigma_min_error"]
    assert rep["verification"]["witness_ratio"] is None
    assert len(rep["verification"]["ratios"]) == 3


def test_scenario_seed_zero_overrides_spec(tmp_path, monkeypatch):
    seen = []

    def fake_run(spec):
        seen.append(spec["seed"])
        return {"scenario": "fake", "checks": []}

    monkeypatch.setattr(scenarios, "run_scenario", fake_run)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scenario": "fake", "seed": 7}))
    for extra in (["--seed", "0"], ["--seed", "3"], []):
        assert cli.main(["scenario", "--spec", str(spec), "--out", str(tmp_path), *extra]) == 0
    assert seen == [0, 3, 7]


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def clean_thread_env(monkeypatch):
    """Unset the thread variables; monkeypatch restores them afterwards."""
    for var in THREAD_VARS + ("DBAR_RANGE_THREADS",):
        monkeypatch.setenv(var, "")
        monkeypatch.delenv(var)
    return monkeypatch


def test_explicit_thread_cap_overrides_inherited_pools(clean_thread_env):
    clean_thread_env.setenv("DBAR_RANGE_THREADS", "3")
    clean_thread_env.setenv("OMP_NUM_THREADS", "8")
    cli._setup_threads()
    assert [cli.os.environ[v] for v in THREAD_VARS] == ["3", "3", "3"]


def test_thread_cap_defaults_to_one_without_overriding(clean_thread_env):
    clean_thread_env.setenv("OMP_NUM_THREADS", "8")
    cli._setup_threads()
    assert [cli.os.environ[v] for v in THREAD_VARS] == ["8", "1", "1"]


def test_numpy_scalars_reach_json_as_python_values():
    from dbar_range.reporting import canonical_json

    text = canonical_json({"ok": np.bool_(True), "n": np.int32(3), "x": np.float64(0.5)})
    assert json.loads(text) == {"ok": True, "n": 3, "x": 0.5}


def test_unknown_gallery_preset_exits_1(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scenario": "gallery", "params": {"preset": "shrinking"}}))
    assert cli.main(["scenario", "--spec", str(spec), "--out", str(tmp_path)]) == 1
    assert "unknown gallery preset" in capsys.readouterr().err


def test_certify_modules_leave_spline_interpolation_unimported():
    code = (
        "import sys, dbar_range.cli, dbar_range.geometry, dbar_range.weights; "
        "print('scipy.interpolate' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "False"
