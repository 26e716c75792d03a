import argparse
import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbar_range import cli, discrete, geometry, scenarios, weights
from dbar_range.reporting import canonical_json, config_hash

ROOT = Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "scenarios").glob("*.json"))


def outputs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of every file each shipped spec writes; refactoring the scenario
# code must not move a byte of them
SCENARIO_SHA256 = {
    "gallery_uniform": {
        "scenario_gallery_report.json":
            "6ba653662834549d7cc99d6b71f01bcfe93f5bf36f0d431092e7230c58343a03",
    },
    "omega_s": {
        "scenario_omega_s_report.json":
            "f247758bb4944de66512566a667912c26479c2af03e7746238e955d785c877c0",
    },
    "scaling": {
        "scenario_scaling_report.json":
            "9f397415f934623326a2ab2d45c43d6fcd253a7bc3500c1f3e2fb6046306119b",
        "scenario_scaling_rows.csv":
            "1de7b74967822c87cb9d0850f8c0a1a32918cb4375d544e5c68e377caa2c974f",
    },
    "tube_m3": {
        "scenario_tube_report.json":
            "35b225dd095f057725d3ddd7c37022d0f2e9fa82f36cda557b736c9db81543d5",
        "scenario_tube_rows.csv":
            "e503819a1a0d2c9742803b7a3c88a86d6c08f8cc233becf70b6a61af0c7fd84a",
    },
}


def run_cli(*argv):
    """`python -m dbar_range.cli` in a child whose environment sets no
    thread variable, so the CLI caps the BLAS pools at one thread before
    numpy loads; in this process numpy is loaded already, and some
    reductions (the scaling quadrature norms) round differently with more
    threads."""
    return subprocess.run(
        [sys.executable, "-m", "dbar_range.cli", *map(str, argv)],
        capture_output=True, text=True, env={"PYTHONPATH": str(ROOT / "src")},
    )


@pytest.mark.parametrize("spec", SPECS, ids=[p.stem for p in SPECS])
def test_every_shipped_scenario_runs_and_replays(spec, tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        child = run_cli("scenario", "--spec", spec, "--out", out)
        assert child.returncode == 0, child.stderr
        runs.append(outputs(out))
    assert runs[0] == runs[1]
    assert {k: sha256(v) for k, v in runs[0].items()} == SCENARIO_SHA256[spec.stem]
    report = json.loads(next(v for k, v in runs[0].items() if k.endswith("_report.json")))
    assert report["checks"] and all(c["passed"] is True for c in report["checks"])


def certify_sha256(tmp_path, domain, expect_code, *extra):
    argv = ["certify", "--domain", str(ROOT / "domains" / domain),
            "--M", "2", "--delta", "0.1", "--out", str(tmp_path), *extra]
    assert cli.main(argv) == expect_code
    return sha256((tmp_path / "certify_report.json").read_bytes())


def one_draw_mc(m, samples, seed):
    """tube_factor_mc as one draw of all samples per slice and np.mean."""
    rng = np.random.default_rng(seed)
    vol = 1.0
    for k in range(1, m + 1):
        xy = rng.uniform(-1.0, 1.0, size=(samples, 2))
        r2 = xy[:, 0] ** 2 + xy[:, 1] ** 2
        inside = r2 < 1.0
        vals = np.zeros(samples)
        vals[inside] = (1.0 - r2[inside]) ** (k - 1)
        vol *= 4.0 * float(np.mean(vals))
    return vol


@pytest.mark.parametrize("block", [7, 1 << 16, 5000])
def test_tube_factor_mc_is_one_draw_of_all_samples(block, monkeypatch):
    # the blocked draws take the stream in order, so they equal one draw
    m, samples, seed = 3, 5000, 4
    vol = one_draw_mc(m, samples, seed)
    monkeypatch.setattr(scenarios, "_MC_BLOCK", block)
    assert scenarios.tube_factor_mc(m, samples, seed) == vol


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    samples=st.sampled_from([1, 7, 8, 9, 127, 128, 129, 2**16 - 1, 2**16, 2**16 + 1,
                             2**17 + 24, 10**6 + 3]),
    block=st.sampled_from([7, 128, 1000, 1 << 16]),
    m=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_tube_factor_mc_sums_as_np_mean_at_the_split_points(samples, block, m, seed):
    # the leaves of numpy's pairwise split, summed as it sums them, give
    # np.mean's very float around every split point of the recursion
    with mock.patch.object(scenarios, "_MC_BLOCK", block):
        assert scenarios.tube_factor_mc(m, samples, seed) == one_draw_mc(m, samples, seed)


@pytest.mark.parametrize("samples", [0, -5])
def test_tube_mc_samples_below_1_exit_1_naming_the_param(samples, tmp_path, capsys):
    path = tmp_path / "spec.json"
    params = {"m": 1, "j_values": [1], "mc_samples": samples}
    path.write_text(json.dumps({"scenario": "tube", "params": params}))
    assert cli.main(["scenario", "--spec", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: mc_samples must be >= 1, got {samples}\n"
    assert not (tmp_path / "scenario_tube_report.json").exists()


def test_certify_gallery_report_bytes_pinned(tmp_path):
    assert certify_sha256(tmp_path, "uniform_gallery.json", 0) == (
        "a6b2fd15df252cad9c1fb892e3dd4339a44fb81fe6acadb97d9902b50584c32e"
    )


def test_certify_gallery_fine_mesh_report_bytes_pinned(tmp_path):
    assert certify_sha256(tmp_path, "uniform_gallery.json", 0, "--mesh", "0.01") == (
        "4ffe96d8fe8e40d123f46ecfa995209bd3c552427c7b0660131d0d2020075b04"
    )


def test_certify_whole_plane_report_bytes_pinned(tmp_path):
    # condition X fails on the plane: exit 2 with the undecided report
    assert certify_sha256(tmp_path, "whole_plane.json", 2) == (
        "9dbf5a1937a8a7240a6bef8c658f97e36bc6017b2dafe95bdd59f988695f5658"
    )


def test_certify_weight_block_does_not_depend_on_the_mesh(tmp_path):
    # the weight report holds the closed forms in (M, delta) alone
    blocks = []
    for mesh in ("0.02", "0.01"):
        certify_sha256(tmp_path / mesh, "uniform_gallery.json", 0, "--mesh", mesh)
        report = json.loads((tmp_path / mesh / "certify_report.json").read_text())
        blocks.append(canonical_json(report["weight"]))
    assert blocks[0] == blocks[1]


@pytest.mark.parametrize("M", ["0.6", "1.2"])
def test_certify_gallery_where_a_lattice_point_lies_M_from_the_domain(M, tmp_path):
    # at these M some lattice point's nearest domain node lies M away up to
    # rounding; build_lattice must drop it rather than fail clause (a)
    argv = ["certify", "--domain", str(ROOT / "domains/uniform_gallery.json"),
            "--M", M, "--delta", "0.2", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "certify_report.json").read_text())
    assert report["weight"]["M"] == float(M)


def test_cli_surface_is_the_listed_options():
    # every option of every subcommand; a new knob must be added here
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    common = {"-h", "--help", "--out", "--seed", "--mesh", "-v", "--verbose"}
    got = {name: {o for a in p._actions for o in a.option_strings}
           for name, p in sub.choices.items()}
    assert {o for a in parser._actions for o in a.option_strings} == {"-h", "--help"}
    assert got == {
        "certify": common | {"--domain", "--M", "--delta"},
        "verify": common | {"--domain", "--C", "--dump-field"},
        "scenario": common | {"--spec"},
    }


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
    assert rep["verification"]["witness_ratio"] == pytest.approx(const, rel=1e-9)
    assert verify(tmp_path / "b", 1.0)[1] == rep
    assert verify(tmp_path / "c", const)[0] == 0
    assert verify(tmp_path / "d", const * (1 - 1e-5))[0] == 3


@pytest.mark.parametrize(
    "mesh, sigma", [(None, 1.1812982895366577), ("0.03125", 1.1905577831821479)]
)
def test_verify_sigma_min_pinned_at_the_bench_meshes(mesh, sigma, tmp_path):
    # the benchmark's sigma_rel_err reads this key from a one-thread child;
    # refactoring the eigensolver must not move a bit of it
    child = run_cli("verify", "--domain", ROOT / "domains/unit_disc.json", "--C", "1",
                    "--out", tmp_path, *(["--mesh", mesh] if mesh else []))
    assert child.returncode == 0, child.stderr
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert rep["sigma_min"] == sigma
    assert rep["discrete_constant"] == 1.0 / sigma


def test_verify_sigma_min_pinned_on_a_long_lanczos_run(tmp_path):
    # 7 260 unknowns on the gallery's near-degenerate strips take 27 Lanczos
    # steps, against 9 at both bench meshes, so the Krylov basis is filled
    # well past where the bench pins reach
    child = run_cli("verify", "--domain", ROOT / "domains/uniform_gallery.json", "--C", "1",
                    "--mesh", "0.1", "--out", tmp_path)
    assert child.returncode == 0, child.stderr
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert rep["unknowns"] == 7260
    assert rep["sigma_min"] == 2.591390830242017


def test_verify_reports_eigensolver_failure(tmp_path, monkeypatch, capsys):
    # with no Ritz pair there is no evidence: exit 1 with the reason, no report
    monkeypatch.setattr(discrete, "lanczos", lambda factor, lap, **kw: None)
    argv = ["verify", "--domain", str(ROOT / "domains/unit_disc.json"), "--C", "1",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no Ritz pair" in err
    assert not (tmp_path / "verify_report.json").exists()


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


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"scenario": "tube", "params": {"m": None}}, "param 'm'"),
        ({"scenario": "scaling", "seed": None}, "'seed'"),
        ({"scenario": "gallery", "params": {"preset": "uniform", "window": 3}},
         "param 'window'"),
        ({"scenario": "scaling", "params": 5}, "'params'"),
        ({"scenario": "scaling", "params": {"j_vals": [1, 2]}}, "param 'j_vals'"),
    ],
    ids=["tube_m_null", "seed_null", "gallery_window_int", "params_int", "unknown_param"],
)
def test_malformed_scenario_spec_exits_1_naming_the_key(spec, key, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["scenario", "--spec", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenario ") and key in err


BAD_MESHES = [({"mesh": 0}, "mesh must be finite and > 0, got 0.0", "mesh_0"),
              ({"mesh": -0.1}, "mesh must be finite and > 0, got -0.1", "mesh_negative"),
              ({"mesh": "nan"}, "mesh must be finite and > 0, got nan", "mesh_nan")]


# every kind checks the mesh before it runs; scaling and tube need a scale
@pytest.mark.parametrize(
    "kind, spec, line",
    [pytest.param(kind, spec, line, id=f"{name}-{kind}")
     for spec, line, name in BAD_MESHES for kind in ("scaling", "tube", "gallery", "omega_s")]
    + [pytest.param(kind, {"params": {"j_values": []}}, "j_values must not be empty",
                    id=f"j_values_empty-{kind}") for kind in ("scaling", "tube")],
)
def test_scale_scenario_without_a_quadrature_exits_1_naming_the_key(kind, spec, line,
                                                                     tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"scenario": kind, **spec}))
    assert cli.main(["scenario", "--spec", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "kind, params, key, line",
    [
        ("omega_s", {"K": "nan"}, "K", "must be finite and > 0, got nan"),
        ("omega_s", {"K": -1}, "K", "must be finite and > 0, got -1.0"),
        ("omega_s", {"K": 0}, "K", "must be finite and > 0, got 0.0"),
        ("omega_s", {"j_min": "a"}, "j_min", "invalid literal for int() with base 10: 'a'"),
        ("omega_s", {"j_max": math.inf}, "j_max", "cannot convert float infinity to integer"),
        ("omega_s", {"kappa1": None}, "kappa1", "float() argument must be"),
        ("omega_s", {"condition_delta": [0.05]}, "condition_delta", "float() argument must be"),
        ("gallery", {"preset": "uniform", "M": [2]}, "M", "float() argument must be"),
        ("gallery", {"preset": "uniform", "condition_M": "two"}, "condition_M",
         "could not convert string to float: 'two'"),
        ("gallery", {"preset": "uniform", "condition_delta": {}}, "condition_delta",
         "float() argument must be"),
    ],
    ids=["K_nan", "K_negative", "K_0", "j_min_str", "j_max_inf", "kappa1_null",
         "omega_delta_list", "M_list", "condition_M_str", "gallery_delta_object"],
)
def test_malformed_numeric_scenario_param_exits_1_naming_it(kind, params, key, line,
                                                              tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"scenario": kind, "params": params}))
    assert cli.main(["scenario", "--spec", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario param {key!r}: {line}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


def test_numeric_scenario_params_convert_as_the_mesh_does(monkeypatch):
    # numbers and numeric strings convert with float or int, as the mesh
    # and the tube's m do; a null K or condition leaves the default
    calls = []
    for kind in ("gallery", "omega_s"):
        fn, converters = scenarios._SCENARIOS[kind]
        monkeypatch.setitem(scenarios._SCENARIOS, kind,
                            (lambda **kw: calls.append(kw), converters))
    scenarios.run_scenario({"scenario": "omega_s", "params": {
        "kappa1": "0.4", "j_min": -5.0, "j_max": "6", "condition_M": 2,
        "condition_delta": "0.05", "K": None}})
    scenarios.run_scenario({"scenario": "gallery", "params": {
        "c": [0.0, 1.0], "bands": [[0.25, 0.75]], "M": "2", "condition_M": None,
        "condition_delta": 0.1}})
    omega, gallery = calls
    assert omega == {"seed": 0, "kappa1": 0.4, "j_min": -5, "j_max": 6, "condition_M": 2.0,
                     "condition_delta": 0.05, "K": None}
    assert [type(omega[k]) for k in ("kappa1", "j_min", "j_max", "condition_M")] == [
        float, int, int, float]
    assert gallery == {"seed": 0, "c": [0.0, 1.0], "bands": [[0.25, 0.75]], "M": 2.0,
                       "condition_M": None, "condition_delta": 0.1}


@pytest.mark.parametrize(
    "argv, errno",
    [
        (["certify", "--domain", ROOT / "domains", "--M", "2", "--delta", "0.1"],
         "Is a directory"),
        (["verify", "--domain", ROOT / "domains", "--C", "1"], "Is a directory"),
        (["scenario", "--spec", ROOT / "scenarios"], "Is a directory"),
        (["certify", "--domain", ROOT / "domains" / "whole_plane.json", "--M", "2",
          "--delta", "0.1", "--out", "{file}"], "File exists"),
    ],
    ids=["certify_domain_dir", "verify_domain_dir", "scenario_spec_dir", "out_is_a_file"],
)
def test_unreadable_input_or_output_exits_1(argv, errno, tmp_path, capsys):
    # every OSError is a usage error, not an internal one
    file = tmp_path / "file"
    file.write_text("")
    argv = [str(a).format(file=file) for a in argv]
    assert cli.main(argv if "--out" in argv else [*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and errno in err


@pytest.mark.parametrize("doc", [[], "x"], ids=["list", "string"])
@pytest.mark.parametrize("extra", [[], ["--mesh", "0.05"], ["--seed", "3"]],
                         ids=["plain", "mesh", "seed"])
def test_scenario_spec_that_is_no_object_exits_1(doc, extra, tmp_path, capsys):
    # --mesh and --seed go into the spec only when it is an object
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    argv = ["scenario", "--spec", str(path), "--out", str(tmp_path), *extra]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: scenario spec needs a 'scenario' key\n"


def test_certify_modules_leave_spline_interpolation_unimported(tmp_path):
    # a certify run needs neither spline interpolation nor the discrete
    # operator and its sparse solvers
    code = (
        "import sys, dbar_range.cli, dbar_range.geometry, dbar_range.weights\n"
        "code = dbar_range.cli.main(['certify', '--domain', sys.argv[1], '--M', '2',"
        " '--delta', '0.1', '--out', sys.argv[2]])\n"
        "unused = {'scipy.interpolate', 'dbar_range.discrete', 'scipy.sparse.linalg',"
        " 'scipy.ndimage'}\n"
        "print(code, sorted(unused & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "domains/whole_plane.json"), str(tmp_path)],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.splitlines()[-1] == "2 []"


def test_certify_and_verify_leave_openssl_unloaded(tmp_path):
    # the config digest is the built-in SHA-256: importing hashlib would map
    # OpenSSL's libcrypto (about 3.6 MB resident) into every child
    code = (
        "import sys, dbar_range.cli\n"
        "main, out = dbar_range.cli.main, sys.argv[1]\n"
        "codes = [main(['certify', '--domain', sys.argv[2], '--M', '2', '--delta', '0.1',"
        " '--out', out]), main(['verify', '--domain', sys.argv[3], '--C', '1', '--out', out])]\n"
        "print(codes, '_hashlib' in sys.modules)"
    )
    domains = [str(ROOT / "domains" / d) for d in ("uniform_gallery.json", "unit_disc.json")]
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), *domains],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.splitlines()[-1] == "[0, 0] False"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@given(st.dictionaries(st.text(), _json_values, max_size=6))
def test_config_hash_is_the_sha256_of_the_canonical_config(config):
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    assert config_hash(config) == sha256(payload.encode("utf-8"))[:16]


def test_certify_fine_mesh_stays_below_6_3_bytes_per_node(tmp_path):
    # no column pass is stored: beside the raster (1 B a node) condition
    # X keeps the admissible nodes as a bit mask, and the lattice builds
    # the inside pass at its query rows alone; the command peaked at
    # 5.70 B a node with the admissible and the inside column passes
    # stored (2 B each), 2.15 B without (the weight stage's blocks)
    argv = ["certify", "--domain", str(ROOT / "domains/uniform_gallery.json"),
            "--M", "2", "--delta", "0.1", "--mesh", "0.01", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 1_442_401


def test_omega_s_scenario_stays_below_4_35_bytes_per_node(tmp_path):
    # condition X fails on omega_s, so its certificate keeps no grid, and
    # clearance and the composite weight form none beside the raster; the
    # command peaked at 6.79 B a node before they streamed, 3.94 B after,
    # and 2.64 B with the admissible nodes a bit mask and no stored pass
    argv = ["scenario", "--spec", str(ROOT / "scenarios" / "omega_s.json"),
            "--out", str(tmp_path)]
    nodes = scenarios.omega_s_composite()[0].raster.inside.size
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes == 2_085_417
    assert peak < 3.05 * nodes


def test_tube_monte_carlo_stays_below_1_85_mb():
    # one part of at most 2^14 samples at a time: the 8 MB of all samples
    # held for np.mean peaked at 11.4 MB; 1.16 MB is the peak of a first
    # call in a fresh process, 0.40 MB of a later one
    tracemalloc.start()
    try:
        scenarios.tube_factor_mc(3, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.85e6


def test_scaling_scenario_stays_below_5_mb():
    # the integrands a block of at most _QUAD_BLOCK values at a time: of
    # the 4.60 MB peak, 4.21 MB is the kept j = 16 grid of 513^2 values;
    # blocks of 64 rows of 513 values peaked at 7.91 MB
    tracemalloc.start()
    try:
        scenarios.scaling_scenario()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


@pytest.mark.parametrize("field", ["dbar_star", "dbar_dbar_star"])
def test_disc_quadrature_norm_does_not_depend_on_the_block(field, monkeypatch):
    # the scaling scenario's direct path at j = 16; 2^20 values hold the
    # whole 513 x 513 grid in one block, 1 a row a block
    fn = getattr(scenarios.BumpProfile(), field)
    norms = []
    for block in (1, 7, 4096, 2**20):
        monkeypatch.setattr(scenarios, "_QUAD_BLOCK", block)
        norms.append(scenarios._disc_quadrature_norm(lambda z: fn(z / 16) / 16, 0j, 16.0, 1 / 16))
    assert norms[0] > 0 and norms == [norms[0]] * 4


def test_bump_fields_are_the_masked_formulas_without_a_warning():
    # the fields on the square bounding the unit disc's window, and on
    # rays across the drop ring and the unit circle: off the live disc they
    # are 0, and on it the closed forms evaluated at the live nodes alone
    bump = scenarios.BumpProfile()
    xs = np.linspace(-math.sqrt(2), math.sqrt(2), 301)
    ring = 1.0 - bump._DROP_RING
    radii = np.concatenate([ring * (1 + np.array([-1e-12, -1e-15, 0.0, 1e-15, 1e-12])),
                            [0.998, 0.999, 1.0 - 1e-9, 1.0, 1.0 + 1e-9]])
    rays = radii[:, None] * np.exp(1j * np.linspace(0, 2 * math.pi, 13))[None, :]
    for z in (xs[None, :] + 1j * xs[:, None], rays):
        r2 = np.abs(z) ** 2
        live = r2 < ring**2
        assert live.any() and not live.all()
        g, zl, rl = 1.0 - r2[live], z[live], r2[live]
        want = np.zeros(z.shape, dtype=complex)
        want[live] = np.exp(-1.0 / g) * np.conj(zl) / g**2
        want_dd = np.zeros(z.shape, dtype=complex)
        want_dd[live] = np.exp(-1.0 / g) * (1.0 / g**2 + 2.0 * rl / g**3 - rl / g**4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, got_dd = bump.dbar_star(z), bump.dbar_dbar_star(z)
        assert np.array_equal(got, want) and np.array_equal(got_dd, want_dd)


@pytest.mark.parametrize("verbose", [False, True])
def test_unexpected_exception_exits_4_with_one_line(verbose, tmp_path, monkeypatch, capsys):
    def out_of_memory(args):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr(cli, "cmd_certify", out_of_memory)
    argv = ["certify", "--domain", str(ROOT / "domains/uniform_gallery.json"),
            "--M", "2", "--delta", "0.1", "--out", str(tmp_path)]
    assert cli.main([*argv, *(["-v"] if verbose else [])]) == 4
    err = capsys.readouterr().err
    line = "error: internal: MemoryError: Unable to allocate 8.00 GiB\n"
    if verbose:
        assert err.startswith("Traceback") and err.endswith(line)
    else:
        assert err == line


def test_scaling_and_tube_scenarios_leave_ndimage_unimported(tmp_path):
    # the package takes its distance tests in numpy
    code = (
        "import sys, dbar_range.cli\n"
        "codes = [dbar_range.cli.main(['scenario', '--spec', spec, '--out', sys.argv[1]])"
        " for spec in sys.argv[2:]]\n"
        "print(codes, 'scipy.ndimage' in sys.modules)"
    )
    specs = [str(ROOT / "scenarios" / f) for f in ("scaling.json", "tube_m3.json")]
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), *specs],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.splitlines()[-1] == "[0, 0] False"


def load_spans():
    """The benchmark's tracer module, bench/spans.py."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_layer_resolves():
    # bench/spans.py wraps these functions by name; a rename in the package
    # must update the tracer in the same change
    spans = load_spans()
    assert spans.LAYERS
    for module, attr, name, _ in spans.LAYERS:
        assert module.startswith("dbar_range."), name
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{name}: {module}.{attr} does not resolve"
            obj = getattr(obj, part)
        assert callable(obj), name


GEOMETRY_COUNTS = {"raster_nodes", "witnesses", "report_bytes"}


@pytest.mark.parametrize(
    "argv, code, counts",
    [
        (["certify", "--domain", "uniform_gallery.json", "--M", "2", "--delta", "0.1"], 0,
         GEOMETRY_COUNTS | {"lattice_points"}),
        (["certify", "--domain", "whole_plane.json", "--M", "2", "--delta", "0.1"], 2,
         GEOMETRY_COUNTS),
        (["verify", "--domain", "unit_disc.json", "--C", "1"], 0,
         {"raster_nodes", "unknowns", "nnz", "solves", "lsqr_iters", "solve_max_residual",
          "report_bytes"}),
        (["scenario", "--spec", "gallery_uniform.json"], 0, GEOMETRY_COUNTS | {"lattice_points"}),
    ],
    ids=["certify_gallery", "certify_whole_plane", "verify_disc", "scenario_gallery"],
)
def test_traced_commands_count_without_error(argv, code, counts, tmp_path):
    # the tracer's counters read attributes of what the layers return, so
    # a traced run fails where a dropped attribute is still counted
    spans = load_spans()
    folder = ROOT / ("scenarios" if argv[0] == "scenario" else "domains")
    argv = [*argv[:2], str(folder / argv[2]), *argv[3:], "--out", str(tmp_path)]
    result = spans.trace_command(argv)
    assert (result["exit_code"], result["error"]) == (code, None)
    assert [s["name"] for s in result["spans"] if s["error"]] == []
    totals = spans.layer_totals(result["spans"])
    assert {k for t in totals.values() for k in t["counts"]} == counts


def test_every_module_is_reached_from_the_cli():
    # follow relative imports (lazy ones too) from cli.py; a module no
    # command reaches is dead code
    pkg = ROOT / "src" / "dbar_range"
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(ast.parse((pkg / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                subs = [node.module] if node.module else [a.name for a in node.names]
                todo += [m for m in subs if (pkg / f"{m}.py").is_file()]
    modules = {p.stem for p in pkg.glob("*.py")} - {"__init__"}
    assert modules - reached == set()
    for name in sorted(modules):
        mod = importlib.import_module(f"dbar_range.{name}")
        missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
        assert missing == [], f"dbar_range.{name}.__all__ names {missing}"


# exported on purpose although no package module uses them: the scalar
# oracles of the strip and composite weights, the JSON round trip, the
# twisted-estimate check and its weight fields (ROADMAP keeps this list)
KEPT_UNREFERENCED = {
    "twisted_quadrature_check", "constant_field", "abs2_field", "gaussian_decay_field",
    "domain_to_dict", "load_domain", "strip_weight", "composite_weight",
}


def test_exported_names_are_used_by_the_package():
    # a name in some __all__ that no package module reads (as a Name, an
    # Attribute or an imported name) serves tests only, and belongs there
    referenced, exported = set(), set()
    for path in (ROOT / "src" / "dbar_range").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
    assert exported - referenced == KEPT_UNREFERENCED


def test_no_exported_callable_takes_a_mesh():
    # the mesh belongs to the domain, and every stage works on its raster;
    # LineFactor factors an index grid, not a domain, so it takes the step
    takes_h = set()
    for module in (geometry, weights, discrete):
        for name in module.__all__:
            try:
                params = inspect.signature(getattr(module, name)).parameters
            except ValueError:  # the error classes have no signature
                continue
            if "h" in params:
                takes_h.add(name)
    assert takes_h == {"LineFactor"}


def test_verify_leaves_ndimage_unimported(tmp_path):
    # the package takes its distance tests in numpy
    code = (
        "import sys, dbar_range.cli\n"
        "code = dbar_range.cli.main(['verify', '--domain', sys.argv[1], '--C', '1',"
        " '--out', sys.argv[2]])\n"
        "print(code, 'scipy.ndimage' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "domains/unit_disc.json"), str(tmp_path)],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.splitlines()[-1] == "0 False"


def test_certify_and_gallery_scenario_load_no_scipy(tmp_path):
    # condition X and the lattice take their distance tests in numpy and
    # spline strips are numpy natural splines
    code = (
        "import sys, dbar_range.cli\n"
        "main, out = dbar_range.cli.main, sys.argv[1]\n"
        "codes = [main(['certify', '--domain', d, '--M', '2', '--delta', '0.1', '--out', out])"
        " for d in sys.argv[2:4]]\n"
        "codes += [main(['scenario', '--spec', s, '--out', out]) for s in sys.argv[4:]]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    argv = [ROOT / "domains/uniform_gallery.json", ROOT / "domains/whole_plane.json", *SPECS]
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), *map(str, argv)],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert len(SPECS) == 4
    assert out.stdout.splitlines()[-1] == "[0, 2, 0, 0, 0, 0] []"


def test_no_package_module_imports_scipy():
    # importing scipy costs a child process a large share of its run; the
    # package needs numpy alone (tests keep scipy as an oracle)
    importers = set()
    for path in (ROOT / "src" / "dbar_range").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                importers.add(path.name)
    assert importers == set()


def imported_by_child(code, *argv):
    """The modules a `python -m dbar_range.cli` child imports, as a user
    runs it: -X importtime names every one."""
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "dbar_range.cli", *map(str, argv)],
        capture_output=True, text=True, env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert child.returncode == code, child.stderr
    return [line.rsplit("|", 1)[-1].strip() for line in child.stderr.splitlines()
            if line.startswith("import time:")]


def test_verify_loads_no_scipy(tmp_path):
    imported = imported_by_child(
        0, "verify", "--domain", ROOT / "domains/unit_disc.json", "--C", "1", "--out", tmp_path
    )
    assert "dbar_range.discrete" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []


def test_commands_load_no_module_only_to_name_its_error(tmp_path):
    # cli.main catches ValueError, which covers the scenario, domain, query
    # and mesh errors, so a command loads only the modules it runs
    certify = imported_by_child(
        0, "certify", "--domain", ROOT / "domains/uniform_gallery.json",
        "--M", "2", "--delta", "0.1", "--out", tmp_path,
    )
    assert "dbar_range.weights" in certify and "dbar_range.scenarios" not in certify
    verify = imported_by_child(
        0, "verify", "--domain", ROOT / "domains/unit_disc.json", "--C", "1", "--out", tmp_path
    )
    assert "dbar_range.discrete" in verify
    assert {"dbar_range.scenarios", "dbar_range.weights"}.isdisjoint(verify)


def test_verify_dump_field_is_the_eigenvector_solution(tmp_path):
    # --dump-field writes, per triangle, the canonical solution for the
    # lambda_1 eigenvector: the extremal field, whose ratio is the constant
    from dbar_range.discrete import assemble, least_norm_solve
    from dbar_range.geometry import domain_from_dict

    code, rep = verify(tmp_path, 1.0, "--dump-field")
    assert code == 0
    lines = (tmp_path / "verify_field.csv").read_text().splitlines()
    assert lines[0] == "x,y,re_u,im_u"
    got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    g = assemble(domain_from_dict(json.loads((ROOT / "domains/unit_disc.json").read_text())))
    assert got.shape == (len(g.tri_z), 4)
    alpha = g.ground_state[1]
    v, _ = least_norm_solve(g, alpha)
    assert np.array_equal(got, np.column_stack([g.tri_z.real, g.tri_z.imag, v.real, v.imag]))
    # triangle norm: weight h^2/2 per triangle
    ratio = g.h / math.sqrt(2) * np.linalg.norm(got[:, 2] + 1j * got[:, 3]) / g.norm(alpha)
    assert ratio == pytest.approx(rep["discrete_constant"], rel=1e-9)


def test_verify_dump_field_reuses_the_checked_solve(tmp_path, monkeypatch):
    # the field is the solve verify_certificate made, not a second one
    calls = []
    solve = discrete.least_norm_solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(discrete, "least_norm_solve", counted)
    for extra in ((), ("--dump-field",)):
        calls.clear()
        assert verify(tmp_path, 1.0, *extra)[0] == 0
        assert len(calls) == 1, extra


def test_verify_dump_field_bytes_pinned(tmp_path):
    child = run_cli("verify", "--domain", ROOT / "domains/unit_disc.json", "--C", "1",
                    "--out", tmp_path, "--dump-field")
    assert child.returncode == 0, child.stderr
    assert sha256((tmp_path / "verify_field.csv").read_bytes()) == (
        "52897e9553cb6955d1af4a02a338ad96e6343c18c462e5eaa56768f8774e11f7"
    )


def test_no_command_imports_numpy_ma(tmp_path):
    # plain np.unique(a) imports numpy.ma (numpy 2.x checks for a masked
    # array): about 1 MB resident in a child that never masks an array
    runs = [
        ("certify", "--domain", ROOT / "domains/uniform_gallery.json", "--M", "2", "--delta", "0.1"),
        ("verify", "--domain", ROOT / "domains/unit_disc.json", "--C", "1"),
        *(("scenario", "--spec", spec) for spec in SPECS),
    ]
    for argv in runs:
        assert "numpy.ma" not in imported_by_child(0, *argv, "--out", tmp_path), argv[:2]


def domain_file(tmp_path, tree, window, mesh, symmetry="translation_x"):
    """A domain document in tmp_path."""
    x0, x1, y0, y1 = window
    path = tmp_path / "domain.json"
    path.write_text(json.dumps({
        "window": {"x0": x0, "x1": x1, "y0": y0, "y1": y1}, "mesh": mesh,
        "symmetry": symmetry, "tree": tree,
    }))
    return path


def test_clause_a_is_measured_from_the_lattice_point(tmp_path):
    # lattice points at x = +-8 lie 1.8 beyond the window; measured from
    # their nearest node, clause (a) failed at w = -8-6j although the
    # exterior gap at y = -5.5 lies within M of w
    strips = [{"prim": "strip", "params": {"eta_lo": {"const": k - 0.25},
                                           "eta_hi": {"const": k + 0.25}}}
              for k in range(-6, 7)]
    domain = domain_file(tmp_path, {"op": "union", "children": strips},
                         (-6.2, 6.2, -6.0, 6.0), 0.02)
    child = run_cli("certify", "--domain", domain, "--M", "2", "--delta", "0.1",
                    "--out", tmp_path / "out")
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("certified: ")


def test_beyond_the_window_is_complement_without_symmetry(tmp_path):
    # the plane minus 25 holes, clipped to its window: lattice points beyond
    # the window lie in the complement, although no node outside the domain
    # is within M of w = -4.8-4.8j (clause (a) failed there)
    holes = [{"prim": "disc", "params": {"center": [x, y], "radius": 0.35}}
             for x in (-3, -1.5, 0, 1.5, 3) for y in (-3, -1.5, 0, 1.5, 3)]
    tree = {"op": "complement", "children": [{"op": "union", "children": holes}]}
    domain = domain_file(tmp_path, tree, (-4, 4, -4, 4), 0.02, symmetry="none")
    child = run_cli("certify", "--domain", domain, "--M", "1.2", "--delta", "0.1",
                    "--out", tmp_path / "out")
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("certified: ")


def test_lattice_verification_error_exits_1_without_traceback(tmp_path):
    # this rect wrongly declares translation_x, and the weight's coverage
    # re-check catches it
    rect = {"prim": "rect", "params": {"x0": -2.5, "x1": 0.8339, "y0": 0, "y1": 4}}
    domain = domain_file(tmp_path, rect, (-1.9446, 2.0554, -2, 2.3056), 0.03)
    child = run_cli("certify", "--domain", domain, "--M", "1.450574808902904",
                    "--delta", "0.18370715135139506", "--out", tmp_path / "out")
    assert child.returncode == 1
    assert child.stderr == (
        "error: coverage clause violated at sampled node (-1.9446+1.3899999999999997j)\n"
    )
    assert "Traceback" not in child.stderr


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="certify samples membership at nodes only")
def test_sub_mesh_filaments_fail_condition_x(tmp_path):
    # 86 filaments h/3 wide, centred between raster columns every 7 columns,
    # leave no exterior point 0.1 clear of the domain, yet no node sees them
    doc = json.loads((ROOT / "domains/uniform_gallery.json").read_text())
    h, x0 = doc["mesh"], doc["window"]["x0"]
    for c in x0 + h * (np.arange(3, 601, 7) + 0.5):
        doc["tree"]["children"].append({"prim": "rect", "params": {
            "x0": c - h / 6, "x1": c + h / 6, "y0": -6.0, "y1": 6.0}})
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps(doc))
    argv = ["certify", "--domain", str(domain), "--M", "2", "--delta", "0.1",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2


def test_usage_errors_exit_1(tmp_path, capsys):
    # argparse exits 2 on a usage error, the code of "condition not satisfied"
    domain = str(ROOT / "domains/uniform_gallery.json")
    for argv in (["certify", "--domain", domain],
                 ["certify", "--domain", domain, "--M", "abc", "--delta", "0.1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: dbar-range certify") and "--M" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("certify", "--mesh", "0"),
        ("certify", "--mesh", "-0.1"),
        ("certify", "--mesh", "nan"),
        ("verify", "--mesh", "0"),
        ("verify", "--mesh", "-0.1"),
        ("verify", "--mesh", "nan"),
        ("certify", "--M", "nan"),
        ("certify", "--delta", "inf"),
        ("verify", "--C", "nan"),
        ("verify", "--C", "inf"),
        ("verify", "--C", "0"),
    ],
)
def test_bad_numeric_flag_exits_1_naming_it(command, flag, value, tmp_path, capsys):
    if command == "certify":
        argv = ["certify", "--domain", str(ROOT / "domains/uniform_gallery.json"),
                "--M", "2", "--delta", "0.1"]
    else:
        argv = ["verify", "--domain", str(ROOT / "domains/unit_disc.json"), "--C", "1"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, value, "--out", str(out)])
    assert exc.value.code == 1
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "domain, mesh, argv",
    [
        ("uniform_gallery.json", 0.01, ["certify", "--M", "2", "--delta", "0.1"]),
        ("unit_disc.json", 0.03125, ["verify", "--C", "1"]),
    ],
)
def test_mesh_flag_is_the_documents_mesh(domain, mesh, argv, tmp_path):
    # --mesh replaces the domain document's mesh: the report equals that of
    # a copy of the document with that mesh, but for the config hash
    doc = json.loads((ROOT / "domains" / domain).read_text())
    assert doc["mesh"] != mesh
    copy = tmp_path / domain
    copy.write_text(json.dumps({**doc, "mesh": mesh}))
    reports = []
    for name, path, extra in (("flag", ROOT / "domains" / domain, ["--mesh", str(mesh)]),
                              ("copy", copy, [])):
        out = tmp_path / name
        assert cli.main([argv[0], "--domain", str(path), *argv[1:], "--out", str(out), *extra]) == 0
        reports.append(json.loads((out / f"{argv[0]}_report.json").read_text()))
    assert reports[0]["mesh"] == mesh
    assert reports[0].pop("config_hash") != reports[1].pop("config_hash")
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["certify", "verify"])
@pytest.mark.parametrize(
    "key, value, names",
    [("mesh", -0.05, "mesh"), ("mesh", math.nan, "mesh"), ("x1", math.inf, "window")],
)
def test_bad_mesh_or_window_exits_1_naming_it(command, key, value, names, tmp_path):
    doc = json.loads((ROOT / "domains/unit_disc.json").read_text())
    if key == "mesh":
        doc["mesh"] = value
    else:
        doc["window"][key] = value
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps(doc))
    flags = ["--M", "2", "--delta", "0.1"] if command == "certify" else ["--C", "1"]
    child = run_cli(command, "--domain", domain, *flags, "--out", tmp_path / "out")
    assert child.returncode == 1
    lines = child.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and names in lines[0]
    assert "Traceback" not in child.stderr
    assert not (tmp_path / "out").exists()
