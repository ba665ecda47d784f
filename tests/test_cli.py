"""End-to-end command-line runs on a reduced grid.

Every invocation goes through a subprocess against a 512-point grid of
length 20 with truncation 4, which keeps each command in the seconds range
while exercising the full artifact and exit-code surface.
"""

import json
import math
import os
import resource
import subprocess
import sys

import pytest

import gaborfio

# The directory holding the gaborfio package, so the subprocess imports
# the same code without PYTHONPATH set by the caller.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(gaborfio.__file__))

SMALL_CONFIG = {
    "grid": {"N": 512, "L": 20.0},
    "frame": {"truncation": 4.0},
    "fit": {"floor": 1e-12},
}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def run_cli(args, out_dir, config=None, check=True, timeout=None,
            max_bytes=None):
    """Run the CLI in a subprocess; max_bytes caps its address space."""
    cmd = [sys.executable, "-m", "gaborfio"]
    if config is not None:
        cmd += ["--config", str(config)]
    cmd += ["--out", str(out_dir)]
    cmd += args

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout, env=env,
                          preexec_fn=cap_memory if max_bytes else None)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"{args} exited {proc.returncode}\nstdout:{proc.stdout}\n"
            f"stderr:{proc.stderr}")
    return proc


def test_frame_check_report(tmp_path, config_path):
    proc = run_cli(["frame-check"], tmp_path, config_path)
    report = json.loads((tmp_path / "frame.json").read_text())
    assert set(report) == {"alpha", "beta", "A", "B", "dual_residual"}
    assert 1.25 < report["A"] < 1.32
    assert 2.69 < report["B"] < 2.76
    assert report["A"] > 0
    assert report["dual_residual"] <= 1e-10
    assert "reconstruction:" in proc.stdout


def test_decay_fit_artifact_and_determinism(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    proc = run_cli(["decay-fit", "harmonic:0.7853981633974483"], out1,
                   config_path)
    run_cli(["decay-fit", "harmonic:0.7853981633974483"], out2, config_path)
    fit = json.loads((out1 / "fit.json").read_text())
    assert set(fit) == {"operator", "s_hat", "epsilon_hat", "logC", "r2",
                        "n_points"}
    assert fit["operator"] == "harmonic:0.7853981633974483"
    assert fit["s_hat"] == 0.5
    assert fit["r2"] > 0.999
    assert "restricted s=0.5" in proc.stdout and "s=1.0" in proc.stdout
    assert (out1 / "fit.json").read_bytes() == (out2 / "fit.json").read_bytes()


def test_decay_fit_operator_list(tmp_path, config_path):
    run_cli(["decay-fit", "identity,multiplier:cos"], tmp_path, config_path)
    names = sorted(p.name for p in tmp_path.glob("fit_*.json"))
    assert names == ["fit_identity.json", "fit_multiplier-cos.json"]


def test_gs_check_all_operators(tmp_path, config_path):
    proc = run_cli(["gs-check", "all"], tmp_path, config_path)
    produced = sorted(p.name for p in tmp_path.glob("gs_*.json"))
    assert produced == sorted(
        "gs_" + name.replace(":", "-") + ".json"
        for name in ("identity", "multiplier:cos", "multiplier:poly:0.5",
                     "metaplectic:chirp:1.0", "metaplectic:dilation:2.0",
                     "harmonic:0.7853981633974483"))
    for path in tmp_path.glob("gs_*.json"):
        report = json.loads(path.read_text())
        assert report["epsilon_hat"] > 0
        assert report["r2"] > 0.95
    assert proc.stdout.count("s_hat") >= 6


def test_matrix_dump_deterministic(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["gabor-matrix"], out1, config_path)
    run_cli(["gabor-matrix"], out2, config_path)
    data1 = (out1 / "matrix.csv").read_bytes()
    assert data1 == (out2 / "matrix.csv").read_bytes()
    lines = data1.decode().splitlines()
    assert lines[0] == "lambda1,lambda2,mu1,mu2,re,im,abs,dist"
    assert len(lines) == 121 * 121 + 1


def test_matrix_dump_reports_rotation_law(tmp_path):
    cfg = tmp_path / "g1.json"
    cfg.write_text(json.dumps({"grid": {"N": 512, "L": 20.0},
                               "frame": {"window": "gaussian:1",
                                         "truncation": 4.0}}))
    proc = run_cli(["gabor-matrix"], tmp_path / "out", cfg)
    line = [l for l in proc.stdout.splitlines()
            if l.startswith("rotation law:")]
    assert len(line) == 1
    ratio = float(line[0].split("max |entry|/law")[1].split()[0])
    assert ratio <= 1.02


def test_stft_dump(tmp_path, config_path):
    run_cli(["stft"], tmp_path, config_path)
    lines = (tmp_path / "stft.csv").read_text().splitlines()
    assert lines[0] == "x,omega,re,im,abs"
    assert len(lines) == 41 * 41 + 1


def test_sparsity_report(tmp_path, config_path):
    proc = run_cli(["sparsity"], tmp_path, config_path)
    report = json.loads((tmp_path / "sparsity.json").read_text())
    assert set(report) == {"row_worst", "exponent_used"}
    assert set(report["row_worst"]) == {"C", "epsilon", "r2"}
    assert report["exponent_used"] == 1.0
    assert report["row_worst"]["epsilon"] > 0
    assert "min epsilon" in proc.stdout


def test_propagate_table(tmp_path, config_path):
    run_cli(["propagate"], tmp_path, config_path)
    lines = (tmp_path / "propagate.csv").read_text().splitlines()
    assert lines[0] == "tau,compression_ratio,rel_error_vs_dense,rel_error_vs_direct"
    assert len(lines) == 5
    last = lines[-1].split(",")
    assert float(last[0]) == 0.0
    assert float(last[1]) == 1.0
    assert float(last[2]) == 0.0


def test_oracle_check_battery(tmp_path, config_path):
    run_cli(["oracle-check"], tmp_path, config_path)
    report = json.loads((tmp_path / "oracle.json").read_text())
    for value in report["closed_form_rel_errors"].values():
        assert value <= 1e-8
    assert len(report["newton_vs_closed_max_abs"]) == 6
    for value in report["newton_vs_closed_max_abs"].values():
        assert value <= 1e-9
    assert report["moment_conversion_max_abs_error"] <= 1e-12


def test_manifest_contents(tmp_path, config_path):
    run_cli(["--grid-n", "256", "stft"], tmp_path, config_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "stft"
    assert manifest["effective_config"]["grid"]["N"] == 256
    assert manifest["overrides"]["grid_n"] == 256
    assert manifest["config_text"] == config_path.read_text()
    assert set(manifest["versions"]) == {"gaborfio", "python", "numpy"}
    assert manifest["wall_clock_seconds"] >= 0


def test_unknown_config_keys_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"grid": {"N": 512, "L": 20.0},
                               "fit": {"floorx": 1e-12}}))
    proc = run_cli(["stft"], tmp_path / "out", cfg, check=False)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "floorx" in proc.stderr

    cfg.write_text(json.dumps({"grids": {}}))
    proc = run_cli(["stft"], tmp_path / "out2", cfg, check=False)
    assert proc.returncode == 2


def test_config_value_errors_exit_2(tmp_path, config_path):
    proc = run_cli(["decay-fit", "wavelet"], tmp_path / "a", config_path,
                   check=False)
    assert proc.returncode == 2 and "error:" in proc.stderr

    cfg = tmp_path / "neg.json"
    cfg.write_text(json.dumps({"grid": {"N": 512, "L": 20.0},
                               "frame": {"truncation": 4.0},
                               "thresholds": [1e-2, -1.0]}))
    proc = run_cli(["propagate"], tmp_path / "b", cfg, check=False)
    assert proc.returncode == 2

    cfg2 = tmp_path / "odd.json"
    cfg2.write_text(json.dumps({"grid": {"N": 511, "L": 20.0}}))
    proc = run_cli(["stft"], tmp_path / "c", cfg2, check=False)
    assert proc.returncode == 2


@pytest.mark.parametrize("section, key, value", [
    ("fit", "exclusion_radius", float("nan")),
    ("fit", "floor", float("inf")),
    ("fit", "s_grid", [float("nan"), 0.5]),
    ("fit", "s_grid", [float("inf")]),
])
def test_non_finite_config_values_exit_2(tmp_path, section, key, value):
    cfg = tmp_path / "nonfinite.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    proc = run_cli(["--grid-n", "256", "decay-fit"], tmp_path / "out", cfg,
                   check=False)
    assert proc.returncode == 2
    assert f"{section}.{key}" in proc.stderr


@pytest.mark.parametrize("command", ["decay-fit", "gs-check"])
def test_tiny_s_grid_value_exits_2(tmp_path, command):
    # 1e-300 is positive and finite, but d**(1/s) overflows; the fit must
    # name the key instead of handing infinities to LAPACK.
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(dict(SMALL_CONFIG,
                                   fit={"floor": 1e-12,
                                        "s_grid": [0.5, 1e-300]})))
    proc = run_cli([command], tmp_path / "out", cfg, check=False)
    assert proc.returncode == 2
    assert "s_grid" in proc.stderr
    assert "DLASCL" not in proc.stderr


@pytest.mark.parametrize("s", [0.01, 0.002])
def test_small_s_grid_value_fits_sanely(tmp_path, s):
    # r**(1/s) spans hundreds of decades but stays finite. The line fit
    # once lost its intercept here (r2 = -0.34, logC = -8e-106), and the
    # envelope rate printed overflow and divide-by-zero warnings.
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(dict(SMALL_CONFIG,
                                   fit={"floor": 1e-12, "s_grid": [s]})))
    proc = run_cli(["decay-fit"], tmp_path / "out", cfg, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    fit = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert 0.0 <= fit["r2"] <= 1.0
    assert math.isfinite(fit["logC"])


@pytest.mark.parametrize("config, key", [
    ({"frame": {"truncation": 1e9}}, "frame.truncation"),
    ({"frame": {"alpha": 1e-9}}, "frame.truncation"),
    ({"grid": {"N": 10 ** 7}}, "grid.N"),
])
def test_oversized_configs_exit_2_before_allocating(tmp_path, config, key):
    # The lattice count and kernel size are checked against physical
    # memory before Lattice enumerates its points or any array is built;
    # before that check, the first two configs ran for minutes. The 1 GiB
    # address-space cap turns any large allocation into a crash (exit 1).
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(config))
    proc = run_cli(["decay-fit"], tmp_path / "out", cfg, check=False,
                   timeout=60, max_bytes=2 ** 30)
    assert proc.returncode == 2
    assert key in proc.stderr and "physical memory" in proc.stderr


def test_numerical_failures_exit_3(tmp_path, config_path):
    proc = run_cli(["decay-fit", "harmonic:1.5707963267948966"],
                   tmp_path, config_path, check=False)
    assert proc.returncode == 3
    assert "numerical failure:" in proc.stderr

    # An odd window at alpha*beta = 1/2 is no frame, though its frame
    # bounds look healthy.
    cfg = tmp_path / "odd.json"
    cfg.write_text(json.dumps(dict(SMALL_CONFIG,
                                   frame={"window": "hermite:1:2",
                                          "truncation": 4.0})))
    proc = run_cli(["frame-check"], tmp_path / "odd", cfg, check=False)
    assert proc.returncode == 3
    assert "no frame" in proc.stderr

    # alpha*beta = 4 > 1: no Gabor system that sparse is a frame (density
    # theorem), though its frame bounds look healthy.
    cfg = tmp_path / "sparse.json"
    cfg.write_text(json.dumps(dict(SMALL_CONFIG,
                                   frame={"alpha": 2.0, "beta": 2.0,
                                          "truncation": 4.0})))
    proc = run_cli(["decay-fit"], tmp_path / "sparse", cfg, check=False)
    assert proc.returncode == 3
    assert "no frame" in proc.stderr
