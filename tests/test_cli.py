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
import tracemalloc

import numpy as np
import pytest

import gaborfio
from gaborfio import cli

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
        for name in ("identity", "multiplier:cos", "metaplectic:chirp:1.0",
                     "metaplectic:dilation:2.0",
                     "harmonic:0.7853981633974483"))
    for path in tmp_path.glob("gs_*.json"):
        report = json.loads(path.read_text())
        assert report["epsilon_hat"] > 0
        assert report["r2"] > 0.95
    assert proc.stdout.count("s_hat") >= 5


def test_matrix_dump_deterministic(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["gabor-matrix"], out1, config_path)
    run_cli(["gabor-matrix"], out2, config_path)
    data1 = (out1 / "matrix.csv").read_bytes()
    assert data1 == (out2 / "matrix.csv").read_bytes()
    lines = data1.decode().splitlines()
    assert lines[0] == "lambda1,lambda2,mu1,mu2,re,im,abs,dist"
    assert len(lines) == 121 * 121 + 1


def test_matrix_dump_reports_rotation_law(tmp_path, config_path):
    def law_lines(operator, config):
        proc = run_cli(["gabor-matrix"] + operator, tmp_path / "out", config)
        return [l for l in proc.stdout.splitlines()
                if l.startswith("metaplectic law:")]

    def value(line, label):
        return float(line.split(label)[1].split()[0].rstrip(";"))

    # Criterion 1: the gaussian:1 window's rotation law.
    g1 = tmp_path / "g1.json"
    g1.write_text(json.dumps({"grid": {"N": 512, "L": 20.0},
                              "frame": {"window": "gaussian:1",
                                        "truncation": 4.0}}))
    [line] = law_lines([], g1)
    assert value(line, "max |entry|/law") <= 1.02
    assert abs(value(line, "peak") - 2.0 ** -0.5) <= 0.01 * 2.0 ** -0.5
    # The default gaussian:2 window: the law of the rotation, a dilation
    # and a chirp, each to 1e-12 of its peak, and of harmonic 1.5, where
    # the quadrature on this grid missed it by 0.90.
    for operator in ([], ["metaplectic:dilation:2.0"],
                     ["metaplectic:chirp:1.0"], ["harmonic:1.5"]):
        [line] = law_lines(operator, config_path)
        assert value(line, "max |entry - law|/peak") <= 1e-12, operator
    # No law covers a multiplier or a Hermite window.
    assert law_lines(["multiplier:cos"], config_path) == []
    hermite = tmp_path / "hermite.json"
    hermite.write_text(json.dumps({"grid": {"N": 512, "L": 20.0},
                                   "frame": {"window": "hermite:1:2",
                                             "truncation": 4.0}}))
    assert law_lines([], hermite) == []


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
    assert len(report["newton_vs_closed_max_abs"]) == 5
    for value in report["newton_vs_closed_max_abs"].values():
        assert value <= 1e-9
    assert report["moment_conversion_max_abs_error"] <= 1e-12


def test_manifest_contents(tmp_path, config_path):
    # L = 20 needs N >= 400 to reach the STFT samples' frequency extent.
    run_cli(["--grid-n", "1024", "stft"], tmp_path, config_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "stft"
    assert manifest["effective_config"]["grid"]["N"] == 1024
    assert manifest["overrides"]["grid_n"] == 1024
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

    # An empty list once failed in the CSV writer, after the assembly and
    # the apply, naming no key.
    cfg.write_text(json.dumps({"grid": {"N": 512, "L": 20.0},
                               "frame": {"truncation": 3.0},
                               "thresholds": []}))
    proc = run_cli(["propagate"], tmp_path / "empty", cfg, check=False)
    assert proc.returncode == 2 and "'thresholds'" in proc.stderr
    assert not (tmp_path / "empty" / "propagate.csv").exists()

    cfg2 = tmp_path / "odd.json"
    cfg2.write_text(json.dumps({"grid": {"N": 511, "L": 20.0}}))
    proc = run_cli(["stft"], tmp_path / "c", cfg2, check=False)
    assert proc.returncode == 2

    # grid.d must be the integer 1; true and 1.0 compare equal to it.
    for i, d in enumerate((True, 1.0)):
        cfg3 = tmp_path / f"d{i}.json"
        cfg3.write_text(json.dumps({"grid": {"N": 512, "L": 20.0, "d": d}}))
        proc = run_cli(["stft"], tmp_path / f"d{i}", cfg3, check=False)
        assert proc.returncode == 2
        assert "grid.d" in proc.stderr


SMALL_GRID = {"grid": {"N": 512, "L": 20.0}}


@pytest.mark.parametrize("text, argv, message", [
    (json.dumps(dict(SMALL_GRID, fit=[1e-12])), ["decay-fit"],
     "config section fit must be an object"),
    (None, ["decay-fit"], "cannot read config"),
    ('{"grid": {"N": 512,', ["decay-fit"], "is not valid JSON"),
    ('{"grid": {"N": 512, "L": 1' + "0" * 400 + "}}", ["decay-fit"],
     "'grid.L' must be a positive finite number"),
    (json.dumps(dict(SMALL_GRID, frame={"alpha": 0})), ["decay-fit"],
     "'frame.alpha' must be a positive finite number"),
    (json.dumps({"grid": {"N": 512.0, "L": 20.0}}), ["stft"],
     "'grid.N' must be a positive finite integer"),
    (json.dumps({"grid": {"N": 511, "L": 20.0}}), ["stft"],
     "'grid.N': points_per_axis must be even"),
    (json.dumps(dict(SMALL_GRID, frame={"window": 2})), ["frame-check"],
     "'frame.window' must be a nonempty string"),
    (json.dumps(dict(SMALL_GRID, operator=["identity"])), ["propagate"],
     "'operator' must be a nonempty string"),
    (json.dumps(SMALL_GRID), ["--out", "", "propagate"],
     "'out' must be a nonempty string"),
    (json.dumps(SMALL_GRID), ["decay-fit", ", ,"], "empty operator list"),
    # The config's operator is read under every command.
    (json.dumps(dict(SMALL_GRID, operator="")), ["frame-check"],
     "'operator' must be a nonempty string"),
    (json.dumps(dict(SMALL_GRID, operator="")), ["oracle-check"],
     "'operator' must be a nonempty string"),
    # Only gs-check and decay-fit take a list.
    (json.dumps(SMALL_GRID), ["stft", "identity,multiplier:cos"],
     "'identity,multiplier:cos' is a list"),
    (json.dumps(SMALL_GRID), ["propagate", "all"], "'all' is a list"),
    (json.dumps(dict(SMALL_GRID, operator="identity,")), ["gabor-matrix"],
     "'identity,' is a list"),
], ids=["section", "unreadable", "json", "past-float-range", "zero",
        "float-n", "odd-n", "window", "operator", "out", "empty-list",
        "operator-frame-check", "operator-oracle-check", "list-stft",
        "all-propagate", "list-config"])
def test_config_checks_exit_2_writing_nothing(tmp_path, monkeypatch, capsys,
                                              text, argv, message):
    # Each config and operand check, in process: exit 2, the key or spec
    # named, no traceback, and nothing written.
    cfg = tmp_path / "config.json"
    if text is not None:
        cfg.write_text(text)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code = cli.main(["--config", str(cfg), "--out", "out", *argv])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and message in err, err
    assert "Traceback" not in err
    assert not any(work.iterdir())


@pytest.mark.parametrize("frame", [
    {"alpha": 1.0, "beta": 1.0, "truncation": 4.0},
    {"window": "hermite:1:2", "truncation": 4.0}],
    ids=["gaussian-critical", "hermite-odd"])
def test_frame_check_writes_nothing_for_a_non_frame(tmp_path, capsys,
                                                    frame):
    # gaussian(2) at alpha beta = 1, which Balian-Low rules out, and the
    # odd hermite(1, 2) at alpha beta = 1/2: frame_bounds reads a
    # positive lower bound for both, and the dual reconstruction refuses
    # them. frame.json once held those bounds, written before the check.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(SMALL_GRID, frame=frame)))
    out = tmp_path / "out"
    code = cli.main(["--config", str(cfg), "--out", str(out),
                     "frame-check"])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "numerical failure: no frame" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["frame-check", "gabor-matrix",
                                     "decay-fit", "sparsity", "propagate"])
def test_grid_too_small_for_lattice_exits_2(tmp_path, command):
    # At N = 64 the default L = 32 leaves a frequency half-width of 1,
    # short of the truncation 8 plus the grid margin. gabor-matrix once
    # wrote a matrix with every column flagged, and decay-fit and
    # sparsity reported "no signal".
    out = tmp_path / "out"
    proc = run_cli(["--grid-n", "64", command], out, check=False)
    assert proc.returncode == 2
    assert "grid too small" in proc.stderr
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["stft", "gs-check"])
@pytest.mark.parametrize("n", [64, 256])
def test_grid_short_of_stft_extent_exits_2(tmp_path, command, n):
    # The default L = 32 gives a frequency half-width N / 64 below the
    # STFT samples' extent 10; past it the samples would repeat.
    out = tmp_path / "out"
    proc = run_cli(["--grid-n", str(n), command], out, check=False)
    assert proc.returncode == 2
    assert f"grid.N {n}" in proc.stderr and "grid.L 32" in proc.stderr
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", [
    "frame-check", "stft", "gs-check", "gabor-matrix", "decay-fit",
    "sparsity", "propagate", "oracle-check"])
def test_high_hermite_order_exits_2(tmp_path, monkeypatch, command):
    # From order 85 on, frame_bounds' Gram product of the unnormalized
    # window overflows; orders past 64 are refused with the spec named.
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    for order in (90, 400):
        spec = f"hermite:{order}:2"
        cfg = tmp_path / f"h{order}.json"
        cfg.write_text(json.dumps(dict(SMALL_CONFIG,
                                       frame={"window": spec,
                                              "truncation": 4.0})))
        out = tmp_path / f"out{order}"
        proc = run_cli([command], out, cfg, check=False)
        assert proc.returncode == 2, proc.stderr
        assert spec in proc.stderr and "64" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()


def test_non_finite_operator_parameter_exits_2(tmp_path, config_path):
    out = tmp_path / "out"
    proc = run_cli(["gabor-matrix", "multiplier:poly:nan"], out, config_path,
                   check=False)
    assert proc.returncode == 2
    assert "'multiplier:poly:nan'" in proc.stderr
    assert not (out / "matrix.csv").exists()


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


def test_sparsity_rank_overflow_exits_2(tmp_path):
    # s_hat = 0.002 raises row ranks to 1/(2 s_hat) = 250, which
    # overflows; that once reached LAPACK and printed DLASCL errors.
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(dict(SMALL_CONFIG,
                                   fit={"floor": 1e-12, "s_grid": [0.002]})))
    proc = run_cli(["sparsity"], tmp_path / "out", cfg, check=False)
    assert proc.returncode == 2
    assert "s_grid" in proc.stderr
    assert "DLASCL" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


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


def test_dual_window_system_is_counted_before_allocating(tmp_path):
    # At grid.N 2**20 with one lattice point the apply buffer is 64 MiB,
    # but the canonical dual's Gram solve on the doubled grid would take
    # about 12 TiB. Without its own term in the size guard,
    # frame-check reaches that solve and crashes under the 1 GiB cap.
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"grid": {"N": 2 ** 20},
                               "frame": {"truncation": 0.0}}))
    proc = run_cli(["frame-check"], tmp_path / "out", cfg, check=False,
                   timeout=60, max_bytes=2 ** 30)
    assert proc.returncode == 2
    assert "grid.N" in proc.stderr and "dual-window system" in proc.stderr
    assert "physical memory" in proc.stderr


@pytest.mark.parametrize("command, memory, code", [
    ("propagate", 36, 2), ("decay-fit", 100, 0), ("sparsity", 100, 0),
    ("decay-fit", 65, 0), ("gabor-matrix", 36, 2), ("decay-fit", 64, 2)],
    ids=["propagate-2", "decay-fit-0", "sparsity-0", "decay-fit-0-block",
         "gabor-matrix-2", "decay-fit-2-fits"])
def test_ordered_matrix_copy_is_counted(tmp_path, monkeypatch, capsys,
                                        command, memory, code):
    # 1089 lattice points: the dense matrix takes 16 bytes per entry and
    # sparse_apply's magnitude-ordered copy 40 more. With physical memory
    # set to 36 bytes per entry, the matrix alone, assemble's block and
    # analysis atoms all fit; only the copy does not, and only propagate
    # builds it. Nor does gabor-matrix's law report, 26 bytes more per
    # entry. decay-fit and sparsity hold the matrix and the fits' arrays,
    # 48 bytes more at most (the matrix stores no distances), and the
    # table's arrays of O(|L|) and its interpreter allowance, 0.69 more
    # on this frame: 64.69 in all, so they run at 100, where neither the
    # copy nor the law report would fit on top. At 65 bytes per entry
    # (77.1 MB) they just fit, and so does assemble: its 128-atom block
    # with its apply buffer takes 6.3 MB and its analysis atoms at most
    # 17.8 MB. At 64 the matrix with the fits' arrays does not fit.
    n_lattice = 33 ** 2
    real_sysconf = os.sysconf
    fake = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory * n_lattice ** 2}
    monkeypatch.setattr(os, "sysconf",
                        lambda name: fake.get(name) or real_sysconf(name))
    cfg = tmp_path / "fine.json"
    cfg.write_text(json.dumps({
        "grid": {"N": 512, "L": 20.0},
        "frame": {"alpha": 0.25, "beta": 0.25, "truncation": 4.0}}))
    got = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                    command])
    err = capsys.readouterr().err
    assert got == code, err
    if code:
        extra = {"propagate": "magnitude-ordered copy",
                 "gabor-matrix": "law report",
                 "decay-fit": "fits' samples"}[command]
        assert "frame.truncation" in err and extra in err


def _charged(config, command):
    """The size guard's bytes per stage of command on config (a dict)."""
    exp = cli.Experiment.from_dict(cli._merge(config, cli.DEFAULTS, ""))
    return {stage: sum(row[1] for row in rows)
            for stage, rows in cli._memory_table(exp)[command].items()}


def _traced_peak(tmp_path, config, command):
    """Traced peak bytes of one CLI run of command on config (a dict)."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(["--config", str(cfg), "--out",
                         str(tmp_path / "out"), *command.split()]) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _traced_and_refused(tmp_path, monkeypatch, capsys, config, command):
    """A CLI run's traced peak; the guard must refuse it at that memory.

    Returns (peak, the guard's largest stage sum, its refusal message).
    """
    peak = _traced_peak(tmp_path, config, command)
    capsys.readouterr()
    real_sysconf = os.sysconf
    fake = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": peak}
    with monkeypatch.context() as patch:
        patch.setattr(os, "sysconf",
                      lambda name: fake.get(name) or real_sysconf(name))
        assert cli.main(["--config", str(tmp_path / "run.json"), "--out",
                         str(tmp_path / "out"), *command.split()]) == 2
    charged = max(_charged(config, command.split()[0]).values())
    return peak, charged, capsys.readouterr().err


def _fine(truncation, **sections):
    """The 0.25-step frame on N 512: 625 points at truncation 3, 1089 at 4."""
    return dict({"grid": {"N": 512, "L": 20.0},
                 "frame": {"alpha": 0.25, "beta": 0.25,
                           "truncation": truncation}}, **sections)


@pytest.mark.parametrize("command, ceiling", [
    ("decay-fit", 80.6), ("sparsity", 79.8), ("decay-fit all", 81.9),
    ("gabor-matrix", 52), ("propagate", 48),
    ("gabor-matrix multiplier:cos", 43), ("decay-fit multiplier:cos", 74)])
def test_fit_commands_are_charged_their_traced_peak(tmp_path, monkeypatch,
                                                    capsys, command,
                                                    ceiling):
    # Every allocation of the run traced, on 625 and 1089 points: the run
    # must stay under the size guard's charge (cli._memory_table), so the
    # guard refuses it with physical memory set to its traced peak, for
    # its matrix. Traced on 1089 points, bytes per entry: decay-fit and
    # sparsity 44.0 (53.8 on 625), all six operators 48.0, gabor-matrix
    # 41.1 against 42.7 charged, propagate 41.6 against 59.2 (55.8 on 625
    # against 65.2), multiplier:cos 16.8 (gabor-matrix) and 48.0
    # (decay-fit). On 1089 points the run must also stay under ceiling
    # bytes per entry, the charges and peaks of earlier designs: before
    # the fits shared their shells the fit commands peaked at it or more;
    # gabor-matrix peaked at 58.1-58.7 (charged 58) while the matrix
    # stored its distances and at 50.1-50.9 (charged 51) while its law
    # report held two temporaries; propagate peaked at 87.2-88.1
    # (charged 56) while its magnitude order and partial products held
    # copies, and at 61.6 (65.1 on 625) while the order held every entry
    # whatever the thresholds kept.
    for truncation in (3.0, 4.0):
        peak, charged, err = _traced_and_refused(
            tmp_path, monkeypatch, capsys, _fine(truncation), command)
        entries = (8 * truncation + 1) ** 4
        assert peak < charged, (peak / entries, charged / entries)
        assert "frame.truncation" in err
    assert peak / entries <= ceiling
    extra = {"gabor-matrix": "law report",
             "propagate": "magnitude-ordered copy"}.get(command.split()[0],
                                                        "fits' samples")
    assert extra in err


@pytest.mark.parametrize("command", [
    "gabor-matrix", "decay-fit multiplier:cos", "sparsity multiplier:cos",
    "propagate"])
def test_table_slope_is_the_traced_slope(tmp_path, monkeypatch, capsys,
                                         command):
    # Every entry above the floor is the fits' and the law report's worst
    # case, and a threshold that keeps every entry propagate's: its
    # magnitude order then holds every entry. Between 625 and 1089
    # points, the charge of the stage that holds the run's peak must grow
    # at least as fast per entry as the traced peak, and at most 1.25
    # times as fast: traced 41.0 (law report), 63.9 (fits) and 56.0
    # (thresholded apply) bytes per entry, charged 42.0, 64.0 and 56.3.
    peaks, charges = [], []
    for truncation in (3.0, 4.0):
        config = _fine(truncation, fit={"floor": 1e-300},
                       thresholds=[1e-300, 0.0])
        peak, _, _ = _traced_and_refused(tmp_path, monkeypatch, capsys,
                                         config, command)
        peaks.append(peak)
        charges.append(_charged(config, command.split()[0]))
    stage = max(charges[1], key=charges[1].get)
    growth = 1089 ** 2 - 625 ** 2
    traced = (peaks[1] - peaks[0]) / growth
    charged = (charges[1][stage] - charges[0][stage]) / growth
    assert traced <= charged <= 1.25 * traced, (stage, traced, charged)


@pytest.mark.parametrize("thresholds", [[1e-6, 1e-300, 0.0],
                                        [1e-300, 1e-301, 0.0]])
def test_lower_threshold_after_another_is_charged(tmp_path, monkeypatch,
                                                  capsys, thresholds):
    # A lower threshold extends the held magnitude order. Had it gathered
    # the longer order while the held one was cached, a threshold that
    # keeps every entry after another would hold both: traced 96.6 bytes
    # per entry on 1089 points against 58.3 charged. Freeing the held
    # order first, it traces 57.5, what the first threshold alone traces.
    # The order that held every entry once a threshold kept half of them
    # traced 69.1 after 1e-6, against 65.4 charged.
    for truncation in (3.0, 4.0):
        peak, charged, err = _traced_and_refused(
            tmp_path, monkeypatch, capsys,
            _fine(truncation, thresholds=thresholds), "propagate")
        assert peak < charged, peak / (8 * truncation + 1) ** 4
        assert "magnitude-ordered copy" in err


@pytest.mark.parametrize("n, truncation", [(512, 3.0), (2048, 4.0)])
def test_frame_check_is_charged_its_traced_peak(tmp_path, monkeypatch,
                                                capsys, n, truncation):
    # Traced 4.3 MiB on 625 points at N 512 and 14.8 MiB on 1089 points
    # at N 2048. The Walnut check is charged its 256-row blocks, 7.4 MiB
    # at N 2048 (traced 3.4), and the canonical dual its system's build
    # and its Gram solve, 8.4 and 7.6 MiB (traced 6.0), where the guard
    # charged 30.2 and 12.1 while the check held every row. The frame
    # bounds' Gram matrices now hold the largest charge, 18.8 MiB (6.3
    # at N 512).
    config = {"grid": {"N": n, "L": 20.0},
              "frame": {"alpha": 0.25, "beta": 0.25, "truncation": truncation}}
    peak, charged, err = _traced_and_refused(tmp_path, monkeypatch, capsys,
                                             config, "frame-check")
    assert peak < charged
    assert "frame-check's frame bounds" in err and "grid.N" in err


@pytest.mark.parametrize("n", [512, 4096])
@pytest.mark.parametrize("command", ["oracle-check", "gs-check all"])
def test_operator_applies_are_charged_their_traced_peak(tmp_path, monkeypatch,
                                                        capsys, command, n):
    # From a cold plan cache, so every plan the run applies is built and
    # kept inside the trace: the run must stay under the size guard's
    # charge, the cache's bound included, and the guard must refuse it
    # with physical memory set to its traced peak. Traced at N 512 and
    # 4096: oracle-check 0.45 and 1.96 MiB against 4.98 and 6.62 charged,
    # gs-check all 1.36 and 8.48 MiB against 5.57 and 11.28, where 4 MiB
    # of each charge is the cache's bound.
    gaborfio.fio._plans.clear()
    config = {"grid": {"N": n, "L": 32.0 * n / 1024}}
    peak, charged, err = _traced_and_refused(tmp_path, monkeypatch, capsys,
                                             config, command)
    assert peak < charged, (peak, charged)
    assert "grid.N" in err and "physical memory" in err


@pytest.mark.parametrize("config", [
    {"grid": {"N": 512, "L": 20.0}}, {}, {"grid": {"N": 2048, "L": 20.0}}])
def test_inversion_formula_is_charged_its_traced_peak(config):
    # inversion_formula_reconstruct alone, with its signal and window
    # made before: its own rows, the sums and the coefficient table, and
    # the interpreter's row for the array headers and axes, must cover
    # its traced peak. Traced 3.55, 6.70 and 13.01 MiB at N 512, 1024
    # and 2048, 0.40 MiB of it the 161 x 161 table, which the sums' row
    # alone missed.
    exp = cli.Experiment.from_dict(cli._merge(config, cli.DEFAULTS, ""))
    f = exp.test_signal()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gaborfio.gabor.inversion_formula_reconstruct(f, exp.window)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows = cli._memory_table(exp)["frame-check"]["inversion formula"]
    own = sum(size for name, size, _ in rows
              if name.startswith(("the inversion formula's",
                                  "the interpreter's")))
    assert peak <= own


def test_walnut_check_is_counted_before_allocating(monkeypatch):
    # N 65536 on L 16384, alpha 1/32, beta 1/4: a block of 256 doubled-
    # grid times by the 1,048,577 window shifts is 18.5 GiB, past 7.8 GiB
    # of physical memory on its own, and the Walnut check is the largest
    # stage (the Wexler-Raz system's is 10.1 GiB). On N 65536, L 128,
    # steps 1/8, which the guard refused while it charged the products
    # over every doubled-grid time (10.3 GiB), the blocks take 38 MiB
    # and the largest stage, the Wexler-Raz system's, 1.4 GiB. Not run.
    fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 7.8 * 2 ** 30 // 4096}
    monkeypatch.setattr(os, "sysconf", fake.__getitem__)

    def experiment(n, length, alpha, beta):
        return cli.Experiment.from_dict(cli._merge(
            {"grid": {"N": n, "L": length},
             "frame": {"alpha": alpha, "beta": beta, "truncation": 2.0}},
            cli.DEFAULTS, ""))
    with pytest.raises(cli.ConfigError, match="frame-check's Walnut check "
                       ".*Walnut check's block of window products"):
        cli._check_sizes(experiment(65536, 16384.0, 2 ** -5, 0.25),
                         "frame-check")
    cli._check_sizes(experiment(65536, 128.0, 0.125, 0.125), "frame-check")


def _walnut_experiment(n, length, step, window="gaussian:2",
                       truncation=8.0):
    return cli.Experiment.from_dict(cli._merge(
        {"grid": {"N": n, "L": length},
         "frame": {"window": window, "alpha": step, "beta": step,
                   "truncation": truncation}}, cli.DEFAULTS, ""))


def _walnut_shifts_charged(exp):
    """The dual shifts the size guard charges the Walnut check."""
    rows = cli._memory_table(exp)["frame-check"]["Walnut check"]
    size = next(size for name, size, _ in rows
                if name == "the Walnut check's shifted duals")
    return size / (96 * exp.grid.points_per_axis)


@pytest.mark.parametrize("n, length, step, window, taken, charged", [
    (1024, 32.0, 2 ** -0.5, "gaussian:2", 19, 45),
    (2048, 20.0, 0.25, "gaussian:2", 7, 11),
    (1024, 128.0, 0.125, "gaussian:2", 3, 11),
    (1024, 32.0, 2 ** -0.5, "hermite:3:2", 21, 45),
    (1024, 32.0, 2 ** -0.5, "gaussian:0.5", 9, 29)])
def test_walnut_charge_covers_the_shifts_taken(monkeypatch, n, length, step,
                                               window, taken, charged):
    # The check shifts the dual within twice the window's reach, and the
    # guard charges the shifts within twice the radius where the window
    # is flushed to 0, plus a grid step: 20.1 for width 2. It charged
    # every shift of the doubled grid, 33 where N 1024, L 128, steps 1/8
    # take 3 and 45 where gaussian(0.5) takes 9 on the reference frame.
    exp = _walnut_experiment(n, length, step, window)
    ext = exp.grid.doubled()
    counts = []
    shifted = gaborfio.gabor._shifted

    def recording(source, grid, xs):
        if not isinstance(source, gaborfio.gabor.Window):
            counts.append(len(xs))
        return shifted(source, grid, xs)
    monkeypatch.setattr(gaborfio.gabor, "_shifted", recording)
    gaborfio.gabor._walnut_frame_operator(
        exp.window, gaborfio.make_lattice(step, step, exp.truncation), ext,
        exp.window.evaluate(ext.times()).astype(complex))
    assert counts == [taken]
    assert _walnut_shifts_charged(exp) == charged


def test_walnut_charge_admits_a_frame_the_doubled_grid_refused(monkeypatch):
    # N 65536, L 16384, beta 1/4: the guard charged the 8,193 shifts of
    # the doubled grid, 48 GiB, where a Gaussian(2) window's check takes
    # 7; it now charges 21. N 1024, L 128, steps 1/8 at truncation 0.5:
    # the Walnut check is the largest stage, charged 33 shifts before
    # and 11 now, and with physical memory set between the two charges
    # the guard admits the frame it refused. Not run.
    assert _walnut_shifts_charged(
        _walnut_experiment(65536, 16384.0, 0.25, truncation=2.0)) == 21
    exp = _walnut_experiment(1024, 128.0, 0.125, truncation=0.5)
    charges = {stage: sum(row[1] for row in rows) for stage, rows
               in cli._memory_table(exp)["frame-check"].items()}
    new = charges.pop("Walnut check")
    old = new + 96 * 1024 * (33 - _walnut_shifts_charged(exp))
    assert max(charges.values()) < new < old
    fake = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": (new + old) // 2}
    monkeypatch.setattr(os, "sysconf", fake.__getitem__)
    cli._check_sizes(exp, "frame-check")
    fake["SC_PHYS_PAGES"] = new - 1
    with pytest.raises(cli.ConfigError, match="frame-check's Walnut check"):
        cli._check_sizes(exp, "frame-check")


def test_every_command_is_in_the_memory_table():
    # A subcommand without a table entry would fall through the guard.
    exp = cli.Experiment.from_dict(cli._merge({}, cli.DEFAULTS, ""))
    assert set(cli._memory_table(exp)) == set(cli.COMMANDS)


def test_readme_lists_every_command():
    # README's subcommand table, in the order of cli.COMMANDS.
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    table = text.split("| subcommand | artifact | purpose |\n|---|---|---|\n"
                       )[1].split("\n\n")[0]
    assert [row.split("`")[1] for row in table.splitlines()] == list(
        cli.COMMANDS)


def test_frame_check_builds_no_atom_matrix(tmp_path, capsys):
    # N 2048 with 1089 lattice points: frame-check traced 138.6 MiB while
    # the frame built its N x |L| atoms and dual atoms (34 MiB each) and
    # frame_bounds took a conjugated copy of the atoms. From the atoms'
    # factors it traced 28.0 MiB, 26.4 of it the Walnut check's window
    # products over the whole doubled grid (gabor._walnut_frame_operator).
    # Walked in 256-row blocks, that stage traces 3.4 MiB, the canonical
    # dual's Gram solve (gabor._canonical_dual) 6.0, and the run 14.8.
    peak = _traced_peak(tmp_path, {
        "grid": {"N": 2048, "L": 20.0},
        "frame": {"alpha": 0.25, "beta": 0.25, "truncation": 4.0}},
        "frame-check")
    capsys.readouterr()
    assert peak <= 40 * 2 ** 20, peak / 2 ** 20


def _traced_peak_per_entry(tmp_path, command, fit=None):
    """Traced peak of a CLI run on the 1089-point frame, per entry."""
    config = _fine(4.0) if fit is None else _fine(4.0, fit=fit)
    return _traced_peak(tmp_path, config, command) / (33 ** 2) ** 2


def test_decay_fit_peak_holds_no_array_of_every_entry(tmp_path, capsys):
    # Traced on the 1089-point frame at the default floor, decay-fit
    # peaked at 44.7 bytes per entry: the matrix (16) and the fits' arrays
    # of the 46-67% of its entries at or above the floor. While the fits
    # cached every entry's distance and magnitude (16 bytes per entry) it
    # peaked at 67.1-67.8. The run must stay within 5% of 44.7.
    peak = _traced_peak_per_entry(tmp_path, "decay-fit")
    capsys.readouterr()
    assert peak <= 1.05 * 44.7, peak


@pytest.mark.parametrize("command", ["decay-fit multiplier:cos",
                                     "sparsity multiplier:cos"])
def test_fit_commands_worst_case_is_charged(tmp_path, capsys, command):
    # Every entry above the floor and in a clean shell is the fits' worst
    # case, which _check_sizes charges: 64.9 bytes per entry traced.
    peak = _traced_peak_per_entry(tmp_path, command, {"floor": 1e-300})
    capsys.readouterr()
    assert 60 <= peak <= 65, peak


def test_exclusion_radius_past_every_sample_exits_3(tmp_path):
    # Nothing is left past the radius; the fit once blamed the floor
    # ("no signal: all samples below floor 1e-12").
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(dict(SMALL_CONFIG, fit={
        "floor": 1e-12, "exclusion_radius": 1e300})))
    proc = run_cli(["decay-fit"], tmp_path / "out", cfg, check=False)
    assert proc.returncode == 3
    assert "insufficient data: exclusion radius 1e+300 dropped all" in (
        proc.stderr)
    assert "below floor" not in proc.stderr


def test_singular_dual_gram_exits_3(tmp_path, config_path, monkeypatch,
                                    capsys):
    # np.linalg.LinAlgError is a ValueError, which the CLI reports as a
    # config error (exit 2). A Gram matrix of the canonical dual that
    # cannot be factored is a numerical failure of this frame instead.
    def singular(*_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    code = cli.main(["--config", str(config_path), "--out",
                     str(tmp_path / "out"), "frame-check"])
    err = capsys.readouterr().err
    assert code == 3, err
    assert ("numerical failure: no frame: the canonical dual's adjoint "
            "system") in err
    assert "Traceback" not in err


def test_large_lattice_assembles_under_a_gib(tmp_path):
    # N 4096, L 64, truncation 16: 2025 lattice points on an 8192-point
    # doubled grid. Their atoms and the apply's buffer, built whole, took
    # 759 MiB next to the 63 MiB matrix, and under a 1 GiB address-space
    # cap decay-fit died of a MemoryError (exit 1). One 90-atom block at
    # a time takes 34 MiB.
    cfg = tmp_path / "large.json"
    cfg.write_text(json.dumps({
        "grid": {"N": 4096, "L": 64.0}, "frame": {"truncation": 16.0},
        "fit": {"floor": 1e-12}}))
    proc = run_cli(["decay-fit", "harmonic:0.8"], tmp_path / "out", cfg,
                   check=False, timeout=120, max_bytes=2 ** 30)
    assert proc.returncode == 0, proc.stderr
    fit = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert fit["operator"] == "harmonic:0.8"


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
